"""Set-up, the measuring loops, and the metrics computed from them.

One process, one thread, one client connection, closed loop: the next
statement is sent when the previous one has returned (the engine is
single-threaded, so more in-process clients would only interleave).

A run is either *timed* (``--trace 0``: no benchmark instrumentation at
all, gives the end-to-end metrics) or *traced* (``--trace 1``: rounds
alternate between plain and span-recording, gives the per-layer metrics
and the tracing overhead from the same run).
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import VectorHCluster
from repro.common.config import Config
from repro.tpch import generate_tpch, tpch_schemas
from repro.tpch.schema import LOAD_ORDER

from benchmarks.e2e import spans
from benchmarks.e2e.oracle import Model
from benchmarks.e2e.workloads import BACKGROUND, READ, Env, Op, Workload

SCALE_FACTOR = 0.02
SMOKE_SCALE_FACTOR = 0.005
N_WORKERS = 4
N_PARTITIONS = 8
#: clusters built per timed run; ``setup_s`` is the median
SETUPS = 3
#: statements per template whose raw spans go to the Chrome trace
RAW_PER_TEMPLATE = 2
#: the host's speed moving by more than this within a run marks it noisy
NOISY_DRIFT = 0.10


def bench_config() -> Config:
    """The block sizes of ``benchmarks/conftest.py:bench_config``; caches
    and instruments stay at their defaults."""
    config = Config()
    config.block_size = 32 * 1024
    config.blocks_per_group = 4
    config.blocks_per_chunk = 64
    config.hdfs_block_size = 256 * 1024
    config.cores_per_node = 20
    return config


class SpeedKernel:
    """A fixed kernel timed all through a run, to take the host out of
    the numbers.

    The sandbox's core runs at one of a few speeds depending on what else
    the host is doing, and moves between them every few minutes or
    seconds: every statement is then up to 1.45x slower, which no
    regression bound survives. Measured over two hours of alternating
    this kernel with the workloads: when a pure-Python loop slows by
    1.3-1.45x and numpy sum/take/argsort by 1.15-1.3x, statements slow by
    the mean of the two; set-up, which allocates far more, slows by
    1.4-1.8x, like a loop that churns small dicts and lists (1.8-2.0x).
    So the kernel has a CPU part (Python loop + numpy) and an allocation
    part; statement times are multiplied by ``CPU_REFERENCE_S / CPU
    part`` and set-up times by the same ratio of the whole kernel. A
    reported "ms" is a millisecond on a host where the kernel takes the
    reference times -- this sandbox at its fastest. The raw CPU part is
    reported as ``bench.calib_ms`` so raw wall time can be recovered.
    """

    #: kernel times with this sandbox's core at its fastest
    CPU_REFERENCE_S = 0.0068
    ALLOC_REFERENCE_S = 0.0029

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.values = rng.random(35_000)
        self.index = rng.integers(0, len(self.values), len(self.values))
        #: the CPU part of every sample taken, in order
        self.samples: List[float] = []
        self._once()  # the first call pays for numpy's lazy set-up

    def _once(self) -> Tuple[float, float]:
        start = perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        total += self.values.sum() + self.values.take(self.index).sum()
        total += np.argsort(self.values, kind="stable")[0]
        middle = perf_counter()
        counts: Dict[int, int] = {}
        for i in range(20_000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
            [i].append(i)
        return middle - start, perf_counter() - middle

    def sample(self) -> Tuple[float, float]:
        """(CPU part, allocation part), each the median of three."""
        runs = [self._once() for _ in range(3)]
        cpu = statistics.median(r[0] for r in runs)
        self.samples.append(cpu)
        return cpu, statistics.median(r[1] for r in runs)

    def factor(self, before, after) -> float:
        """What to multiply a statement time measured between two
        samples by."""
        return self.CPU_REFERENCE_S / ((before[0] + after[0]) / 2)

    def setup_factor(self, before, after) -> float:
        """The same for set-up time: the whole kernel."""
        return ((self.CPU_REFERENCE_S + self.ALLOC_REFERENCE_S)
                / ((sum(before) + sum(after)) / 2))

    def drift(self) -> float:
        """Kernel time in the last third of the run over the first third,
        minus one: how much the host's speed moved during the run."""
        third = max(1, len(self.samples) // 3)
        return (statistics.median(self.samples[-third:])
                / statistics.median(self.samples[:third]) - 1.0)


# ------------------------------------------------------------------ set-up

class Setup:
    """One built cluster with its data, model and set-up times."""

    def __init__(self, workload: Workload, env: Env, data, times,
                 written_bytes: float):
        self.workload = workload
        self.env = env
        self.data = data
        self.times: Dict[str, float] = times
        #: HDFS bytes written (all replicas) by create + bulk load
        self.written_bytes = written_bytes

    @property
    def seconds(self) -> float:
        return sum(self.times.values())


def build(workload_cls, seed: int, scale_factor: float,
          problems: List[str], speed: SpeedKernel) -> Setup:
    """Generate, create, bulk-load, serve and warm up -- all of it is
    ``setup_s``. Building the benchmark's own model is not."""
    workload = workload_cls(seed)
    config = bench_config()
    workload.configure(config)

    before = speed.sample()
    t0 = perf_counter()
    data = generate_tpch(scale_factor, seed=seed)
    t1 = perf_counter()
    cluster = VectorHCluster(n_nodes=N_WORKERS, config=config)
    schemas = tpch_schemas(n_partitions=N_PARTITIONS)
    for name in LOAD_ORDER:
        cluster.create_table(schemas[name])
        cluster.bulk_load(name, data[name])
    t2 = perf_counter()
    written = cluster.registry.get("hdfs_written_bytes_total").total()
    conn = cluster.serve().connect()
    t3 = perf_counter()

    env = Env(cluster, conn, Model(data))
    workload.start(env)
    # one untimed pass over every template: fills the buffer pools and
    # lets the optimizer's cardinality feedback settle
    t4 = perf_counter()
    for op in workload.warm_up():
        run_op(op, env, problems)
    for op in workload.round():
        run_op(op, env, problems)
    t5 = perf_counter()
    factor = speed.setup_factor(before, speed.sample())
    return Setup(workload, env, data, {
        "generate": (t1 - t0) * factor, "load": (t2 - t1) * factor,
        "serve": (t3 - t2) * factor, "warmup": (t5 - t4) * factor}, written)


def raw_user_bytes(data) -> int:
    """Exact size of the generated user data: fixed-width values at their
    storage width, strings at their length plus a 4-byte length word."""
    schemas = tpch_schemas(n_partitions=N_PARTITIONS)
    total = 0
    for table, columns in data.items():
        for name, values in columns.items():
            ctype = schemas[table].ctype(name)
            if ctype.is_string:
                total += sum(map(len, values)) + 4 * len(values)
            else:
                total += ctype.width * len(values)
    return total


def stored_bytes(cluster) -> int:
    return sum(t.total_bytes() for t in cluster.tables.values())


# --------------------------------------------------------------- measuring

class Sample:
    """One executed operation."""

    __slots__ = ("template", "kind", "seconds", "raw_seconds", "ok", "trace")

    def __init__(self, template, kind, seconds, ok, trace=None):
        self.template = template
        self.kind = kind
        self.seconds = seconds
        #: as measured, before normalisation by the speed kernel
        self.raw_seconds = seconds
        self.ok = ok
        self.trace = trace

    def scale(self, factor: float) -> None:
        self.seconds *= factor
        if self.trace is not None:
            self.trace.wall *= factor
            self.trace.self_s = {name: value * factor for name, value
                                 in self.trace.self_s.items()}


def run_op(op: Op, env: Env, problems: List[str],
           rec: Optional[spans.Recorder] = None,
           keep_raw: bool = False) -> Sample:
    """Run one operation, time it from outside, then check its answer.
    A raised error, a refusal or a wrong answer all count as failed."""
    value = error = trace = None
    if rec is not None:
        frame = rec.begin_statement(keep_raw)
    start = perf_counter()
    try:
        value = op.run(env)
    except Exception as exc:  # noqa: BLE001 - counted and reported below
        error = f"{op.template}: raised {exc!r}"
    seconds = perf_counter() - start
    if rec is not None:
        trace = rec.end_statement(frame, op.template)
        seconds = trace.wall
    if error is None:
        try:
            if not op.check(value):
                error = f"{op.template}: wrong answer"
        except Exception as exc:  # noqa: BLE001 - a broken reference
            error = f"{op.template}: reference failed with {exc!r}"
    if error is not None:
        problems.append(error)
    return Sample(op.template, op.kind, seconds, error is None, trace)


def run_round(setup: Setup, problems: List[str], speed: SpeedKernel,
              before: Tuple[float, float], rec: Optional[spans.Recorder] = None,
              kept: Optional[Dict[str, int]] = None, counters=None):
    """One round, its times normalised by the speed kernel sampled around
    it (``before`` is the sample that ended the previous round). Returns
    the samples and the kernel sample taken after them."""
    env = setup.env
    if counters is not None:
        counters.open(env.cluster)
    samples = []
    for op in setup.workload.round():
        keep = rec is not None and kept[op.template] < RAW_PER_TEMPLATE
        if keep:
            kept[op.template] += 1
        samples.append(run_op(op, env, problems, rec, keep))
    if counters is not None:
        counters.close(env.cluster)
    after = speed.sample()
    for sample in samples:
        # propagation rewrites partitions: it slows like a bulk load
        sample.scale(speed.setup_factor(before, after)
                     if sample.kind == BACKGROUND
                     else speed.factor(before, after))
    return samples, after


def measure(setup: Setup, problems: List[str], speed: SpeedKernel,
            seconds: float = 0.0, rounds: int = 0,
            rec: Optional[spans.Recorder] = None,
            kept: Optional[Dict[str, int]] = None, counters=None):
    """Repeat whole rounds until ``seconds`` are used up (or for exactly
    ``rounds`` rounds). With a recorder, odd rounds are traced and even
    rounds run plain; returns (plain samples, traced samples)."""
    plain: List[Sample] = []
    traced: List[Sample] = []
    deadline = perf_counter() + seconds
    done = 0
    before = speed.sample()
    while True:
        if rec is not None and done % 2 == 1:
            samples, before = run_round(setup, problems, speed, before, rec,
                                        kept, counters)
            traced.extend(samples)
        else:
            samples, before = run_round(setup, problems, speed, before)
            plain.extend(samples)
        done += 1
        if rounds:
            if done >= rounds:
                break
        elif perf_counter() >= deadline and (rec is None or done % 2 == 0):
            break
    return plain, traced


# ----------------------------------------------------------------- metrics

def _ms(seconds: float) -> float:
    return seconds * 1e3


def template_medians(samples: List[Sample]) -> Dict[str, float]:
    by_template: Dict[str, List[float]] = defaultdict(list)
    for s in samples:
        if s.kind != BACKGROUND:
            by_template[s.template].append(s.seconds)
    return {t: statistics.median(v) for t, v in sorted(by_template.items())}


def geomean(values) -> float:
    values = list(values)
    return float(np.exp(np.mean(np.log(values))))


def resident_kb() -> float:
    """Current resident set size (Linux; 0 where /proc is missing)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * resource.getpagesize() / 1024


def end_to_end(samples: List[Sample], setup_s: float, store_ratio: float,
               peak_rss_mb: float):
    """The end-to-end metrics of one timed pass, plus the sample counts
    behind each percentile."""
    statements = [s for s in samples if s.kind != BACKGROUND]
    reads = [s.seconds for s in statements if s.kind == READ]
    wall = sum(s.seconds for s in samples)
    metrics = {
        "setup_s": setup_s,
        "store_ratio": store_ratio,
        "stmt_per_s": len(statements) / wall,
        "lat_p50_ms": _ms(float(np.percentile(reads, 50))),
        "lat_p90_ms": _ms(float(np.percentile(reads, 90))),
        "tmpl_geomean_ms": _ms(geomean(template_medians(samples).values())),
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {"lat_p50_ms": len(reads), "lat_p90_ms": len(reads),
              "stmt_per_s": len(statements)}
    return metrics, counts


class Counters:
    """Registry counts accumulated over the traced rounds only."""

    #: name -> (registry family, labels)
    SERIES = {
        "hdfs_read": ("hdfs_read_bytes_total", {}),
        "pool_hits": ("buffer_hits_total", {}),
        "pool_misses": ("buffer_misses_total", {}),
        "minmax_scanned": ("minmax_blocks_scanned_total", {}),
        "minmax_skipped": ("minmax_blocks_skipped_total", {}),
        "result_hits": ("server_cache_hits_total", {"cache": "result"}),
        "result_misses": ("server_cache_misses_total", {"cache": "result"}),
        "plan_hits": ("server_cache_hits_total", {"cache": "plan"}),
        "plan_misses": ("server_cache_misses_total", {"cache": "plan"}),
        "invalidations": ("server_cache_invalidations_total", {}),
        "bytes_sent": ("server_bytes_sent_total", {}),
        "net_messages": ("net_messages_total", {}),
        "net_bytes": ("net_bytes_total", {}),
        "replans": ("replans_total", {}),
        "feedback_hits": ("plan_feedback_hits_total", {}),
        "kernel_calls": ("kernel_calls_total", {}),
        "profiler_wall": ("operator_wall_seconds_total", {}),
        "wal_bytes": ("wal_appended_bytes_total", {}),
        "log_shipped": ("txn_log_shipped_bytes_total", {}),
        "update_commits": ("txn_outcomes_total", {"outcome": "commit"}),
    }

    def __init__(self):
        self.delta: Dict[str, float] = defaultdict(float)
        self._before: Dict[str, float] = {}

    @classmethod
    def read(cls, cluster) -> Dict[str, float]:
        out = {}
        for name, (family_name, labels) in cls.SERIES.items():
            family = cluster.registry.get(family_name)
            if family is None:
                out[name] = 0.0
            elif labels:
                out[name] = float(family.get(**labels))
            else:
                out[name] = float(family.total())
        return out

    def open(self, cluster) -> None:
        self._before = self.read(cluster)

    def close(self, cluster) -> None:
        for name, value in self.read(cluster).items():
            self.delta[name] += value - self._before[name]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Folded:
    """Span self time, span calls and row counts summed over samples."""

    def __init__(self, samples: List[Sample]):
        self.n = sum(s.kind != BACKGROUND for s in samples)
        self.wall = sum(s.seconds for s in samples)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.rows: Dict[str, int] = defaultdict(int)
        for sample in samples:
            for name, value in sample.trace.self_s.items():
                self.self_s[name] += value
            for name, value in sample.trace.calls.items():
                self.calls[name] += value
            for name, value in sample.trace.rows.items():
                self.rows[name] += value

    def us(self, *names) -> float:
        return sum(self.self_s[k] for k in names) / self.n * 1e6

    def ms(self, *names) -> float:
        return sum(self.self_s[k] for k in names) / self.n * 1e3


def per_layer(setup: Setup, plain: List[Sample], traced: List[Sample],
              counters: Counters, counted: List[Sample], exact: Counters,
              py_calls: float) -> Dict[str, float]:
    """The per-layer metrics. Times and ratios are means over the traced
    rounds of the measuring loop; the per-statement *counts* come from
    ``counted``, the one traced round that always runs first at the same
    place in the seeded stream, so they repeat exactly for a seed."""
    t, c = Folded(traced), Folded(counted)
    d, x = counters.delta, exact.delta
    pulls = sum(c.calls[k] for k in spans.PULL_SPANS)
    pull_rows = sum(c.rows[k] for k in spans.PULL_SPANS)
    workload, times = setup.workload, setup.times
    hits = [s.seconds for s in traced if s.template in workload.hit_templates]
    loaded_rows = sum(len(next(iter(cols.values())))
                      for cols in setup.data.values())
    return {
        "tpch.generate_s": times["generate"],
        "cluster.load_s": times["load"],
        "cluster.load_rows_per_s": loaded_rows / times["load"],
        "hdfs.written_bytes": setup.written_bytes,
        "server.request_self_us": t.us(
            "server.simple_query", "server.bind", "server.execute",
            "server.result", "server.cache"),
        "server.hit_us": statistics.median(hits) * 1e6 if hits else 0.0,
        "server.result_cache_hit_ratio": _ratio(
            d["result_hits"], d["result_hits"] + d["result_misses"]),
        "server.plan_cache_hit_ratio": _ratio(
            d["plan_hits"], d["plan_hits"] + d["plan_misses"]),
        "server.cache_invalidations": d["invalidations"],
        "server.bytes_sent_per_stmt": x["bytes_sent"] / c.n,
        "sql.parse_us": t.us("sql.parse"),
        "sql.bind_us": t.us("sql.bind"),
        "mpp.plan_us": t.us("mpp.plan"),
        "mpp.prepare_us": t.us("mpp.prepare"),
        "mpp.scan_self_ms": t.ms("mpp.scan"),
        "mpp.replans": d["replans"],
        "mpp.feedback_hits": d["feedback_hits"],
        "workload.submit_us": t.us("workload.submit"),
        "workload.admit_wait_us":
            t.rows["workload.admit_wait_ns"] / t.n / 1e3,
        "workload.gather_self_ms": t.ms("workload.gather"),
        "workload.rounds_per_stmt": c.rows["workload.rounds"] / c.n,
        "engine.select_self_ms": t.ms("engine.select"),
        "engine.project_self_ms": t.ms("engine.project"),
        "engine.aggr_self_ms": t.ms("engine.aggr"),
        "engine.join_self_ms": t.ms("engine.join"),
        "engine.sort_self_ms": t.ms("engine.sort"),
        "engine.xchg_send_self_ms": t.ms("engine.xchg_send",
                                         "engine.xchg_transfer"),
        "engine.xchg_recv_self_ms": t.ms("engine.xchg_recv",
                                         "engine.xchg_pump"),
        "engine.other_self_ms": t.ms("engine.other"),
        "engine.pulls_per_stmt": pulls / c.n,
        "engine.rows_per_pull": _ratio(pull_rows, pulls),
        "engine.py_calls_per_stmt": py_calls,
        "cluster.dml_self_ms": t.ms("cluster.dml"),
        "storage.scan_self_ms": t.ms("storage.scan"),
        "storage.pool_read_self_ms": t.ms("storage.pool_read"),
        "storage.minmax_skip_ratio": _ratio(
            d["minmax_skipped"], d["minmax_skipped"] + d["minmax_scanned"]),
        "storage.pool_hit_ratio": _ratio(
            d["pool_hits"], d["pool_hits"] + d["pool_misses"]),
        "storage.propagate_ms": _ratio(
            t.self_s["storage.propagate"] * 1e3,
            t.calls["storage.propagate"]),
        "storage.propagate_full_rewrites": float(workload.full_rewrites),
        "compression.decompress_self_ms": t.ms("compression.decompress"),
        "compression.blocks_decoded_per_stmt":
            c.calls["compression.decompress"] / c.n,
        "pdt.merge_self_ms": t.ms("pdt.merge"),
        "pdt.entries_resident_max": float(workload.entries_resident_max),
        "txn.commit_ms": _ratio(t.self_s["txn.commit"] * 1e3,
                                t.calls["txn.commit"]),
        "txn.commit_ro_us": t.us("txn.commit_ro"),
        "txn.wal_bytes_per_commit": _ratio(d["wal_bytes"],
                                           d["update_commits"]),
        "txn.log_shipped_bytes": d["log_shipped"],
        "hdfs.read_self_ms": t.ms("hdfs.read"),
        "hdfs.read_bytes_per_stmt": d["hdfs_read"] / t.n,
        "net.send_self_ms": t.ms("net.send"),
        "net.messages_per_stmt": x["net_messages"] / c.n,
        "net.bytes_per_stmt": x["net_bytes"] / c.n,
        "obs.monitor_self_us": t.us("obs.monitor"),
        "obs.profiler_self_us": t.us("obs.profiler"),
        "obs.kernel_calls_per_stmt": x["kernel_calls"] / c.n,
        # the program's profiler knows nothing of the speed kernel
        "obs.profiler_wall_coverage": _ratio(
            d["profiler_wall"], sum(s.raw_seconds for s in traced)),
        "bench.trace_overhead_ratio": (
            geomean(template_medians(traced).values())
            / geomean(template_medians(plain).values())),
        "bench.root_self_share": t.self_s[spans.ROOT] / t.wall,
    }


def count_py_calls(setup: Setup, problems: List[str]) -> float:
    """Python-level function calls per statement: ``sys.setprofile`` call
    events over one untimed round (every template in its share)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    statements = 0
    for op in setup.workload.round():
        sys.setprofile(profiler if op.kind != BACKGROUND else None)
        try:
            run_op(op, setup.env, problems)
        finally:
            sys.setprofile(None)
        statements += op.kind != BACKGROUND
    return calls / statements


def layer_sum_error(traced: List[Sample]) -> float:
    """Largest relative gap, over the traced statements, between the sum
    of the span self times and the statement's wall time."""
    worst = 0.0
    for sample in traced:
        total = sum(sample.trace.self_s.values())
        worst = max(worst, abs(total - sample.trace.wall)
                    / sample.trace.wall)
    return worst


# ----------------------------------------------------------------- one run

def run_workload(workload_cls, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, trace_path=None) -> Dict[str, object]:
    """Build, warm up, measure, check. A timed run fills ``end_to_end``;
    a traced run fills ``per_layer``; the smoke mode does a short version
    of both on one small cluster."""
    from benchmarks.e2e import probes

    problems: List[str] = []
    result: Dict[str, object] = {
        "workload": workload_cls.name, "seed": seed, "smoke": smoke}
    scale_factor = SMOKE_SCALE_FACTOR if smoke else SCALE_FACTOR
    rec = spans.Recorder() if (trace or smoke) else None
    speed = SpeedKernel()
    samples: List[Sample] = []

    def timed_pass(setup, setup_s):
        gc.collect()
        # the high-water mark when set-up and warm-up are done: a fixed
        # amount of work, unlike the time-bounded loop that follows
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        plain, _ = measure(setup, problems, speed, seconds,
                           workload_cls.smoke_rounds if smoke else 0)
        ratio = stored_bytes(setup.env.cluster) / raw_user_bytes(setup.data)
        metrics, counts = end_to_end(plain, setup_s, ratio, peak_rss_mb)
        result.update(end_to_end=metrics, counts=counts,
                      templates_ms={t: _ms(v) for t, v in
                                    template_medians(plain).items()})
        samples.extend(plain)

    def traced_pass(setup):
        gc.collect()
        kept: Dict[str, int] = defaultdict(int)
        exact, counters = Counters(), Counters()
        # first, at a fixed place in the seeded stream: the round whose
        # counts repeat exactly, then the round that counts Python calls
        counted, _ = run_round(setup, problems, speed, speed.sample(), rec,
                               kept, exact)
        py_calls = count_py_calls(setup, problems)
        resident = resident_kb()
        plain, traced = measure(setup, problems, speed, seconds,
                                2 if smoke else 0, rec, kept, counters)
        growth = (resident_kb() - resident) / sum(
            s.kind != BACKGROUND for s in plain + traced)
        before = speed.sample()
        probed = probes.run(setup.env.cluster, setup.data)
        factor = speed.factor(before, speed.sample())
        metrics = per_layer(setup, plain, traced, counters, counted, exact,
                            py_calls)
        # probes report work per second: slower host, fewer per second
        metrics.update({
            name: value if name.endswith("_mb") else value / factor
            for name, value in probed.items()})
        metrics["bench.rss_growth_kb_per_stmt"] = growth
        result.update(per_layer=metrics,
                      layer_sum_error=layer_sum_error(counted + traced))
        if trace_path is not None:
            spans.write_chrome_trace(
                trace_path,
                [s.trace for s in counted + traced if s.trace.raw])
        samples.extend(counted + plain + traced)

    if rec is None:
        setup_seconds = []
        for _ in range(SETUPS):
            # drop the previous cluster before building the next one
            setup = None
            gc.collect()
            setup = build(workload_cls, seed, scale_factor, problems, speed)
            setup_seconds.append(setup.seconds)
        timed_pass(setup, statistics.median(setup_seconds))
    else:
        # wrappers go in before the cluster exists (it keeps bound
        # methods); with the recorder off they only pass calls through
        with spans.installed(rec):
            setup = build(workload_cls, seed, scale_factor, problems, speed)
            if smoke:
                timed_pass(setup, setup.seconds)
            traced_pass(setup)
    problems.extend(setup.workload.finish())

    calib_ms = _ms(statistics.median(speed.samples))
    if "per_layer" in result:
        result["per_layer"].update({
            "bench.calib_ms": calib_ms, "bench.calib_drift": speed.drift()})
    statements = [s for s in samples if s.kind != BACKGROUND]
    failed = sum(not s.ok for s in statements)
    result.update(attempted=len(statements), failed=failed,
                  correct=not problems, problems=problems[:20],
                  calib_ms=calib_ms, noisy=abs(speed.drift()) > NOISY_DRIFT)
    return result
