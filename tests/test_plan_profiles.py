"""What ran hangs off the plan node that ran it.

The executor makes one profile node per plan node (one per half of an
exchange, one more for the replay of a replicated subtree) and hands it
to that plan node's operator on every stream. These tests hold the
result against the plan and against an independent count of what each
operator instance did:

(a) every profile node belongs to a node of the plan that ran, once;
(b) the profile tree's edges are the plan's edges;
(c) a node's numbers are its streams' numbers, summed (rows) or taken
    at the slowest (seconds), one sample per stream that started;
(d) every line of EXPLAIN ANALYZE whose operator ran shows its rows;
(e) every second is in the tree once: the nodes' ``time`` adds up to
    what the outermost frames measured, and each node's agrees with a
    clock and a frame stack kept outside the program.
"""

from __future__ import annotations

import gc
import re
from collections import Counter
from time import perf_counter

import pytest

from repro.cluster import VectorHCluster
from repro.engine import profile
from repro.engine.exchange import DXchgSender
from repro.engine.expressions import And, Col
from repro.engine.operators import Operator
from repro.mpp import plan as P
from repro.mpp.executor import RECV, REPLAY, SEND, MppExecutor
from repro.mpp.logical import LAggr, LJoin, LProject, LScan, LSelect, LWindow
from repro.mpp.rewriter import RewriterFlags
from repro.obs.profiler import walk
from repro.sql import SqlParser, execute_sql
from repro.sql.binder import _SelectBinder
from repro.tpch import QUERIES
from tests.test_adaptive import _skew_plan, _star_cluster
from tests.test_profiler import _fresh_cluster


@pytest.fixture(scope="module")
def cluster(tpch_data) -> VectorHCluster:
    return _fresh_cluster(tpch_data)


_DONE = object()


class _Spy(dict):
    """What every started operator instance did, seen from outside:
    ``id(profile node) -> [(operator, [rows])]``, one entry per stream;
    ``own``, the seconds of each node's pulls less the pulls nested in
    them, by the spy's clock and its own start/nested stack (the way
    ``benchmarks/e2e/spans.py`` measures); ``runs``, the prepared
    ``QueryRun``s; and ``outermost``, the clock readings the program's
    frames took while nothing enclosed them."""

    def __init__(self):
        super().__init__()
        self.own = Counter()
        self.runs = []
        self.outermost = []

    def clear(self):
        super().clear()
        self.own.clear()
        del self.runs[:], self.outermost[:]

    def outermost_seconds(self) -> float:
        """Elapsed seconds of the program's outermost frames, from the
        very readings they took: entry and exit alternate."""
        reads = self.outermost
        assert len(reads) % 2 == 0
        return sum(end - start for start, end in zip(reads[::2], reads[1::2]))


@pytest.fixture()
def spy(monkeypatch):
    spy = _Spy()
    stack = []
    execute = Operator.execute

    def spied(self):
        rows = [0]

        def pulls():
            # first pull: this stream's operator has started
            key = id(self.profile)
            spy.setdefault(key, []).append((self, rows))
            inner = execute(self)
            try:
                while True:
                    frame = [perf_counter(), 0.0]  # start, nested
                    stack.append(frame)
                    try:
                        batch = next(inner, _DONE)
                    finally:
                        elapsed = perf_counter() - frame[0]
                        stack.pop()
                        spy.own[key] += elapsed - frame[1]
                        if stack:
                            stack[-1][1] += elapsed
                    if batch is _DONE:
                        return
                    rows[0] += batch.n
                    yield batch
            finally:
                inner.close()
        return pulls()

    def read_clock():
        # a frame reads the clock right after it is pushed and right
        # before it is popped: alone on the stack, it is an outermost one
        now = perf_counter()
        if len(profile._FRAMES) == 1:
            spy.outermost.append(now)
        return now

    prepare = MppExecutor.prepare

    def prepared(self, *args, **kwargs):
        spy.runs.append(prepare(self, *args, **kwargs))
        return spy.runs[-1]

    monkeypatch.setattr(Operator, "execute", spied)
    monkeypatch.setattr(profile, "_perf", read_clock)
    monkeypatch.setattr(MppExecutor, "prepare", prepared)
    return spy


def _sql_plan(cluster, sql: str):
    return _SelectBinder(cluster, SqlParser(sql).parse()).plan()


def _stream_seconds(cluster) -> Counter:
    family = cluster.registry.get("executor_stream_seconds")
    return Counter({key: state["count"]
                    for key, state in family.snapshot().items()})


def check(cluster, plan, spy, **query_args):
    """Run ``plan`` under EXPLAIN ANALYZE and hold (a)-(e); returns the
    annotated text and the result for case-specific assertions."""
    spy.clear()
    observed_before = _stream_seconds(cluster)
    text, result = _undisturbed(cluster.explain_analyze, plan, **query_args)
    nodes = result.plan_profiles
    plan_nodes = list(result.qplan.root.walk())

    # (a) each node of the tree is the node of one (plan node, role) of
    # the plan that produced the rows, and appears once
    tree = [n for root in result.profiles for n in walk(root)]
    assert len(result.profiles) == 1
    assert len({id(n) for n in tree}) == len(tree)
    assert {id(n) for n in tree} == {id(n) for n in nodes.values()}
    assert len(tree) == len(nodes)
    for (phys, role), node in nodes.items():
        assert node.plan is phys
        assert any(phys is p for p in plan_nodes), node.label
        assert role in ("", RECV, SEND, REPLAY)
        assert node.kind == phys.label + (
            "." + role if role in (RECV, SEND) else "")

    # (b) edges: exchange = recv -> send -> child, replicated = replay ->
    # the real subtree, everything else its plan node's children
    def below(phys):
        """The node a consumer of ``phys`` pulls from (None: never ran)."""
        for role in (REPLAY, "", RECV):
            if (phys, role) in nodes:
                return nodes[phys, role]
        if isinstance(phys, P.DXchg):  # a free gather: nothing was built
            return below(phys.children[0])
        return None

    for (phys, role), node in nodes.items():
        if role == RECV:
            expected = [nodes[phys, SEND]]
        elif role == REPLAY:
            expected = [nodes[phys, ""]]
        else:
            expected = [below(c) for c in phys.children]
        assert [id(c) for c in node.children] == \
            [id(c) for c in expected if c is not None], node.label
    assert result.profiles[0] is below(result.qplan.root)

    # (c) per node: one sample per stream that started, the slowest one
    # is cum_time, rows are the streams' rows added up
    senders = Counter()
    for node in tree:
        streams = spy[id(node)]
        assert len(node.stream_times) == len(streams), node.label
        assert node.cum_time == max(node.stream_times)
        assert node.tuples_out == sum(rows[0] for _, rows in streams)
        assert node.tuples_in == sum(c.tuples_out for c in node.children)
        for op, _ in streams:
            if isinstance(op, DXchgSender):
                senders[(op.memory_node,)] += 1
    # nothing started that is not in the tree, bar a cancelled build's
    strays = [streams[0][0].profile.plan for key, streams in spy.items()
              if key not in {id(n) for n in tree}]
    assert len(strays) == 0 or result.replans
    assert not any(phys is p for phys in strays for p in plan_nodes)
    assert _stream_seconds(cluster) - observed_before == senders

    # (d) every plan line whose operator ran says how many rows left it,
    # an exchange's line what *that* exchange put on the wire
    lines = [line for line in text.splitlines()
             if not line.lstrip().startswith((". link", "--"))]
    assert len(lines) == len(plan_nodes)
    wire = {id(stats["plan"]): stats for stats in result.exchanges}
    for phys, line in zip(plan_nodes, lines):
        assert phys.describe() in line
        ran = result.profile_of(phys)
        assert ("rows=" in line) == (ran is not None), line
        if not isinstance(phys, P.DXchg):
            assert ran is not None, line
            assert f"rows={ran.tuples_out} " in line
        elif ran is not None:
            stats = wire[id(phys)]
            assert (f"wire={stats['bytes']}B/{stats['messages']}msgs"
                    in line), line

    # (e) each second once: what the nodes say they spent is what the
    # outermost frames measured (a cancelled build's frames are not in
    # the final plan's tree), all of it inside the run's step and flush
    [run] = spy.runs
    total = sum(node.time for node in tree)
    measured = spy.outermost_seconds()
    if result.replans:
        assert total < measured
    else:
        assert total == pytest.approx(measured, rel=1e-9)
    assert measured <= run.step_wall + run.flush_wall
    # ... and node by node it agrees with the clock outside. Vectors are
    # small here, so a good part of a run lies between the spy's reading
    # of the clock and the program's, where a preemption is one operator's
    # second to the one and its parent's to the other: measure once more
    off = _disagreeing(tree, spy)
    if off:
        spy.clear()
        again = _undisturbed(cluster.query, plan, **query_args)
        off = _disagreeing(again.plan_profiles.values(), spy)
    assert not off
    return text, result


def _undisturbed(run, *args, **kwargs):
    """``run(...)`` with the collector off: a collection tripped by the
    spy's own allocations would land between the two clocks' readings."""
    gc.disable()
    try:
        return run(*args, **kwargs)
    finally:
        gc.enable()


def _disagreeing(nodes, spy):
    """``(label, time, the spy's seconds)`` of every node whose measured
    ``time`` is further from the outside clock than max(20 %, 0.5 ms)."""
    return [(node.label, node.time, spy.own[id(node)]) for node in nodes
            if abs(node.time - spy.own[id(node)])
            > max(0.2 * spy.own[id(node)], 5e-4)]


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_tpch_plans(cluster, spy, number):
    ran = []

    def runner(plan):
        ran.append(check(cluster, plan, spy)[1])
        return ran[-1].batch

    QUERIES[number](runner)
    assert ran
    multi = [n for r in ran for n in r.plan_profiles.values()
             if len(n.stream_times) > 1]
    assert multi, "no operator of the plan ran on more than one stream"


def _line(text: str, label: str) -> str:
    return next(line for line in text.splitlines() if label in line)


def test_keyless_aggregate_is_one_row_estimated_and_judged(cluster, spy):
    """``Aggr(final)[total]`` profiles as ``Aggr(total)``: paired by label
    it never showed its row, was never judged, and was planned at
    min(child, 10 000) rows."""
    sql = ("SELECT count(*), sum(l_quantity) FROM lineitem "
           "WHERE l_quantity < 11")  # a literal no other test has warmed
    text, result = check(cluster, _sql_plan(cluster, sql), spy)
    final = _line(text, "Aggr(final)[total]")
    assert re.search(r"rows=1 .*est=1 q=1\.0", final), final
    assert "rows=4 " in _line(text, "Aggr(partial)[total]")
    # the statement's worst estimate is its selection's, not the total's
    select = _line(text, "Select[")
    assert f"q={result.max_qerror:.1f}" in select
    assert 1.0 < result.max_qerror < 10.0
    [record] = [r for r in cluster.workload.terminal_records()
                if r.query_id == result.query_id]
    assert record.max_qerror == result.max_qerror
    # and the store has the aggregate now
    root = result.qplan.annotations[result.qplan.root]
    assert cluster.feedback.entries[root.signature].observed == 1.0


def test_limit_abandons_streams(cluster, spy):
    sql = "SELECT l_orderkey FROM lineitem LIMIT 3"
    text, result = check(cluster, _sql_plan(cluster, sql), spy)
    assert "rows=3 " in _line(text, "Limit[3]")
    gather = result.qplan.root.children[0]
    send = result.plan_profiles[gather, SEND]
    # every worker's sender started, none got to the end of its scan
    assert len(send.stream_times) == 4
    scan = result.profile_of(gather.children[0].children[0])
    assert 0 < scan.tuples_out < 11_000
    assert "rows=" in _line(text, "MScan[lineitem]")


def test_topn_and_grouped_aggregate(cluster, spy):
    sql = ("SELECT l_returnflag, count(*) AS n FROM lineitem "
           "GROUP BY l_returnflag ORDER BY n LIMIT 2")
    text, _ = check(cluster, _sql_plan(cluster, sql), spy)
    assert "rows=2 " in _line(text, "TopN(final)")


def test_window(cluster, spy):
    plan = LWindow(LScan("orders", ["o_custkey", "o_totalprice"]),
                   ["o_custkey"], ["o_totalprice"],
                   [("rn", "row_number", None)])
    text, result = check(cluster, plan, spy)
    assert f"rows={result.batch.n} " in _line(text, "Window[rn;")


def test_broadcast_join_of_a_replicated_table(cluster, spy):
    sql = ("SELECT n_name, count(*) AS n FROM customer "
           "JOIN nation ON c_nationkey = n_nationkey GROUP BY n_name")
    text, result = check(cluster, _sql_plan(cluster, sql), spy)
    [(scan, _)] = [key for key in result.plan_profiles
                   if key[1] == REPLAY]
    replay = result.plan_profiles[scan, REPLAY]
    real = result.plan_profiles[scan, ""]
    # scanned once, replayed to every worker's join
    assert (len(real.stream_times), len(replay.stream_times)) == (1, 4)
    assert (real.tuples_out, replay.tuples_out) == (25, 100)
    # the plan node's cardinality is the relation's, not streams x rows
    assert "rows=25 " in _line(text, "MScan[nation]")
    signature = result.qplan.annotations[scan].signature
    assert cluster.feedback.entries[signature].observed == 25.0


def test_forced_midquery_replan(spy):
    star = _star_cluster()
    text, result = check(star, _skew_plan(), spy)
    assert result.replans == 1
    # the nodes are the final plan's: nothing of the cancelled build
    assert "DXchgHashSplit[fk" in text and "DXchgBroadcast" not in text
    assert all(not isinstance(phys, P.DXBroadcast)
               for phys, _ in result.plan_profiles)
    # its exchanges are still accounted for, under their own plan nodes
    final = list(result.qplan.root.walk())
    cancelled = [stats for stats in result.exchanges
                 if not any(stats["plan"] is p for p in final)]
    assert any(isinstance(stats["plan"], P.DXBroadcast)
               for stats in cancelled)


def test_a_receiver_is_not_charged_its_senders_work(cluster, spy):
    """The phantom, pinned. A receiver's pull pumps *every* sender stream
    on the one real thread; derived as ``cum_time`` minus the child's
    (each the slowest stream's), ``recv.time`` was roughly the work of
    all sender streams but one. Recorded, it is what the receiver did."""
    price, disc, qty = (Col("l_extendedprice"), Col("l_discount"),
                        Col("l_quantity"))
    # scan, select and project below the exchange, one column through it
    probe = LSelect(
        LScan("lineitem", ["l_orderkey", "l_extendedprice", "l_discount",
                           "l_quantity"]),
        And(And((price * (disc + 1)) > 0, (price - price * disc) > 0),
            And((qty * 2 + disc) > 0, (price * qty * (disc + 1)) >= 0)))
    join = LJoin(build=LScan("orders", ["o_orderkey"]),
                 probe=LProject(probe, {"l_orderkey": Col("l_orderkey")}),
                 build_keys=["o_orderkey"], probe_keys=["l_orderkey"],
                 how="inner")
    flags = RewriterFlags(local_join=False, replicate_build=False)
    _, result = check(cluster, LAggr(join, [], [("n", "count", None)]), spy,
                      flags=flags)
    [split] = [phys for phys, role in result.plan_profiles
               if role == SEND and isinstance(phys, P.DXHashSplit)
               and any(isinstance(n, P.PScan) and n.table == "lineitem"
                       for n in phys.walk())]
    recv = result.plan_profiles[split, RECV]
    send = result.plan_profiles[split, SEND]
    assert len(send.stream_times) >= 4
    sending = list(walk(send))
    assert [n.kind for n in sending] == [
        "DXchgHashSplit.send", "Project", "Select", "MScan"]
    assert recv.time < 0.25 * sum(n.time for n in sending)


def test_operators_are_timed_with_kernel_profiling_off(cluster, spy):
    previous = profile.set_kernel_profiling(False)
    try:
        _, result = check(cluster, _sql_plan(
            cluster, "SELECT count(*) AS n FROM orders "
                     "WHERE o_totalprice > 1000"), spy)
    finally:
        profile.set_kernel_profiling(previous)
    for node in result.plan_profiles.values():
        assert not node.kernels
        assert node.stream_times and node.cum_time > 0
        assert node.time == node.own_seconds > 0


def test_profiler_tables_are_the_registry_families(cluster):
    """``vh$operator_stats`` / ``vh$hot_paths`` hold no count of their
    own: every cell is a series of an ``operator_*`` / ``kernel_*``
    family, and resetting the families empties the tables."""
    registry = cluster.registry
    cluster.query(_sql_plan(
        cluster, "SELECT count(*) AS n FROM lineitem WHERE l_tax > 0.01"))

    def table(name):
        """The table's rows and what the registry held when they were
        read (the reading query is charged once it has finished)."""
        held = registry.snapshot()
        batch = execute_sql(cluster, f"SELECT * FROM {name}")
        rows = [dict(zip(batch.columns, row)) for row in
                zip(*(c.tolist() for c in batch.columns.values()))]
        return rows, lambda family, *key: held[family].get(key, 0)

    stats, held = table("vh$operator_stats")
    assert {"MScan", "Select", "Aggr"} <= {row["operator"] for row in stats}
    for row in stats:
        kind = row["operator"]
        assert (row["queries"], row["instances"], row["batches"],
                row["net_bytes"], row["wall_s"]) == tuple(
            held(f"operator_{family}_total", kind)
            for family in ("queries", "instances", "batches", "net_bytes",
                           "wall_seconds"))
        assert (row["rows_in"], row["rows_out"]) == (
            held("operator_rows_total", kind, "in"),
            held("operator_rows_total", kind, "out"))
    paths, held = table("vh$hot_paths")
    # ranked by wall, and the shares split all the wall the kinds spent
    walls = [row["wall_s"] for row in paths]
    assert walls == sorted(walls, reverse=True)
    assert sum(row["share"] for row in paths) == pytest.approx(1.0)
    assert sum(walls) == pytest.approx(sum(
        held("operator_wall_seconds_total", row["operator"])
        for row in stats))
    for row in paths:
        kind = row["operator"]
        if row["kernel"] == "(self)":
            expected = (held("operator_batches_total", kind),
                        held("operator_rows_total", kind, "out"), 0,
                        held("operator_own_seconds_total", kind))
        else:
            expected = tuple(
                held(f"kernel_{family}_total", kind, row["kernel"])
                for family in ("calls", "rows", "bytes", "wall_seconds"))
        assert (row["calls"], row["rows"], row["bytes"],
                row["wall_s"]) == expected
    registry.reset("operator_")
    assert table("vh$operator_stats")[0] == []
