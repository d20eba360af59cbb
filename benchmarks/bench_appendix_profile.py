"""Appendix: the graphical performance profile of TPC-H Q1.

The paper's appendix shows Q1's operator tree with per-operator time,
cumulative time and tuple counts across 180 streams, observing that the
query spends most of its time in the parallel Aggr / Project / MScan below
the DXchgUnion, with mild (<20%) load imbalance across streams.
We regenerate the same artifact from our engine's profile collectors --
now including the continuous profiler's kernel sublines (``. kernel
decode.pfor: ...``) on the hot operators, plus a per-kernel summary
footer, so the appendix names *where inside* MScan/Aggr the time goes.
"""

import pytest

from benchmarks.conftest import write_report
from repro.engine.profile import format_profile
from repro.obs.profiler import ContinuousProfiler
from repro.tpch.queries import q1


def test_appendix_q1_profile(vectorh, benchmark):
    captured = {}

    def runner(plan):
        result = vectorh.query(plan)
        captured["result"] = result
        return result.batch

    batch = q1(runner)
    assert batch.n == 4  # the four returnflag/linestatus groups
    result = captured["result"]
    # this one query's kernels per operator kind: the profiler's own
    # aggregation, into a registry that has seen nothing else
    profiler = ContinuousProfiler()
    profiler.observe_query(result)
    kernels = profiler.kernels()
    text = (f"APPENDIX: TPC-H Q1 profile "
            f"(simulated parallel {result.simulated_parallel_seconds:.4f}s, "
            f"network {result.network_bytes:,} bytes)\n\n"
            + result.format_profile()
            + "\n\n" + _kernel_footer(kernels))
    write_report("appendix_q1_profile.txt", text)

    # one spanning tree: the master-side operators sit above the
    # DXchgUnion receiver, the merged worker fragment below its sender
    assert len(result.profiles) == 1
    root = result.profiles[0]
    labels = _labels(root)
    assert any(".recv" in l for l in labels)
    assert any(".send" in l for l in labels)
    assert any("Aggr" in l for l in labels)
    assert any("MScan" in l or "Scan" in l for l in labels)
    # the parallel fragment below the exchange dominates, as in the paper
    senders = _find_all(root, lambda n: n.label.endswith(".send"))
    assert senders
    for sender in senders:
        assert sender.cum_time <= root.cum_time
        assert sender.net_bytes > 0 and sender.net_messages > 0
    # per-stream imbalance is visible but bounded. Only the *innermost*
    # sender (the leaf scan fragment) has honest per-stream wall times:
    # an outer sender's first advance pumps the nested exchange to
    # completion, so all the inner streams' work lands on its first
    # stream's clock.
    leaf = senders[-1]
    if len(leaf.stream_times) > 1:
        hi = max(leaf.stream_times)
        lo = min(t for t in leaf.stream_times if t > 0)
        assert hi / lo < 10

    # the kernel layer attributes inside the hot operators: the parallel
    # scan fragment carries decode + block-read kernels, the aggregation
    # carries its accumulate kernel, and the profile text shows them
    scan_kind = next(k for k in kernels if k.startswith("MScan"))
    assert "scan.read_block" in kernels[scan_kind]
    assert any(name.startswith("decode.") for name in kernels[scan_kind])
    aggr_kind = next(k for k in kernels if k.startswith("Aggr"))
    assert "aggr.accumulate" in kernels[aggr_kind]
    assert ". kernel scan.read_block:" in text
    read = kernels[scan_kind]["scan.read_block"]
    assert read.calls > 0 and read.rows > 0 and read.bytes > 0

    benchmark(lambda: q1(lambda plan: vectorh.query(plan).batch))


def _kernel_footer(kernels):
    """The per-operator kernel summary appended to the appendix report."""
    lines = [f"{'operator':<14} {'kernel':<20} {'calls':>8} {'rows':>12} "
             f"{'bytes':>12} {'wall s':>10}"]
    for kind in sorted(kernels):
        for name, stat in sorted(kernels[kind].items(),
                                 key=lambda kv: -kv[1].seconds):
            lines.append(
                f"{kind:<14} {name:<20} {stat.calls:>8,} {stat.rows:>12,} "
                f"{stat.bytes:>12,} {stat.seconds:>10.4f}")
    return "\n".join(lines)


def _labels(node, out=None):
    out = out if out is not None else []
    out.append(node.label)
    for child in node.children:
        _labels(child, out)
    return out


def _find_all(node, pred, out=None):
    """Matching nodes in depth-first preorder, so outer exchange senders
    come before the senders of exchanges nested beneath them."""
    out = out if out is not None else []
    if pred(node):
        out.append(node)
    for child in node.children:
        _find_all(child, pred, out)
    return out
