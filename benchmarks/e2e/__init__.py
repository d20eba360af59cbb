"""Wall-clock benchmark: SQL text in through ``repro.server``, rows out.

Declared to the driver by the root ``BENCHMARK.json``; see ``README.md``
in this directory for the workloads, the metrics and what each is
expected to move.
"""
