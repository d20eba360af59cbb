"""Affinity-respecting assignment of input partitions to operators.

The paper uses "an algorithm similar to Hopcroft-Karp's matching in
bipartite graphs" to define the NarrowDependency between the input RDD and
the VectorH RDD. It is the responsibility-assignment flow network with
operators as workers: every input partition goes to exactly one
operator, edges to operators on a preferred location cost 0, others cost
1, and operators have balanced capacity ``ceil(P/N)`` -- maximizing the
number of affinity-respecting (solid-arrow) assignments in Figure 6.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.connector.rdd import RddPartition
from repro.flow.assignment import responsibility_assignment


def match_partitions(partitions: Sequence[RddPartition],
                     operator_hosts: Sequence[str]) -> Dict[int, int]:
    """Returns {input partition index -> operator index}."""
    if not operator_hosts:
        raise ValueError("no operators")
    operators = range(len(operator_hosts))
    local = {part.index: {o for o in operators
                          if operator_hosts[o] in part.preferred_locations}
             for part in partitions}
    return responsibility_assignment([part.index for part in partitions],
                                     operators, local)


def locality_fraction(partitions: Sequence[RddPartition],
                      operator_hosts: Sequence[str],
                      assignment: Dict[int, int]) -> float:
    """Fraction of assignments that respect block affinity."""
    if not assignment:
        return 1.0
    local = sum(
        1 for part in partitions
        if operator_hosts[assignment[part.index]] in part.preferred_locations
    )
    return local / len(assignment)
