"""The wall-clock benchmark wraps the program's entry points by name
(``benchmarks/e2e/spans.py``). A rename in ``src/`` that leaves one of
them dangling fails here, in the tier-1 suite, and so does a hook that
is not put back the way it was found."""

from benchmarks.e2e import spans
from repro.engine.operators import Operator
from repro.mpp.executor import MppExecutor
from repro.txn.manager import TransactionManager
from repro.workload.manager import WorkloadManager

#: what ``spans.installed`` wraps besides ``spans._targets()``
WRAPPED_BESIDE_TARGETS = [
    (WorkloadManager, "submit"),
    (WorkloadManager, "gather"),
    (MppExecutor, "prepare"),
    (Operator, "execute"),
    (TransactionManager, "commit"),
]


def test_every_hook_resolves_and_is_restored():
    hooks = [(owner, attr) for owner, attr, _ in spans._targets()]
    hooks += WRAPPED_BESIDE_TARGETS
    for owner, attr in hooks:
        assert callable(getattr(owner, attr, None)), \
            f"{owner.__name__}.{attr} is wrapped by the benchmark"
    originals = {(owner, attr): getattr(owner, attr) for owner, attr in hooks}
    own = {(owner, attr): attr in vars(owner) for owner, attr in hooks}

    with spans.installed(spans.Recorder()):
        for owner, attr in hooks:
            assert getattr(owner, attr) is not originals[(owner, attr)], \
                f"{owner.__name__}.{attr} was not wrapped"

    for owner, attr in hooks:
        assert getattr(owner, attr) is originals[(owner, attr)], \
            f"{owner.__name__}.{attr} was not restored"
        # restored where it was found, not shadowed on a subclass
        assert (attr in vars(owner)) == own[(owner, attr)]
