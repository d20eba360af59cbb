"""Entry point: ``python3 benchmarks/e2e/__main__.py`` (the command in
``BENCHMARK.json``) or ``python -m benchmarks.e2e`` from the repo root.

Pins the numeric libraries to one thread *before* numpy is imported,
fixes the string-hash salt (re-executing itself once if need be) and puts
the checkout's own ``src/`` first on ``sys.path``, so the program measured
is always the one beside this benchmark.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# DXchg hash-splits on string keys with Python's hash(), which is salted
# per process: without a fixed salt, routing -- and with it message, pull
# and call counts -- differs between two runs of one seed
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

_ROOT = Path(__file__).resolve().parents[2]
# run as a script, sys.path[0] is this directory: drop it so module names
# here can never shadow the standard library
sys.path[:] = [p for p in sys.path
               if Path(p or ".").resolve() != Path(__file__).resolve().parent]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

if __name__ == "__main__":
    from benchmarks.e2e.cli import main

    sys.exit(main())
