"""Make the checkout's own ``partcheck`` importable, pin to one CPU, cap threads.

Import this module before numpy. The benchmark runs the sources under
``<checkout>/src``, never an installed copy. It pins itself, and the
processes it starts, to the first CPU it may use, so that the speed probe in
``pace.py`` measures the CPU the program runs on; BLAS/OpenMP get that one
thread.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})
THREADS = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

if not (SRC / "partcheck" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no partcheck sources under {SRC}")
sys.path.insert(0, str(SRC))
