"""Locating the program's sources in the checkout and fixing threads.

The benchmark runs the package from `src/` of the checkout it sits in,
never an installed copy, and pins every BLAS/OpenMP pool to one thread
before numpy loads: the benchmark is a plain single-threaded baseline.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SourceMissing(Exception):
    """The checkout holds no `src/expfem` package."""


def prepare():
    """Pin thread pools to 1 and put `src/` first on the import path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "expfem" / "__init__.py").is_file():
        raise SourceMissing(f"no expfem package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import expfem
    if Path(expfem.__file__).resolve().parent != SRC / "expfem":
        raise SourceMissing(f"expfem imported from {expfem.__file__}, "
                            f"not from {SRC}")
