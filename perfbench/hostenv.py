"""Process preparation shared by the harness and its set-up probe, plus the host record."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare_process() -> None:
    """Pin BLAS/OpenMP to one thread and import taaclab from this checkout's src/.

    Must run before numpy is imported: the thread pools read these
    variables once, at load time.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("prepare_process must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "taaclab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no taaclab sources under {src}")
    sys.path.insert(0, str(src))


def host_record() -> dict:
    """Enough about the host to tell numbers from different hosts apart."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
    }
