"""Locations shared by the benchmark's entry points.

The benchmark always measures the checkout it sits in: ``src/`` next to
this directory, never an installed copy of jensengap.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
#: scratch space for generated tables, probe outputs and span files
RUN_DIR = ROOT / ".bench_run"
#: numpy's BLAS starts one spinning worker thread per core at import; on a
#: small machine those threads compete with the benchmark's own processes
#: and add their CPU time, which varies, to every set-up probe
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def bootstrap() -> None:
    """Put the checkout's src/ first on sys.path and limit BLAS threads
    before numpy loads; exit 2 when the sources are missing."""
    os.environ.update(THREAD_ENV)
    if not (SRC / "jensengap" / "__init__.py").is_file():
        print(f"bench: no jensengap sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ only."""
    env = {**os.environ, **THREAD_ENV}
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env
