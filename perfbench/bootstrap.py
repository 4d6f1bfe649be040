"""Locate the library source in the checkout and time a cold set-up.

The benchmark measures the library as it stands in the checkout's ``src``
directory, never an installed copy.  Set-up is the import of the package, the
generation of the instance pool and its JSON round-trip; it is timed from
before the first ``import fbcrs``, so it only reads cold in a fresh process.
"""

from __future__ import annotations

import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch files (the JSON round-trip) and span dumps, inside the checkout.
OUT = ROOT / ".perfbench"


def use_checkout_source() -> None:
    if not (SRC / "fbcrs" / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found under {SRC}")
    sys.path.insert(0, str(SRC))


@contextmanager
def workdir():
    """A private scratch directory, removed afterwards."""
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def timed_setup(workload: str, seed: int, directory: Path, tracer_enabled: bool):
    """Import, generate and round-trip the pool; return (workload, pool, gate, seconds)."""
    t0 = perf_counter()
    import fbcrs

    if not Path(fbcrs.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported fbcrs from {fbcrs.__file__}, not from {SRC}")
    from spans import Tracer
    from workloads import WORKLOADS, Gate

    spec = WORKLOADS[workload]
    gate = Gate(Tracer(tracer_enabled))
    pool = spec.build_pool(seed, directory / "instance.json", gate)
    return spec, pool, gate, perf_counter() - t0
