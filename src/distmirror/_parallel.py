"""Thread policy: how many pool workers, and how many BLAS threads each drives.

Pool workers.  ``MIRROR_THREADS`` caps the number of workers; when unset, one
worker per core this process may run on is used.  A value that is not a
positive integer is rejected.  Results never depend on the worker count: every
parallel site computes independent items and writes to disjoint slots.

Three sites map over the pool: ``transport.distance_matrix`` its assignment
pairs (q > 1), ``recovery.leave_one_out`` its hold-outs and ``sim.generate`` its
draws.  The q = 1 pairs run serially: on 2 cores the mean-sd study's four
matrices took 0.26-0.43 s serial against 0.69-1.48 s in the pool (15 runs
each).  Only the assignment pairs gain from the pool.  The other two sites are
bound by the GIL: on 2 cores ``simulate --experiment mean-sd`` took 2.69-3.50 s
wall and 2.8-3.6 s cpu with one worker against 3.09-3.72 s wall and 4.1-4.7 s
cpu with two (3 alternating runs each).  They stay pooled only because
``perfbench/selftest.py`` asserts their bindings (ROADMAP.md, open items 2-3).

BLAS threads.  Importing this module sets numpy's bundled OpenBLAS (the
``numpy.libs/libscipy_openblas64_*.so`` of the numpy wheels) to one thread.
Every dense matrix here is at most about m x m with m ~ 100: ``eigh`` in the
embedding and the batched ``inv``/``svd``/``det`` of the geometry, which run
inside the pool.  Matrices that small gain nothing from BLAS threads even
serially, and under the pool each worker's BLAS threads compete for the same
cores.  On 2 cores, one BLAS thread took the traced mean-sd study's 400
``eigh`` calls from 2.60 to 0.78 s of wall time.

scipy's own bundled OpenBLAS serves only the one ``scipy.linalg.solve`` of
``fit --method bspline``, and it loads only when an input first needs scipy,
partway through a command.  Each worker thread OpenBLAS starts spins for about
0.1 s before it sleeps, so importing this module also sets
``OPENBLAS_NUM_THREADS=1``, which that library reads when it loads: it then
starts no worker.  On 2 cores this took the mean-sd study's cpu time from
1.70-1.74 s to 1.57-1.60 s (3 alternating runs each).

A count named in the environment wins: when ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, OpenBLAS reads it itself
and both libraries are left alone.  Without numpy's bundled library or its
``scipy_openblas_set_num_threads64_`` symbol (a numpy not built from the
wheels) only the variable is set.  Results are the same at any BLAS thread
count (``tests/test_recovery.py``).
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

_BLAS_THREAD_SETTINGS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _numpy_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS with its thread-count calls declared, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            setter = lib.scipy_openblas_set_num_threads64_
            getter = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return lib
    return None


_OPENBLAS = _numpy_openblas()


def _cap_blas_threads() -> None:
    if any(os.environ.get(k) for k in _BLAS_THREAD_SETTINGS):
        return
    # Read by scipy's bundled OpenBLAS when it loads, on the first use of scipy.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if _OPENBLAS is not None:
        _OPENBLAS.scipy_openblas_set_num_threads64_(1)


_cap_blas_threads()


def worker_count() -> int:
    env = os.environ.get("MIRROR_THREADS")
    if env is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"MIRROR_THREADS must be a positive integer, got {env!r}")
    return count


def map_deterministic(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map ``fn`` over ``items``, preserving order, possibly in threads."""
    workers = min(worker_count(), len(items)) if items else 1
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
