"""Worker-count policy for the embarrassingly parallel stages.

``MIRROR_THREADS`` caps the number of workers; when unset, one worker per
available core is used.  Results never depend on the worker count: every
parallel site computes independent items and writes to disjoint slots.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    env = os.environ.get("MIRROR_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"MIRROR_THREADS must be an integer, got {env!r}") from None


def map_deterministic(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map ``fn`` over ``items``, preserving order, possibly in threads."""
    workers = min(worker_count(), len(items)) if items else 1
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
