"""Seeded input files for the benchmark workloads.

The writers here belong to the benchmark, not to ``distmirror``: no change
to the program under test can alter the bytes a workload reads.  Floats are
written with ``repr``, the shortest text that parses back to the same
double, so the NDJSON and CSV copies of one dataset load to identical
arrays.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SampleSetSpec:
    """One sample set as the benchmark generates it."""

    id: str
    params: np.ndarray | None  # (d,) or None for an unlabeled set
    samples: np.ndarray  # (n, q)


@dataclass
class InputStats:
    """Bytes and float values written, summed over a workload's input files."""

    bytes: int = 0
    floats: int = 0

    def add(self, path: Path, floats: int) -> None:
        self.bytes += path.stat().st_size
        self.floats += floats


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one (benchmark seed, input stream) pair."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _cells(values: np.ndarray) -> list[str]:
    return [repr(v) for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def _rows(samples: np.ndarray) -> list[str]:
    """One comma-separated text row per observation."""
    cells = _cells(samples)
    q = samples.shape[1]
    if q == 1:
        return cells
    return [",".join(cells[i : i + q]) for i in range(0, len(cells), q)]


def _float_count(sets: list[SampleSetSpec]) -> int:
    return sum(s.samples.size + (0 if s.params is None else s.params.size) for s in sets)


def write_dataset(sets: list[SampleSetSpec], stats: InputStats,
                  ndjson: Path | None = None, csv: Path | None = None) -> None:
    """Write the sets as NDJSON and/or CSV, formatting each sample once.

    NDJSON: one record per set, ``{"id", "params" (labeled only), "samples"}``.
    CSV: header ``id, p1..pd, s1..sq``; one row per observation, grouped by
    set, with empty parameter cells for unlabeled sets.
    """
    d = max((s.params.size for s in sets if s.params is not None), default=0)
    q = sets[0].samples.shape[1]
    with contextlib.ExitStack() as stack:
        nd = stack.enter_context(open(ndjson, "w", encoding="utf-8", newline="")) if ndjson else None
        cs = stack.enter_context(open(csv, "w", encoding="utf-8", newline="")) if csv else None
        if cs:
            cs.write(",".join(["id"] + [f"p{k + 1}" for k in range(d)]
                              + [f"s{k + 1}" for k in range(q)]) + "\n")
        for s in sets:
            pcells = _cells(s.params) if s.params is not None else []
            rows = _rows(s.samples)
            if nd:
                params = f'"params": [{", ".join(pcells)}], ' if s.params is not None else ""
                nd.write(f'{{"id": "{s.id}", {params}"samples": [[' + "],[".join(rows) + "]]}\n")
            if cs:
                prefix = ",".join([s.id] + (pcells or [""] * d)) + ","
                cs.write(prefix + ("\n" + prefix).join(rows) + "\n")
    for path in (ndjson, csv):
        if path:
            stats.add(path, _float_count(sets))


def write_params(path: Path, sets: list[SampleSetSpec], stats: InputStats) -> None:
    """Parameter table ``id, p1..pd`` for the labeled sets, as ``fit`` reads it."""
    labeled = [s for s in sets if s.params is not None]
    d = labeled[0].params.size
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["id"] + [f"p{k + 1}" for k in range(d)]) + "\n")
        for s in labeled:
            fh.write(",".join([s.id] + _cells(s.params)) + "\n")
    stats.add(path, len(labeled) * d)
