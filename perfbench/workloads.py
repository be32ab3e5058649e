"""The four benchmark workloads: seeded inputs, CLI calls and output gates.

Each workload is built from the benchmark seed alone.  Its function writes
the input files (the program receives only those, never the seed, except
where the seed is itself the program's input, as for ``simulate``), lists
the operations to time, and returns a check that reads the operations'
outputs back and applies the workload's correctness gates.

``toy`` shrinks every size so the self-test can run all four workloads in a
few seconds; the accuracy gates are calibrated for the full sizes only and
are skipped at toy size.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from inputs import InputStats, SampleSetSpec, rng_for, write_dataset, write_params

#: Acceptance criterion 3: the n = 500 median aligned RMSE must stay below this.
MEAN_ONLY_RMSE_MAX = 0.151
#: Acceptance criterion 4: interior truths of the 10 x 10 grid, and the bound
#: on each per-coordinate median error at n = 10^4.
MEAN_SD_INTERIOR = 64
MEAN_SD_COORD_MAX = 0.05
#: Median recovery error of the eight unlabeled cli-chain sets.  Calibrated at
#: the seed commit over seeds 0..29: median 0.131, largest 0.172, on a grid
#: spacing of 0.5; the bound leaves about 1.45x headroom over the largest.
CLI_CHAIN_ERR_MAX = 0.25


@dataclass(frozen=True)
class Op:
    """One timed operation: a CLI call and the artifacts it writes."""

    name: str
    argv: list[str]
    outputs: list[Path]


@dataclass
class Plan:
    """A workload instance: its operations and the check of their outputs.

    ``check`` returns (failures by op name, err_median), where err_median is
    the workload's accuracy figure against its known truth.
    """

    ops: list[Op]
    check: Callable[[], tuple[dict[str, str], float]]
    stats: InputStats = field(default_factory=InputStats)


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]


def mean_sd_loo(seed: int, work: Path, toy: bool) -> Plan:
    out = work / "mean-sd"
    n_values = (10,) if toy else (10, 100, 1000, 10000)
    argv = ["simulate", "--experiment", "mean-sd", "--seed", str(seed),
            "--output-dir", str(out)]
    if toy:
        argv += ["--n-values", ",".join(map(str, n_values))]

    def scatter(n: int) -> tuple[np.ndarray, np.ndarray]:
        rows = _read_rows(out / f"recovery_scatter_n{n}.csv")
        diff = np.array([[float(r[0]) - float(r[2]), float(r[1]) - float(r[3])] for r in rows])
        interior = np.array([r[5] == "false" for r in rows])
        return diff, interior

    def check() -> tuple[dict[str, str], float]:
        lo, hi = n_values[0], n_values[-1]
        diff_lo, int_lo = scatter(lo)
        diff_hi, int_hi = scatter(hi)
        err_lo = float(np.median(np.linalg.norm(diff_lo[int_lo], axis=1)))
        err_hi = float(np.median(np.linalg.norm(diff_hi[int_hi], axis=1)))
        problems = []
        if not toy:
            if int_lo.sum() != MEAN_SD_INTERIOR or int_hi.sum() != MEAN_SD_INTERIOR:
                problems.append(f"interior counts {int_lo.sum()}, {int_hi.sum()}")
            if not err_hi < err_lo:
                problems.append(f"median error did not shrink ({err_lo:.4g} -> {err_hi:.4g})")
            coord = np.median(np.abs(diff_hi[int_hi]), axis=0)
            if not np.all(coord < MEAN_SD_COORD_MAX):
                problems.append(f"per-coordinate medians {coord.tolist()}")
        return ({"simulate": "; ".join(problems)} if problems else {}), err_hi

    return Plan(ops=[Op("simulate", argv, [out])], check=check)


def mean_only(seed: int, work: Path, toy: bool) -> Plan:
    out = work / "mean-only"
    seeds = range(seed, seed + (2 if toy else 10))
    argv = ["simulate", "--experiment", "mean-only", "--seeds",
            ",".join(map(str, seeds)), "--output-dir", str(out)]
    if toy:
        argv += ["--n-values", "10,20"]

    def check() -> tuple[dict[str, str], float]:
        table: dict[int, list[float]] = {}
        for n, _, rmse, _ in _read_rows(out / "mirror_error_curve.csv"):
            table.setdefault(int(n), []).append(float(rmse))
        medians = [float(np.median(table[n])) for n in sorted(table)]
        problems = []
        if not toy:
            if not all(a > b for a, b in zip(medians, medians[1:])):
                problems.append(f"medians do not decrease: {medians}")
            if not medians[-1] < MEAN_ONLY_RMSE_MAX:
                problems.append(f"n=500 median {medians[-1]:.4g} >= {MEAN_ONLY_RMSE_MAX}")
        return ({"simulate": "; ".join(problems)} if problems else {}), medians[-1]

    return Plan(ops=[Op("simulate", argv, [out])], check=check)


def cli_chain(seed: int, work: Path, toy: bool) -> Plan:
    """The desk chain scaled up: 5 x 5 labeled grid on [0, 2]^2, 8 unlabeled.

    Every set is an independent N(0, I_3) cloud of n = 150 points shifted by
    (x1, x2, 0), so W2 distances track parameter distances up to sampling
    noise.
    """
    axis = np.linspace(0.0, 2.0, 3 if toy else 5)
    n, q, u = (20, 3, 2) if toy else (150, 3, 8)
    rng = rng_for(seed, 3)

    def cloud(x: np.ndarray) -> np.ndarray:
        return rng.standard_normal((n, q)) + np.array([x[0], x[1], 0.0])

    grid = [np.array([a, b]) for a in axis for b in axis]
    labeled = [SampleSetSpec(f"g{i:02d}", x, cloud(x)) for i, x in enumerate(grid)]
    truths = rng.uniform(0.25, 1.75, size=(u, 2))
    unlabeled = [SampleSetSpec(f"u{k}", None, cloud(x)) for k, x in enumerate(truths)]

    stats = InputStats()
    lab, both, params = work / "labeled.ndjson", work / "all.ndjson", work / "params.csv"
    write_dataset(labeled, stats, ndjson=lab)
    write_dataset(labeled + unlabeled, stats, ndjson=both)
    write_params(params, labeled, stats)

    dm, emb, report = work / "dm.csv", work / "emb.csv", work / "report.csv"
    scree, surface, tri, loo = (work / f for f in ("scree.csv", "surface.csv", "tri.csv", "loo.csv"))
    ops = [
        Op("distmat", ["distmat", "--input", str(lab), "--metric", "w2", "--output", str(dm)], [dm]),
        Op("diagnose", ["diagnose", "--input", str(dm), "--output", str(scree)], [scree]),
        Op("embed", ["embed", "--input", str(dm), "--dim", "2", "--output", str(emb)],
           [emb, emb.with_suffix(".spectrum.csv")]),
        Op("fit", ["fit", "--embedding", str(emb), "--params", str(params),
                   "--grid-res", "10" if toy else "60", "--output", str(surface),
                   "--triangulation", str(tri)], [surface, tri]),
        Op("recover", ["recover", "--input", str(both), "--metric", "w2",
                       "--output", str(report)], [report]),
        Op("recover-loo", ["recover", "--input", str(lab), "--metric", "w2",
                           "--leave-one-out", "--output", str(loo)], [loo]),
    ]

    def check() -> tuple[dict[str, str], float]:
        truth = {s.id: x for s, x in zip(unlabeled, truths)}
        rows = _read_rows(report)
        if sorted(truth) != sorted(r[0] for r in rows):
            return {"recover": "report rows do not match the unlabeled sets"}, float("nan")
        err = float(np.median(
            [np.linalg.norm(truth[r[0]] - np.array([float(r[3]), float(r[4])])) for r in rows]
        ))
        if not toy and not err < CLI_CHAIN_ERR_MAX:
            return {"recover": f"median error {err:.4g} >= {CLI_CHAIN_ERR_MAX}"}, err
        return {}, err

    return Plan(ops=ops, check=check, stats=stats)


def ingest_distmat(seed: int, work: Path, toy: bool) -> Plan:
    """m = 100 sets of n = 10^4 draws from N(mu_i, 1), as NDJSON and as CSV.

    Equal variances make the population W1 distance exactly |mu_i - mu_j|,
    the truth err_median is measured against.
    """
    m, n = (10, 100) if toy else (100, 10_000)
    rng = rng_for(seed, 4)
    mu = rng.uniform(0.0, 5.0, size=m)
    sets = [
        SampleSetSpec(f"d{i:03d}", mu[i : i + 1], (mu[i] + rng.standard_normal(n))[:, None])
        for i in range(m)
    ]
    stats = InputStats()
    nd, cs = work / "data.ndjson", work / "data.csv"
    write_dataset(sets, stats, ndjson=nd, csv=cs)
    dm_nd, dm_cs = work / "dm_ndjson.csv", work / "dm_csv.csv"
    ops = [
        Op("distmat-ndjson", ["distmat", "--input", str(nd), "--format", "ndjson",
                              "--metric", "w1", "--output", str(dm_nd)], [dm_nd]),
        Op("distmat-csv", ["distmat", "--input", str(cs), "--format", "csv",
                           "--metric", "w1", "--output", str(dm_cs)], [dm_cs]),
    ]

    def check() -> tuple[dict[str, str], float]:
        values = np.array([[float(c) for c in r] for r in _read_rows(dm_nd)])
        iu = np.triu_indices(m, k=1)
        err = float(np.median(np.abs(values[iu] - np.abs(mu[:, None] - mu[None, :])[iu])))
        if dm_nd.read_bytes() != dm_cs.read_bytes():
            return {"distmat-csv": "CSV and NDJSON matrices differ"}, err
        return {}, err

    return Plan(ops=ops, check=check, stats=stats)


#: name -> (plan function, why the workload was chosen)
WORKLOADS: dict[str, tuple[Callable[[int, Path, bool], Plan], str]] = {
    "mean-sd-loo": (
        mean_sd_loo,
        "leave-one-out recovery study: surface triangulation does nearly all the work "
        "(500 triangulations of 100 distinct point sets); no ingest, little transport",
    ),
    "mean-only": (
        mean_only,
        "mirror study over 10 seeds: the q=1 sort path and the thread pool do most of "
        "the work (198,000 pair costs); no geometry",
    ),
    "cli-chain": (
        cli_chain,
        "six CLI calls on q=3 sets: the assignment path dominates (3,200 solves, 1,100 "
        "distinct); the only joint-embedding, point-location and artifact-writer workload",
    ),
    "ingest-distmat": (
        ingest_distmat,
        "distmat w1 on one 10^6-float dataset read from NDJSON and from CSV: parsing "
        "dominates, and the two formats must give byte-identical matrices",
    ),
}
