"""Command-line front end: ingest, distances, embedding, surface, recovery.

Subcommands compose through CSV files so every figure-ready artifact can be
regenerated and diffed; all outputs are byte-identical given the same
inputs, flags, and seed.  Exit codes: 0 success, 1 runtime or data error,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from ._parallel import worker_count
from .core import _is_number_text, load_dataset, read_table, write_table
from .embedding import (
    cmds,
    realizability_diagnostics,
    write_embedding,
    write_spectrum,
    read_embedding,
)
from .errors import MirrorError
from .recovery import joint_embed, leave_one_out, recover_parameter, write_recovery_report
from .sim import (
    FamilyVariant,
    run_mirror_experiment,
    run_recovery_experiment,
)
from .surface import (
    MirrorSurface,
    _axis_range,
    delaunay_triangulate,
    fit_axis_scaling,
    interpolate,
    write_triangulation,
)
from .transport import _check_sets, distance_matrix, read_distance_matrix, write_distance_matrix

_METRIC_ORDER = {"w1": 1.0, "w2": 2.0}
#: Grid points ``fit`` holds at once: each chunk is as many whole first-axis
#: rows of its grid as fit in this many points, and at least one row.
_GRID_POINTS = 1 << 16


class _UsageError(Exception):
    """Raised for option combinations argparse cannot express."""


def _check_worker_setting() -> None:
    """Reject a malformed MIRROR_THREADS in the commands that use the worker pool."""
    try:
        worker_count()
    except ValueError as e:
        raise _UsageError(str(e)) from None


def read_params_csv(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a parameter table CSV with header ``id, p1..pd``."""
    return read_table(path)


def write_params_csv(ids, params: np.ndarray, path: str | Path) -> None:
    params = np.asarray(params, dtype=np.float64)
    header = ["id"] + [f"p{k + 1}" for k in range(params.shape[1])]
    write_table(path, header, ([i, *row] for i, row in zip(ids, params)))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_distmat(args) -> int:
    _check_worker_setting()
    p = _METRIC_ORDER[args.metric]
    t0 = time.perf_counter()
    ds = load_dataset(args.input, args.format)
    dm = distance_matrix(list(ds.all_sets), p)
    write_distance_matrix(dm, args.output)
    elapsed = time.perf_counter() - t0
    print(
        f"distmat: m={dm.m} n={ds.all_sets[0].n} q={ds.q} metric={args.metric} "
        f"wall={elapsed:.3f}s -> {args.output}"
    )
    return 0


def _cmd_embed(args) -> int:
    dm = read_distance_matrix(args.input)
    auto = args.dim == "auto"
    emb = cmds(dm, None if auto else args.dim)
    note = f"dim={emb.c} (auto)" if auto else f"dim={emb.c}"
    write_embedding(emb, args.output, header_note=note)
    write_spectrum(emb.spectrum, args.spectrum or Path(args.output).with_suffix(".spectrum.csv"))
    print(f"embed: m={emb.m} {note} -> {args.output}")
    return 0


def _cmd_diagnose(args) -> int:
    dm = read_distance_matrix(args.input)
    report = realizability_diagnostics(dm)
    spectrum = report.spectrum
    print(f"diagnose: m={dm.m}")
    print(f"  negative eigenvalues (beyond tolerance): {report.count_negative}")
    print(f"  min eigenvalue: {report.min_eigenvalue:.6e}")
    head = ", ".join(f"{v:.6g}" for v in spectrum[: min(10, len(spectrum))])
    print(f"  leading eigenvalues: {head}")
    shares = ", ".join(f"{v:.6g}" for v in report.eigenvalue_share[: min(10, len(spectrum))])
    print(f"  eigenvalue/m shares: {shares}")
    if args.output:
        write_spectrum(spectrum, args.output)
        print(f"  spectrum -> {args.output}")
    return 0


def _cmd_fit(args) -> int:
    if args.grid_res < 2:
        raise _UsageError(f"--grid-res must be >= 2, got {args.grid_res}")
    ids_emb, coords = read_embedding(args.embedding)
    ids_par, params = read_params_csv(args.params)
    by_id = {i: k for k, i in enumerate(ids_par)}
    missing = [i for i in ids_emb if i not in by_id]
    if missing:
        raise MirrorError(f"{args.params}: params file lacks ids: {missing[:5]}")
    params = params[[by_id[i] for i in ids_emb]]
    lo, hi = _axis_range(params)  # the grid spans each axis's range

    scaling = fit_axis_scaling(params) if args.normalize_params else None
    work = scaling.transform(params) if scaling else params

    # Triangulating first rejects an unsupported dimension before the grid is built.
    surface = MirrorSurface(delaunay_triangulate(work), coords)
    if args.triangulation:
        write_triangulation(replace(surface.tri, points=params), args.triangulation)

    d = params.shape[1]
    axes = [np.linspace(a, b, args.grid_res) for a, b in zip(lo, hi)]
    # The grid in row-major order, evaluated and written a chunk of first-axis rows at a time.
    step = max(1, _GRID_POINTS // args.grid_res ** (d - 1))
    written = 0

    def rows():
        nonlocal written
        for i in range(0, args.grid_res, step):
            grid = np.stack(np.meshgrid(axes[0][i:i + step], *axes[1:], indexing="ij"),
                            axis=-1).reshape(-1, d)
            values = interpolate(surface, scaling.transform(grid) if scaling else grid)
            inside = np.hstack([grid, values])[~np.isnan(values).any(axis=1)]
            written += len(inside)
            yield from inside

    note = None
    if scaling:
        note = ("normalized axes: offset=" + ",".join(repr(float(v)) for v in scaling.offset)
                + " scale=" + ",".join(repr(float(v)) for v in scaling.scale))
    header = [f"x{k + 1}" for k in range(d)] + [f"y{k + 1}" for k in range(coords.shape[1])]
    write_table(args.output, header, rows(), note)
    print(f"fit: grid={args.grid_res} rows={written} -> {args.output}")
    return 0


def _cmd_recover(args) -> int:
    _check_worker_setting()
    p = _METRIC_ORDER[args.metric]
    ds = load_dataset(args.input, args.format)
    _check_sets(ds.all_sets)
    if not ds.labeled:
        raise MirrorError("recovery requires labeled sets")
    if not (args.leave_one_out or ds.unlabeled):
        raise _UsageError("no unlabeled sets in input; nothing to recover")
    # --normalize-params builds the surface on normalized axes; truths stay raw.
    params = ds.params_matrix()
    scaling = fit_axis_scaling(params) if args.normalize_params else None
    work = scaling.transform(params) if scaling else params

    # Only --dim auto and --leave-one-out read the labeled sets' own distances.
    labeled_dm = (distance_matrix(list(ds.labeled), p)
                  if args.dim == "auto" or args.leave_one_out else None)
    if args.dim is None:
        c, note = ds.d, f"dim={ds.d} (default d)"
    elif args.dim == "auto":
        c = cmds(labeled_dm, None).c
        note = f"dim={c} (auto)"
    else:
        c, note = args.dim, f"dim={args.dim}"

    if args.leave_one_out:
        targets, truths = ds.labeled, [s.params for s in ds.labeled]
        recs = leave_one_out(labeled_dm, work, c=c)
    else:
        targets, truths = ds.unlabeled, [None] * len(ds.unlabeled)
        recs = [recover_parameter(joint_embed(list(ds.labeled), u, p, c=c), work)
                for u in ds.unlabeled]
    if scaling:
        recs = [replace(rec, x_hat=scaling.inverse(rec.x_hat)) for rec in recs]
    write_recovery_report(list(zip(truths, recs)), [s.id for s in targets], args.output)
    print(f"recover: {note} sets={len(recs)} -> {args.output}")
    return 0


def _int(text: str) -> int:
    """argparse type of an integer written in ASCII digits without '_'."""
    try:
        if _is_number_text(text):
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _dim(text: str) -> int | str:
    """argparse type of a mirror dimension: a positive integer or 'auto'."""
    if text == "auto":
        return text
    try:
        value = _int(text)
    except argparse.ArgumentTypeError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer or 'auto', got {text!r}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type of a non-empty comma-separated integer list."""
    try:
        values = tuple(_int(v) for v in text.split(",") if v.strip())
    except argparse.ArgumentTypeError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    return values


def _cmd_simulate(args) -> int:
    _check_worker_setting()
    variant = FamilyVariant(args.experiment)
    mean_only = variant is FamilyVariant.MEAN_ONLY
    ignored = "seed" if mean_only else "seeds"
    if getattr(args, ignored) is not None:
        raise _UsageError(f"--{ignored} does not apply to the {variant.value} study")
    # Options left out take the study's own defaults.
    options = {k: getattr(args, k) for k in ("n_values", "seeds", "seed")
               if getattr(args, k) is not None}
    # The study checks its options and runs before any output exists.
    study = (run_mirror_experiment if mean_only else run_recovery_experiment)(**options)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = [
        f"distmirror {__version__}",
        f"experiment: {variant.value}",
    ]
    if mean_only:
        for n in study.n_values:
            write_table(out / f"mirror_surface_n{n}.csv", ["x1", "x2", "mirror"],
                        ([*x, v] for x, v in zip(study.grid, study.surfaces[n])))
        write_table(out / "mirror_error_curve.csv", ["n", "seed", "rmse", "max_error"],
                    ([n, seed, study.errors[a, b], study.max_errors[a, b]]
                     for a, n in enumerate(study.n_values) for b, seed in enumerate(study.seeds)))
        manifest += [
            f"m: {len(study.grid)}",
            f"n_values: {','.join(str(v) for v in study.n_values)}",
            f"seeds: {','.join(str(s) for s in study.seeds)}",
            "outputs: mirror_surface_n<n>.csv, mirror_error_curve.csv",
        ]
    else:
        header = ["x1_true", "x2_true", "x1_hat", "x2_hat", "residual", "truth_on_boundary"]
        for n in study.n_values:
            write_table(out / f"recovery_scatter_n{n}.csv", header,
                        ([*truth, *rec.x_hat, rec.residual, str(on_hull).lower()]
                         for truth, rec, on_hull in study.runs[n]))
        manifest += [
            f"m: {len(study.grid)}",
            f"n_values: {','.join(str(v) for v in study.n_values)}",
            f"seed: {study.seed}",
            "outputs: recovery_scatter_n<n>.csv",
        ]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    print(f"simulate: {variant.value} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distmirror",
        description="Euclidean mirror estimation and parameter recovery "
        "for sampled distribution families.",
    )
    parser.add_argument("--version", action="version", version=f"distmirror {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, input_help):
        p.add_argument("--input", required=True, help=input_help)
        p.add_argument("--output", required=True, help="output CSV path")

    p = sub.add_parser("distmat", help="pairwise distance matrix from samples")
    add_io(p, "dataset file (ndjson or csv)")
    p.add_argument("--format", choices=["ndjson", "csv"], default="ndjson")
    p.add_argument("--metric", choices=list(_METRIC_ORDER), default="w1")
    p.set_defaults(handler=_cmd_distmat)

    p = sub.add_parser("embed", help="classical MDS embedding of a distance matrix")
    add_io(p, "distance matrix CSV")
    p.add_argument("--dim", type=_dim, default="auto",
                   help="positive integer, or 'auto' for the largest scree gap (default)")
    p.add_argument("--spectrum", help="spectrum CSV path (default: <output>.spectrum.csv)")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("diagnose", help="realizability diagnostics of a distance matrix")
    p.add_argument("--input", required=True, help="distance matrix CSV")
    p.add_argument("--output", help="optional spectrum CSV path")
    p.set_defaults(handler=_cmd_diagnose)

    p = sub.add_parser("fit", help="fit and export a mirror surface")
    p.add_argument("--embedding", required=True, help="embedding CSV from 'embed'")
    p.add_argument("--params", required=True, help="parameter CSV (id, p1..pd)")
    p.add_argument("--grid-res", type=_int, default=25, help="evaluation grid resolution")
    p.add_argument("--output", required=True, help="surface evaluation CSV")
    p.add_argument("--triangulation", help="optional triangulation export CSV")
    p.add_argument("--normalize-params", action="store_true")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("recover", help="recover parameters of unlabeled sets")
    add_io(p, "dataset file with labeled (+ unlabeled) sets")
    p.add_argument("--format", choices=["ndjson", "csv"], default="ndjson")
    p.add_argument("--metric", choices=list(_METRIC_ORDER), default="w1")
    p.add_argument("--dim", type=_dim, help="positive integer, or 'auto' for the largest scree "
                   "gap of the labeled sets (default: the parameter dimension d)")
    p.add_argument("--leave-one-out", action="store_true",
                   help="hold out each labeled set instead of recovering unlabeled ones")
    p.add_argument("--normalize-params", action="store_true")
    p.set_defaults(handler=_cmd_recover)

    p = sub.add_parser("simulate", help="run a Gaussian family study", description=(
        "Run a Gaussian family study. Omitted values take the study's defaults."))
    p.add_argument("--experiment", choices=[v.value for v in FamilyVariant], required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--n-values", type=_int_list, help="comma-separated sample sizes")
    p.add_argument("--seeds", type=_int_list, help="comma-separated seeds; mean-only study only")
    p.add_argument("--seed", type=_int, help="seed; mean-sd study only")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (MirrorError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # numpy's _ArrayMemoryError says what it could not allocate; a bare one says nothing.
        print(f"error: out of memory{f' ({e})' if str(e) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
