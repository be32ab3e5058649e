"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py          # toy sizes, about a minute
    python3 perfbench/selftest.py --full   # also the full-size traced counts

Checks that BENCHMARK.json matches the metric tables in run.py, that the
tracer patches every namespace a layer function is bound in, that pooled
work is not charged to the caller's self time, and that each workload at
toy size reports the expected work counts with identical artifact digests
in traced and untraced passes.  ``--full`` adds one traced full-size pass
per workload and checks the counts the seed commit is known to produce.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run

#: workload -> per-layer counts at toy size (see workloads.py for the sizes).
EXPECTED_TOY = {
    "mean-sd-loo": {"surface.triangulations": 200, "surface.distinct_triangulations": 100,
                    "recovery.recoveries": 100, "transport.sort_pairs": 4950,
                    "embedding.calls": 100},
    "mean-only": {"transport.sort_pairs": 19800, "transport.matrix_calls": 4,
                  "surface.triangulations": 0},
    "cli-chain": {"transport.assign_pairs": 162, "transport.distinct_pairs": 126,
                  "surface.triangulations": 12, "recovery.recoveries": 11,
                  "core.load_calls": 7, "write.calls": 7},
    "ingest-distmat": {"transport.sort_pairs": 90, "core.load_calls": 2, "write.calls": 2},
}
#: workload -> per-layer counts at full size.
EXPECTED_FULL = {
    "mean-sd-loo": {"surface.triangulations": 500, "surface.distinct_triangulations": 100,
                    "recovery.recoveries": 400, "transport.sort_pairs": 19800},
    "mean-only": {"transport.sort_pairs": 198000},
    "cli-chain": {"transport.assign_pairs": 3200, "transport.distinct_pairs": 1100,
                  "surface.triangulations": 34},
    "ingest-distmat": {"transport.sort_pairs": 9900},
}


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]][1], w["name"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def check_coverage_and_pool_attribution() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np

    import distmirror.cli
    import distmirror.surface
    from distmirror.core import SampleSet
    from tracing import Tracer

    original = distmirror.surface.delaunay_triangulate
    tracer = Tracer().install()
    try:
        for name in ("recovery.delaunay_triangulate", "sim.delaunay_triangulate",
                     "cli.delaunay_triangulate", "surface.delaunay_triangulate",
                     "transport.map_deterministic", "recovery.map_deterministic",
                     "sim.map_deterministic", "cli.load_dataset", "cli.distance_matrix"):
            assert f"distmirror.{name}" in tracer.patched, name
        rng = np.random.default_rng(0)
        sets = [SampleSet(id=f"s{i}", samples=rng.standard_normal((200, 3))) for i in range(6)]
        os.environ["MIRROR_THREADS"] = "2"
        try:
            tracer.begin_op()
            distmirror.cli.distance_matrix(sets, 2)
            tracer.end_op()
        finally:
            del os.environ["MIRROR_THREADS"]
    finally:
        tracer.uninstall()
    assert distmirror.cli.delaunay_triangulate is original
    metrics = tracer.metrics()
    assert metrics["transport.assign_pairs"] == 15
    assert metrics["transport.distinct_pairs"] == 15
    assert metrics["parallel.workers"] == 2 and metrics["parallel.items"] == 15
    # The caller waits inside the parallel span, so its own self time is small.
    (dm,) = [s for s in tracer.spans if s.name == "distance_matrix"]
    children = sum(s.end - s.start for s in tracer.spans if s.parent is dm)
    assert children > 0.5 * (dm.end - dm.start), "pool wait charged to the caller"


def check_workload(workload: str, toy: bool, expected: dict) -> None:
    work = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}" / workload
    try:
        plain = run.run_pass(workload, 1, work, 0, toy=toy)
        traced = run.run_pass(workload, 1, work, 1, toy=toy)
    finally:
        run.remove_work(work.parent)
    assert plain is not None and traced is not None, f"{workload}: a pass crashed"
    for p in (plain, traced):
        errors = [op for op in p["ops"] if op["error"]]
        assert not errors, f"{workload}: {errors}"
    assert plain["digests"] == traced["digests"], f"{workload}: tracing changed artifacts"
    layers = traced["layers"]
    for name, count in expected.items():
        assert layers[name] == count, f"{workload}: {name} = {layers[name]}, expected {count}"
    print(f"selftest: {workload} ({'toy' if toy else 'full'}) ok: "
          + ", ".join(f"{k}={layers[k]:g}" for k in expected))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()
    check_benchmark_json()
    check_coverage_and_pool_attribution()
    print("selftest: BENCHMARK.json, wrapper coverage and pool attribution ok")
    for workload, expected in EXPECTED_TOY.items():
        check_workload(workload, True, expected)
    if args.full:
        for workload, expected in EXPECTED_FULL.items():
            check_workload(workload, False, expected)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
