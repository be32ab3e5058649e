"""distmirror benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Each pass of a workload runs in a fresh process
(``child.py``) with ``MIRROR_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` cleared, so the program's own thread defaults apply.
Passes repeat until the next one would end after ``--seconds``; there is
always at least one.  Every figure is a median over passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see tracing.py), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
CLI call; ``failed / attempted`` is the failure ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Set-up is timed at least this many times per run (extra set-up-only passes).
SETUP_SAMPLES = 3
#: A run must end within 180 s: a pass still running this long after the
#: run started is killed and counted as failed.
RUN_LIMIT_S = 170
CLEARED_ENV = ("MIRROR_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "core.load_calls": "count",
    "core.load_bytes": "B",
    "core.load_wall_s": "s",
    "core.load_mb_per_s": "MB/s",
    "transport.matrix_calls": "count",
    "transport.sort_pairs": "count",
    "transport.assign_pairs": "count",
    "transport.distinct_pairs": "count",
    "transport.useful_ratio": "ratio",
    "transport.wall_s": "s",
    "transport.busy_s": "s",
    "parallel.workers": "count",
    "parallel.maps": "count",
    "parallel.items": "count",
    "parallel.busy_over_wall": "ratio",
    "embedding.calls": "count",
    "embedding.max_m": "count",
    "embedding.wall_s": "s",
    "embedding.busy_s": "s",
    "surface.triangulations": "count",
    "surface.distinct_triangulations": "count",
    "surface.useful_ratio": "ratio",
    "surface.simplices": "count",
    "surface.triangulate_wall_s": "s",
    "surface.triangulate_busy_s": "s",
    "surface.queries": "count",
    "surface.query_wall_s": "s",
    "recovery.recoveries": "count",
    "recovery.boundary_pinned": "count",
    "recovery.self_busy_s": "s",
    "write.calls": "count",
    "write.bytes": "B",
    "write.wall_s": "s",
    "trace.overhead_s": "s",
    "input.bytes": "B",
    "input.floats": "count",
    "op.distmat_ndjson_s": "s",
    "op.distmat_csv_s": "s",
    "op.recover_s": "s",
}
#: Per-call wall times reported from untraced passes: metric -> (workload, op).
OP_TIMES = {
    "op.distmat_ndjson_s": ("ingest-distmat", "distmat-ndjson"),
    "op.distmat_csv_s": ("ingest-distmat", "distmat-csv"),
    "op.recover_s": ("cli-chain", "recover"),
}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload: str, seed: int, work: Path, trace: int, setup_only: bool = False,
             toy: bool = False, timeout: float = RUN_LIMIT_S) -> dict | None:
    """Run one pass in a fresh process; None if the process failed."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--result", str(result),
           "--trace", str(trace)]
    cmd += ["--setup-only"] * setup_only + ["--toy"] * toy
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} pass timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        print(f"perfbench: {workload} pass exited with {proc.returncode}", file=sys.stderr)
        return None
    out = json.loads(result.read_text())
    out["setup_s"] = out["setup_done"] - spawned
    return out


def remove_work(work: Path) -> None:
    """Delete a run's working directory, and the shared parent once empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass


def median(values) -> float:
    return float(statistics.median(values))


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 work: Path, toy: bool = False) -> dict:
    """Passes for one workload; returns the result object the benchmark prints."""
    passes: list[dict | None] = []
    traced: list[dict | None] = []
    start = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    while True:
        passes.append(run_pass(workload, seed, work / "pass", 0, toy=toy, timeout=left()))
        if trace:
            traced.append(run_pass(workload, seed, work / "pass", 1, toy=toy, timeout=left()))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    done = [p for p in passes + traced if p is not None]
    if not done:
        raise RuntimeError(f"no pass of {workload} completed")
    setups = [p["setup_s"] for p in done]
    while not trace and len(setups) < SETUP_SAMPLES:
        extra = run_pass(workload, seed, work / "pass", 0, setup_only=True, toy=toy,
                         timeout=left())
        if extra is None:
            raise RuntimeError(f"set-up of {workload} failed")
        setups.append(extra["setup_s"])

    ops = [op for p in done for op in p["ops"]]
    attempted = len(ops) + sum(p is None for p in passes + traced)
    failed = sum(op["error"] is not None for op in ops) + sum(p is None for p in passes + traced)
    untraced = [p for p in passes if p is not None]
    op_wall = {
        name: median(op["wall_s"] for p in untraced for op in p["ops"] if op["name"] == name)
        for name in (op["name"] for op in done[0]["ops"])
    }
    if trace:
        layers = [p for p in traced if p is not None]
        if not layers or not untraced:
            raise RuntimeError(f"no complete traced/untraced pair for {workload}")
        values = {k: median(p["layers"][k] for p in layers) for k in layers[0]["layers"]}
        values["trace.overhead_s"] = (median(p["wall_s"] for p in layers)
                                      - median(p["wall_s"] for p in untraced))
        values["input.bytes"] = done[0]["input_bytes"]
        values["input.floats"] = done[0]["input_floats"]
        for metric, (wl, op_name) in OP_TIMES.items():
            values[metric] = op_wall[op_name] if wl == workload else 0.0
        units = PER_LAYER
        digest_sets = {json.dumps(p["digests"], sort_keys=True) for p in done}
        if len(digest_sets) != 1:
            print(f"perfbench: {workload}: traced and untraced artifacts differ",
                  file=sys.stderr)
            failed += 1
    else:
        values = {
            "wall_s": median(p["wall_s"] for p in untraced),
            "cpu_s": median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
            "setup_s": median(setups),
        }
        units = END_TO_END
    report = {
        "workload": workload,
        "passes": len(untraced),
        "fail_ratio": failed / attempted,
        "err_median": done[0].get("err_median"),
        "input_bytes": done[0]["input_bytes"],
        "input_floats": done[0]["input_floats"],
        "op_wall_s": op_wall,
        "env": done[0]["env"],
    }
    print("perfbench: " + json.dumps(report))
    for name, unit in units.items():
        print(f"{workload:15s} {name:32s} {values[name]:14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "distmirror" / "__init__.py").is_file():
        print(f"perfbench: no distmirror sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"perfbench: commit {git_commit()} seed {args.seed} seconds {args.seconds:g}")
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, work / w)
                   for w in names}
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        remove_work(work)
    if args.workload == "all":
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        out = results[args.workload]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
