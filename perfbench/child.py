"""One workload pass in a fresh process; run.py starts one per pass.

Set-up is everything before the first timed call: importing distmirror and
writing the seeded inputs.  The timed part runs the workload's operations
in order; afterwards, untimed, every artifact is hashed and the workload's
gates are applied.  The result goes to ``--result`` as JSON.

An operation fails on a non-zero exit, an exception, a broken accuracy gate
or, for the default seed at full size, an artifact digest that differs from
``reference_digests.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Seed whose artifact digests are pinned in reference_digests.json.
DEFAULT_SEED = 0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def digests(paths: list[Path], work: Path) -> dict[str, str]:
    """SHA-256 of every artifact file, keyed by its path below the work dir.

    A missing artifact is left out, so a failed operation still hashes the
    files it did write.
    """
    files = []
    for path in paths:
        if path.is_dir():
            files += sorted(p for p in path.rglob("*") if p.is_file())
        elif path.is_file():
            files.append(path)
    return {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from distmirror.cli import main as cli_main

    from workloads import WORKLOADS

    args.work.mkdir(parents=True, exist_ok=True)
    plan = WORKLOADS[args.workload][0](args.seed, args.work, args.toy)
    result = {"setup_done": time.monotonic(), "input_bytes": plan.stats.bytes,
              "input_floats": plan.stats.floats}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    ops = []
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    log = io.StringIO()
    for op in plan.ops:
        if tracer:
            tracer.begin_op()
        t0 = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(log):
                code = cli_main(op.argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            code, error = None, traceback.format_exc()
        ops.append({"name": op.name, "wall_s": time.perf_counter() - t0,
                    "error": error or (None if code == 0 else f"exit code {code}")})
        if tracer:
            tracer.end_op()
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = cpu_seconds() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()

    artifacts = {op.name: digests(op.outputs, args.work) for op in plan.ops}
    failures: dict[str, str] = {}
    if all(op["error"] is None for op in ops):
        try:
            failures, result["err_median"] = plan.check()
        except Exception:
            failures = {plan.ops[-1].name: "check raised:\n" + traceback.format_exc()}
    if args.seed == DEFAULT_SEED and not args.toy:
        reference = json.loads((HERE / "reference_digests.json").read_text())
        for name, files in artifacts.items():
            if files != reference.get(args.workload, {}).get(name):
                failures.setdefault(name, "artifact digests differ from reference_digests.json")
    for op in ops:
        op["error"] = op["error"] or failures.get(op["name"])
        if op["error"]:
            print(f"perfbench: {args.workload}/{op['name']} failed: {op['error']}",
                  file=sys.stderr)
    result["ops"] = ops
    result["digests"] = artifacts
    result["env"] = environment()
    args.result.write_text(json.dumps(result))
    return 0


def environment() -> dict:
    """Worker count, cores and library versions the pass ran with."""
    import numpy
    import scipy
    from distmirror._parallel import worker_count

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "worker_count": worker_count(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


if __name__ == "__main__":
    sys.exit(main())
