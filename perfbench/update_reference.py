"""Rewrite reference_digests.json from one full-size pass of every workload.

    python3 perfbench/update_reference.py

The passes use the default seed.  Run this only for a change that alters
artifact bytes on purpose and argues in CHANGES.md why the new bytes are
more correct; otherwise a digest mismatch is a failure to fix.
"""

from __future__ import annotations

import json
import os
import sys

import run
from child import DEFAULT_SEED


def main() -> int:
    work = run.ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    reference = {}
    try:
        for workload in run.WORKLOADS:
            result = run.run_pass(workload, DEFAULT_SEED, work, 0)
            if result is None or any(op["error"] and "digest" not in op["error"]
                                     for op in result["ops"]):
                print(f"update_reference: {workload} did not run cleanly", file=sys.stderr)
                return 1
            reference[workload] = result["digests"]
    finally:
        run.remove_work(work)
    path = run.HERE / "reference_digests.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"update_reference: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
