"""List every ``raise`` statement in ``distmirror`` that the tier-1 tests never run.

Usage::

    python tools/raise_coverage.py [CHECKOUT]

``CHECKOUT`` is the root of a checkout (default: the one this script is in).
The script runs that checkout's tests in this process, with pytest's
configuration from its ``pyproject.toml``, so ``CHECKOUT/src`` is the package
under test.  A tracer set with ``sys.settrace`` and ``threading.settrace``
follows line by line every frame whose code is a module of
``src/distmirror``.  A raise statement (an ``ast.Raise``) counts as run when
its first line runs, so each raise must start a line of its own.  Each raise
that never ran is printed as ``path:line: source``, and a summary goes to
stderr.  Code that a test runs in a subprocess is not traced.

Exit status: pytest's when the tests fail; else 1 if a raise never ran or
shares its first line with another statement; else 0.  The script needs only
the standard library and pytest, so no coverage package is required.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path


def raise_lines(path: Path) -> tuple[set[int], set[int]]:
    """The first lines of the module's raise statements, and those of them that
    another statement starts on too (a run of that line would not show the raise ran)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    starts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)]
    lines = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return lines, {n for n in lines if starts.count(n) > 1}


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    package = root / "src" / "distmirror"
    wanted, shared = {}, []
    for path in sorted(package.rglob("*.py")):
        wanted[str(path)], on_shared_line = raise_lines(path)
        shared += [f"{path.relative_to(root)}:{n}" for n in sorted(on_shared_line)]
    for where in shared:
        print(f"{where}: a raise shares its line with another statement", file=sys.stderr)
    if shared:
        return 1

    ran: dict[str, set[int]] = {path: set() for path in wanted}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in ran else None

    import pytest

    os.chdir(root)
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"the tests failed (pytest status {int(status)}); raise coverage not judged",
              file=sys.stderr)
        return int(status)

    missed = 0
    for path, lines in wanted.items():
        source = Path(path).read_text(encoding="utf-8").splitlines()
        for n in sorted(lines - ran[path]):
            missed += 1
            print(f"{Path(path).relative_to(root)}:{n}: {source[n - 1].strip()}")
    total = sum(map(len, wanted.values()))
    print(f"{missed} of {total} raise statements in {package.relative_to(root)} never ran",
          file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
