"""Run the command line on a fixed corpus of mutated input files, one line per run.

Usage::

    python tools/cli_corpus.py SRC_DIR > out.txt

``SRC_DIR`` is the directory that holds the ``distmirror`` package (``src`` in
a checkout).  The script writes seed files with the library's own writers, from
fixed seeds: an NDJSON dataset; the same dataset as a CSV with each set's rows
together and as one with the sets' rows dealt round-robin; a q = 3 CSV
dataset; a distance matrix; an embedding; and a parameter table.  Each seed is
run as written, and then as mutants drawn from a seeded list of faults: a token
inserted at, or put in place of a few bytes at, a random byte (``1e309``,
``nan``, ``"``, a byte that is not UTF-8, ``1_0``, ``#``, ``1e-320``, a comma, a
line break), a byte-order mark, a repeated or dropped line, or blank rows
before the first line.

Each input is given to two commands, or three for a dataset, run in this process by ``cli.main`` in a
scratch directory, with every warning an error.  Each run prints one line:
``<seed>/<index> <command>: exit <code>: <first line of stderr>``.  File names
in the errors are relative, so running the script on two checkouts and diffing
the outputs shows every input whose exit code or error text changed.

The exit status is 1 if an exception other than argparse's exit left
``cli.main``, or a warning was raised, or an exit code was not 0, 1 or 2: every
bad input must end in a located error or a usage error, never a traceback or an
unreported overflow (ROADMAP aim 3).  Otherwise it is 0.  A summary of the exit
codes goes to stderr.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

MUTANTS = 100  # per seed file, after the seed itself
TOKENS = [b"1e309", b"nan", b'"', b"\xff", b"1_0", b"#", b"1e-320", b",", b"\n"]
BLANK_ROWS = [b"\n", b",,\n", b" \t\r\n"]


def dataset(core, rng, q):
    """Nine labeled sets on a 3 x 3 grid of (mean, sd), and two unlabeled sets."""
    grid = [(mu, sd) for mu in (0.0, 0.5, 1.0) for sd in (0.5, 1.0, 1.5)]
    sets = [core.SampleSet(id=f"a{k}", samples=mu + sd * rng.standard_normal((8, q)),
                           params=[mu, sd]) for k, (mu, sd) in enumerate(grid)]
    sets += [core.SampleSet(id=f"u{k}", samples=0.3 + rng.standard_normal((8, q)))
             for k in range(2)]
    return core.Dataset(tuple(sets))


def interleaved(text: str) -> str:
    """A dataset CSV with the sets' rows dealt round-robin instead of one set after another."""
    head, *body = text.splitlines(keepends=True)
    seen, keyed = Counter(), []
    for k, line in enumerate(body):  # each row keyed by its rank within its set
        set_id = line.split(",", 1)[0]
        keyed.append((seen[set_id], k, line))
        seen[set_id] += 1
    return head + "".join(line for *_, line in sorted(keyed))


def seed_files(work: Path):
    """Write the seed files and the clean companions ``fit`` reads; yield each seed's
    name, file name and commands, with ``{}`` for the input."""
    from distmirror import core, embedding, transport

    rng = np.random.default_rng(20260601)
    ds, ds3 = dataset(core, rng, 1), dataset(core, rng, 3)
    core.save_dataset(ds, work / "seed.ndjson", "ndjson")
    core.save_dataset(ds, work / "seed-contiguous.csv", "csv")
    text = (work / "seed-contiguous.csv").read_text(encoding="utf-8")
    (work / "seed-interleaved.csv").write_text(interleaved(text), encoding="utf-8")
    core.save_dataset(ds3, work / "seed-q3.csv", "csv")
    dm = transport.distance_matrix(list(ds.labeled), 2)
    transport.write_distance_matrix(dm, work / "seed-distmat.csv")
    embedding.write_embedding(embedding.cmds(dm, 2), work / "seed-embedding.csv", header_note="dim=2")
    core.write_table(work / "seed-params.csv", ["id", "p1", "p2"],
                     ([s.id, *s.params] for s in ds.labeled))

    def dataset_commands(fmt):
        recover = ["recover", "--input", "{}", "--format", fmt, "--output", "out.csv"]
        return (["distmat", "--input", "{}", "--format", fmt, "--metric", "w2", "--output", "out.csv"],
                recover, recover + ["--leave-one-out", "--dim", "auto", "--normalize-params"])

    yield "ndjson", "seed.ndjson", dataset_commands("ndjson")
    for layout in ("contiguous", "interleaved", "q3"):
        yield f"csv-{layout}", f"seed-{layout}.csv", dataset_commands("csv")
    yield "distmat", "seed-distmat.csv", (["embed", "--input", "{}", "--output", "out.csv"],
                                          ["diagnose", "--input", "{}"])
    fit = ["fit", "--grid-res", "4", "--output", "out.csv"]
    yield "embedding", "seed-embedding.csv", (
        fit + ["--embedding", "{}", "--params", "seed-params.csv"],
        fit + ["--embedding", "{}", "--params", "seed-params.csv", "--normalize-params"])
    yield "params", "seed-params.csv", (
        fit + ["--embedding", "seed-embedding.csv", "--params", "{}"],
        fit + ["--embedding", "seed-embedding.csv", "--params", "{}", "--triangulation", "tri.csv"])


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One fault drawn from the list in the module docstring."""
    lines = data.splitlines(keepends=True)
    fault = rng.randrange(8)
    if fault == 0:
        return b"\xef\xbb\xbf" + data
    if fault == 1:
        k = rng.randrange(len(lines))
        return b"".join(lines[:k + 1] + lines[k:])
    if fault == 2:
        k = rng.randrange(len(lines))
        return b"".join(lines[:k] + lines[k + 1:])
    if fault == 3:
        return rng.choice(BLANK_ROWS) * rng.randint(1, 2) + data
    at, cut = rng.randrange(len(data) + 1), rng.choice([0, 0, 1, 3])
    return data[:at] + rng.choice(TOKENS) + data[at + cut:]


def run(cli, argv: list[str]) -> tuple[str, bool]:
    """The run's outcome text, and whether it is allowed: an exit code of 0, 1 or 2.
    A crash's traceback goes to stderr."""
    stderr, crash = io.StringIO(), None
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
        except Exception:  # every outcome is printed, a crash included
            crash = traceback.format_exc()
    if crash:
        print(crash, end="", file=sys.stderr)
        return f"raised {crash.rstrip().splitlines()[-1]}", False
    first = stderr.getvalue().partition("\n")[0]
    return f"exit {code}: {first}", code in (0, 1, 2)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: cli_corpus.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[1]).resolve()))
    from distmirror import cli

    status, exits = 0, Counter()
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, seed, commands in list(seed_files(Path(tmp))):
                data = Path(seed).read_bytes()
                rng = random.Random(name)
                for i in range(MUTANTS + 1):
                    path = f"{name}-{i}{Path(seed).suffix}"
                    Path(path).write_bytes(data if i == 0 else mutate(data, rng))
                    for command in commands:
                        text, ok = run(cli, [path if w == "{}" else w for w in command])
                        print(f"{name}/{i} {' '.join(command)}: {text}")
                        exits[text.split(":", 1)[0]] += 1
                        status |= not ok
        finally:
            os.chdir(here)
    print(", ".join(f"{n} x {outcome}" for outcome, n in sorted(exits.items())), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
