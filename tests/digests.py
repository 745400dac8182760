"""The digest matrix of figplane's reports: check the reports against it,
or write it.

    PYTHONPATH=src python tests/digests.py            # check; exit 1 on a change
    PYTHONPATH=src python tests/digests.py --write    # rewrite the matrix and goldens
    PYTHONPATH=src python tests/digests.py --max-q 5  # only the runs at q <= 5

The matrix, ``tests/data/digests.json``, maps each command line of
``COMMANDS`` to the sha256 digest of what it prints.  For a command that
``GOLDENS`` names, --write also writes the whole output to its file under
``tests/data``, which tier-1 compares byte for byte; the slow tests
(``pytest -m slow``) check the other digests.  Both modes print each
command whose output differs from the matrix, with the old and the new
digest, so a declared report change lists every id it changed.  The runs
go in-process through ``figplane.cli.main``, one at a time; the q = 13
runs take seconds and about 190 MiB each.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
MATRIX = DATA / "digests.json"

# command line -> the golden file under tests/data that holds its output
GOLDENS = {
    "verify --q 3 --suite all --format json --seed 1": "verify-all-q3.json",
    "verify --q 4 --suite all --format json --seed 1": "verify-all-q4.json",
    "verify --q 5 --suite all --format json --seed 1": "verify-all-q5.json",
    "verify --q 3 --suite all --format text": "verify-all-q3.txt",
    "verify --q 3 --suite all --format csv": "verify-all-q3.csv",
    "census --q 3 --format csv": "census-q3.csv",
    "census --q 4 --format csv": "census-q4.csv",
    "figueroa --q 4 --check build --format json --seed 1": "figueroa-build-q4.json",
    "figueroa --q 4 --check axioms --format json --seed 1": "figueroa-axioms-q4.json",
    "verify --q 7 --suite census --format json --seed 1": "verify-census-q7.json",
    "verify --q 7 --suite maps --format json --seed 1": "verify-maps-q7.json",
}

# the runs pinned by their digest alone: the default report in json and
# text at every order the tier-1 goldens do not cover, and the census at q = 9
DIGESTS = ([f"verify --q {q} --suite all --format {fmt}"
            for q in (4, 5, 7, 8, 11, 13) for fmt in ("json", "text") if fmt == "text" or q > 5]
           + ["census --q 9 --format json"])

COMMANDS = list(GOLDENS) + DIGESTS


def order(command: str) -> int:
    """The q of a command line."""
    words = command.split()
    return int(words[words.index("--q") + 1])


def output(command: str) -> str:
    """What ``figplane`` prints for the command line; it must exit 0."""
    from figplane.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    if code != 0:
        raise SystemExit(f"figplane {command} exited with {code}")
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite the matrix and the golden files from this checkout")
    ap.add_argument("--max-q", type=int, default=None, help="run only the commands at q <= this")
    args = ap.parse_args(argv)
    pinned = json.loads(MATRIX.read_text()) if MATRIX.exists() else {}
    matrix, changed = dict(pinned), 0
    for command in COMMANDS:
        if args.max_q is not None and order(command) > args.max_q:
            continue
        text = output(command)
        new, old = digest(text), pinned.get(command)
        if new != old:
            changed += 1
            print(f"changed: {command}: {old or 'none'} -> {new}")
        if args.write:
            matrix[command] = new
            if command in GOLDENS:
                (DATA / GOLDENS[command]).write_text(text)
    if args.write:
        MATRIX.write_text(json.dumps({c: matrix[c] for c in COMMANDS if c in matrix},
                                     indent=2) + "\n")
    print(f"{changed} changed")
    return 1 if changed and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
