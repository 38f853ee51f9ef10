"""Frozen command-line output.

`cli_goldens.json` holds the exact stdout, stderr and exit code of every
README command, and of variants that reach the other branches of the
subcommands, each in text mode and with ``--json``.  The JSON keys and the
text output's line order are a documented contract, so every later change
to the CLI must reproduce them byte for byte.  The catalog command writes
into a temporary directory, whose path is replaced by ``{out}``.

Regenerate (only when a change is meant to move the output) with
``PYTHONPATH=src python tests/test_cli_goldens.py``.
"""

import contextlib
import io
import json
import pathlib
import shlex
import tempfile

import pytest

from mixnorms.cli import _build_parser, main

GOLDENS = pathlib.Path(__file__).with_name("cli_goldens.json")

#: The README commands, then the other branches: heuristic sup, blocked
#: and ragged tuples, refined and restart-limited search, explicit
#: weights, both Khinchin regimes, an explicit average exponent, both
#: sides of p0, and two domain errors.
COMMANDS = [
    "norm --form littlewood2",
    "mixed --form triple221 --exps 2,2,1",
    "certify --form triple221 --exps 2,2,1",
    "optimize --dims 2,2 --exps 1,2 --budget 10000 --seed 0",
    "growth --exps 1,2 --n-list 2,3,4 --trials 8",
    "interpolate --tuples '1,2,2;2,1,2;2,2,1' --constants 2,2,1.4142135623730951",
    "khinchin --p 4/3",
    "p0 --tol 1e-8",
    "bh-bound --m 3",
    "equiv-gap --m 100",
    "cotype-ratio --vectors '1,1;1,-1' --r 1",
    "cotype-bounds --r 1.5",
    "catalog --out {out}/forms/",
    "equivalence-demo --form littlewood2 --m 3",
    "norm --form triple221 --budget 5",
    "mixed --form triple221 --exps '2:2|1:1'",
    "mixed --form triple221 --exps 3:1",
    "optimize --dims 2,2 --exps 1,2 --budget 400 --seed 3 --refine --restarts 2",
    "interpolate --tuples '1,2;2,1' --weights 1/4,3/4 --constants 2,1.5",
    "khinchin --p 1.9",
    "cotype-ratio --vectors '1,2;3,-1' --r 1.5 --s 2",
    "cotype-bounds --r 1.9",
    "norm --form nonexistent",
    "p0 --tol nan",
]

CASES = [cmd + mode for cmd in COMMANDS for mode in ("", " --json")]


def _run(case: str, out: str) -> dict:
    """Exit code, stdout and stderr of one in-process `main` call."""
    argv = [arg.replace("{out}", out) for arg in shlex.split(case)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {
        "code": code,
        "stdout": stdout.getvalue().replace(out, "{out}"),
        "stderr": stderr.getvalue().replace(out, "{out}"),
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_frozen(case, goldens, tmp_path):
    assert _run(case, str(tmp_path)) == goldens[case]


def test_goldens_cover_every_subcommand():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    assert {case.split()[0] for case in CASES} == set(sub.choices)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {case: _run(case, tmp) for case in CASES}
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDENS}")
