"""Frozen seeded optimizer trajectories.

`climb_goldens.json` holds the witness coefficient tensor, ratio, mixed and
sup norms of seeded `optimize_ratio` runs, plain and refined, recorded
with the per-candidate climb that recomputed the whole ratio for every
move.  Every later climb must reproduce them bit for bit.  Certificates do
not carry their form, so the witness is captured by wrapping
`search.certify`.

Regenerate (only when a change is meant to move trajectories) with
``PYTHONPATH=src python tests/test_climb_goldens.py``.
"""

import json
import pathlib

import pytest

from mixnorms import ExponentTuple, growth_witness, optimize_ratio
from mixnorms import search

GOLDENS = pathlib.Path(__file__).with_name("climb_goldens.json")

#: (dims, tuple, budget, seed, restarts, refine).  The tuples cover plain,
#: blocked and ragged blocks and a degree-1 form; small budgets stop a
#: climb mid-scan, and the larger forms score their moves in several blocks.
RUNS = [
    (dims, exps, budget, seed, None, refine)
    for dims, exps in [
        ((2, 2), "1,2"),
        ((4, 4, 2), "2,2,1"),
        ((4, 4), "2:4/3"),
        ((3, 3, 2), "2:1|1:2"),
        ((5,), "1"),
    ]
    for budget, seed, refine in [
        (600, 0, False), (600, 1, False), (600, 2, False), (7, 3, False), (23, 4, False),
        (600, 0, True), (600, 1, True),
    ]
] + [
    ((11, 11), "1,2", 400, 0, None, False),
    ((3, 3, 3, 3), "8/5,8/5,8/5,8/5", 400, 1, None, False),
    ((2,) * 8, "1,2,2,2,2,2,2,2", 300, 2, None, False),
    ((4, 4), "1,2", 2000, 5, 3, False),
]

GROWTH = [("1,1", [2, 3, 4]), ("1,2", [2, 3, 4])]


def _capture(call):
    """Run `call` with `search.certify` wrapped; returns (result, witnesses)."""
    witnesses = []
    certify = search.certify

    def recording(form, *args, **kwargs):
        witnesses.append(form.coeffs.tolist())
        return certify(form, *args, **kwargs)

    search.certify = recording
    try:
        return call(), witnesses
    finally:
        search.certify = certify


def _run(run):
    dims, exps, budget, seed, restarts, refine = run
    cert, (witness,) = _capture(lambda: optimize_ratio(
        dims, ExponentTuple.parse(exps), budget=budget, seed=seed,
        restarts=restarts, refine=refine))
    return {"witness": witness, "ratio": cert.ratio, "mixed": cert.mixed, "sup": cert.sup}


def _growth(case):
    exps, n_list = case
    rows, witnesses = _capture(lambda: growth_witness(
        ExponentTuple.parse(exps), n_list, trials=4, seed=0, budget_per_n=3_000))
    return {"rows": [list(r) for r in rows], "witnesses": witnesses}


def _key(run) -> str:
    dims, exps, budget, seed, restarts, refine = run
    return f"{dims} {exps} budget={budget} seed={seed} restarts={restarts} refine={refine}"


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.filterwarnings("ignore::mixnorms.RaggedBlockWarning")
@pytest.mark.parametrize("run", RUNS, ids=_key)
def test_optimize_trajectory_is_frozen(run, goldens):
    got = _run(run)
    want = goldens["runs"][_key(run)]
    assert got["witness"] == want["witness"]
    assert (got["ratio"], got["mixed"], got["sup"]) == (want["ratio"], want["mixed"], want["sup"])


@pytest.mark.parametrize("case", GROWTH, ids=lambda c: c[0])
def test_growth_trajectory_is_frozen(case, goldens):
    assert _growth(case) == goldens["growth"][case[0]]


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    doc = {
        "runs": {_key(run): _run(run) for run in RUNS},
        "growth": {case[0]: _growth(case) for case in GROWTH},
    }
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['runs'])} runs and {len(doc['growth'])} growth cases to {GOLDENS}")
