"""Write bench/goldens.json, the outputs a run with the golden seed must match.

    python3 bench/make_goldens.py

Freezes the certificate ratios of the first SEARCH_ROUNDS rounds of the
`search` workload and the JSON payloads of the `cli` workload.  Seeded runs
are bit-reproducible, so a later run of the golden seed that differs by
more than 1e-12 relative counts the operation as failed.  Every output
passes the workload's own checks before it is frozen.  Regenerate only for
a change that is meant to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run

GOLDEN_SEED = 0
SEARCH_ROUNDS = 40


def frozen(workload: str, rounds: int) -> list:
    _, wl = run.setup(workload, GOLDEN_SEED)
    values = []
    for k in range(rounds):
        for op in wl.round(k):
            out = wl.call(op)
            errors = wl.check(op, out)
            if errors:
                raise SystemExit(f"error: {workload} round {k}: {'; '.join(errors)}")
            values.append(wl.golden(out))
    return values


def main() -> int:
    doc = {
        "seed": GOLDEN_SEED,
        "search": frozen("search", SEARCH_ROUNDS),
        "cli": frozen("cli", 1),
    }
    path = run.HERE / "goldens.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}: {len(doc['search'])} search ratios, {len(doc['cli'])} cli payloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
