"""The benchmark's workloads: seeded inputs, one operation each, and checks.

Every workload runs in rounds.  A round is a fixed mix of operation kinds,
so a run that stops at a round boundary always holds the same proportions.
An operation's kind is its position in the round, unless the workload
defines `kind`; the benchmark times each kind apart.  Inputs depend only on
the workload seed, the round number and the position in the round.  They are built
before an operation's clock starts, so the program receives only data.

Each workload records why it was chosen in its docstring.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import oracles

SQRT2 = math.sqrt(2.0)


class Search:
    """`optimize_ratio` with a fixed budget over five (dims, tuple) kinds.

    Nearly all time goes to the per-candidate ratio evaluation on tiny
    tensors.  One operation in five sets refine=True, which takes the
    continuous path where an integer rank-1 update cannot apply.
    """

    name = "search"
    MIX = (
        ((2, 2), "1,2"),
        ((3, 3), "1,2"),
        ((4, 4), "4/3,4/3"),
        ((2, 2, 2), "2,2,1"),
        ((4, 4, 2), "2,2,1"),
    )
    BUDGET = 1000

    def __init__(self, mx, seed: int):
        self.mx = mx
        self.seed = seed
        self.exps = [mx.ExponentTuple.parse(e) for _, e in self.MIX]

    def round(self, k: int) -> list[dict]:
        """Five groups of one operation per kind; group j refines kind j,
        so every round holds each (kind, refine) pair once."""
        ops = []
        for j in range(len(self.MIX)):
            group = k * len(self.MIX) + j
            seeds = np.random.default_rng([self.seed, 1, group]).integers(0, 2 ** 31,
                                                                            size=len(self.MIX))
            ops += [{"dims": dims, "exps": exps, "seed": int(seed), "refine": i == j}
                    for i, ((dims, _), exps, seed) in enumerate(zip(self.MIX, self.exps, seeds))]
        return ops

    def kind(self, pos: int, op) -> int:
        """The (dims, tuple) kind; a refined operation costs about as much
        as a plain one, so both count towards the kind's fastest run."""
        return pos % len(self.MIX)

    def call(self, op):
        return self.mx.optimize_ratio(op["dims"], op["exps"], budget=self.BUDGET,
                                      seed=op["seed"], refine=op["refine"])

    def check(self, op, cert) -> list[str]:
        errors = []
        if not cert.sup_exact:
            errors.append("certificate sup is not exact")
        if tuple(cert.dims) != op["dims"] or cert.budget != self.BUDGET:
            errors.append(f"certificate echoes dims {cert.dims}, budget {cert.budget}")
        # (sqrt2)^(m-1) bounds the mixed Littlewood constants; Littlewood's
        # 4/3 constant is sqrt2 as well.
        m = len(op["dims"])
        if not 0.0 < cert.ratio <= SQRT2 ** (m - 1) * (1 + 1e-12):
            errors.append(f"ratio {cert.ratio} outside (0, sqrt2^{m - 1}]")
        if oracles.rel_diff(cert.ratio, cert.mixed / cert.sup) > 1e-15:
            errors.append("ratio is not mixed/sup")
        return errors

    def work(self, op, cert) -> int:
        return self.BUDGET

    def golden(self, cert):
        return cert.ratio

    def golden_index(self, k: int, pos: int) -> int:
        return k * len(self.MIX) ** 2 + pos


class Certify:
    """`certify` on random sign forms.

    Exact kinds have vertex grids of 2^16 to 2^22 over degrees 2 to 5;
    over-budget kinds take the heuristic ascent, and (30,30,30) a 27k-entry
    compensated nested norm.  Exact enumeration and the nested norm
    dominate; the heuristic kinds use `forms` differently, so an exact-path
    gain that slows the ascent shows.  The 2^22 grid sets the peak RSS.
    """

    name = "certify"
    MIX = (
        ((8, 8), "1,2"),
        ((10, 10), "4/3,4/3"),
        ((11, 11), "1,2"),
        ((7, 7, 7), "2,2,1"),
        ((5, 5, 5, 5), "8/5,8/5,8/5,8/5"),
        ((4, 4, 4, 4, 4), "2,2,2,2,1"),
        ((12, 12), "1,2"),
        ((64, 64), "4/3,4/3"),
        ((30, 30, 30), "2,2,1"),
    )

    def __init__(self, mx, seed: int):
        self.mx = mx
        self.seed = seed
        self.exps = [mx.ExponentTuple.parse(e) for _, e in self.MIX]

    def round(self, k: int) -> list[dict]:
        ops = []
        for pos, (dims, _) in enumerate(self.MIX):
            rng = np.random.default_rng([self.seed, 2, k, pos])
            coeffs = 2.0 * rng.integers(0, 2, size=dims).astype(float) - 1.0
            ops.append({"form": self.mx.MultilinearForm(coeffs), "exps": self.exps[pos]})
        return ops

    def call(self, op):
        return self.mx.certify(op["form"], op["exps"])

    def check(self, op, cert) -> list[str]:
        coeffs = op["form"].coeffs
        errors = []
        ref = oracles.closed_form_sup(coeffs)
        if cert.sup_exact:
            if ref is None or oracles.rel_diff(cert.sup, ref) > 1e-9:
                errors.append(f"exact sup {cert.sup} != closed form {ref}")
        else:
            bound = ref if ref is not None else float(np.abs(coeffs).sum())
            if not 0.0 < cert.sup <= bound * (1 + 1e-12):
                errors.append(f"heuristic sup {cert.sup} outside (0, {bound}]")
        mixed = oracles.nested_norm(coeffs, op["exps"].exponents)
        if oracles.rel_diff(cert.mixed, mixed) > 1e-12:
            errors.append(f"mixed norm {cert.mixed} != {mixed}")
        if oracles.rel_diff(cert.ratio, cert.mixed / cert.sup) > 1e-15:
            errors.append("ratio is not mixed/sup")
        return errors

    def work(self, op, cert) -> int:
        """Sign vertices of an exact sup, from the dims; 0 for heuristic."""
        return math.prod(2 ** d for d in op["form"].dims) if cert.sup_exact else 0


class Cotype:
    """`rademacher_average` on Gaussian families, n in {16, 18, 19, 20}.

    Isolates sign-pattern enumeration in `cotype`; it bypasses `forms` and
    `search`.  r lies on both sides of the branch point p0 ~ 1.8474.  The
    nine families are fixed per seed and repeat every round, so each is
    checked once against a half enumeration.
    """

    name = "cotype"
    MIX = (  # (n, d, r, s)
        (16, 4, 1.5, 1.5),
        (16, 8, 2.0, 1.0),
        (18, 2, 1.2, 2.0),
        (18, 8, 1.9, 1.9),
        (19, 4, 1.7, 1.0),
        (19, 2, 2.0, 2.0),
        (20, 4, 1.3, 1.3),
        (20, 8, 1.95, 2.0),
        (20, 2, 1.6, 1.0),
    )

    def __init__(self, mx, seed: int):
        self.mx = mx
        self.ops = []
        for pos, (n, d, r, s) in enumerate(self.MIX):
            vectors = np.random.default_rng([seed, 3, pos]).standard_normal((n, d))
            self.ops.append({"pos": pos, "vectors": vectors, "r": r, "s": s})
        self.reference = {}

    def round(self, k: int) -> list[dict]:
        return self.ops

    def call(self, op):
        return self.mx.rademacher_average(op["vectors"], op["r"], op["s"])

    def check(self, op, value) -> list[str]:
        pos = op["pos"]
        if pos not in self.reference:
            self.reference[pos] = oracles.rademacher_half(op["vectors"], op["r"], op["s"])
        ref = self.reference[pos]
        if oracles.rel_diff(value, ref) > 1e-12:
            return [f"rademacher average {value} != half enumeration {ref}"]
        return []

    def work(self, op, value) -> int:
        return 2 ** op["vectors"].shape[0]


class Cli:
    """The README commands through `cli.main([..., "--json"])` in-process.

    Without it the `cli` and `constants` layers go unmeasured.  Operations
    take milliseconds, so argument parsing, dispatch and JSON dominate.
    Search commands get small budgets to keep them command-sized.
    """

    name = "cli"

    def __init__(self, mx, seed: int):
        from mixnorms import cli

        self.cli = cli
        rng = np.random.default_rng([seed, 4])
        s_opt, s_growth = (int(x) for x in rng.integers(0, 2 ** 31, size=2))
        p, r_ratio, r_bounds = (repr(float(x)) for x in rng.uniform(1.0, 2.0, size=3))
        self.ops = [
            ["norm", "--form", "littlewood2"],
            ["mixed", "--form", "triple221", "--exps", "2,2,1"],
            ["certify", "--form", "triple221", "--exps", "2,2,1"],
            ["optimize", "--dims", "2,2", "--exps", "1,2", "--budget", "40", "--seed", str(s_opt)],
            ["growth", "--exps", "1,2", "--n-list", "2,3", "--trials", "2", "--budget", "20",
             "--seed", str(s_growth)],
            ["interpolate", "--tuples", "1,2,2;2,1,2;2,2,1",
             "--constants", "2,2,1.4142135623730951"],
            ["khinchin", "--p", p],
            ["p0", "--tol", "1e-8"],
            ["bh-bound", "--m", "3"],
            ["equiv-gap", "--m", "10"],
            ["cotype-ratio", "--vectors", "1,1;1,-1", "--r", r_ratio],
            ["cotype-bounds", "--r", r_bounds],
            ["equivalence-demo", "--form", "littlewood2", "--m", "3"],
        ]
        self.ops = [argv + ["--json"] for argv in self.ops]

    def round(self, k: int) -> list[list[str]]:
        return self.ops

    def call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)  # looked up per call, so tracing sees it
        return code, out.getvalue()

    def check(self, argv, result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"{argv[0]} exited with {code}"]
        doc = json.loads(text)
        return [f"{argv[0]}: {e}" for e in _cli_errors(argv, doc)]

    def work(self, argv, result) -> int:
        return 1

    def golden(self, result):
        return json.loads(result[1])

    def golden_index(self, k: int, pos: int) -> int:
        return pos  # every round repeats the same commands


def _close(a: float, b: float) -> bool:
    return oracles.rel_diff(a, b) <= 1e-12


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _cli_errors(argv: list[str], doc: dict) -> list[str]:
    """Compare one command's payload with the paper's closed forms."""
    cmd = argv[0]
    checks = []
    if cmd == "norm":
        checks.append(("sup 2, exact", _close(doc["value"], 2.0) and doc["exact"]))
    elif cmd == "mixed":
        checks.append(("4*sqrt2", _close(doc["value"], 4 * SQRT2)))
    elif cmd == "certify":
        checks.append(("ratio sqrt2, exact", _close(doc["ratio"], SQRT2) and doc["sup_exact"]))
    elif cmd == "optimize":
        checks.append(("0 < ratio <= sqrt2, exact",
                       0 < doc["ratio"] <= SQRT2 * (1 + 1e-12) and doc["sup_exact"]))
    elif cmd == "growth":
        ns = [int(n) for n in _arg(argv, "--n-list").split(",")]
        checks.append(("rows per n", [row["n"] for row in doc["rows"]] == ns))
        checks.append(("0 < ratio <= sqrt2",
                       all(0 < row["best_ratio"] <= SQRT2 * (1 + 1e-12) for row in doc["rows"])))
    elif cmd == "interpolate":
        checks.append(("2^(5/6)", _close(doc["constant_bound"], 2 ** (5 / 6))))
        checks.append(("BH exponent 3/2", doc["exponents"] == "1.5,1.5,1.5"))
    elif cmd == "khinchin":
        p = float(_arg(argv, "--p"))
        on_branch_point = abs(p - oracles.P0) < 1e-9  # either formula may apply
        checks.append(("A_p", on_branch_point or _close(doc["value"], oracles.khinchin(p))))
    elif cmd == "p0":
        checks.append(("p0", abs(doc["value"] - oracles.P0) <= float(_arg(argv, "--tol"))))
    elif cmd == "bh-bound":
        checks.append(("2^(3/4)", _close(doc["value"], 2 ** 0.75)))
    elif cmd == "equiv-gap":
        checks.append(("1.039 at m=10", round(doc["value"], 3) == 1.039))
    elif cmd == "cotype-ratio":
        r = float(_arg(argv, "--r"))
        checks.append(("2^(1/r-1/2)", _close(doc["ratio"], oracles.cotype_lower(r))))
    elif cmd == "cotype-bounds":
        r = float(_arg(argv, "--r"))
        lower = oracles.cotype_lower(r)
        checks.append(("lower 2^(1/r-1/2)", _close(doc["lower"], lower)))
        if r < oracles.P0 - 1e-9:
            checks.append(("sharp below p0", doc["sharp"] and _close(doc["upper"], lower)))
        elif r > oracles.P0 + 1e-9:
            checks.append(("upper >= lower above p0", not doc["sharp"] and doc["upper"] >= lower))
    elif cmd == "equivalence-demo":
        checks.append(("lifting identity", doc["holds"]
                       and _close(doc["mixed_lifted"], doc["mixed_base"])
                       and _close(doc["sup_lifted"], 2.0)))
    else:
        checks.append((f"no check for {cmd}", False))
    return [name for name, ok in checks if not ok]


WORKLOADS = {w.name: w for w in (Search, Certify, Cotype, Cli)}


def same(a, b, rel: float = 1e-12) -> bool:
    """Golden comparison: numbers within `rel`, everything else equal."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or oracles.rel_diff(a, b) <= rel
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y, rel) for x, y in zip(a, b))
    return a == b
