"""Command-line front end.

Every library operation is exposed as a subcommand; results print as
``key = value`` lines (floats at 12 significant digits) or, with
``--json``, as exactly one JSON document on standard output.  `main`
returns the exit code: 0 ok (``--help`` too), 1 domain error (bad file,
precondition violation; one ``error:`` line on stderr), 2 usage error
(argparse prints the usage and the problem on stderr).  The parser is
built once per process, on the first call of `main`, and parses every
command line after it.

Form arguments resolve built-in catalog names first (littlewood2,
triple221); an ``@`` prefix forces reading a JSON form file, and unknown
names fall back to file paths.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import constants, cotype, forms, mixed_norms, search
from .mixed_norms import ExponentTuple, RaggedBlockWarning, parse_number


def _resolve_form(name_or_path: str) -> forms.MultilinearForm:
    if name_or_path.startswith("@"):
        return forms.load_form(name_or_path[1:])
    if name_or_path in forms.CATALOG:
        return forms.CATALOG[name_or_path]()
    if os.path.exists(name_or_path):
        return forms.load_form(name_or_path)
    raise ValueError(
        f"unknown form {name_or_path!r}: not a catalog name "
        f"({', '.join(sorted(forms.CATALOG))}) and no such file"
    )


def _parse_vectors(text: str) -> list[list[float]]:
    try:
        return [[parse_number(x) for x in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise ValueError(f"bad vector list {text!r}: {exc}") from exc


def _parse_numbers(text: str) -> list[float]:
    return [parse_number(tok) for tok in text.split(",")]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


# Subcommand handlers map parsed arguments to payloads.  Payload keys follow
# the result dataclasses' field order, which is the text output's line order.

def _norm(args) -> dict:
    form = _resolve_form(args.form)
    payload = {"label": form.label, "dims": list(form.dims),
               **asdict(forms.sup_norm(form, budget=args.budget))}
    try:
        str(payload["evaluations"])
    except ValueError:  # an exact 2^sum(dims) past Python's int-to-str digit limit
        payload["evaluations"] = f"2^{sum(form.dims)}"
    return payload


def _mixed(args) -> dict:
    form = _resolve_form(args.form)
    exps = ExponentTuple.parse(args.exps)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = mixed_norms.mixed_norm(form, exps)
    ragged = any(issubclass(w.category, RaggedBlockWarning) for w in caught)
    return {"label": form.label, "exponents": str(exps), "value": value, "ragged": ragged}


def _optimize(args) -> dict:
    cert = search.optimize_ratio(
        _parse_ints(args.dims), ExponentTuple.parse(args.exps), budget=args.budget,
        seed=args.seed, restarts=args.restarts, refine=args.refine,
    )
    return cert.to_dict()


def _growth(args) -> dict:
    exps = ExponentTuple.parse(args.exps)
    rows = search.growth_witness(
        exps, _parse_ints(args.n_list), trials=args.trials,
        seed=args.seed, budget_per_n=args.budget,
    )
    return {"exponents": str(exps), "rows": [{"n": n, "best_ratio": r} for n, r in rows]}


def _interpolate(args) -> dict:
    tuples = [ExponentTuple.parse(tok) for tok in args.tuples.split(";")]
    consts = _parse_numbers(args.constants)
    if args.weights is None:
        weights = [1.0 / len(tuples)] * len(tuples)
    else:
        weights = _parse_numbers(args.weights)
    res = constants.interpolate(tuples, weights, consts)
    return {**asdict(res), "exponents": str(res.exponents), "weights": list(res.weights)}


def _p0(args) -> dict:
    value = constants.solve_p0(args.tol)
    residual = math.gamma((value + 1.0) / 2.0) - math.sqrt(math.pi) / 2.0
    return {"value": value, "residual": residual, "tol": args.tol}


def _cotype_ratio(args) -> dict:
    if args.instance is not None:
        inst = cotype.load_instance(args.instance.removeprefix("@"))
    elif args.vectors is not None and args.r is not None:
        s = args.s if args.s is not None else args.r
        inst = cotype.make_instance(_parse_vectors(args.vectors), args.r, s)
    else:
        raise ValueError("cotype-ratio needs --instance or both --vectors and --r")
    n, dimension = inst.vectors.shape
    return {"r": inst.r, "s": inst.s, "n": n, "dimension": dimension,
            "lhs": inst.lhs, "rhs": inst.rhs, "ratio": inst.ratio}


def _catalog(args) -> dict:
    os.makedirs(args.out, exist_ok=True)
    written = []
    for name, factory in sorted(forms.CATALOG.items()):
        path = os.path.join(args.out, f"{name}.json")
        forms.save_form(factory(), path)
        written.append(path)
    return {"files": written}


# name -> (help, handler, argument specs {flag: add_argument keywords});
# every subcommand also takes --json.
_COMMANDS = {
    "norm": ("sup norm of a form over the unit balls of c0", _norm, {
        "--form": dict(required=True),
        "--budget": dict(type=int, default=forms.DEFAULT_SUP_BUDGET,
                         help="exact if the exact kernel's work, 2^(sum(dims) - max(dims) - m + 1)"
                         " * max(dims), fits this or the form's size (evaluations then reports the"
                         " full 2^sum(dims) grid); else at most this many ascent evaluations")}),
    "mixed": ("nested mixed norm of a form", _mixed, {
        "--form": dict(required=True),
        "--exps": dict(required=True, help="'q1,q2,...' or 'n1:q1|n2:q2|...'")}),
    "certify": ("mixed/sup ratio certificate for a form",
                lambda a: search.certify(_resolve_form(a.form),
                                         ExponentTuple.parse(a.exps)).to_dict(), {
        "--form": dict(required=True),
        "--exps": dict(required=True)}),
    "optimize": ("hill-climb coefficient tensors for a large ratio", _optimize, {
        "--dims": dict(required=True, help="'d1,d2,...'"),
        "--exps": dict(required=True),
        "--budget": dict(type=int, default=10_000),
        "--seed": dict(type=int, default=0),
        "--restarts": dict(type=int, default=None),
        "--refine": dict(action="store_true")}),
    "growth": ("best ratios over growing support sizes", _growth, {
        "--exps": dict(required=True),
        "--n-list": dict(required=True, help="'2,3,4'"),
        "--trials": dict(type=int, default=8),
        "--seed": dict(type=int, default=0),
        "--budget": dict(type=int, default=20_000, help="evaluations per n")}),
    "interpolate": ("interpolate exponent tuples and constants", _interpolate, {
        "--tuples": dict(required=True, help="semicolon-separated, e.g. '1,2,2;2,1,2;2,2,1'"),
        "--weights": dict(default=None, help="'w1,w2,...' (default: equal)"),
        "--constants": dict(required=True, help="'c1,c2,...'")}),
    "khinchin": ("sharp real Khinchin constant A_p",
                 lambda a: asdict(constants.khinchin_A(a.p)), {
        "--p": dict(required=True, type=parse_number)}),
    "p0": ("branch point of the Khinchin constant formulas", _p0, {
        "--tol": dict(type=float, default=1e-10)}),
    "bh-bound": ("Khinchin-recursion upper bound for the degree-m constant",
                 lambda a: {"m": a.m, "value": constants.bh_upper_bound(a.m)}, {
        "--m": dict(required=True, type=int)}),
    "equiv-gap": ("multiplicative width of the degree-lifting sandwich",
                  lambda a: {"m": a.m, "value": constants.equivalence_gap(a.m)}, {
        "--m": dict(required=True, type=int)}),
    "cotype-ratio": ("exact cotype-2 ratio of a vector family in l_r", _cotype_ratio, {
        "--instance": dict(default=None, help="JSON instance file ('@' prefix optional)"),
        "--vectors": dict(default=None, help="'1,1;1,-1'"),
        "--r": dict(type=parse_number, default=None),
        "--s": dict(type=parse_number, default=None, help="default: r")}),
    "cotype-bounds": ("bounds for the cotype-2 constant of l_r",
                      lambda a: asdict(cotype.cotype_bounds(a.r)), {
        "--r": dict(required=True, type=parse_number)}),
    "catalog": ("write the built-in forms to JSON files", _catalog, {
        "--out": dict(default=".")}),
    "equivalence-demo": ("check the degree-lifting norm identity",
                         lambda a: asdict(search.equivalence_demo(_resolve_form(a.form), a.m)), {
        "--form": dict(required=True),
        "--m": dict(required=True, type=int)}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call only.

    Every call of `main` shares it, so no argument spec may have a mutable
    default or an accumulating action.  Help text reads the terminal width
    (``COLUMNS``) when it prints, not when the parser is built.
    """
    parser = argparse.ArgumentParser(prog="mixnorms", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        for flag, keywords in specs.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


def _format_value(value) -> str:
    if isinstance(value, bool) or not isinstance(value, float):
        return str(value)
    return f"{value:.12g}"


def _text(payload: dict) -> str:
    lines = []
    for key, value in payload.items():
        if key == "rows":
            lines += ["  ".join(f"{k}={_format_value(v)}" for k, v in row.items()) for row in value]
        elif isinstance(value, list):
            lines.append(f"{key} = {' '.join(_format_value(v) for v in value)}")
        else:
            lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Run one command line (default: sys.argv[1:]) and return its exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return exc.code
    try:
        # Overflows surface as a ValueError alone, with no numpy warning.
        with np.errstate(over="ignore"):
            payload = {"command": args.command, **args.handler(args)}
        text = json.dumps(payload, indent=2, sort_keys=True) if args.json else _text(payload)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
