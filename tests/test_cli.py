import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from mixnorms import cli, littlewood2, load_form, random_sign_form, save_form
from mixnorms.cli import main

SQRT2 = math.sqrt(2.0)


def _outcome(argv):
    """Exit code, stdout and stderr of `main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_ok(argv):
    """Payload of `main([*argv, "--json"])`, which must exit 0."""
    code, out, err = _outcome([*argv, "--json"])
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# subcommands through main(..., "--json")
# ---------------------------------------------------------------------------

def test_norm_littlewood2():
    payload = run_ok(["norm", "--form", "littlewood2"])
    assert payload["value"] == 2.0
    assert payload["exact"] is True
    assert payload["evaluations"] == 16


def test_mixed_triple221():
    payload = run_ok(["mixed", "--form", "triple221", "--exps", "2,2,1"])
    assert payload["value"] == pytest.approx(4.0 * SQRT2, abs=1e-12)
    assert payload["ragged"] is False


def test_certify_triple221():
    payload = run_ok(["certify", "--form", "triple221", "--exps", "2,2,1"])
    assert payload["ratio"] == pytest.approx(SQRT2, abs=1e-12)
    assert payload["sup_exact"] is True
    assert payload["version"]


def test_p0():
    payload = run_ok(["p0", "--tol", "1e-8"])
    assert 1.84741 <= payload["value"] <= 1.84743
    assert abs(payload["residual"]) <= 1e-8


def test_interpolate_trilinear():
    payload = run_ok([
        "interpolate",
        "--tuples", "1,2,2;2,1,2;2,2,1",
        "--constants", f"2,2,{SQRT2!r}",
    ])
    assert payload["constant_bound"] == pytest.approx(2.0 ** (5.0 / 6.0), abs=1e-12)
    assert payload["exponents"] == "1.5,1.5,1.5"


def test_interpolate_fraction_weights():
    payload = run_ok([
        "interpolate",
        "--tuples", "1,2;2,1",
        "--weights", "1/2,1/2",
        "--constants", f"{SQRT2!r},{SQRT2!r}",
    ])
    assert payload["constant_bound"] == pytest.approx(SQRT2, abs=1e-12)


def test_khinchin():
    payload = run_ok(["khinchin", "--p", "4/3"])
    assert payload["value"] == pytest.approx(2.0 ** -0.25, abs=1e-12)
    assert payload["regime"] == "flat"


def test_bh_bound_and_gap():
    assert run_ok(["bh-bound", "--m", "3"])["value"] == pytest.approx(2.0 ** 0.75, abs=1e-12)
    assert run_ok(["equiv-gap", "--m", "2"])["value"] == pytest.approx(SQRT2, abs=1e-12)


def test_cotype_ratio_inline_vectors():
    payload = run_ok(["cotype-ratio", "--vectors", "1,1;1,-1", "--r", "1"])
    assert payload["ratio"] == pytest.approx(SQRT2, abs=1e-12)
    assert payload["s"] == 1.0  # defaults to r


def test_cotype_ratio_ragged_vectors_is_domain_error(capsys):
    assert main(["cotype-ratio", "--vectors", "1,1;1", "--r", "1.5"]) == 1
    assert capsys.readouterr().err == (
        "error: vectors must share one dimension, got lengths [2, 1]\n")


def test_cotype_ratio_instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"r": 1.5, "s": 1.5, "vectors": [[1, 1], [1, -1]]}))
    payload = run_ok(["cotype-ratio", "--instance", f"@{path}"])
    assert payload["ratio"] == pytest.approx(2.0 ** (1.0 / 6.0), abs=1e-12)


def test_cotype_ratio_instance_strips_one_at(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "@inst.json").write_text(
        json.dumps({"r": 1.5, "s": 1.5, "vectors": [[1, 1], [1, -1]]}))
    payload = run_ok(["cotype-ratio", "--instance", "@@inst.json"])
    assert payload["ratio"] == pytest.approx(2.0 ** (1.0 / 6.0), abs=1e-12)


def test_cotype_bounds():
    payload = run_ok(["cotype-bounds", "--r", "1"])
    assert payload["lower"] == pytest.approx(SQRT2, abs=1e-12)
    assert payload["upper"] == pytest.approx(SQRT2, abs=1e-12)
    assert payload["sharp"] is True


def test_catalog_writes_loadable_files(tmp_path):
    payload = run_ok(["catalog", "--out", str(tmp_path)])
    assert len(payload["files"]) == 2
    for path in payload["files"]:
        form = load_form(path)
        assert form.label in ("littlewood2", "triple221")


def test_equivalence_demo_cli():
    payload = run_ok(["equivalence-demo", "--form", "littlewood2", "--m", "3"])
    assert payload["holds"] is True
    assert payload["mixed_lifted"] == pytest.approx(4.0 ** 0.75, abs=1e-12)


def test_optimize_cli_deterministic():
    args = ["optimize", "--dims", "2,2", "--exps", "1,2", "--budget", "500", "--seed", "1"]
    assert run_ok(args) == run_ok(args)


def test_growth_cli():
    payload = run_ok([
        "growth", "--exps", "1,2", "--n-list", "2,3", "--trials", "2", "--budget", "2000",
    ])
    assert [row["n"] for row in payload["rows"]] == [2, 3]
    for row in payload["rows"]:
        assert row["best_ratio"] <= SQRT2 + 1e-6


def test_form_file_resolution(tmp_path):
    run_ok(["catalog", "--out", str(tmp_path)])
    path = tmp_path / "littlewood2.json"
    by_at = run_ok(["norm", "--form", f"@{path}"])
    by_path = run_ok(["norm", "--form", str(path)])
    assert by_at["value"] == by_path["value"] == 2.0


# ---------------------------------------------------------------------------
# errors and exit codes
# ---------------------------------------------------------------------------

def test_unknown_form_is_domain_error(capsys):
    assert main(["norm", "--form", "nonexistent", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "nonexistent" in captured.err


def test_bad_exponent_token_is_domain_error(capsys):
    assert main(["mixed", "--form", "littlewood2", "--exps", "1,zap", "--json"]) == 1
    assert "zap" in capsys.readouterr().err


def test_malformed_form_file_is_domain_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["norm", "--form", f"@{path}", "--json"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("entry", [
    {"index": [1, 1]},
    {"value": 1.0},
    {"index": [1, 1], "value": "one"},
    {"index": [1, 1], "value": None},
    {"index": ["a", 1], "value": 1.0},
    [1, 1, 1.0],
    {"index": "11", "value": 1.0},
    {"index": [2.9, 1], "value": 1.0},
    {"index": [True, 1], "value": 1.0},
    {"index": [1, 1], "value": True},
    {"index": [1, 1], "value": "1.5"},
    {"index": [1, 1], "value": 10 ** 400},
])
def test_malformed_form_entry_is_domain_error(tmp_path, capsys, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"degree": 2, "dims": [2, 2], "entries": [entry]}))
    assert main(["norm", "--form", f"@{path}"]) == 1
    assert "error: form entry" in capsys.readouterr().err


def test_p0_nan_tolerance_is_domain_error(capsys):
    assert main(["p0", "--tol", "nan"]) == 1
    assert "error: tolerance must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mixed", "certify"])
def test_underflowing_mixed_norm_is_domain_error(tmp_path, command):
    # The true value is 2e-200: a norm of 0 would give certify a ratio of 0.
    path = tmp_path / "tiny.json"
    save_form(littlewood2().scaled(1e-200), path)
    assert _outcome([command, "--form", f"@{path}", "--exps", "2,2"]) == (
        1, "", "error: mixed norm under 2,2 underflows float64\n")


@pytest.mark.parametrize("argv", [
    ["optimize", "--dims", "2,2", "--exps", "1,2", "--restarts", "0"],
    ["optimize", "--dims", "2,2", "--exps", "1,2", "--restarts", "-3"],
    ["growth", "--exps", "1,2", "--n-list", "2", "--trials", "0"],
    ["bh-bound", "--m", "100001"],
    ["optimize", "--dims", "0,2", "--exps", "1,2"],
    ["growth", "--exps", "1,2", "--n-list", "0"],
    ["optimize", "--dims", "2,2", "--exps", "1,2", "--seed", "-1"],
    ["optimize", "--dims", "20000,30", "--exps", "1,2"],
    ["growth", "--exps", "1,2", "--n-list", "5000"],
])
def test_out_of_range_count_is_domain_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("argv", [
    ["mixed", "--form", "littlewood2", "--exps", "1/0,2"],
    ["certify", "--form", "littlewood2", "--exps", "1/0"],
    ["cotype-ratio", "--vectors", "1,1;1/0,1", "--r", "1.5"],
])
def test_zero_denominator_is_domain_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "zero denominator" in err


def test_zero_denominator_option_is_usage_error(capsys):
    assert main(["khinchin", "--p", "1/0"]) == 2
    err = capsys.readouterr().err
    assert main(["khinchin", "--p", "abc"]) == 2
    assert err.replace("1/0", "abc") == capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["cotype-ratio", "--vectors", "1,1;1,-1", "--r", "nan", "--json"], "need r >= 1"),
    (["cotype-ratio", "--vectors", "1,1;1,-1", "--r", "1.5", "--s", "nan"], "need s > 0"),
    (["interpolate", "--tuples", "1,2;2,1", "--constants", "1,nan"], "finite and positive"),
    (["interpolate", "--tuples", "1,2;2,1", "--constants", "1,1", "--weights", "nan,1"],
     "nonnegative"),
    (["mixed", "--form", "littlewood2", "--exps", "2000,1", "--json"], "overflows float64"),
    (["cotype-ratio", "--vectors", "1,1;1,-1", "--r", "inf", "--json"], "need r >= 1"),
    (["cotype-ratio", "--vectors", "1,1;1,-1", "--r", "1.5", "--s", "inf", "--json"],
     "need s > 0"),
    (["cotype-ratio", "--vectors", "1e200,1;1,1", "--r", "2", "--json"], "float64 range"),
    (["cotype-ratio", "--vectors", "1e-200,0;0,1e-200", "--r", "1.5", "--json"],
     "float64 range"),
    (["cotype-ratio", "--vectors", "1e-170,0;0,1e-170", "--r", "2", "--s", "4", "--json"],
     "float64 range"),
    (["p0", "--tol", "inf", "--json"], "tolerance must be finite"),  # "tol": Infinity is not JSON
])
def test_nan_or_overflow_is_domain_error(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_optimize_overflowing_tuple_is_rejected_up_front(capsys):
    # The all-ones start's norm overflows, and so does every climb's: one
    # error line, no RuntimeWarning.
    assert main(["optimize", "--dims", "2,2", "--exps", "2000,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mixed norm under 2000,1 overflows float64\n"


def test_optimize_refine_passes_over_overflowing_trial_points(capsys):
    # The polish tries entries up to 1.5, past the all-ones tensor whose
    # norm the search checks up front; under 1000,1 their norms overflow.
    argv = ["optimize", "--dims", "2,2", "--exps", "1000,1", "--budget", "2000"]
    assert main(argv + ["--refine"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "ratio = 1.00069338746" in captured.out


def test_certify_overflowing_tuple_prints_only_the_error_line(capsys):
    # mixed_norm's powers overflow; no numpy warning precedes the error
    assert main(["certify", "--form", "littlewood2", "--exps", "2000,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mixed norm under 2000,1 overflows float64\n"


@pytest.mark.parametrize("entries, flags", [
    # true sup 4e308: the sign sums overflow, inf - inf gave NaN and max dropped it
    ([([i, j, 2], 1e308) for i in (1, 2) for j in (1, 2)], []),
    # littlewood2 scaled by 1e308, on the exact and the ascent path
    ([([1, 1], 1e308), ([1, 2], 1e308), ([2, 1], 1e308), ([2, 2], -1e308)], ["--json"]),
    ([([1, 1], 1e308), ([1, 2], 1e308), ([2, 1], 1e308), ([2, 2], -1e308)],
     ["--budget", "1", "--json"]),
])
def test_form_whose_l1_norm_overflows_is_domain_error(tmp_path, capsys, entries, flags):
    path = tmp_path / "huge.json"
    dims = [2] * len(entries[0][0])
    path.write_text(json.dumps({"degree": len(dims), "dims": dims, "entries": [
        {"index": index, "value": value} for index, value in entries]}))
    assert main(["norm", "--form", f"@{path}", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("label", [{"x": 1}, 0])
def test_form_label_must_be_a_string(tmp_path, capsys, label):
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps({"degree": 2, "dims": [2, 2], "label": label,
                                "entries": [{"index": [1, 1], "value": 1.0}]}))
    assert main(["certify", "--form", f"@{path}", "--exps", "1,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: form label must be a string")


def test_norm_huge_budget_stays_exact(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_form(random_sign_form((20, 20), 0), path)
    assert main(["norm", "--form", f"@{path}", "--budget", str(2 ** 40), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] is True
    assert doc["evaluations"] == 2 ** 40
    assert doc["value"] == 126.0  # checked by a chunked enumeration in test_forms


def test_unprintable_evaluations_print_as_a_power_of_two(tmp_path, capsys):
    # An exact degree-1 sup over 20,000 coefficients reports 2^20000
    # evaluations, past Python's 4,300-digit integer conversion limit.
    path = tmp_path / "long.json"
    path.write_text(json.dumps(
        {"degree": 1, "dims": [20000], "entries": [{"index": [1], "value": 3.0}]}))
    assert main(["norm", "--form", f"@{path}"]) == 0
    assert "evaluations = 2^20000\n" in capsys.readouterr().out
    assert run_ok(["norm", "--form", f"@{path}"])["evaluations"] == "2^20000"


def test_certify_form_file_exact_past_the_grid(tmp_path):
    # 2^24 vertices, but the exact kernel needs only 2^11 patterns of 12 terms.
    path = tmp_path / "sign12.json"
    save_form(random_sign_form((12, 12), 0), path)
    payload = run_ok(["certify", "--form", f"@{path}", "--exps", "1,2"])
    assert payload["sup_exact"] is True
    assert payload["sup"] == 64.0


@pytest.mark.parametrize("argv", [
    ["norm", "--frobnicate"],
    ["norm", "--form", "littlewood2", "--frobnicate"],
    ["no-such-command"],
    [],
])
def test_usage_error_exits_2_with_argparse_usage(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: mixnorms")
    assert "error: " in captured.err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["norm", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: mixnorms") and captured.err == ""


def test_main_exit_codes(tmp_path, capsys):
    assert main(["norm", "--form", "littlewood2"]) == 0
    capsys.readouterr()
    assert main(["norm", "--form", "nonexistent"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["norm", "--frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


#: Valid options for each subcommand.  Every argv built from them below
#: fails in the parser, so no handler runs (catalog writes nothing).
VALID = {
    "norm": ["--form", "littlewood2"],
    "mixed": ["--form", "triple221", "--exps", "2,2,1"],
    "certify": ["--form", "triple221", "--exps", "2,2,1"],
    "optimize": ["--dims", "2,2", "--exps", "1,2"],
    "growth": ["--exps", "1,2", "--n-list", "2,3"],
    "interpolate": ["--tuples", "1,2;2,1", "--constants", "2,2"],
    "khinchin": ["--p", "4/3"],
    "p0": ["--tol", "1e-8"],
    "bh-bound": ["--m", "3"],
    "equiv-gap": ["--m", "100"],
    "cotype-ratio": ["--vectors", "1,1;1,-1", "--r", "1"],
    "cotype-bounds": ["--r", "1.5"],
    "catalog": ["--out", "forms"],
    "equivalence-demo": ["--form", "littlewood2", "--m", "3"],
}


def _parse_failures(name):
    """Help, an unknown option, an extra argument and, where the subcommand
    has one, a missing required option."""
    cases = [[name, "--help"], [name, "--frobnicate"], [name, *VALID[name], "extra"]]
    if any(spec.get("required") for spec in cli._COMMANDS[name][2].values()):
        cases.append([name, *VALID[name][2:]])  # its first option left out
    return cases


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "norm"], ["no-such-command"],
    *(argv for name in VALID for argv in _parse_failures(name)),
])
def test_the_cached_parser_prints_the_same_after_another_command(argv):
    first = _outcome(argv)
    assert _outcome(["bh-bound", "--m", "3", "--json"])[0] == 0
    assert _outcome(argv) == first
    assert first[0] == (0 if "--help" in argv or "-h" in argv else 2)
    if not argv:
        assert first[2].endswith("error: the following arguments are required: command\n")


def test_main_builds_the_parser_once(monkeypatch):
    assert list(VALID) == list(cli._COMMANDS)
    inits = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: inits.append(self) or init(self, *a, **k))
    cli._build_parser.cache_clear()
    for argv in (["bh-bound", "--m", "3"], ["norm", "--frobnicate"], ["--help"],
                 ["khinchin", "--help"], ["no-such-command"], ["p0", "--json"]):
        _outcome(argv)
    assert len(inits) == 1 + len(cli._COMMANDS)  # the top-level parser and one per subcommand


def test_help_wraps_to_the_columns_at_print_time(monkeypatch):
    widest = {}
    for columns in (60, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        code, out, _ = _outcome(["norm", "--help"])
        assert code == 0
        widest[columns] = max(len(line) for line in out.splitlines())
    assert widest[60] <= 60 < widest[200] <= 200


def test_cached_parser_defaults_are_immutable():
    for _, _, specs in cli._COMMANDS.values():
        for flag, keywords in specs.items():
            assert isinstance(keywords.get("default"), (type(None), bool, int, float, str)), flag
            assert keywords.get("action") not in ("append", "append_const", "extend"), flag


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mixnorms", "khinchin", "--p", "2", "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def test_json_output_single_document_roundtrips(capsys):
    assert main(["certify", "--form", "littlewood2", "--exps", "1,2", "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)  # exactly one JSON document
    assert doc["ratio"] == pytest.approx(SQRT2, abs=1e-12)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out


def test_text_output_twelve_significant_digits(capsys):
    assert main(["certify", "--form", "triple221", "--exps", "2,2,1"]) == 0
    out = capsys.readouterr().out
    assert "ratio = 1.41421356237" in out


def _src_env() -> dict:
    """The environment with the package's source tree first on PYTHONPATH."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{rest}" if rest else src}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mixnorms.cli", "khinchin", "--p", "2", "--json"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(1.0, abs=1e-12)


def test_seeded_commands_bit_reproducible():
    args = [sys.executable, "-m", "mixnorms.cli", "optimize", "--dims", "2,2",
            "--exps", "1,2", "--budget", "300", "--seed", "7", "--json"]
    first = subprocess.run(args, capture_output=True, text=True, env=_src_env())
    second = subprocess.run(args, capture_output=True, text=True, env=_src_env())
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
