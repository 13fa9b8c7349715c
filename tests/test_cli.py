"""CLI layer: argument handling, stream separation, exit codes, determinism."""

import argparse
import hashlib
import itertools
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import mpmath
import pytest

from collisionlab import __version__, bounds, cli, lemma, sieve
from collisionlab.certificate import CertificateConfig
from collisionlab.cli import main
from collisionlab.intervals import HOLDS, Comparison, IntervalValue, Verdict
from collisionlab.lemma import GridConfig


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing and global behavior

def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--max-valu", "100"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("collisionlab ")


def test_module_entry_point_prints_version():
    src_dir = os.path.dirname(os.path.dirname(sieve.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "collisionlab", "--version"], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0
    assert done.stdout == f"collisionlab {__version__}\n"


# one run of every subcommand whose stdout is one JSON document with a config
JSON_DOC_CASES = [
    ["param", "--x", "15", "--a", "5", "--y", "14", "--b", "6"],
    ["bounds", "pi-upper", "--x", "1742310", "--precise"],
    ["bounds", "stirling", "--nu", "100"],
    ["bounds", "thresholds", "--n", "1000000000", "--c", "0.68"],
    ["lemma", "check21", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1"],
    ["lemma", "check22", "--n", "500000", "--k", "588"],
    ["lemma", "check23", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1"],
    ["lemma", "check31", "--delta", "1", "--n", "51", "--m", "11", "--k", "12", "--l", "2",
     "--pi-mode", "dusart"],
    ["lemma", "threshold32"],
    ["lemma", "nmax31", "--k-max", "700", "--dense-until", "700"],
    ["lemma", "section4", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1"],
    ["lemma", "section5", "--n", "1000000000", "--c", "0.68"],
    ["sieve", "pi", "--x", "1000"],
]

# flags that choose where output goes or the worker count, never its content
_NOT_CONFIG = {"out", "threads", "workers"}


def _refuse_constant(name):
    raise ValueError(f"the echo is not strict JSON: it holds {name}")


def test_stderr_carries_config_echo(capsys):
    for argv in JSON_DOC_CASES:
        code, out, err = run_cli(capsys, argv)
        assert code in (0, 1), argv
        subcommand = " ".join(itertools.takewhile(lambda a: not a.startswith("--"), argv))
        assert err.startswith(f"collisionlab {__version__} {subcommand} {{"), argv
        assert err.count("\n") == 1, argv
        echo = json.loads(err[err.index("{"):], parse_constant=_refuse_constant)
        config = json.loads(out)["config"]  # stdout is pure data
        assert {key: echo[key] for key in config} == config, argv
        assert set(echo) - set(config) <= _NOT_CONFIG, argv


def _readme_examples():
    """(argv, printed output) of each `$ collisionlab` example in README.md's code blocks."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    examples = []
    for block in readme.read_text().split("```")[1::2]:
        for chunk in re.split(r"^\$ ", block, flags=re.MULTILINE)[1:]:
            command, _, printed = chunk.partition("\n")
            examples.append((shlex.split(command)[1:], printed.rstrip("\n")))
    return examples


def test_readme_examples_replay(capsys):
    replayed = []
    for argv, printed in _readme_examples():
        if not printed or "..." in printed:
            continue  # an example with its output left out or elided
        main(argv)
        assert capsys.readouterr().out == printed + "\n", argv
        replayed.append(argv[1] if argv[0] == "lemma" else argv[0])
    assert replayed == ["search", "fib-family", "param", "check21", "check22"]


# ---------------------------------------------------------------------------
# collision commands

def test_search_golden_small(capsys):
    code, out, err = run_cli(capsys, ["search", "--max-value", "200"])
    assert code == 0
    assert out == '{"N":"120","reps":[[16,2],[10,3]]}\n'


def test_search_out_file(capsys, tmp_path):
    path = tmp_path / "records.jsonl"
    code, out, err = run_cli(capsys, ["search", "--max-value", "2000", "--out", str(path)])
    assert code == 0
    assert out == ""
    lines = path.read_text().splitlines()
    assert [json.loads(l)["N"] for l in lines] == ["120", "210", "1540"]


def test_fib_family_members(capsys):
    code, out, err = run_cli(capsys, ["fib-family", "--count", "3"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3
    assert all(r["verified"] for r in rows)
    assert (rows[1]["x"], rows[1]["a"], rows[1]["y"], rows[1]["b"]) == (15, 5, 14, 6)


def test_fib_family_count_capped(capsys):
    code, out, err = run_cli(capsys, ["fib-family", "--count", "8"])
    assert code == 3
    assert "collisionlab: error:" in err
    code, out, err = run_cli(capsys, ["fib-family", "--count", "0"])
    assert code == 3


def test_param_known_pair(capsys):
    code, out, err = run_cli(
        capsys, ["param", "--x", "15", "--a", "5", "--y", "14", "--b", "6"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tuple"] == {"delta": 0, "n": 7, "m": 1, "k": 2, "l": 1}
    assert doc["k0"] == 5 and doc["m0"] == 1
    assert doc["eq12"] is True


def test_param_rejects_bad_order(capsys):
    code, out, err = run_cli(
        capsys, ["param", "--x", "14", "--a", "6", "--y", "15", "--b", "5"]
    )
    assert code == 3


# ---------------------------------------------------------------------------
# bounds commands

def test_bounds_pi_upper(capsys):
    code, out, err = run_cli(capsys, ["bounds", "pi-upper", "--x", "1742310"])
    assert code == 0
    doc = json.loads(out)
    assert 131100 < doc["lo"] <= doc["hi"] < 131200


def test_bounds_stirling(capsys):
    code, out, err = run_cli(capsys, ["bounds", "stirling", "--nu", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["log_g_lower"][1] < math.log(120) < doc["log_g_upper"][0]
    assert list(doc) == ["version", "config", "log_g_lower", "log_g_upper"]


def _encloses(pair, value):
    lo, hi = (mpmath.mpf(v) for v in pair)
    return lo <= value <= hi


def test_bounds_pi_upper_precise_encloses_mpmath(capsys):
    code, out, err = run_cli(capsys, ["bounds", "pi-upper", "--x", "1742310", "--precise"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {"x": "1742310", "precise": True}
    with mpmath.workdps(80):
        x = mpmath.mpf(1742310)
        el = mpmath.log(x)
        expected = x / el * (1 + 1 / el + 2 / el**2 + mpmath.mpf("7.59") / el**3)
        assert _encloses((doc["lo"], doc["hi"]), expected)


def test_bounds_pi_upper_takes_x_as_typed(capsys):
    # the decimal exceeds 1 though its binary64 rounding is 1
    code, out, err = run_cli(capsys, ["bounds", "pi-upper", "--x", "1.00000000000000000001", "--precise"])
    assert code == 0
    doc = json.loads(out)
    assert _encloses((doc["lo"], doc["hi"]), mpmath.mpf("7.5900000000000000002477e80"))
    for x in ("1", "0.99999999999999999999"):
        code, out, err = run_cli(capsys, ["bounds", "pi-upper", "--x", x, "--precise"])
        assert (code, out) == (3, "")
        assert f"x must exceed 1, got {x}" in err


def test_bounds_stirling_precise_encloses_mpmath(capsys):
    code, out, err = run_cli(capsys, ["bounds", "stirling", "--nu", "100", "--precise"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {"nu": 100, "precise": True}
    with mpmath.workdps(80):
        nu = mpmath.mpf(100)
        head = nu * mpmath.log(nu) - nu + mpmath.log(2 * mpmath.pi * nu) / 2
        assert _encloses(doc["log_g_lower"], head + 1 / (12 * (nu + 1)))
        assert _encloses(doc["log_g_upper"], head + 1 / (12 * nu))
        assert doc["log_g_lower"][1] < mpmath.log(mpmath.factorial(100)) < doc["log_g_upper"][0]


def test_bounds_thresholds(capsys):
    code, out, err = run_cli(
        capsys, ["bounds", "thresholds", "--n", "1000000000", "--c", "0.68"]
    )
    assert code == 0
    doc = json.loads(out)
    assert round(doc["c_star"], 5) == 0.68943
    assert list(doc) == ["version", "config", "t_pow", "c_star"]
    with mpmath.workdps(60):
        assert _encloses(doc["t_pow"], (mpmath.mpf(0.68) * 10**9 / mpmath.log(10**9)) ** (mpmath.mpf(40) / 21))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "thresholds", "--n", "1000000", "--c", "1e308"], "t_pow lies beyond binary64"),
        (["bounds", "thresholds", "--n", str(10**170), "--c", "0.5"], "t_pow lies beyond binary64"),
        (["lemma", "section5", "--n", str(10**170), "--c", "0.5"], "t_pow lies beyond binary64"),
        (["bounds", "pi-upper", "--x", "1e400"], "lies beyond binary64's range"),
        (["bounds", "pi-upper", "--x", "1e400", "--precise"], "lies beyond binary64's range"),
        (["bounds", "stirling", "--nu", str(10**400)], "lies beyond binary64's range"),
    ],
    ids=[
        "t_pow-overflows", "t_pow-overflows-at-huge-n", "section5-t_pow-overflows",
        "pi-upper-x-past-binary64", "pi-upper-precise-x-past-binary64", "stirling-nu-past-binary64",
    ],
)
def test_non_finite_results_exit_3_with_empty_stdout(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert message in err


def test_echo_refuses_a_non_finite_value(capsys):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._echo(argparse.Namespace(subcommand="bounds"), {"c": math.nan})
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n", [10**9, 10**170], ids=["n-1e9", "n-1e170"])
@pytest.mark.parametrize("c", ["0.68943", "0.9"])
def test_lemma_section5_refuses_c_at_or_above_c_star_before_evaluating(capsys, monkeypatch, n, c):
    # c is tested against the constant c* first, so a t_pow past binary64
    # (as 0.9 at n = 10^170 gives) cannot hide the refusal, and nothing is evaluated
    def evaluated(*args):
        raise AssertionError("section5 evaluated l0 for a c it refuses")

    monkeypatch.setattr(lemma, "section5_thresholds", evaluated)
    code, out, err = run_cli(capsys, ["lemma", "section5", "--n", str(n), "--c", c])
    assert (code, out) == (3, "")
    assert f"c must be below 0.68943, got {float(c)}" in err


@pytest.mark.parametrize(
    "command", [["bounds", "thresholds"], ["lemma", "section5"]], ids=["thresholds", "section5"]
)
@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_non_finite_c_is_a_usage_error_without_echo(capsys, command, c):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--n", "1000000", f"--c={c}"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"argument --c: must be a finite number, got '{c}'" in err
    assert f"collisionlab {__version__}" not in err  # no config echo


# ---------------------------------------------------------------------------
# lemma commands

TUPLE_FLAGS = ["--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1"]


def test_lemma_check21_json(capsys):
    code, out, err = run_cli(capsys, ["lemma", "check21"] + TUPLE_FLAGS)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["version", "config", "report"]
    assert doc["report"]["verdict"]["state"] == "HOLDS"


def test_lemma_check22_exit_codes(capsys):
    code, out, err = run_cli(capsys, ["lemma", "check22", "--n", "500000", "--k", "587"])
    assert code == 0
    code, out, err = run_cli(capsys, ["lemma", "check22", "--n", "500000", "--k", "588"])
    assert code == 1
    assert '"verdict":{"state":"FAILS","margin":0.0011984953303110224}' in out


@pytest.mark.parametrize(
    "argv",
    [["check21"] + TUPLE_FLAGS, ["check22", "--n", "500000", "--k", "587"], ["check23"] + TUPLE_FLAGS,
     ["check31"] + TUPLE_FLAGS, ["section4"] + TUPLE_FLAGS, ["section5", "--n", "1000000000", "--c", "0.68"]],
    ids=["check21", "check22", "check23", "check31", "section4", "section5"],
)
def test_lemma_reports_take_no_json_flag(capsys, argv):
    # a lemma report is always one JSON document, so --json is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["lemma"] + argv + ["--json"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments: --json" in err


def test_lemma_check22_decides_where_binary64_cannot_divide(capsys):
    # log(2.001/(1.001 + k/n)) encloses zero in binary64; mpmath gives about 2.001e48
    argv = ["lemma", "check22", "--n", str(10**16), "--k", str(10**16 - 1)]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    report = json.loads(out)["report"]
    assert report["verdict"] == {"state": "FAILS", "margin": 2.0009999999999993e+48}
    assert report["notes"] == ""


def test_lemma_check22_decides_where_binary64_overflows(capsys):
    # k*k = 10^320 is past binary64's range; mpmath gives about 1.4437e120
    argv = ["lemma", "check22", "--n", str(10**200), "--k", str(10**160)]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    report = json.loads(out)["report"]
    assert report["verdict"] == {"state": "FAILS", "margin": 1.4437356955837928e+120}
    assert report["notes"] == ""


def test_lemma_check22_reports_an_lhs_past_binary64(capsys):
    # the lhs is about 1.9e398: mpmath decides, and binary64 has no enclosure
    argv = ["lemma", "check22", "--n", str(10**400), "--k", str(10**399)]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    report = json.loads(out)["report"]
    # the gap is past binary64 too: the margin reads as the largest double
    [comparison] = report["comparisons"]
    assert (report["verdict"], comparison["lhs"]) == ({"state": "FAILS", "margin": 1.7976931348623157e+308}, None)
    assert comparison["rhs"][0] <= 1 <= comparison["rhs"][1]


def test_lemma_check22_names_a_side_the_escalation_cannot_bound(capsys):
    # log(2.001/(1.001 + k/n)) is about 5e-201, which 55 digits cannot tell
    # from zero: the quotient's enclosure is unbounded, and stderr says why
    argv = ["lemma", "check22", "--n", str(10**200), "--k", str(10**200 - 1)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert "escalation at PRECISE_DIGITS = 55 could not bound a side" in err
    assert "a divisor it cannot separate from zero" in err


def test_lemma_check23(capsys):
    code, out, err = run_cli(capsys, ["lemma", "check23"] + TUPLE_FLAGS)
    assert code == 0
    assert "5-smooth" in out


def test_lemma_check31_modes(capsys):
    code, out, err = run_cli(capsys, ["lemma", "check31"] + TUPLE_FLAGS)
    assert code == 0
    assert "pi(5) = 3 exact" in out
    code, out, err = run_cli(capsys, ["lemma", "check31"] + TUPLE_FLAGS + ["--pi-mode", "dusart"])
    assert code == 0
    assert json.loads(out)["report"]["verdict"]["state"] == "HOLDS"


def test_lemma_threshold32(capsys):
    code, out, err = run_cli(capsys, ["lemma", "threshold32"])
    assert code == 0
    doc = json.loads(out)
    assert doc["f_star"] == 871155
    assert doc["value_at"][0] >= 0 > doc["value_next"][1]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--qmax", "30000000", "--segment-size", "131072"],
        ["sieve", "gaps", "--lo", "2", "--hi", "1000000", "--min-gap", "80", "--segment-size", "65536"],
        ["lemma", "threshold32", "--lo", "10000"],
    ],
    ids=["certify-segment-size", "sieve-gaps-segment-size", "threshold32-lo"],
)
def test_settings_that_cannot_change_a_result_are_no_flags(capsys, argv):
    # the segment size and the threshold32 bracket are constants
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_lemma_nmax31_small_grid(capsys):
    code, out, err = run_cli(capsys, ["lemma", "nmax31", "--k-max", "700", "--dense-until", "700"])
    assert code == 0
    doc = json.loads(out)
    assert doc["argmax_k"] == 588
    assert doc["claimed_bound"] == 31754673611


def test_lemma_nmax31_defaults_are_the_grid_defaults(capsys):
    code, out, err = run_cli(capsys, ["lemma", "nmax31", "--k-max", "700", "--dense-until", "700"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {"k_max": 700, "dense_until": 700, "pi_mode": GridConfig().pi_mode}
    assert doc["config"] == {"k_max": 700, "dense_until": 700, "pi_mode": "dusart"}
    assert list(doc) == [
        "version", "config", "n_max", "log_n_max", "argmax_k", "argmax_l",
        "points", "skipped", "claimed_bound",
    ]
    assert (doc["points"], doc["skipped"]) == (113, 0)
    assert '"workers"' not in err


@pytest.mark.parametrize("flag", ["--k-min", "--growth", "--l-samples"])
def test_lemma_nmax31_grid_constants_are_no_flags(capsys, flag):
    # the grid starts at K_MIN, the paper's k >= 588; growth and l sample count are constants
    with pytest.raises(SystemExit) as exc:
        main(["lemma", "nmax31", "--k-max", "700", "--dense-until", "700", flag, "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flags",
    [["--k-max", "587"],
     ["--k-max", "800", "--dense-until", "587"]],
    ids=["k-max-below-k-min", "dense-until-below-k-min"],
)
def test_lemma_nmax31_refuses_grids_that_leave_their_range(capsys, flags):
    code, out, err = run_cli(capsys, ["lemma", "nmax31"] + flags)
    assert code == 3
    assert out == ""
    assert "GridConfig" in err
    assert "must be >= K_MIN = 588, got 587" in err


def test_lemma_check23_zero_binomials_are_not_a_collision(capsys):
    argv = ["lemma", "check23", "--delta", "0", "--n", "1", "--m", "-5", "--k", "-4", "--l", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["hypotheses"] == {"eq12": False}
    assert report["verdict"] == {"state": "INDETERMINATE", "margin": 0.0}


@pytest.mark.parametrize(
    "flags, missing",
    [(["--k", "588"], "--delta, --n, --m, --l"),
     (["--k", "588", "--n", "100"], "--delta, --m, --l"),
     (["--delta", "0", "--n", "7", "--m", "1", "--k", "2"], "--l")],
    ids=["k-alone", "k-and-n", "four-of-five"],
)
def test_lemma_section4_takes_the_full_tuple_only(capsys, flags, missing):
    # section4 decides one tuple, like check21, check23 and check31
    with pytest.raises(SystemExit) as exc:
        main(["lemma", "section4"] + flags)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"the following arguments are required: {missing}" in err
    assert f"collisionlab {__version__}" not in err  # no config echo


def test_lemma_section4_full_tuple(capsys):
    argv = ["lemma", "section4", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert '{"delta":0,"k":2,"l":1,"m":1,"n":7}' in err
    doc = json.loads(out)
    assert list(doc) == ["version", "config", "report"]
    assert doc["config"] == {"delta": 0, "n": 7, "m": 1, "k": 2, "l": 1}
    assert doc["report"]["lemma"] == "section4"
    assert [name for name, ok in doc["report"]["hypotheses"].items() if not ok] == ["l_small", "scale"]
    assert doc["report"]["notes"] == ""
    # gated: neither side evaluated
    assert '"comparisons":[],"verdict":{"state":"INDETERMINATE","margin":0.0}' in out


def test_lemma_section4_full_tuple_at_huge_n(capsys, monkeypatch):
    # a tuple at n = 10**12 that meets every hypothesis is decided without a
    # table of the primes <= n, which could not be built, and its verdict
    # alone says so
    def refuse(*args):
        raise AssertionError("section4 built a prime table")

    monkeypatch.setattr(sieve, "prime_list", refuse)
    monkeypatch.setattr(sieve, "base_primes", refuse)
    argv = ["lemma", "section4", "--delta", "0", "--n", str(10**12), "--m", "44100000", "--k", "60000000", "--l", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    report = json.loads(out)["report"]
    assert all(report["hypotheses"].values())
    assert (report["verdict"]["state"], report["notes"]) == ("FAILS", "")


def test_lemma_section5(capsys):
    code, out, err = run_cli(capsys, ["lemma", "section5", "--n", "1000000000", "--c", "0.68"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["version", "config", "report"]
    report = doc["report"]
    # a LemmaReport, as every checker prints, with n and the enclosure of l0
    assert list(report) == ["lemma", "hypotheses", "comparisons", "verdict", "notes", "n", "t_pow"]
    assert (report["lemma"], report["hypotheses"], report["notes"], report["n"]) == ("section5", {}, "", 10**9)
    [comparison] = report["comparisons"]
    assert comparison["verdict"] == report["verdict"]
    assert report["verdict"]["state"] == "HOLDS" and report["verdict"]["margin"] > 0
    assert report["t_pow"] == cli._out(bounds.section5_thresholds(10**9, 0.68))
    with pytest.raises(SystemExit) as exc:
        main(["lemma", "section5", "--n", "1000000000", "--c", "abc"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "argument --c: invalid float value: 'abc'" in err


# ---------------------------------------------------------------------------
# stdout prints exact or enclosed numbers

# the keys whose float is no enclosure endpoint: a certified margin (rounded
# toward zero), the exact constant c_star, the echoed input c, and nmax31's
# grid maximum, which the sampled grid does not certify
_BARE_FLOAT_KEYS = {"margin", "c_star", "c", "n_max", "log_n_max"}


def _is_enclosure(lo, hi):
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (lo, hi))
    return numbers and lo <= hi


def _bare_floats(value, key=None):
    """The keys of the floats in a JSON value that are neither an enclosure's endpoint nor allowed bare."""
    if isinstance(value, float):
        return [] if key in _BARE_FLOAT_KEYS else [key]
    if isinstance(value, list):
        if len(value) == 2 and _is_enclosure(*value):
            return []
        return [bad for item in value for bad in _bare_floats(item, key)]
    if isinstance(value, dict):
        pair = ("lo", "hi") if "lo" in value and "hi" in value and _is_enclosure(value["lo"], value["hi"]) else ()
        return [bad for k, v in value.items() if k not in pair for bad in _bare_floats(v, k)]
    return []


def test_out_writes_a_tuple_as_a_list_of_out_values():
    point = IntervalValue.of(1)
    comparison = Comparison(point, None, Verdict(HOLDS, 0.5))
    assert cli._out((comparison, point, 3)) == [
        {"lhs": [1.0, 1.0], "rhs": None, "verdict": {"state": "HOLDS", "margin": 0.5}}, [1.0, 1.0], 3,
    ]
    assert cli._out(()) == []


def test_bare_floats_finds_only_unenclosed_values():
    assert _bare_floats({"t_pow": [1.5, 2.5], "lo": 1.0, "hi": 2.0, "margin": 0.1, "config": {"c": 0.5}}) == []
    assert _bare_floats({"t_pow": 1.5, "t_log2": [2.5, 1.5], "f": [0.5]}) == ["t_pow", "t_log2", "t_log2", "f"]


def test_json_stdout_holds_only_exact_or_enclosed_numbers(capsys):
    from test_acceptance import CRITERION_13_CASES, CRITERION_13_PINNED

    cases = {tuple(argv): argv for argv in CRITERION_13_CASES + [argv for argv, _, _ in CRITERION_13_PINNED]}
    for argv in cases.values():
        code, out, err = run_cli(capsys, argv)
        assert out, argv
        for line in out.splitlines():
            assert _bare_floats(json.loads(line)) == [], argv


# a criterion-13 case of each lemma report, with the checker whose report it prints
_REPORT_CASES = [
    (["lemma", "check21"] + TUPLE_FLAGS, "check_lemma21"),
    (["lemma", "check22", "--n", "500000", "--k", "587"], "check_lemma22"),
    (["lemma", "check23"] + TUPLE_FLAGS, "check_lemma23_smooth"),
    (["lemma", "check31", "--delta", "1", "--n", "51", "--m", "11", "--k", "12", "--l", "2"], "check_lemma31"),
    (["lemma", "section4"] + TUPLE_FLAGS, "section4_check"),
    (["lemma", "section5", "--n", "1000000000", "--c", "0.68"], "section5_check"),
]


@pytest.mark.parametrize("argv, checker", _REPORT_CASES, ids=[argv[1] for argv, _ in _REPORT_CASES])
def test_text_margins_parse_back_exactly(capsys, monkeypatch, argv, checker):
    # the digits of every margin and enclosure end on stdout read back as the
    # float it reports: the verdict's as the report's, and each printed
    # comparison's as one certified_less return's, in call order
    reports, returns = [], []
    plain_check, plain_less = getattr(lemma, checker), lemma.certified_less

    def check(*args, **kwargs):
        reports.append(plain_check(*args, **kwargs))
        return reports[-1]

    def less(*args, **kwargs):
        returns.append(plain_less(*args, **kwargs))
        return returns[-1]

    monkeypatch.setattr(lemma, checker, check)
    monkeypatch.setattr(lemma, "certified_less", less)
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)["report"]
    verdict = reports[0].verdict
    assert report["verdict"] == {"state": verdict.state, "margin": verdict.margin}
    printed = report["comparisons"]
    # check21 decides two inequalities, the gated section4 case none
    assert len(printed) == len(returns) == {"check_lemma21": 2, "section4_check": 0}.get(checker, 1)
    for comparison, decided in zip(printed, returns):
        assert {key: comparison[key] for key in ("lhs", "rhs", "verdict")} == cli._out(decided)


def test_dusart_note_prints_the_upper_end_exactly(capsys):
    argv = ["lemma", "check31", "--delta", "1", "--n", "51", "--m", "11", "--k", "12", "--l", "2", "--pi-mode", "dusart"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["report"]["notes"] == f"pi(26) <= {bounds.pi_upper_dusart(26).hi!r} substituted"


# ---------------------------------------------------------------------------
# sieve commands

def test_sieve_pi(capsys):
    code, out, err = run_cli(capsys, ["sieve", "pi", "--x", "1000000"])
    assert code == 0
    assert json.loads(out)["pi"] == 78498


def test_sieve_neighbors_is_a_usage_error(capsys):
    # the subcommand is gone; sieve.next_prime_after, which closes the
    # certificate's tail gap, stays and is tested in test_sieve.py
    with pytest.raises(SystemExit) as exc:
        main(["sieve", "neighbors", "--x", "100"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "invalid choice: 'neighbors'" in err


def test_sieve_gaps_stream_and_threads(capsys):
    argv = ["sieve", "gaps", "--lo", "2", "--hi", "1000000", "--min-gap", "80"]
    code, out1, err = run_cli(capsys, argv)
    assert code == 0
    rows = [json.loads(line) for line in out1.splitlines()]
    assert rows, "expected at least one gap event below 1e6"
    assert all(r["gap"] >= 80 for r in rows)
    assert rows == sorted(rows, key=lambda r: r["p"])

    code, out2, err = run_cli(capsys, argv + ["--threads", "2"])
    assert out2 == out1


def test_sieve_gaps_out_file(capsys, tmp_path):
    path = tmp_path / "gaps.jsonl"
    argv = [
        "sieve", "gaps", "--lo", "2", "--hi", "1000000",
        "--min-gap", "80", "--out", str(path),
    ]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and out == ""
    assert path.read_text().splitlines()


def test_sieve_pi_and_gaps_refuse_points_above_63_bits(capsys, monkeypatch):
    def no_plan(*args, **kwargs):
        raise AssertionError("SegmentPlan built")

    monkeypatch.setattr(sieve, "SegmentPlan", no_plan)
    for argv in (
        ["sieve", "pi", "--x", str(2**63)],
        ["sieve", "gaps", "--lo", str(2**63 - 100), "--hi", str(2**63 + 1), "--min-gap", "2"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert "63-bit" in err


def test_sieve_gaps_refused_run_keeps_out_file(capsys, tmp_path):
    # every line subcommand checks its flags before the one line writer opens --out
    path = tmp_path / "f"
    path.write_bytes(b'{"p":2,"gap":1}\n')
    for argv, message in (
        (["sieve", "gaps", "--lo", "5", "--hi", "3", "--min-gap", "2"], "need 2 <= lo < hi"),
        (["search", "--max-value", "5"], "v_max must be >= 6"),
        (["fib-family", "--count", "0"], "count must be >= 1"),
        (["fib-family", "--count", "8"], "too large to verify exactly"),
    ):
        code, out, err = run_cli(capsys, argv + ["--out", str(path)])
        assert (code, out) == (3, ""), argv
        assert message in err, argv
        assert path.read_bytes() == b'{"p":2,"gap":1}\n', argv


# ---------------------------------------------------------------------------
# certify

def test_certify_small_run(capsys):
    code, out, err = run_cli(capsys, ["certify", "--qmax", "30000000"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gap_prime_count"] == 4
    assert doc["refuted"] == {"152-156": 4, "303-308": 4}
    assert doc["failures"] == []
    assert doc["complete"] is True
    assert "wall_time_s" not in doc


def test_certify_without_gap_events_counts_each_window_zero(capsys):
    # run() gives every configured window its 0 count, in configured order
    code, out, err = run_cli(capsys, ["certify", "--qmax", "1000000"])
    assert code == 0
    assert '"refuted":{"152-156":0,"303-308":0}' in out


def test_certify_stdout_deterministic(capsys):
    argv = ["certify", "--qmax", "30000000"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    _, out3, _ = run_cli(capsys, argv + ["--threads", "2"])
    assert out1 == out2 == out3


def test_certify_timing_flag(capsys):
    argv = ["certify", "--qmax", "1000000"]
    code, untimed, err = run_cli(capsys, argv)
    assert code == 0 and "s wall" not in err
    code, timed, err = run_cli(capsys, argv + ["--timing"])
    assert code == 0
    assert timed == untimed
    assert re.search(r"^certify: \d+\.\ds wall$", err, re.MULTILINE)


def test_certify_has_no_gap_min_flag(capsys):
    # gap_min is derived from window_len, so no flag can skip a gap
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--qmax", "30000000", "--gap-min", "158"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flag, value",
    [("--windows", "303-308"), ("--smooth-bound", "3500"), ("--gap-cap", "157"), ("--window-len", "157"),
     ("--config", "certify.cfg")],
    ids=["windows", "smooth-bound", "gap-cap", "window-len", "config"],
)
def test_certify_claim_constants_are_no_flags(capsys, flag, value):
    # the windows, bound, cap and run length are CertificateConfig's constants,
    # and a config file would only repeat --qmax and --threads
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--qmax", "30000000", flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_certify_defaults_are_the_config_defaults(capsys):
    code, out, err = run_cli(capsys, ["certify", "--stop-after", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == CertificateConfig().output_fields()
    assert doc["config"] == {
        "q_max": 31754673611, "gap_min": 158, "windows": [[152, 156], [303, 308]],
        "smooth_bound": 3427, "gap_cap": 456, "window_len": 156, "segment_size": 2097152,
    }
    assert doc["config_hash"].startswith("1799b4ee")
    assert (doc["segments_done"], doc["segments_total"]) == (0, 7571)


def test_certify_resume_via_cli(capsys, tmp_path):
    ck = str(tmp_path / "ck.json")
    wit = str(tmp_path / "wit.jsonl")
    base = ["certify", "--qmax", "30000000", "--checkpoint", ck, "--witness", wit]

    code, out, err = run_cli(capsys, base + ["--stop-after", "4"])
    assert code == 0
    assert json.loads(out)["complete"] is False

    code, out_resumed, err = run_cli(capsys, base)
    assert code == 0
    assert json.loads(out_resumed)["complete"] is True

    wit_ref = str(tmp_path / "wit_ref.jsonl")
    code, out_ref, err = run_cli(
        capsys, ["certify", "--qmax", "30000000", "--witness", wit_ref]
    )
    assert out_resumed == out_ref
    assert pathlib.Path(wit).read_bytes() == pathlib.Path(wit_ref).read_bytes()


def test_certify_gap_cap_violation_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(CertificateConfig, "gap_cap", 157)
    monkeypatch.setattr(CertificateConfig, "windows", ((1, 156),))
    code, out, err = run_cli(capsys, ["certify", "--qmax", "30000000"])
    assert code == 1
    doc = json.loads(out)
    assert len(doc["gap_cap_violations"]) == 4
    assert doc["failures"] == []
    assert doc["complete"] is True


def test_certify_resume_refuses_truncated_witness(capsys, tmp_path):
    ck = str(tmp_path / "ck.json")
    wit = tmp_path / "wit.jsonl"
    base = ["certify", "--qmax", "30000000", "--checkpoint", ck, "--witness", str(wit)]
    code, out, err = run_cli(capsys, base + ["--stop-after", "6"])
    assert code == 0
    wit.write_bytes(wit.read_bytes()[:100])
    code, out, err = run_cli(capsys, base)
    assert code == 3
    assert out == ""
    assert "refusing to resume" in err
    assert wit.stat().st_size == 100


def test_certify_resume_refuses_witness_started_late(capsys, tmp_path):
    ck = str(tmp_path / "ck.json")
    wit = tmp_path / "wit.jsonl"
    base = ["certify", "--qmax", "30000000", "--checkpoint", ck]
    code, out, err = run_cli(capsys, base + ["--stop-after", "6"])
    assert code == 0
    assert sum(json.loads(out)["refuted"].values()) > 0
    code, out, err = run_cli(capsys, base + ["--witness", str(wit)])
    assert code == 3
    assert out == ""
    assert "refusing to resume" in err
    assert not wit.exists()
    # the same resume without a witness stream still finishes
    code, out, err = run_cli(capsys, base)
    assert code == 0
    assert json.loads(out)["complete"] is True


def test_certify_resume_refuses_witness_edited_in_place(capsys, tmp_path):
    ck = str(tmp_path / "ck.json")
    wit = tmp_path / "wit.jsonl"
    base = ["certify", "--qmax", "30000000", "--checkpoint", ck, "--witness", str(wit)]
    code, out, err = run_cli(capsys, base + ["--stop-after", "6"])
    assert code == 0
    # 4211 does not divide 17051707 + 152; the file keeps its length
    edited = wit.read_bytes().replace(b'"prime":4201', b'"prime":4211', 1)
    assert edited != wit.read_bytes() and len(edited) == wit.stat().st_size
    wit.write_bytes(edited)
    code, out, err = run_cli(capsys, base)
    assert code == 3
    assert out == ""
    assert "refusing to resume" in err
    assert wit.read_bytes() == edited


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"refuted": {"152-156": "x", "303-308": 0}}, "checkpoint field has a malformed value: refuted"),
        ({"refuted": {"152-156": 3, "1-9": 0}}, "checkpoint field refuted names unconfigured windows: 1-9"),
        ({"failures": [[11, [1, 2]]]}, "checkpoint field failures names unconfigured windows: 1-2"),
        ({"failures": [5]}, "checkpoint field has a malformed value: failures"),
        ({"gap_cap_violations": [[17051707, True]]}, "checkpoint field has a malformed value: gap_cap_violations"),
        ({"gap_prime_count": True}, "checkpoint field has wrong type: gap_prime_count"),
        ({"segments_done": -5}, "checkpoint field has a malformed value: segments_done"),
        # 8 of 8 with 2 scanned would report the run complete
        ({"segments_done": 8}, "checkpoint field segments_done = 8 exceeds the 2 segments"),
        # the identities every saved state keeps (2 segments end at q = 8388610)
        ({"gap_prime_count": 1}, "checkpoint fields refuted, failures and gap_prime_count disagree: window 152-156"),
        ({"failures": [[8388610, [152, 156]]]}, "checkpoint field failures has q = 8388610 at or past completed_hi"),
        ({"gap_cap_violations": [[8388610, 500]]}, "checkpoint field gap_cap_violations has q = 8388610 at or past"),
        ({"failures": [[13, [152, 156]], [11, [303, 308]]]}, "checkpoint field failures does not ascend in q"),
        ({"failures": [[11, [152, 156]], [11, [152, 156]]]}, "checkpoint field failures repeats a (q, window) pair"),
        ({"gap_cap_violations": [[13, 500], [11, 500]]}, "checkpoint field gap_cap_violations does not ascend in q"),
        ({"gap_cap_violations": [[11, 456]]}, "checkpoint field gap_cap_violations has gap = 456 <= gap_cap = 456"),
        # the sha256 of the empty file it holds, but a length it never had
        ({"witness_bytes": 100}, "holds fewer than the 100 bytes the checkpoint recorded"),
    ],
    ids=["refuted-str", "refuted-stray-window", "failures-stray-window", "failures-int", "violation-bool",
         "count-bool", "count-negative", "count-past-completed-hi", "counts-disagree", "failure-past-completed-hi",
         "violation-past-completed-hi", "failures-descending", "failure-repeated",
         "violations-descending", "violation-within-cap", "witness-short"],
)
def test_certify_resume_refuses_malformed_checkpoint_field(capsys, tmp_path, changes, message):
    ck = tmp_path / "ck.json"
    base = ["certify", "--qmax", "30000000", "--checkpoint", str(ck), "--witness", str(tmp_path / "w.jsonl")]
    code, out, err = run_cli(capsys, base + ["--stop-after", "2"])
    assert code == 0
    state = json.loads(ck.read_text())
    state.update(changes)
    ck.write_text(json.dumps(state))
    # both with segments still pending and on a finished checkpoint
    for stop_after in (["--stop-after", "0"], []):
        code, out, err = run_cli(capsys, base + stop_after)
        assert (code, out) == (3, "")
        assert message in err


def test_certify_resume_refuses_witness_short_of_its_lines(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    wit = tmp_path / "wit.jsonl"
    base = ["certify", "--qmax", "30000000", "--checkpoint", str(ck), "--witness", str(wit)]
    code, out, err = run_cli(capsys, base + ["--stop-after", "6"])
    assert code == 0
    # drop the last line, and record the shorter file's length and sha256 as
    # the checkpoint's: only the line count still tells
    kept = wit.read_bytes()[: wit.read_bytes().rindex(b"\n", 0, -1) + 1]
    wit.write_bytes(kept)
    state = json.loads(ck.read_text())
    state.update(witness_bytes=len(kept), witness_sha256=hashlib.sha256(kept).hexdigest())
    ck.write_text(json.dumps(state))
    code, out, err = run_cli(capsys, base)
    assert (code, out) == (3, "")
    refutations = sum(state["refuted"].values())
    assert f"checkpoint field refuted counts {refutations} refutations" in err
    assert f"hold {refutations - 1} lines; refusing to resume" in err
    assert wit.read_bytes() == kept


def _drop_last_witness_line(state, wit):
    # the shorter file's length and sha256 become the checkpoint's: only the
    # line count still tells
    kept = wit.read_bytes()[: wit.read_bytes().rindex(b"\n", 0, -1) + 1]
    wit.write_bytes(kept)
    state.update(witness_bytes=len(kept), witness_sha256=hashlib.sha256(kept).hexdigest())


_RESUME_FAULTS = {
    "hash": (lambda state, wit: state.update(config_hash="0" * 64), "different configuration"),
    "align": (lambda state, wit: state.update(completed_hi=999), "does not align"),
    "disagree": (lambda state, wit: state.update(gap_prime_count=state["gap_prime_count"] + 1), "disagree"),
    "exceeds": (lambda state, wit: state.update(segments_done=8), "exceeds"),
    "sha": (lambda state, wit: state.update(witness_sha256="0" * 64), "do not match the sha256"),
    "lines": (_drop_last_witness_line, "lines; refusing to resume"),
}


@pytest.mark.parametrize(
    "first, second",
    [("hash", "align"), ("disagree", "exceeds"), ("align", "sha"), ("exceeds", "lines")],
    ids=["hash-align", "disagree-exceeds", "align-sha", "exceeds-lines"],
)
def test_certify_resume_refuses_the_first_of_two_faults(capsys, tmp_path, first, second):
    ck = tmp_path / "ck.json"
    wit = tmp_path / "wit.jsonl"
    base = ["certify", "--qmax", "30000000", "--checkpoint", str(ck), "--witness", str(wit)]
    code, out, err = run_cli(capsys, base + ["--stop-after", "6"])
    assert code == 0
    saved, lines = ck.read_text(), wit.read_bytes()
    # the second fault alone is refused too, so the first message shows the order
    for faults, message in (((first, second), _RESUME_FAULTS[first][1]), ((second,), _RESUME_FAULTS[second][1])):
        wit.write_bytes(lines)
        state = json.loads(saved)
        for fault in faults:
            _RESUME_FAULTS[fault][0](state, wit)
        ck.write_text(json.dumps(state))
        before = (ck.read_bytes(), wit.read_bytes())
        code, out, err = run_cli(capsys, base)
        assert (code, out) == (3, ""), faults
        assert message in err, faults
        assert (ck.read_bytes(), wit.read_bytes()) == before


def test_certify_resume_refuses_checkpoint_that_hides_failures(capsys, tmp_path, monkeypatch):
    # at this bound each of the 4 gap primes below 3e7 fails both windows
    monkeypatch.setattr(CertificateConfig, "smooth_bound", 20000000)
    ck = tmp_path / "ck.json"
    base = ["certify", "--qmax", "30000000", "--checkpoint", str(ck)]
    code, out, err = run_cli(capsys, base + ["--stop-after", "7"])
    assert code == 1
    assert (json.loads(out)["gap_prime_count"], len(json.loads(out)["failures"])) == (4, 8)
    saved = ck.read_text()
    state = json.loads(saved)
    state["failures"] = []
    ck.write_text(json.dumps(state))
    code, out, err = run_cli(capsys, base)
    assert (code, out) == (3, "")
    assert "checkpoint fields refuted, failures and gap_prime_count disagree" in err
    # the checkpoint as saved resumes into the uninterrupted run's report
    ck.write_text(saved)
    code, resumed, err = run_cli(capsys, base)
    assert code == 1
    code, uninterrupted, err = run_cli(capsys, base[:-2])
    assert resumed == uninterrupted


def test_certify_refuses_negative_stop_after(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    code, out, err = run_cli(
        capsys, ["certify", "--qmax", "30000000", "--checkpoint", str(ck), "--stop-after", "-1"]
    )
    assert code == 3
    assert out == ""
    assert "stop_after_segments must be >= 0" in err
    assert not ck.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--qmax", "30000000"],
        ["sieve", "gaps", "--lo", "2", "--hi", "1000000", "--min-gap", "80"],
    ],
    ids=["certify", "sieve-gaps"],
)
def test_negative_threads_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--threads", "-2"])
    assert code == 3
    assert out == ""
    assert "workers must be >= 0" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--threads", "-1"], "workers must be >= 0"),
    ],
    ids=["threads"],
)
def test_certify_refuses_sieve_and_pool_limits_before_the_echo(capsys, flags, message):
    code, out, err = run_cli(capsys, ["certify", "--qmax", "30000000"] + flags)
    assert code == 3
    assert out == ""
    assert err.startswith("collisionlab: error:")
    assert message in err


def test_lemma_nmax31_has_no_threads_flag(capsys):
    argv = ["lemma", "nmax31", "--k-max", "700", "--dense-until", "700"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_certify_refuses_qmax_past_int64(capsys):
    code, out, err = run_cli(capsys, ["certify", "--qmax", str(2**63 - 308)])
    assert code == 3
    assert out == ""
    assert "exceeds 2**63 - 1" in err


@pytest.mark.parametrize("witness", ["c.json", "c.json.tmp"])
def test_certify_refuses_witness_path_the_checkpoint_writes(capsys, tmp_path, monkeypatch, witness):
    # the checkpoint's temporary file and its rename would replace the witness lines
    monkeypatch.chdir(tmp_path)
    argv = ["certify", "--qmax", "30000000", "--checkpoint", str(tmp_path / "c.json"), "--witness", witness]
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("collisionlab: error:")  # refused before the config echo
    assert "the checkpoint would overwrite the witness file" in err
    assert list(tmp_path.iterdir()) == []
