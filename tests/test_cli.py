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

from collisionlab import __version__, cli, sieve
from collisionlab.arith import is_prime
from collisionlab.certificate import CertificateConfig
from collisionlab.cli import main
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
    ["lemma", "check21", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1", "--json"],
    ["lemma", "check22", "--n", "500000", "--k", "588", "--json"],
    ["lemma", "check23", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1", "--json"],
    ["lemma", "check31", "--delta", "1", "--n", "51", "--m", "11", "--k", "12", "--l", "2",
     "--pi-mode", "dusart", "--json"],
    ["lemma", "threshold32", "--lo", "10000", "--hi", "1000000"],
    ["lemma", "nmax31", "--k-max", "700", "--dense-until", "700", "--l-samples", "4"],
    ["lemma", "section4", "--k", "588", "--json"],
    ["lemma", "section4", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1", "--json"],
    ["lemma", "section5", "--n", "1000000000", "--c", "0.68", "--json"],
    ["sieve", "pi", "--x", "1000"],
    ["sieve", "neighbors", "--x", "1000"],
]

# flags that choose where output goes, its format or the worker count, never its content
_NOT_CONFIG = {"json", "out", "threads", "workers"}


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
    assert doc["f"] == doc["log_g_upper"]


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
        assert _encloses(doc["f"], head + 1 / (12 * nu))
        assert doc["log_g_lower"][1] < mpmath.log(mpmath.factorial(100)) < doc["log_g_upper"][0]


def test_bounds_thresholds(capsys):
    code, out, err = run_cli(
        capsys, ["bounds", "thresholds", "--n", "1000000000", "--c", "0.68"]
    )
    assert code == 0
    doc = json.loads(out)
    assert round(doc["c_star"], 5) == 0.68943
    assert doc["t_pow"] > doc["t_log2"] > 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "thresholds", "--n", "1000000", "--c", "1e308"], "not JSON compliant"),
        (["lemma", "section4", "--k", str(10**308)], "not JSON compliant"),
    ],
    ids=["t_pow-overflows", "section4-lhs-overflows"],
)
def test_non_finite_results_exit_3_with_empty_stdout(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert message in err


def test_echo_refuses_a_non_finite_value(capsys):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._echo(argparse.Namespace(subcommand="bounds"), {"c": math.nan})
    assert capsys.readouterr().err == ""


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


def test_lemma_check21_text(capsys):
    code, out, err = run_cli(capsys, ["lemma", "check21"] + TUPLE_FLAGS)
    assert code == 0
    assert out.startswith("lemma21: HOLDS")


def test_lemma_check21_json(capsys):
    code, out, err = run_cli(capsys, ["lemma", "check21"] + TUPLE_FLAGS + ["--json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["version", "config", "report"]
    assert doc["report"]["verdict"] == "HOLDS"


def test_lemma_check22_exit_codes(capsys):
    code, out, err = run_cli(capsys, ["lemma", "check22", "--n", "500000", "--k", "587"])
    assert code == 0
    code, out, err = run_cli(capsys, ["lemma", "check22", "--n", "500000", "--k", "588"])
    assert code == 1
    assert out.startswith("lemma22: FAILS")


def test_lemma_check22_decides_where_binary64_cannot_divide(capsys):
    # log(2.001/(1.001 + k/n)) encloses zero in binary64; mpmath gives about 2.001e48
    argv = ["lemma", "check22", "--n", str(10**16), "--k", str(10**16 - 1)]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out.startswith("lemma22: FAILS (margin 2.001e+48)")
    assert "notes: does not force l = delta" in out


def test_lemma_check22_decides_where_binary64_overflows(capsys):
    # k*k = 10^320 is past binary64's range; mpmath gives about 1.4437e120
    argv = ["lemma", "check22", "--n", str(10**200), "--k", str(10**160)]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out.startswith("lemma22: FAILS (margin 1.44374e+120)")
    assert "notes: does not force l = delta" in out


def test_lemma_check23(capsys):
    code, out, err = run_cli(capsys, ["lemma", "check23"] + TUPLE_FLAGS)
    assert code == 0
    assert "5-smooth" in out


def test_lemma_check31_modes(capsys):
    code, out, err = run_cli(capsys, ["lemma", "check31"] + TUPLE_FLAGS)
    assert code == 0
    assert "pi(5) = 3 exact" in out
    code, out, err = run_cli(
        capsys, ["lemma", "check31"] + TUPLE_FLAGS + ["--pi-mode", "dusart", "--json"]
    )
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "HOLDS"


def test_lemma_threshold32(capsys):
    code, out, err = run_cli(capsys, ["lemma", "threshold32"])
    assert code == 0
    doc = json.loads(out)
    assert doc["f_star"] == 871155
    assert doc["value_at"][0] >= 0 > doc["value_next"][1]


def test_lemma_nmax31_small_grid(capsys):
    argv = [
        "lemma", "nmax31", "--k-min", "588", "--k-max", "700",
        "--dense-until", "700", "--l-samples", "4",
    ]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["argmax_k"] == 588
    assert doc["claimed_bound"] == 31754673611


def test_lemma_nmax31_defaults_are_the_grid_defaults(capsys):
    code, out, err = run_cli(capsys, ["lemma", "nmax31", "--k-max", "700", "--dense-until", "700"])
    assert code == 0
    doc = json.loads(out)
    grid = GridConfig()
    assert doc["config"] == {
        "k_min": grid.k_min, "k_max": 700, "dense_until": 700,
        "growth": grid.growth, "l_samples": grid.l_samples, "pi_mode": grid.pi_mode,
    }
    assert doc["config"] == {
        "k_min": 588, "k_max": 700, "dense_until": 700,
        "growth": 1.01, "l_samples": 64, "pi_mode": "dusart",
    }
    assert list(doc) == [
        "version", "config", "n_max", "log_n_max", "argmax_k", "argmax_l",
        "points", "skipped", "claimed_bound",
    ]
    assert (doc["points"], doc["skipped"]) == (113, 0)
    assert '"workers"' not in err


def test_lemma_nmax31_growth_flag_sets_the_k_values(capsys):
    argv = ["lemma", "nmax31", "--k-max", "2000", "--dense-until", "600", "--l-samples", "2"]
    code, out, err = run_cli(capsys, argv + ["--growth", "1.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["growth"] == 1.5
    assert '"growth":1.5' in err
    grid = GridConfig(k_max=2000, dense_until=600, l_samples=2, growth=1.5)
    ks = [*range(588, 601), 900, 1350, 2000]
    assert grid.k_values() == ks
    assert doc["points"] == sum(len(grid.l_values(k)) for k in ks)
    code, out, err = run_cli(capsys, argv)
    assert json.loads(out)["config"]["growth"] == 1.01
    assert json.loads(out)["points"] > doc["points"]


@pytest.mark.parametrize(
    "flags",
    [["--k-min", "700", "--k-max", "800", "--dense-until", "600", "--l-samples", "4"],
     ["--k-max", "700", "--dense-until", "700", "--l-samples", "0"],
     ["--k-max", "700", "--dense-until", "600", "--growth", "nan", "--l-samples", "2"],
     ["--k-max", "700", "--dense-until", "600", "--growth", "inf", "--l-samples", "2"]],
    ids=["dense-until-below-k-min", "no-l-samples", "growth-nan", "growth-inf"],
)
def test_lemma_nmax31_refuses_grids_that_leave_their_range(capsys, flags):
    code, out, err = run_cli(capsys, ["lemma", "nmax31"] + flags)
    assert code == 3
    assert out == ""
    assert "GridConfig" in err


def test_lemma_check23_zero_binomials_are_not_a_collision(capsys):
    argv = ["lemma", "check23", "--delta", "0", "--n", "1", "--m", "-5", "--k", "-4", "--l", "1", "--json"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["hypotheses"] == {"eq12": False}
    assert report["verdict"] == "INDETERMINATE"


def test_lemma_section4_k_only(capsys):
    code, out, err = run_cli(capsys, ["lemma", "section4", "--k", "588"])
    assert code == 0
    doc = json.loads(out)
    assert doc["contradiction"] is True
    assert doc["lhs"] > doc["rhs"]


def test_lemma_section4_partial_tuple_rejected(capsys):
    code, out, err = run_cli(capsys, ["lemma", "section4", "--k", "588", "--n", "100"])
    assert code == 3
    assert "--k alone" in err
    # four of the five tuple flags: refused, nothing on stdout
    argv = ["lemma", "section4", "--delta", "0", "--n", "7", "--m", "1", "--k", "2"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert "--k alone" in err


def test_lemma_section4_full_tuple(capsys):
    argv = ["lemma", "section4", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert out.splitlines()[0] == "section4: INDETERMINATE (margin 0)"
    assert "hypotheses not met: l_small, scale" in out
    assert '{"delta":0,"k":2,"l":1,"m":1,"n":7}' in err
    code, out, err = run_cli(capsys, argv + ["--json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["version", "config", "report"]
    assert doc["config"] == {"delta": 0, "n": 7, "m": 1, "k": 2, "l": 1}
    assert doc["report"]["lemma"] == "section4"
    assert doc["report"]["verdict"] == "INDETERMINATE"
    assert doc["report"]["hypotheses"]["l_small"] is False


def test_lemma_section4_full_tuple_at_huge_n(capsys, monkeypatch):
    # the exact log product reads no table of the primes <= n, which at
    # n = 10**12 could not be built
    def refuse(*args):
        raise AssertionError("section4 built a prime table")

    monkeypatch.setattr(sieve, "prime_list", refuse)
    monkeypatch.setattr(sieve, "base_primes", refuse)
    n, k = 10**12, 30000
    argv = ["lemma", "section4", "--delta", "0", "--n", str(n), "--m", "0", "--k", str(k), "--l", "1"]
    code, out, err = run_cli(capsys, argv + ["--json"])
    assert code == 0
    notes = json.loads(out)["report"]["notes"]
    with mpmath.workdps(50):
        exact = mpmath.log(mpmath.binomial(n - 1, k) * mpmath.binomial(n + k + 1, k + 1))
    assert f"exact log product = {float(exact):.6f}" in notes


def test_lemma_section5(capsys):
    code, out, err = run_cli(
        capsys, ["lemma", "section5", "--n", "1000000000", "--c", "0.68", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "HOLDS"
    assert doc["l0"] == doc["l0"]  # finite
    code, out, err = run_cli(capsys, ["lemma", "section5", "--n", "1000000000", "--c", "0.68"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("section5: HOLDS (margin ")
    assert [line.split()[0] for line in lines[1:]] == ["l0", "lhs", "rhs"]
    code, out, err = run_cli(
        capsys, ["lemma", "section5", "--n", "1000000000", "--c", "0.9"]
    )
    assert code == 3
    assert "must be below" in err


# ---------------------------------------------------------------------------
# sieve commands

def test_sieve_pi(capsys):
    code, out, err = run_cli(capsys, ["sieve", "pi", "--x", "1000000"])
    assert code == 0
    assert json.loads(out)["pi"] == 78498


def test_sieve_neighbors(capsys):
    code, out, err = run_cli(capsys, ["sieve", "neighbors", "--x", "100"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["prev"], doc["next"], doc["gap"]) == (97, 101, 4)


def test_sieve_neighbors_at_1e18_and_refused_at_2_63(capsys):
    code, out, err = run_cli(capsys, ["sieve", "neighbors", "--x", str(10**18)])
    assert code == 0
    doc = json.loads(out)
    prev, nxt = doc["prev"], doc["next"]
    assert prev <= 10**18 < nxt and doc["gap"] == nxt - prev
    assert is_prime(prev) and is_prime(nxt)
    assert not any(is_prime(v) for v in range(prev + 1, nxt))
    code, out, err = run_cli(capsys, ["sieve", "neighbors", "--x", str(2**63)])
    assert code == 3
    assert out == ""
    assert "63-bit" in err


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
    code, out3, err = run_cli(capsys, argv + ["--segment-size", "65536"])
    assert out3 == out1


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


def test_certify_stdout_deterministic(capsys):
    argv = ["certify", "--qmax", "30000000"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    _, out3, _ = run_cli(capsys, argv + ["--threads", "2"])
    _, out4, _ = run_cli(capsys, argv + ["--windows", "152-156,,303-308"])  # empty pieces are skipped
    assert out1 == out2 == out3 == out4


def test_certify_coverage_failure(capsys):
    code, out, err = run_cli(
        capsys, ["certify", "--qmax", "30000000", "--windows", "303-308"]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["coverage_ok"] is False
    assert doc["uncovered_placements"][0] == 0


def test_certify_config_file_resolution(capsys, tmp_path):
    cfg = tmp_path / "certify.cfg"
    cfg.write_text("# small run\nqmax = 1000000\ngap_min = 500\n")
    code, out, err = run_cli(capsys, ["certify", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["q_max"] == 1000000
    assert doc["config"]["gap_min"] == 500
    assert doc["gap_prime_count"] == 0

    # explicit flag beats the file
    code, out, err = run_cli(
        capsys, ["certify", "--config", str(cfg), "--qmax", "2000000"]
    )
    assert json.loads(out)["config"]["q_max"] == 2000000

    bad = tmp_path / "bad.cfg"
    bad.write_text("qmax=1000000\nbogus_key=7\n")
    code, out, err = run_cli(capsys, ["certify", "--config", str(bad)])
    assert code == 3
    assert "unknown config keys: bogus_key" in err

    malformed = tmp_path / "broken.cfg"
    malformed.write_text("qmax 1000000\n")
    code, out, err = run_cli(capsys, ["certify", "--config", str(malformed)])
    assert code == 3
    assert "expected key=value" in err


def test_certify_timing_flag(capsys):
    argv = ["certify", "--qmax", "1000000", "--gap-min", "500"]
    code, untimed, err = run_cli(capsys, argv)
    assert code == 0 and "s wall" not in err
    code, timed, err = run_cli(capsys, argv + ["--timing"])
    assert code == 0
    assert timed == untimed
    assert re.search(r"^certify: \d+\.\ds wall$", err, re.MULTILINE)


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


def test_certify_config_file_sets_every_flag(capsys, tmp_path):
    values = {
        "qmax": "20000000", "gap_min": "170", "windows": "150-157,300-306",
        "smooth_bound": "3500", "gap_cap": "455", "window_len": "157",
        "segment_size": "131072", "threads": "2",
    }
    cfg = tmp_path / "certify.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    flags = [a for key, value in values.items() for a in (f"--{key.replace('_', '-')}", value)]
    code, by_flags, flags_err = run_cli(capsys, ["certify"] + flags)
    assert code == 0
    code, by_file, file_err = run_cli(capsys, ["certify", "--config", str(cfg)])
    assert code == 0
    assert by_file == by_flags
    assert file_err == flags_err
    doc = json.loads(by_file)
    assert doc["config"]["windows"] == [[150, 157], [300, 306]]
    assert doc["config"]["segment_size"] == 131072
    assert doc["gap_prime_count"] == 1 and doc["complete"] is True
    assert '"workers":2' in file_err


def test_certify_config_file_malformed_value_exits_3(capsys, tmp_path):
    cfg = tmp_path / "certify.cfg"
    for text in ("qmax=abc\n", "qmax=1000000\nthreads=\n", "qmax=1000000\ngap_cap=4.5\n"):
        cfg.write_text(text)
        code, out, err = run_cli(capsys, ["certify", "--config", str(cfg)])
        assert code == 3, text
        assert out == ""
        assert "collisionlab: error:" in err


def test_certify_config_keys_are_spelled_with_underscores(capsys, tmp_path):
    cfg = tmp_path / "certify.cfg"
    for key in ("gap-min", "q_max", "checkpoint", "timing"):
        cfg.write_text(f"qmax=1000000\n{key}=1\n")
        code, out, err = run_cli(capsys, ["certify", "--config", str(cfg)])
        assert code == 3, key
        assert f"unknown config keys: {key}" in err


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


def test_certify_gap_cap_violation_exits_1(capsys):
    code, out, err = run_cli(
        capsys, ["certify", "--qmax", "30000000", "--gap-cap", "157", "--windows", "1-156"]
    )
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


def test_certify_resume_refuses_checkpoint_that_hides_failures(capsys, tmp_path):
    # at this bound each of the 4 gap primes below 3e7 fails both windows
    ck = tmp_path / "ck.json"
    base = ["certify", "--qmax", "30000000", "--smooth-bound", "20000000", "--checkpoint", str(ck)]
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
        (["--segment-size", "1000"], "segment_size must be >= 1024, got 1000"),
        (["--threads", "-1"], "workers must be >= 0"),
    ],
    ids=["segment-size", "threads"],
)
def test_certify_refuses_sieve_and_pool_limits_before_the_echo(capsys, flags, message):
    code, out, err = run_cli(capsys, ["certify", "--qmax", "30000000"] + flags)
    assert code == 3
    assert out == ""
    assert err.startswith("collisionlab: error:")
    assert message in err


def test_lemma_nmax31_has_no_threads_flag(capsys):
    argv = ["lemma", "nmax31", "--k-max", "700", "--dense-until", "700", "--l-samples", "4"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_certify_refuses_qmax_past_int64(capsys):
    code, out, err = run_cli(capsys, ["certify", "--qmax", str(2**63 - 308)])
    assert code == 3
    assert out == ""
    assert "exceeds 2**63 - 1" in err


def test_certify_bad_windows_text(capsys):
    for text, message in (("152:156", "expected A-B"), (",", "empty window list"),
                          ("152-156,152-156,303-308", "window [152, 156] is listed twice")):
        code, out, err = run_cli(capsys, ["certify", "--qmax", "1000000", "--windows", text])
        assert code == 3
        assert out == ""
        assert message in err


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
