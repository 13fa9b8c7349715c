"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They run every workload in smoke mode (tiny inputs, seconds each), check
that the printed metrics match BENCHMARK.json, and check that the gate fails
closed on a corrupted witness, a wrong pinned digest and an exception.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ready

ready.add_source_path()

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from collisionlab import certificate, lemma  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ready.ROOT / "BENCHMARK.json").read_text())


def _command(workload: str, trace: int, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), *extra]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_prints_the_declared_metrics(workload, trace):
    start = time.monotonic()
    proc = subprocess.run(_command(workload, trace, "--smoke"), capture_output=True, text=True,
                          cwd=ready.ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 60
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_declared_workloads_are_ones_run_offers():
    assert set(w["name"] for w in SPEC["workloads"]) <= set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def _run_in_process(capsys, workload: str, trace: int = 0) -> dict:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke"]) == 0
    return _result(capsys.readouterr().out)


def _assert_failed_closed(result: dict) -> None:
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["success_ratio"]["value"] < 1


def test_corrupted_witness_line_fails_the_run(monkeypatch, capsys):
    plain_run = workloads.CertifyTop.run

    def corrupted(self, *args, **kwargs):
        it = plain_run(self, *args, **kwargs)
        first, rest = it.output["witness"].split(b"\n", 1)
        line = json.loads(first)
        line["prime"] += 1
        it.output["witness"] = json.dumps(line, separators=(",", ":")).encode() + b"\n" + rest
        return it

    monkeypatch.setattr(workloads.CertifyTop, "run", corrupted)
    _assert_failed_closed(_run_in_process(capsys, "certify-top"))


def test_swapped_digest_fails_the_run(monkeypatch, capsys):
    swapped = dict(checks.PINNED["threshold32"]["digests"], result=checks.PINNED["nmax31"]["digests"]["result"])
    monkeypatch.setitem(checks.PINNED["threshold32"], "digests", swapped)
    _assert_failed_closed(_run_in_process(capsys, "checkers"))


def test_exception_in_the_program_fails_the_run(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(lemma, "threshold_lemma32", broken)
    _assert_failed_closed(_run_in_process(capsys, "checkers"))


def test_wrong_verdict_is_caught_by_recomputation():
    out = {"tuples": [], "check22": [(588, {"verdict": "HOLDS", "hypotheses": {"scale": True, "k_range": True}})],
           "section4_ks": range(588, 589), "section4": [(588, 1.0, 0.0, True)], "section4_sample": [],
           "section5": (10**9, 0.0, "HOLDS"), "threshold32": {"f_star": 871155}, "precise": [],
           "collisions": [[str(v), [list(r) for r in reps]] for v, reps in checks.KNOWN_COLLISIONS]}
    problems = checks.checker_problems(out, 871155)
    assert len(problems) == 1 and "check22(k=588)" in problems[0]


def test_tracing_restores_the_program(capsys):
    plain = (certificate._segment_gap_events, lemma.certified_less, lemma.f_stirling)
    _run_in_process(capsys, "certify-top", trace=1)
    assert (certificate._segment_gap_events, lemma.certified_less, lemma.f_stirling) == plain


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ready.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", *_command("checkers", 0)[2:]],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
