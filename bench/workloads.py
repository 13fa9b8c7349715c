"""The four workloads, each driven through collisionlab's public library API.

A workload builds its inputs from the seed once, then `run()` performs one
iteration and times only the call into the program.  `Iteration.output` is
compared with `==` between iterations (the program is deterministic), and
`check()` verifies the first iteration independently and against the pinned
digests.

Why these four: certify-top is the costliest part of the real certificate
(about 100 gap events per segment, refutation-bound); certify-1e9 is
sieve- and gap-closing-bound with few events, and runs the two-worker pool
and one checkpoint per segment; nmax31 is scalar interval arithmetic with no
sieve work; checkers calls the interval layer one call at a time and is the
only workload reaching the mpmath path and the collision module.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checks
from collisionlab import bounds, certificate, collision, lemma, sieve
from ready import DEFAULT_Q_MAX

_clock = time.perf_counter


@dataclass
class Iteration:
    ops: int
    wall: float
    output: object


class Workload:
    name = ""
    unit = ""  # what one operation is
    root = ""  # outermost span of a traced iteration
    workers = 1
    ops = 0  # operations per iteration
    # how run.py condenses a run's iteration times into wall_s
    wall_statistic = "median"

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def run(self, tracer=None, workers: Optional[int] = None) -> Iteration:
        raise NotImplementedError

    def check(self, it: Iteration) -> list[str]:
        raise NotImplementedError

    def witness_bytes(self, it: Iteration) -> int:
        return 0

    def _timed(self, tracer, call):
        """(result, seconds) of call(); under a tracer, inside the root span."""
        with tracer.active() if tracer else nullcontext():
            t0 = _clock()
            with tracer.span(self.root) if tracer else nullcontext():
                result = call()
            return result, _clock() - t0


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the certificate

class _Certify(Workload):
    unit = "segments"
    root = "certificate.run"
    q_max = DEFAULT_Q_MAX

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        super().__init__(seed, workdir, smoke)
        self.config = certificate.CertificateConfig(
            q_max=self.q_max,
            checkpoint_path=str(workdir / "cert.ckpt"),
            witness_path=str(workdir / "witness.jsonl"),
            workers=self.workers,
        )
        self.jobs = sieve.SegmentPlan(2, self.q_max + 1, self.config.segment_size).jobs()
        self.first, self.ops = self.block()
        self.stop_after = None if self.ops == len(self.jobs) else self.ops

    def block(self) -> tuple[int, int]:
        """Index of the first segment and the number of segments run."""
        return 0, len(self.jobs)

    def _prepare(self) -> None:
        for path in (self.config.checkpoint_path, self.config.witness_path):
            if os.path.exists(path):
                os.remove(path)
        if self.first:
            # resume from a fresh state at a segment boundary: the block is
            # exactly what an uninterrupted run does after that boundary
            state = certificate._fresh_state(self.config.config_hash())
            state["completed_hi"] = self.jobs[self.first][1]
            certificate.checkpoint_save(self.config.checkpoint_path, state)

    def run(self, tracer=None, workers: Optional[int] = None) -> Iteration:
        config = dataclasses.replace(self.config, workers=workers or self.workers)
        self._prepare()
        report, wall = self._timed(
            tracer, lambda: certificate.run(config, stop_after_segments=self.stop_after)
        )
        witness = Path(config.witness_path).read_bytes()
        return Iteration(self.ops, wall, {"report": report.to_json(), "witness": witness})

    def witness_bytes(self, it: Iteration) -> int:
        return len(it.output["witness"])

    def pinned(self) -> Optional[dict]:
        return None

    def check(self, it: Iteration) -> list[str]:
        c = self.config
        problems = checks.certificate_problems(
            json.loads(it.output["report"]),
            it.output["witness"],
            q_lo=self.jobs[self.first][1],
            q_hi=self.jobs[self.first + self.ops - 1][2],
            segments=self.ops,
            complete=self.ops == len(self.jobs),
            gap_min=c.gap_min,
            gap_cap=c.gap_cap,
            smooth_bound=c.smooth_bound,
        )
        pinned = self.pinned()
        if pinned is not None:
            got = {key: checks.sha256(it.output[key].encode() if key == "report" else it.output[key])
                   for key in pinned}
            problems += checks.compare_pinned(self.name, got, pinned)
        return problems


class CertifyTop(_Certify):
    """A block of consecutive segments in the top 1% of the default range."""

    name = "certify-top"
    block_segments = 30

    def block(self) -> tuple[int, int]:
        size = 1 if self.smoke else self.block_segments
        top = math.ceil(len(self.jobs) / 100)
        return len(self.jobs) - top + random.Random(self.seed).randrange(top - size + 1), size

    def pinned(self) -> Optional[dict]:
        pin = checks.PINNED["certify-top"]
        return None if self.smoke or self.seed != pin["seed"] else pin["digests"]


class Certify1e9(_Certify):
    """A fresh run to q_max = 1e9 on two workers; the seed picks nothing."""

    name = "certify-1e9"
    workers = 2

    @property
    def q_max(self) -> int:
        return 3 * 10**7 if self.smoke else 10**9

    def pinned(self) -> Optional[dict]:
        return None if self.smoke else checks.PINNED["certify-1e9"]["digests"]


# ---------------------------------------------------------------------------
# the interval layer

class Nmax31(Workload):
    """The default GridConfig, one worker; the seed picks nothing."""

    name = "nmax31"
    unit = "points"
    root = "lemma.nmax_lemma31"

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        super().__init__(seed, workdir, smoke)
        self.grid = lemma.GridConfig(k_max=1500, dense_until=1000) if smoke else lemma.GridConfig()
        self.ops = sum(len(self.grid.l_values(k)) for k in self.grid.k_values())

    def run(self, tracer=None, workers: Optional[int] = None) -> Iteration:
        report, wall = self._timed(tracer, lambda: lemma.nmax_lemma31(self.grid))
        return Iteration(self.ops, wall, dataclasses.asdict(report))

    def check(self, it: Iteration) -> list[str]:
        result = it.output
        problems = checks.nmax_problems(result)
        if result["points"] != self.ops or result["skipped"]:
            problems.append(f"nmax31: {result['points']} points, {result['skipped']} skipped; expected {self.ops}, 0")
        if not self.smoke:
            pin = checks.PINNED["nmax31"]
            problems += [f"nmax31: {key} = {result[key]!r}, pinned {want!r}"
                         for key, want in pin["values"].items() if result[key] != want]
            problems += checks.compare_pinned(
                self.name, {"result": checks.sha256(_dumps(result).encode())}, pin["digests"])
        return problems


def _known_positions() -> list[tuple[int, int, int, int]]:
    """Every pair of positions of each known collision, plus Fibonacci member 2."""
    pairs = []
    for _, reps in checks.KNOWN_COLLISIONS:
        for i, (x, a) in enumerate(reps):
            for y, b in reps[i + 1:]:
                pairs.append((x, a, y, b))
    pairs.append((104, 39, 103, 40))
    return pairs


class Checkers(Workload):
    """One pass over the checker chain, one call at a time.

    The seed draws the random tuples (which the eq12 gate stops before
    check21 and check23 decide anything), the points near F* evaluated in
    mpmath, and the section4 points recomputed exactly.
    """

    name = "checkers"
    unit = "calls"
    root = "checkers.mix"
    # About 100 iterations of 0.3 s per run: the fastest one tracks the
    # program, while the median tracks co-tenant load on a shared host.
    # Over five sets of 10 runs the spread of wall_s was 0.06-0.12 with the
    # minimum and 0.10-0.28 with the median.
    wall_statistic = "min"
    random_tuples = 16
    precise_points = 4

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        super().__init__(seed, workdir, smoke)
        rng = random.Random(seed)
        self.known = _known_positions()
        self.random = []
        for _ in range(4 if smoke else self.random_tuples):
            k = rng.randint(20, 120)
            self.random.append((rng.randrange(2), rng.randint(2 * k + 1, 4000), rng.randrange(k), k, rng.randint(1, 30)))
        self.check22_ks = range(1, 601 if smoke else 2001)
        self.section4_ks = range(588, 2001 if smoke else 100001)
        self.section4_sample = sorted(rng.sample(self.section4_ks, 64))
        self.f_star = checks.PINNED["threshold32"]["values"]["f_star"]
        self.precise_F = [self.f_star + rng.randint(-2000, 2000) for _ in range(self.precise_points)]
        self.ops = (1 + 4 * (len(self.known) + len(self.random)) + len(self.check22_ks)
                    + len(self.section4_ks) + 1 + 2 * len(self.precise_F) + 1)

    def _mix(self) -> dict:
        out: dict = {"threshold32": lemma.threshold_lemma32(), "tuples": []}
        tuples = [collision.to_param(*xayb) for xayb in self.known]
        for t in tuples + [collision.ParamTuple(*fields) for fields in self.random]:
            out["tuples"] += [
                (t, "check21", lemma.check_lemma21(t)),
                (t, "check23", lemma.check_lemma23_smooth(t)),
                (t, "check31:exact", lemma.check_lemma31(t, "exact")),
                (t, "check31:dusart", lemma.check_lemma31(t, "dusart")),
            ]
        out["check22"] = [lemma.check_lemma22(500000, k) for k in self.check22_ks]
        out["section4"] = [lemma.section4_contradiction(k) for k in self.section4_ks]
        out["section5"] = lemma.section5_check(10**9, 0.68)
        out["precise"] = [
            (F, bounds.pi_upper_dusart(2 * F, precise=True), lemma.lemma32_expression(F, precise=True))
            for F in self.precise_F
        ]
        out["collisions"] = collision.enumerate_collisions(10**6)
        return out

    def run(self, tracer=None, workers: Optional[int] = None) -> Iteration:
        out, wall = self._timed(tracer, self._mix)
        return Iteration(self.ops, wall, out)

    def check(self, it: Iteration) -> list[str]:
        out = it.output
        thr = out["threshold32"]
        plain = {
            "threshold32": {"f_star": thr.f_star, "value_at": [thr.value_at.lo, thr.value_at.hi],
                            "value_next": [thr.value_next.lo, thr.value_next.hi]},
            "tuples": [(dataclasses.astuple(t), checker, {"verdict": rep.verdict.state, "hypotheses": rep.hypotheses})
                       for t, checker, rep in out["tuples"]],
            "check22": [(k, {"verdict": rep.verdict.state, "hypotheses": rep.hypotheses})
                        for k, rep in zip(self.check22_ks, out["check22"])],
            "section4_ks": self.section4_ks,
            "section4": [(r.k, r.lhs, r.rhs, r.contradiction) for r in out["section4"]],
            "section4_sample": self.section4_sample,
            "section5": (out["section5"].n, out["section5"].l0, out["section5"].verdict.state),
            "precise": [(F, (p.lo, p.hi), (e.lo, e.hi)) for F, p, e in out["precise"]],
            "collisions": [[str(r.N), [[p.x, p.a] for p in r.reps]] for r in out["collisions"]],
        }
        problems = checks.checker_problems(plain, self.f_star)
        pin = checks.PINNED["threshold32"]
        if thr.f_star != pin["values"]["f_star"]:
            problems.append(f"threshold32: f_star = {thr.f_star}, pinned {pin['values']['f_star']}")
        problems += checks.compare_pinned(
            "threshold32", {"result": checks.sha256(_dumps(plain["threshold32"]).encode())}, pin["digests"])
        return problems


WORKLOADS = {w.name: w for w in (CertifyTop, Certify1e9, Nmax31, Checkers)}
