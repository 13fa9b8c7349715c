"""The thirteen acceptance criteria, one test and one printed verdict line each.

The per-criterion lines print outside pytest's capture, so they show up in
any run; the test names carry the same numbering.
"""

import hashlib
import json
import math
import random
import time

import mpmath
import numpy as np
import pytest

from collisionlab import bounds, certificate, collision, lemma
from collisionlab.cli import main
from collisionlab.collision import ParamTuple
from collisionlab.intervals import HOLDS

import oracles
from conftest import EXPECTED_TABLE
from oracles import chebyshev_exact, chebyshev_tables, pi_upper_dusart_floor, product_identity_check


_capture = None


@pytest.fixture(autouse=True)
def _stash_capture(capsys):
    # lets _ok print through the capture for every criterion test
    global _capture
    _capture = capsys
    yield
    _capture = None


def _ok(num: int, detail: str) -> None:
    with _capture.disabled():
        print(f"criterion {num:02d} PASS: {detail}")


def test_criterion_01_collision_table(capsys):
    t0 = time.monotonic()
    code = main(["search", "--max-value", "25000"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    got = {int(r["N"]): [tuple(rep) for rep in r["reps"]] for r in rows}
    assert got == EXPECTED_TABLE
    assert got[3003] == [(78, 2), (15, 5), (14, 6)]
    assert elapsed < 60.0
    _ok(1, f"seven values with expected representation sets in {elapsed:.2f}s")


def test_criterion_02_fibonacci_family():
    for i in range(5):
        mem = collision.fib_identity(i)
        assert mem.verified
        assert math.comb(mem.x, mem.a) == math.comb(mem.y, mem.b)
    m1 = collision.fib_identity(1)
    assert (m1.x, m1.a, m1.y, m1.b) == (15, 5, 14, 6)
    _ok(2, "members i = 0..4 verified by exact big-integer equality")


def test_criterion_03_dusart_property():
    t0 = time.monotonic()
    pi_t, _, _ = chebyshev_tables(10**6)
    xs = np.arange(2, 10**6 + 1, dtype=np.float64)
    floors = pi_upper_dusart_floor(xs)
    violations = int(np.count_nonzero(floors < pi_t[2:]))
    assert violations == 0
    # re-certify the tightest point with the interval version
    worst = int(np.argmin(floors - pi_t[2:])) + 2
    assert bounds.pi_upper_dusart(worst).lo >= pi_t[worst]
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok(3, f"zero violations over [2, 1e6], tightest at x = {worst}, {elapsed:.2f}s")


def test_criterion_04_robbins_property():
    worst_lo = worst_hi = math.inf
    with mpmath.workdps(40):
        log_fact = mpmath.log(2)
        for nu in range(2, 501):
            if nu > 2:
                log_fact += mpmath.log(nu)
            lower, upper = bounds.stirling_log_bounds(nu)
            assert lower.hi < log_fact < upper.lo, nu
            worst_lo = min(worst_lo, float(log_fact - lower.hi))
            worst_hi = min(worst_hi, float(upper.lo - log_fact))
    assert worst_lo > 0 and worst_hi > 0
    _ok(4, f"brackets hold for nu = 2..500, min margins {worst_lo:.3g}/{worst_hi:.3g}")


def test_criterion_05_psi_bound():
    _, _, psi_t = chebyshev_tables(10**6)
    xs = np.arange(2, 10**6 + 1, dtype=np.float64)
    assert np.all(psi_t[2:] < 1.03883 * xs)
    # tightest point (the classic x = 113 extreme) rechecked by direct summation
    tight = int(np.argmin(1.03883 * xs - psi_t[2:])) + 2
    assert chebyshev_exact(tight).psi < 1.03883 * tight
    check = oracles.psi_linear_constant_check()
    assert check.holds and check.margin > 0
    _ok(5, f"psi(x) < 1.03883x on [2, 1e6] (tightest x = {tight}); 1.03883 < log 2.83")


def _ordered_collision_tuples() -> list[ParamTuple]:
    tuples = []
    for rec in collision.enumerate_collisions(10**6):
        for big in rec.reps:
            for small in rec.reps:
                if big.x > small.x:
                    tuples.append(collision.to_param(big.x, big.a, small.x, small.a))
    for i in (1, 2):
        mem = collision.fib_identity(i)
        tuples.append(collision.to_param(mem.x, mem.a, mem.y, mem.b))
    # the i = 1 member is also the (15,5)/(14,6) pair of the 3003 record
    return list(dict.fromkeys(tuples))


def test_criterion_06_identity_equivalence():
    rng = random.Random(20260816)
    checked = 0
    for _ in range(1000):
        delta = rng.randint(0, 1)
        n = rng.randint(2, 200)
        k = rng.randint(0, n)
        m = rng.randint(0, k)
        l = rng.randint(delta, delta + 40)
        t = ParamTuple(delta, n, m, k, l)
        assert product_identity_check(t) == collision.check_eq12(t), t
        checked += 1
    known = _ordered_collision_tuples()
    for t in known:
        assert product_identity_check(t) and collision.check_eq12(t), t
    _ok(6, f"{checked} random tuples plus {len(known)} known collisions, 100% agreement")


def test_criterion_07_lemma32_threshold():
    t0 = time.monotonic()
    th = lemma.threshold_lemma32()
    assert abs(th.f_star - 871155) <= 200
    assert lemma.lemma32_expression(10**5).lo > 0
    assert lemma.lemma32_expression(2 * 10**6).hi < 0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok(7, f"F* = {th.f_star}, signs correct at 1e5 and 2e6, {elapsed:.2f}s")


def test_criterion_08_lemma31_nmax():
    rep = lemma.nmax_lemma31()
    assert 1e10 <= rep.n_max <= 1e11
    assert rep.claimed_bound == 31754673611
    _ok(8, f"n_max = {rep.n_max:.4g} at (k, l) = ({rep.argmax_k}, {rep.argmax_l}), "
           f"claimed bound {rep.claimed_bound} in range")


def test_criterion_09_section4_contradiction():
    t0 = time.monotonic()
    for k in range(588, 10**5 + 1):
        assert lemma.section4_contradiction(k).contradiction, k
    assert not lemma.section4_contradiction(1).contradiction
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _ok(9, f"contradiction for all 588 <= k <= 1e5, none at k = 1, {elapsed:.2f}s")


def test_criterion_10_section5_constants():
    th = bounds.section5_thresholds(10**9, 0.68)
    assert round(th.c_star, 5) == 0.68943
    rep = lemma.section5_check(10**9, 0.68)
    assert rep.verdict.holds
    cons = oracles.central_binom_constant_check()
    assert cons.holds
    _ok(10, f"c_star = {th.c_star:.5f}, section5_check(1e9, 0.68) HOLDS, "
            f"central constant margin {cons.margin:.4g}")


def test_criterion_11_certificate_desk_scale(capsys):
    code = main(["certify", "--qmax", "100000000"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["coverage_ok"] is True
    assert doc["gap_prime_count"] == 73
    assert doc["refuted"] == {"152-156": 73, "303-308": 73}
    assert doc["failures"] == []
    counts = set()
    for workers in (1, 4, 8):
        rep = certificate.run(certificate.CertificateConfig(q_max=10**8, workers=workers))
        assert rep.failures == ()
        counts.add(rep.gap_prime_count)
    assert counts == {73}
    _ok(11, "73/73 refutations in both windows, counts equal at 1/4/8 workers")


def test_criterion_12_checkers_on_true_collisions():
    tuples = [t for t in _ordered_collision_tuples() if t.n <= 200]
    assert tuples
    satisfying = [
        t for t in tuples
        if collision.check_eq12(t) and t.ordering_ok and t.l_gt_delta
    ]
    assert set(satisfying) == {ParamTuple(0, 7, 1, 2, 1), ParamTuple(1, 51, 11, 12, 2)}
    for t in satisfying:
        assert lemma.check_lemma21(t).verdict.state == HOLDS, t
    smooth_checked = 0
    for t in tuples:
        if collision.check_eq12(t):
            assert lemma.check_lemma23_smooth(t).verdict.state == HOLDS, t
            smooth_checked += 1
    assert smooth_checked == len(tuples)
    _ok(12, f"check21 HOLDS on {len(satisfying)} gated tuples, "
            f"check23 HOLDS on all {smooth_checked}")


CRITERION_13_CASES = [
    ["search", "--max-value", "25000"],
    ["fib-family", "--count", "4"],
    ["param", "--x", "15", "--a", "5", "--y", "14", "--b", "6"],
    ["bounds", "pi-upper", "--x", "1742310"],
    ["bounds", "stirling", "--nu", "100"],
    ["bounds", "thresholds", "--n", "1000000000", "--c", "0.68"],
    ["lemma", "check21", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1"],
    ["lemma", "check22", "--n", "500000", "--k", "587"],
    ["lemma", "check23", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1"],
    ["lemma", "check31", "--delta", "1", "--n", "51", "--m", "11", "--k", "12", "--l", "2"],
    ["lemma", "threshold32"],
    ["lemma", "section5", "--n", "1000000000", "--c", "0.68"],
    ["sieve", "pi", "--x", "1000000"],
    ["sieve", "neighbors", "--x", "1000000"],
    ["certify", "--qmax", "30000000"],
]

CRITERION_13_THREADED = [
    ["sieve", "gaps", "--lo", "2", "--hi", "20000000", "--min-gap", "150"],
    ["certify", "--qmax", "30000000"],
]

_TUPLE = ["--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "1"]

# the full sha256 of each case's stdout and its exit code: a rerun only shows
# that a run is stable, a pin shows that a change to the CLI kept every byte
CRITERION_13_PINNED = [
    *zip(CRITERION_13_CASES, [
        "c4d457f880a448542333e781fa71afcb455ba9ab082a56c2c46f6aadb09ff59f",
        "13d349c052b66fd952599b4bc4e2dc80355307b0c30169061d872217fed033fe",
        "fe6af5a6ec999bbe99110d9990b63f990f827cb7d679083d20aa33cb1761ccf9",
        "9565fe22b0fcba44119a6c435ad131aadea49205da75143d1dc9ecb6c1a03f88",
        "8d2c12a8d9b6dd1ab1929bbaa54ab2e8d179384d7b5dd9486d00fcd3808b9394",
        "d7ea09f8371bebfd90fee3a8257611b7b87c7289092390fb02068d40ba65bbe6",
        "d8dad9c370461bfac876c8fe592341ce34bc42fd2423cc8a0f48c9a38c8c576e",
        "bafb59782740b2d6d6087d8aa532713f048810c248590f7b1f37ff38eb628e99",
        "c6dec9018c39d9bcfed2935cfc1b2a84d2d59e76cd3263c1283d8e6e2a864c2d",
        "a6d1eeb6b98bebeb966af6bb17da0a58622b8da66ccb5ebf07d5575631bf61c0",
        "940275508dfed1f33556c58f7d53212e04be0f356462468ff3129c221e7e278c",
        "80d7a75230dfa0b9d7c6548e8a704c41aa15ac3561d8695c670f9dcc05e64564",
        "77f8237e8bb9a3df3eebcd9dc930af977e09d3d99626151c04488d357cad53e2",
        "e70a6b94e45ba5ac4b72e7fce93967c286955c4120f65f46645a21a78b2053d3",
        "b603949916f6b63024862abd609ae882eef7b48371ebf912f97938e0b7620489",
    ], [0] * len(CRITERION_13_CASES)),
    (["lemma", "section4"] + _TUPLE,
     "54aa28e7adcc18cb054729be1ac757962ae09e37f8e67476c405671c96a40453", 0),
    (["lemma", "nmax31", "--k-max", "700", "--dense-until", "700"],
     "f934350819aa57777cb65344be892da32d28b600f98b3ade06ec6a8b8a550265", 0),
    # the precise enclosures, Dusart's pi in check31 and the exact pi in nmax31
    (["bounds", "pi-upper", "--x", "1742310", "--precise"],
     "89ddf36be6e9cd947b86cc00ce733e2b97b05f58ff77ecf5d30485b7d1015dd7", 0),
    (["bounds", "stirling", "--nu", "100", "--precise"],
     "57e887eede4c7052352198fe58b35a9b8840131b5c8b244a486002e697fda790", 0),
    (["lemma", "check31", "--delta", "1", "--n", "51", "--m", "11", "--k", "12", "--l", "2",
      "--pi-mode", "dusart"],
     "0b8c4cfa49a60611ba7d624d3bad63c7c49535fe07b419292de7683de0c3a994", 0),
    (["lemma", "nmax31", "--k-max", "700", "--dense-until", "700", "--pi-mode", "exact"],
     "a6688a708096eb4a31d2418410131cca114d1cd8dd2dc9830e833ffc1f3a1a1c", 0),
    # check31 with nu = 110 and 115, whose factorials are no binary64 points
    (["lemma", "check31", "--delta", "0", "--n", "4000", "--m", "10", "--k", "120", "--l", "5",
      "--pi-mode", "exact"],
     "931faaac8bf95081947f00f7fc320949fb3f324c4c022fb61e4d7b0d7de4eff7", 1),
    (["lemma", "check31", "--delta", "0", "--n", "4000", "--m", "10", "--k", "120", "--l", "5",
      "--pi-mode", "dusart"],
     "cdef9f958729096a64e2d05bbb5c79ea094b7d22e4212501797dfe03e8d0a976", 1),
]


def test_criterion_13_determinism(capsys):
    for argv in CRITERION_13_CASES:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second, argv
    for argv in CRITERION_13_THREADED:
        assert main(argv + ["--threads", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--threads", "2"]) == 0
        threaded = capsys.readouterr().out
        assert serial == threaded, argv
    for argv, digest, code in CRITERION_13_PINNED:
        assert main(argv) == code, argv
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv
    _ok(13, f"{len(CRITERION_13_CASES)} subcommands byte-stable across reruns, "
           f"{len(CRITERION_13_THREADED)} across thread counts, "
           f"{len(CRITERION_13_PINNED)} stdout digests as pinned")
