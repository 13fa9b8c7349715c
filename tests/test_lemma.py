"""Lemma checkers: gating, certified verdicts, thresholds, grids."""

import dataclasses
import itertools
import json
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collisionlab import bounds, cli, intervals, lemma
from collisionlab.certificate import CertificateConfig
from collisionlab.collision import K_MIN, L_RATIO, M_RATIO, ParamTuple, check_eq12
from collisionlab.intervals import (
    FAILS, HOLDS, INDETERMINATE, Comparison, IntervalValue, Verdict, certified_less, evaluate,
)
import oracles
from oracles import contains, mid, product_identity_check, width
from test_acceptance import CRITERION_13_CASES, CRITERION_13_PINNED

# the two tuples from exhaustive small-n enumeration that satisfy every
# hypothesis of the two-sided ratio test
SATISFYING = [ParamTuple(0, 7, 1, 2, 1), ParamTuple(1, 51, 11, 12, 2)]


# ---------------------------------------------------------------------------
# windows and the product identity

def test_index_windows_elements():
    t = ParamTuple(0, 7, 1, 2, 1)
    s1, s2 = lemma.index_windows(t)
    assert (s1, s2) == (range(1, 2), range(2, 4))
    assert [t.n - i for i in s1] == [6]
    assert [t.n + i for i in s2] == [9, 10]


def test_product_identity_pinned():
    # 6 * 15 = 9 * 10 for the C(15,5) = C(14,6) pair
    assert product_identity_check(ParamTuple(0, 7, 1, 2, 1))
    assert not product_identity_check(ParamTuple(0, 7, 1, 2, 2))


def test_uncorrected_index_forms_fail_on_a_true_collision():
    # C(15,5) = C(14,6) is (0, 7, 1, 2, 1); the checkers use the forms whose
    # ranges start at i = m, and the forms starting one later break here
    t = SATISFYING[0]
    delta, n, m, k, l = t.delta, t.n, t.m, t.k, t.l
    assert product_identity_check(t)  # 6 * 15 = 9 * 10
    shifted_s1 = range(m + 1, k + 1)
    left = math.prod(n - i for i in shifted_s1) * math.prod(2 * n + i for i in range(delta + 1, l + 1))
    assert left == 5 * 15 != math.prod(n + i for i in lemma.index_windows(t)[1])

    # check21's second inequality, (k-m)(k+m+delta+extra)/(n+k+delta) < (l-delta) log(2n/(n+k))
    def second(extra):
        return certified_less(lambda cx: (
            cx.of(Fraction((k - m) * (k + m + delta + extra), n + k + delta)),
            cx.of(l - delta) * cx.log(cx.of(2 * n) / cx.of(n + k)),
        )).verdict

    assert second(0).state == HOLDS  # 1/3 < log(14/9)
    assert second(1).state == FAILS  # 4/9 > log(14/9)


@given(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=2, max_value=50),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=300)
def test_product_identity_equivalent_to_eq12(delta, n, m, k, l):
    # the telescoped products only mean eq12 where the windows are genuine
    if not (m <= k <= n and delta <= l):
        return
    t = ParamTuple(delta, n, m, k, l)
    assert product_identity_check(t) == check_eq12(t)


# ---------------------------------------------------------------------------
# the two-sided ratio test

def test_check21_holds_on_satisfying_tuples():
    for t in SATISFYING:
        report = lemma.check_lemma21(t)
        assert report.verdict.state == HOLDS, (t, report.notes)
        assert report.verdict.margin > 0


def test_check21_pinned_values():
    report = lemma.check_lemma21(ParamTuple(0, 7, 1, 2, 1))
    # one comparison per inequality, and no third one; each margin as certified
    first, second = report.comparisons
    # first inequality: log(15/10) vs 4/5
    assert mid(first.lhs) == pytest.approx(math.log(1.5), abs=1e-12)
    assert contains(first.rhs, 0.8)
    assert first.verdict == Verdict(HOLDS, 0.3945348918918351)
    # second, as decided: 1/3 < log(14/9)
    assert contains(second.lhs, 1 / 3)
    assert mid(second.rhs) == pytest.approx(math.log(14 / 9), abs=1e-12)
    assert second.verdict == report.verdict
    assert report.verdict.margin == pytest.approx(0.108499, abs=1e-5)
    assert report.notes == ""


def test_check21_gated_by_ordering():
    report = lemma.check_lemma21(ParamTuple(0, 5, 1, 3, 11))
    assert report.verdict.state == INDETERMINATE
    assert report.hypotheses == {"eq12": True, "ordering": False, "l_gt_delta": True}
    assert report.notes == ""


def test_check21_gated_by_eq12():
    report = lemma.check_lemma21(ParamTuple(0, 7, 1, 2, 2))
    assert report.verdict.state == INDETERMINATE
    assert not report.hypotheses["eq12"]


def test_check21_gate_lists_every_failed_hypothesis():
    # C(16,5) = C(16,5) trivially, but m = k and l = delta
    report = lemma.check_lemma21(ParamTuple(0, 8, 3, 3, 0))
    assert report.verdict.state == INDETERMINATE
    assert report.hypotheses == {"eq12": True, "ordering": False, "l_gt_delta": False}


def test_check21_fails_on_the_failing_side(monkeypatch):
    # not a collision, let through the eq12 gate: 50 log(250/152) is far above 4/98
    monkeypatch.setattr(lemma, "check_eq12", lambda t: True)
    report = lemma.check_lemma21(ParamTuple(0, 100, 1, 2, 50))
    assert report.verdict.state == FAILS
    first = report.comparisons[0]
    assert report.verdict.margin == first.lhs.lo - first.rhs.hi
    assert first.verdict.state == FAILS


@pytest.mark.parametrize(
    "first, second, state, margin",
    [
        ((HOLDS, 1.0), (INDETERMINATE, -0.5), INDETERMINATE, -0.5),
        ((INDETERMINATE, -0.5), (FAILS, 2.0), FAILS, 2.0),
        ((FAILS, 3.0), (FAILS, 2.0), FAILS, 2.0),
    ],
)
def test_check21_verdict_ladder(monkeypatch, first, second, state, margin):
    # one certified_less call per inequality, the first one first
    sides = iter([Verdict(*first), Verdict(*second)])
    monkeypatch.setattr(
        lemma, "certified_less",
        lambda build, strict=True: Comparison(IntervalValue.of(0), IntervalValue.of(1), next(sides)),
    )
    report = lemma.check_lemma21(SATISFYING[0])
    assert (report.verdict.state, report.verdict.margin) == (state, margin)
    assert next(sides, None) is None


# ---------------------------------------------------------------------------
# the force-l-equals-delta test

def test_check22_pinned_boundary():
    holds = lemma.check_lemma22(500000, 587)
    assert holds.verdict.state == HOLDS
    assert holds.comparisons[0].lhs.hi < 1
    assert holds.notes == ""

    fails = lemma.check_lemma22(500000, 588)
    assert fails.verdict.state == FAILS
    assert fails.comparisons[0].lhs.lo > 1
    assert fails.notes == ""


def test_check22_gating():
    report = lemma.check_lemma22(1000, 5)
    assert report.verdict.state == INDETERMINATE
    assert not report.hypotheses["scale"]
    report2 = lemma.check_lemma22(500000, 0)
    assert not report2.hypotheses["k_range"]


def test_scale_floor_is_500000_at_every_site():
    # the scale hypothesis, check22's gate and the section5 thresholds
    assert not ParamTuple(0, 499999, 1, 2, 1).scale_ok
    assert ParamTuple(0, 500000, 1, 2, 1).scale_ok
    below = lemma.check_lemma22(499999, 587)
    assert below.verdict.state == INDETERMINATE
    assert below.hypotheses == {"scale": False, "k_range": True}
    assert lemma.check_lemma22(500000, 587).verdict.state == HOLDS
    with pytest.raises(ValueError, match="n must be >= 500000, got 499999"):
        bounds.section5_thresholds(499999, 0.5)
    assert bounds.section5_thresholds(500000, 0.5).lo > 0


# ---------------------------------------------------------------------------
# window smoothness

def test_check23_holds_on_true_collisions():
    for t in SATISFYING + [ParamTuple(0, 5, 1, 3, 11), ParamTuple(0, 5, 2, 3, 6)]:
        report = lemma.check_lemma23_smooth(t)
        assert report.verdict.state == HOLDS, (t, report.notes)


def test_check23_pinned_notes():
    report = lemma.check_lemma23_smooth(ParamTuple(0, 7, 1, 2, 1))
    assert report.notes == "all 3 elements are 5-smooth (max prime factor 5); S1 offsets 1..1, S2 offsets 2..3"
    assert report.comparisons[0].rhs.lo == 5.0


def test_check23_gated_without_collision():
    report = lemma.check_lemma23_smooth(ParamTuple(0, 7, 1, 2, 2))
    assert report.verdict.state == INDETERMINATE


def test_check23_k0_below_two_fails_with_witness():
    # C(2, 2) = C(2, 0): elements [2, 1, 2], k0 = 1, and no prime is <= 1
    report = lemma.check_lemma23_smooth(ParamTuple(0, 1, -1, 1, 0))
    assert report.verdict.state == FAILS
    assert (report.comparisons[0].lhs.lo, report.comparisons[0].rhs.lo) == (2.0, 1.0)
    assert "element 2 has prime factor 2 > 1" in report.notes


def test_check23_k0_below_two_sweep():
    failed = vacuous = ones_failed = 0
    for delta, n, m, k, l in itertools.product((0, 1), range(40), range(-2, 40), range(-1, 2), range(3)):
        t = ParamTuple(delta, n, m, k, l)
        if t.k0 >= 2 or not check_eq12(t):
            continue
        s1, s2 = lemma.index_windows(t)
        elements = [t.n - i for i in s1] + [t.n + i for i in s2]
        if not elements:
            # every element of two empty windows is k0-smooth, whatever k0 is
            report = lemma.check_lemma23_smooth(t)
            assert report.verdict.state == HOLDS, t
            assert report.hypotheses == {"eq12": True}, t
            assert report.notes.startswith("both windows are empty"), t
            vacuous += 1
            continue
        big = [v for v in elements if v >= 2]
        if min(elements) < 1:
            continue
        report = lemma.check_lemma23_smooth(t)
        if not big:
            # all ones: the largest prime factor counts as 1, so only k0 < 1 fails
            assert report.verdict.state == (HOLDS if t.k0 >= 1 else FAILS), t
            if t.k0 < 1:
                # the notes say what the verdict used, not that the window is k0-smooth
                assert f"{t.k0}-smooth" not in report.notes, t
                assert report.notes.startswith(f"every element is 1, whose max prime factor counts as 1 > {t.k0};"), t
                ones_failed += 1
            continue
        assert report.verdict.state == FAILS, t
        least = min(p for p in range(2, big[0] + 1) if big[0] % p == 0)
        assert report.comparisons[0].lhs.lo == least, t
        failed += 1
    assert failed > 0
    assert vacuous > 0
    assert ones_failed > 0


# ---------------------------------------------------------------------------
# factorization size bound

def test_check31_exact_mode():
    report = lemma.check_lemma31(ParamTuple(0, 7, 1, 2, 1))
    assert report.verdict.state == HOLDS
    assert "pi(5) = 3 exact" in report.notes


def test_check31_dusart_mode():
    report = lemma.check_lemma31(ParamTuple(0, 7, 1, 2, 1), pi_mode="dusart")
    assert report.verdict.state == HOLDS


@pytest.mark.parametrize(
    "check, t, state, failed, note",
    [
        (lemma.check_lemma31, ParamTuple(0, 5, 0, 5, 1), INDETERMINATE, ["n_gt_k"], ""),
        (lemma.check_lemma31, ParamTuple(0, 10, 0, 1, 0), FAILS, [], "pi(k0) = 0 (k0 < 2)"),
        (lemma.section4_check, ParamTuple(0, 10, 0, 0, 0), INDETERMINATE,
         ["ordering", "scale", "cube"], ""),
    ],
    ids=["check31-n-not-above-k", "check31-k0-below-two", "section4-k-zero"],
)
def test_checker_edge_branches(check, t, state, failed, note):
    report = check(t)
    assert report.verdict.state == state
    assert [name for name, ok in report.hypotheses.items() if not ok] == failed
    assert report.notes == note


@pytest.mark.parametrize(
    "check, args",
    [
        (lemma.check_lemma21, (ParamTuple(0, 7, 1, 2, 2),)),
        (lemma.check_lemma22, (7, 2)),
        (lemma.check_lemma23_smooth, (ParamTuple(0, 7, 1, 2, 2),)),
        (lemma.check_lemma31, (ParamTuple(0, 5, 0, 5, 1),)),
        (lemma.section4_check, (ParamTuple(0, 7, 1, 2, 1),)),
    ],
    ids=["check21", "check22", "check23", "check31", "section4"],
)
def test_gated_report_evaluates_neither_side(check, args):
    # a gate stops the checker before either side: no placeholder enclosure,
    # and the report prints no comparison
    report = check(*args)
    assert not all(report.hypotheses.values())
    assert (report.comparisons, report.verdict) == ((), Verdict(INDETERMINATE, 0.0))
    printed = json.dumps(cli._fields(report), separators=(",", ":"))
    assert '"comparisons":[],"verdict":{"state":"INDETERMINATE","margin":0.0}' in printed


def test_check31_decides_a_side_of_exactly_zero():
    # k - m = 0 and l + k - m0 = 1: log 0! and log 1! are exactly 0, and so is
    # each side, so 0 <= 0 holds once escalation sees them as exact zeros
    for mode in ("exact", "dusart"):
        report = lemma.check_lemma31(ParamTuple(0, 2, 1, 1, 0), pi_mode=mode)
        assert report.verdict.state == HOLDS, mode


@pytest.mark.parametrize(
    "t, expected",
    [
        (SATISFYING[0], [IntervalValue]),
        (ParamTuple(0, 2, 1, 1, 0), [IntervalValue, intervals.PreciseContext]),
    ],
    ids=["binary64", "escalated"],
)
def test_check31_builds_lemma31_sides_once_per_context(monkeypatch, t, expected):
    # both sides come from one (c, r): once in binary64, once more on escalation
    contexts = []
    plain = lemma._lemma31_sides

    def counting(cx, *args):
        contexts.append(cx if cx is IntervalValue else type(cx))  # the binary64 context is the class
        return plain(cx, *args)

    monkeypatch.setattr(lemma, "_lemma31_sides", counting)
    assert lemma.check_lemma31(t).verdict.state == HOLDS
    assert contexts == expected


def test_check31_rejects_unknown_mode():
    with pytest.raises(ValueError):
        lemma.check_lemma31(ParamTuple(0, 7, 1, 2, 1), pi_mode="table")


def test_check31_holds_on_satisfying_tuples():
    for t in SATISFYING:
        for mode in ("exact", "dusart"):
            report = lemma.check_lemma31(t, pi_mode=mode)
            assert report.verdict.state == HOLDS, (t, mode, report.notes)


@pytest.mark.parametrize("mode", lemma.PI_MODES)
def test_check31_right_side_contains_robbins_hull_value(mode):
    # k - m = 300 and l + k - m0 = 303 lie past 170, where log nu! is
    # Robbins's hull; the right side still holds the 50-digit value
    report = lemma.check_lemma31(ParamTuple(0, 10**6, 100, 400, 3), pi_mode=mode)
    assert report.verdict.state == FAILS
    with mpmath.workdps(50):
        k0 = mpmath.mpf(805)
        if mode == "exact":
            pi = mpmath.mpf(139)  # pi(805)
        else:
            el = mpmath.log(k0)
            pi = k0 / el * (1 + 1 / el + 2 / el**2 + mpmath.mpf("7.59") / el**3)
        rhs = pi * mpmath.log(803) + mpmath.loggamma(301) + mpmath.loggamma(304)
        side = report.comparisons[0].rhs
        assert mpmath.mpf(side.lo) <= rhs <= mpmath.mpf(side.hi)


# each builder as (build(cx, args), the range each argument's box is drawn from)
_ISOTONE_BUILDERS = {
    "pi_upper_dusart_expr": (lambda cx, a: bounds.pi_upper_dusart_expr(cx, a[0]), [(2.0, 1e12)]),
    "log_g_upper_expr": (lambda cx, a: bounds.log_g_upper_expr(cx, a[0]), [(1e-3, 1e12)]),
    "central_binom_lower_expr": (lambda cx, a: bounds.central_binom_lower_expr(cx, a[0]), [(1.0, 1e12)]),
    # v, c
    "section5_l0_expr": (lambda cx, a: bounds.section5_l0_expr(cx, *a), [(5e5, 1e12), (1e-3, 0.68)]),
    # excess, pi, base, log_f1, log_f2
    **{
        f"lemma31_sides[{i}]": (
            lambda cx, a, i=i: lemma._lemma31_sides(cx, *a)[i],
            [(-1e6, 1e6), (0.0, 1e5), (1.0, 1e7), (0.0, 1e7), (0.0, 1e7)],
        )
        for i in (0, 1)
    },
}


@pytest.mark.parametrize("precise", [False, True], ids=["binary64", "mpmath"])
@pytest.mark.parametrize("name", list(_ISOTONE_BUILDERS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_builders_are_inclusion_isotone(name, precise, data):
    # the enclosure over a box contains the enclosure at any point inside it,
    # which subdividing a box into smaller ones rests on
    build, ranges = _ISOTONE_BUILDERS[name]
    boxes = [
        data.draw(st.lists(st.floats(lo, hi), min_size=3, max_size=3).map(sorted)) for lo, hi in ranges
    ]
    over_box = evaluate(lambda cx: build(cx, [cx.of(IntervalValue(b[0], b[2])) for b in boxes]), precise)
    at_point = evaluate(lambda cx: build(cx, [cx.of(b[1]) for b in boxes]), precise)
    assert over_box.lo <= at_point.lo and at_point.hi <= over_box.hi


# ---------------------------------------------------------------------------
# the threshold crossover

def test_lemma32_expression_signs():
    pos = lemma.lemma32_expression(10**5)
    neg = lemma.lemma32_expression(2 * 10**6)
    assert pos.lo > 0
    assert neg.hi < 0


def test_lemma32_expression_refuses_f_below_three():
    with pytest.raises(ValueError, match="F must be >= 3, got 2"):
        lemma.lemma32_expression(2)


def test_lemma32_expression_precise_path():
    f64 = lemma.lemma32_expression(871155)
    mp = lemma.lemma32_expression(871155, precise=True)
    assert width(mp) < width(f64)
    # the whole expression is re-evaluated in mpmath, not only its pieces
    assert width(mp) < 1e-12
    assert f64.lo <= mp.lo <= mp.hi <= f64.hi


def test_threshold32_pinned():
    th = lemma.threshold_lemma32()
    assert th.f_star == 871155
    assert th.value_at.lo >= 0
    assert th.value_next.hi < 0


def test_threshold32_rejects_windows_without_sign_change(monkeypatch):
    # the bracket is a constant; the guard on its ends still fires
    for lo, hi in ((5 * 10**6, 10**7), (10**4, 10**5)):  # negative, then positive, at both ends
        monkeypatch.setattr(lemma, "_THRESHOLD32_BRACKET", (lo, hi))
        with pytest.raises(ValueError, match=f"no certified sign change over \\[{lo}, {hi}\\]"):
            lemma.threshold_lemma32()


# ---------------------------------------------------------------------------
# the n-bound grid

def test_gridconfig_validation():
    with pytest.raises(ValueError):
        lemma.GridConfig(pi_mode="estimate")
    # the grid's start, growth and l sample count are constants, not fields
    for field in ("k_min", "growth", "l_samples"):
        with pytest.raises(TypeError):
            lemma.GridConfig(**{field: 1})


def test_gridconfig_refuses_grids_that_leave_their_range():
    # either end of the dense band below K_MIN would leave the paper's k >= 588
    with pytest.raises(ValueError, match="k_max must be >= K_MIN = 588, got 587"):
        lemma.GridConfig(k_max=K_MIN - 1)
    with pytest.raises(ValueError, match="dense_until must be >= K_MIN = 588, got 587"):
        lemma.GridConfig(k_max=800, dense_until=K_MIN - 1)
    g = lemma.GridConfig(k_max=K_MIN, dense_until=K_MIN)
    assert g.k_values() == [K_MIN]
    assert g.l_values(K_MIN) == [1]


def test_nmax31_ties_go_to_the_smallest_k_l(monkeypatch):
    monkeypatch.setattr(lemma, "_nmax_point", lambda *args: 1.5)
    g = lemma.GridConfig(k_max=2000, dense_until=800)
    rep = lemma.nmax_lemma31(g)
    assert (rep.argmax_k, rep.argmax_l) == (K_MIN, 1)
    assert rep.log_n_max == 1.5
    assert rep.points == sum(len(g.l_values(k)) for k in g.k_values())


def test_gridconfig_k_values_cover_band():
    g = lemma.GridConfig(k_max=1000, dense_until=600)
    ks = g.k_values()
    assert ks[:13] == list(range(K_MIN, 601))
    assert ks[13:15] == [606, 613]  # then by the factor 1.01, rounded up
    assert ks[-1] == 1000
    assert ks == sorted(set(ks))


def test_gridconfig_l_values():
    g = lemma.GridConfig()
    assert g.l_values(588) == [1]
    ls = g.l_values(800000)         # cap 2168, subsampled
    assert len(ls) <= lemma._GRID_L_SAMPLES
    assert ls[0] == 1 and ls[-1] == math.floor(L_RATIO * 800000) == 2168


# ---------------------------------------------------------------------------
# the typed-in defaults against what they are derived from

def test_grid_k_min_is_where_lemma22_stops_forcing_l_equal_delta():
    assert lemma.check_lemma22(500000, K_MIN - 1).verdict.holds
    assert lemma.check_lemma22(500000, K_MIN).verdict.fails
    assert lemma.GridConfig().k_values()[0] == K_MIN


def test_grid_k_max_is_the_lemma32_threshold():
    # criterion 07 bounds F* only within 200 of 871155
    assert lemma.GridConfig().k_max == lemma.threshold_lemma32().f_star


def test_certificate_window_len_is_the_shortest_s1_at_k_min():
    # S1 holds the k - m values n - m .. n - k + 1; m <= 0.735 k is ratio_ok
    s1_lengths = [
        len(lemma.index_windows(t)[0])
        for m in range(K_MIN)
        if (t := ParamTuple(0, 10**6, m, K_MIN, 1)).ratio_ok
    ]
    assert min(s1_lengths) == 588 - 432 == CertificateConfig().window_len


def test_nmax31_small_grid_pinned():
    g = lemma.GridConfig(k_max=1000, dense_until=1000)
    rep = lemma.nmax_lemma31(g)
    assert (rep.argmax_k, rep.argmax_l) == (588, 1)
    assert 2.8e10 < rep.n_max < 3.0e10
    assert rep.skipped == 0
    assert rep.claimed_bound == 31754673611


def test_nmax31_exact_pi_never_exceeds_dusart_bound():
    g_ex = lemma.GridConfig(k_max=700, dense_until=700, pi_mode="exact")
    g_du = lemma.GridConfig(k_max=700, dense_until=700, pi_mode="dusart")
    assert lemma.nmax_lemma31(g_ex).n_max <= lemma.nmax_lemma31(g_du).n_max


def test_nmax31_raises_when_every_point_degenerates(monkeypatch):
    # below the grid, at k = 3, the denominator 0.53k + l - 1 - pi is not positive
    arg1 = (1 - M_RATIO) * 3
    f_arg1, k_excess = bounds.f_stirling(arg1), IntervalValue.of(2 * arg1)
    assert lemma._nmax_point(3, 1, bounds.pi_upper_dusart(7), arg1, f_arg1, k_excess) is None
    monkeypatch.setattr(lemma, "_nmax_point", lambda *args: None)
    with pytest.raises(ArithmeticError, match="every grid point had a nonpositive denominator"):
        lemma.nmax_lemma31(lemma.GridConfig(k_max=700, dense_until=600))


# ---------------------------------------------------------------------------
# section4_check

@pytest.mark.parametrize("k", [1, 588, 99999, 2**53 + 1, 10**300])
def test_section4_contradiction_matches_the_int_formula(k):
    # each float op rounds its int operand k to binary64, as float(k) does
    lhs = 4.6623 * k - 1.8344 - math.log(k)
    rhs = 1.0433 * k + 3.13 * k**0.75
    c = lemma.section4_contradiction(k)
    assert (repr(c.lhs), repr(c.rhs), c.contradiction) == (repr(lhs), repr(rhs), lhs > rhs)
    # the point is its k, and its verdict is the bool lhs > rhs
    assert c == k == c.k and type(c.k) is int and isinstance(c, int)
    assert c.contradiction is (lhs > rhs)
    restored = pickle.loads(pickle.dumps(c))
    assert (restored, type(restored), restored.contradiction) == (c, type(c), c.contradiction)
    # a point built by hand claims no verdict
    with pytest.raises(AttributeError):
        lemma.Section4Contradiction(k).contradiction


def test_section4_sweep_points_retain_at_most_64_bytes():
    # a point is an int whose value is k: over 20,000 points at k >= 10^6 it
    # retains about 57 B with its list slot, where a two-slot record with its
    # int k retained about 89 B and one that also kept both sides about 153 B
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = [lemma.section4_contradiction(k) for k in range(10**6, 10**6 + 20000)]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(r.contradiction for r in records)
    assert retained / len(records) <= 64


def test_section4_contradiction_takes_only_an_integer_k():
    # a point is an int, so a float k, which it would truncate, is refused
    for k in (588.5, 588.0):
        with pytest.raises(TypeError):
            lemma.section4_contradiction(k)
    c = lemma.section4_contradiction(np.int64(588))
    assert (c, type(c.k), c.contradiction) == (588, int, True)


def test_section4_contradiction_refuses_k_past_binary64():
    # k is any int, and float(k) has no binary64 value past about 1.8e308
    with pytest.raises(OverflowError):
        lemma.section4_contradiction(10**400)


@pytest.mark.parametrize("k", [179 * 10**306, 4 * 10**307], ids=["both-sides-inf", "lhs-inf"])
def test_section4_contradiction_refuses_k_whose_sides_overflow(k):
    # float(k) exists, but 4.6623 float(k) does not: no side of an inf to read
    assert not all(map(math.isfinite, lemma._section4_sides(float(k))))
    with pytest.raises(OverflowError, match="overflows"):
        lemma.section4_contradiction(k)


def test_section4_overflow_bound_is_the_last_k_with_finite_sides():
    k_max = lemma._SECTION4_K_MAX
    c = lemma.section4_contradiction(k_max)
    assert math.isfinite(c.lhs) and math.isfinite(c.rhs) and c.contradiction
    assert not all(map(math.isfinite, lemma._section4_sides(float(k_max + 1))))
    with pytest.raises(OverflowError):
        lemma.section4_contradiction(k_max + 1)


def test_section4_certified_verdict_is_the_float_rule():
    # the verdict the float sides gave when the call still decided from them:
    # every k to 10^5, then 2,000 seeded k spread over the decades up to the bound
    rng = random.Random(45)
    spread = [rng.randint(1, min(lemma._SECTION4_K_MAX, 10 ** rng.randint(1, 308))) for _ in range(2000)]
    for k in itertools.chain(range(1, 10**5 + 1), spread):
        c = lemma.section4_contradiction(k)
        assert c.contradiction is (c.lhs > c.rhs), k


def test_section4_verdict_is_certified_once_and_evaluates_no_side(monkeypatch):
    k0, proof = lemma._section4_threshold()
    # D'(1) > 0, D(2) < 0 and D(3) > 0, each decided by certified_less
    assert k0 == lemma._SECTION4_K0 == 3 and len(proof) == 3
    assert all(type(c) is Comparison and c.verdict.state == HOLDS for c in proof)
    assert [c.lhs.lo == c.lhs.hi == 0.0 for c in proof] == [True, False, True]
    assert contains(proof[0].rhs, Fraction("0.2715"))

    def margin(x):
        return float(mpmath.mpf("3.619") * x - mpmath.mpf("1.8344") - mpmath.log(x) - mpmath.mpf("3.13") * mpmath.mpf(x) ** 0.75)

    assert (mid(proof[1].lhs), mid(proof[2].rhs)) == pytest.approx((margin(2), margin(3)), abs=1e-12)
    monkeypatch.setattr(lemma, "_section4_sides", None)
    assert [lemma.section4_contradiction(k).contradiction for k in (1, 2, 3, 588)] == [False, False, True, True]


def test_section4_threshold_is_computed_from_the_constants(monkeypatch):
    # the certified decimals are the float literals the sides are read with
    a, b, c, d = map(float, lemma._SECTION4_CONSTANTS)
    for x in (1.0, 3.0, 588.0, 1e300):
        assert lemma._section4_sides(x) == (a * x - b - math.log(x), c * x + d * x**0.75)
    # a planted margin of 8.0 moves the sign change from 2..3 to 6..7
    monkeypatch.setattr(lemma, "_SECTION4_CONSTANTS", ("4.6623", "8.0", "1.0433", "3.13"))
    k0, proof = lemma._section4_threshold()
    assert k0 == 7 and all(c.verdict.state == HOLDS for c in proof)
    # a slope of 3.3 leaves D'(1) < 0, which certifies no threshold
    monkeypatch.setattr(lemma, "_SECTION4_CONSTANTS", ("4.3433", "1.8344", "1.0433", "3.13"))
    with pytest.raises(ArithmeticError, match="not certified to rise"):
        lemma._section4_threshold()


def test_section4_check_gated_on_small_tuple():
    report = lemma.section4_check(ParamTuple(0, 7, 1, 2, 1))
    assert report.verdict.state == INDETERMINATE
    assert [name for name, ok in report.hypotheses.items() if not ok] == ["l_small", "scale"]
    assert report.notes == ""


def test_section4_check_incompatible_at_scale():
    t = ParamTuple(0, 10**6, 7000, 10000, 2)
    report = lemma.section4_check(t)
    assert all(report.hypotheses.values()), report.hypotheses
    assert report.verdict.state == FAILS
    assert report.notes == ""


def test_section4_contradiction_pinned():
    c = lemma.section4_contradiction(588)
    assert c.contradiction
    assert c.lhs == pytest.approx(2733.22, abs=0.01)
    assert c.rhs == pytest.approx(987.21, abs=0.01)
    c1 = lemma.section4_contradiction(1)
    assert not c1.contradiction
    assert c1.lhs == pytest.approx(2.8279, abs=1e-3)
    assert c1.rhs == pytest.approx(4.1733, abs=1e-3)
    with pytest.raises(ValueError):
        lemma.section4_contradiction(0)


# ---------------------------------------------------------------------------
# section5_check

def test_section5_pinned():
    rep = lemma.section5_check(10**9, 0.68)
    assert rep.verdict.state == HOLDS
    assert rep.l0 == rep.t_pow.lo
    [c] = rep.comparisons
    assert c.lhs.hi < c.rhs.lo
    assert (c.lhs.lo, c.lhs.hi) == (1081680823.0231318, 1081680823.0231931)
    assert mid(c.lhs) == pytest.approx(1.081e9, rel=1e-3)
    assert mid(c.rhs) == pytest.approx(1.3132e9, rel=1e-3)


def test_section5_report_reads_as_the_benchmark_reads_it():
    # the checkers workload reads n, l0 and verdict.state, and no other field
    rep = lemma.section5_check(10**9, 0.68)
    n, l0, state = rep.n, rep.l0, rep.verdict.state
    assert (n, state) == (10**9, HOLDS)
    assert type(l0) is float and l0.hex() == rep.t_pow.lo.hex() == bounds.section5_thresholds(10**9, 0.68).lo.hex()
    assert l0 == 207151019659108.94
    # l0 is a read-only property; a frozen slots dataclass refuses the write
    # with TypeError or AttributeError, depending on the Python version
    with pytest.raises((TypeError, AttributeError)):
        rep.l0 = 0.0
    assert rep.l0 == rep.t_pow.lo


def _section5_lhs(n, c):
    """(2n + l0)^(21/40) log(2n + l0) at the exact l0 = (cn/log n)^(40/21)."""
    l0 = (mpmath.mpf(c) * n / mpmath.log(n)) ** (mpmath.mpf(40) / 21)
    base = 2 * n + l0
    return base ** (mpmath.mpf(21) / 40) * mpmath.log(base)


def test_section5_lhs_encloses_value_at_exact_l0():
    n, c = 10**9, 0.68
    rep = lemma.section5_check(n, c)
    with mpmath.workdps(50):
        exact = _section5_lhs(n, c)
        assert rep.comparisons[0].lhs.lo <= exact <= rep.comparisons[0].lhs.hi
    assert rep.l0 == rep.t_pow.lo


@pytest.mark.parametrize("n, c", [(10**6, 0.5), (10**9, 0.68), (10**12, 0.3), (10**100, 0.6)])
def test_section5_l0_is_a_lower_end(n, c):
    # the printed l0 lies at or below the exact (cn/log n)^(40/21), which
    # t_pow encloses, so HOLDS excludes every l <= l0 as printed
    rep = lemma.section5_check(n, c)
    with mpmath.workdps(60):
        exact = (mpmath.mpf(c) * n / mpmath.log(n)) ** (mpmath.mpf(40) / 21)
        assert rep.l0 <= exact
        assert rep.t_pow.lo <= exact <= rep.t_pow.hi


def test_section5_rejects_c_at_or_above_star():
    with pytest.raises(ValueError):
        lemma.section5_check(10**9, 0.69)
    with pytest.raises(ValueError):
        lemma.section5_check(10**9, 0.68943)


# ---------------------------------------------------------------------------
# the power builders in the mpmath context

def _central_binom_rate():
    r = 2 / mpmath.mpf("0.735")
    return mpmath.log(r * r / (r - 1) ** mpmath.mpf("1.265"))


def _section4_upper(k0):
    return (k0 + 3 * mpmath.mpf(k0) ** mpmath.mpf("0.75")) * mpmath.log(mpmath.mpf("2.83"))


_SECTION4_TUPLE = ParamTuple(0, 10**6, 7000, 10000, 2)


@pytest.mark.parametrize(
    "module, call, side, exact",
    [
        (lemma, lambda: lemma.section5_check(10**9, 0.68), 0, lambda: _section5_lhs(10**9, 0.68)),
        (lemma, lambda: lemma.section5_check(123456789, 0.6), 0, lambda: _section5_lhs(123456789, 0.6)),
        (oracles, oracles.central_binom_constant_check, 1, _central_binom_rate),
        (lemma, lambda: lemma.section4_check(_SECTION4_TUPLE), 1, lambda: _section4_upper(_SECTION4_TUPLE.k0)),
    ],
    ids=["section5-lhs-1e9", "section5-lhs-123456789", "central-binom-rate", "section4-upper"],
)
def test_power_builders_precise_enclose_mpmath(monkeypatch, module, call, side, exact):
    # each builder raises a context value to a context exponent; take the
    # checker's certified_less builder and run its side in the mpmath context
    builders = []
    plain = module.certified_less

    def spy(build, strict=True):
        builders.append(build)
        return plain(build, strict)

    monkeypatch.setattr(module, "certified_less", spy)
    call()
    iv = evaluate(lambda cx: builders[0](cx)[side], precise=True)
    with mpmath.workdps(80):
        value = exact()
        assert mpmath.mpf(iv.lo) <= value <= mpmath.mpf(iv.hi)
    assert width(iv) <= 1e-12 * abs(mid(iv))


@pytest.mark.parametrize(
    "call",
    [
        lambda: lemma.check_lemma21(SATISFYING[0]),  # C(15,5) = C(14,6)
        lambda: lemma.check_lemma22(500000, 588),
        lambda: lemma.check_lemma23_smooth(SATISFYING[0]),
        lambda: lemma.check_lemma31(SATISFYING[0], pi_mode="exact"),
        lambda: lemma.check_lemma31(SATISFYING[0], pi_mode="dusart"),
        lambda: lemma.section4_check(_SECTION4_TUPLE),
        lambda: lemma.section5_check(10**9, 0.68),
    ],
    ids=["check21", "check22", "check23", "check31-exact", "check31-dusart", "section4", "section5"],
)
def test_every_checker_verdict_comes_from_certified_less(monkeypatch, call):
    returns = []
    plain = lemma.certified_less

    def spy(build, strict=True):
        returns.append(plain(build, strict))
        return returns[-1]

    monkeypatch.setattr(lemma, "certified_less", spy)
    report = call()
    verdicts = [decided.verdict for decided in returns]
    assert report.verdict.decided
    # check21 joins two verdicts; its margin is the smaller of the two
    assert report.verdict in verdicts
    assert len(report.comparisons) == len(returns)
    assert all(shown is decided for shown, decided in zip(report.comparisons, returns))
    assert report.verdict == _join(verdicts)


# every criterion-13 case that prints a LemmaReport, and a gated case of each checker
_REPORT_ARGVS = list(dict.fromkeys(
    tuple(argv) for argv in CRITERION_13_CASES + [argv for argv, _, _ in CRITERION_13_PINNED]
    if argv[0] == "lemma" and argv[1] in ("check21", "check22", "check23", "check31", "section4", "section5")
)) + [
    ("lemma", "check21", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "2"),
    ("lemma", "check22", "--n", "7", "--k", "2"),
    ("lemma", "check23", "--delta", "0", "--n", "7", "--m", "1", "--k", "2", "--l", "2"),
    ("lemma", "check31", "--delta", "0", "--n", "5", "--m", "0", "--k", "5", "--l", "1"),
    ("lemma", "section4", "--delta", "0", "--n", "10", "--m", "0", "--k", "0", "--l", "0"),
]


@pytest.mark.parametrize(
    "argv", _REPORT_ARGVS, ids=["-".join(a for a in argv[1:] if not a.startswith("--")) for argv in _REPORT_ARGVS],
)
def test_a_report_states_each_fact_once(capsys, monkeypatch, argv):
    # the verdict and the hypotheses are fields, so no note restates them:
    # only check23 (its windows and witness) and check31 (how it took pi(k0))
    # write one, and each comparison is the record certified_less returned
    reports, returns = [], []
    plain_fields, plain_less = cli._fields, lemma.certified_less

    def fields(result, *drop):
        if isinstance(result, lemma.LemmaReport):
            reports.append(result)
        return plain_fields(result, *drop)

    def spy(build, strict=True):
        returns.append(plain_less(build, strict))
        return returns[-1]

    monkeypatch.setattr(cli, "_fields", fields)
    monkeypatch.setattr(lemma, "certified_less", spy)
    cli.main(list(argv))
    [report] = reports
    assert json.loads(capsys.readouterr().out)["report"]["notes"] == report.notes
    assert bool(report.notes) == (report.lemma in ("lemma23", "lemma31") and all(report.hypotheses.values()))
    assert bool(report.comparisons) == all(report.hypotheses.values())
    assert len(report.comparisons) == len(returns)
    assert all(shown is decided for shown, decided in zip(report.comparisons, returns))


def _join(verdicts):
    """The join LemmaReport documents, written out: FAILS if any fails, else HOLDS if all hold."""
    if any(v.fails for v in verdicts):
        return Verdict(FAILS, min(v.margin for v in verdicts if v.fails))
    if verdicts and all(v.holds for v in verdicts):
        return Verdict(HOLDS, min(v.margin for v in verdicts))
    return Verdict(INDETERMINATE, min((v.margin for v in verdicts), default=0.0))


@given(st.lists(st.tuples(st.sampled_from([HOLDS, FAILS, INDETERMINATE]), st.floats(allow_nan=False)), max_size=4))
@example([])
@example([(HOLDS, 1.0), (INDETERMINATE, -0.5)])
@example([(HOLDS, 1.0), (FAILS, 2.0)])
def test_report_verdict_is_the_join_of_its_comparisons(pairs):
    verdicts = [Verdict(*pair) for pair in pairs]
    comparisons = tuple(Comparison(IntervalValue.of(0), IntervalValue.of(1), v) for v in verdicts)
    verdict = lemma.LemmaReport("lemma", {}, comparisons, "").verdict
    assert verdict == _join(verdicts)
    # the examples, pinned
    pinned = {
        (): Verdict(INDETERMINATE, 0.0),
        ((HOLDS, 1.0), (INDETERMINATE, -0.5)): Verdict(INDETERMINATE, -0.5),
        ((HOLDS, 1.0), (FAILS, 2.0)): Verdict(FAILS, 2.0),
    }
    if tuple(pairs) in pinned:
        assert verdict == pinned[tuple(pairs)]


def test_report_verdict_is_no_argument_and_stays_the_join():
    # the join is the only way a verdict gets into a report, section5's included
    comparisons = (Comparison(IntervalValue.of(0), IntervalValue.of(1), Verdict(HOLDS, 1.0)),)
    for report_type, extra in (
        (lemma.LemmaReport, {}),
        (lemma.Section5Report, {"n": 10**9, "t_pow": IntervalValue.of(2)}),
    ):
        with pytest.raises(TypeError):
            report_type("lemma", {}, comparisons, "", verdict=Verdict(FAILS, 1.0), **extra)
        with pytest.raises(TypeError):
            report_type("lemma", {}, comparisons, Verdict(FAILS, 1.0), "", **extra)
        report = report_type("lemma", {}, comparisons, "", **extra)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.verdict = Verdict(FAILS, 1.0)
        assert report.verdict == Verdict(HOLDS, 1.0), report_type


def test_section5_report_takes_n_and_t_pow_by_keyword_only():
    comparisons = (Comparison(IntervalValue.of(0), IntervalValue.of(1), Verdict(HOLDS, 1.0)),)
    with pytest.raises(TypeError):
        lemma.Section5Report("section5", {}, comparisons, "", 10**9, IntervalValue.of(2))
    report = lemma.Section5Report("section5", {}, comparisons, n=10**9, t_pow=IntervalValue(2.0, 3.0))
    assert (report.notes, report.l0) == ("", 2.0)
    assert [f.name for f in dataclasses.fields(report)] == [
        "lemma", "hypotheses", "comparisons", "verdict", "notes", "n", "t_pow",
    ]


# ---------------------------------------------------------------------------
# report plumbing

def test_lemma_report_json_shape(capsys):
    assert cli.main(["lemma", "check22", "--n", "500000", "--k", "587"]) == 0
    payload = json.loads(capsys.readouterr().out)["report"]
    assert list(payload) == ["lemma", "hypotheses", "comparisons", "verdict", "notes"]
    assert list(payload["verdict"]) == ["state", "margin"]
    assert payload["verdict"]["state"] == "HOLDS"
    [comparison] = payload["comparisons"]
    assert list(comparison) == ["lhs", "rhs", "verdict"]
    assert comparison["lhs"][0] <= comparison["lhs"][1]
    assert payload["notes"] == ""
