"""Lemma checkers: gating, certified verdicts, thresholds, grids."""

import itertools
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisionlab import lemma
from collisionlab.collision import ParamTuple, check_eq12
from collisionlab.intervals import FAILS, HOLDS, INDETERMINATE, IntervalValue, Verdict, evaluate
import oracles
from oracles import contains, mid, product_identity_check, width

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
    s1_shifted, _ = lemma.index_windows(t, shifted_s1=True)
    assert [t.n - i for i in s1_shifted] == [5]


def test_product_identity_pinned():
    # 6 * 15 = 9 * 10 for the C(15,5) = C(14,6) pair
    assert product_identity_check(ParamTuple(0, 7, 1, 2, 1))
    assert not product_identity_check(ParamTuple(0, 7, 1, 2, 2))


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
    # first inequality: log(15/10) vs 4/5; report carries that pair
    assert mid(report.lhs) == pytest.approx(math.log(1.5), abs=1e-12)
    assert contains(report.rhs, 0.8)
    assert report.verdict.margin == pytest.approx(0.108499, abs=1e-5)
    assert "shifted-numerator variant" in report.notes


def test_check21_gated_by_ordering():
    report = lemma.check_lemma21(ParamTuple(0, 5, 1, 3, 11))
    assert report.verdict.state == INDETERMINATE
    assert "hypotheses not met" in report.notes
    assert "ordering" in report.notes
    assert not report.hypotheses["ordering"]


def test_check21_gated_by_eq12():
    report = lemma.check_lemma21(ParamTuple(0, 7, 1, 2, 2))
    assert report.verdict.state == INDETERMINATE
    assert not report.hypotheses["eq12"]


def test_check21_gate_lists_every_failed_hypothesis():
    # C(16,5) = C(16,5) trivially, but m = k and l = delta
    report = lemma.check_lemma21(ParamTuple(0, 8, 3, 3, 0))
    assert report.verdict.state == INDETERMINATE
    assert "ordering" in report.notes and "l_gt_delta" in report.notes


def test_check21_fails_on_the_failing_side(monkeypatch):
    # not a collision, let through the eq12 gate: 50 log(250/152) is far above 4/98
    monkeypatch.setattr(lemma, "check_eq12", lambda t: True)
    report = lemma.check_lemma21(ParamTuple(0, 100, 1, 2, 50))
    assert report.verdict.state == FAILS
    assert report.verdict.margin == report.lhs.lo - report.rhs.hi
    assert report.notes.startswith("first: FAILS")


@pytest.mark.parametrize(
    "first, second, state, margin",
    [
        ((HOLDS, 1.0), (INDETERMINATE, -0.5), INDETERMINATE, -0.5),
        ((INDETERMINATE, -0.5), (FAILS, 2.0), FAILS, 2.0),
        ((FAILS, 3.0), (FAILS, 2.0), FAILS, 2.0),
    ],
)
def test_check21_verdict_ladder(monkeypatch, first, second, state, margin):
    sides = iter([Verdict(*first), Verdict(*second)])
    monkeypatch.setattr(
        lemma, "certified_less",
        lambda lhs, rhs, strict=True: (next(sides), IntervalValue.of(0), IntervalValue.of(1)),
    )
    report = lemma.check_lemma21(SATISFYING[0])
    assert (report.verdict.state, report.verdict.margin) == (state, margin)


# ---------------------------------------------------------------------------
# the force-l-equals-delta test

def test_check22_pinned_boundary():
    holds = lemma.check_lemma22(500000, 587)
    assert holds.verdict.state == HOLDS
    assert holds.lhs.hi < 1
    assert holds.notes == "forces l = delta"

    fails = lemma.check_lemma22(500000, 588)
    assert fails.verdict.state == FAILS
    assert fails.lhs.lo > 1
    assert fails.notes == "does not force l = delta"


def test_check22_gating():
    report = lemma.check_lemma22(1000, 5)
    assert report.verdict.state == INDETERMINATE
    assert not report.hypotheses["scale"]
    report2 = lemma.check_lemma22(500000, 0)
    assert not report2.hypotheses["k_range"]


# ---------------------------------------------------------------------------
# window smoothness

def test_check23_holds_on_true_collisions():
    for t in SATISFYING + [ParamTuple(0, 5, 1, 3, 11), ParamTuple(0, 5, 2, 3, 6)]:
        report = lemma.check_lemma23_smooth(t)
        assert report.verdict.state == HOLDS, (t, report.notes)


def test_check23_pinned_notes():
    report = lemma.check_lemma23_smooth(ParamTuple(0, 7, 1, 2, 1))
    assert "all 3 elements are 5-smooth" in report.notes
    assert "S1 offsets 1..1" in report.notes
    assert "S2 offsets 2..3" in report.notes
    assert "shifted S1 window also smooth: yes" in report.notes
    assert report.rhs.lo == 5.0


def test_check23_gated_without_collision():
    report = lemma.check_lemma23_smooth(ParamTuple(0, 7, 1, 2, 2))
    assert report.verdict.state == INDETERMINATE


def test_check23_k0_below_two_fails_with_witness():
    # C(2, 2) = C(2, 0): elements [2, 1, 2], k0 = 1, and no prime is <= 1
    report = lemma.check_lemma23_smooth(ParamTuple(0, 1, -1, 1, 0))
    assert report.verdict.state == FAILS
    assert (report.lhs.lo, report.rhs.lo) == (2.0, 1.0)
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
        assert report.lhs.lo == least, t
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
    "check, t, state, note",
    [
        (lemma.check_lemma31, ParamTuple(0, 5, 0, 5, 1), INDETERMINATE, "hypotheses not met: n_gt_k"),
        (lemma.check_lemma31, ParamTuple(0, 10, 0, 1, 0), FAILS, "pi(k0) = 0 (k0 < 2)"),
        (lemma.section4_check, ParamTuple(0, 10, 0, 0, 0), INDETERMINATE,
         "hypotheses not met: ordering, scale, cube, k_positive"),
    ],
    ids=["check31-n-not-above-k", "check31-k0-below-two", "section4-k-zero"],
)
def test_checker_edge_branches(check, t, state, note):
    report = check(t)
    assert report.verdict.state == state
    assert note in report.notes


def test_check31_rejects_unknown_mode():
    with pytest.raises(ValueError):
        lemma.check_lemma31(ParamTuple(0, 7, 1, 2, 1), pi_mode="table")


def test_check31_holds_on_satisfying_tuples():
    for t in SATISFYING:
        for mode in ("exact", "dusart"):
            report = lemma.check_lemma31(t, pi_mode=mode)
            assert report.verdict.state == HOLDS, (t, mode, report.notes)


# ---------------------------------------------------------------------------
# the threshold crossover

def test_lemma32_expression_signs():
    pos = lemma.lemma32_expression(10**5)
    neg = lemma.lemma32_expression(2 * 10**6)
    assert pos.lo > 0
    assert neg.hi < 0


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


def test_threshold32_rejects_windows_without_sign_change():
    with pytest.raises(ValueError):
        lemma.threshold_lemma32(5 * 10**6, 10**7)   # negative at both ends
    with pytest.raises(ValueError):
        lemma.threshold_lemma32(10**4, 10**5)       # positive at both ends


# ---------------------------------------------------------------------------
# the n-bound grid

def test_gridconfig_validation():
    with pytest.raises(ValueError):
        lemma.GridConfig(k_min=2)
    with pytest.raises(ValueError):
        lemma.GridConfig(k_min=700, k_max=600)
    with pytest.raises(ValueError):
        lemma.GridConfig(growth=1.0)
    with pytest.raises(ValueError):
        lemma.GridConfig(pi_mode="estimate")


def test_gridconfig_refuses_grids_that_leave_their_range():
    # the geometric band would start at dense_until = 600, below k_min
    with pytest.raises(ValueError, match="dense_until"):
        lemma.GridConfig(k_min=700, k_max=800, dense_until=600, l_samples=4)
    # no l values at all: every point would vanish from the grid
    with pytest.raises(ValueError, match="l_samples"):
        lemma.GridConfig(l_samples=0)
    g = lemma.GridConfig(k_min=700, k_max=800, dense_until=700, l_samples=1)
    assert g.k_values()[0] == 700
    assert g.l_values(800000) == [1]


def test_nmax31_ties_go_to_the_smallest_k_l(monkeypatch):
    monkeypatch.setattr(lemma, "_nmax_point", lambda *args: 1.5)
    g = lemma.GridConfig(k_min=700, k_max=2000, dense_until=800, l_samples=4)
    rep = lemma.nmax_lemma31(g)
    assert (rep.argmax_k, rep.argmax_l) == (700, 1)
    assert rep.log_n_max == 1.5
    assert rep.points == sum(len(g.l_values(k)) for k in g.k_values())


def test_gridconfig_k_values_cover_band():
    g = lemma.GridConfig(k_min=588, k_max=1000, dense_until=600)
    ks = g.k_values()
    assert ks[0] == 588
    assert ks[-1] == 1000
    assert ks == sorted(set(ks))


def test_gridconfig_l_values():
    g = lemma.GridConfig()
    assert g.l_values(588) == [1]
    ls = g.l_values(800000)         # cap 2168, subsampled
    assert len(ls) <= g.l_samples
    assert ls[0] == 1 and ls[-1] == max(1, 271 * 800000 // 100000)


def test_nmax31_small_grid_pinned():
    g = lemma.GridConfig(k_min=588, k_max=1000, dense_until=1000, l_samples=16)
    rep = lemma.nmax_lemma31(g)
    assert (rep.argmax_k, rep.argmax_l) == (588, 1)
    assert 2.8e10 < rep.n_max < 3.0e10
    assert rep.skipped == 0
    assert rep.claimed_bound == 31754673611


def test_nmax31_exact_pi_never_exceeds_dusart_bound():
    g_ex = lemma.GridConfig(k_min=588, k_max=700, dense_until=700, l_samples=4, pi_mode="exact")
    g_du = lemma.GridConfig(k_min=588, k_max=700, dense_until=700, l_samples=4, pi_mode="dusart")
    assert lemma.nmax_lemma31(g_ex).n_max <= lemma.nmax_lemma31(g_du).n_max


def test_nmax31_raises_when_every_point_degenerates():
    g = lemma.GridConfig(k_min=3, k_max=3, dense_until=3, l_samples=1)
    with pytest.raises(ArithmeticError):
        lemma.nmax_lemma31(g)


# ---------------------------------------------------------------------------
# section4_check

def test_section4_check_gated_on_small_tuple():
    report = lemma.section4_check(ParamTuple(0, 7, 1, 2, 1))
    assert report.verdict.state == INDETERMINATE
    assert "hypotheses not met" in report.notes


def test_section4_check_incompatible_at_scale():
    t = ParamTuple(0, 10**6, 7000, 10000, 2)
    report = lemma.section4_check(t)
    assert all(report.hypotheses.values()), report.hypotheses
    assert report.verdict.state == FAILS
    assert "bounds incompatible: no such tuple exists" in report.notes
    assert "exact log product" in report.notes


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
    assert rep.l0 == rep.thresholds.t_pow
    assert rep.lhs.hi < rep.rhs.lo
    assert mid(rep.lhs) == pytest.approx(1.081e9, rel=1e-3)
    assert mid(rep.rhs) == pytest.approx(1.3132e9, rel=1e-3)


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
        assert rep.lhs.lo <= exact <= rep.lhs.hi
    assert rep.l0 == rep.thresholds.t_pow


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
    # each builder raises a context value to a context exponent; take it from
    # the checker's certified_less call and run it in the mpmath context
    builders = []
    plain = module.certified_less

    def spy(lhs, rhs, strict=True):
        builders.append((lhs, rhs))
        return plain(lhs, rhs, strict)

    monkeypatch.setattr(module, "certified_less", spy)
    call()
    iv = evaluate(builders[0][side], precise=True)
    with mpmath.workdps(80):
        value = exact()
        assert mpmath.mpf(iv.lo) <= value <= mpmath.mpf(iv.hi)
    assert width(iv) <= 1e-12 * abs(mid(iv))


# ---------------------------------------------------------------------------
# report plumbing

def test_lemma_report_json_shape(capsys):
    import json

    from collisionlab.cli import main

    assert main(["lemma", "check22", "--n", "500000", "--k", "587", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["report"]
    assert list(payload) == ["lemma", "hypotheses", "lhs", "rhs", "verdict", "notes"]
    assert payload["verdict"] == "HOLDS"
    assert payload["lhs"][0] <= payload["lhs"][1]


def test_lemma_report_text_shape():
    report = lemma.check_lemma22(500000, 587)
    text = report.to_text()
    assert text.splitlines()[0].startswith("lemma22: HOLDS")
    assert "lhs in [" in text
    assert "notes: forces l = delta" in text
