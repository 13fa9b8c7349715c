"""Certified analytic bounds: prime counting, Stirling, entropy floors."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collisionlab import bounds, collision, lemma, sieve
from collisionlab.intervals import HOLDS, evaluate
import oracles
from oracles import mid, pi_upper_dusart_floor


def test_pi_upper_dusart_pinned_values():
    iv = bounds.pi_upper_dusart(100)
    assert iv.lo <= 30.1655 and iv.hi >= 30.1654
    iv2 = bounds.pi_upper_dusart(1742310)
    assert 131100 <= iv2.lo <= iv2.hi <= 131200


def test_pi_upper_dusart_accepts_real_kinds():
    a = bounds.pi_upper_dusart(10**6)
    b = bounds.pi_upper_dusart(float(10**6))
    c = bounds.pi_upper_dusart("1000000")
    for iv in (b, c):
        assert abs(mid(iv) - mid(a)) < 1e-6


def test_pi_upper_dusart_rejects_tiny_x():
    for x in (1, 0, "1", "0.99999999999999999999"):
        for precise in (False, True):
            with pytest.raises(ValueError, match="x must exceed 1"):
                bounds.pi_upper_dusart(x, precise=precise)


def _pi_upper_60_digits(x: str):
    with mpmath.workdps(60):
        v = mpmath.mpf(x)
        el = mpmath.log(v)
        return (v / el) * (1 + 1 / el + 2 / el**2 + mpmath.mpf("7.59") / el**3)


@pytest.mark.parametrize("x", ["1.00000000000000000001", "1.0000000000000001"])
def test_pi_upper_dusart_checks_the_exact_x(x):
    # both round to binary64's 1.0 but exceed 1: mpmath encloses the bound,
    # and binary64 refuses the division by log x's enclosure, which holds 0
    iv = bounds.pi_upper_dusart(x, precise=True)
    assert mpmath.mpf(iv.lo) <= _pi_upper_60_digits(x) <= mpmath.mpf(iv.hi)
    with pytest.raises(ZeroDivisionError):
        bounds.pi_upper_dusart(x)


@pytest.mark.parametrize("fn", [bounds.pi_upper_dusart, bounds.log_g_lower, bounds.log_g_upper])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_domain_checks_refuse_nan_and_infinities(fn, value):
    with pytest.raises((ValueError, OverflowError)):
        fn(value)


def test_log_g_checks_the_exact_z():
    # 1e-400 rounds to 0.0 but exceeds 0: mpmath encloses log g-, binary64's
    # log refuses its 0 endpoint, and log g+'s 1/(12 z) overflows binary64
    iv = bounds.log_g_lower("1e-400", precise=True)
    assert -459.5148 < iv.lo <= iv.hi < -459.5147
    with pytest.raises(ValueError, match="strictly positive"):
        bounds.log_g_lower("1e-400")
    with pytest.raises(OverflowError):
        bounds.log_g_upper("1e-400", precise=True)


def test_pi_upper_dusart_precise_path_nested():
    f64 = bounds.pi_upper_dusart(10**8)
    mp = bounds.pi_upper_dusart(10**8, precise=True)
    assert f64.lo <= mp.lo <= mp.hi <= f64.hi


def test_pi_upper_dusart_floor_stays_inside_budget():
    xs = np.array([100.0, 10**4, 10**6, 10**8], dtype=np.float64)
    floors = pi_upper_dusart_floor(xs)
    for x, fl in zip(xs, floors):
        iv = bounds.pi_upper_dusart(float(x))
        assert fl <= iv.hi
        assert fl >= iv.lo * (1 - 1e-9)


def test_dusart_and_psi_premises_hold_over_the_n_bound_range():
    # nmax_lemma31 evaluates pi_upper_dusart at k0 = 2(k + l) - 1 up to its
    # largest grid point, past criterion 03's and 05's sweeps to 1e6
    grid = lemma.GridConfig()
    k0_max = 2 * (grid.k_max + math.floor(collision.L_RATIO * grid.k_max)) - 1
    assert k0_max == 1747029
    pi_t, _, psi_t = oracles.chebyshev_tables(k0_max)
    xs = np.arange(2, k0_max + 1, dtype=np.float64)
    floors = pi_upper_dusart_floor(xs)
    assert np.all(pi_t[2:] <= floors)
    assert np.all(psi_t[2:] < 1.03883 * xs)
    # re-certify the tightest pi-bar / pi point with the interval version
    tight = int(np.argmin(floors / pi_t[2:])) + 2
    assert bounds.pi_upper_dusart(tight).lo >= pi_t[tight]


def test_robbins_brackets_factorial():
    # past nu ~ 500 the bracket gap drops below binary64 interval width,
    # so the strict separation is only certifiable on this range
    for nu in (2, 5, 10, 100, 500):
        lower = bounds.log_g_lower(nu)
        upper = bounds.log_g_upper(nu)
        exact = math.lgamma(nu + 1)
        assert lower.hi < exact < upper.lo


@given(st.floats(min_value=0.5, max_value=1e7))
@settings(max_examples=200, deadline=None)
@example(0.5)
@example(1e7)
@example(0.265 * 588)  # f(0.265 k) at k = 588
def test_log_g_upper_majorizes_log_gamma_at_real_z(z):
    # Binet's formula gives log Gamma(z + 1) < log_g_upper(z) for every real
    # z > 0; the chain evaluates it at non-integers such as 0.265 k.  The gap
    # is about 1/(360 z^3), 2.8e-24 at 1e7 against log Gamma ~ 1.5e8, so the
    # comparison runs at 50 digits on the exact binary value of z
    with mpmath.workdps(50):
        v = mpmath.mpf(z)
        log_gamma = mpmath.loggamma(v + 1)
        upper = v * mpmath.log(v) - v + mpmath.log(2 * mpmath.pi * v) / 2 + 1 / (12 * v)
        assert log_gamma < upper
        enclosure = bounds.log_g_upper(z)
        assert enclosure.lo <= upper <= enclosure.hi


@pytest.mark.parametrize("fn", [bounds.log_g_lower, bounds.log_g_upper], ids=["lower", "upper"])
def test_robbins_refuses_a_nonpositive_argument(fn):
    with pytest.raises(ValueError, match="z must be positive, got 0"):
        fn(0)
    with pytest.raises(ValueError, match="z must be positive, got -1e-400"):
        fn("-1e-400", precise=True)


def test_robbins_pinned_at_five():
    # reference values rounded to 4 decimals; g-(5) = 119.669759...
    assert math.exp(mid(bounds.log_g_lower(5))) == pytest.approx(119.6700, abs=5e-4)
    assert math.exp(mid(bounds.log_g_upper(5))) == pytest.approx(120.0026, abs=5e-4)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=300, deadline=None)
@example(18)  # 18! is below 2**53, 19! is not, yet both are binary64 values
@example(19)
@example(170)  # the last factorial below binary64's maximum
@example(171)  # the first from Robbins's hull
def test_log_factorial_contains_log_gamma(nu):
    iv = bounds.log_factorial(nu)
    with mpmath.workdps(50):
        assert mpmath.mpf(iv.lo) <= mpmath.loggamma(nu + 1) <= mpmath.mpf(iv.hi)


def test_log_factorial_of_zero_and_one_is_exactly_zero():
    # a 0 enclosed as a point keeps a side of 0 decidable
    for nu in (0, 1):
        iv = bounds.log_factorial(nu)
        assert (iv.lo, iv.hi) == (0.0, 0.0)


def test_stirling_log_bounds_shape():
    lower, upper = bounds.stirling_log_bounds(10)
    assert lower.hi < math.lgamma(11) < upper.lo
    assert upper == bounds.log_g_upper(10)
    with pytest.raises(ValueError):
        bounds.stirling_log_bounds(1)
    with pytest.raises(ValueError):
        bounds.stirling_log_bounds(10.0)


def test_f_stirling_large_argument():
    # lemma32_expression feeds f with arguments in the 1e5..1e6 range
    iv = bounds.f_stirling(230856)
    assert mid(iv) == pytest.approx(2.6201e6, rel=1e-3)


def test_psi_linear_constant_check():
    verdict = oracles.psi_linear_constant_check()
    assert verdict.state == HOLDS
    assert verdict.margin == pytest.approx(math.log(2.83) - 1.03883, abs=1e-9)


def test_h_rate_pinned_edge_value():
    iv = oracles.h_rate(0.00151)
    assert mid(iv) == pytest.approx(4.67648, abs=1e-4)
    # the downstream contradiction argument needs h above 4.6623 on the box
    assert iv.lo > 4.6623


def test_h_rate_monotonicity():
    # decreasing in alpha, increasing in lambda
    assert oracles.h_rate(0.001).lo > oracles.h_rate(0.0012).hi
    assert oracles.h_rate(0.001, 0.002).lo > oracles.h_rate(0.001, 0).hi


def test_h_rate_accepts_decimal_strings():
    a = oracles.h_rate("0.00151")
    b = oracles.h_rate(0.00151)
    assert abs(mid(a) - mid(b)) < 1e-9


def test_log_binom_lowers_below_exact():
    # (alpha, lambda, n) -> the two floors must sit below the exact
    # log-binomials evaluated at m = floor(0.735 k), m0 = m + 1
    cases = [(0.00151, 0, 500000), (0.001, 0.002, 10**6), (588 / 500000, 0, 500000)]
    for alpha, lam, n in cases:
        k = round(alpha * n)
        l = round(lam * k)
        m = int(0.735 * k)
        lb = oracles.log_binom_lowers(alpha, lam, n)
        exact42 = float(oracles.log_binomial_exact(n - m - 1, k - m))
        exact43 = float(oracles.log_binomial_exact(n + k + l, k + l - (m + 1)))
        assert lb.eq42.hi <= exact42
        assert lb.eq43.hi <= exact43


def test_log_binom_lowers_rejects_out_of_range():
    with pytest.raises(ValueError):
        oracles.log_binom_lowers(0.00151, 0, 400000)       # n too small
    with pytest.raises(ValueError):
        oracles.log_binom_lowers(0.0001, 0, 500000)        # alpha n < 588
    with pytest.raises(ValueError):
        oracles.log_binom_lowers(0.002, 0, 10**6)          # alpha too large
    with pytest.raises(ValueError):
        oracles.log_binom_lowers(0.001, 0.003, 10**6)      # lambda too large


def test_section5_thresholds_pinned():
    assert bounds.C_STAR == float(Fraction("1.3132") * 21 / 40)
    assert round(bounds.C_STAR, 5) == 0.68943
    t_pow = bounds.section5_thresholds(10**9, 0.68)
    with mpmath.workdps(60):
        exact = (mpmath.mpf(0.68) * 10**9 / mpmath.log(10**9)) ** (mpmath.mpf(40) / 21)
        assert t_pow.lo <= exact <= t_pow.hi
    assert t_pow.hi - t_pow.lo <= 1e-12 * t_pow.lo


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_section5_thresholds_refuses_c_not_positive_and_finite(c):
    with pytest.raises(ValueError, match="positive and finite"):
        bounds.section5_thresholds(10**9, c)


def test_dusart_interval():
    x, hi = oracles.dusart_interval(10**6)
    assert x == 10**6
    assert 1000379 < hi < 1000380
    with pytest.raises(ValueError):
        oracles.dusart_interval(400000)


def _central_binom_lower(n):
    return evaluate(lambda cx: bounds.central_binom_lower_expr(cx, cx.of(n)))


def test_central_binom_lower_dominated_by_exact():
    # at n = 1e6 the bound must fall below the exact central-region value
    iv = _central_binom_lower(10**6)
    assert mid(iv) == pytest.approx(1313192.6, abs=0.5)
    exact = float(oracles.log_binomial_exact(2 * 10**6, 735000))
    assert exact == pytest.approx(1315215.996, abs=5e-3)
    assert iv.hi < exact


@pytest.mark.parametrize("n", [10**6, 123456789, 10**9])
def test_central_binom_lower_is_section5_rhs(n):
    iv = _central_binom_lower(n)
    assert lemma.section5_check(n, 0.68).comparisons[0].rhs == iv
    with mpmath.workdps(50):
        exact = mpmath.mpf("1.3132") * n - mpmath.log(n) / 2 - mpmath.mpf("0.5359")
        assert mpmath.mpf(iv.lo) <= exact <= mpmath.mpf(iv.hi)


def test_central_binom_lower_rejects_small_n():
    # the floor is evaluated only inside section5_check, which refuses n < 500000
    with pytest.raises(ValueError, match="n must be >= 500000"):
        lemma.section5_check(499999, 0.5)


def test_central_binom_constant_check():
    verdict = oracles.central_binom_constant_check()
    assert verdict.state == HOLDS
    # log((2/0.735)^2 / ((2/0.735) - 1)^1.265) - 1.3132 = 0.00202...
    assert verdict.margin == pytest.approx(0.002023, abs=1e-5)


@given(
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
)
@settings(max_examples=150)
def test_entropy_gap_nonnegative(z, z1):
    gap = oracles.entropy_gap(z, z1)
    # the inequality is strict everywhere, so even the pessimistic lower
    # endpoint only dips below zero by rounding width
    assert gap.hi >= 0
    assert gap.lo >= -1e-6 * max(1.0, abs(gap.hi))


def test_entropy_gap_rejects_nonpositive():
    with pytest.raises(ValueError):
        oracles.entropy_gap(0, 1)
