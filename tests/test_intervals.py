"""Directed-rounding interval layer: every operation must enclose the truth.

The containment tests compute the exact answer with Fraction or mpmath at
50 digits and assert it lies inside the returned interval; that is the
whole soundness contract of the module.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collisionlab import intervals
from collisionlab.intervals import (
    FAILS,
    HOLDS,
    INDETERMINATE,
    IntervalValue,
    certified_less,
    compare_less,
    enclose_float,
    evaluate,
)
from oracles import contains, width

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-9, max_value=1e12, allow_nan=False, allow_infinity=False)


def test_constructor_validation():
    with pytest.raises(ValueError):
        IntervalValue(2.0, 1.0)
    with pytest.raises(ValueError):
        IntervalValue(float("nan"), 1.0)
    with pytest.raises(ValueError):
        IntervalValue(0.0, float("inf"))
    for of in (IntervalValue.of, intervals.PreciseContext().of):
        with pytest.raises(TypeError):
            of(True)


def test_point_and_exact_int():
    p = IntervalValue.of(1.5)
    assert p.lo == p.hi == 1.5
    q = IntervalValue.of(2**52)
    assert q.lo == q.hi == float(2**52)
    big = IntervalValue.of(10**30)
    assert big.lo < 10**30 < big.hi


def test_from_decimal_encloses():
    iv = IntervalValue.of("0.1")
    assert contains(iv, Fraction(1, 10))
    assert width(iv) > 0 or iv.lo == 0.1  # 0.1 is not a binary64 value
    assert iv.lo < iv.hi


def test_from_fraction_encloses():
    third = Fraction(1, 3)
    iv = IntervalValue.of(third)
    assert contains(iv, third)
    assert width(iv) <= 2 * math.ulp(float(third))


def _mpf_fraction(x) -> Fraction:
    """The exact value of an mpmath endpoint, read at a precision that cannot round it."""
    with mpmath.workdps(2 * intervals.PRECISE_DIGITS):
        y = mpmath.mpf(x)
    man, exp = y.man_exp  # man is unsigned
    return (-1 if y < 0 else 1) * Fraction(man) * Fraction(2) ** exp


exact_inputs = st.one_of(
    st.integers(-(10**30), 10**30),  # past 2**53 as well
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    st.sampled_from(["0.53", "1.3132", "7.59", "0.735", "1.265", "-2.00271"]),
    st.decimals(min_value=-(10**12), max_value=10**12, allow_nan=False, allow_infinity=False).map(str),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(exact_inputs)
def test_of_encloses_every_input_kind(v):
    exact = Fraction(v)
    assert contains(IntervalValue.of(v), exact)
    raw = intervals._run_precise(lambda cx: cx.of(v))  # PreciseContext().of at PRECISE_DIGITS
    assert _mpf_fraction(raw.a) <= exact <= _mpf_fraction(raw.b)


@given(finite, finite)
def test_add_sub_mul_contain_exact(a, b):
    ia, ib = IntervalValue.of(a), IntervalValue.of(b)
    fa, fb = Fraction(a), Fraction(b)
    assert contains(ia + ib, fa + fb)
    assert contains(ia - ib, fa - fb)
    assert contains(ia * ib, fa * fb)


@given(finite, finite, finite, finite)
def test_sub_is_add_of_the_negation(a, b, c, d):
    x = IntervalValue(min(a, b), max(a, b))
    y = IntervalValue(min(c, d), max(c, d))
    got, want = x - y, x + (-y)
    # repr tells -0.0 from 0.0
    assert (repr(got.lo), repr(got.hi)) == (repr(want.lo), repr(want.hi))


@given(finite, finite)
def test_div_contains_exact(a, b):
    ib = IntervalValue.of(b)
    if contains(ib, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            IntervalValue.of(a) / ib
        return
    # a near-subnormal divisor overflows the reciprocal (and a huge ratio
    # overflows the quotient); the constructor then refuses the non-finite
    # endpoint, which is sound but not containment
    assume(abs(b) > 1e-300)
    assume(abs(a) < 1e290 * abs(b))
    assert contains(IntervalValue.of(a) / ib, Fraction(a) / Fraction(b))


@given(positive)
def test_log_contains_true_value(x):
    iv = IntervalValue.of(x).log()
    with mpmath.workdps(50):
        true = mpmath.log(mpmath.mpf(x))
        assert mpmath.mpf(iv.lo) <= true <= mpmath.mpf(iv.hi)


@given(st.floats(min_value=-700, max_value=700, allow_nan=False))
def test_exp_contains_true_value(x):
    iv = IntervalValue.of(x).exp()
    with mpmath.workdps(50):
        true = mpmath.exp(mpmath.mpf(x))
        assert mpmath.mpf(iv.lo) <= true <= mpmath.mpf(iv.hi)


def test_log_requires_positive():
    with pytest.raises(ValueError):
        IntervalValue(-1.0, 1.0).log()
    with pytest.raises(ValueError):
        IntervalValue.of(0.0).log()


def test_interval_scalar_mixing():
    iv = IntervalValue.of(2.0)
    assert contains(iv + 1, Fraction(3))
    assert contains(3 * iv, Fraction(6))
    assert contains(1 - iv, Fraction(-1))
    assert contains(iv / 2, Fraction(1))


def test_enclose_float_widths():
    x = 1.0
    assert contains(enclose_float(x, ulps=2), Fraction(1))
    two = enclose_float(x, ulps=2)
    one = enclose_float(x, ulps=1)
    assert two.lo < one.lo and one.hi < two.hi


def test_compare_less_decided():
    a = IntervalValue(0.0, 1.0)
    b = IntervalValue(2.0, 3.0)
    v = compare_less(a, b)
    assert v.state == HOLDS and v.margin == 1.0 and v.holds
    v2 = compare_less(b, a)
    assert v2.state == FAILS and v2.margin == 1.0 and v2.fails


def test_compare_less_overlap_is_indeterminate():
    a = IntervalValue(0.0, 2.0)
    b = IntervalValue(1.0, 3.0)
    v = compare_less(a, b)
    assert v.state == INDETERMINATE
    assert not v.decided
    assert v.margin <= 0


def test_compare_less_touching_endpoints():
    a = IntervalValue.of(1.0)
    v_strict = compare_less(a, a, strict=True)
    v_loose = compare_less(a, a, strict=False)
    assert v_strict.state == FAILS    # 1 < 1 is certainly false
    assert v_loose.state == HOLDS     # 1 <= 1 certainly holds
    assert v_loose.margin == 0.0


def test_evaluate_float_and_precise_paths_agree():
    def build(cx):
        return cx.log(cx.of("2.83")) * cx.of(3) - cx.of(Fraction(1, 7))

    f64 = evaluate(build)
    mp = evaluate(build, precise=True)
    with mpmath.workdps(50):
        true = mpmath.log(mpmath.mpf("2.83")) * 3 - mpmath.mpf(1) / 7
        for iv in (f64, mp):
            assert mpmath.mpf(iv.lo) <= true <= mpmath.mpf(iv.hi)
    assert width(mp) <= width(f64)


def test_evaluate_precise_is_sharper():
    # one log is already at the 2-ulp floor in both paths; a chain of them
    # accumulates width in binary64 that the precise path does not
    def build(cx):
        total = cx.of(0)
        for j in range(2, 12):
            total = total + cx.log(cx.of(j)) / j
        return total

    f64 = evaluate(build)
    mp = evaluate(build, precise=True)
    assert width(mp) < width(f64)
    with mpmath.workdps(50):
        true = sum(mpmath.log(j) / j for j in range(2, 12))
        assert mpmath.mpf(mp.lo) <= true <= mpmath.mpf(mp.hi)


def test_certified_less_escalates_to_high_precision():
    # indistinguishable in binary64, split cleanly at 55 digits
    lhs = lambda cx: cx.of("1.00000000000000000001")
    rhs = lambda cx: cx.of("1.00000000000000000002")
    verdict, lo_iv, hi_iv = certified_less(lhs, rhs)
    assert verdict.state == HOLDS
    assert verdict.margin > 0


def test_certified_less_equal_values_stay_indeterminate_for_strict():
    one = lambda cx: cx.of(Fraction(1, 3)) * 3
    verdict, _, _ = certified_less(one, one, strict=True)
    assert verdict.state == INDETERMINATE


def test_certified_less_fast_path_decides_without_escalation():
    verdict, lhs, rhs = certified_less(
        lambda cx: cx.of(1), lambda cx: cx.of(2)
    )
    assert verdict.state == HOLDS
    # binary64 evaluation of exact integers is a zero-width interval
    assert width(lhs) == 0.0 and width(rhs) == 0.0


def test_certified_less_escalates_when_binary64_cannot_divide():
    # binary64 encloses (10^16 + 1)/10^16 - 1 in an interval around zero;
    # at 55 digits the quotient is 10^16 and the claim 1/that < 1 fails
    tiny = lambda cx: cx.of(Fraction(10**16 + 1, 10**16)) - 1
    with pytest.raises(ZeroDivisionError):
        evaluate(lambda cx: 1 / tiny(cx))
    verdict, lhs, _ = certified_less(lambda cx: 1 / tiny(cx), lambda cx: cx.of(1))
    assert verdict.state == FAILS
    assert verdict.margin == pytest.approx(10**16 - 1)
    assert contains(lhs, 10**16)


def test_certified_less_escalates_when_binary64_overflows():
    # 10^400 is past binary64's range; the quotient 10 is not
    big = lambda cx: cx.of(10**400) / cx.of(10**399)
    with pytest.raises(OverflowError):
        evaluate(big)
    verdict, lhs, _ = certified_less(big, lambda cx: cx.of(11))
    assert verdict.state == HOLDS
    assert contains(lhs, 10)


def test_certified_less_exact_zero_divisor_is_an_error():
    # mpmath divides by exactly zero into [-inf, +inf], which is never a verdict
    with pytest.raises(ValueError, match="finite"):
        certified_less(lambda cx: 1 / (cx.of(1) - 1), lambda cx: cx.of(1))


def test_pi_containment():
    for precise in (False, True):
        iv = evaluate(lambda cx: cx.pi(), precise=precise)
        with mpmath.workdps(50):
            assert mpmath.mpf(iv.lo) <= mpmath.pi <= mpmath.mpf(iv.hi)


def test_power_fraction_exponent():
    iv = evaluate(lambda cx: cx.power(cx.of(2), cx.of(Fraction(21, 40))))
    with mpmath.workdps(50):
        true = mpmath.power(2, mpmath.mpf(21) / 40)
        assert mpmath.mpf(iv.lo) <= true <= mpmath.mpf(iv.hi)


def test_verdict_margin_semantics():
    verdict, lhs, rhs = certified_less(
        lambda cx: cx.of(0), lambda cx: cx.of(10)
    )
    assert verdict.margin == pytest.approx(10.0)
