"""Directed-rounding interval layer: every operation must enclose the truth.

The containment tests compute the exact answer with Fraction or mpmath at
50 digits and assert it lies inside the returned interval; that is the
whole soundness contract of the module.
"""

import enum
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from collisionlab import intervals, lemma
from collisionlab.intervals import (
    FAILS,
    HOLDS,
    INDETERMINATE,
    PRECISE_DIGITS,
    IntervalValue,
    certified_less,
    evaluate,
)
import oracles
from oracles import contains, width

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-9, max_value=1e12, allow_nan=False, allow_infinity=False)


def test_constructor_validation():
    with pytest.raises(ValueError, match="out of order"):
        IntervalValue(2.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        IntervalValue(float("nan"), 1.0)
    with pytest.raises(OverflowError, match="finite"):
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


@pytest.mark.parametrize(
    "value",
    [10**400, -(10**400), int(sys.float_info.max) + 1, Fraction(10**400, 3), "1e400", "-1e309"],
    ids=["int", "negative-int", "just-past-max", "fraction", "decimal", "negative-decimal"],
)
def test_of_names_a_value_past_binary64(value):
    with pytest.raises(OverflowError, match="lies beyond binary64's range"):
        IntervalValue.of(value)


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
# the reciprocal's outward step matters here: without it the quotient misses the exact value
@example(3.872871805743677, 15.822378531589083)
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


_MAX = sys.float_info.max
wide_endpoints = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals to the largest double
    st.floats(min_value=1e300, max_value=_MAX),  # near overflow
    st.floats(min_value=-_MAX, max_value=-1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),  # divisors around zero
    st.floats(min_value=-800.0, max_value=800.0),  # exp's finite range and its edge
)
wide_intervals = st.tuples(wide_endpoints, wide_endpoints).map(
    lambda p: IntervalValue(min(p), max(p))
)
scalars = st.one_of(
    wide_endpoints,
    st.integers(-(2**54), 2**54),  # either side of 2**53
    st.integers(-(10**400), 10**400),  # past binary64's range as well
    st.fractions(max_denominator=10**6),
    st.sampled_from(["0.1", "1.3132", "-2.00271", "1e309"]),
    st.booleans(),
)


def _outcome(make):
    """The endpoints' reprs (which tell -0.0 from 0.0), or the refusal's class."""
    try:
        r = make()
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc)
    return repr(r.lo), repr(r.hi)


@settings(max_examples=1000)
@given(wide_intervals, wide_intervals, scalars)
# both lower ends positive: products that underflow to 0.0 and to subnormals,
# a b*d that overflows, and a divisor whose reciprocal underflows to subnormals
@example(IntervalValue(1e-200, 1e-160), IntervalValue(1e-200, 1e-160), 1e-300)
@example(IntervalValue(1.0, 1e200), IntervalValue(2.0, 1e200), 1e300)
@example(IntervalValue(0.5, 3.0), IntervalValue(1e308, _MAX), _MAX)
def test_kernel_matches_the_reference_bit_for_bit(x, y, s):
    for other in (y, s):
        pairs = [
            (lambda: x + other, lambda: oracles.reference_add(x, other)),
            (lambda: other + x, lambda: oracles.reference_add(x, other)),
            (lambda: x - other, lambda: oracles.reference_sub(x, other)),
            (lambda: other - x, lambda: oracles.reference_rsub(x, other)),
            (lambda: x * other, lambda: oracles.reference_mul(x, other)),
            (lambda: other * x, lambda: oracles.reference_mul(x, other)),
            (lambda: x / other, lambda: oracles.reference_div(x, other)),
            (lambda: other / x, lambda: oracles.reference_rdiv(x, other)),
        ]
        for kernel, reference in pairs:
            assert _outcome(kernel) == _outcome(reference)
    assert _outcome(lambda: -x) == _outcome(lambda: oracles.reference_neg(x))
    assert _outcome(x.log) == _outcome(lambda: oracles.reference_log(x))
    assert _outcome(x.exp) == _outcome(lambda: oracles.reference_exp(x))


class _Code(enum.IntEnum):
    ZERO = 0
    SEVEN = 7
    PAST_EXACT = 2**53 + 1
    PAST_BINARY64 = 10**400


# int and float subclasses take the general path, not the exact-type one
subclass_values = st.one_of(
    st.floats().map(np.float64),
    st.sampled_from(list(_Code)),
    st.booleans(),
    st.integers(1, 2**60).map(lemma.section4_contradiction),
)


@settings(max_examples=1000)
@given(st.one_of(exact_inputs, scalars, subclass_values, st.floats(), st.none()))
def test_of_matches_the_reference_bit_for_bit(v):
    # st.floats() draws nan and both infinities
    assert _outcome(lambda: IntervalValue.of(v)) == _outcome(lambda: oracles.reference_of(v))


_BIG = IntervalValue(1e308, 1e308)
_TINY = IntervalValue.of(5e-324)  # its reciprocal leaves binary64
_UNIT = IntervalValue(0.0, 1.0)
_ZERO = IntervalValue.of(0)
_NEGATIVE = IntervalValue(-2.0, -1.0)
_PAST_EXP = IntervalValue.of(710.0)  # exp(710) > the largest double


@pytest.mark.parametrize(
    "kernel, reference, refusal",
    [
        (lambda: IntervalValue.of(math.nan), lambda: IntervalValue(math.nan, math.nan), ValueError),
        (lambda: IntervalValue.of(math.inf), lambda: IntervalValue(math.inf, math.inf), OverflowError),
        (lambda: IntervalValue.of(-math.inf), lambda: IntervalValue(-math.inf, -math.inf), OverflowError),
        (lambda: _BIG + _BIG, lambda: oracles.reference_add(_BIG, _BIG), OverflowError),
        (lambda: _BIG * 10, lambda: oracles.reference_mul(_BIG, 10), OverflowError),
        (lambda: -_BIG * _BIG, lambda: oracles.reference_mul(-_BIG, _BIG), OverflowError),
        (lambda: _BIG / 1e-10, lambda: oracles.reference_div(_BIG, 1e-10), OverflowError),
        (lambda: 1 / _TINY, lambda: oracles.reference_rdiv(_TINY, 1), OverflowError),
        (lambda: 1 / -_TINY, lambda: oracles.reference_rdiv(-_TINY, 1), OverflowError),
        # 0 times the infinite reciprocal end is NaN, which min and max can hide
        (lambda: _ZERO / _TINY, lambda: oracles.reference_div(_ZERO, _TINY), OverflowError),
        (lambda: _UNIT / -_TINY, lambda: oracles.reference_div(_UNIT, -_TINY), OverflowError),
        (lambda: _PAST_EXP.exp(), lambda: oracles.reference_exp(_PAST_EXP), OverflowError),
        (lambda: _UNIT.log(), lambda: oracles.reference_log(_UNIT), ValueError),
        (lambda: _NEGATIVE.log(), lambda: oracles.reference_log(_NEGATIVE), ValueError),
    ],
    ids=[
        "of-nan", "of-inf", "of-minus-inf", "add-overflows", "mul-overflows",
        "mul-overflows-negative", "div-overflows", "reciprocal-overflows",
        "reciprocal-overflows-negative", "zero-over-a-subnormal", "zero-end-over-a-negative-subnormal",
        "exp-overflows", "log-at-zero", "log-of-negative",
    ],
)
def test_fast_paths_refuse_what_the_constructor_refuses(kernel, reference, refusal):
    for make in (kernel, reference):
        with pytest.raises(refusal):
            make()


_A = IntervalValue(1.0, 2.0)
_B = IntervalValue(3.0, 4.0)


@pytest.mark.parametrize(
    "make, values",
    [
        (lambda: _A + _B, 1),
        (lambda: _A - _B, 1),
        (lambda: _A.__rsub__(_B), 1),
        (lambda: _A * _B, 1),
        (lambda: _A / _B, 1),
        (lambda: _A.__rtruediv__(_B), 1),
        (lambda: -_A, 1),
        (_A.log, 1),
        (_A.exp, 1),
        (lambda: _A.power(_B), 3),  # log, product, exp
        (lambda: IntervalValue.of(0.5), 1),
        (lambda: IntervalValue.of(7), 1),
        (lambda: IntervalValue.of(10**30), 1),
        (lambda: IntervalValue.of(Fraction(1, 3)), 1),
        (lambda: IntervalValue.of("0.37"), 1),  # a decimal string not yet cached
        (lambda: IntervalValue.of("0.1"), 0),  # cached before the count starts
        (lambda: IntervalValue.of(_A), 0),
        (lambda: intervals._widen(0.5, 0.5), 1),
        (IntervalValue.pi, 1),
    ],
    ids=[
        "add", "sub", "rsub", "mul", "div", "rdiv", "neg", "log", "exp", "power",
        "of-float", "of-small-int", "of-large-int", "of-fraction", "of-new-decimal",
        "of-cached-decimal", "of-interval", "widen", "pi",
    ],
)
def test_every_value_passes_the_one_validator(monkeypatch, make, values):
    # bench/tracing.py counts intervals.values by this same patch
    monkeypatch.setattr(intervals, "_DECIMAL_CACHE", {"0.1": IntervalValue.of(Fraction(1, 10))})
    validate = IntervalValue.__post_init__
    calls = []

    def counting(value):
        calls.append(value)
        validate(value)

    monkeypatch.setattr(IntervalValue, "__post_init__", counting)
    made = make()
    assert len(calls) == values
    assert values == 0 or calls[-1] is made


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


def test_widen_widths():
    two = intervals._widen(1.0, 1.0)
    assert contains(two, Fraction(1))
    assert (two.lo, two.hi) == (1.0 - 2 * 2.0**-53, 1.0 + 2 * 2.0**-52)


def _stepped_out(lo: float, hi: float, steps: int) -> IntervalValue:
    return IntervalValue(oracles._steps(lo, -math.inf, steps), oracles._steps(hi, math.inf, steps))


@settings(max_examples=500)
@given(st.floats())
def test_widen_is_two_steps_out_bit_for_bit(x):
    # st.floats() draws nan and both infinities, which both sides refuse
    assert _outcome(lambda: intervals._widen(x, x)) == _outcome(lambda: _stepped_out(x, x, 2))


def test_pi_is_one_step_out_bit_for_bit():
    assert _outcome(IntervalValue.pi) == _outcome(lambda: _stepped_out(math.pi, math.pi, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda cx: cx.of(Fraction(1, 3)),
        lambda cx: cx.log(cx.of(10)),
        lambda cx: cx.pi(),
        lambda cx: cx.power(cx.of(2), cx.of(Fraction(21, 40))),
        lambda cx: cx.of(-7) / 3,
    ],
    ids=["third", "log10", "pi", "power", "negative"],
)
def test_precise_read_back_is_two_steps_out_bit_for_bit(build):
    # each mpmath endpoint rounds to nearest, then steps two ulps outward
    raw = intervals._run_precise(build)
    lo, hi = float(mpmath.mpf(raw.a)), float(mpmath.mpf(raw.b))
    expected = _outcome(lambda: _stepped_out(lo, hi, 2))
    assert _outcome(lambda: evaluate(build, precise=True)) == expected
    assert _outcome(lambda: intervals._enclosure(raw)) == expected


@pytest.mark.parametrize("build", [lambda cx: cx.of(10**400), lambda cx: -cx.of("1e309")], ids=["above", "below"])
def test_precise_evaluate_names_a_value_past_binary64(build):
    # finite in mpmath, past binary64: the enclosure is absent, and evaluate says why
    assert intervals._enclosure(intervals._run_precise(build)) is None
    with pytest.raises(OverflowError, match="lies beyond binary64's range"):
        evaluate(build, precise=True)


def _consts(lhs, rhs):
    """A builder of two precomputed enclosures, valid in either context."""
    return lambda cx: (cx.of(lhs), cx.of(rhs))


def test_compare_less_decided():
    a = IntervalValue(0.0, 1.0)
    b = IntervalValue(2.0, 3.0)
    v = certified_less(_consts(a, b)).verdict
    assert v.state == HOLDS and v.margin == 1.0 and v.holds
    v2 = certified_less(_consts(b, a)).verdict
    assert v2.state == FAILS and v2.margin == 1.0 and v2.fails


def test_compare_less_overlap_is_indeterminate():
    # the escalated pass reads the same endpoints, so it cannot decide either
    a = IntervalValue(0.0, 2.0)
    b = IntervalValue(1.0, 3.0)
    v = certified_less(_consts(a, b)).verdict
    assert v.state == INDETERMINATE
    assert not v.decided
    assert v.margin <= 0


def test_compare_less_touching_endpoints():
    a = IntervalValue.of(1.0)
    v_strict = certified_less(_consts(a, a), strict=True).verdict
    v_loose = certified_less(_consts(a, a), strict=False).verdict
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
    verdict = certified_less(
        lambda cx: (cx.of("1.00000000000000000001"), cx.of("1.00000000000000000002"))
    ).verdict
    assert verdict.state == HOLDS
    assert verdict.margin > 0


def test_certified_less_builds_each_claim_once_per_context(monkeypatch):
    # the binary64 pass runs the builder once, and the escalation once more
    # in one PreciseContext: both sides come from that one run
    contexts, runs = [], []

    class CountingContext(intervals.PreciseContext):
        def __init__(self) -> None:
            contexts.append(self)

    def build(cx):
        runs.append(cx)
        return cx.of("1.00000000000000000001"), cx.of("1.00000000000000000002")

    monkeypatch.setattr(intervals, "PreciseContext", CountingContext)
    verdict = certified_less(build).verdict
    assert verdict.state == HOLDS
    assert len(contexts) == 1
    assert runs == [IntervalValue, contexts[0]]


def test_certified_less_equal_values_stay_indeterminate_for_strict():
    one = lambda cx: cx.of(Fraction(1, 3)) * 3
    verdict = certified_less(lambda cx: (one(cx), one(cx)), strict=True).verdict
    assert verdict.state == INDETERMINATE


def test_certified_less_fast_path_decides_without_escalation():
    decided = certified_less(lambda cx: (cx.of(1), cx.of(2)))
    assert decided.verdict.state == HOLDS
    # binary64 evaluation of exact integers is a zero-width interval
    assert width(decided.lhs) == 0.0 and width(decided.rhs) == 0.0


def test_certified_less_escalates_when_binary64_cannot_divide():
    # binary64 encloses (10^16 + 1)/10^16 - 1 in an interval around zero;
    # at 55 digits the quotient is 10^16 and the claim 1/that < 1 fails
    tiny = lambda cx: cx.of(Fraction(10**16 + 1, 10**16)) - 1
    with pytest.raises(ZeroDivisionError):
        evaluate(lambda cx: 1 / tiny(cx))
    decided = certified_less(lambda cx: (1 / tiny(cx), cx.of(1)))
    assert decided.verdict.state == FAILS
    assert decided.verdict.margin == pytest.approx(10**16 - 1)
    assert contains(decided.lhs, 10**16)


def test_certified_less_escalates_when_binary64_overflows():
    # 10^400 is past binary64's range; the quotient 10 is not
    big = lambda cx: cx.of(10**400) / cx.of(10**399)
    with pytest.raises(OverflowError):
        evaluate(big)
    decided = certified_less(lambda cx: (big(cx), cx.of(11)))
    assert decided.verdict.state == HOLDS
    assert contains(decided.lhs, 10)


def test_certified_less_escalates_when_an_intermediate_overflows():
    # 10^308 * 2 leaves binary64 though the quotient by 4 does not; it must
    # escalate like the same value whose operand 2 * 10^308 already overflows
    overflowing = lambda cx: cx.of(10**308) * 2 / 4
    with pytest.raises(OverflowError):
        evaluate(overflowing)
    for lhs in (overflowing, lambda cx: cx.of(2 * 10**308) / 4):
        decided = certified_less(lambda cx: (lhs(cx), cx.of(10**308)))
        assert decided.verdict.state == HOLDS
        assert contains(decided.lhs, 5 * 10**307)


def test_certified_less_reports_a_side_past_binary64_as_absent():
    # 10^400 and -10^400 are finite at 55 digits and have no binary64
    # enclosure: the verdict stands, and only the other side is reported
    decided = certified_less(lambda cx: (cx.of(10**400), cx.of(1)))
    assert decided.verdict.state == FAILS and decided.lhs is None and contains(decided.rhs, 1)
    decided = certified_less(lambda cx: (cx.of(1), -cx.of(10**400)))
    assert decided.verdict.state == FAILS and decided.rhs is None and contains(decided.lhs, 1)


def test_certified_less_exact_zero_divisor_is_an_error():
    # mpmath divides by exactly zero into [-inf, +inf], which is never a verdict,
    # nor a value a precise evaluation can enclose
    with pytest.raises(OverflowError, match="finite"):
        certified_less(lambda cx: (1 / (cx.of(1) - 1), cx.of(1)))
    with pytest.raises(OverflowError, match="finite"):
        evaluate(lambda cx: 1 / (cx.of(1) - 1), precise=True)


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


def test_verdict_caps_a_gap_past_binary64():
    # endpoints 1e400 apart: the margin is the largest double, never inf
    with mpmath.workdps(PRECISE_DIGITS + 10):
        near, far = mpmath.mpf(0), mpmath.mpf(10) ** 400
        held = intervals._verdict(near, near, far, far, strict=True)
        failed = intervals._verdict(far, far, near, near, strict=True)
        overlap = intervals._verdict(-far, far, -far, far, strict=True)
    assert (held.state, held.margin) == (HOLDS, sys.float_info.max)
    assert (failed.state, failed.margin) == (FAILS, sys.float_info.max)
    assert (overlap.state, overlap.margin) == (INDETERMINATE, -sys.float_info.max)


@settings(max_examples=500)
@given(st.lists(wide_endpoints, min_size=4, max_size=4), st.booleans())
# 1e16 + 2 - 0.1 rounds to nearest as 1e16 + 2, above the exact 1e16 + 1.9
@example([0.1, 0.1, 1e16 + 2, 1e16 + 2], True)
@example([5e-324, 1e-323, 1.5e-323, 1e-310], True)
@example([-_MAX, -_MAX, _MAX, _MAX], False)
@example([1.0, 1.0, _MAX, _MAX], True)
# TwoSum's intermediate margin - rhs_lo overflows here; the gap itself does not
@example([0.0, _MAX, 7.932912268473222e307, 7.932912268473222e307], False)
def test_verdict_margin_is_the_gap_rounded_toward_zero(ends, strict):
    lhs_lo, lhs_hi = sorted(ends[:2])
    rhs_lo, rhs_hi = sorted(ends[2:])
    verdict = intervals._verdict(lhs_lo, lhs_hi, rhs_lo, rhs_hi, strict)
    a, b = (lhs_lo, rhs_hi) if verdict.state == FAILS else (rhs_lo, lhs_hi)
    exact = Fraction(a) - Fraction(b)
    margin = verdict.margin
    assert abs(Fraction(margin)) <= abs(exact)
    assert margin == 0.0 or (margin > 0.0) == (exact > 0)
    if abs(margin) < _MAX:  # the tightest such double: one step out overstates
        assert abs(Fraction(math.nextafter(margin, math.copysign(math.inf, margin)))) > abs(exact)


def test_verdict_margin_rounds_an_mpf_gap_toward_zero():
    with mpmath.workdps(PRECISE_DIGITS + 10):
        near, far = mpmath.mpf("0.1"), mpmath.mpf(10) ** 16 + 2
        held = intervals._verdict(near, near, far, far, strict=True)
        failed = intervals._verdict(far, far, near, near, strict=True)
        overlap = intervals._verdict(near, far, near, far, strict=True)
    exact = _mpf_fraction(far) - _mpf_fraction(near)
    # the mpf gap 1e16 + 1.9 rounds to nearest as 1e16 + 2; toward zero it is 1e16
    assert (held.state, held.margin) == (HOLDS, 1e16)
    assert (failed.state, failed.margin) == (FAILS, 1e16)
    assert (overlap.state, overlap.margin) == (INDETERMINATE, -1e16)
    assert Fraction(held.margin) <= exact


def test_verdict_margin_semantics():
    verdict = certified_less(lambda cx: (cx.of(0), cx.of(10))).verdict
    assert verdict.margin == pytest.approx(10.0)
