"""Directed-rounding interval arithmetic and certified inequality verdicts.

Every analytic estimate in this package is evaluated as an IntervalValue:
a pair of binary64 endpoints guaranteed to bracket the true real value.
Endpoint arithmetic rounds outward (nextafter steps sized to the worst-case
rounding of the underlying operation), so a comparison decided from two
intervals is a theorem about the exact quantities, not about floats.

When the two intervals overlap, the comparison is INDETERMINATE and can be
retried through `evaluate(..., precise=True)`, which re-runs the same
expression under mpmath's interval type at 55 significant digits.  The
binary64 context is the IntervalValue class itself and the mpmath context
is PreciseContext; both expose the same surface (`of`, `log`, `power`,
`pi`), so each formula is written exactly once.  `of(value)` encloses an
int, a float, a decimal string or a Fraction exactly; `power(v, e)` is
exp(e log v) for a positive v, and its exponent e is itself a context
value, so both contexts take the same path.

Decimal constants must enter as strings, `of("1.3132")`: the literal 1.3132
has no exact binary64 representation, and only its string is enclosed
around the intended decimal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

__all__ = [
    "IntervalValue",
    "Verdict",
    "HOLDS",
    "FAILS",
    "INDETERMINATE",
    "PreciseContext",
    "PRECISE_DIGITS",
    "evaluate",
    "enclose_float",
    "compare_less",
    "certified_less",
]

HOLDS = "HOLDS"
FAILS = "FAILS"
INDETERMINATE = "INDETERMINATE"

# mpmath.iv working precision for the fallback pass
PRECISE_DIGITS = 55

_INF = math.inf
_DECIMAL_CACHE: dict[str, IntervalValue] = {}  # each decimal string's enclosure


def _dn(x: float, steps: int) -> float:
    for _ in range(steps):
        x = math.nextafter(x, -_INF)
    return x


def _up(x: float, steps: int) -> float:
    for _ in range(steps):
        x = math.nextafter(x, _INF)
    return x


Coercible = Union[int, float, str, Fraction, "IntervalValue"]


@dataclass(frozen=True, slots=True)
class IntervalValue:
    """Closed interval [lo, hi] certified to contain the exact value."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"IntervalValue endpoints must be finite: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"IntervalValue endpoints out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def of(cls, value: Coercible) -> "IntervalValue":
        """The tightest interval around an int, float, decimal string or Fraction.

        A float, or an int within 2**53, is a binary64 value and so a point;
        anything else rounds outward from its exact value.
        """
        if type(value) is IntervalValue:
            return value
        if isinstance(value, bool):
            raise TypeError("IntervalValue.of does not accept bool")
        if isinstance(value, float) or (isinstance(value, int) and abs(value) <= 2**53):
            x = float(value)
            return cls(x, x)
        if isinstance(value, str):
            if value not in _DECIMAL_CACHE:
                _DECIMAL_CACHE[value] = cls.of(Fraction(value))
            return _DECIMAL_CACHE[value]
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot coerce {type(value).__name__} to IntervalValue")
        fr = Fraction(value)
        x = float(fr)  # round to nearest: at most one step off on either side
        return cls(
            x if Fraction(x) <= fr else math.nextafter(x, -_INF),
            x if Fraction(x) >= fr else math.nextafter(x, _INF),
        )

    # -- ring operations (one outward step: IEEE round-nearest is 0.5 ulp) --

    def __add__(self, other: Coercible) -> "IntervalValue":
        o = IntervalValue.of(other)
        return IntervalValue(
            math.nextafter(self.lo + o.lo, -_INF), math.nextafter(self.hi + o.hi, _INF)
        )

    __radd__ = __add__

    def __neg__(self) -> "IntervalValue":
        return IntervalValue(-self.hi, -self.lo)

    def __sub__(self, other: Coercible) -> "IntervalValue":
        o = IntervalValue.of(other)
        return IntervalValue(
            math.nextafter(self.lo - o.hi, -_INF), math.nextafter(self.hi - o.lo, _INF)
        )

    def __rsub__(self, other: Coercible) -> "IntervalValue":
        return (-self) + IntervalValue.of(other)

    def __mul__(self, other: Coercible) -> "IntervalValue":
        o = IntervalValue.of(other)
        products = (
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        )
        return IntervalValue(
            math.nextafter(min(products), -_INF), math.nextafter(max(products), _INF)
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Coercible) -> "IntervalValue":
        o = IntervalValue.of(other)
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError(f"interval division by [{o.lo}, {o.hi}] containing zero")
        recip = IntervalValue(
            math.nextafter(1.0 / o.hi, -_INF), math.nextafter(1.0 / o.lo, _INF)
        )
        return self * recip

    def __rtruediv__(self, other: Coercible) -> "IntervalValue":
        return IntervalValue.of(other) / self

    # -- libm functions (two outward steps: faithful rounding not assumed) --

    def log(self) -> "IntervalValue":
        if self.lo <= 0.0:
            raise ValueError(f"interval log needs a strictly positive argument, got lo={self.lo}")
        return IntervalValue(_dn(math.log(self.lo), 2), _up(math.log(self.hi), 2))

    def exp(self) -> "IntervalValue":
        return IntervalValue(_dn(math.exp(self.lo), 2), _up(math.exp(self.hi), 2))

    def power(self, exponent: "IntervalValue") -> "IntervalValue":
        return (exponent * self.log()).exp()

    @staticmethod
    def pi() -> "IntervalValue":
        # math.pi is the correctly rounded double, so one ulp out each way encloses
        return IntervalValue(_dn(math.pi, 1), _up(math.pi, 1))


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a certified comparison.

    state is HOLDS, FAILS, or INDETERMINATE.  margin is the certified gap
    between the intervals: positive for a decided verdict, nonpositive when
    the intervals overlap.
    """

    state: str
    margin: float

    @property
    def holds(self) -> bool:
        return self.state == HOLDS

    @property
    def fails(self) -> bool:
        return self.state == FAILS

    @property
    def decided(self) -> bool:
        return self.state != INDETERMINATE


def enclose_float(x: float, ulps: int = 2) -> IntervalValue:
    """Interval around a float known to be within `ulps` ulps of the true value.

    For converting scalars produced by an external high-precision source
    (e.g. an mpmath sum rounded to binary64) into certified intervals.
    """
    return IntervalValue(_dn(x, ulps), _up(x, ulps))


def _verdict(lhs_lo, lhs_hi, rhs_lo, rhs_hi, strict: bool) -> Verdict:
    """The HOLDS/FAILS/INDETERMINATE ladder over float or mpf endpoints."""
    if lhs_hi < rhs_lo or (not strict and lhs_hi <= rhs_lo):
        return Verdict(HOLDS, float(rhs_lo - lhs_hi))
    if lhs_lo > rhs_hi or (strict and lhs_lo >= rhs_hi):
        return Verdict(FAILS, float(lhs_lo - rhs_hi))
    return Verdict(INDETERMINATE, float(rhs_lo - lhs_hi))


def compare_less(lhs: IntervalValue, rhs: IntervalValue, strict: bool = True) -> Verdict:
    """Verdict for the claim lhs < rhs (or lhs <= rhs when strict=False)."""
    return _verdict(lhs.lo, lhs.hi, rhs.lo, rhs.hi, strict)


class PreciseContext:
    """mpmath interval context at PRECISE_DIGITS significant digits."""

    def __init__(self) -> None:
        from mpmath import iv

        self.iv = iv

    def of(self, value):
        """An mpmath interval around an int, float, decimal string or Fraction."""
        if isinstance(value, bool):
            raise TypeError("PreciseContext.of does not accept bool")
        if isinstance(value, Fraction):
            return self.iv.mpf(value.numerator) / self.iv.mpf(value.denominator)
        return self.iv.mpf(value)

    def log(self, v):
        return self.iv.log(v)

    def power(self, v, exponent):
        return self.iv.exp(exponent * self.log(v))

    def pi(self):
        return self.iv.pi


def _from_iv(r) -> IntervalValue:
    import mpmath

    lo = _dn(float(mpmath.mpf(r.a)), 2)
    hi = _up(float(mpmath.mpf(r.b)), 2)
    return IntervalValue(lo, hi)


def _run_precise(build: Callable):
    """build(PreciseContext()) at PRECISE_DIGITS; the raw mpmath interval."""
    from mpmath import iv

    saved = iv.dps
    iv.dps = PRECISE_DIGITS
    try:
        return build(PreciseContext())
    finally:
        iv.dps = saved


def evaluate(build: Callable, precise: bool = False) -> IntervalValue:
    """Run an expression builder under one of the two contexts.

    build(ctx) must construct its result from ctx.of values and interval
    arithmetic only; the same callable then works in both contexts.
    """
    if not precise:
        return IntervalValue.of(build(IntervalValue))
    return _from_iv(_run_precise(build))


def certified_less(
    lhs_build: Callable,
    rhs_build: Callable,
    strict: bool = True,
) -> tuple[Verdict, IntervalValue, IntervalValue]:
    """Decide lhs < rhs, escalating precision when binary64 cannot decide.

    The escalated comparison happens on the raw high-precision endpoints;
    collapsing to binary64 first would forfeit exactly the resolution the
    escalation exists to buy.  The returned intervals are binary64
    enclosures for reporting and may overlap even when the verdict is
    decided.  A side that binary64 cannot evaluate (a divisor around zero,
    an operand or quotient past its range) is undecided too.
    """
    try:
        lhs = evaluate(lhs_build)
        rhs = evaluate(rhs_build)
    except (ZeroDivisionError, OverflowError):
        pass
    else:
        verdict = compare_less(lhs, rhs, strict)
        if verdict.decided:
            return verdict, lhs, rhs
    import mpmath

    lhs_raw = _run_precise(lhs_build)
    rhs_raw = _run_precise(rhs_build)
    # read endpoints at a working precision above the evaluation's, so the
    # conversion itself cannot merge values the escalation separated
    with mpmath.mp.workdps(PRECISE_DIGITS + 10):
        verdict = _verdict(
            mpmath.mpf(lhs_raw.a), mpmath.mpf(lhs_raw.b),
            mpmath.mpf(rhs_raw.a), mpmath.mpf(rhs_raw.b), strict,
        )
    return verdict, _from_iv(lhs_raw), _from_iv(rhs_raw)
