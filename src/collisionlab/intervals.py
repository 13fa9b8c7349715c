"""Directed-rounding interval arithmetic and certified inequality verdicts.

Every analytic estimate in this package is evaluated as an IntervalValue:
a pair of binary64 endpoints guaranteed to bracket the true real value, so
a comparison decided from two intervals is a theorem about the exact
quantities, not about floats.

`certified_less` is the one comparison.  A claim lhs < rhs is one builder
whose build(cx) returns the pair (lhs, rhs), so work the two sides share is
written and done once per context.  It decides from binary64 intervals
and, when they overlap or binary64 cannot evaluate a side (a divisor
around zero, an endpoint past its range: OverflowError), re-runs the same
builder once under mpmath's interval type at 55 significant digits.  It
returns one Comparison: the two sides' binary64 enclosures, in the
builder's order, and the Verdict.  The binary64 context is the
IntervalValue class itself and the mpmath context is PreciseContext; both
expose the same surface (`of`, `log`, `power`, `pi`), so each formula is
written exactly once.  `of(value)` encloses an int, a float, a decimal
string, a Fraction or an IntervalValue exactly; `power(v, e)` is
exp(e log v) for a positive v, and its exponent e is itself a context
value, so both contexts take the same path.

One constructor, IntervalValue(lo, hi), makes and checks every binary64
value: __post_init__, the one validator, accepts a finite, ordered pair by
one chained test and otherwise raises (ValueError for NaN or inverted
endpoints, OverflowError for an infinite one).  Ring operations step each
endpoint one ulp outward; one helper, `_widen`, steps two outward every
value binary64 did not round itself (a libm log or exp, an mpmath endpoint
read back).  Operators coerce a non-interval operand through `of`; division
forms the reciprocal's endpoints inline, and products and quotients share
one kernel, `_product`.  A number past binary64's range is refused by `of`,
and a precise `evaluate` past it, with an OverflowError that says so.

Decimal constants must enter as strings, `of("1.3132")`: the literal 1.3132
has no exact binary64 representation, and only its string is enclosed
around the intended decimal value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import mpmath
from mpmath import iv

__all__ = [
    "IntervalValue",
    "Verdict",
    "Comparison",
    "HOLDS",
    "FAILS",
    "INDETERMINATE",
    "PreciseContext",
    "PRECISE_DIGITS",
    "evaluate",
    "certified_less",
]

HOLDS = "HOLDS"
FAILS = "FAILS"
INDETERMINATE = "INDETERMINATE"

# mpmath.iv working precision for the fallback pass
PRECISE_DIGITS = 55

_INF = math.inf
_FLOAT_MAX = math.nextafter(_INF, 0.0)  # sys.float_info.max, the largest finite double
_EXACT_INT = 2**53  # every int up to this magnitude is a binary64 value
_nextafter = math.nextafter


Coercible = Union[int, float, str, Fraction, "IntervalValue"]


@dataclass(frozen=True, slots=True, init=False)
class IntervalValue:
    """Closed interval [lo, hi] certified to contain the exact value."""

    lo: float
    hi: float

    def __init__(self, lo: float, hi: float) -> None:
        _set_lo(self, lo)  # the slot descriptors, which skip the frozen __setattr__
        _set_hi(self, hi)
        self.__post_init__()

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if -_INF < lo <= hi < _INF:
            return
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"IntervalValue endpoints must not be NaN: [{lo}, {hi}]")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise OverflowError(f"IntervalValue endpoints must be finite: [{lo}, {hi}]")
        raise ValueError(f"IntervalValue endpoints out of order: [{lo}, {hi}]")

    @classmethod
    def of(cls, value: Coercible) -> "IntervalValue":
        """The tightest interval around an int, float, decimal string or Fraction.

        A float, or an int within 2**53, is a binary64 value and so a point;
        anything else rounds outward from its exact value.  A value past
        binary64's range raises OverflowError.  The exact types IntervalValue,
        float and int, and every str, are tested first; subclasses, bool and
        the rest take the general path below.
        """
        t = type(value)
        if t is IntervalValue:
            return value
        if t is float or (t is int and -_EXACT_INT <= value <= _EXACT_INT):
            x = float(value)
            return IntervalValue(x, x)
        if isinstance(value, str):
            return _decimal(value)
        if isinstance(value, IntervalValue):
            return value
        if isinstance(value, bool):
            raise TypeError("IntervalValue.of does not accept bool")
        if isinstance(value, float) or (isinstance(value, int) and abs(value) <= _EXACT_INT):
            x = float(value)
            return IntervalValue(x, x)
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot coerce {type(value).__name__} to IntervalValue")
        fr = Fraction(value)
        try:
            x = float(fr)  # round to nearest: at most one step off on either side
            return IntervalValue(
                x if Fraction(x) <= fr else _nextafter(x, -_INF),
                x if Fraction(x) >= fr else _nextafter(x, _INF),
            )
        except OverflowError:  # float(fr) overflows, or fr rounds down to the largest double
            raise OverflowError("IntervalValue.of: the value lies beyond binary64's range") from None

    # -- ring operations (one outward step: IEEE round-nearest is 0.5 ulp) --

    def __add__(self, other: Coercible) -> "IntervalValue":
        o = other if type(other) is IntervalValue else IntervalValue.of(other)
        return IntervalValue(_nextafter(self.lo + o.lo, -_INF), _nextafter(self.hi + o.hi, _INF))

    __radd__ = __add__

    def __neg__(self) -> "IntervalValue":
        return IntervalValue(-self.hi, -self.lo)

    def __sub__(self, other: Coercible) -> "IntervalValue":
        o = other if type(other) is IntervalValue else IntervalValue.of(other)
        return IntervalValue(_nextafter(self.lo - o.hi, -_INF), _nextafter(self.hi - o.lo, _INF))

    def __rsub__(self, other: Coercible) -> "IntervalValue":
        return IntervalValue.of(other) - self

    def __mul__(self, other: Coercible) -> "IntervalValue":
        o = other if type(other) is IntervalValue else IntervalValue.of(other)
        return _product(self.lo, self.hi, o.lo, o.hi)

    __rmul__ = __mul__

    def __truediv__(self, other: Coercible) -> "IntervalValue":
        o = other if type(other) is IntervalValue else IntervalValue.of(other)
        c, d = o.lo, o.hi
        if c <= 0.0 <= d:
            raise ZeroDivisionError(f"interval division by [{c}, {d}] containing zero")
        # self times the outward-rounded reciprocal [1/d, 1/c]
        c, d = _nextafter(1.0 / d, -_INF), _nextafter(1.0 / c, _INF)
        if not -_INF < c <= d < _INF:
            IntervalValue(c, d)  # refuses it: a subnormal divisor overflows the reciprocal
        return _product(self.lo, self.hi, c, d)

    def __rtruediv__(self, other: Coercible) -> "IntervalValue":
        return IntervalValue.of(other) / self

    # -- libm functions (two outward steps: faithful rounding not assumed) --

    def log(self) -> "IntervalValue":
        if self.lo <= 0.0:
            raise ValueError(f"interval log needs a strictly positive argument, got lo={self.lo}")
        return _widen(math.log(self.lo), math.log(self.hi))

    def exp(self) -> "IntervalValue":
        return _widen(math.exp(self.lo), math.exp(self.hi))

    def power(self, exponent: "IntervalValue") -> "IntervalValue":
        return (exponent * self.log()).exp()

    @staticmethod
    def pi() -> "IntervalValue":
        # math.pi is the correctly rounded double, so one ulp out each way encloses
        return IntervalValue(_nextafter(math.pi, -_INF), _nextafter(math.pi, _INF))


_set_lo = IntervalValue.lo.__set__
_set_hi = IntervalValue.hi.__set__


# bounded, so that callers' decimal strings cannot grow it; the package's
# own constants, about a dozen, are used often enough to stay in it
@functools.lru_cache(maxsize=128)
def _decimal(text: str) -> IntervalValue:
    """The enclosure of a decimal string, cached."""
    return IntervalValue.of(Fraction(text))


def _product(a: float, b: float, c: float, d: float) -> IntervalValue:
    """[a, b] times [c, d], each end one step out.

    With both lower ends positive every product is, and rounding is monotone,
    so a*c and b*d are the least and greatest of the four rounded products;
    any other sign pattern takes the min and max of all four.
    """
    if a > 0.0 and c > 0.0:
        return IntervalValue(_nextafter(a * c, -_INF), _nextafter(b * d, _INF))
    p, q, r, s = a * c, a * d, b * c, b * d
    return IntervalValue(_nextafter(min(p, q, r, s), -_INF), _nextafter(max(p, q, r, s), _INF))


def _widen(lo: float, hi: float) -> IntervalValue:
    """[lo, hi] two steps out at each end: faithful rounding is not assumed."""
    return IntervalValue(
        _nextafter(_nextafter(lo, -_INF), -_INF), _nextafter(_nextafter(hi, _INF), _INF)
    )


@dataclass(frozen=True, slots=True, init=False)
class Verdict:
    """Outcome of a certified comparison.

    state is HOLDS, FAILS, or INDETERMINATE.  margin is the certified gap
    between the intervals rounded toward zero, so its size never exceeds
    the exact gap's: positive for a decided verdict, nonpositive when the
    intervals overlap.  A gap past binary64 is capped at
    ±sys.float_info.max, which still bounds its size from below.
    """

    state: str
    margin: float

    def __init__(self, state: str, margin: float) -> None:
        _set_state(self, state)  # the slot descriptors, as in IntervalValue
        _set_margin(self, margin)

    @property
    def holds(self) -> bool:
        return self.state == HOLDS

    @property
    def fails(self) -> bool:
        return self.state == FAILS

    @property
    def decided(self) -> bool:
        return self.state != INDETERMINATE


_set_state = Verdict.state.__set__
_set_margin = Verdict.margin.__set__


@dataclass(frozen=True, slots=True)
class Comparison:
    """One certified comparison, lhs < rhs (lhs <= rhs for a non-strict claim).

    The sides are kept in the orientation that certified_less decided, so a
    claim lhs > rhs is stored as rhs < lhs.  lhs and rhs are binary64
    enclosures, None for a side past binary64's range, and verdict is the
    certified_less verdict.
    """

    lhs: IntervalValue | None
    rhs: IntervalValue | None
    verdict: Verdict


def _verdict(lhs_lo, lhs_hi, rhs_lo, rhs_hi, strict: bool) -> Verdict:
    """The HOLDS/FAILS/INDETERMINATE ladder over float or mpf endpoints; the margin rounds toward zero."""
    state, a, b = INDETERMINATE, rhs_lo, lhs_hi
    if lhs_hi < rhs_lo or (not strict and lhs_hi <= rhs_lo):
        state = HOLDS
    elif lhs_lo > rhs_hi or (strict and lhs_lo >= rhs_hi):
        state, a, b = FAILS, lhs_lo, rhs_hi
    margin = a - b
    if type(margin) is float:  # Fast2Sum from the larger operand: a - b is exactly margin + err
        # TwoSum's back-step margin - a can overflow when a and margin are both
        # near the top of binary64 with opposite signs; this step is exact
        err = -b - (margin - a) if abs(a) >= abs(b) else a - (margin + b)
    else:  # mpf endpoints: err has the sign of the exact gap less its float
        exact = mpmath.fsub(a, b, exact=True)
        margin = float(exact)
        err = exact - margin
    if err < 0.0 < margin or margin < 0.0 < err:  # round-to-nearest overstated the gap
        margin = _nextafter(margin, 0.0)
    if not -_FLOAT_MAX <= margin <= _FLOAT_MAX:
        margin = math.copysign(_FLOAT_MAX, margin)
    return Verdict(state, margin)


class PreciseContext:
    """mpmath interval context at PRECISE_DIGITS significant digits."""

    def of(self, value):
        """An mpmath interval around an int, float, decimal string, Fraction or IntervalValue."""
        if isinstance(value, bool):
            raise TypeError("PreciseContext.of does not accept bool")
        if isinstance(value, IntervalValue):
            return iv.mpf([value.lo, value.hi])
        if isinstance(value, Fraction):
            return iv.mpf(value.numerator) / iv.mpf(value.denominator)
        return iv.mpf(value)

    def log(self, v):
        return iv.log(v)

    def power(self, v, exponent):
        return iv.exp(exponent * self.log(v))

    def pi(self):
        return iv.pi


def _run_precise(build: Callable):
    """build(PreciseContext()) at PRECISE_DIGITS; the raw mpmath interval."""
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
    value = _enclosure(_run_precise(build))
    if value is None:
        raise OverflowError("evaluate: the value's enclosure lies beyond binary64's range")
    return value


def _enclosure(raw) -> IntervalValue | None:
    """The binary64 enclosure of an mpmath interval; None if it is finite but past binary64.

    An unbounded interval is no value: OverflowError, naming the escalation.
    """
    lo, hi = mpmath.mpf(raw.a), mpmath.mpf(raw.b)
    if mpmath.isinf(lo) or mpmath.isinf(hi):
        raise OverflowError(
            f"the mpmath escalation at PRECISE_DIGITS = {PRECISE_DIGITS} could not bound a side: "
            f"[{lo}, {hi}] has no finite end, as from a divisor it cannot separate from zero"
        )
    try:
        return _widen(float(lo), float(hi))
    except OverflowError:
        return None


def certified_less(build: Callable, strict: bool = True) -> Comparison:
    """Decide lhs < rhs, where build(cx) returns the pair (lhs, rhs).

    The claim is one builder, so work the two sides share is done once per
    context: the binary64 pass runs it once, and an escalation runs it once
    more under one PreciseContext.  The escalated comparison happens on the
    raw high-precision endpoints; collapsing to binary64 first would forfeit
    exactly the resolution the escalation exists to buy.  The returned
    Comparison holds the verdict and the two sides' binary64 enclosures,
    which are for reporting and may overlap even when the verdict is
    decided.  A side that binary64 cannot evaluate (a divisor around zero,
    an operand or quotient past its range) is undecided too.  After an
    escalation, a finite side with no binary64 enclosure is returned as
    None, never clamped or widened, and the verdict stands as decided; a
    side the escalation cannot bound (an infinite endpoint) raises an
    OverflowError that says so.
    """
    try:
        lhs, rhs = build(IntervalValue)
        lhs, rhs = IntervalValue.of(lhs), IntervalValue.of(rhs)
    except (ZeroDivisionError, OverflowError):
        pass
    else:
        verdict = _verdict(lhs.lo, lhs.hi, rhs.lo, rhs.hi, strict)
        if verdict.decided:
            return Comparison(lhs, rhs, verdict)
    lhs_raw, rhs_raw = _run_precise(build)
    # read endpoints at a working precision above the evaluation's, so the
    # conversion itself cannot merge values the escalation separated
    with mpmath.mp.workdps(PRECISE_DIGITS + 10):
        verdict = _verdict(
            mpmath.mpf(lhs_raw.a), mpmath.mpf(lhs_raw.b),
            mpmath.mpf(rhs_raw.a), mpmath.mpf(rhs_raw.b), strict,
        )
    return Comparison(_enclosure(lhs_raw), _enclosure(rhs_raw), verdict)
