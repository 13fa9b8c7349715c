"""Certified evaluators for the explicit analytic estimates the chain evaluates.

Each function encloses one closed-form bound in an IntervalValue (see the
intervals module).  The estimates covered:

  * pi_upper_dusart        explicit upper bound for the prime counting function
  * stirling_log_bounds    two-sided Stirling bracketing of log(factorial)
  * log_factorial          log(nu!) itself: exact nu! up to 170, Robbins's hull above
  * central_binom_lower_expr  the near-central binomial floor of the large-l case
  * section5_l0_expr       the theorem's threshold l0 = (c n / log n)^(40/21)
  * section5_thresholds    l0's enclosure t_pow
  * C_STAR                 the critical constant c* = 1.3132 * 21/40 below which c must lie

Numeric constants that originate as decimal literals enter as strings,
cx.of("7.59"), so the enclosures bracket the intended decimal values, not
their binary64 approximations.  Each function checks its domain on the
exact argument that cx.of encloses, Fraction(x), never on its binary64
rounding: an argument inside the domain that rounds onto the boundary
reaches the evaluation, which encloses it or refuses it for its own reason.
NaN and the infinities, which no Fraction holds, are refused by Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .collision import SCALE_MIN_N
from .intervals import IntervalValue, evaluate

__all__ = [
    "C_STAR",
    "pi_upper_dusart",
    "pi_upper_dusart_expr",
    "stirling_log_bounds",
    "log_factorial",
    "log_g_lower",
    "log_g_upper",
    "log_g_upper_expr",
    "f_stirling",
    "section5_thresholds",
    "central_binom_lower_expr",
    "section5_l0_expr",
]

Real = Union[int, float, str, Fraction]


def pi_upper_dusart(x: Real, precise: bool = False) -> IntervalValue:
    """Enclose (x/log x)(1 + 1/log x + 2/log^2 x + 7.59/log^3 x).

    An upper bound for the prime counting function for every real x > 1:
    Dusart, "Estimates of some functions over primes without R.H."
    (2010, arXiv:1002.0442).  A sweep test checks it against the exact
    sieve at every integer up to 1,747,029, the largest k0 at which
    nmax_lemma31 evaluates it; beyond that it is cited, not checked.
    The domain x > 1 is checked on the exact x.
    """
    if Fraction(x) <= 1:
        raise ValueError(f"pi_upper_dusart: x must exceed 1, got {x}")
    return evaluate(lambda cx: pi_upper_dusart_expr(cx, cx.of(x)), precise)


def pi_upper_dusart_expr(cx, v):
    """The pi_upper_dusart expression at v, built in evaluation context cx."""
    el = cx.log(v)
    el2 = el * el
    return (v / el) * (1 + 1 / el + 2 / el2 + cx.of("7.59") / (el2 * el))


def log_g_lower(z: Real, precise: bool = False) -> IntervalValue:
    """Enclose z log z - z + log(2 pi z)/2 + 1/(12(z+1)); z > 0 is checked on the exact z."""
    if Fraction(z) <= 0:
        raise ValueError(f"log_g_lower: z must be positive, got {z}")

    def build(cx):
        v = cx.of(z)
        return _stirling_core(cx, v) + 1 / (12 * (v + 1))

    return evaluate(build, precise)


def log_g_upper(z: Real, precise: bool = False) -> IntervalValue:
    """Enclose z log z - z + log(2 pi z)/2 + 1/(12 z).

    An upper bound for log Gamma(z + 1): Robbins, "A remark on Stirling's
    formula" (Amer. Math. Monthly 62, 1955) proves it for integer z >= 1,
    and Binet's formula for log Gamma, whose remainder term lies in
    (0, 1/(12 z)), gives it for every real z > 0, as at the non-integer
    0.265 k.  A test checks it against 50-digit log Gamma on [0.5, 10^7].
    The domain z > 0 is checked on the exact z.
    """
    if Fraction(z) <= 0:
        raise ValueError(f"log_g_upper: z must be positive, got {z}")
    return evaluate(lambda cx: log_g_upper_expr(cx, cx.of(z)), precise)


def log_g_upper_expr(cx, v):
    """The log_g_upper expression at v, built in evaluation context cx."""
    return _stirling_core(cx, v) + 1 / (12 * v)


def _stirling_core(cx, v):
    """v log v - v + log(2 pi v)/2 at v in context cx: both log g bounds add their tail to it."""
    return v * cx.log(v) - v + cx.log(2 * cx.pi() * v) / 2


# the factorial majorant exponent: f(z) = log g+(z), any real z > 0
f_stirling = log_g_upper


def stirling_log_bounds(nu: int, precise: bool = False) -> tuple[IntervalValue, IntervalValue]:
    """(log g-(nu), log g+(nu)) bracketing log(nu!) for integer nu >= 2."""
    if not isinstance(nu, int) or nu < 2:
        raise ValueError(f"stirling_log_bounds: need an integer nu >= 2, got {nu!r}")
    return log_g_lower(nu, precise), log_g_upper(nu, precise)


def log_factorial(nu: int) -> IntervalValue:
    """Enclose log(nu!) for an integer nu >= 0.

    Exactly 0 for nu <= 1, so a side of 0 stays decidable.  Up to 170,
    whose factorial is the largest below binary64's maximum, the interval
    log of nu!'s tightest enclosure; above it, the hull of Robbins's
    brackets log g-(nu) < log(nu!) < log g+(nu), whose width is at most
    1/(12 nu (nu + 1)) plus rounding.  No setting moves the cut: 171! is
    past binary64.
    """
    if nu < 0:
        raise ValueError(f"log_factorial: nu must be >= 0, got {nu}")
    if nu <= 1:
        return IntervalValue.of(0)
    if nu <= 170:
        return IntervalValue.of(math.factorial(nu)).log()
    return IntervalValue(log_g_lower(nu).lo, log_g_upper(nu).hi)


# the critical constant c* = 1.3132 * 21/40 (= 0.68943 exactly): section5_check
# refuses every c >= C_STAR
C_STAR = float(Fraction("1.3132") * 21 / 40)


def section5_thresholds(n: int, c: float) -> IntervalValue:
    """t_pow, the enclosure of the theorem's lower threshold l0 for l.

    t_pow encloses l0 = (c n / log n)^(40/21), section5_l0_expr in binary64.
    An l0 that binary64 cannot enclose is refused by name.
    """
    if n < SCALE_MIN_N:
        raise ValueError(f"section5_thresholds: n must be >= {SCALE_MIN_N}, got {n}")
    if not 0 < c < math.inf:  # also refuses NaN
        raise ValueError(f"section5_thresholds: c must be positive and finite, got {c}")
    try:
        return evaluate(lambda cx: section5_l0_expr(cx, cx.of(n), cx.of(c)))
    except OverflowError:
        raise OverflowError("section5_thresholds: t_pow lies beyond binary64's range") from None


def central_binom_lower_expr(cx, v):
    """1.3132 v - log(v)/2 - 0.5359 at v, built in evaluation context cx.

    Floor for log C(2n+delta, n-m) at v = n when the lower index stays
    >= 0.735 n (equivalently m <= 0.265 n, the regime the 0.735/1.265
    Stirling split actually covers).  section5_check holds it to
    section5_thresholds' n >= 500000.
    """
    return cx.of("1.3132") * v - cx.log(v) / 2 - cx.of("0.5359")


def section5_l0_expr(cx, v, c):
    """(c v / log v)^(40/21) at v and c, built in evaluation context cx.

    The theorem's threshold l0 at v = n: section5_check's lhs adds it to
    2n, and section5_thresholds encloses it as t_pow.
    """
    return cx.power(c * v / cx.log(v), cx.of(Fraction(40, 21)))
