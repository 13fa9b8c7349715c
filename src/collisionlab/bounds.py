"""Certified evaluators for the explicit analytic estimates the chain evaluates.

Each function encloses one closed-form bound in an IntervalValue (see the
intervals module).  The estimates covered:

  * pi_upper_dusart        explicit upper bound for the prime counting function
  * stirling_log_bounds    two-sided Stirling bracketing of log(factorial)
  * central_binom_lower_expr  the near-central binomial floor of the large-l case
  * section5_thresholds    the two l-thresholds of the final theorem

Numeric constants that originate as decimal literals enter as strings,
cx.of("7.59"), so the enclosures bracket the intended decimal values, not
their binary64 approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .intervals import IntervalValue, evaluate

__all__ = [
    "Section5Thresholds",
    "pi_upper_dusart",
    "pi_upper_dusart_expr",
    "stirling_log_bounds",
    "log_g_lower",
    "log_g_upper",
    "log_g_upper_expr",
    "f_stirling",
    "section5_thresholds",
    "central_binom_lower_expr",
]

Real = Union[int, float, str, Fraction]


def _as_float(value: Real) -> float:
    if isinstance(value, (str, Fraction)):
        return float(Fraction(value))
    return float(value)


def pi_upper_dusart(x: Real, precise: bool = False) -> IntervalValue:
    """Enclose (x/log x)(1 + 1/log x + 2/log^2 x + 7.59/log^3 x).

    Dominates the prime counting function on the whole range this package
    touches; the sweep test checks that against the exact sieve up to 1e6.
    """
    if _as_float(x) <= 1.0:
        raise ValueError(f"pi_upper_dusart: x must exceed 1, got {x}")
    return evaluate(lambda cx: pi_upper_dusart_expr(cx, cx.of(x)), precise)


def pi_upper_dusart_expr(cx, v):
    """The pi_upper_dusart expression at v, built in evaluation context cx."""
    el = cx.log(v)
    el2 = el * el
    return (v / el) * (1 + 1 / el + 2 / el2 + cx.of("7.59") / (el2 * el))


def log_g_lower(z: Real, precise: bool = False) -> IntervalValue:
    """Enclose z log z - z + log(2 pi z)/2 + 1/(12(z+1))."""
    if _as_float(z) <= 0.0:
        raise ValueError(f"log_g_lower: z must be positive, got {z}")

    def build(cx):
        v = cx.of(z)
        return v * cx.log(v) - v + cx.log(2 * cx.pi() * v) / 2 + 1 / (12 * (v + 1))

    return evaluate(build, precise)


def log_g_upper(z: Real, precise: bool = False) -> IntervalValue:
    """Enclose z log z - z + log(2 pi z)/2 + 1/(12 z)."""
    if _as_float(z) <= 0.0:
        raise ValueError(f"log_g_upper: z must be positive, got {z}")
    return evaluate(lambda cx: log_g_upper_expr(cx, cx.of(z)), precise)


def log_g_upper_expr(cx, v):
    """The log_g_upper expression at v, built in evaluation context cx."""
    return v * cx.log(v) - v + cx.log(2 * cx.pi() * v) / 2 + 1 / (12 * v)


# the factorial majorant exponent: f(z) = log g+(z), any real z > 0
f_stirling = log_g_upper


def stirling_log_bounds(
    nu: int, precise: bool = False
) -> tuple[IntervalValue, IntervalValue, IntervalValue]:
    """(log g-(nu), log g+(nu), f(nu)) bracketing log(nu!) for integer nu >= 2."""
    if not isinstance(nu, int) or nu < 2:
        raise ValueError(f"stirling_log_bounds: need an integer nu >= 2, got {nu!r}")
    upper = log_g_upper(nu, precise)
    return log_g_lower(nu, precise), upper, upper


@dataclass(frozen=True, slots=True)
class Section5Thresholds:
    t_log2: float
    t_pow: float
    c_star: float


def section5_thresholds(n: int, c: float) -> Section5Thresholds:
    """The theorem's two lower thresholds for l, plus the critical exponent constant.

    t_log2 = n (1.3132 log^2(2n) - 2.00271); t_pow = (c n / log n)^(40/21);
    c_star = 1.3132 * 21/40 exactly (= 0.68943).
    """
    if n < 500000:
        raise ValueError(f"section5_thresholds: n must be >= 500000, got {n}")
    if not 0 < c < math.inf:  # also refuses NaN
        raise ValueError(f"section5_thresholds: c must be positive and finite, got {c}")
    t_log2 = n * (1.3132 * math.log(2 * n) ** 2 - 2.00271)
    t_pow = (c * n / math.log(n)) ** (40 / 21)
    c_star = float(Fraction("1.3132") * 21 / 40)
    return Section5Thresholds(t_log2, t_pow, c_star)


def central_binom_lower_expr(cx, v):
    """1.3132 v - log(v)/2 - 0.5359 at v, built in evaluation context cx.

    Floor for log C(2n+delta, n-m) at v = n when the lower index stays
    >= 0.735 n (equivalently m <= 0.265 n, the regime the 0.735/1.265
    Stirling split actually covers).  section5_check holds it to
    section5_thresholds' n >= 500000.
    """
    return cx.of("1.3132") * v - cx.log(v) / 2 - cx.of("0.5359")
