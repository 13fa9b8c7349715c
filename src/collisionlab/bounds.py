"""Certified evaluators for the explicit analytic estimates.

Each function encloses one closed-form bound in an IntervalValue (see the
intervals module).  The estimates covered:

  * pi_upper_dusart        explicit upper bound for the prime counting function
  * stirling_log_bounds    two-sided Stirling bracketing of log(factorial)
  * psi_upper_linear       linear Chebyshev-psi majorant 1.03883 z
  * h_rate                 the entropy-like rate function of the two-binomial
                           lower bound, minimized at (0.00151, 0)
  * log_binom_lowers       the two displayed log-binomial floors at m = 0.735k
  * central_binom_lower    the near-central binomial floor of the large-l case
  * dusart_interval        prime-existence interval (x, x(1 + 1/log^3 x)]
  * section5_thresholds    the two l-thresholds of the final theorem

Numeric constants that originate as decimal literals enter as strings,
cx.of("7.59"), so the enclosures bracket the intended decimal values, not
their binary64 approximations.

Arguments named alpha/lam accept int, float, or decimal string; pass a
string when the hypothesis is a decimal constant that must be honored
exactly (e.g. alpha="0.00151").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .intervals import IntervalValue, Verdict, certified_less, evaluate

__all__ = [
    "DUSART_FLOOR",
    "LogBinomLowers",
    "Section5Thresholds",
    "pi_upper_dusart",
    "pi_upper_dusart_expr",
    "stirling_log_bounds",
    "log_g_lower",
    "log_g_upper",
    "log_g_upper_expr",
    "f_stirling",
    "psi_upper_linear",
    "psi_linear_constant_check",
    "h_rate",
    "log_binom_lowers",
    "section5_thresholds",
    "dusart_interval",
    "central_binom_lower",
    "central_binom_lower_expr",
    "central_binom_constant_check",
    "entropy_gap",
]

# validity floor for the prime-existence interval; the collision regime
# never needs anything smaller
DUSART_FLOOR = 500000

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


def f_stirling(z: Real, precise: bool = False) -> IntervalValue:
    """The factorial majorant exponent: f(z) = log g+(z), any real z > 0."""
    return log_g_upper(z, precise)


def stirling_log_bounds(
    nu: int, precise: bool = False
) -> tuple[IntervalValue, IntervalValue, IntervalValue]:
    """(log g-(nu), log g+(nu), f(nu)) bracketing log(nu!) for integer nu >= 2."""
    if not isinstance(nu, int) or nu < 2:
        raise ValueError(f"stirling_log_bounds: need an integer nu >= 2, got {nu!r}")
    upper = log_g_upper(nu, precise)
    return log_g_lower(nu, precise), upper, upper


def psi_upper_linear(z: Real) -> IntervalValue:
    """Enclose 1.03883 z, the linear majorant of Chebyshev's psi."""
    if _as_float(z) <= 0.0:
        raise ValueError(f"psi_upper_linear: z must be positive, got {z}")
    return evaluate(lambda cx: cx.of("1.03883") * cx.of(z))


def psi_linear_constant_check() -> Verdict:
    """Certify 1.03883 < log 2.83 (the psi majorant fits under the base-2.83 form)."""
    verdict, _, _ = certified_less(
        lambda cx: cx.of("1.03883"),
        lambda cx: cx.log(cx.of("2.83")),
    )
    return verdict


def h_rate(alpha: Real, lam: Real = 0) -> IntervalValue:
    """Enclose the per-k rate of the combined two-binomial lower bound.

    h(alpha, lam) = 0.265 (1 + log((1-alpha)/(0.265 alpha)))
                  + (0.265+lam)(1 + log((1+0.735 alpha)/(alpha(0.265+lam))))

    Decreasing in alpha, increasing in lam; its infimum over the admissible
    box is h(0.00151, 0), which exceeds 4.6623.
    """
    a = _as_float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"h_rate: alpha must lie in (0,1), got {alpha}")
    if _as_float(lam) < 0.0:
        raise ValueError(f"h_rate: lam must be >= 0, got {lam}")

    def build(cx):
        av = cx.of(alpha)
        lv = cx.of(lam)
        c265 = cx.of("0.265")
        first = c265 * (1 + cx.log((1 - av) / (c265 * av)))
        rate2 = c265 + lv
        second = rate2 * (1 + cx.log((1 + cx.of("0.735") * av) / (av * rate2)))
        return first + second

    return evaluate(build)


@dataclass(frozen=True, slots=True)
class LogBinomLowers:
    eq42: IntervalValue
    eq43: IntervalValue


def log_binom_lowers(alpha: Real, lam: Real, n: int) -> LogBinomLowers:
    """The two displayed lower bounds for the split binomials at m = 0.735k.

    eq42 bounds log C(n-m-1, k-m) from below; eq43 bounds
    log C(n+k+l, k+l-m0).  Valid under 588 <= k = alpha n,
    alpha <= 0.00151, lam <= 0.00271, n >= 500000: the additive constants
    0.2558 and 1.5794 absorb exactly that range.

    The first inner logarithm is log((1-alpha)/(0.265 alpha)), the ratio
    (n-k)/(k-m) that the Stirling expansion produces; the variant carrying
    (1-0.735 alpha) in the denominator is a transcription slip (it is the
    ratio belonging to the lower-order term) and would undershoot the true
    binomial by a factor ~alpha, breaking the h_rate accounting.
    """
    a = _as_float(alpha)
    lf = _as_float(lam)
    if n < 500000:
        raise ValueError(f"log_binom_lowers: n must be >= 500000, got {n}")
    if a * n < 588 - 1e-9:
        raise ValueError(f"log_binom_lowers: k = alpha*n = {a * n:.3f} is below 588")
    if a > 0.00151 + 1e-15:
        raise ValueError(f"log_binom_lowers: alpha must be <= 0.00151, got {alpha}")
    if lf > 0.00271 + 1e-15:
        raise ValueError(f"log_binom_lowers: lam must be <= 0.00271, got {lam}")

    def build42(cx):
        av = cx.of(alpha)
        nv = cx.of(n)
        c265 = cx.of("0.265")
        main = c265 * av * nv * (1 + cx.log((1 - av) / (c265 * av)))
        return main - cx.log(av * nv) / 2 - cx.of("0.2558")

    def build43(cx):
        av = cx.of(alpha)
        lv = cx.of(lam)
        nv = cx.of(n)
        rate = cx.of("0.265") + lv
        main = rate * av * nv * (1 + cx.log((1 + cx.of("0.735") * av) / (rate * av)))
        return main + cx.log(av / nv) / 2 - cx.of("1.5794")

    return LogBinomLowers(evaluate(build42), evaluate(build43))


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


def dusart_interval(x: Real) -> tuple[float, float]:
    """The half-open interval (x, x(1 + 1/log^3 x)] asserted to contain a prime.

    The right endpoint is rounded upward so the returned interval contains
    the exact one.  Refuses x below DUSART_FLOOR rather than extrapolating.
    """
    xf = _as_float(x)
    if xf < DUSART_FLOOR:
        raise ValueError(f"dusart_interval: x must be >= {DUSART_FLOOR}, got {x}")

    def build(cx):
        v = cx.of(x)
        el = cx.log(v)
        return v * (1 + 1 / (el * el * el))

    return xf, evaluate(build).hi


def central_binom_lower(n: int) -> IntervalValue:
    """Enclose 1.3132 n - log(n)/2 - 0.5359.

    Floor for log C(2n+delta, n-m) when the lower index stays >= 0.735 n
    (equivalently m <= 0.265 n, the regime the 0.735/1.265 Stirling split
    actually covers).
    """
    if n < 500000:
        raise ValueError(f"central_binom_lower: n must be >= 500000, got {n}")
    return evaluate(lambda cx: central_binom_lower_expr(cx, cx.of(n)))


def central_binom_lower_expr(cx, v):
    """The central_binom_lower expression at v, built in evaluation context cx."""
    return cx.of("1.3132") * v - cx.log(v) / 2 - cx.of("0.5359")


def central_binom_constant_check() -> Verdict:
    """Certify log((2/0.735)^2 / ((2/0.735)-1)^1.265) >= 1.3132."""

    def rate(cx):
        r = 2 / cx.of("0.735")
        return cx.log(r * r / cx.power(r - 1, cx.of("1.265")))

    verdict, _, _ = certified_less(lambda cx: cx.of("1.3132"), rate, strict=False)
    return verdict


def entropy_gap(z: float, z1: float) -> IntervalValue:
    """(z+z1)log(z+z1) - z log z - z1 log z1 - z(1 + log(z1/z)), certified.

    The quantity is strictly positive for all positive z, z1; it is the
    integral-comparison step behind the eq42/eq43 floors.
    """
    if z <= 0 or z1 <= 0:
        raise ValueError(f"entropy_gap: both arguments must be positive, got {z}, {z1}")

    def build(cx):
        zv = cx.of(z)
        wv = cx.of(z1)
        s = zv + wv
        lhs = s * cx.log(s) - zv * cx.log(zv) - wv * cx.log(wv)
        return lhs - zv * (1 + cx.log(wv / zv))

    return evaluate(build)
