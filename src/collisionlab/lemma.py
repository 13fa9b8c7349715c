"""Checkers for the necessary conditions a binomial collision must satisfy.

Every checker returns a LemmaReport: the hypothesis flags that gate it,
the intervals.Comparison each certified_less call returns, as returned,
and the verdict that joins them; section5's, a Section5Report, also
carries n and t_pow, the enclosure of its threshold l0.  A comparison
holds certified lhs/rhs intervals (None for a side past binary64's range)
in the orientation in which it was decided, lhs < rhs, and that call's
verdict.  check21 lists its two inequalities, first then second; the
other checkers list one comparison.  The joined verdict is HOLDS if every comparison holds, else
FAILS if any fails, else INDETERMINATE; LemmaReport computes it and takes
no verdict as an argument.  Notes carry only what no other field says:
check23's window detail and witness, and how check31 took pi(k0).  Each
claim is one builder that returns its two sides together, so what they
share is built once per context.  A checker never extrapolates: when a
hypothesis fails, the false flags in hypotheses say which, no side is
evaluated, comparisons is empty ([] in the CLI's JSON report) and the
verdict is INDETERMINATE 0.0.  section5 refuses bad input instead (its
hypotheses are empty), so it is never gated.

Index-range corrections.  The product identity behind everything here is

    prod_{i=m}^{k-1} (n-i) * prod_{i3=delta+1}^{l} (2n+i3)
        = prod_{i2=m+delta+1}^{k+l} (n+i2),

with the first product starting at i = m, not m+1: starting one later fails
on the true collision C(15,5) = C(14,6).  The same shift propagates into the
second ratio inequality, whose right side must carry (k+m+delta), not
(k+m+delta+1).  The checkers evaluate the corrected forms only; the tests
keep the uncorrected ones, as the evidence that C(15,5) = C(14,6) refutes
them.  index_windows gives each window as its range of offsets i, and the
window holds n - i (S1) or n + i (S2).

The two threshold computations live here as well: threshold_lemma32 locates
the sign change that caps k+l, and nmax_lemma31 maximizes the implied bound
for n over a (k, l) grid.

section4_contradiction, the Section 4 sweep at one integer k, decides
nothing per call: at import, three certified_less comparisons prove that
its margin rises on [1, oo) and turns positive at k = 3, and each call
compares k with that threshold.  Its lhs and rhs are read lazily, as
binary64 floats, and a k whose binary64 sides would overflow is refused.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import arith, intervals, sieve
from .bounds import (
    C_STAR,
    central_binom_lower_expr,
    f_stirling,
    log_factorial,
    log_g_upper_expr,
    pi_upper_dusart,
    pi_upper_dusart_expr,
    section5_l0_expr,
    section5_thresholds,
)
from .collision import CLAIMED_N_BOUND, K_MIN, L_RATIO, M_RATIO, SCALE_MIN_N, ParamTuple, check_eq12
from .intervals import (
    FAILS,
    HOLDS,
    INDETERMINATE,
    IntervalValue,
    Verdict,
    certified_less,
    evaluate,
)

__all__ = [
    "LemmaReport",
    "index_windows",
    "check_lemma21",
    "check_lemma22",
    "check_lemma23_smooth",
    "check_lemma31",
    "PI_MODES",
    "lemma32_expression",
    "threshold_lemma32",
    "Lemma32Threshold",
    "GridConfig",
    "NmaxReport",
    "nmax_lemma31",
    "section4_check",
    "section4_contradiction",
    "Section4Contradiction",
    "section5_check",
    "Section5Report",
]

# how check_lemma31 and nmax_lemma31 take pi(k0): counted, or Dusart's upper bound
PI_MODES = ("exact", "dusart")


@dataclass(frozen=True, slots=True)
class LemmaReport:
    """A checker's hypotheses, its comparisons and their joined verdict.

    Each comparison is the record a certified_less call returned.  The
    verdict is HOLDS, at the least margin, if every comparison holds;
    else FAILS, at the least failing margin, if any fails; else
    INDETERMINATE, at the least margin.  A gated report has no comparisons,
    its false flags in hypotheses, and reads INDETERMINATE 0.0.  The verdict
    is no argument: the join is the only way one gets in.  notes is empty
    unless it says what no other field does.
    """

    lemma: str
    hypotheses: dict[str, bool]
    comparisons: tuple[intervals.Comparison, ...]
    verdict: Verdict = field(init=False)
    notes: str = ""

    def __post_init__(self) -> None:
        states = {c.verdict.state for c in self.comparisons}
        state = FAILS if FAILS in states else HOLDS if states == {HOLDS} else INDETERMINATE
        margins = [c.verdict.margin for c in self.comparisons if state != FAILS or c.verdict.fails]
        object.__setattr__(self, "verdict", Verdict(state, min(margins, default=0.0)))


def index_windows(t: ParamTuple) -> tuple[range, range]:
    """The offsets i of the two windows whose product the collision divides.

    S1 holds the values n - i for i in [m, k), S2 holds n + i for i in
    [m0 + 1, k + l].
    """
    return range(t.m, t.k), range(t.m0 + 1, t.k + t.l + 1)


def check_lemma21(t: ParamTuple) -> LemmaReport:
    """The two ratio inequalities every collision satisfies.

    First: (l-delta) log((2n+l)/(n+k+l)) < (k-m)(k+m+delta+1)/(n-k).
    Second: (l-delta) log(2n/(n+k)) > (k-m)(k+m+delta)/(n+k+delta).
    The report lists the two comparisons in that order, the second one as
    decided, (k-m)(k+m+delta)/(n+k+delta) < (l-delta) log(2n/(n+k)), and
    its verdict is their join.
    """
    delta, n, m, k, l = t.delta, t.n, t.m, t.k, t.l
    hyp = {
        "eq12": check_eq12(t),
        "ordering": t.ordering_ok,
        "l_gt_delta": t.l_gt_delta,
    }
    if not all(hyp.values()):
        return LemmaReport("lemma21", hyp, ())

    first = certified_less(lambda cx: (
        cx.of(l - delta) * cx.log(cx.of(2 * n + l) / cx.of(n + k + l)),
        cx.of(Fraction((k - m) * (k + m + delta + 1), n - k)),
    ))
    second = certified_less(lambda cx: (
        cx.of(Fraction((k - m) * (k + m + delta), n + k + delta)),
        cx.of(l - delta) * cx.log(cx.of(2 * n) / cx.of(n + k)),
    ))
    return LemmaReport("lemma21", hyp, (first, second))


def check_lemma22(n: int, k: int) -> LemmaReport:
    """Whether k is small enough to force l = delta.

    Evaluates k^2 / ((n-k) log(2.001/(1.001 + k/n))); a value below 1 pins
    l - delta < 1, so HOLDS means that k forces l = delta and FAILS that it
    does not.  The boundary sits exactly between k = 587 and k = 588 at
    n = 500000, which is where the k >= 588 regime comes from.
    """
    hyp = {"scale": n >= SCALE_MIN_N, "k_range": 1 <= k < n}
    if not all(hyp.values()):
        return LemmaReport("lemma22", hyp, ())

    def sides(cx):
        kn = cx.of(k) / cx.of(n)
        den = cx.of(n - k) * cx.log(cx.of("2.001") / (cx.of("1.001") + kn))
        return cx.of(k * k) / den, cx.of(1)

    return LemmaReport("lemma22", hyp, (certified_less(sides),))


def check_lemma23_smooth(t: ParamTuple) -> LemmaReport:
    """Every element of S1 = {n-m, ..., n-k+1} and S2 must be k0-smooth."""
    hyp = {"eq12": check_eq12(t)}
    if not all(hyp.values()):
        return LemmaReport("lemma23", hyp, ())

    k0 = t.k0
    s1, s2 = index_windows(t)
    elements = [t.n - i for i in s1] + [t.n + i for i in s2]
    if any(v < 1 for v in elements):
        raise ValueError(f"lemma23: window contains a nonpositive element for {t}")

    max_smooth_p = 1
    witness: Optional[tuple[int, int]] = None  # (element, prime factor > k0)
    for v in elements:
        if v == 1:
            continue
        # no prime is <= k0 < 2, so there every element >= 2 is a witness
        fac = arith.smooth_split(v, max(k0, 1))
        if not fac.is_smooth:
            witness = (v, fac.least_prime_above)
            break
        max_smooth_p = max(max_smooth_p, fac.factors[-1][0])

    if not elements:
        lhs, detail = IntervalValue.of(k0), "both windows are empty"
    elif witness is None:
        lhs = IntervalValue.of(max_smooth_p)
        detail = f"all {len(elements)} elements are {k0}-smooth (max prime factor {max_smooth_p})"
        if max_smooth_p > k0:  # every element is 1, and k0 < 1
            detail = f"every element is 1, whose max prime factor counts as 1 > {k0}"
    else:
        elem, wprime = witness
        lhs = IntervalValue(IntervalValue.of(wprime).lo, IntervalValue.of(max(wprime, elem)).hi)
        detail = f"element {elem} has prime factor {wprime} > {k0}"
    # max prime factor vs k0
    comparison = certified_less(lambda cx: (cx.of(lhs), cx.of(k0)), strict=False)
    notes = f"{detail}; S1 offsets {s1.start}..{s1.stop - 1}, S2 offsets {s2.start}..{s2.stop - 1}"
    return LemmaReport("lemma23", hyp, (comparison,), notes)


def _lemma31_sides(cx, excess, pi, base, log_f1, log_f2):
    """Lemma 3.1 as c log(n-k) <= r: the pair (c, r) in evaluation context cx.

    c = excess - pi and r = pi log(base) + log_f1 + log_f2, where excess
    is 2k+l-m-m0, base is 2k+l and log_f1, log_f2 bound log (k-m)! and
    log (l+k-m0)!.  Every argument is a value of cx.
    """
    return excess - pi, pi * cx.log(base) + log_f1 + log_f2


def check_lemma31(t: ParamTuple, pi_mode: str = "exact") -> LemmaReport:
    """(n-k)^(2k+l-m-m0-pi(k0)) <= (2k+l)^pi(k0) (k-m)! (l+k-m0)!, in logs.

    pi_mode "exact" counts primes with the sieve; "dusart" substitutes the
    explicit upper bound, which can only make the inequality easier (the
    count is subtracted on the left and added on the right), so a HOLDS
    under "exact" stays HOLDS under "dusart" up to interval width.  The
    log-factorials are bounds.log_factorial's enclosures: the log of the
    exact nu! up to 170, the hull of Robbins's brackets above.
    """
    if pi_mode not in PI_MODES:
        raise ValueError(f"check_lemma31: pi_mode must be 'exact' or 'dusart', got {pi_mode!r}")
    n, m, k, l = t.n, t.m, t.k, t.l
    m0, k0 = t.m0, t.k0
    hyp = {
        "n_gt_k": n > k,
        "window_args": k - m >= 0 and l + k - m0 >= 0,
        "base_positive": 2 * k + l >= 1,
    }
    if not all(hyp.values()):
        return LemmaReport("lemma31", hyp, ())

    if k0 < 2:
        pi, pi_note = 0, "pi(k0) = 0 (k0 < 2)"
    elif pi_mode == "exact":
        pi = sieve.prime_count(k0)
        pi_note = f"pi({k0}) = {pi} exact"
    else:
        pi = pi_upper_dusart(k0)
        pi_note = f"pi({k0}) <= {pi.hi!r} substituted"
    log_f1 = log_factorial(k - m)
    log_f2 = log_factorial(l + k - m0)

    def sides(cx):
        c, r = _lemma31_sides(cx, *map(cx.of, (2 * k + l - m - m0, pi, 2 * k + l, log_f1, log_f2)))
        return c * cx.log(cx.of(n - k)), r

    return LemmaReport("lemma31", hyp, (certified_less(sides, strict=False),), pi_note)


def _lemma32(cx, F: int):
    """The lemma32_expression builder: Lemma 3.1's r - c log(inner) in context cx."""
    pi_bar = pi_upper_dusart_expr(cx, cx.of(2 * F))
    fa = log_g_upper_expr(cx, cx.of((1 - M_RATIO) * (F - 1)))
    fb = log_g_upper_expr(cx, cx.of(F - M_RATIO * (F - 1)))
    count, r = _lemma31_sides(cx, cx.of(2 * (1 - M_RATIO)) * (F - 1), pi_bar, cx.of(2 * F - 1), fa, fb)
    inner = cx.power(cx.of(2 * F - 2), cx.of("1.5")) - (2 * F - 1)
    return r - count * cx.log(inner)


def lemma32_expression(F: int, precise: bool = False) -> IntervalValue:
    """The decreasing expression whose last nonnegative point caps k + l.

    pi-bar(2F) log(2F-1) + f(0.265(F-1)) + f(F - 0.735(F-1))
        - (0.53(F-1) - pi-bar(2F)) log((2F-2)^(3/2) - 2F + 1)

    with pi-bar the explicit upper bound for the prime count.  Substituting
    the upper bound only raises the expression (both occurrences enter
    positively once the subtraction is expanded), so a certified negative
    value rules the true expression negative as well.  With precise=True
    the whole expression is re-evaluated in mpmath, not just its pieces.
    """
    if F < 3:
        raise ValueError(f"lemma32_expression: F must be >= 3, got {F}")
    return evaluate(lambda cx: _lemma32(cx, F), precise)


@dataclass(frozen=True, slots=True)
class Lemma32Threshold:
    f_star: int
    value_at: IntervalValue    # certified >= 0 at f_star
    value_next: IntervalValue  # certified < 0 at f_star + 1


def _sign_at(F: int) -> int:
    """+1 if the expression is certified >= 0 at F, -1 if certified < 0."""
    verdict = certified_less(lambda cx: (_lemma32(cx, F), cx.of(0))).verdict
    if not verdict.decided:
        raise ArithmeticError(f"threshold expression sign undecidable at F = {F}")
    return -1 if verdict.holds else 1


_THRESHOLD32_BRACKET = (10**4, 10**7)


def threshold_lemma32() -> Lemma32Threshold:
    """Largest F in _THRESHOLD32_BRACKET with a nonnegative expression, by bisection.

    Requires a certified sign change over the bracket; the expression is
    monotone decreasing there, so the bracket stays valid throughout, and
    any bracket that holds the sign change would give the same F*.
    """
    lo, hi = _THRESHOLD32_BRACKET
    if _sign_at(lo) < 0 or _sign_at(hi) > 0:
        raise ValueError(f"threshold_lemma32: no certified sign change over [{lo}, {hi}]")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sign_at(mid) > 0:
            lo = mid
        else:
            hi = mid
    return Lemma32Threshold(lo, lemma32_expression(lo), lemma32_expression(hi))


# the sampled n-bound grid: k grows by this factor past the dense band, and
# each k keeps at most this many l values
_GRID_GROWTH = 1.01
_GRID_L_SAMPLES = 64


@dataclass(frozen=True, slots=True)
class GridConfig:
    """Search grid for the n-bound maximization.

    k runs one-by-one through the dense band [K_MIN, dense_until] where the
    maximum lives, then geometrically (factor _GRID_GROWTH) up to k_max.
    For each k, l runs over [1, floor(0.00271 k)], subsampled geometrically
    to at most _GRID_L_SAMPLES values when the range is wider than that.
    Only the band's ends and the pi mode are settings: K_MIN is the paper's
    k >= 588, and the growth and l sample count only coarsen the sample.
    """

    k_max: int = 871155
    dense_until: int = 4000
    pi_mode: str = "dusart"

    def __post_init__(self) -> None:
        if self.k_max < K_MIN:
            raise ValueError(f"GridConfig: k_max must be >= K_MIN = {K_MIN}, got {self.k_max}")
        if self.dense_until < K_MIN:
            raise ValueError(
                f"GridConfig: dense_until must be >= K_MIN = {K_MIN}, got {self.dense_until}"
            )
        if self.pi_mode not in PI_MODES:
            raise ValueError(f"GridConfig: bad pi_mode {self.pi_mode!r}")

    def k_values(self) -> list[int]:
        dense_end = min(self.dense_until, self.k_max)
        ks = list(range(K_MIN, dense_end + 1))
        k = dense_end
        while k < self.k_max:
            k = min(self.k_max, max(k + 1, math.ceil(k * _GRID_GROWTH)))
            ks.append(k)
        return ks

    def l_values(self, k: int) -> list[int]:
        cap = max(1, math.floor(L_RATIO * k))
        if cap <= _GRID_L_SAMPLES:
            return list(range(1, cap + 1))
        grid = np.unique(
            np.rint(np.geomspace(1, cap, num=_GRID_L_SAMPLES)).astype(np.int64)
        )
        return [int(v) for v in grid]


@dataclass(frozen=True, slots=True)
class NmaxReport:
    n_max: float
    log_n_max: float
    argmax_k: int
    argmax_l: int
    points: int
    skipped: int
    pi_mode: str
    claimed_bound: int = CLAIMED_N_BOUND


def _nmax_point(
    k: int, l: int, pi_iv: IntervalValue, arg1: Fraction, f_arg1: IntervalValue, k_excess: IntervalValue
) -> Optional[float]:
    """Upper endpoint of the implied log(n-k) bound r/c at one grid point.

    arg1 = (1 - M_RATIO) k, f_arg1 = f(arg1) and k_excess = [2 arg1]
    depend on k alone.
    """
    den, num = _lemma31_sides(
        IntervalValue, k_excess + (l - 1), pi_iv, IntervalValue.of(2 * k + l), f_arg1,
        f_stirling(arg1 + (l - 1)),
    )
    if den.lo <= 0.0:
        return None
    return (num / den).hi


def nmax_lemma31(grid: GridConfig = GridConfig()) -> NmaxReport:
    """Maximize the bound on n implied by the factorial inequality.

    The grid samples the paper's domain k in [K_MIN, k_max] and
    l in [1, floor(0.00271 k)]; GridConfig says which points.  At each
    grid point: m pinned to 0.735k (real), m0 = m + 1, delta = 0
    (the choice maximizing both k0 and the resulting bound), pi(k0) per
    pi_mode: sieve.prime_count(k0) or Dusart's upper bound.
    log(n-k) <= [pi log(2k+l) + f(k-m) + f(l+k-m0)]
    / (2k+l-m-m0-pi); the report exponentiates the grid maximum.  Grid
    points with a nonpositive denominator carry no information and are
    skipped.  One serial scan, k and then l ascending, keeps a point only
    when it beats the best so far, so ties go to the smallest (k, l).
    """
    best: Optional[tuple[float, int, int]] = None
    points = 0
    skipped = 0
    ks = grid.k_values()
    if grid.pi_mode == "exact":  # one table to the largest k0, so prime_count reads it
        sieve.base_primes(2 * (ks[-1] + grid.l_values(ks[-1])[-1]) - 1)
    for k in ks:
        arg1 = (1 - M_RATIO) * k
        f_arg1 = f_stirling(arg1)
        k_excess = IntervalValue.of(2 * arg1)
        for l in grid.l_values(k):
            k0 = 2 * (k + l) - 1
            if grid.pi_mode == "exact":
                pi_iv = IntervalValue.of(sieve.prime_count(k0))
            else:
                pi_iv = pi_upper_dusart(k0)
            ratio = _nmax_point(k, l, pi_iv, arg1, f_arg1, k_excess)
            points += 1
            if ratio is None:
                skipped += 1
            elif best is None or ratio > best[0]:
                best = (ratio, k, l)
    if best is None:
        raise ArithmeticError("nmax_lemma31: every grid point had a nonpositive denominator")
    log_bound, k_at, l_at = best
    return NmaxReport(
        n_max=math.exp(log_bound),
        log_n_max=log_bound,
        argmax_k=k_at,
        argmax_l=l_at,
        points=points,
        skipped=skipped,
        pi_mode=grid.pi_mode,
    )


def section4_check(t: ParamTuple) -> LemmaReport:
    """Compatibility of the two-binomial upper and lower bounds at t.

    lhs is the lower bound 4.6623k - 2.879 - log k; rhs is the upper bound
    (k0 + 3 k0^(3/4)) log 2.83.  On any tuple meeting all hypotheses the
    comparison FAILS for k >= 588: the window that should contain the exact
    product is empty, which is the impossibility this section rests on.  So
    FAILS means that no tuple meets the hypotheses.  The hypotheses alone
    gate the comparison: ordering gives k >= 1, and scale with cube gives
    k0 >= 1.
    """
    n, k, l, k0 = t.n, t.k, t.l, t.k0
    hyp = {
        "ordering": t.ordering_ok,
        "ratio": t.ratio_ok,
        "l_small": 1000 * l < n,
        "scale": t.scale_ok,
        "cube": (n + k + l) ** 2 <= k0**3,
    }
    if not all(hyp.values()):
        return LemmaReport("section4", hyp, ())

    comparison = certified_less(lambda cx: (
        cx.of("4.6623") * cx.of(k) - cx.of("2.879") - cx.log(cx.of(k)),
        (cx.of(k0) + 3 * cx.power(cx.of(k0), cx.of("0.75"))) * cx.log(cx.of("2.83")),
    ), strict=False)
    return LemmaReport("section4", hyp, (comparison,))


def _section4_sides(x: float) -> tuple[float, float]:
    """The sweep's (lhs, rhs) at x = float(k), in plain binary64."""
    return 4.6623 * x - 1.8344 - math.log(x), 1.0433 * x + 3.13 * x**0.75


# the sweep's claim a k - b - log k > c k + d k^(3/4): (a, b, c, d) as decimal
# strings, the same decimals as the float literals of _section4_sides
_SECTION4_CONSTANTS = ("4.6623", "1.8344", "1.0433", "3.13")


def _section4_margin(cx, x):
    """D(x) = (a - c) x - b - log x - d x^(3/4), the sweep's lhs - rhs, in context cx."""
    a, b, c, d = map(cx.of, _SECTION4_CONSTANTS)
    return (a - c) * x - b - cx.log(x) - d * cx.power(x, cx.of("0.75"))


def _section4_slope(cx, x):
    """D'(x) = (a - c) - 1/x - (3/4) d x^(-1/4) in context cx; it rises with x for d > 0."""
    a, _, c, d = map(cx.of, _SECTION4_CONSTANTS)
    return (a - c) - 1 / x - cx.of("0.75") * d * cx.power(x, cx.of("-0.25"))


def _section4_threshold() -> tuple[int, tuple[intervals.Comparison, ...]]:
    """The least k >= 1 with D(k) > 0, and the certified_less comparisons that prove it.

    D'(x) rises with x, since its -1/x and -(3/4) d x^(-1/4) terms do, so
    D'(1) > 0 makes D increasing on [1, oo): then D(k) > 0 exactly for the
    k at or above the first one where it is.  The proof is D'(1) > 0,
    D(k-1) < 0 (absent when k is 1) and D(k) > 0, each a comparison that
    HOLDS; with the constants above it reads D'(1) = 0.2715, D(2) < 0 < D(3).
    ArithmeticError if a sign cannot be certified.
    """
    rising = certified_less(lambda cx: (cx.of(0), _section4_slope(cx, cx.of(1))))
    if not rising.verdict.holds:
        raise ArithmeticError("section4: the sweep's margin is not certified to rise on [1, oo)")
    k, proof = 1, (rising,)
    # D rises at least D'(1) per step, so some D(k) < 0 fails
    while (below := certified_less(lambda cx: (_section4_margin(cx, cx.of(k)), cx.of(0)))).verdict.holds:
        k, proof = k + 1, (rising, below)
    above = certified_less(lambda cx: (cx.of(0), _section4_margin(cx, cx.of(k))))
    if not above.verdict.holds:
        raise ArithmeticError(f"section4: the sweep's margin has no certified sign at k = {k}")
    return k, (*proof, above)


def _section4_k_max() -> int:
    """The largest k whose binary64 sides _section4_sides(float(k)) are both finite.

    Overflow sets in only upward, so a bisection over the bit patterns of
    the doubles in [1, max], which order as the doubles do, finds the last
    double x with finite sides.  float(k) rounds to nearest, ties to even:
    every k below the midpoint of x and the next double rounds to at most
    x, and the midpoint itself does when it rounds down.
    """
    def bits(x: float) -> int:
        return struct.unpack("<q", struct.pack("<d", x))[0]

    def double(b: int) -> float:
        return struct.unpack("<d", struct.pack("<q", b))[0]

    lo, hi = bits(1.0), bits(sys.float_info.max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if all(map(math.isfinite, _section4_sides(double(mid)))):
            lo = mid
        else:
            hi = mid
    x = double(lo)
    midpoint = (int(x) + int(double(lo + 1))) // 2
    return midpoint if float(midpoint) == x else midpoint - 1


# certified once, at import: every k >= _SECTION4_K0 is a contradiction
_SECTION4_K0 = _section4_threshold()[0]
_SECTION4_K_MAX = _section4_k_max()


class Section4Contradiction(int):
    """One sweep point: an int whose value is k.

    section4_contradiction returns one of two subclasses whose class
    attribute `contradiction` is the certified verdict, so a point holds
    its k and nothing else (about 57 B retained).  A point built from this
    class by hand carries no verdict.  lhs and rhs are the two sides in
    plain binary64, recomputed from k when read, bit for bit as float
    arithmetic on k gives them; no verdict is decided from them.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return int(self)

    @property
    def lhs(self) -> float:
        return _section4_sides(float(self))[0]

    @property
    def rhs(self) -> float:
        return _section4_sides(float(self))[1]


class _Contradiction(Section4Contradiction):
    __slots__ = ()
    contradiction = True


class _NoContradiction(Section4Contradiction):
    __slots__ = ()
    contradiction = False


def section4_contradiction(k: int) -> Section4Contradiction:
    """Whether 4.6623k - 1.8344 - log k > 1.0433k + 3.13 k^(3/4) at the integer k.

    The verdict is certified once per process, at import, for every k:
    the margin lhs - rhs rises on [1, oo) and turns positive at k = 3, by
    three certified_less comparisons (see _section4_threshold).  So the
    call compares k with that threshold and evaluates neither side; at
    k = 1 and 2 the inequality genuinely reverses.  lhs and rhs are read
    lazily, as binary64 floats.  A k below 1 raises ValueError, a float k
    TypeError, and a k whose binary64 sides would overflow (from about
    3.86e307) OverflowError.
    """
    if type(k) is not int:
        k = operator.index(k)  # TypeError for a float, which an int point would truncate
    if k < 1:
        raise ValueError(f"section4_contradiction: k must be >= 1, got {k}")
    if k > _SECTION4_K_MAX:
        raise OverflowError(f"section4_contradiction: a binary64 side overflows past k = {_SECTION4_K_MAX:.6e}")
    return (_Contradiction if k >= _SECTION4_K0 else _NoContradiction)(k)


@dataclass(frozen=True, slots=True)
class Section5Report(LemmaReport):
    """section5's LemmaReport, which also carries n and t_pow, the enclosure of l0.

    l0 is t_pow.lo, a lower end of the exact l0.
    """

    n: int = field(kw_only=True)
    t_pow: IntervalValue = field(kw_only=True)

    @property
    def l0(self) -> float:
        return self.t_pow.lo


def section5_check(n: int, c: float) -> Section5Report:
    """Certify that any collision at this n must have l above (cn/log n)^(40/21).

    With l0 = (cn/log n)^(40/21), checks
    (2n+l0)^(21/40) log(2n+l0) < 1.3132 n - log(n)/2 - 0.5359, whose right
    side is the central_binom_lower_expr floor; the left side increases in
    l, so a certified HOLDS here excludes every l <= l0.  l0 is
    bounds.section5_l0_expr, enclosed inside each evaluation context, so
    HOLDS covers the exact l0.  The report's l0 is t_pow.lo, a lower end of
    the exact l0, so HOLDS excludes every l <= l0 too.  A c at or above
    C_STAR is refused before anything is evaluated; bad input is
    refused, never gated, so the report's hypotheses are empty.
    """
    if not c < C_STAR:
        raise ValueError(f"section5_check: c must be below {C_STAR}, got {c}")
    t_pow = section5_thresholds(n, c)

    def sides(cx):
        base = 2 * cx.of(n) + section5_l0_expr(cx, cx.of(n), cx.of(c))
        lhs = cx.power(base, cx.of(Fraction(21, 40))) * cx.log(base)
        return lhs, central_binom_lower_expr(cx, cx.of(n))

    return Section5Report("section5", {}, (certified_less(sides),), n=n, t_pow=t_pow)
