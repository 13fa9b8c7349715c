"""Checkers for the necessary conditions a binomial collision must satisfy.

Every checker returns a LemmaReport: certified lhs/rhs intervals, a verdict,
and the hypothesis flags that gate it.  A checker never extrapolates: when a
hypothesis fails, the verdict is INDETERMINATE and the report says which
flag failed (diagnostic values are still filled in when they are computable).

Index-range corrections.  The product identity behind everything here is

    prod_{i=m}^{k-1} (n-i) * prod_{i3=delta+1}^{l} (2n+i3)
        = prod_{i2=m+delta+1}^{k+l} (n+i2),

with the first product starting at i = m, not m+1: starting one later fails
on the true collision C(15,5) = C(14,6).  The same shift propagates into the
second ratio inequality, whose right side must carry (k+m+delta), not
(k+m+delta+1); check_lemma21 evaluates the shifted variant too, for
reference, but gives it no verdict.  check_lemma23_smooth likewise checks
both window conventions and attaches its verdict to the corrected one;
index_windows gives each window as its range of offsets i, and the window
holds n - i (S1) or n + i (S2).

The two threshold computations live here as well: threshold_lemma32 locates
the sign change that caps k+l, and nmax_lemma31 maximizes the implied bound
for n over a (k, l) grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import arith, sieve
from .bounds import (
    Section5Thresholds,
    central_binom_lower_expr,
    f_stirling,
    log_g_upper_expr,
    pi_upper_dusart,
    pi_upper_dusart_expr,
    section5_thresholds,
)
from .collision import ParamTuple, check_eq12
from .intervals import (
    FAILS,
    HOLDS,
    INDETERMINATE,
    IntervalValue,
    Verdict,
    certified_less,
    compare_less,
    enclose_float,
    evaluate,
)

__all__ = [
    "LemmaReport",
    "index_windows",
    "check_lemma21",
    "check_lemma22",
    "check_lemma23_smooth",
    "check_lemma31",
    "lemma32_expression",
    "threshold_lemma32",
    "Lemma32Threshold",
    "GridConfig",
    "CLAIMED_N_BOUND",
    "NmaxReport",
    "nmax_lemma31",
    "section4_check",
    "section4_contradiction",
    "Section4Contradiction",
    "section5_check",
    "Section5Report",
]

# Lemma 3.1: every collision has n <= CLAIMED_N_BOUND (the certificate's default q_max)
CLAIMED_N_BOUND = 31754673611
_ZERO = IntervalValue.of(0)


@dataclass(frozen=True, slots=True)
class LemmaReport:
    lemma: str
    hypotheses: dict[str, bool]
    lhs: IntervalValue
    rhs: IntervalValue
    verdict: Verdict
    notes: str

    def to_text(self) -> str:
        hyp = " ".join(f"{k}={'yes' if v else 'no'}" for k, v in self.hypotheses.items())
        lines = [
            f"{self.lemma}: {self.verdict.state} (margin {self.verdict.margin:.6g})",
            f"  hypotheses: {hyp}" if hyp else "  hypotheses: (none)",
            f"  lhs in [{self.lhs.lo!r}, {self.lhs.hi!r}]",
            f"  rhs in [{self.rhs.lo!r}, {self.rhs.hi!r}]",
        ]
        if self.notes:
            lines.append(f"  notes: {self.notes}")
        return "\n".join(lines)


def _gated(lemma: str, hyp: dict[str, bool], lhs=_ZERO, rhs=_ZERO, extra="") -> LemmaReport:
    failed = ", ".join(name for name, ok in hyp.items() if not ok)
    notes = f"hypotheses not met: {failed}"
    if extra:
        notes += f"; {extra}"
    return LemmaReport(lemma, hyp, lhs, rhs, Verdict(INDETERMINATE, 0.0), notes)


def index_windows(t: ParamTuple, shifted_s1: bool = False) -> tuple[range, range]:
    """The offsets i of the two windows whose product the collision divides.

    S1 holds the values n - i, S2 holds n + i; shifted_s1 selects the
    variant of S1 starting at m+1.
    """
    s1 = range(t.m + 1, t.k + 1) if shifted_s1 else range(t.m, t.k)
    s2 = range(t.m0 + 1, t.k + t.l + 1)
    return s1, s2


def check_lemma21(t: ParamTuple) -> LemmaReport:
    """The two ratio inequalities every collision satisfies.

    First: (l-delta) log((2n+l)/(n+k+l)) < (k-m)(k+m+delta+1)/(n-k).
    Second (verdict form): (l-delta) log(2n/(n+k)) > (k-m)(k+m+delta)/(n+k+delta).
    The variant of the second with numerator (k+m+delta+1) is evaluated for
    reference only: it fails on C(15,5) = C(14,6).
    """
    delta, n, m, k, l = t.delta, t.n, t.m, t.k, t.l
    hyp = {
        "eq12": check_eq12(t),
        "ordering": t.ordering_ok,
        "l_gt_delta": t.l_gt_delta,
    }
    if not all(hyp.values()):
        return _gated("lemma21", hyp)

    v1, lhs1, rhs1 = certified_less(
        lambda cx: cx.of(l - delta) * cx.log(cx.of(2 * n + l) / cx.of(n + k + l)),
        lambda cx: cx.of(Fraction((k - m) * (k + m + delta + 1), n - k)),
    )
    # orientation flipped: the claim is lhs2 > rhs2
    v2, rhs2, lhs2 = certified_less(
        lambda cx: cx.of(Fraction((k - m) * (k + m + delta), n + k + delta)),
        lambda cx: cx.of(l - delta) * cx.log(cx.of(2 * n) / cx.of(n + k)),
    )
    shifted_rhs2 = IntervalValue.of(Fraction((k - m) * (k + m + delta + 1), n + k + delta))
    shifted_state = compare_less(shifted_rhs2, lhs2).state

    if v1.holds and v2.holds:
        verdict = Verdict(HOLDS, min(v1.margin, v2.margin))
    elif v1.fails or v2.fails:
        verdict = Verdict(FAILS, min(v.margin for v in (v1, v2) if v.fails))
    else:
        verdict = Verdict(INDETERMINATE, min(v1.margin, v2.margin))
    notes = (
        f"first: {v1.state} (margin {v1.margin:.6g}); "
        f"second: lhs in [{lhs2.lo!r}, {lhs2.hi!r}], rhs in [{rhs2.lo!r}, {rhs2.hi!r}], "
        f"{v2.state} (margin {v2.margin:.6g}); "
        f"shifted-numerator variant of the second: {shifted_state} (no verdict)"
    )
    return LemmaReport("lemma21", hyp, lhs1, rhs1, verdict, notes)


def check_lemma22(n: int, k: int) -> LemmaReport:
    """Whether k is small enough to force l = delta.

    Evaluates k^2 / ((n-k) log(2.001/(1.001 + k/n))); a value below 1 pins
    l - delta < 1.  The boundary sits exactly between k = 587 and k = 588
    at n = 500000, which is where the k >= 588 regime comes from.
    """
    hyp = {"scale": n >= 500000, "k_range": 1 <= k < n}
    if not all(hyp.values()):
        return _gated("lemma22", hyp)

    def value(cx):
        kn = cx.of(k) / cx.of(n)
        den = cx.of(n - k) * cx.log(cx.of("2.001") / (cx.of("1.001") + kn))
        return cx.of(k * k) / den

    verdict, lhs, rhs = certified_less(value, lambda cx: cx.of(1))
    notes = "forces l = delta" if verdict.holds else (
        "does not force l = delta" if verdict.fails else "force undecided"
    )
    return LemmaReport("lemma22", hyp, lhs, rhs, verdict, notes)


def check_lemma23_smooth(t: ParamTuple) -> LemmaReport:
    """Every element of S1 and S2 must be k0-smooth.

    Verdict attaches to the corrected S1 = {n-m, ..., n-k+1}; the shifted
    window {n-m-1, ..., n-k} is evaluated alongside and reported in notes.
    """
    hyp = {"eq12": check_eq12(t)}
    if not all(hyp.values()):
        return _gated("lemma23", hyp)

    k0 = t.k0
    s1, s2 = index_windows(t)
    s1_shifted, _ = index_windows(t, shifted_s1=True)
    elements = [t.n - i for i in s1] + [t.n + i for i in s2]
    if any(v < 1 for v in elements):
        raise ValueError(f"lemma23: window contains a nonpositive element for {t}")

    # no prime is <= k0 < 2, so there every element >= 2 is a witness
    split = functools.cache(lambda v: arith.smooth_split(v, max(k0, 1)))
    max_smooth_p = 1
    witness: Optional[tuple[int, int]] = None  # (element, prime factor > k0)
    for v in elements:
        if v == 1:
            continue
        fac = split(v)
        if not fac.is_smooth:
            witness = (v, fac.least_prime_above)
            break
        max_smooth_p = max(max_smooth_p, fac.factors[-1][0])

    rhs = IntervalValue.of(k0)
    if not elements:
        lhs, verdict, detail = rhs, Verdict(HOLDS, 0.0), "both windows are empty"
    elif witness is None:
        lhs = IntervalValue.of(max_smooth_p)
        verdict = compare_less(lhs, rhs, strict=False)
        detail = f"all {len(elements)} elements are {k0}-smooth (max prime factor {max_smooth_p})"
        if max_smooth_p > k0:  # every element is 1, and k0 < 1
            detail = f"every element is 1, whose max prime factor counts as 1 > {k0}"
    else:
        elem, wprime = witness
        lhs = IntervalValue(IntervalValue.of(wprime).lo, IntervalValue.of(max(wprime, elem)).hi)
        verdict = compare_less(lhs, rhs, strict=False)
        detail = f"element {elem} has prime factor {wprime} > {k0}"

    shifted_all = all(v == 1 or split(v).is_smooth for v in (t.n - i for i in s1_shifted) if v >= 1)
    notes = (
        f"{detail}; S1 offsets {s1.start}..{s1.stop - 1}, "
        f"S2 offsets {s2.start}..{s2.stop - 1}; "
        f"shifted S1 window also smooth: {'yes' if shifted_all else 'no'}"
    )
    return LemmaReport("lemma23", hyp, lhs, rhs, verdict, notes)


def check_lemma31(t: ParamTuple, pi_mode: str = "exact") -> LemmaReport:
    """(n-k)^(2k+l-m-m0-pi(k0)) <= (2k+l)^pi(k0) (k-m)! (l+k-m0)!, in logs.

    pi_mode "exact" counts primes with the sieve; "dusart" substitutes the
    explicit upper bound, which can only make the inequality easier (the
    count is subtracted on the left and added on the right), so a HOLDS
    under "exact" stays HOLDS under "dusart" up to interval width.
    """
    if pi_mode not in ("exact", "dusart"):
        raise ValueError(f"check_lemma31: pi_mode must be 'exact' or 'dusart', got {pi_mode!r}")
    n, m, k, l = t.n, t.m, t.k, t.l
    m0, k0 = t.m0, t.k0
    hyp = {
        "n_gt_k": n > k,
        "window_args": k - m >= 0 and l + k - m0 >= 0,
        "base_positive": 2 * k + l >= 1,
    }
    if not all(hyp.values()):
        return _gated("lemma31", hyp)

    if k0 < 2:
        pi_iv = IntervalValue.of(0)
        pi_note = "pi(k0) = 0 (k0 < 2)"
    elif pi_mode == "exact":
        pi_iv = IntervalValue.of(sieve.prime_count(k0))
        pi_note = f"pi({k0}) = {int(pi_iv.lo)} exact"
    else:
        pi_iv = pi_upper_dusart(k0)
        pi_note = f"pi({k0}) <= {pi_iv.hi:.6g} substituted"

    exponent = IntervalValue.of(2 * k + l - m - m0) - pi_iv
    lhs = exponent * IntervalValue.of(n - k).log()
    rhs = (
        pi_iv * IntervalValue.of(2 * k + l).log()
        + enclose_float(float(arith.log_factorial_exact(k - m)))
        + enclose_float(float(arith.log_factorial_exact(l + k - m0)))
    )
    verdict = compare_less(lhs, rhs, strict=False)
    return LemmaReport("lemma31", hyp, lhs, rhs, verdict, pi_note)


def _lemma32(cx, F: int):
    """The lemma32_expression builder: the whole expression in context cx."""
    pi_bar = pi_upper_dusart_expr(cx, cx.of(2 * F))
    fa = log_g_upper_expr(cx, cx.of(Fraction(53, 200) * (F - 1)))
    fb = log_g_upper_expr(cx, cx.of(F - Fraction(147, 200) * (F - 1)))
    head = pi_bar * cx.log(cx.of(2 * F - 1))
    count = cx.of("0.53") * (F - 1) - pi_bar
    inner = cx.power(cx.of(2 * F - 2), cx.of("1.5")) - (2 * F - 1)
    return head + fa + fb - count * cx.log(inner)


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
    verdict, _, _ = certified_less(lambda cx: _lemma32(cx, F), lambda cx: cx.of(0))
    if not verdict.decided:
        raise ArithmeticError(f"threshold expression sign undecidable at F = {F}")
    return -1 if verdict.holds else 1


def threshold_lemma32(f_lo: int = 10**4, f_hi: int = 10**7) -> Lemma32Threshold:
    """Largest F >= f_lo with a nonnegative expression, by bisection.

    Requires a certified sign change over [f_lo, f_hi]; the expression is
    monotone decreasing there, so the bracket stays valid throughout.
    """
    if not 3 <= f_lo < f_hi:
        raise ValueError(f"threshold_lemma32: bad bracket [{f_lo}, {f_hi}]")
    if _sign_at(f_lo) < 0 or _sign_at(f_hi) > 0:
        raise ValueError(
            f"threshold_lemma32: no certified sign change over [{f_lo}, {f_hi}]"
        )
    lo, hi = f_lo, f_hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sign_at(mid) > 0:
            lo = mid
        else:
            hi = mid
    return Lemma32Threshold(lo, lemma32_expression(lo), lemma32_expression(hi))


@dataclass(frozen=True, slots=True)
class GridConfig:
    """Search grid for the n-bound maximization.

    k runs one-by-one through the dense band [k_min, dense_until] where the
    maximum lives, then geometrically (factor `growth`) up to k_max.  For
    each k, l runs over [1, floor(0.00271 k)], subsampled geometrically to
    at most l_samples values when the range is wider than that.
    """

    k_min: int = 588
    k_max: int = 871155
    dense_until: int = 4000
    growth: float = 1.01
    l_samples: int = 64
    pi_mode: str = "dusart"

    def __post_init__(self) -> None:
        if not 3 <= self.k_min <= self.k_max:
            raise ValueError(f"GridConfig: bad k range [{self.k_min}, {self.k_max}]")
        if self.dense_until < self.k_min:
            raise ValueError(
                f"GridConfig: dense_until must be >= k_min, got {self.dense_until} < {self.k_min}"
            )
        if not (math.isfinite(self.growth) and self.growth > 1.0):
            raise ValueError(f"GridConfig: growth must be finite and exceed 1, got {self.growth}")
        if self.l_samples < 1:
            raise ValueError(f"GridConfig: l_samples must be >= 1, got {self.l_samples}")
        if self.pi_mode not in ("exact", "dusart"):
            raise ValueError(f"GridConfig: bad pi_mode {self.pi_mode!r}")

    def k_values(self) -> list[int]:
        dense_end = min(self.dense_until, self.k_max)
        ks = list(range(self.k_min, dense_end + 1))
        k = dense_end
        while k < self.k_max:
            k = min(self.k_max, max(k + 1, math.ceil(k * self.growth)))
            ks.append(k)
        return ks

    def l_values(self, k: int) -> list[int]:
        cap = max(1, 271 * k // 100000)
        if cap <= self.l_samples:
            return list(range(1, cap + 1))
        grid = np.unique(
            np.rint(np.geomspace(1, cap, num=self.l_samples)).astype(np.int64)
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
    k: int, l: int, pi_iv: IntervalValue, arg1: Fraction, f_arg1: IntervalValue, k53: IntervalValue
) -> Optional[float]:
    """Upper endpoint of the implied log(n-k) bound at one grid point.

    arg1 = 53k/200, f_arg1 = f(arg1) and k53 = [53k/100] depend on k alone.
    """
    num = (
        pi_iv * IntervalValue.of(2 * k + l).log()
        + f_arg1
        + f_stirling(arg1 + (l - 1))
    )
    den = k53 + (l - 1) - pi_iv
    if den.lo <= 0.0:
        return None
    return (num / den).hi


def nmax_lemma31(grid: GridConfig = GridConfig()) -> NmaxReport:
    """Maximize the bound on n implied by the factorial inequality.

    At each grid point: m pinned to 0.735k (real), m0 = m + 1, delta = 0
    (the choice maximizing both k0 and the resulting bound), prime count
    replaced per pi_mode.  log(n-k) <= [pi log(2k+l) + f(k-m) + f(l+k-m0)]
    / (2k+l-m-m0-pi); the report exponentiates the grid maximum.  Grid
    points with a nonpositive denominator carry no information and are
    skipped.  One serial scan, k and then l ascending, keeps a point only
    when it beats the best so far, so ties go to the smallest (k, l).
    """
    pi_exact = None
    if grid.pi_mode == "exact":
        k0_max = 2 * (grid.k_max + max(1, 271 * grid.k_max // 100000)) - 1
        pi_exact = sieve.base_primes(k0_max)
    best: Optional[tuple[float, int, int]] = None
    points = 0
    skipped = 0
    for k in grid.k_values():
        arg1 = Fraction(53 * k, 200)
        f_arg1 = f_stirling(arg1)
        k53 = IntervalValue.of(Fraction(53 * k, 100))
        for l in grid.l_values(k):
            k0 = 2 * (k + l) - 1
            if pi_exact is not None:
                pi_iv = IntervalValue.of(
                    int(np.searchsorted(pi_exact, k0, side="right"))
                )
            else:
                pi_iv = pi_upper_dusart(k0)
            ratio = _nmax_point(k, l, pi_iv, arg1, f_arg1, k53)
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
    product is empty, which is the impossibility this section rests on.
    """
    n, m, k, l = t.n, t.m, t.k, t.l
    k0, m0 = t.k0, t.m0
    hyp = {
        "ordering": t.ordering_ok,
        "ratio": t.ratio_ok,
        "l_small": 1000 * l < n,
        "scale": t.scale_ok,
        "cube": (n + k + l) ** 2 <= k0**3,
    }
    if k < 1 or k0 < 1:
        return _gated("section4", {**hyp, "k_positive": False})

    lower_build = lambda cx: (
        cx.of("4.6623") * cx.of(k) - cx.of("2.879") - cx.log(cx.of(k))
    )
    upper_build = lambda cx: (
        (cx.of(k0) + 3 * cx.power(cx.of(k0), cx.of("0.75")))
        * cx.log(cx.of("2.83"))
    )

    exact_note = ""
    r1, r2 = k - m, l + k - m0
    n1, n2 = n - m - 1, n + k + l
    if 0 <= r1 <= n1 and 0 <= r2 <= n2:
        exact = float(arith.log_binomial_exact(n1, r1) + arith.log_binomial_exact(n2, r2))
        exact_note = f"exact log product = {exact:.6f}"

    if not all(hyp.values()):
        return _gated("section4", hyp, extra=exact_note)

    verdict, lhs, rhs = certified_less(lower_build, upper_build, strict=False)
    notes = "bounds compatible" if verdict.holds else "bounds incompatible: no such tuple exists"
    if exact_note:
        notes += f"; {exact_note}"
    return LemmaReport("section4", hyp, lhs, rhs, verdict, notes)


@dataclass(slots=True)
class Section4Contradiction:
    k: int
    lhs: float
    rhs: float
    contradiction: bool


def section4_contradiction(k: int) -> Section4Contradiction:
    """4.6623k - 1.8344 - log k vs 1.0433k + 3.13 k^(3/4), plain binary64.

    The margin grows linearly with k (slope ~3.6), so float evaluation is
    ample; at k = 1 the inequality genuinely reverses.
    """
    if k < 1:
        raise ValueError(f"section4_contradiction: k must be >= 1, got {k}")
    lhs = 4.6623 * k - 1.8344 - math.log(k)
    rhs = 1.0433 * k + 3.13 * k**0.75
    return Section4Contradiction(k, lhs, rhs, lhs > rhs)


@dataclass(frozen=True, slots=True)
class Section5Report:
    n: int
    c: float
    thresholds: Section5Thresholds
    l0: float
    lhs: IntervalValue
    rhs: IntervalValue
    verdict: Verdict


def section5_check(n: int, c: float) -> Section5Report:
    """Certify that any collision at this n must have l above (cn/log n)^(40/21).

    With l0 = (cn/log n)^(40/21), checks
    (2n+l0)^(21/40) log(2n+l0) < 1.3132 n - log(n)/2 - 0.5359, whose right
    side is the central_binom_lower_expr floor; the left side increases in
    l, so a certified HOLDS here excludes every l <= l0.  l0 is enclosed inside
    each evaluation context, so HOLDS covers the exact l0; the report's l0
    is the binary64 t_pow, for display.
    """
    thresholds = section5_thresholds(n, c)
    if not c < thresholds.c_star:
        raise ValueError(f"section5_check: c must be below {thresholds.c_star}, got {c}")

    def lhs_build(cx):
        ratio = cx.of(c) * cx.of(n) / cx.log(cx.of(n))
        l0 = cx.power(ratio, cx.of(Fraction(40, 21)))
        base = 2 * cx.of(n) + l0
        return cx.power(base, cx.of(Fraction(21, 40))) * cx.log(base)

    verdict, lhs, rhs = certified_less(
        lhs_build, lambda cx: central_binom_lower_expr(cx, cx.of(n))
    )
    return Section5Report(n, c, thresholds, thresholds.t_pow, lhs, rhs, verdict)
