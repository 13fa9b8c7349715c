"""Oracles that only the tests use.

Accuracy of theta/psi in chebyshev_exact: per segment the prime logarithms
are summed with math.fsum (correctly rounded), and the per-segment partials
are fsum-ed again.  The only surviving error is the per-element rounding of
log and the final rounding of each partial, bounded by ~5e-7 absolute at
x = 1e9, within the 1e-6 contract.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from collisionlab import arith, sieve
from collisionlab.collision import ParamTuple

# directly-summed theta/psi are only offered up to this point
EXACT_SUM_LIMIT = 10**9


def width(iv) -> float:
    return iv.hi - iv.lo


def mid(iv) -> float:
    return 0.5 * (iv.lo + iv.hi)


def contains(iv, x) -> bool:
    """Whether the exact value of x (int, float or Fraction) lies in iv."""
    return Fraction(iv.lo) <= Fraction(x) <= Fraction(iv.hi)


def legendre_valuation(N: int, r: int, p: int) -> int:
    """v_p(C(N, r)) for 0 <= r <= N by Legendre: sum over i of floor(N/p^i) - floor(r/p^i) - floor((N-r)/p^i)."""
    total, q = 0, p
    while q <= N:
        total += N // q - r // q - (N - r) // q
        q *= p
    return total


def product_identity_check(t: ParamTuple) -> bool:
    """Exact product form of the collision equation; equivalent to check_eq12."""
    left = math.prod(t.n - i for i in range(t.m, t.k))
    left *= math.prod(2 * t.n + i for i in range(t.delta + 1, t.l + 1))
    right = math.prod(t.n + i for i in range(t.m + t.delta + 1, t.k + t.l + 1))
    return left == right


def pi_upper_dusart_floor(xs: np.ndarray) -> np.ndarray:
    """Vectorized sound lower bound of the pi_upper_dusart expression.

    Roughly ten float64 operations per point, each within 0.5 ulp, so the
    true expression exceeds the rounded result by at most ~2e-15 relative.
    The 1e-12 haircut below overshoots that budget by three orders of
    magnitude while staying far under the bound's distance to pi(x).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if np.any(xs <= 1.0):
        raise ValueError("pi_upper_dusart_floor: all points must exceed 1")
    el = np.log(xs)
    expr = xs / el * (1.0 + 1.0 / el + 2.0 / el**2 + 7.59 / el**3)
    return expr * (1.0 - 1e-12)


def refute_window(q: int, window: tuple[int, int], bound: int) -> Optional[tuple[int, int]]:
    """(offset, prime) for the first element of q+a .. q+b with a prime factor above bound, or None.

    The scalar reference for the certificate's batched refutation: each
    element is trial-divided once; the witness is the smallest prime factor
    above the bound, read from that split.  It is re-verified on emission:
    it must divide its element, be prime, and exceed the bound.
    """
    a, b = window
    for offset in range(a, b + 1):
        value = q + offset
        if value < 2:
            continue
        split = arith.smooth_split(value, bound)
        if split.cofactor > 1:
            prime = split.least_prime_above
            if prime is None or value % prime or prime <= bound or not arith.is_prime(prime):
                raise AssertionError(f"witness extraction failed for {value}")
            return offset, prime
    return None


def _primes_array(lo: int, hi: int) -> np.ndarray:
    """Primes in the half-open range [lo, hi) as an int64 array."""
    if hi <= lo or hi <= 2:
        return np.empty(0, dtype=np.int64)
    parts = []
    if lo <= 2 < hi:
        parts.append(np.array([2], dtype=np.int64))
    olo = max(lo, 3)
    if olo % 2 == 0:
        olo += 1
    if olo < hi:
        mask = sieve._odd_prime_mask(olo, hi)
        parts.append(olo + 2 * np.flatnonzero(mask).astype(np.int64))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def primes_in(lo: int, hi: int) -> Iterator[int]:
    """All primes in the closed range [lo, hi], ascending, each once."""
    if lo > hi:
        raise ValueError(f"primes_in: lo > hi ({lo} > {hi})")
    if lo < 2:
        raise ValueError(f"primes_in: lo must be >= 2, got {lo}")
    if hi > sieve._MAX_SIEVE_POINT:
        raise ValueError(f"primes_in: hi exceeds 63-bit sieve range: {hi}")
    for _, slo, shi in sieve.SegmentPlan(lo, hi + 1).jobs():
        for p in _primes_array(slo, shi).tolist():
            yield p


@dataclass(frozen=True, slots=True)
class ChebyshevValues:
    pi: int
    theta: float
    psi: float


def chebyshev_exact(x: int) -> ChebyshevValues:
    """Exact pi(x), theta(x) = sum log p, psi(x) = sum over p^e <= x of log p.

    Direct summation over sieve output; see the module docstring for the
    error budget (comfortably below 1e-6 absolute up to EXACT_SUM_LIMIT).
    """
    if x < 2:
        raise ValueError(f"chebyshev_exact: x must be >= 2, got {x}")
    if x > EXACT_SUM_LIMIT:
        raise ValueError(f"chebyshev_exact: x={x} beyond exact summation limit {EXACT_SUM_LIMIT}")
    pi = 0
    partials: list[float] = []
    for _, slo, shi in sieve.SegmentPlan(2, x + 1).jobs():
        ps = _primes_array(slo, shi)
        pi += len(ps)
        if len(ps):
            partials.append(math.fsum(np.log(ps.astype(np.float64)).tolist()))
    theta = math.fsum(partials)
    # prime powers p^e with e >= 2 only involve p <= sqrt(x)
    power_terms: list[float] = []
    for p in sieve.prime_list(math.isqrt(x)):
        q = p * p
        lp = math.log(p)
        while q <= x:
            power_terms.append(lp)
            q *= p
    psi = math.fsum(partials + power_terms)
    return ChebyshevValues(pi, theta, psi)


def chebyshev_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays pi[0..n], theta[0..n], psi[0..n] for sweep-style checks.

    Cumulative-sum float64 variant of chebyshev_exact: absolute error
    stays below ~1e-4 at n = 1e7, which the sweeping property tests
    account for with an explicit slack.  Memory guard at n <= 2e7.
    """
    if not 2 <= n <= 2 * 10**7:
        raise ValueError(f"chebyshev_tables: n out of supported range: {n}")
    ps = sieve.base_primes(n)
    ind = np.zeros(n + 1, dtype=np.int64)
    ind[ps] = 1
    pi_t = np.cumsum(ind)
    contrib = np.zeros(n + 1, dtype=np.float64)
    logs = np.log(ps.astype(np.float64))
    contrib[ps] = logs
    theta_t = np.cumsum(contrib)
    for p in sieve.prime_list(math.isqrt(n)):
        lp = math.log(p)
        q = p * p
        while q <= n:
            contrib[q] += lp
            q *= p
    psi_t = np.cumsum(contrib)
    return pi_t, theta_t, psi_t
