"""Segmented sieve of Eratosthenes with prime gaps and exact Chebyshev sums.

The sieve works on odd numbers only, one numpy byte per odd entry, with a
base prime table up to sqrt(hi).  Everything downstream is expressed over
segments so ranges up to a few times 1e10 stay within desk memory:

  * primes_in / prime_count         prime streams and exact pi(x)
  * gap_scan                        events (p, d(p)) with d(p) >= min_gap
  * prime_neighbors                 nearest primes around a point
  * chebyshev_exact / _tables       exact pi, theta, psi summations

Gap attribution: a gap belongs to its left endpoint, and every segment
closes its own last gap by walking the candidates after its last prime with
the deterministic Miller-Rabin test (arith.is_prime, exact far beyond the
63-bit sieve range), not by sieving ahead.  So results never depend on
segmentation or on how many workers ran the scan.

Accuracy of theta/psi: per segment the prime logarithms are summed with
math.fsum (correctly rounded), and the per-segment partials are fsum-ed
again.  The only surviving error is the per-element rounding of log and
the final rounding of each partial, bounded by ~5e-7 absolute at x = 1e9,
within the 1e-6 contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import arith
from .pool import ordered_map

__all__ = [
    "GapEvent",
    "SegmentPlan",
    "ChebyshevValues",
    "DEFAULT_SEGMENT_ODDS",
    "EXACT_SUM_LIMIT",
    "base_primes",
    "prime_list",
    "primes_unbounded",
    "primes_in",
    "prime_count",
    "prime_neighbors",
    "gap_scan",
    "chebyshev_exact",
    "chebyshev_tables",
]

# odd entries per segment chunk (one numpy byte each); span is twice this
DEFAULT_SEGMENT_ODDS = 1 << 21

# directly-summed theta/psi are only offered up to this point
EXACT_SUM_LIMIT = 10**9

_MAX_SIEVE_POINT = 2**63 - 1


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


_base_cache: dict[str, object] = {"limit": 0, "primes": np.empty(0, dtype=np.int64)}


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (cached, grow-only)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit > _base_cache["limit"]:
        grown = max(limit, 2 * int(_base_cache["limit"]), 1 << 16)
        _base_cache["primes"] = _simple_sieve(grown)
        _base_cache["limit"] = grown
    primes: np.ndarray = _base_cache["primes"]  # type: ignore[assignment]
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


_list_cache: dict[int, list[int]] = {}


def prime_list(bound: int) -> list[int]:
    """Primes <= bound as plain ints, memoized per bound for trial division."""
    got = _list_cache.get(bound)
    if got is None:
        got = [int(p) for p in base_primes(bound)]
        _list_cache[bound] = got
    return got


def primes_unbounded() -> Iterator[int]:
    """Ascending primes without an upper bound (table doubles on demand)."""
    limit = 1 << 16
    idx = 0
    while True:
        primes = base_primes(limit)
        while idx < len(primes):
            yield int(primes[idx])
            idx += 1
        limit *= 2


def _odd_prime_mask(lo: int, hi: int) -> np.ndarray:
    """Primality mask for the odd numbers lo, lo+2, ..., < hi (lo odd, >= 3)."""
    count = (hi - lo + 1) // 2
    mask = np.ones(count, dtype=bool)
    if count <= 0:
        return mask[:0]
    for p in base_primes(math.isqrt(hi - 1))[1:]:
        p = int(p)
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start < hi:
            mask[(start - lo) // 2 :: p] = False
    if lo == 1:
        mask[0] = False
    return mask


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
        mask = _odd_prime_mask(olo, hi)
        parts.append(olo + 2 * np.flatnonzero(mask).astype(np.int64))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@dataclass(frozen=True, slots=True)
class SegmentPlan:
    """Tiling of [lo, hi) into fixed-span sieve segments."""

    lo: int
    hi: int
    segment_size: int = DEFAULT_SEGMENT_ODDS

    def __post_init__(self) -> None:
        if not 2 <= self.lo <= self.hi:
            raise ValueError(f"SegmentPlan: need 2 <= lo <= hi, got [{self.lo}, {self.hi})")
        if self.segment_size < 1024:
            raise ValueError(f"SegmentPlan: segment_size too small: {self.segment_size}")

    def jobs(self) -> list[tuple[int, int, int]]:
        span = 2 * self.segment_size
        out = []
        x = self.lo
        idx = 0
        while x < self.hi:
            y = min(x + span, self.hi)
            out.append((idx, x, y))
            idx += 1
            x = y
        return out


def primes_in(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_ODDS) -> Iterator[int]:
    """All primes in the closed range [lo, hi], ascending, each once."""
    if lo > hi:
        raise ValueError(f"primes_in: lo > hi ({lo} > {hi})")
    if lo < 2:
        raise ValueError(f"primes_in: lo must be >= 2, got {lo}")
    if hi > _MAX_SIEVE_POINT:
        raise ValueError(f"primes_in: hi exceeds 63-bit sieve range: {hi}")
    for _, slo, shi in SegmentPlan(lo, hi + 1, segment_size).jobs():
        for p in _primes_array(slo, shi).tolist():
            yield p


def prime_count(x: int, segment_size: int = DEFAULT_SEGMENT_ODDS) -> int:
    """Exact pi(x) by segmented counting."""
    if x < 2:
        return 0
    total = 0
    for _, slo, shi in SegmentPlan(2, x + 1, segment_size).jobs():
        total += int(_odd_prime_mask(slo | 1, shi).sum()) if slo > 2 else len(
            _primes_array(slo, shi)
        )
    return total


def next_prime_after(x: int) -> int:
    """Smallest prime > x, walking candidates with the Miller-Rabin test."""
    if x > _MAX_SIEVE_POINT:
        raise ValueError(f"next_prime_after: x exceeds 63-bit sieve range: {x}")
    c = max(x + 1, 2)
    while not arith.is_prime(c):
        c += 1
    return c


def prime_neighbors(x: int) -> tuple[int, int]:
    """(largest prime <= x, smallest prime > x); needs 3 <= x <= 2**63 - 1."""
    if x < 3:
        raise ValueError(f"prime_neighbors: x must be >= 3, got {x}")
    nxt = next_prime_after(x)  # refuses x above the 63-bit range first
    prev = x
    while not arith.is_prime(prev):
        prev -= 1
    return prev, nxt


@dataclass(frozen=True, slots=True)
class GapEvent:
    """Prime p together with its gap d(p) = (next prime) - p."""

    p: int
    gap: int


def _segment_gap_events(
    slo: int, shi: int, min_gap: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Gap events attributed to primes in [slo, shi).

    Returns (ps, gaps, prime_count_in_segment).  The last gap is closed
    by walking ahead to the next prime at or beyond shi, so the result
    is independent of segmentation.
    """
    ps = _primes_array(slo, shi)
    if len(ps) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    nxt = next_prime_after(int(ps[-1]))
    allp = np.concatenate([ps, np.array([nxt], dtype=np.int64)])
    gaps = np.diff(allp)
    keep = gaps >= min_gap
    return ps[keep], gaps[keep], len(ps)


def _gap_job(args: tuple[int, int, int, int]) -> tuple[int, list[tuple[int, int]], int]:
    idx, slo, shi, min_gap = args
    ps, gaps, nprimes = _segment_gap_events(slo, shi, min_gap)
    return idx, list(zip(ps.tolist(), gaps.tolist())), nprimes


def gap_scan(
    lo: int,
    hi: int,
    min_gap: int,
    segment_size: int = DEFAULT_SEGMENT_ODDS,
    workers: int = 1,
) -> Iterator[GapEvent]:
    """All GapEvents with p in [lo, hi) and gap >= min_gap, ascending in p.

    The event stream is a pure function of (lo, hi, min_gap): neither the
    segment size nor the worker count can change it.
    """
    if not 2 <= lo < hi:
        raise ValueError(f"gap_scan: need 2 <= lo < hi, got [{lo}, {hi})")
    if min_gap < 1:
        raise ValueError(f"gap_scan: min_gap must be >= 1, got {min_gap}")
    jobs = [(idx, slo, shi, min_gap) for idx, slo, shi in SegmentPlan(lo, hi, segment_size).jobs()]
    for _, events, _ in ordered_map(_gap_job, jobs, workers):
        for p, g in events:
            yield GapEvent(p, g)


@dataclass(frozen=True, slots=True)
class ChebyshevValues:
    pi: int
    theta: float
    psi: float


def chebyshev_exact(
    x: int,
    limit: int = EXACT_SUM_LIMIT,
    segment_size: int = DEFAULT_SEGMENT_ODDS,
) -> ChebyshevValues:
    """Exact pi(x), theta(x) = sum log p, psi(x) = sum over p^e <= x of log p.

    Direct summation over sieve output; see the module docstring for the
    error budget (comfortably below 1e-6 absolute up to the limit).
    """
    if x < 2:
        raise ValueError(f"chebyshev_exact: x must be >= 2, got {x}")
    if x > limit:
        raise ValueError(f"chebyshev_exact: x={x} beyond exact summation limit {limit}")
    pi = 0
    partials: list[float] = []
    for _, slo, shi in SegmentPlan(2, x + 1, segment_size).jobs():
        ps = _primes_array(slo, shi)
        pi += len(ps)
        if len(ps):
            partials.append(math.fsum(np.log(ps.astype(np.float64)).tolist()))
    theta = math.fsum(partials)
    # prime powers p^e with e >= 2 only involve p <= sqrt(x)
    power_terms: list[float] = []
    for p in prime_list(math.isqrt(x)):
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
    ps = base_primes(n)
    ind = np.zeros(n + 1, dtype=np.int64)
    ind[ps] = 1
    pi_t = np.cumsum(ind)
    contrib = np.zeros(n + 1, dtype=np.float64)
    logs = np.log(ps.astype(np.float64))
    contrib[ps] = logs
    theta_t = np.cumsum(contrib)
    for p in prime_list(math.isqrt(n)):
        lp = math.log(p)
        q = p * p
        while q <= n:
            contrib[q] += lp
            q *= p
    psi_t = np.cumsum(contrib)
    return pi_t, theta_t, psi_t
