"""Segmented sieve of Eratosthenes: prime counts, gap events, prime neighbours.

The sieve works on odd numbers only, one numpy byte per odd entry, with a
base prime table up to sqrt(hi).  Everything downstream is expressed over
segments so ranges up to a few times 1e10 stay within desk memory:

  * prime_count                     exact pi(x)
  * gap_scan                        events (p, d(p)) with d(p) >= min_gap
  * prime_neighbors                 nearest primes around a point

Segment mask: a segment starts as np.tile of one constant pattern, one
period of 255255 odd entries, that already strikes the multiples of 3..17.
The first odd multiple >= max(lo, p^2) of every other base prime comes from
one numpy expression, and the only Python loop left is one strided store
per prime.  A prime below _STRIDE3_CUT, whose stores are many, skips its
odd multiples that are also multiples of 3 (the pattern struck them
already): two stores at stride 3p write two thirds as much.  These stores
run block by block, _BLOCK_ODDS entries (1 MiB) at a time, every prime below
the cut striking one block before the next is begun, so the block written
stays in cache; the sparser stores of the primes above the cut run in one
pass over the whole mask.

Gap events: the mask is read in blocks of B odd entries (B a power of two,
2B <= min_gap, at most 32) with one flag per block, so no gap of interest
lies inside a block.  Only pairs of consecutive non-empty blocks far enough
apart are opened, to find their last and first prime; the primes of a
segment are never listed.  Gap attribution: a gap belongs to its left
endpoint, and every segment closes its own last gap by walking the
candidates after its last prime with the deterministic Miller-Rabin test
(arith.is_prime, exact far beyond the 63-bit sieve range), not by sieving
ahead.  So results never depend on segmentation or on how many workers ran
the scan.

Memory: the base prime table is seeded with the primes through 17, the
presieve's own, and grown one segment at a time by the segment mask, so
building it never needs a byte per integer; prime_count below one default
segment span reads the table's length.  The int64 table itself remains:
pi(sqrt(hi)) * 8 bytes, about 0.4 GB at hi = 1e18 and 1.2 GB at hi = 2^63.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import arith
from .arith import _INT64_MAX
from .pool import ordered_map

__all__ = [
    "GapEvent",
    "SegmentPlan",
    "DEFAULT_SEGMENT_ODDS",
    "base_primes",
    "prime_list",
    "primes_unbounded",
    "prime_count",
    "prime_neighbors",
    "gap_scan",
]

# odd entries per segment chunk (one numpy byte each); span is twice this
DEFAULT_SEGMENT_ODDS = 1 << 21


# presieve: the odd numbers 2j+1 (entry j) with no factor among these primes;
# the pattern repeats every 3*5*7*11*13*17 = 255255 entries (510510 integers)
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13, 17)
_PRESIEVE_PERIOD = math.prod(_PRESIEVE_PRIMES)

# seeded with the primes through 17, the head that _odd_prime_mask slices
# off; base_primes grows it one segment at a time, exactly from the first
# step on, as every composite below 19^2 has a factor the presieve strikes
_base_cache: dict[str, object] = {
    "limit": _PRESIEVE_PRIMES[-1],
    "primes": np.array((2,) + _PRESIEVE_PRIMES, dtype=np.int64),
}


def _pi_upper(x: int) -> int:
    """An upper bound on pi(x): 1.25506 x / log x (Rosser & Schoenfeld 1962)."""
    return int(1.25506 * x / math.log(x)) + 16 if x > 1 else 0


def _extend_base(old: np.ndarray, old_limit: int, limit: int) -> np.ndarray:
    """`old` (all primes <= old_limit) followed by the primes in (old_limit, limit].

    The new primes go straight into one buffer sized by _pi_upper, so the
    peak stays near the returned table plus one segment's mask.
    """
    out = np.empty(max(_pi_upper(limit), len(old)), dtype=np.int64)
    n = len(old)
    out[:n] = old
    for _, lo, hi in SegmentPlan((old_limit + 1) | 1, limit + 1).jobs():
        found = np.flatnonzero(_odd_prime_mask(lo, hi))
        np.multiply(found, 2, out=out[n : n + len(found)])
        out[n : n + len(found)] += lo
        n += len(found)
    out.resize(n, refcheck=False)  # in place; no view of `out` is alive
    return out


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (cached, grow-only)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit > _base_cache["limit"]:
        grown = max(limit, 2 * int(_base_cache["limit"]))
        base_primes(math.isqrt(grown))  # the sieving primes of the extension
        _base_cache["primes"] = _extend_base(
            _base_cache["primes"], int(_base_cache["limit"]), grown  # type: ignore[arg-type]
        )
        _base_cache["limit"] = grown
    primes: np.ndarray = _base_cache["primes"]  # type: ignore[assignment]
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


@functools.cache
def prime_list(bound: int) -> list[int]:
    """Primes <= bound as plain ints, memoized per bound for trial division."""
    return [int(p) for p in base_primes(bound)]


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


def _presieve_pattern() -> np.ndarray:
    pattern = np.ones(_PRESIEVE_PERIOD, dtype=bool)  # one period, tiled per segment
    for p in _PRESIEVE_PRIMES:
        pattern[(p - 1) // 2 :: p] = False
    return pattern


_PRESIEVE = _presieve_pattern()


def _first_odd_multiple_offsets(lo: int, ps: np.ndarray) -> np.ndarray:
    """Entry (start - lo) // 2 of each p's first odd multiple start >= max(lo, p*p).

    lo is odd and every p odd and <= isqrt(2**63 - 1), so p*p and the offsets
    fit in int64; lo + r is never formed, so lo may reach 2**63 - 1.
    """
    sq = ps * ps
    r = (ps - np.int64(lo) % ps) % ps  # lo + r is the first multiple >= lo
    r += ps * (r & 1)  # ... made odd
    return np.where(sq >= lo, (sq - lo) // 2, r // 2)


# base primes below this cut strike two stores at stride 3p (see the
# module docstring); above it, one store per prime costs less overhead
_STRIDE3_CUT = 4096
# the stride-3p stores run one block of this many odd entries (1 MiB) at a
# time, so that the block stays in a core's L2 cache (2 MiB on the 2-vCPU
# Xeon host measured) while the ~550 primes below the cut strike it; a
# default segment is two blocks.  There a segment mask at 1e9 took 6.1 ms in
# blocks of 2^20 against 6.9 ms in one pass; blocks of 2^19 or 3 * 2^18
# gained little and 2^18 lost, and blocking the primes above the cut as
# well lost at the top of the certificate's range
_BLOCK_ODDS = 1 << 20
# a 0-d array stores faster than the Python False, which numpy converts on every store
_FALSE = np.zeros((), dtype=bool)


def _odd_prime_mask(lo: int, hi: int) -> np.ndarray:
    """Primality mask for the odd numbers lo, lo+2, ..., < hi (lo odd, >= 1)."""
    count = (hi - lo + 1) // 2
    if count <= 0:
        return np.ones(0, dtype=bool)
    at = (lo // 2) % _PRESIEVE_PERIOD
    reps = -(-(at + count) // _PRESIEVE_PERIOD)
    mask = np.tile(_PRESIEVE, reps)[at : at + count]
    for p in _PRESIEVE_PRIMES:
        if lo <= p < hi:
            mask[(p - lo) // 2] = True
    if lo == 1:
        mask[0] = False
    ps = base_primes(math.isqrt(hi - 1))[1 + len(_PRESIEVE_PRIMES) :]
    starts = _first_odd_multiple_offsets(lo, ps)
    small = int(np.searchsorted(ps, _STRIDE3_CUT))
    ps3, starts3 = ps[:small], starts[:small]
    # entry start + k*p holds (m + 2k)*p, where m*p = lo + 2*start; m + 2k is
    # a multiple of 3 (struck already) for k = m % 3 = (lo + 2*start) * p % 3,
    # as p * p = 1 (mod 3); the other two k in 0, 1, 2 are stored
    skip = (lo % 3 + 2 * starts3) * ps3 % 3
    first = starts3 + ps3 * (skip == 0)
    second = starts3 + ps3 * (2 - (skip == 2))
    # a start before block s moves up to its first store in the block; a
    # start at or past s is kept (past the block, it stores nothing), as
    # the modulo would move it below p * p and strike p itself
    stores = list(zip((3 * ps3).tolist(), first.tolist(), second.tolist()))
    for s in range(0, count, _BLOCK_ODDS):
        block = mask[s : s + _BLOCK_ODDS]
        for p3, a, b in stores:
            block[a - s if a >= s else (a - s) % p3 :: p3] = _FALSE
            block[b - s if b >= s else (b - s) % p3 :: p3] = _FALSE
    hit = starts[small:] < count
    for p, start in zip(ps[small:][hit].tolist(), starts[small:][hit].tolist()):
        mask[start::p] = _FALSE
    return mask


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

    def jobs(self) -> Sequence[tuple[int, int, int]]:
        """(index, lo, hi) of every segment, ascending, each made when it is read."""
        return _SegmentJobs(self, range(self.lo, self.hi, 2 * self.segment_size))

    def _job(self, start: int) -> tuple[int, int, int]:
        span = 2 * self.segment_size
        return (start - self.lo) // span, start, min(start + span, self.hi)


class _SegmentJobs(Sequence):
    """The jobs of a SegmentPlan whose segments start in `starts`."""

    def __init__(self, plan: SegmentPlan, starts: range) -> None:
        self._plan = plan
        self._starts = starts

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _SegmentJobs(self._plan, self._starts[i])
        return self._plan._job(self._starts[i])


def prime_count(x: int) -> int:
    """Exact pi(x): len(base_primes(x)) where the base table serves it.

    It does below 2 * DEFAULT_SEGMENT_ODDS, and wherever the grow-only
    table already covers x.  Above both, x is counted segment by segment,
    so memory stays bounded.
    """
    if x > _INT64_MAX:
        raise ValueError(f"prime_count: x exceeds 63-bit sieve range: {x}")
    if x < 2 * DEFAULT_SEGMENT_ODDS or x <= _base_cache["limit"]:
        return len(base_primes(x))
    total = 0
    for _, slo, shi in SegmentPlan(2, x + 1).jobs():
        total += int(_odd_prime_mask(slo | 1, shi).sum()) + (slo == 2)
    return total


def next_prime_after(x: int) -> int:
    """Smallest prime > x, walking candidates with the Miller-Rabin test."""
    if x > _INT64_MAX:
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


def _block_size(min_gap: int) -> int:
    """Largest power of two B <= 32 with 2B <= max(min_gap, 2).

    Two primes inside one block of B odd entries lie at most 2B - 2 apart,
    so no gap of at least min_gap starts and ends in the same block.
    """
    b = 1
    while b < 32 and 4 * b <= max(min_gap, 2):
        b *= 2
    return b


def _segment_gap_events(slo: int, shi: int, min_gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Gap events (ps, gaps) attributed to primes in [slo, shi).

    The odd mask is read in blocks of B entries with one flag per block.  A
    qualifying gap runs from the last prime of a non-empty block i to the
    first prime of the next non-empty block j, and is at most
    2B(j - i + 1) - 2 long, so only those block pairs are opened.  B = 1 is
    the plain difference of consecutive primes.  The last gap is closed by
    walking ahead to the next prime at or beyond shi, so the result is
    independent of segmentation.
    """
    ps = [np.empty(0, dtype=np.int64)]
    gaps = [np.empty(0, dtype=np.int64)]
    if slo <= 2 < shi and min_gap <= 1:
        ps.append(np.array([2], dtype=np.int64))
        gaps.append(np.array([1], dtype=np.int64))
    olo = max(slo, 3) | 1
    mask = _odd_prime_mask(olo, shi) if olo < shi else np.zeros(0, dtype=bool)
    b = _block_size(min_gap)
    if len(mask) % b:
        mask = np.concatenate((mask, np.zeros(b - len(mask) % b, dtype=bool)))
    blocks = mask.reshape(-1, b)
    flags = mask.view(f"u{min(b, 8)}")  # one word per block, or per 8 entries
    if b > 8:
        flags = (flags != 0).view(f"u{b // 8}")
    full = np.flatnonzero(flags)
    if len(full) == 0:
        return np.concatenate(ps), np.concatenate(gaps)

    def last_entry(rows: np.ndarray) -> np.ndarray:
        return b * rows + (b - 1 - np.argmax(blocks[rows, ::-1], axis=1))

    # consecutive non-empty blocks i < j hold a gap of at most 2b(j - i + 1) - 2
    pick = np.flatnonzero(2 * b * (np.diff(full) + 1) - 2 >= min_gap)
    i, j = full[pick], full[pick + 1]
    last = last_entry(i)
    first = b * j + np.argmax(blocks[j], axis=1)
    keep = 2 * (first - last) >= min_gap
    ps.append(olo + 2 * last[keep])
    gaps.append(2 * (first - last)[keep])
    tail = olo + 2 * int(last_entry(full[-1:])[0])
    tail_gap = next_prime_after(tail) - tail
    if tail_gap >= min_gap:
        ps.append(np.array([tail], dtype=np.int64))
        gaps.append(np.array([tail_gap], dtype=np.int64))
    return np.concatenate(ps), np.concatenate(gaps)


def _gap_job(job: tuple[int, int, int], min_gap: int) -> list[tuple[int, int]]:
    _, slo, shi = job
    ps, gaps = _segment_gap_events(slo, shi, min_gap)
    return list(zip(ps.tolist(), gaps.tolist()))


def gap_scan(lo: int, hi: int, min_gap: int, workers: int = 1) -> Iterator[GapEvent]:
    """All GapEvents with p in [lo, hi) and gap >= min_gap, ascending in p.

    The event stream is a pure function of (lo, hi, min_gap): neither the
    worker count nor where segments end can change it, so segments are
    always DEFAULT_SEGMENT_ODDS long.  The arguments are checked here, at
    the call, before any segment is sieved.
    """
    if not 2 <= lo < hi:
        raise ValueError(f"gap_scan: need 2 <= lo < hi, got [{lo}, {hi})")
    if min_gap < 1:
        raise ValueError(f"gap_scan: min_gap must be >= 1, got {min_gap}")
    if hi > _INT64_MAX + 1:
        raise ValueError(f"gap_scan: hi exceeds 63-bit sieve range: {hi} > 2**63")
    jobs = SegmentPlan(lo, hi).jobs()
    results = ordered_map(functools.partial(_gap_job, min_gap=min_gap), jobs, workers)
    return (GapEvent(p, g) for events in results for p, g in events)
