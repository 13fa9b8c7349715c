"""Exact integer arithmetic for the collision laboratory.

Naturals are plain Python ints, so every product, factorial and binomial
here is computed without rounding.  On top of that this module provides:

  * big binomial coefficients and Fibonacci numbers,
  * deterministic Miller-Rabin primality testing, proved below 3.3e24,
  * smoothness splitting (B-smooth part vs cofactor) by trial division,
    and the least prime factor of a cofactor above the bound.

Nothing here rounds: every result is an exact integer or a refusal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "binomial",
    "fibonacci",
    "is_prime",
    "SmoothFactorization",
    "smooth_split",
    "least_prime_above",
    "prime_factor_above",
]

# the largest int64, numpy's integer ceiling: the sieve's last point and the
# certificate's last window element
_INT64_MAX = 2**63 - 1


def binomial(x: int, r: int) -> int:
    """Exact C(x, r); zero outside 0 <= r <= x.  Requires x >= 0."""
    if x < 0:
        raise ValueError(f"binomial: upper index must be >= 0, got {x}")
    if r < 0 or r > x:
        return 0
    return math.comb(x, r)


def fibonacci(i: int) -> int:
    """F_i with F_0 = 0, F_1 = 1."""
    if i < 0:
        raise ValueError(f"fibonacci: index must be >= 0, got {i}")
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


# Deterministic Miller-Rabin witness tiers.  Each entry (limit, bases)
# certifies every n < limit; the final tier is exact below 3.3e24 which
# covers all inputs this package feeds through is_prime.
_MR_TIERS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (3215031751, (2, 3, 5, 7)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: a proved answer, or a refusal.

    Exact for every n < 3317044064679887385961981 (the last tier's limit),
    and for every n with a prime factor in _SMALL_PRIMES.  Any other n has
    no proved witness set here, so it raises ValueError rather than answer
    from bases that are not known to suffice.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for limit, bases in _MR_TIERS:
        if n < limit:
            witnesses = bases
            break
    else:
        raise ValueError(f"is_prime: no proved Miller-Rabin bases for n = {n} >= {limit}")
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class SmoothFactorization:
    """Split of `base` into its B-smooth part and a cofactor.

    Every prime in `factors` is <= `bound`; the cofactor carries exactly
    the prime factors above the bound (so cofactor == 1 means B-smooth).
    """

    base: int
    bound: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int

    @property
    def is_smooth(self) -> bool:
        return self.cofactor == 1

    @property
    def least_prime_above(self) -> int | None:
        """Smallest prime factor of the cofactor (so above the bound), or None."""
        return least_prime_above(self.cofactor, self.bound)


def least_prime_above(cofactor: int, bound: int) -> int | None:
    """Smallest prime factor of a cofactor that has none <= bound; None for 1.

    A prime cofactor is its own answer.  A composite one has a factor below
    its square root, so the primes above the bound are tried in windows that
    double, each with one vector test `cofactor % window == 0`: the prime
    table grows to about twice the factor found, not to the square root of
    the cofactor.
    """
    if cofactor == 1:
        return None
    if is_prime(cofactor):
        return cofactor
    from . import sieve

    root, lo = math.isqrt(cofactor), bound
    while lo < root:
        hi = min(root, max(2 * lo, 1 << 16))
        primes = sieve.base_primes(hi)
        primes = primes[int(np.searchsorted(primes, lo, side="right")) :]
        if cofactor > _INT64_MAX:  # numpy's int64 cannot hold it; Python ints can
            primes = primes.astype(object)
        hits = np.flatnonzero(cofactor % primes == 0)
        if len(hits):
            return int(primes[hits[0]])
        lo = hi
    raise AssertionError(f"composite cofactor {cofactor} has no prime factor below its root")


def smooth_split(value: int, bound: int) -> SmoothFactorization:
    """Trial-divide `value` by every prime <= bound (none when bound is 1).

    The scan stops early once p * p exceeds the remaining cofactor; at
    that point the remainder is prime, and it joins the smooth part or
    the cofactor depending on its size.
    """
    if value < 2:
        raise ValueError(f"smooth_split: value must be >= 2, got {value}")
    if bound < 1:
        raise ValueError(f"smooth_split: bound must be >= 1, got {bound}")
    from . import sieve

    rem = value
    factors: list[tuple[int, int]] = []
    # the scan stops before any prime above isqrt(value), so it reads no more
    for p in sieve.prime_list(min(bound, math.isqrt(value))):
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
    if 1 < rem <= bound:
        # no factor up to sqrt(rem) survived the scan, so rem is prime
        factors.append((rem, 1))
        rem = 1
    return SmoothFactorization(value, bound, tuple(factors), rem)


def prime_factor_above(value: int, bound: int) -> int | None:
    """The smallest prime factor of `value` exceeding `bound`, or None."""
    return smooth_split(value, bound).least_prime_above if value >= 2 else None

