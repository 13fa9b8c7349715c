"""Collision enumeration and the (delta, n, m, k, l) coordinate change.

A collision is one integer N sitting at two or more canonical positions
C(x, a) = C(y, b) with 2 <= a <= x/2.  Writing y = 2n + delta (delta 0 or 1),
x = 2n + l, m = n - b, k = n - a turns the pair equality into

    C(2n + delta, n - m) = C(2n + l, n - k)

which is the form every checker in the lemma module consumes.  ParamTuple
carries those five coordinates plus the derived smoothness bound
k0 = 2(k + l) - delta - 1 and window trim m0 = max(m + delta, floor(l/2)),
recomputed on the fly, never stored.

check_eq12 decides that equation exactly.  Outside 0 <= r <= N on either
side it is false (a zero binomial is no collision).  Inside, it first
compares v_p of both sides for each prime p < 100, read as a carry count
by Kummer's theorem: v_p(C(N, r)) is the number of carries when r and N - r
are added in base p.  A mismatch proves the binomials unequal without
computing either; otherwise it compares the factorial products exactly,
with every factorial common to both sides cancelled, so every collision it
reports is proved by an exact integer comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import sieve
from .arith import binomial, fibonacci

__all__ = [
    "Representation",
    "CollisionRecord",
    "ParamTuple",
    "CLAIMED_N_BOUND",
    "K_MIN",
    "SCALE_MIN_N",
    "M_RATIO",
    "L_RATIO",
    "FibMember",
    "enumerate_collisions",
    "fib_identity",
    "to_param",
    "check_eq12",
]


@dataclass(frozen=True, slots=True)
class Representation:
    """Canonical position (x, a): 2 <= a <= x/2."""

    x: int
    a: int

    def __post_init__(self) -> None:
        if not (2 <= self.a and 2 * self.a <= self.x):
            raise ValueError(f"non-canonical representation ({self.x}, {self.a})")

    @property
    def value(self) -> int:
        return binomial(self.x, self.a)


@dataclass(frozen=True, slots=True)
class CollisionRecord:
    """One repeated value N with all its canonical representations."""

    N: int
    reps: tuple[Representation, ...]

    def __post_init__(self) -> None:
        if len(self.reps) < 2:
            raise ValueError(f"collision record for {self.N} needs at least two representations")
        if len({(r.x, r.a) for r in self.reps}) != len(self.reps):
            raise ValueError(f"duplicate representation in record for {self.N}")
        if any(r.value != self.N for r in self.reps):
            raise ValueError(f"representation does not evaluate to {self.N}")
        if list(self.reps) != sorted(self.reps, key=lambda r: -r.x):
            raise ValueError("representations must be sorted by descending x")


# Lemma 3.1: every collision has n <= CLAIMED_N_BOUND (the certificate's default q_max)
CLAIMED_N_BOUND = 31754673611
# The paper's k >= 588, where Lemma 2.2 stops forcing l = delta: the least k
# of the n-bound's domain
K_MIN = 588
# The paper's "n sufficiently large": the scale hypothesis, and the least n
# that check_lemma22 and section5_thresholds take
SCALE_MIN_N = 500000
# The paper's m <= 0.735 k, the ratio hypothesis; Lemmas 3.1 and 3.2 pin m
# to this ratio, so the 0.265 k and 0.53 k they carry are derived from it
M_RATIO = Fraction(147, 200)
# The paper's l <= 0.00271 k, the cap on l that the n-bound maximizes over
L_RATIO = Fraction(271, 100000)


@dataclass(frozen=True, slots=True)
class ParamTuple:
    delta: int
    n: int
    m: int
    k: int
    l: int

    def __post_init__(self) -> None:
        if self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")

    @property
    def k0(self) -> int:
        return 2 * (self.k + self.l) - self.delta - 1

    @property
    def m0(self) -> int:
        return max(self.m + self.delta, self.l // 2)

    # hypothesis flags, all exact integer comparisons

    @property
    def ordering_ok(self) -> bool:
        """0 <= m < k < n/2 (the last part as 2k < n)."""
        return 0 <= self.m < self.k and 2 * self.k < self.n

    @property
    def ratio_ok(self) -> bool:
        """m <= 0.735 k, tested exactly as m <= M_RATIO k."""
        return self.m <= M_RATIO * self.k

    @property
    def l_gt_delta(self) -> bool:
        return self.l > self.delta

    @property
    def scale_ok(self) -> bool:
        return self.n >= SCALE_MIN_N

    def hypotheses(self) -> dict[str, bool]:
        return {
            "ordering": self.ordering_ok,
            "ratio": self.ratio_ok,
            "l_gt_delta": self.l_gt_delta,
            "scale": self.scale_ok,
        }


def enumerate_collisions(v_max: int) -> list[CollisionRecord]:
    """Every N <= v_max with at least two canonical representations.

    For each a from 3 upward, x walks from 2a until C(x, a) > v_max; a
    stops when even the central C(2a, a) exceeds v_max.  The a = 2 row is
    not walked: an indexed N also sits at (x, 2) exactly when 8N + 1 = s^2,
    with x = (s + 1)/2.  C(x, 2) strictly increases in x, so no N has two
    a = 2 positions, and every collision has one with a >= 3.  That covers
    the canonical triangle completely, so no collision below v_max is missed.
    """
    if v_max < 6:
        raise ValueError(f"enumerate_collisions: v_max must be >= 6, got {v_max}")
    index: dict[int, list[Representation]] = {}
    a = 3
    while binomial(2 * a, a) <= v_max:
        x = 2 * a
        while (value := binomial(x, a)) <= v_max:
            index.setdefault(value, []).append(Representation(x, a))
            x += 1
        a += 1
    records = []
    for value in sorted(index):
        reps = index[value]
        s = math.isqrt(8 * value + 1)
        if s * s == 8 * value + 1:
            reps.append(Representation((s + 1) // 2, 2))
        if len(reps) >= 2:
            records.append(CollisionRecord(value, tuple(sorted(reps, key=lambda r: -r.x))))
    return records


@dataclass(frozen=True, slots=True)
class FibMember:
    x: int
    a: int
    y: int
    b: int
    verified: bool


def fib_identity(i: int) -> FibMember:
    """Member i of the infinite family C(F(2i+2) F(2i+3), F(2i) F(2i+3)) = C(x-1, a+1).

    verified is exact big-integer equality of the two binomials; i = 0
    degenerates to C(2,0) = C(1,1) = 1.
    """
    if i < 0:
        raise ValueError(f"fib_identity: i must be >= 0, got {i}")
    f = [fibonacci(2 * i + j) for j in range(4)]
    x = f[2] * f[3]
    a = f[0] * f[3]
    y, b = x - 1, a + 1
    return FibMember(x, a, y, b, binomial(x, a) == binomial(y, b))


def to_param(x: int, a: int, y: int, b: int) -> ParamTuple:
    """Coordinates of the pair C(x, a), C(y, b) with x > y.

    Equality of the binomials is not assumed here; check_eq12 tests it.
    """
    if x <= y:
        raise ValueError(f"to_param: need x > y, got x={x}, y={y}")
    delta = y % 2
    n = (y - delta) // 2
    return ParamTuple(delta=delta, n=n, m=n - b, k=n - a, l=x - 2 * n)


# check_eq12 compares v_p for the 25 primes up to this bound: v_p varies most
# at small p, and one mismatch settles a pair before the exact comparison,
# whose products are as long as the distance between the two positions.  It
# reads them from the memoized sieve.prime_list at the call, not at import,
# which would grow the sieve's seeded table
_KUMMER_BOUND = 97


def _carries(a: int, b: int, p: int) -> int:
    """Carries when a, b >= 0 are added in base p: v_p(C(a + b, a)) by Kummer."""
    count = carry = 0
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        carry = da + db + carry >= p
        count += carry
    return count


def check_eq12(t: ParamTuple) -> bool:
    """Exact test of C(2n+delta, n-m) = C(2n+l, n-k) as a collision.

    False unless 0 <= r <= N holds on both sides, so two zero binomials are
    not a collision.  Before any product, v_p of the two sides is compared
    for each p <= _KUMMER_BOUND by carry counting; the first mismatch
    returns False.  When all agree, each r is taken as min(r, N - r) and
    s = N - r, and N2! r1! s1! is compared with N1! r2! s2! exactly: each of
    the three factorial ratios N2!/N1!, r1!/r2! and s1!/s2! is the product
    of the range between its two arguments, taken as math.perm (which
    splits it in balanced halves) and put on the side of the larger one.
    Near or equal positions so cost a few multiplications, not two
    binomials of n digits.
    """
    N1, r1 = 2 * t.n + t.delta, t.n - t.m
    N2, r2 = 2 * t.n + t.l, t.n - t.k
    if not (0 <= r1 <= N1 and 0 <= r2 <= N2):
        return False
    for p in sieve.prime_list(_KUMMER_BOUND):
        if _carries(r1, N1 - r1, p) != _carries(r2, N2 - r2, p):
            return False
    r1, r2 = min(r1, N1 - r1), min(r2, N2 - r2)
    left = right = 1
    for a, b in ((N2, N1), (r1, r2), (N1 - r1, N2 - r2)):  # a! on the left, b! on the right
        if a >= b:
            left *= math.perm(a, a - b)
        else:
            right *= math.perm(b, b - a)
    return left == right
