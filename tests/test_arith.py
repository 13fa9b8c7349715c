"""Exact arithmetic layer: binomials, primality, smooth splits, log sums."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisionlab import arith, bounds, sieve
from collisionlab.sieve import base_primes
import oracles


def test_binomial_matches_comb_exhaustively():
    for x in range(41):
        for r in range(x + 1):
            assert arith.binomial(x, r) == math.comb(x, r)


def test_binomial_outside_range_is_zero():
    assert arith.binomial(5, 9) == 0
    assert arith.binomial(5, -1) == 0
    assert arith.binomial(0, 0) == 1


def test_binomial_negative_upper_index_rejected():
    with pytest.raises(ValueError):
        arith.binomial(-3, 1)


def test_fibonacci_small_values():
    assert [arith.fibonacci(i) for i in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


@given(st.integers(min_value=2, max_value=300))
def test_fibonacci_recurrence(i):
    assert arith.fibonacci(i) == arith.fibonacci(i - 1) + arith.fibonacci(i - 2)


def test_fibonacci_refuses_a_negative_index():
    with pytest.raises(ValueError, match="index must be >= 0, got -1"):
        arith.fibonacci(-1)


def test_is_prime_against_sieve():
    table = set(base_primes(200_000).tolist())
    for n in range(200_001):
        assert arith.is_prime(n) == (n in table), n


def test_is_prime_strong_pseudoprime_edges():
    # 3215031751 is the first composite passing bases 2,3,5,7; the tier
    # table must hand it to a wider base set.
    assert not arith.is_prime(3215031751)
    assert not arith.is_prime(561)       # Carmichael
    assert not arith.is_prime(1105)
    assert arith.is_prime(2**61 - 1)     # Mersenne prime
    assert arith.is_prime(31754673623)   # verified by trial division
    assert not arith.is_prime(31754673611)  # 8219 * 3863569


def test_is_prime_refuses_past_its_proved_bases():
    # 3317044064679887385961981 is the least strong pseudoprime to the 13
    # bases 2..41, so no base set here is proved at or above it
    limit = 3317044064679887385961981
    with pytest.raises(ValueError, match="no proved Miller-Rabin bases"):
        arith.is_prime(limit)
    with pytest.raises(ValueError, match="no proved Miller-Rabin bases"):
        arith.is_prime(2**89 - 1)          # a Mersenne prime past the limit
    assert arith.is_prime(3317044064679887385961813)  # the largest prime below it
    assert not arith.is_prime(limit - 8)   # 383 * 1361 * 1239197 * 5135160101143
    assert not arith.is_prime(limit + 1)   # even: trial division proves it


def test_smooth_split_examples():
    s = arith.smooth_split(720, 5)
    assert s.is_smooth and s.cofactor == 1
    assert s.factors == ((2, 4), (3, 2), (5, 1))

    s2 = arith.smooth_split(8402, 100)  # 2 * 4201
    assert not s2.is_smooth
    assert s2.cofactor == 4201


@pytest.mark.parametrize(
    "value, bound, message",
    [(1, 5, "value must be >= 2, got 1"), (10, 0, "bound must be >= 1, got 0")],
)
def test_smooth_split_refuses_value_or_bound_out_of_range(value, bound, message):
    with pytest.raises(ValueError, match=message):
        arith.smooth_split(value, bound)


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=2, max_value=97))
@settings(max_examples=200)
def test_smooth_split_reconstruction(value, bound):
    s = arith.smooth_split(value, bound)
    rebuilt = s.cofactor
    for p, e in s.factors:
        assert p <= bound and arith.is_prime(p)
        rebuilt *= p**e
    assert rebuilt == value
    assert s.is_smooth == (s.cofactor == 1)
    # the cofactor carries no prime factor within the bound
    for p in base_primes(bound).tolist():
        assert s.cofactor % p != 0


def test_prime_factor_above():
    assert arith.prime_factor_above(8402, 3427) == 4201
    assert arith.prime_factor_above(720, 5) is None
    assert arith.prime_factor_above(4201 * 4201, 3427) == 4201
    assert arith.prime_factor_above(2, 1) == 2
    assert arith.prime_factor_above(1, 1) is None


def _prime_factors(value: int) -> list[int]:
    """Brute force: naive trial division by every integer, no sieve."""
    rem, d, factors = value, 2, []
    while d * d <= rem:
        while rem % d == 0:
            factors.append(d)
            rem //= d
        d += 1
    return factors + [rem] if rem > 1 else factors


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=200))
@settings(max_examples=300)
def test_prime_factor_above_is_least_factor_above_bound(value, bound):
    factors = _prime_factors(value)
    assert arith.prime_factor_above(value, bound) == min((p for p in factors if p > bound), default=None)


_PRIMES_ABOVE_3427 = [p for p in base_primes(40_000).tolist() if p > 3427]


@given(
    st.sampled_from(_PRIMES_ABOVE_3427),
    st.sampled_from(_PRIMES_ABOVE_3427),
    st.integers(min_value=1, max_value=3427),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200)
def test_prime_factor_above_composite_cofactor(p, q, smooth, power):
    # the cofactor p**power * q is composite, with both factors above 3427
    value = p**power * q * smooth
    assert arith.prime_factor_above(value, 3427) == min(p, q)


_PRIMES_PAST_FIRST_WINDOW = [p for p in base_primes(140_000).tolist() if p > 65_536][:200]


@given(
    st.sampled_from(_PRIMES_ABOVE_3427 + _PRIMES_PAST_FIRST_WINDOW),
    st.sampled_from(_PRIMES_ABOVE_3427 + _PRIMES_PAST_FIRST_WINDOW),
    st.sampled_from([1, 2, 3, 3000, 3427]),
    st.booleans(),
)
@settings(max_examples=200)
def test_least_prime_above_matches_brute_force(p, q, bound, composite):
    # a cofactor: every prime factor exceeds the bound
    cofactor = p * q if composite else p
    assert arith.least_prime_above(cofactor, bound) == min(_prime_factors(cofactor))


def test_least_prime_above_edges():
    assert arith.least_prime_above(1, 3427) is None
    assert arith.least_prime_above(4201, 3427) == 4201
    # 65537 * 65539: the first window (3427, 65536] holds no factor
    assert arith.least_prime_above(65537 * 65539, 3427) == 65537
    # 131101 * 131111 lies past the second window too, and far past 2**16
    assert arith.least_prime_above(131101 * 131111, 3427) == 131101
    # a cofactor above 2**63 - 1 (about 1e24): Python-int remainders
    assert arith.least_prime_above(1_000_003 * 999_999_937**2, 3427) == 1_000_003
    assert arith.SmoothFactorization(65537 * 65539, 3427, (), 65537 * 65539).least_prime_above == 65537


def test_prime_factor_above_large_cofactor_stays_near_its_factor():
    # cofactor ~1e24: the walk stops near 1e6, far below its root ~1e12
    p, q, r = 1_000_003, 1_000_033, 999_999_937
    assert arith.prime_factor_above(2 * p * r**2, 3427) == p
    assert arith.prime_factor_above(p * q, 1) == p


@pytest.mark.parametrize("nu", [2, 10, 100, 1000, 100_000])
def test_log_factorial_matches_lgamma(nu):
    # bounds.log_factorial, the log-factorial check31 sums, against lgamma as
    # a second route: the enclosure holds lgamma up to lgamma's own 1e-12,
    # and is no wider than Robbins's bracket, 1/(12 nu (nu + 1)), plus that
    got = bounds.log_factorial(nu)
    exact = math.lgamma(nu + 1)
    tol = 1e-12 * exact
    assert got.lo - tol <= exact <= got.hi + tol
    assert got.hi - got.lo <= 1 / (12 * nu * (nu + 1)) + tol


def test_log_factorial_refuses_a_negative_argument():
    with pytest.raises(ValueError, match="nu must be >= 0, got -1"):
        bounds.log_factorial(-1)


def test_log_binomial_small_values_exact():
    for n in (10, 30, 60):
        for r in range(n + 1):
            got = float(oracles.log_binomial_exact(n, r))
            assert got == pytest.approx(math.log(math.comb(n, r)), abs=1e-12)


def test_log_binomial_both_routes_match_lgamma():
    # an off-centre and the central r at n = 10**5; both must agree with lgamma
    for n, r in [(10**5, 19999), (10**5, 50000)]:
        expected = math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
        assert float(oracles.log_binomial_exact(n, r)) == pytest.approx(expected, rel=1e-12)


def test_log_binomial_grid_matches_lgamma():
    cases = [(n, r) for n in range(200) for r in range(n + 1)]
    cases += [(10**5, r) for r in (19999, 20000, 20001)]
    for n, r in cases:
        expected = math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
        assert float(oracles.log_binomial_exact(n, r)) == pytest.approx(expected, rel=1e-12), (n, r)


@pytest.mark.parametrize("n, r", [(10**12, 30000), (2**63, 12345)])
def test_log_binomial_huge_n_needs_no_prime_table(monkeypatch, n, r):
    # a table of the primes <= n cannot be built at these n
    def refuse(*args):
        raise AssertionError("log_binomial_exact built a prime table")

    monkeypatch.setattr(sieve, "prime_list", refuse)
    monkeypatch.setattr(sieve, "base_primes", refuse)
    got = oracles.log_binomial_exact(n, r)
    with mpmath.workdps(80):
        expected = mpmath.log(mpmath.binomial(n, r))
        assert abs(got - expected) < mpmath.mpf(10) ** (-30) * expected


def test_log_binomial_rejects_bad_indices():
    with pytest.raises(ValueError):
        oracles.log_binomial_exact(5, 9)
    with pytest.raises(ValueError):
        oracles.log_binomial_exact(-1, 0)
