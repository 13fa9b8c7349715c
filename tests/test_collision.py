"""Collision enumeration, the infinite family, and the coordinate change."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisionlab import arith, collision
from collisionlab.collision import CollisionRecord, ParamTuple, Representation

from conftest import EXPECTED_TABLE
import oracles
from oracles import legendre_valuation


def test_enumeration_matches_expected_table(records_25k):
    got = {r.N: [(rep.x, rep.a) for rep in r.reps] for r in records_25k}
    assert got == EXPECTED_TABLE


def test_enumeration_sorted_and_verified(records_25k):
    values = [r.N for r in records_25k]
    assert values == sorted(values)
    for rec in records_25k:
        for rep in rec.reps:
            assert arith.binomial(rep.x, rep.a) == rec.N


def test_enumeration_nothing_new_below_1e6(records_25k):
    # the seven sporadic values are the only ones below one million
    assert len(collision.enumerate_collisions(10**6)) == len(records_25k)


@pytest.mark.parametrize("v_max", [10**6, 10**8, 10**10])
def test_enumeration_equals_the_walk_over_every_row(v_max):
    # the a = 2 positions come from 8N + 1 = s^2, not from walking the row
    assert collision.enumerate_collisions(v_max) == oracles.enumerate_collisions_walk(v_max)


def test_enumeration_rejects_tiny_bound():
    with pytest.raises(ValueError):
        collision.enumerate_collisions(5)


def test_representation_canonical_validation():
    with pytest.raises(ValueError):
        Representation(10, 1)   # a must be >= 2
    with pytest.raises(ValueError):
        Representation(10, 6)   # a must be <= x/2
    Representation(10, 5)


def test_collision_record_validation():
    r1 = Representation(16, 2)
    r2 = Representation(10, 3)
    CollisionRecord(120, (r1, r2))
    with pytest.raises(ValueError):
        CollisionRecord(120, (r1,))           # needs two representations
    with pytest.raises(ValueError):
        CollisionRecord(121, (r1, r2))        # values must match N
    with pytest.raises(ValueError):
        CollisionRecord(120, (r2, r1))        # sorted by descending x
    with pytest.raises(ValueError, match="duplicate representation"):
        CollisionRecord(120, (r1, r1))        # each representation once


def test_fib_identity_first_members():
    # i = 1 is the classic C(15,5) = C(14,6) pair
    m1 = collision.fib_identity(1)
    assert (m1.x, m1.a, m1.y, m1.b) == (15, 5, 14, 6)
    assert m1.verified
    m0 = collision.fib_identity(0)
    assert (m0.x, m0.a, m0.y, m0.b) == (2, 0, 1, 1)
    assert m0.verified   # both sides equal 1


def test_fib_identity_verified_through_i4():
    for i in range(5):
        assert collision.fib_identity(i).verified


def test_fib_identity_rejects_negative():
    with pytest.raises(ValueError):
        collision.fib_identity(-1)


def test_to_param_known_tuples():
    assert collision.to_param(15, 5, 14, 6) == ParamTuple(0, 7, 1, 2, 1)
    assert collision.to_param(21, 2, 10, 4) == ParamTuple(0, 5, 1, 3, 11)
    assert collision.to_param(16, 2, 10, 3) == ParamTuple(0, 5, 2, 3, 6)
    assert collision.to_param(104, 39, 103, 40) == ParamTuple(1, 51, 11, 12, 2)


def test_to_param_requires_x_above_y():
    with pytest.raises(ValueError):
        collision.to_param(10, 3, 16, 2)


def test_param_round_trip(records_25k):
    for rec in records_25k:
        reps = [(r.x, r.a) for r in rec.reps]
        for x, a in reps:
            for y, b in reps:
                if x <= y:
                    continue
                t = collision.to_param(x, a, y, b)
                assert (2 * t.n + t.l, t.n - t.k, 2 * t.n + t.delta, t.n - t.m) == (x, a, y, b)
                assert collision.check_eq12(t)


def test_param_tuple_derived_quantities():
    t = ParamTuple(0, 7, 1, 2, 1)
    assert t.k0 == 5
    assert t.m0 == 1
    assert t.ordering_ok and t.l_gt_delta and not t.scale_ok
    t2 = ParamTuple(0, 5, 1, 3, 11)
    assert not t2.ordering_ok          # 2k = 6 is not below n = 5
    assert t2.m0 == max(1 + 0, 11 // 2)


def test_param_tuple_validation():
    with pytest.raises(ValueError):
        ParamTuple(2, 5, 1, 2, 1)
    with pytest.raises(ValueError):
        ParamTuple(0, -1, 1, 2, 1)


def test_hypotheses_dict_keys():
    t = ParamTuple(0, 7, 1, 2, 1)
    assert set(t.hypotheses()) == {"ordering", "ratio", "l_gt_delta", "scale"}


def test_check_eq12_on_non_collision():
    assert not collision.check_eq12(ParamTuple(0, 7, 1, 2, 2))


@given(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=10),
)
@settings(max_examples=300)
def test_check_eq12_matches_direct_binomials(delta, n, m, k, l):
    t = ParamTuple(delta, n, m, k, l)
    lhs = arith.binomial(2 * n + delta, n - m) if n - m >= 0 else None
    rhs = arith.binomial(2 * n + l, n - k) if n - k >= 0 else None
    expected = lhs is not None and rhs is not None and lhs == rhs
    assert collision.check_eq12(t) == expected


@st.composite
def _binomial_index(draw):
    N = draw(st.integers(min_value=0, max_value=10**6))
    return N, draw(st.integers(min_value=0, max_value=N))


@given(_binomial_index(), st.sampled_from((2, 3, 5, 7, 11)))
@settings(max_examples=500)
def test_carries_equal_legendre_valuation(index, p):
    N, r = index
    assert collision._carries(r, N - r, p) == legendre_valuation(N, r, p)


def _comb_eq12(t: ParamTuple) -> bool:
    """check_eq12 without the valuation pre-test: domain, then math.comb."""
    N1, r1 = 2 * t.n + t.delta, t.n - t.m
    N2, r2 = 2 * t.n + t.l, t.n - t.k
    return 0 <= r1 <= N1 and 0 <= r2 <= N2 and math.comb(N1, r1) == math.comb(N2, r2)


def test_check_eq12_equals_comb_comparison(records_25k):
    # records_25k holds every collision below 10^6
    known = []
    for rec in records_25k:
        for big in rec.reps:
            for small in rec.reps:
                if big.x > small.x:
                    known.append(collision.to_param(big.x, big.a, small.x, small.a))
    for i in (1, 2, 3):
        mem = collision.fib_identity(i)
        known.append(collision.to_param(mem.x, mem.a, mem.y, mem.b))
    for t in known:
        assert collision.check_eq12(t) and _comb_eq12(t), t
    # workload-like non-collisions, with m and l reaching past their usual ranges
    rng = random.Random(20261018)
    for _ in range(2000):
        k = rng.randint(0, 120)
        t = ParamTuple(rng.randrange(2), rng.randint(2 * k + 1, 4000), rng.randint(-3, k), k, rng.randint(-3, 40))
        assert collision.check_eq12(t) == _comb_eq12(t), t


def test_check_eq12_needs_r_within_n_on_both_sides():
    # C(2, 6) = C(3, 5) = 0: both zero, not a collision
    assert not collision.check_eq12(ParamTuple(0, 1, -5, -4, 1))
    # C(2, 6) = 0 against C(3, 1) = 3
    assert not collision.check_eq12(ParamTuple(0, 1, -5, 0, 1))
    # N = 2n + l = -3 on the right, which arith.binomial refuses
    assert not collision.check_eq12(ParamTuple(0, 1, 0, 0, -5))


@st.composite
def _position_pair(draw):
    """Two (N, r) with N <= 300: independent, equal, or mirrored in the first."""
    N1 = draw(st.integers(min_value=0, max_value=300))
    r1 = draw(st.integers(min_value=0, max_value=N1))
    how = draw(st.sampled_from(("independent", "equal", "mirrored")))
    if how == "independent":
        N2 = draw(st.integers(min_value=0, max_value=300))
        return N1, r1, N2, draw(st.integers(min_value=0, max_value=N2))
    return N1, r1, N1, r1 if how == "equal" else N1 - r1


@given(_position_pair())
@settings(max_examples=500)
def test_check_eq12_is_comb_equality_of_any_two_positions(pair):
    # the tuple that sends C(N1, r1) and C(N2, r2) to the two sides of eq. (12)
    N1, r1, N2, r2 = pair
    delta, n = N1 % 2, N1 // 2
    t = ParamTuple(delta, n, n - r1, n - r2, N2 - 2 * n)
    assert collision.check_eq12(t) == (math.comb(N1, r1) == math.comb(N2, r2))


@pytest.mark.parametrize(
    ("fields", "equal"),
    [((0, 10**9, 1, 1, 0), True),     # identical positions
     ((1, 10**9, 1, 1, 1), True),
     ((0, 10**9, 1, -1, 0), True),    # C(2n, n - 1) = C(2n, n + 1)
     ((1, 10**9, 2, -3, 1), True),    # C(2n + 1, n - 2) = C(2n + 1, n + 3)
     ((0, 10**9, 0, 0, 2), False),    # C(2n, n) against C(2n + 2, n): the pre-test agrees
     ((0, 10**9, 0, -2, 2), False),
     ((0, 10**9, 1, 2, 0), False)],
    ids=["equal", "equal-odd", "mirrored", "mirrored-odd", "central-vs-next-row",
         "central-vs-next-row-mirrored", "adjacent"],
)
def test_check_eq12_decides_near_positions_at_n_1e9_fast(fields, equal):
    # each binomial has about 6e8 digits; the comparison cancels them
    t0 = time.monotonic()
    assert collision.check_eq12(ParamTuple(*fields)) is equal
    assert time.monotonic() - t0 < 1.0


def test_check_eq12_refutes_far_apart_positions_fast():
    # C(2910170, 1436891) against C(3439510, 1351163): v_p agrees at 2, 3, 5
    # and 7, so only a prime past 7 (11 is the first) refutes the pair before
    # the exact comparison multiplies ranges of about 10^6 terms
    t0 = time.monotonic()
    assert collision.check_eq12(ParamTuple(0, 1455085, 18194, 103922, 529340)) is False
    assert time.monotonic() - t0 < 1.0


def test_ratio_ok_is_m_at_most_m_ratio_k():
    # the paper's m <= 0.735 k, with 0.735 held exactly as M_RATIO
    assert collision.M_RATIO == Fraction("0.735")
    for k in range(0, 401):
        for m in range(0, k + 1):
            assert ParamTuple(0, 10**6, m, k, 1).ratio_ok == (200 * m <= 147 * k), (m, k)
