"""Segmented sieve: prime streams, gap events, Chebyshev sums."""

import functools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from collisionlab import arith, sieve

# frozen oracle values (first run pinned, cross-checked against published
# prime-counting tables)
PI_1E6 = 78498
PI_1E8 = 5761455
THETA_1E6 = 998484.1750256342
PSI_1E6 = 999586.5974956343


def test_prime_list_golden_prefix():
    assert sieve.prime_list(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert sieve.prime_list(1) == []


def test_prime_list_keeps_one_table_across_distinct_bounds():
    # check23 asks for the primes <= k0, one bound per tuple; 100 distinct
    # bounds slice one grow-only list, so what they retain does not grow
    bounds = range(20_011, 20_211, 2)
    sieve.prime_list(bounds[-1])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ends = [sieve.prime_list(bound)[-1] for bound in bounds]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024
    table = sieve.base_primes(bounds[-1])
    assert ends == [int(table[np.searchsorted(table, bound, side="right") - 1]) for bound in bounds]
    assert sieve.prime_list(20_011) == table[: np.searchsorted(table, 20_011, side="right")].tolist()


def test_base_primes_grow_only_cache():
    a = sieve.base_primes(100)
    b = sieve.base_primes(1000)
    assert list(a) == list(b[: len(a)])
    assert int(b[-1]) == 997


@functools.lru_cache(maxsize=None)
def _reference_primes(limit):
    """All primes <= limit by a plain sieve of Eratosthenes over every integer."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def _reference_odd_prime_mask(lo, hi):
    """The per-prime mask loop the sieve used before its presieve."""
    count = (hi - lo + 1) // 2
    mask = np.ones(max(count, 0), dtype=bool)
    if count <= 0:
        return mask
    for p in _reference_primes(math.isqrt(hi - 1))[1:].tolist():
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start < hi:
            mask[(start - lo) // 2 :: p] = False
    if lo == 1:
        mask[0] = False
    return mask


def _reference_gap_events(lo, hi, min_gap):
    """Every prime in [lo, hi) with its gap, closed by a Miller-Rabin walk."""
    ps = [2] if lo <= 2 < hi else []
    olo = max(lo, 3) | 1
    if olo < hi:
        ps += (olo + 2 * np.flatnonzero(_reference_odd_prime_mask(olo, hi))).tolist()
    if not ps:
        return [], []
    nxt = ps[-1] + 1
    while not arith.is_prime(nxt):
        nxt += 1
    events = [(p, q - p) for p, q in zip(ps, ps[1:] + [nxt]) if q - p >= min_gap]
    return [p for p, _ in events], [g for _, g in events]


def test_base_primes_match_reference_sieve():
    limit = 3 * 10**6 + 7
    assert np.array_equal(sieve.base_primes(limit), _reference_primes(limit))
    assert sieve.base_primes(limit).dtype == np.int64


def _fresh_interpreter(code):
    """The stdout of `code` run in a new interpreter that imports this checkout's package."""
    src_dir = os.path.dirname(os.path.dirname(sieve.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout


def test_import_seeds_the_table_with_the_presieve_primes():
    code = "from collisionlab import sieve\nprint(sieve._base_cache['primes'].tolist())\n"
    assert _fresh_interpreter(code).strip() == "[2, 3, 5, 7, 11, 13, 17]"


_GROWTH_LIMITS = [18, 360, 361, 2**16 - 1, 2**16, 2**16 + 1, 3 * 10**6 + 7]


def test_base_primes_grow_from_the_seed_exactly(tmp_path):
    # a fresh interpreter grows the table from the seed in these steps; 18 is
    # the first step past 17, and 361 = 19^2 the first composite whose least
    # factor the presieve does not strike
    out = tmp_path / "tables.npz"
    code = (
        "import numpy as np\n"
        "from collisionlab import sieve\n"
        f"tables = [sieve.base_primes(limit).copy() for limit in {_GROWTH_LIMITS}]\n"
        f"np.savez({str(out)!r}, *tables)\n"
    )
    _fresh_interpreter(code)
    with np.load(out) as tables:
        for i, limit in enumerate(_GROWTH_LIMITS):
            assert np.array_equal(tables[f"arr_{i}"], _reference_primes(limit)), limit


def test_base_primes_grow_one_segment_at_a_time():
    # a fresh interpreter: the table is seeded small and grown through the
    # segment sieve, so the peak stays near the table's own size
    code = (
        "import tracemalloc\n"
        "from collisionlab import sieve\n"
        "tracemalloc.start()\n"
        "t = sieve.base_primes(2**26)\n"
        "print(tracemalloc.get_traced_memory()[1], t.nbytes, len(t), int(t[-1]))\n"
    )
    peak, nbytes, count, last = map(int, _fresh_interpreter(code).split())
    assert (count, last) == (3957809, 67108859)
    assert peak < 1.5 * nbytes + sieve.DEFAULT_SEGMENT_ODDS


_GAP_EDGES = [1, 2, 3] + [2 * b + d for b in (1, 2, 4, 8, 16, 32) for d in (-1, 0, 1)]


@pytest.mark.parametrize(
    "min_gap, block",
    [(1, 1), (2, 1), (3, 1), (4, 2), (7, 2), (8, 4), (15, 4), (16, 8), (31, 8),
     (32, 16), (63, 16), (64, 32), (158, 32), (300, 32)],
)
def test_block_size(min_gap, block):
    assert sieve._block_size(min_gap) == block


_lows = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=1, max_value=10**12),
    # ranges that straddle a period of the 3..17 presieve pattern
    st.builds(lambda k, d: max(1, 510510 * k + d), st.integers(0, 2 * 10**6), st.integers(-3 * 10**5, 10)),
)
_widths = st.one_of(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=3 * 10**5))


@given(_lows, _widths)
@settings(max_examples=150, deadline=None)
# the pattern offset at = lo // 2 plus the entry count reaching one and two
# presieve periods exactly (255255 and 510510 odd entries), and one past each
@example(1, 510510)
@example(1, 510512)
@example(200001, 821020)
@example(200001, 821022)
def test_odd_prime_mask_matches_reference(lo, width):
    olo = lo | 1
    hi = olo + width
    assert np.array_equal(sieve._odd_prime_mask(olo, hi), _reference_odd_prime_mask(olo, hi))


def test_odd_prime_mask_never_writes_the_presieve_pattern():
    # a mask within one period tiles it once; np.tile must copy even then
    period = sieve._PRESIEVE_PERIOD
    pattern = sieve._PRESIEVE.copy()
    assert len(pattern) == period
    for lo, hi in [(1, 100), (3, 41), (19, 4001), (2 * period - 1, 2 * period + 99)]:
        mask = sieve._odd_prime_mask(lo, hi)
        assert not np.shares_memory(mask, sieve._PRESIEVE)
        mask[:] = False
    assert np.array_equal(sieve._PRESIEVE, pattern)


@pytest.mark.parametrize("residue", [0, 1, 2])
@pytest.mark.parametrize(
    "near, width, square_inside",
    [
        (1_000_000, 300_000, True),  # only primes below the cut; those past 1000 have p * p > lo
        (sieve._STRIDE3_CUT**2 - 150_000, 300_000, True),  # 4093 and 4099, squares > lo
        (10**9, 200_000, False),  # primes up to 31,607 on both sides of the cut, squares < lo
    ],
)
def test_odd_prime_mask_stride3_stores_match_reference(residue, near, width, square_inside):
    lo = near + next(d for d in range(6) if (near + d) % 2 == 1 and (near + d) % 3 == residue)
    ps = sieve.base_primes(math.isqrt(lo + width - 1))
    assert (int(ps[-1]) ** 2 > lo) == square_inside
    assert np.array_equal(sieve._odd_prime_mask(lo, lo + width), _reference_odd_prime_mask(lo, lo + width))


_BLOCK = sieve._BLOCK_ODDS
_SEGMENT = sieve.DEFAULT_SEGMENT_ODDS
# entry 2^20 of a mask from here holds 19 * 1000003, struck only by a
# stride-3p store of 19; so a pass that skips a last block of one entry fails
_LO_19 = 19 * 1000003 - 2 * _BLOCK


@pytest.mark.parametrize("lo", [1, 3, 10**7 + 1, _LO_19])
@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_odd_prime_mask_across_the_block_boundary(lo, count):
    hi = lo + 2 * count
    assert (hi - lo + 1) // 2 == count
    mask = sieve._odd_prime_mask(lo, hi)
    assert np.array_equal(mask, _reference_odd_prime_mask(lo, hi))
    if lo == _LO_19 and count == _BLOCK + 1:
        assert not mask[-1]


@pytest.mark.parametrize(
    "lo",
    [
        1,  # the squares of the primes 1451..2039 lie in the second block
        3,
        10**9 + 1,
        31754673611 - 2 * _SEGMENT,  # the segment that ends at the certificate's q bound
    ],
)
def test_odd_prime_mask_full_segment_matches_reference(lo):
    hi = lo + 2 * _SEGMENT
    if lo <= 3:
        second = [p for p in sieve.prime_list(2047) if (p * p - lo) // 2 >= _BLOCK]
        assert (second[0], second[-1]) == (1451, 2039)
    assert np.array_equal(sieve._odd_prime_mask(lo, hi), _reference_odd_prime_mask(lo, hi))


@given(_lows, _widths, st.one_of(st.sampled_from(_GAP_EDGES), st.integers(min_value=1, max_value=300)))
@settings(max_examples=150, deadline=None)
def test_segment_gap_events_match_brute_force(lo, width, min_gap):
    ps, gaps = sieve._segment_gap_events(lo, lo + width, min_gap)
    assert ps.dtype == gaps.dtype == np.int64
    assert (ps.tolist(), gaps.tolist()) == _reference_gap_events(lo, lo + width, min_gap)


def test_segment_gap_events_small_ranges_exhaustive():
    for lo in (1, 2, 3):
        for hi in range(lo + 1, 200):
            for min_gap in _GAP_EDGES:
                ps, gaps = sieve._segment_gap_events(lo, hi, min_gap)
                assert (ps.tolist(), gaps.tolist()) == _reference_gap_events(lo, hi, min_gap)


def test_first_odd_multiple_offsets_near_63_bits():
    top = math.isqrt(2**63 - 1)  # 3037000499, odd: the largest base prime a 63-bit range needs
    ps = [19, 23, 3427, 65537, 1000003, top - 6, top - 2, top]
    for lo in (2**63 - 1, 2**63 - 3, 2**63 - 2 * 10**9 - 1, top * top, top * top - 2):
        got = sieve._first_odd_multiple_offsets(lo, np.array(ps, dtype=np.int64)).tolist()
        want = []
        for p in ps:
            start = max(p * p, -(-lo // p) * p)
            if start % 2 == 0:
                start += p
            want.append((start - lo) // 2)
        assert got == want, lo


def test_odd_prime_mask_matches_miller_rabin_at_1e14():
    lo, hi = 10**14 - 2001, 10**14 + 2001
    got = (lo + 2 * np.flatnonzero(sieve._odd_prime_mask(lo, hi))).tolist()
    assert got == [x for x in range(lo, hi, 2) if arith.is_prime(x)]


def test_primes_in_window():
    assert list(oracles.primes_in(10, 30)) == [11, 13, 17, 19, 23, 29]
    assert list(oracles.primes_in(2, 2)) == [2]
    assert list(oracles.primes_in(24, 28)) == []


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=0, max_value=3000))
@settings(max_examples=40)
def test_primes_in_matches_reference(lo, width):
    hi = lo + width
    table = sieve.base_primes(hi + 1)
    expected = [int(p) for p in table if lo <= p <= hi]
    assert list(oracles.primes_in(lo, hi)) == expected


def test_segment_plan_covers_range():
    plan = sieve.SegmentPlan(2, 10**7, 1 << 18)
    jobs = plan.jobs()
    assert jobs[0][1] == 2 and jobs[-1][2] == 10**7
    for (_, _, prev_hi), (_, lo, _) in zip(jobs, jobs[1:]):
        assert lo == prev_hi
    assert [idx for idx, _, _ in jobs] == list(range(len(jobs)))
    assert list(jobs[-2:]) == [jobs[len(jobs) - 2], jobs[len(jobs) - 1]]
    assert jobs[3:5][0] == jobs[3] and len(jobs[3:5]) == 2
    with pytest.raises(IndexError):
        jobs[len(jobs)]


def test_segment_plan_jobs_are_lazy():
    import tracemalloc

    tracemalloc.start()
    try:
        jobs = sieve.SegmentPlan(2, 10**12).jobs()
        count = len(jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 238419
    assert peak < 1 << 20
    assert jobs[-1] == (count - 1, 2 + (count - 1) * (1 << 22), 10**12)


def test_gap_scan_call_stays_lazy():
    import tracemalloc

    tracemalloc.start()
    try:
        events = sieve.gap_scan(2, 10**12, 158)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    first = next(events)  # the stream still runs, one segment at a time
    assert first.gap >= 158 and sieve.next_prime_after(first.p) == first.p + first.gap


def test_segment_plan_validation():
    with pytest.raises(ValueError):
        sieve.SegmentPlan(10, 5, 1 << 18)
    with pytest.raises(ValueError):
        sieve.SegmentPlan(2, 10, 100)  # segment too small


def test_prime_count_pinned():
    assert sieve.prime_count(10**6) == PI_1E6
    assert sieve.prime_count(100) == 25
    assert [sieve.prime_count(x) for x in (0, 1, 2, 3, 4)] == [0, 0, 1, 2, 2]
    # the first segment is [2, 4194306): 4194301 and 4194319 are the primes around its end
    first_end = 2 + 2 * sieve.DEFAULT_SEGMENT_ODDS
    assert [sieve.prime_count(x) for x in (4194300, 4194301, first_end - 1, first_end, 4194319)] == [
        295946, 295947, 295947, 295947, 295948
    ]


# prime_count reads the base table below one default segment span, 2^22,
# and above it counts segment by segment unless the table already covers x;
# the draws run against a table that ends just below the cut, so a draw past
# it takes the segment path whatever grew the table before
# (test_prime_count_reads_a_table_that_covers_x takes the table path there)
_PRIME_COUNT_TOP = 2**22 + 2**21


@functools.lru_cache(maxsize=None)
def _reference_prime_counts():
    """pi(x) for every x <= _PRIME_COUNT_TOP, as prefix counts of the reference mask."""
    odd = _reference_odd_prime_mask(1, _PRIME_COUNT_TOP + 1)
    counts = np.empty(_PRIME_COUNT_TOP + 1, dtype=np.int32)
    counts[:2] = 0
    counts[2:] = 1 + np.cumsum(odd, dtype=np.int32)[(np.arange(2, _PRIME_COUNT_TOP + 1) - 1) // 2]
    return counts


@given(st.integers(min_value=0, max_value=_PRIME_COUNT_TOP))
@settings(max_examples=60, deadline=None)
@example(2 * sieve.DEFAULT_SEGMENT_ODDS - 1)
@example(2 * sieve.DEFAULT_SEGMENT_ODDS)
def test_prime_count_matches_reference_on_both_sides_of_the_table_cut(x):
    below_cut = 2 * sieve.DEFAULT_SEGMENT_ODDS - 1
    table = {"limit": below_cut, "primes": sieve.base_primes(below_cut)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_base_cache", table)
        assert sieve.prime_count(x) == int(_reference_prime_counts()[x])
    assert table["limit"] == below_cut  # nothing grew it


def test_prime_count_grows_the_table_from_the_seed_exactly(tmp_path):
    # a fresh interpreter counts from the seeded table; 2^22 - 2 then 2^22 - 1
    # doubles the table to 2^23 - 4, the largest a count below the cut can ask for
    xs = [18, 361, 2**22 - 2, 2**22 - 1]
    out = tmp_path / "table.npy"
    code = (
        "import numpy as np\n"
        "from collisionlab import sieve\n"
        f"print(*[sieve.prime_count(x) for x in {xs}])\n"
        "print(sieve._base_cache['limit'])\n"
        f"np.save({str(out)!r}, sieve._base_cache['primes'])\n"
    )
    counts, limit = _fresh_interpreter(code).splitlines()
    assert int(limit) == 2**23 - 4
    table = np.load(out)
    assert np.array_equal(table, _reference_primes(int(limit)))
    assert [int(v) for v in counts.split()] == [int(_reference_prime_counts()[x]) for x in xs]


def test_prime_count_reads_a_table_that_covers_x():
    # a fresh interpreter counts these x >= 2^22 by segments from the seeded
    # table; once the table is grown past them, the count reads it instead
    xs = [2**22, 2**22 + 1, 4_400_000]
    code = (
        "from collisionlab import sieve\n"
        f"xs = {xs}\n"
        "print(*[sieve.prime_count(x) for x in xs])\n"
        "sieve.base_primes(max(xs))\n"
        "calls = []\n"
        "plain = sieve._odd_prime_mask\n"
        "sieve._odd_prime_mask = lambda lo, hi: calls.append(lo) or plain(lo, hi)\n"
        "print(*[sieve.prime_count(x) for x in xs])\n"
        "print(len(calls))\n"
    )
    by_segments, from_table, mask_calls = _fresh_interpreter(code).splitlines()
    assert from_table == by_segments
    assert [int(v) for v in by_segments.split()] == [int(_reference_prime_counts()[x]) for x in xs]
    assert mask_calls == "0"


def test_prime_count_1e8_pinned():
    assert sieve.prime_count(10**8) == PI_1E8


def test_next_prime_after():
    assert sieve.next_prime_after(10**6) == 1000003
    assert sieve.next_prime_after(2) == 3
    assert sieve.next_prime_after(31) == 37


def test_next_prime_after_a_prime_and_a_composite():
    assert sieve.next_prime_after(100) == sieve.next_prime_after(97) == 101
    assert sieve.next_prime_after(3) == 5


def test_next_prime_after_walks_past_1e18():
    # past 10^18, where no table reaches: the walk stops at the first prime
    nxt = sieve.next_prime_after(10**18)
    assert arith.is_prime(nxt) and not any(arith.is_prime(v) for v in range(10**18 + 1, nxt))


def _next_prime_by_sieve(x):
    window = oracles._primes_array(max(2, x - 2000), x + 2000)
    return int(window[window > x][0])


@given(st.integers(min_value=3, max_value=10**12))
@settings(max_examples=100)
def test_next_prime_after_matches_sieve_at_random_points(x):
    assert sieve.next_prime_after(x) == _next_prime_by_sieve(x)


@pytest.mark.parametrize("segment", [1, 2, 100, 238, 7570])
def test_next_prime_after_straddles_segment_boundaries(segment):
    boundary = 2 + segment * 2 * sieve.DEFAULT_SEGMENT_ODDS
    for x in range(boundary - 30, boundary + 30):
        assert sieve.next_prime_after(x) == _next_prime_by_sieve(x), x
    # the gap a segment closes across the boundary
    last = int(oracles._primes_array(boundary - 4000, boundary)[-1])
    assert sieve.next_prime_after(last) == int(oracles._primes_array(boundary, boundary + 4000)[0])


def test_next_prime_after_refuses_above_63_bits():
    assert sieve.next_prime_after(2**63 - 1) == 2**63 + 29
    with pytest.raises(ValueError, match="63-bit"):
        sieve.next_prime_after(2**63)


def test_prime_count_and_gap_scan_refuse_above_63_bits(monkeypatch):
    # planning [2, 2**63] alone would list ~2.2e12 segments; the refusal must
    # come first, so a plan that is ever built fails the test at once
    def no_plan(*args, **kwargs):
        raise AssertionError("SegmentPlan built")

    monkeypatch.setattr(sieve, "SegmentPlan", no_plan)
    with pytest.raises(ValueError, match="63-bit"):
        sieve.prime_count(2**63)
    with pytest.raises(ValueError, match="63-bit"):
        sieve.gap_scan(2**63 - 100, 2**63 + 1, 2)
    with pytest.raises(ValueError, match="min_gap must be >= 1"):
        sieve.gap_scan(2, 100, 0)
    # the last points of the range still get as far as planning
    with pytest.raises(AssertionError, match="SegmentPlan built"):
        sieve.prime_count(2**63 - 1)
    with pytest.raises(AssertionError, match="SegmentPlan built"):
        sieve.gap_scan(2**63 - 100, 2**63, 2)


def test_gap_scan_events_below_1e8():
    events = list(sieve.gap_scan(2, 10**8, 158))
    assert len(events) == 73
    assert events[0] == sieve.GapEvent(p=17051707, gap=180)
    biggest = max(events, key=lambda ev: ev.gap)
    assert biggest == sieve.GapEvent(p=47326693, gap=220)
    assert all(ev.gap >= 158 for ev in events)
    ps = [ev.p for ev in events]
    assert ps == sorted(ps)


def test_gap_scan_first_event_above_2e7():
    events = list(sieve.gap_scan(2 * 10**7, 3 * 10**7, 158))
    assert events[0].p == 20285099
    assert events[0].gap == 164


def _cut_events(lo, hi, min_gap, odds):
    """The events of _segment_gap_events over [lo, hi) cut every `odds` odd entries, concatenated."""
    events = []
    for _, slo, shi in sieve.SegmentPlan(lo, hi, odds).jobs():
        ps, gaps = sieve._segment_gap_events(slo, shi, min_gap)
        events += map(sieve.GapEvent, ps.tolist(), gaps.tolist())
    return events


def test_gap_scan_segmentation_invariance():
    # segment ends never move an event: gap_scan's default segments, cuts
    # every 2^19, 2^16 and 2^10 odd entries, and two workers agree
    base = list(sieve.gap_scan(10**7, 3 * 10**7, 140))
    assert len(base) == 36, "window chosen to contain events"
    for odds in (1 << 19, 1 << 16):
        assert _cut_events(10**7, 3 * 10**7, 140, odds) == base
    # 2^10 over the whole range takes about 8.5 s (2-vCPU Xeon), so it cuts
    # a part of it on the same grid (2048 integers a segment from 10^7),
    # where the gap after 18687587 spans a cut
    lo, hi = 10**7 + 3417 * 2048, 19 * 10**6
    part = [event for event in base if lo <= event.p < hi]
    assert sieve.GapEvent(18687587, 144) in part and len(part) == 5
    assert _cut_events(lo, hi, 140, 1 << 10) == part
    assert list(sieve.gap_scan(10**7, 3 * 10**7, 140, workers=2)) == base


def test_gap_scan_gap_values_are_real_gaps():
    for ev in sieve.gap_scan(10**6, 10**7, 100):
        assert sieve.next_prime_after(ev.p) == ev.p + ev.gap
        assert arith.is_prime(ev.p)


def test_chebyshev_exact_pinned():
    vals = oracles.chebyshev_exact(10**6)
    assert vals.pi == PI_1E6
    assert vals.theta == pytest.approx(THETA_1E6, abs=1e-6)
    assert vals.psi == pytest.approx(PSI_1E6, abs=1e-6)


def test_chebyshev_exact_small():
    vals = oracles.chebyshev_exact(10)
    assert vals.pi == 4
    assert vals.theta == pytest.approx(sum(math.log(p) for p in (2, 3, 5, 7)), abs=1e-12)
    # psi adds the prime powers 4, 8, 9
    assert vals.psi == pytest.approx(vals.theta + 2 * math.log(2) + math.log(3), abs=1e-12)


def test_chebyshev_exact_limit_guard():
    with pytest.raises(ValueError):
        oracles.chebyshev_exact(oracles.EXACT_SUM_LIMIT + 1)
    with pytest.raises(ValueError):
        oracles.chebyshev_exact(1)


def test_chebyshev_tables_match_exact():
    pi_t, theta_t, psi_t = oracles.chebyshev_tables(10**5)
    vals = oracles.chebyshev_exact(10**5)
    assert pi_t[-1] == vals.pi
    assert theta_t[-1] == pytest.approx(vals.theta, abs=1e-4)
    assert psi_t[-1] == pytest.approx(vals.psi, abs=1e-4)
    for x in (2, 3, 4, 97, 1000, 65537):
        assert pi_t[x] == sieve.prime_count(x)


def test_chebyshev_tables_guard():
    with pytest.raises(ValueError):
        oracles.chebyshev_tables(3 * 10**7)
