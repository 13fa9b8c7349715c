"""Certificate scan: coverage, refutation, checkpointing, determinism."""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from collisionlab import certificate
from collisionlab.certificate import (
    CertificateConfig,
    coverage_check,
    refute_window,
    run,
)

Q_SMALL = 30_000_000  # four gap events live below this


def small_config(**overrides):
    params = {"q_max": Q_SMALL}
    params.update(overrides)
    return CertificateConfig(**params)


# ---------------------------------------------------------------------------
# configuration

def test_config_validation():
    with pytest.raises(ValueError):
        CertificateConfig(q_max=2)
    with pytest.raises(ValueError):
        CertificateConfig(q_max=100, windows=())
    with pytest.raises(ValueError):
        CertificateConfig(q_max=100, windows=((0, 5),))
    with pytest.raises(ValueError):
        CertificateConfig(q_max=100, windows=((5, 3),))
    with pytest.raises(ValueError):
        CertificateConfig(q_max=100, smooth_bound=1)
    with pytest.raises(ValueError):
        CertificateConfig(q_max=100, gap_min=0)


def test_config_refuses_window_elements_past_int64():
    # the largest window end (308) must keep q_max + 308 within 2**63 - 1
    assert CertificateConfig(q_max=2**63 - 1 - 308).q_max == 2**63 - 309
    with pytest.raises(ValueError, match="exceeds 2\\*\\*63 - 1"):
        CertificateConfig(q_max=2**63 - 308)
    with pytest.raises(ValueError):
        CertificateConfig(q_max=2**63 - 5, windows=((1, 5),))


def test_config_hash_ignores_operational_fields():
    base = small_config()
    moved = small_config(
        checkpoint_path="/tmp/ck.json", witness_path="/tmp/w.jsonl", workers=8
    )
    assert base.config_hash() == moved.config_hash()
    assert base.config_hash() != small_config(q_max=Q_SMALL + 2).config_hash()
    assert base.config_hash() != small_config(smooth_bound=3429).config_hash()


def test_config_hash_pinned():
    assert small_config().config_hash() == (
        "85a2b743ee1c5eeb6b87121843652ca6fffebefe91726d0ff3b0c82dcbb7a740"
    )


# ---------------------------------------------------------------------------
# coverage

def test_coverage_default_geometry():
    assert coverage_check(456, 156, ((152, 156), (303, 308))) == []
    # the first window handles the early placements 0..151, the second the
    # later ones 152..299; each alone leaves the other's placements open
    assert coverage_check(456, 156, ((152, 156),)) == list(range(152, 300))
    assert coverage_check(456, 156, ((303, 308),)) == list(range(152))


def test_coverage_single_placement():
    assert coverage_check(157, 156, ((152, 156), (303, 308))) == []
    assert coverage_check(157, 156, ((303, 308),)) == [0]


def test_coverage_detects_hole():
    # [310, 315] covers placements 159..309 only, so 152..158 stay open
    assert coverage_check(456, 156, ((152, 156), (310, 315))) == list(range(152, 159))


# ---------------------------------------------------------------------------
# single-window refutation

def test_refute_window_finds_first_witness():
    assert refute_window(3, (1, 2), 3) == (2, 5)


def test_refute_window_none_when_smooth():
    assert refute_window(8, (1, 2), 7) is None


def test_refute_window_known_gap_prime():
    assert refute_window(17051707, (152, 156), 3427) == (152, 4201)
    assert refute_window(17051707, (303, 308), 3427) == (303, 9421)
    assert (17051707 + 152) % 4201 == 0
    assert (17051707 + 303) % 9421 == 0


def test_refute_window_refuses_elements_outside_the_batch():
    # every element of the window must be an int64 of at least 2
    assert refute_window(1, (1, 2), 3) is None  # 2 and 3 are both 3-smooth
    assert refute_window(2**63 - 9, (1, 8), 3427) == oracles.refute_window(2**63 - 9, (1, 8), 3427)
    for q, window in ((0, (1, 3)), (-5, (6, 8)), (2**63 - 8, (1, 8)), (100, (5, 4))):
        with pytest.raises(ValueError, match="refute_window"):
            refute_window(q, window, 3427)


def _scalar_hits(qs, windows, bound):
    """The trial-division reference on each (q, window), in the batch's output layout."""
    return [[oracles.refute_window(q, w, bound) for w in windows] for q in qs]


_windows = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=400).map(lambda a: (a, a)),  # single offset
        st.tuples(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=12)).map(
            lambda t: (t[0], t[0] + t[1])
        ),
    ),
    min_size=1,
    max_size=3,
).map(tuple)
_bounds = st.one_of(st.sampled_from([2, 3, 3427]), st.integers(min_value=2, max_value=10**4))
_qs = st.one_of(
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=31_000_000_000, max_value=32_000_000_000),
    # q + a = 3433 * 3449 * m: a composite cofactor above 3427 at offset a
    st.builds(lambda m, a: 3433 * 3449 * m - a, st.integers(1, 2600), st.integers(1, 400)).filter(
        lambda q: q >= 2
    ),
)


@given(st.lists(_qs, max_size=40), _windows, _bounds)
@settings(max_examples=200, deadline=None)
def test_refute_events_match_refute_window(qs, windows, bound):
    got = certificate._refute_events(np.array(qs, dtype=np.int64), windows, bound)
    assert got == _scalar_hits(qs, windows, bound)


def test_refute_events_composite_cofactors_and_smooth_windows():
    windows = ((152, 156), (303, 308))
    # the first element of the first window is 3433 * 3449 * m with 3427-smooth m
    composite = [3433 * 3449 * m - 152 for m in (1, 2, 3427, 2**20)]
    composite += [3433 * 3449 * 3457 - 303]
    # windows in which every element is smooth: 4374 = 2 * 3**7, 4375 = 5**4 * 7
    smooth = [(4373, ((1, 2),), 7), (2**34 - 5, ((5, 5),), 2), (1, ((1, 3000),), 3427)]
    got = certificate._refute_events(np.array(composite, dtype=np.int64), windows, 3427)
    assert got == _scalar_hits(composite, windows, 3427)
    assert [hits[0] for hits in got[:4]] == [(152, 3433)] * 4
    assert got[4][1] == (303, 3433)
    for q, w, bound in smooth:
        assert certificate._refute_events(np.array([q], dtype=np.int64), w, bound) == [[None]]
        assert oracles.refute_window(q, w[0], bound) is None
    assert certificate._refute_events(np.empty(0, dtype=np.int64), windows, 3427) == []


def test_certificate_job_near_top_of_range_matches_scalar():
    config = CertificateConfig(q_max=31_754_673_611)
    slo = config.q_max - 4 * config.segment_size
    job = (0, slo, slo + 2 * config.segment_size)  # (index, lo, hi); the index is not read
    events = certificate._certificate_job(job, 158, config.windows, 3427)
    assert len(events) > 50
    assert [hits for _, _, hits in events] == _scalar_hits([q for q, _, _ in events], config.windows, 3427)


# ---------------------------------------------------------------------------
# full runs

def test_run_pinned_small():
    report = run(small_config())
    assert json.loads(report.to_json())["coverage_ok"] is True
    assert report.gap_prime_count == 4
    assert report.refuted == {"152-156": 4, "303-308": 4}
    assert report.failures == ()
    assert report.gap_cap_violations == ()
    assert report.segments_total == 8
    assert report.segments_done == 8
    assert report.complete


def test_run_vacuous_when_gap_min_huge():
    report = run(CertificateConfig(q_max=10**6, gap_min=500))
    assert report.gap_prime_count == 0
    assert report.refuted == {"152-156": 0, "303-308": 0}
    assert report.complete


def test_run_refuses_uncovered_windows():
    with pytest.raises(ValueError, match="refusing to run"):
        run(small_config(windows=((303, 308),)))


def test_run_witness_stream(tmp_path):
    path = str(tmp_path / "witnesses.jsonl")
    report = run(small_config(witness_path=path))
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 * report.gap_prime_count
    assert lines[0] == '{"q":17051707,"window":"152-156","offset":152,"prime":4201}'
    assert lines[1] == '{"q":17051707,"window":"303-308","offset":303,"prime":9421}'
    for line in lines:
        row = json.loads(line)
        assert (row["q"] + row["offset"]) % row["prime"] == 0
        assert row["prime"] > 3427


def test_run_worker_count_invariance():
    serial = run(small_config()).to_json()
    parallel = run(small_config(workers=2)).to_json()
    assert serial == parallel


def test_run_segment_size_invariance():
    a = run(small_config())
    b = run(small_config(segment_size=1 << 19))
    assert a.gap_prime_count == b.gap_prime_count
    assert a.refuted == b.refuted
    assert a.failures == b.failures
    assert a.gap_cap_violations == b.gap_cap_violations
    assert b.segments_total > a.segments_total


def test_run_records_gap_cap_violations():
    cfg = small_config(gap_cap=157, window_len=156, windows=((1, 156),))
    report = run(cfg)
    assert report.refuted == {"1-156": 4}
    assert report.failures == ()
    assert len(report.gap_cap_violations) == 4
    assert report.gap_cap_violations[0] == (17051707, 180)
    assert all(gap > 157 for _, gap in report.gap_cap_violations)


def test_report_json_layout():
    report = run(CertificateConfig(q_max=10**6, gap_min=500))
    payload = json.loads(report.to_json())
    assert list(payload) == [
        "config",
        "config_hash",
        "coverage_ok",
        "gap_prime_count",
        "refuted",
        "failures",
        "gap_cap_violations",
        "segments_done",
        "segments_total",
        "complete",
    ]
    assert "wall_time_s" not in payload
    versioned = json.loads(report.to_json(version="0.1.0"))
    assert list(versioned) == ["version"] + list(payload)


# ---------------------------------------------------------------------------
# checkpointing and resume

def test_resume_matches_uninterrupted(tmp_path):
    ck = str(tmp_path / "ck.json")
    wit = str(tmp_path / "wit.jsonl")
    cfg = small_config(checkpoint_path=ck, witness_path=wit)

    partial = run(cfg, stop_after_segments=4)
    assert not partial.complete
    assert partial.segments_done == 4

    resumed = run(cfg)
    assert resumed.complete

    wit_ref = str(tmp_path / "wit_ref.jsonl")
    reference = run(small_config(witness_path=wit_ref))
    assert resumed.to_json() == reference.to_json()
    assert Path(wit).read_bytes() == Path(wit_ref).read_bytes()


def test_witnessed_resume_drops_lines_past_the_checkpoint(tmp_path):
    # a leg can write witness lines after its last checkpoint; the resume cuts
    # the file back to the recorded length and appends from there
    ck = str(tmp_path / "ck.json")
    wit = tmp_path / "wit.jsonl"
    cfg = small_config(checkpoint_path=ck, witness_path=str(wit))
    run(cfg, stop_after_segments=5)
    assert certificate.checkpoint_load(ck)["witness_bytes"] == wit.stat().st_size == 370
    # longer than the 121 bytes the resume writes, so only a truncation removes it
    junk = b'{"q":1,"window":"152-156","offset":152,"prime":3433,"note":"' + b"x" * 100 + b'"}\n'
    with open(wit, "ab") as fh:
        fh.write(junk)
    resumed = run(cfg)

    wit_ref = tmp_path / "wit_ref.jsonl"
    reference = run(small_config(witness_path=str(wit_ref)))
    assert resumed.to_json() == reference.to_json()
    assert wit.read_bytes() == wit_ref.read_bytes()


def test_rerun_of_finished_checkpoint_is_a_no_op(tmp_path):
    ck = str(tmp_path / "ck.json")
    cfg = small_config(checkpoint_path=ck)
    first = run(cfg)
    assert certificate.checkpoint_load(ck)["completed_hi"] == Q_SMALL + 1
    again = run(cfg)
    assert again.to_json() == first.to_json()
    assert again.segments_done == again.segments_total == 8


def test_checkpoint_rejects_other_config(tmp_path):
    ck = str(tmp_path / "ck.json")
    run(CertificateConfig(q_max=10**6, gap_min=500, checkpoint_path=ck))
    other = CertificateConfig(q_max=2 * 10**6, gap_min=500, checkpoint_path=ck)
    with pytest.raises(ValueError, match="different configuration"):
        run(other)


def test_checkpoint_rejects_misaligned_progress(tmp_path):
    ck = str(tmp_path / "ck.json")
    cfg = CertificateConfig(q_max=10**6, gap_min=500, checkpoint_path=ck, segment_size=1 << 16)
    state = certificate._fresh_state(cfg.config_hash())
    span = 2 * cfg.segment_size
    # not segment ends: inside the first segment, one past the first end,
    # below the range, past its end, and where an end would be past the range
    for done_hi in (999, 3 + span, 1, cfg.q_max + 2, 2 + 8 * span):
        state["completed_hi"] = done_hi
        certificate.checkpoint_save(ck, state)
        with pytest.raises(ValueError, match="does not align"):
            run(cfg)
    state["completed_hi"] = 2 + span  # the first segment's end: the rest runs
    certificate.checkpoint_save(ck, state)
    report = run(cfg)
    assert (report.segments_done, report.segments_total) == (7, 8)


def test_checkpoint_load_validates_schema(tmp_path):
    ck = str(tmp_path / "ck.json")
    state = certificate._fresh_state("deadbeef")
    del state["refuted"]
    certificate.checkpoint_save(ck, state)
    with pytest.raises(ValueError, match="missing field: refuted"):
        certificate.checkpoint_load(ck)

    state = certificate._fresh_state("deadbeef")
    state["gap_prime_count"] = "four"
    certificate.checkpoint_save(ck, state)
    with pytest.raises(ValueError, match="wrong type: gap_prime_count"):
        certificate.checkpoint_load(ck)


def test_checkpoint_load_refuses_a_document_that_is_no_object(tmp_path):
    ck = tmp_path / "ck.json"
    ck.write_text(json.dumps(list(certificate._fresh_state("deadbeef"))))
    with pytest.raises(ValueError, match="not a JSON object"):
        certificate.checkpoint_load(str(ck))


def test_checkpoint_save_is_atomic(tmp_path):
    ck = str(tmp_path / "ck.json")
    state = certificate._fresh_state("deadbeef")
    certificate.checkpoint_save(ck, state)
    assert certificate.checkpoint_load(ck) == state
    assert not (tmp_path / "ck.json.tmp").exists()


def test_resume_refuses_missing_witness_file(tmp_path):
    ck = str(tmp_path / "ck.json")
    wit = tmp_path / "wit.jsonl"
    cfg = small_config(checkpoint_path=ck, witness_path=str(wit))
    run(cfg, stop_after_segments=6)
    assert certificate.checkpoint_load(ck)["witness_bytes"] > 0
    wit.unlink()
    with pytest.raises(ValueError, match="refusing to resume"):
        run(cfg)
    assert not wit.exists()


PINNED_CHECKPOINT = (
    '{"config_hash":"85a2b743ee1c5eeb6b87121843652ca6fffebefe91726d0ff3b0c82dcbb7a740",'
    '"completed_hi":30000001,"gap_prime_count":4,"failures":[],"segments_done":8,'
    '"refuted":{"152-156":4,"303-308":4},"gap_cap_violations":[],"witness_bytes":491,'
    '"witness_sha256":"6182aaeb042fae0f238e166a2e0c2701b261e88ce97e2189f62b5db6bcd315c8"}'
)


def test_checkpoint_after_resume_is_byte_equal_and_pinned(tmp_path):
    def config(name):
        return small_config(
            checkpoint_path=str(tmp_path / f"{name}.json"),
            witness_path=str(tmp_path / f"{name}.jsonl"),
        )

    run(config("a"))
    run(config("b"), stop_after_segments=4)
    run(config("b"))
    a = (tmp_path / "a.json").read_text(encoding="utf-8")
    assert (tmp_path / "b.json").read_text(encoding="utf-8") == a == PINNED_CHECKPOINT
    assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()


def test_resume_keeps_failures_and_violations(tmp_path):
    # every window element is 10**8-smooth, and every gap exceeds the cap
    params = {"gap_cap": 157, "windows": ((1, 156),), "smooth_bound": 10**8}
    reference = run(small_config(checkpoint_path=str(tmp_path / "a.json"), **params))
    cfg = small_config(checkpoint_path=str(tmp_path / "b.json"), **params)
    run(cfg, stop_after_segments=5)
    resumed = run(cfg)
    assert resumed.failures == reference.failures
    assert resumed.failures[0] == (17051707, (1, 156))
    assert resumed.gap_cap_violations == reference.gap_cap_violations
    assert resumed.gap_cap_violations[0] == (17051707, 180)
    assert resumed.to_json() == reference.to_json()
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()
    state = json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))
    assert state["failures"][0] == [17051707, [1, 156]]
    assert state["gap_cap_violations"][0] == [17051707, 180]


def test_leg_without_witness_resets_witness_bytes(tmp_path):
    ck = str(tmp_path / "ck.json")
    wit = tmp_path / "wit.jsonl"
    run(small_config(checkpoint_path=ck, witness_path=str(wit)), stop_after_segments=5)
    assert certificate.checkpoint_load(ck)["witness_bytes"] > 0
    run(small_config(checkpoint_path=ck), stop_after_segments=1)
    state = certificate.checkpoint_load(ck)
    assert state["witness_bytes"] == 0
    assert state["witness_sha256"] == certificate._fresh_state("")["witness_sha256"]
    before = wit.read_bytes()
    # the middle leg's lines are not in the file, so extending it would lose them
    with pytest.raises(ValueError, match="refusing to resume"):
        run(small_config(checkpoint_path=ck, witness_path=str(wit)))
    assert wit.read_bytes() == before


def test_witness_reaches_disk_before_each_checkpoint(tmp_path, monkeypatch):
    ck = str(tmp_path / "ck.json")
    wit = str(tmp_path / "wit.jsonl")
    events = []
    real_fsync, real_save = certificate.os.fsync, certificate.checkpoint_save

    def fsync(fd):
        if os.path.exists(wit) and os.path.samestat(os.fstat(fd), os.stat(wit)):
            events.append("witness")
        real_fsync(fd)

    def save(path, state):
        events.append("checkpoint")
        real_save(path, state)

    monkeypatch.setattr(certificate.os, "fsync", fsync)
    monkeypatch.setattr(certificate, "checkpoint_save", save)
    run(small_config(checkpoint_path=ck, witness_path=wit))
    assert events == ["witness", "checkpoint"] * 8

