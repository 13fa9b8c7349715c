"""Prime-gap smoothness certificate: scan, refute, cover.

The claim being re-executed: below a bound Q, every prime q whose gap to
the next prime is at least 158 has, in each of two fixed offset windows, an
element with a prime factor exceeding 3427.  Combined with the gap cap
d(q) <= 456 and the window-covering argument, that rules out any run of 156
consecutive 3427-smooth integers, each above 3427, starting below Q - 456.
The floor matters: 2, ..., 157 are 156 consecutive 3427-smooth integers,
and the gap argument below needs every element of a run to be composite.

The four numbers of that claim are constants of CertificateConfig, not
settings: the windows, the smoothness bound 3427, the gap cap 456 and the
run length 156.  A run sets only q_max and where its state lands, so every
report certifies the same claim up to its q_max.  158 follows from them:
such a run holds no prime, so it sits inside a prime gap longer than 156,
and CertificateConfig.gap_min is derived from window_len as the smallest
even number above it.

Structure of a run:

  1. coverage_check proves the windows cover every placement a smooth run
     could occupy inside a maximal gap (refuses to run otherwise);
  2. the segmented sieve streams GapEvents in ascending order;
  3. each segment's events are attacked in every window in one batch: the
     element at each window's current offset is tested against every prime
     <= the bound at once, and only windows whose element was smooth move
     on to their next offset (refute_window is one row of that batch; the
     independent trial-division reference lives in tests/oracles.py);
  4. the checkpoint record is the run's state: each segment folds into it,
     it is saved atomically after every segment (with the length and the
     sha256 of the witness stream so far), and the report is read from it,
     so an interrupted run resumes into a byte-identical report.  One gate,
     _resume, raises every refusal of a checkpoint or of a witness prefix
     that no longer matches, before any file is opened for writing.

Counts and refutations are a pure function of q_max: neither
the worker count nor where segments end can change them (the acceptance
suite checks three worker counts), so the segment size is no setting but
sieve.DEFAULT_SEGMENT_ODDS.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from . import arith
from .arith import _INT64_MAX
from .collision import CLAIMED_N_BOUND
from .pool import ordered_map
from .sieve import DEFAULT_SEGMENT_ODDS, SegmentPlan, _segment_gap_events, base_primes

__all__ = [
    "CertificateConfig",
    "CertificateReport",
    "coverage_check",
    "refute_window",
    "run",
    "checkpoint_save",
    "checkpoint_load",
]

Window = tuple[int, int]


def _window_key(window: Window) -> str:
    return f"{window[0]}-{window[1]}"


@dataclass(frozen=True, slots=True)
class CertificateConfig:
    """A certificate run: the claim's reach q_max, where its state lands, and its worker count.

    windows, smooth_bound, gap_cap and window_len are the paper's constants,
    not fields: coverage_check(gap_cap, window_len, windows) is empty, and
    output_fields() still reports them, so config_hash() covers them.
    """

    windows: ClassVar[tuple[Window, ...]] = ((152, 156), (303, 308))
    smooth_bound: ClassVar[int] = 3427
    gap_cap: ClassVar[int] = 456
    window_len: ClassVar[int] = 156

    q_max: int = CLAIMED_N_BOUND
    checkpoint_path: Optional[str] = None
    witness_path: Optional[str] = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.q_max < 3:
            raise ValueError(f"certificate: q_max must be >= 3, got {self.q_max}")
        # every window element q + b is an int64 in the refutation batch (and
        # the sieve stops at 2**63 - 1 anyway)
        reach = max(b for _, b in self.windows)
        if self.q_max > _INT64_MAX - reach:
            raise ValueError(
                f"certificate: q_max + {reach} (the last window offset) exceeds 2**63 - 1, got q_max = {self.q_max}"
            )
        # the pool's floor: refused here, before the echo
        if self.workers < 0:
            raise ValueError(f"certificate: workers must be >= 0 (0 means one per CPU), got {self.workers}")
        if self.checkpoint_path is not None and self.witness_path is not None:
            # checkpoint_save writes path + ".tmp", then renames it over path
            clobbered = {os.path.realpath(self.checkpoint_path + tail) for tail in ("", ".tmp")}
            if os.path.realpath(self.witness_path) in clobbered:
                raise ValueError(f"certificate: the checkpoint would overwrite the witness file {self.witness_path}")

    @property
    def gap_min(self) -> int:
        """The smallest even number above window_len: the shortest gap a run can sit in.

        A run of window_len smooth integers above smooth_bound holds no
        prime, so it lies inside a gap of at least window_len + 1; gaps after
        odd primes are even, and the odd gap from 2 to 3 holds no integer.
        """
        return self.window_len + 2 - self.window_len % 2

    @property
    def segment_size(self) -> int:
        """Odd entries per sieve segment: always sieve.DEFAULT_SEGMENT_ODDS."""
        return DEFAULT_SEGMENT_ODDS

    def output_fields(self) -> dict:
        """The fields that determine the mathematical output, in report order.

        Paths and worker count are deliberately excluded: they affect where
        results land and how fast, never what they are.  segment_size, a
        constant, stays listed so that report and config_hash bytes do not move.
        """
        return {
            "q_max": self.q_max,
            "gap_min": self.gap_min,
            "windows": [list(w) for w in self.windows],
            "smooth_bound": self.smooth_bound,
            "gap_cap": self.gap_cap,
            "window_len": self.window_len,
            "segment_size": self.segment_size,
        }

    def config_hash(self) -> str:
        """Hash of output_fields()."""
        payload = json.dumps(self.output_fields(), separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def coverage_check(
    gap_cap: int, window_len: int, windows: tuple[Window, ...]
) -> list[int]:
    """The placements of a smooth run inside a gap that no window rules out, ascending.

    A hypothetical run of window_len consecutive smooth integers starts at
    z + 1 where z - q ranges over [0, gap_cap - window_len - 1] for the gap
    prime q.  Placement s is covered by window [a, b] when the window sits
    inside the run: a >= s + 1 and b <= s + window_len.  An empty list
    means the windows cover every placement.
    """
    return [
        s
        for s in range(0, gap_cap - window_len)
        if not any(a >= s + 1 and b <= s + window_len for a, b in windows)
    ]


def refute_window(q: int, window: Window, bound: int) -> Optional[tuple[int, int]]:
    """(offset, prime) for the first element of q+a .. q+b with a prime factor above bound, or None.

    One row of the certificate's batch (_refute_events), so the witness is
    the smallest prime factor above the bound of that element, re-verified
    as it is emitted.  Every element must be an int64 of at least 2.
    """
    a, b = window
    if q + a < 2 or a > b or q + b > _INT64_MAX:
        raise ValueError(
            f"refute_window: need 2 <= q + a <= q + b <= 2**63 - 1, got q = {q}, window [{a}, {b}]"
        )
    return _refute_events(np.array([q], dtype=np.int64), (window,), bound)[0][0]


@dataclass(frozen=True, slots=True)
class CertificateReport:
    config: CertificateConfig
    gap_prime_count: int
    refuted: dict[str, int]
    failures: tuple[tuple[int, Window], ...]
    gap_cap_violations: tuple[tuple[int, int], ...]
    segments_done: int
    segments_total: int
    complete: bool

    def to_json(self, version: Optional[str] = None) -> str:
        """Canonical JSON; run() refuses uncovered windows, so coverage_ok is always true."""
        payload: dict = {}
        if version is not None:
            payload["version"] = version
        payload.update(
            {
                "config": self.config.output_fields(),
                "config_hash": self.config.config_hash(),
                "coverage_ok": True,
                "gap_prime_count": self.gap_prime_count,
                "refuted": self.refuted,
                "failures": [[q, list(w)] for q, w in self.failures],
                "gap_cap_violations": [list(v) for v in self.gap_cap_violations],
                "segments_done": self.segments_done,
                "segments_total": self.segments_total,
                "complete": self.complete,
            }
        )
        return json.dumps(payload, separators=(",", ":"))


# ---------------------------------------------------------------------------
# checkpointing

def _fresh_state(config_hash: str) -> dict:
    """The run state before the first segment; a checkpoint saves it as is."""
    return {
        "config_hash": config_hash,
        "completed_hi": 2,
        "gap_prime_count": 0,
        "failures": [],
        "segments_done": 0,
        "refuted": {},
        "gap_cap_violations": [],
        "witness_bytes": 0,
        "witness_sha256": hashlib.sha256().hexdigest(),
    }


_CHECKPOINT_SCHEMA: dict[str, type] = {name: type(value) for name, value in _fresh_state("").items()}
# the form of each entry of the two list fields; int stands for a count
_ENTRY_FORMS = {"failures": [int, [int, int]], "gap_cap_violations": [int, int]}


def _fits(value, form) -> bool:
    """Whether value has form: a count (an int >= 0, not a bool) for int, else a list fitting form entrywise."""
    if form is int:
        return type(value) is int and value >= 0
    return type(value) is list and len(value) == len(form) and all(map(_fits, value, form))


def checkpoint_save(path: str, state: dict) -> None:
    """Write-temp-then-rename so a crash never leaves a torn checkpoint."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh, separators=(",", ":"))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def checkpoint_load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        state = json.load(fh)
    if type(state) is not dict:
        raise ValueError("checkpoint is not a JSON object")
    for name, kind in _CHECKPOINT_SCHEMA.items():
        if name not in state:
            raise ValueError(f"checkpoint missing field: {name}")
        value = state[name]
        if type(value) is not kind:
            raise ValueError(f"checkpoint field has wrong type: {name}")
        entries = [value] if kind is int else value.values() if kind is dict else value if kind is list else []
        if not all(_fits(e, _ENTRY_FORMS.get(name, int)) for e in entries):
            raise ValueError(f"checkpoint field has a malformed value: {name}")
    return state


def _resume(config: CertificateConfig, keys: list[str]):
    """The state a run starts from, the segments it has done, and its witness digest.

    Every refusal to resume is here, checked in this order before run() opens
    a file for writing: the config hash; the relations between the fields; a
    completed_hi off the segment ends, then a segments_done past it; with a
    witness stream, a short prefix, its sha256, then its line count.  A fresh
    state takes the same path.  Every state run() saves passes: it names only
    configured windows; each gap prime below completed_hi adds one to
    gap_prime_count and, in each window, one refutation or one failure, in
    ascending q; its gap-cap violation, if any, has gap > gap_cap.  The gate
    only reads: the state comes back as it was loaded or made.
    """
    cfg_hash = config.config_hash()
    state = _fresh_state(cfg_hash)
    if config.checkpoint_path and os.path.exists(config.checkpoint_path):
        state = checkpoint_load(config.checkpoint_path)
    if state["config_hash"] != cfg_hash:
        raise ValueError(
            "checkpoint belongs to a different configuration "
            f"({state['config_hash'][:12]}... != {cfg_hash[:12]}...)"
        )
    hi = state["completed_hi"]
    failures = [(q, _window_key(w)) for q, w in state["failures"]]
    for name, named in (("refuted", state["refuted"]), ("failures", [key for _, key in failures])):
        if stray := sorted(set(named) - set(keys)):
            raise ValueError(f"checkpoint field {name} names unconfigured windows: {', '.join(stray)}")
    violations = state["gap_cap_violations"]
    for name, entries in (("failures", failures), ("gap_cap_violations", violations)):
        if past := [entry[0] for entry in entries if entry[0] >= hi]:
            raise ValueError(f"checkpoint field {name} has q = {past[0]} at or past completed_hi = {hi}")
    if any(a[0] > b[0] for a, b in zip(failures, failures[1:])):
        raise ValueError("checkpoint field failures does not ascend in q")
    if len(set(failures)) != len(failures):
        raise ValueError("checkpoint field failures repeats a (q, window) pair")
    if any(a[0] >= b[0] for a, b in zip(violations, violations[1:])):
        raise ValueError("checkpoint field gap_cap_violations does not ascend in q")
    if low := [gap for _, gap in violations if gap <= config.gap_cap]:
        raise ValueError(
            f"checkpoint field gap_cap_violations has gap = {low[0]} <= gap_cap = {config.gap_cap}"
        )
    count = state["gap_prime_count"]
    for key in keys:
        refuted, failed = state["refuted"].get(key, 0), sum(k == key for _, k in failures)
        if refuted + failed != count:
            raise ValueError(
                f"checkpoint fields refuted, failures and gap_prime_count disagree: window {key} "
                f"has {refuted} refutations and {failed} failures for {count} gap primes"
            )

    span = 2 * config.segment_size
    # a segment end is 2 + k * span below q_max + 1, after k segments (2 is the
    # fresh state), or q_max + 1 itself, the end of the last, perhaps short, one
    if hi != config.q_max + 1 and hi not in range(2, config.q_max + 1, span):
        raise ValueError(
            f"checkpoint field completed_hi = {hi} does not align with segmentation"
        )
    done = -(-(hi - 2) // span)  # ceil: the last segment may be short
    # a larger count would let a run report complete with segments unscanned
    if state["segments_done"] > done:
        raise ValueError(
            f"checkpoint field segments_done = {state['segments_done']} exceeds "
            f"the {done} segments that completed_hi = {hi} implies"
        )

    digest, lines, kept = hashlib.sha256(), 0, state["witness_bytes"]
    if config.witness_path:
        path, left = config.witness_path, kept
        if os.path.exists(path):
            with open(path, "rb") as fh:
                while left > 0 and (chunk := fh.read(min(left, 1 << 20))):
                    digest.update(chunk)
                    lines += chunk.count(b"\n")
                    left -= len(chunk)
        # a resume would pad the file with NUL bytes up to kept
        if left > 0:
            raise ValueError(
                f"witness file {path} holds fewer than the {kept} bytes the checkpoint recorded; refusing to resume"
            )
        if digest.hexdigest() != state["witness_sha256"]:
            raise ValueError(
                f"the first {kept} bytes of witness file {path} do not match "
                "the sha256 the checkpoint recorded; refusing to resume"
            )
        # one line per refutation; a leg run without a witness stream saved
        # 0 bytes, so its refutations have no lines here either
        if lines != (refutations := sum(state["refuted"].values())):
            raise ValueError(
                f"checkpoint field refuted counts {refutations} refutations, but the first {kept} "
                f"bytes of witness file {path} hold {lines} lines; refusing to resume"
            )
    return state, done, digest


# ---------------------------------------------------------------------------
# the run itself

def _cofactors(values: np.ndarray, bound: int) -> np.ndarray:
    """values (int64, each >= 2) with every prime factor <= bound divided out."""
    primes = base_primes(min(bound, math.isqrt(int(values.max()))))
    rows, cols = np.nonzero(values[:, None] % primes == 0)
    p = primes[cols]
    power = p.copy()  # grows to the full power of p in values[rows]
    grow = np.arange(len(p))
    while len(grow):
        grow = grow[values[rows[grow]] // power[grow] % p[grow] == 0]
        power[grow] *= p[grow]
    cof = values.copy()
    np.floor_divide.at(cof, rows, power)
    # every prime <= isqrt(value) is out, so a remainder <= bound is 1 or a
    # prime <= bound (possible only when bound > isqrt(value)): smooth
    cof[cof <= bound] = 1
    return cof


def _refute_events(qs: np.ndarray, windows: tuple[Window, ...], bound: int) -> list[list]:
    """The first witness (offset, prime), or None, of every q in every window, in one batch.

    Row r is the pair (qs[r // len(windows)], windows[r % len(windows)]).
    All live rows are tested at their current offset together; a row whose
    element has a cofactor > 1 is refuted there, and only rows whose element
    was smooth advance, until their window ends (None: not refuted).  Each
    witness is re-verified as it is emitted: it divides its element, exceeds
    the bound and is prime.
    """
    offset = np.tile(np.array([a for a, _ in windows], dtype=np.int64), len(qs))
    end = np.tile(np.array([b for _, b in windows], dtype=np.int64), len(qs))
    row_q = np.repeat(qs, len(windows))
    hits: list = [None] * len(offset)
    live = np.arange(len(offset))
    while len(live):
        values = row_q[live] + offset[live]
        cof = _cofactors(values, bound)
        done = cof > 1
        for r, off, value, c in zip(
            live[done].tolist(), offset[live[done]].tolist(), values[done].tolist(), cof[done].tolist()
        ):
            prime = arith.least_prime_above(c, bound)
            if value % prime or prime <= bound or not arith.is_prime(prime):
                raise AssertionError(f"witness extraction failed for {value}")
            hits[r] = (off, prime)
        live = live[~done]
        offset[live] += 1
        live = live[offset[live] <= end[live]]
    return [hits[i : i + len(windows)] for i in range(0, len(hits), len(windows))]


def _certificate_job(
    job: tuple[int, int, int], gap_min: int, windows: tuple[Window, ...], bound: int
) -> list:
    """One segment (index, lo, hi): sieve gap events and attack them in every window."""
    _, slo, shi = job
    ps, gaps = _segment_gap_events(slo, shi, gap_min)
    return list(zip(ps.tolist(), gaps.tolist(), _refute_events(ps, windows, bound)))


def run(config: CertificateConfig, stop_after_segments: Optional[int] = None) -> CertificateReport:
    """Execute the certificate scan under config; resumable via checkpoint.

    stop_after_segments is an operational hook (used by tests and long-run
    babysitting) that ends the run early with complete=False; resuming from
    the checkpoint finishes it with output identical to an uninterrupted run.
    """
    if stop_after_segments is not None and stop_after_segments < 0:
        raise ValueError(
            f"certificate: stop_after_segments must be >= 0, got {stop_after_segments}"
        )
    uncovered = coverage_check(config.gap_cap, config.window_len, config.windows)
    if uncovered:
        raise ValueError(
            f"certificate: windows leave placements uncovered (first: {uncovered[0]}); refusing to run"
        )

    keys = [_window_key(w) for w in config.windows]
    state, done, digest = _resume(config, keys)
    for key in keys:  # a window without refutations yet counts 0, in configured order
        state["refuted"].setdefault(key, 0)
    jobs = SegmentPlan(2, config.q_max + 1, config.segment_size).jobs()
    pending = jobs[done:][:stop_after_segments]
    segment_job = functools.partial(
        _certificate_job, gap_min=config.gap_min, windows=config.windows, bound=config.smooth_bound
    )
    results = ordered_map(segment_job, pending, config.workers)

    witness_fh = None
    if config.witness_path:
        kept = state["witness_bytes"]
        witness_fh = open(config.witness_path, "r+b" if kept else "wb")
        witness_fh.truncate(kept)
        witness_fh.seek(kept)

    try:
        for (_, _, shi), events in zip(pending, results):
            for q, gap, hits in events:
                state["gap_prime_count"] += 1
                if gap > config.gap_cap:
                    state["gap_cap_violations"].append([q, gap])
                for w, key, hit in zip(config.windows, keys, hits):
                    if hit is None:
                        state["failures"].append([q, list(w)])
                        continue
                    state["refuted"][key] += 1
                    if witness_fh is not None:
                        # the bytes of json.dumps(..., separators=(",", ":")) of the record
                        line = f'{{"q":{q},"window":"{key}","offset":{hit[0]},"prime":{hit[1]}}}\n'.encode()
                        witness_fh.write(line)
                        digest.update(line)
            state["segments_done"] += 1
            state["completed_hi"] = shi
            # a leg without a witness stream saves 0 bytes, so a later witnessed
            # resume is refused instead of losing this leg's lines
            state["witness_bytes"] = witness_fh.tell() if witness_fh else 0
            state["witness_sha256"] = digest.hexdigest()
            if witness_fh is not None:
                # the lines are on disk before a checkpoint counts them
                witness_fh.flush()
                os.fsync(witness_fh.fileno())
            if config.checkpoint_path:
                checkpoint_save(config.checkpoint_path, state)
    finally:
        if witness_fh is not None:
            witness_fh.close()

    return CertificateReport(
        config=config,
        gap_prime_count=state["gap_prime_count"],
        refuted=state["refuted"],
        failures=tuple((q, tuple(w)) for q, w in state["failures"]),
        gap_cap_violations=tuple(tuple(v) for v in state["gap_cap_violations"]),
        segments_done=state["segments_done"],
        segments_total=len(jobs),
        complete=state["segments_done"] == len(jobs),
    )
