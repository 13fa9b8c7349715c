"""In-memory spans and counters around collisionlab's public module attributes.

Nothing here edits the program: a Tracer replaces module attributes with
wrappers for the duration of a `with tracer.active():` block and puts the
originals back afterwards.  Wrappers patch the name the *calling* module
looks up (certificate imported `_segment_gap_events` by name, lemma imported
`f_stirling`, `pi_upper_dusart` and `certified_less` by name), so they see
every call the program makes.

A span records its name, its parent span and its start and end; self time is
its duration minus the time its child spans cover.  Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

from collisionlab import arith, bounds, certificate, collision, intervals, lemma, sieve

_clock = time.perf_counter

# (module, attribute, span name); the calling module's name is patched
SPANS = (
    (certificate, "_certificate_job", "certificate.segment_job"),
    (certificate, "_segment_gap_events", "sieve.segment"),
    (sieve, "next_prime_after", "sieve.gap_close"),
    (certificate, "refute_window", "certificate.refute_window"),
    (arith, "smooth_split", "arith.smooth_split"),
    (arith, "prime_factor_above", "arith.prime_factor_above"),
    (arith, "is_prime", "arith.is_prime"),
    (certificate, "checkpoint_save", "certificate.checkpoint"),
    (lemma, "_nmax_point", "lemma.nmax_point"),
    (lemma, "f_stirling", "bounds.f_stirling"),
    (lemma, "pi_upper_dusart", "bounds.pi_upper"),
    (lemma, "_sign_at", "lemma.sign_at"),
    (lemma, "threshold_lemma32", "lemma.threshold32"),
    (lemma, "check_lemma21", "lemma.check.check21"),
    (lemma, "check_lemma22", "lemma.check.check22"),
    (lemma, "check_lemma23_smooth", "lemma.check.check23"),
    (lemma, "check_lemma31", "lemma.check.check31"),
    (lemma, "section4_contradiction", "lemma.check.section4"),
    (lemma, "section5_check", "lemma.check.section5"),
    (collision, "enumerate_collisions", "collision.enumerate"),
)

CHECKERS = ("check21", "check22", "check23", "check31", "section4", "section5")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, parent index or -1, start, end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        self.spans.append([nid, self.stack[-1] if self.stack else -1, _clock(), 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = _clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def current(self) -> Optional[str]:
        return self.names[self.spans[self.stack[-1]][0]] if self.stack else None

    def wrap(self, name: str, fn: Callable, when: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """fn inside a span; `when(args, kwargs)` filters, `after(result)` counts."""

        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self) -> None:
        counts = self.counts
        after = {
            "sieve.segment": lambda r: counts.update(gap_events=len(r[0])),
            "certificate.refute_window": lambda r: counts.update(refutations=r is not None),
        }
        for owner, attr, name in SPANS:
            self._set(owner, attr, self.wrap(name, getattr(owner, attr), after=after.get(name)))

        self._set(bounds, "evaluate", self.wrap(
            "intervals.precise_eval", bounds.evaluate,
            when=lambda a, k: bool(a[1] if len(a) > 1 else k.get("precise", False)),
        ))

        plain_certified_less = lemma.certified_less

        def certified_less(*args, **kwargs):
            before = counts["precise_contexts"]
            with self.span("intervals.certified_less"):
                out = plain_certified_less(*args, **kwargs)
            counts["escalations"] += counts["precise_contexts"] > before
            return out

        self._set(lemma, "certified_less", certified_less)

        class CountingPreciseContext(intervals.PreciseContext):
            def __init__(self) -> None:
                counts["precise_contexts"] += 1
                super().__init__()

        self._set(intervals, "PreciseContext", CountingPreciseContext)

        post_init = intervals.IntervalValue.__post_init__

        def counting_post_init(value) -> None:
            counts["interval_values"] += 1
            post_init(value)

        self._set(intervals.IntervalValue, "__post_init__", counting_post_init)

        plain_unbounded = sieve.primes_unbounded

        def primes_unbounded():
            for p in plain_unbounded():
                counts["unbounded_steps"] += 1
                yield p

        self._set(sieve, "primes_unbounded", primes_unbounded)

        plain_mask = sieve._odd_prime_mask
        plain_base = sieve.base_primes

        def odd_prime_mask(lo, hi):
            looped = max(0, len(plain_base(math.isqrt(hi - 1))) - 1)
            where = "gap_close" if self.current() == "sieve.gap_close" else "segment"
            counts["looped." + where] += looped
            return plain_mask(lo, hi)

        self._set(sieve, "_odd_prime_mask", odd_prime_mask)

    @contextmanager
    def active(self):
        self._install()
        try:
            yield self
        finally:
            while self._undo:
                owner, attr, value = self._undo.pop()
                setattr(owner, attr, value)

    # -- reading ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for nid, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for (nid, parent, start, end), kids in zip(self.spans, child_time):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - kids
        return out

    def calls_under(self, name: str, parent_name: str) -> int:
        nid = self._name_ids.get(name)
        pid = self._name_ids.get(parent_name)
        return sum(1 for s in self.spans if s[0] == nid and s[1] >= 0 and self.spans[s[1]][0] == pid)

    def write(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "parent", "start_us", "dur_us"],
                    "spans": [
                        [nid, parent, round(1e6 * (start - t0), 1), round(1e6 * (end - start), 1)]
                        for nid, parent, start, end in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                fh,
                separators=(",", ":"),
            )


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, root: str, setup_ms: dict[str, float],
                  untraced_wall: float, witness_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration whose outermost span is `root`."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name: str) -> int:
        return int(s[name]["calls"]) if name in s else 0

    def total(name: str) -> float:
        return s[name]["total"] if name in s else 0.0

    def self_time(name: str) -> float:
        return s[name]["self"] if name in s else 0.0

    segments = calls("certificate.segment_job")
    gap_events = c["gap_events"]
    cl_calls = calls("intervals.certified_less")
    traced_wall = total(root)
    named_self = sum(row["self"] for name, row in s.items() if name != root)

    m: dict[str, tuple[float, str]] = {
        "sieve.segment_ms": (1e3 * _per(self_time("sieve.segment"), segments), "ms/segment"),
        "sieve.gap_close_ms": (1e3 * _per(total("sieve.gap_close"), segments), "ms/segment"),
        "sieve.base_primes_looped": (_per(c["looped.segment"], segments), "count/segment"),
        "sieve.base_primes_ms": (setup_ms["base_primes_ms"], "ms"),
        "arith.smooth_split_calls": (calls("arith.smooth_split"), "count"),
        "arith.smooth_split_us": (1e6 * _per(self_time("arith.smooth_split"), calls("arith.smooth_split")), "us/call"),
        "arith.prime_factor_above_us": (
            1e6 * _per(self_time("arith.prime_factor_above"), calls("arith.prime_factor_above")), "us/call"),
        "arith.is_prime_calls": (calls("arith.is_prime"), "count"),
        "arith.unbounded_prime_steps": (_per(c["unbounded_steps"], segments), "count/segment"),
        "certificate.segments": (segments, "count"),
        "certificate.gap_events": (gap_events, "count"),
        "certificate.refute_us_per_event": (1e6 * _per(total("certificate.refute_window"), gap_events), "us/event"),
        "certificate.refutations_per_offset": (
            _per(c["refutations"], tracer.calls_under("arith.smooth_split", "certificate.refute_window")), "1"),
        "certificate.checkpoint_ms": (1e3 * _per(total("certificate.checkpoint"), calls("certificate.checkpoint")), "ms/call"),
        "certificate.witness_bytes": (witness_bytes, "bytes"),
        "intervals.values": (c["interval_values"], "count"),
        "bounds.pi_upper_calls": (calls("bounds.pi_upper"), "count"),
        "bounds.pi_upper_us": (1e6 * _per(total("bounds.pi_upper"), calls("bounds.pi_upper")), "us/call"),
        "bounds.f_stirling_calls": (calls("bounds.f_stirling"), "count"),
        "bounds.f_stirling_us": (1e6 * _per(total("bounds.f_stirling"), calls("bounds.f_stirling")), "us/call"),
        "intervals.certified_less_calls": (cl_calls, "count"),
        "intervals.escalations": (c["escalations"], "count"),
        "intervals.escalation_ratio": (_per(c["escalations"], cl_calls), "1"),
        "intervals.precise_evals": (calls("intervals.precise_eval"), "count"),
        "intervals.precise_ms": (1e3 * _per(total("intervals.precise_eval"), calls("intervals.precise_eval")), "ms/call"),
        "lemma.sign_at_calls": (calls("lemma.sign_at"), "count"),
        "lemma.threshold32_ms": (1e3 * _per(total("lemma.threshold32"), calls("lemma.threshold32")), "ms/call"),
        "collision.enumerate_ms": (1e3 * _per(total("collision.enumerate"), calls("collision.enumerate")), "ms/call"),
        "trace.overhead_pct": (100.0 * _per(traced_wall - untraced_wall, untraced_wall), "%"),
        "trace.span_coverage_pct": (100.0 * _per(named_self, traced_wall), "%"),
    }
    for checker in CHECKERS:
        name = "lemma.check." + checker
        m["lemma.check_us." + checker] = (1e6 * _per(total(name), calls(name)), "us/call")
    return m
