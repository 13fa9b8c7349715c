"""The shared worker map: job order and pool selection."""

import contextlib
import multiprocessing
import os
import time
from types import SimpleNamespace

import pytest

from collisionlab.pool import ordered_map


def _slow_echo(job):
    # earlier jobs sleep longer, so a pool finishes them out of order
    time.sleep(job)
    return job, os.getpid()


JOBS = [0.06, 0.04, 0.02, 0.0]


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_ordered_map_keeps_job_order(monkeypatch, workers):
    # two CPUs allowed, so workers = 2 runs a pool on a one-CPU runner too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = list(ordered_map(_slow_echo, JOBS, workers))
    assert [job for job, _ in out] == JOBS
    pids = {pid for _, pid in out}
    if workers == 1:
        assert pids == {os.getpid()}
    if workers == 2:
        assert os.getpid() not in pids


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_ordered_map_single_job_runs_in_process(workers):
    assert list(ordered_map(_slow_echo, [0.0], workers)) == [(0.0, os.getpid())]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_ordered_map_counts_only_the_cpus_this_process_may_use(monkeypatch):
    # as under `taskset -c 0`: one CPU allowed, whatever the host has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = list(ordered_map(_slow_echo, JOBS, 0))
    assert out == [(job, os.getpid()) for job in JOBS]


@pytest.mark.parametrize(
    "cpus, workers, jobs, sizes",
    [
        ({0, 1}, 5000, 7571, [2]),
        ({0, 1}, 0, 7571, [2]),
        ({0, 1, 2, 3}, 3, 7571, [3]),
        ({0, 1, 2, 3}, 5000, 3, [3]),
        ({0}, 5000, 7571, []),
    ],
    ids=["capped-at-cpus", "one-per-cpu", "below-cpus", "capped-at-jobs", "one-cpu-runs-in-process"],
)
def test_ordered_map_never_asks_for_more_processes_than_cpus(monkeypatch, cpus, workers, jobs, sizes):
    # the stand-in Pool records the size asked for and starts no process
    asked = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(
        multiprocessing, "Pool", lambda size: asked.append(size) or contextlib.nullcontext(SimpleNamespace(imap=map))
    )
    assert list(ordered_map(abs, range(-jobs, 0), workers)) == list(range(jobs, 0, -1))
    assert asked == sizes


def test_ordered_map_is_lazy():
    calls = []
    results = ordered_map(calls.append, [1, 2, 3], 1)
    assert calls == []
    next(results)
    assert calls == [1]


def test_ordered_map_refuses_negative_workers_at_the_call():
    calls = []
    with pytest.raises(ValueError, match="workers must be >= 0"):
        ordered_map(calls.append, [1, 2, 3], -2)
    assert calls == []
