"""The worker policy shared by every parallel scan in the package.

`ordered_map` is the only place that decides how many processes run and
in which order their results come back; the sieve's gap scan and the
certificate run both go through it, so their output never depends on the
worker count.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence, TypeVar

__all__ = ["ordered_map"]

J = TypeVar("J")
R = TypeVar("R")


def ordered_map(fn: Callable[[J], R], jobs: Sequence[J], workers: int) -> Iterator[R]:
    """Yield fn(job) for every job, in job order.

    workers == 0 means one worker per CPU this process may run on: its
    affinity set where the platform has one, so under `taskset -c 0` the
    jobs run in this process however many CPUs the host has.  A negative
    count is refused here, at the call, before any job runs.  When
    min(workers, len(jobs)), capped at the CPUs this process may run on, is
    more than one, a process pool of that size runs the jobs (so a count
    past those CPUs starts no extra process), and each result is yielded as
    soon as it and all earlier ones are in, so the caller can act on it
    (write a checkpoint, say) while later jobs still run.  Otherwise the
    jobs run one by one in this process.  fn must be a module-level
    function, since the pool pickles it.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 means one per CPU), got {workers}")
    return _ordered(fn, jobs, workers)


def _ordered(fn: Callable[[J], R], jobs: Sequence[J], workers: int) -> Iterator[R]:
    if workers != 1 and len(jobs) > 1:
        # imported here so that the serial path, and every import of the
        # package, stay clear of multiprocessing's start-up cost
        import multiprocessing

        cpus = _usable_cpus()
        size = min(workers or cpus, cpus, len(jobs))
        if size > 1:
            with multiprocessing.Pool(size) as pool:
                yield from pool.imap(fn, jobs)
            return
    for job in jobs:
        yield fn(job)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
