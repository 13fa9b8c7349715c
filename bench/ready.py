"""Set-up shared by every workload: import collisionlab and fill its caches.

Imported, it gives run.py the source path and the set-up step.  Run as a
script, it performs the set-up in a fresh interpreter and prints "ready";
run.py times that from spawn to the printed line, which is setup_s.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_Q_MAX = 31754673611
SMOOTH_BOUND = 3427
# Covers sqrt of every sieve point up to q_max and every trial-division walk
# of prime_factor_above, whose cofactors stay below q_max + 456 < 2**36.
BASE_PRIME_LIMIT = 1 << 18


class SourceMissing(RuntimeError):
    pass


def add_source_path() -> None:
    """Put the checkout's src/ first on sys.path, or raise SourceMissing."""
    if not (SRC / "collisionlab" / "__init__.py").is_file():
        raise SourceMissing(f"no collisionlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup() -> dict[str, float]:
    """Import every layer and fill the caches the workloads read.

    Returns the milliseconds each step took.  The on-disk base-prime cache
    is switched off so that every run fills the table itself.
    """
    os.environ.pop("COLLISIONLAB_CACHE_DIR", None)
    add_source_path()
    t0 = time.perf_counter()
    import collisionlab
    from collisionlab import arith, bounds, certificate, cli, collision, intervals, lemma, sieve  # noqa: F401

    if not Path(collisionlab.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"collisionlab imported from {collisionlab.__file__}, not {SRC}")
    t1 = time.perf_counter()
    sieve.base_primes(BASE_PRIME_LIMIT)
    t2 = time.perf_counter()
    sieve.prime_list(SMOOTH_BOUND)
    t3 = time.perf_counter()
    from mpmath import iv  # noqa: F401

    t4 = time.perf_counter()
    return {
        "import_ms": 1e3 * (t1 - t0),
        "base_primes_ms": 1e3 * (t2 - t1),
        "prime_list_ms": 1e3 * (t3 - t2),
        "iv_import_ms": 1e3 * (t4 - t3),
    }


if __name__ == "__main__":
    setup()
    print("ready", flush=True)
