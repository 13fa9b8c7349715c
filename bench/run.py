"""collisionlab benchmark: one workload per process, outputs checked.

    python3 bench/run.py --workload certify-top --seed 0 --seconds 40 --trace 0

With --trace 0 it times whole iterations of the workload for --seconds
seconds and reports the end-to-end metrics (see Workload.wall_statistic).  With
--trace 1 it runs one untraced and one traced iteration on one worker and
reports per-layer metrics from the spans (see tracing.py).  Every output is
checked: against the pinned digests (digests.json) where they apply, and by
independent recomputation (checks.py) for any seed.  Any mismatch counts the
iteration's operations as failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with the host and the
per-iteration times, goes to .bench_out/ in the checkout, with the spans of
traced runs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import ready

BENCH = Path(__file__).resolve().parent
OUT_DIR = ready.ROOT / ".bench_out"
SETUP_PROBES = 7
WORKLOAD_NAMES = ("certify-top", "certify-1e9", "nmax31", "checkers")

_clock = time.perf_counter


def cpu_ticks() -> list[int]:
    """Aggregate CPU tick counters from /proc/stat (read only), or [] off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def host_record(before: list[int], after: list[int]) -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "sympy": version("sympy"),
        "platform": platform.platform(),
    }
    if len(before) >= 8 and len(after) >= 8:
        # user nice system idle iowait irq softirq steal ...
        delta = [b - a for a, b in zip(before, after)]
        tick = os.sysconf("SC_CLK_TCK")
        host.update({
            "iowait_s": delta[4] / tick,
            "steal_s": delta[7] / tick,
            "steal_pct": 100.0 * delta[7] / max(1, sum(delta[:8])),
        })
    return host


def setup_probe() -> float:
    """Seconds from spawning a fresh interpreter to its set-up being ready."""
    env = dict(os.environ)
    env.pop("COLLISIONLAB_CACHE_DIR", None)
    t0 = _clock()
    with subprocess.Popen([sys.executable, str(BENCH / "ready.py")], stdout=subprocess.PIPE,
                          cwd=ready.ROOT, env=env, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = _clock() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first = None

    def run(self, call, ops: int):
        """One iteration: count it, fail it on an exception or a changed output."""
        self.attempted += ops
        try:
            it = call()
        except Exception:  # the benchmark keeps going and reports the failure
            self.failed += ops
            self.problems.append(traceback.format_exc(limit=4))
            print(self.problems[-1], file=sys.stderr)
            return None
        if self.first is None:
            self.first = it
        elif it.output != self.first.output:
            self.failed += it.ops
            self.problems.append("output differs from the first iteration")
        return it

    def check_first(self, wl) -> None:
        if self.first is None:
            return
        try:
            problems = wl.check(self.first)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self.failed += self.first.ops
            self.problems += problems
            for p in problems[:20]:
                print(f"check failed: {p}", file=sys.stderr)


def timed_run(wl, seconds: float, probes: int) -> tuple[dict, Tally, dict]:
    setup: list[float] = []
    tally = Tally()
    walls: list[float] = []
    start = _clock()
    while _clock() - start < seconds or not tally.attempted:
        # spread the set-up probes over the run, between iterations, so that
        # their median covers the same stretch of host load as the iterations
        while len(setup) < min(probes, 1 + int(probes * (_clock() - start) / max(seconds, 1e-9))):
            setup.append(setup_probe())
        it = tally.run(wl.run, wl.ops)
        if it is not None:
            walls.append(it.wall)
    setup += [setup_probe() for _ in range(probes - len(setup))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.check_first(wl)
    wall = {"median": statistics.median, "min": min}[wl.wall_statistic](walls) if walls else 0.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (wl.ops / wall if wall else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "1"),
    }
    return metrics, tally, {"setup_samples_s": setup, "walls_s": walls}


def traced_run(wl, setup_ms: dict, trace_path: Path) -> tuple[dict, Tally, dict]:
    import tracing

    tally = Tally()
    walls = {}
    if wl.workers != 1:
        # the timed configuration; its output must equal the one-worker output
        it = tally.run(wl.run, wl.ops)
        walls[f"untraced_workers{wl.workers}"] = it and it.wall
    base = tally.run(lambda: wl.run(workers=1), wl.ops)
    tracer = tracing.Tracer()
    traced = tally.run(lambda: wl.run(tracer=tracer, workers=1), wl.ops)
    tally.check_first(wl)
    walls.update(untraced_workers1=base and base.wall, traced_workers1=traced and traced.wall)
    metrics = {}
    if base is not None and traced is not None:
        metrics = tracing.layer_metrics(tracer, wl.root, setup_ms, base.wall, wl.witness_bytes(traced))
        tracer.write(trace_path)
    return metrics, tally, {"walls_s": walls, "setup_ms": setup_ms}


def run_all(args) -> int:
    """Every workload in its own fresh process, then one table of the results."""
    import workloads

    table = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + ["--smoke"] * args.smoke
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ready.ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        table.append((name, json.loads(lines[-1]) if proc.returncode == 0 and lines else None))
    columns = ["setup_s", "wall_s", "segments_per_s", "points_per_s", "calls_per_s", "peak_rss_mb", "failed_ratio"]
    print("\nworkload     " + " ".join(f"{c:>14s}" for c in columns))
    print("unit         " + " ".join(f"{u:>14s}" for u in ["s", "s", "1/s", "1/s", "1/s", "MiB", "1"]))
    for name, result in table:
        if result is None or args.trace:
            print(f"{name:12s} " + ("no result" if result is None else f"correct={result['correct']}"))
            continue
        m = {k: v["value"] for k, v in result["metrics"].items()}
        m[workloads.WORKLOADS[name].unit + "_per_s"] = m["ops_per_s"]
        m["failed_ratio"] = result["failed"] / result["attempted"]
        print(f"{name:12s} " + " ".join(f"{m[c]:14.6g}" if c in m else f"{'-':>14s}" for c in columns))
    return 0 if all(r is not None and r["correct"] for _, r in table) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="'all' runs each workload in its own process and adds a summary table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up probe (self-tests)")
    args = parser.parse_args(argv)

    try:
        ready.add_source_path()
    except ready.SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    ticks_before = cpu_ticks()
    setup_ms = ready.setup()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        if args.trace:
            metrics, tally, extra = traced_run(wl, setup_ms, OUT_DIR / f"{stem}.spans.json")
        else:
            metrics, tally, extra = timed_run(wl, args.seconds, 1 if args.smoke else SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host = host_record(ticks_before, cpu_ticks())

    correct = tally.failed == 0 and not tally.problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
              "unit": wl.unit, "ops_per_iteration": wl.ops, "host": host, "problems": tally.problems,
              **extra, **result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {wl.ops} {wl.unit} per iteration")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if not args.trace and metrics:
        print(f"  {wl.unit + '_per_s':36s} {metrics['ops_per_s'][0]:14.6g} 1/s  (= ops_per_s)")
    print(f"  {'failed_ratio':36s} {tally.failed / max(1, tally.attempted):14.6g} 1  "
          f"({tally.failed} of {tally.attempted} {wl.unit})")
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
