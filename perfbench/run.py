#!/usr/bin/env python3
"""End-to-end benchmark of digitopo: one closed-loop client, one task at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload digitize --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every workload

Each task is one user question (a public-API call sequence that could
equally be one `digitopo` CLI invocation). The two public caches are
cleared before every task, as in a fresh CLI process, and every answer is
checked by the workload's oracle. The package is imported from `src/` next
to this directory; no build step is needed for the pure-Python kernels.

Every reported time is scaled to a reference host speed by a probe timed
between tasks (see hostspeed.py); the printed lines give the raw factor.
`--trace 0` measures the end-to-end metrics. `--trace 1` runs the first
tasks untraced for a third of the time, replays the same tasks with every
layer's public functions wrapped (see tracing.py), and reports per-layer
metrics plus the tracing overhead; spans go to perfbench/out/. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import certify  # noqa: E402
import digitize  # noqa: E402
import recognize  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

WORKLOADS = {"digitize": digitize, "recognize": recognize, "certify": certify}
MODULES = (
    "graph", "_kernels", "_kernels._pure", "_smith", "homotopy", "classify", "transform",
    "invariants", "covers", "catalog", "digitizer",
)
END_TO_END = {  # metric -> unit
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
}
SETUP_REPEATS = 7
SETUP_TASKS_PER_SECOND = 25  # inputs made in set-up per second of run time
TRACE_UNTRACED_SHARE = 1 / 3


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


def load_package() -> SimpleNamespace:
    """Import digitopo afresh from src/, never from an installed copy."""
    if not (SRC / "digitopo" / "__init__.py").is_file():
        raise BenchError(f"no digitopo source tree at {SRC}")
    for name in [m for m in sys.modules if m.split(".")[0] == "digitopo"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("digitopo")
    if Path(pkg.__file__).resolve().parent != SRC / "digitopo":
        raise BenchError(f"digitopo imported from {pkg.__file__}, not from {SRC}")
    mods = {m.replace("_kernels._pure", "pure").lstrip("_"): importlib.import_module(f"digitopo.{m}")
            for m in MODULES}
    return SimpleNamespace(package=pkg, **mods)


def setup(workload: str, seed: int, count: int):
    """Import the package, then generate the workload's inputs from its seed.

    Returns the package, the workload's context, the first `count` inputs
    and the stream that continues them, should a run need more."""
    dt = load_package()
    wl = WORKLOADS[workload]
    ctx = wl.prepare(dt)
    stream = wl.stream(seed, ctx)
    return dt, ctx, itertools.chain(list(itertools.islice(stream, count)), stream)


def run_tasks(dt, wl, ctx, tasks, speed, seconds=None, tracer=None):
    """Closed loop over `tasks` until they or the seconds run out; returns
    (inputs run, per-task seconds, failures). Only the task itself is timed:
    the host-speed probe, the cache clearing before it and the oracle after
    it are not."""
    done: list[dict] = []
    latencies: list[float] = []
    failures: list[tuple[int, str]] = []
    clock = time.perf_counter
    deadline = None if seconds is None else clock() + seconds
    for i, spec in enumerate(tasks):
        if deadline is not None and clock() >= deadline:
            break
        done.append(spec)
        speed.maybe_probe()
        gc.collect()
        dt.kernels.clear_caches()
        dt.classify.clear_caches()
        if tracer is not None:
            tracer.begin(i)
        t0 = clock()
        try:
            answer = wl.run(dt, spec, ctx)
            error = None
        except Exception as exc:  # a crash is a failed task, never the end of the run
            error = f"raised {type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.end()
        if error is None:
            try:
                error = wl.check(dt, spec, answer, ctx)
            except Exception as exc:
                error = f"oracle raised {type(exc).__name__}: {exc}"
        latencies.append(t1 - t0)
        if error is not None:
            failures.append((i, error))
    speed.probe()
    return done, latencies, failures


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    count = int(SETUP_TASKS_PER_SECOND * seconds) + 10
    setup_times = []
    setup_speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        gc.collect()  # garbage from the previous set-up is not this one's cost
        setup_speed.probe()
        t0 = time.perf_counter()
        dt, ctx, tasks = setup(workload, seed, count)
        setup_times.append(time.perf_counter() - t0)
    setup_speed.probe()
    gc.collect()
    gc.freeze()  # set-up objects never count towards a task's collections
    wl = WORKLOADS[workload]
    print(f"workload {workload}  seed {seed}  backend {dt.package.KERNEL_BACKEND}  "
          f"trace {int(trace)}")

    if not trace:
        speed = HostSpeed()
        _, raw, failures = run_tasks(dt, wl, ctx, tasks, speed, seconds=seconds)
        lat = [t * speed.factor() for t in raw]
        attempted = len(lat)
        metrics = {
            "setup_s": statistics.median(setup_times) * setup_speed.factor(),
            "tasks_per_s": (attempted - len(failures)) / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_p90_s": statistics.quantiles(lat, n=10)[8] if attempted > 1 else lat[0],
            "ok_frac": (attempted - len(failures)) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"tasks {attempted} (latency samples), failed {len(failures)}")
        print(f"host probe median {speed.median_s() * 1e3:.3f} ms in {len(speed.samples)} "
              f"probes; times scaled by {speed.factor():.4f} (set-up by "
              f"{setup_speed.factor():.4f}); unscaled tasks/s "
              f"{(attempted - len(failures)) / sum(raw):.4g}")
    else:
        speed_a, speed_b = HostSpeed(), HostSpeed()
        done, lat_a, fail_a = run_tasks(dt, wl, ctx, tasks, speed_a,
                                        seconds=seconds * TRACE_UNTRACED_SHARE)
        tracer = Tracer()
        tracer.install()
        _, lat_b, fail_b = run_tasks(dt, wl, ctx, done, speed_b, tracer=tracer)
        failures = fail_a + fail_b
        attempted = len(lat_a) + len(lat_b)
        metrics = tracer.metrics()
        untraced = len(lat_a) / (sum(lat_a) * speed_a.factor())
        traced = len(lat_b) / (sum(lat_b) * speed_b.factor())
        metrics["trace.overhead_tasks_per_s"] = traced - untraced
        metrics["trace.overhead_frac"] = 1 - traced / untraced
        units = PER_LAYER
        path = OUT / f"spans-{workload}-seed{seed}.csv"
        tracer.write_spans(path, f"workload {workload} seed {seed} "
                                 f"backend {dt.package.KERNEL_BACKEND} tasks {len(lat_b)}")
        print(f"tasks {len(lat_b)} traced after the same {len(lat_a)} untraced; spans in {path}")

    for i, error in failures[:10]:
        print(f"FAILED task {i}: {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd)
        status = status or proc.returncode
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
