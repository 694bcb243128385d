"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs each workload for about a second in both modes, checks that the last
stdout line carries every metric named in BENCHMARK.json (end-to-end) or
tracing.PER_LAYER (per-layer) with no failed task, and that inputs depend on
the seed and on nothing else.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_emitted_and_correct(workload):
    plain = _bench(workload, 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
        assert plain["metrics"][m["name"]]["value"] > 0

    traced = _bench(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == PER_LAYER


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_inputs_follow_the_seed(workload):
    dt = run.load_package()
    wl = run.WORKLOADS[workload]
    ctx = wl.prepare(dt)
    a, b, c = (list(itertools.islice(wl.stream(seed, ctx), 24)) for seed in (3, 3, 4))
    assert a == b
    assert a != c


_DIGEST_INPUTS = """
import hashlib, itertools, json, sys
sys.path.insert(0, {here!r})
import run
dt = run.load_package()
for name, wl in sorted(run.WORKLOADS.items()):
    tasks = list(itertools.islice(wl.stream(11, wl.prepare(dt)), 60))
    print(name, hashlib.sha256(json.dumps(tasks, sort_keys=True).encode()).hexdigest())
"""


def test_inputs_do_not_depend_on_hash_seed():
    outs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_INPUTS.format(here=str(HERE))],
            env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
