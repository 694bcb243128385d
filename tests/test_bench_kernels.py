"""The kernel micro-benchmark still runs: a renamed or deleted kernel entry
that `benchmarks/bench_kernels.py` calls fails here, not at the next
benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCRIPT = os.path.join(ROOT, "benchmarks", "bench_kernels.py")


def test_bench_kernels_runs_every_section():
    done = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for header in ("workload", "layer"):
        assert any(line.split() == [header, "time"] for line in lines), header
    assert any(line.startswith("grow 2-sphere to 120 vertices") for line in lines)
    assert any(line.startswith("cold decide on the dunce hat with 12 twin pendants") for line in lines)
    assert any(line.startswith("cold apply_trace disk reduce trace") for line in lines)
    assert any(line.startswith("cold invert_trace disk reduce trace") for line in lines)
    assert any(line.startswith("macro workload, cold caches:") for line in lines)
