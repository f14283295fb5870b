"""The process keeps its heap: the column physics stops page-faulting its
working set once ``import repro`` has fixed glibc's malloc thresholds."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro.utils.heap import keep_heap

PROBE = """
import resource
import repro
from repro.atm import ConventionalPhysics, synthetic_columns
cols = synthetic_columns(2562, 30, season=0, step=0)
physics = ConventionalPhysics()
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    physics.compute(cols, 3600.0)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not keep_heap(), reason=f"no mallopt in the C library on {platform.platform()}")
def test_column_physics_stops_faulting():
    """Six level-4 physics calls in a fresh process: after the first, each
    takes < 50 minor faults (≈ 800-1 000 with glibc's dynamic thresholds)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    faults = [int(n) for n in proc.stdout.split()]
    assert len(faults) == 6
    assert max(faults[1:]) < 50, faults
