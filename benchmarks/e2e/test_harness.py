"""Self-tests of the benchmark harness (outside tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

Unit tests of the tracer's self-time arithmetic and of the percentile
rule, plus one ``run.py --smoke`` pass over all four workloads.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as mt  # noqa: E402

# By path: under pytest the name ``trace`` may already mean the stdlib module.
_spec = importlib.util.spec_from_file_location("e2e_trace", HERE / "trace.py")
e2e_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_trace)

DECL = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Ocean:
    """``step(dt)`` re-enters ``step()``, like ``LicomModel``."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def step(self, dt=None):
        if dt is not None:
            self.clock.now += 1.0          # dispatch loop: outer self time
            for _ in range(2):
                self.step()
            return
        self.clock.now += 2.0              # inner self time
        self.solve()

    def solve(self):
        self.clock.now += 5.0


def traced_ocean():
    clock = FakeClock()
    tracer = e2e_trace.Tracer(clock=clock)
    ocean = Ocean(clock)
    tracer.wrap(ocean, "step", "ocn.step")
    tracer.wrap(ocean, "solve", "ocn.solve")
    tracer.cycle = 0
    with tracer.span("esm.cycle"):
        clock.now += 3.0                   # driver's own time
        ocean.step(10.0)
    return tracer


def test_self_times_add_up_to_the_root():
    tracer = traced_ocean()
    selfs = e2e_trace.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(selfs) == pytest.approx(root[e2e_trace.END] - root[e2e_trace.START])
    assert selfs[0] == pytest.approx(3.0)


def test_reentrant_call_is_not_double_counted():
    agg = e2e_trace.aggregate(traced_ocean().spans)[0]
    step = agg["ocn.step"]
    # One outer span of 1 + 2*(2+5) = 15 s; a naive sum over all three
    # ocn.step spans would give 29.
    assert step["incl"] == pytest.approx(15.0)
    assert (step["calls"], step["inner"]) == (3, 2)
    assert step["self"] == pytest.approx(1.0 + 2 * 2.0)
    assert agg["ocn.solve"]["incl"] == pytest.approx(10.0)
    assert agg["esm.cycle"]["self"] == pytest.approx(3.0)
    assert sum(row["self"] for row in agg.values()) == pytest.approx(agg["esm.cycle"]["incl"])


def test_wrapping_a_shared_object_twice_records_one_span():
    tracer = traced_ocean()
    ocean = Ocean(tracer.clock)
    tracer.wrap(ocean, "solve", "ocn.solve")
    tracer.wrap(ocean, "solve", "ocn.solve")
    before = len(tracer.spans)
    ocean.solve()
    assert len(tracer.spans) == before + 1


def test_span_closes_when_the_call_raises():
    tracer = e2e_trace.Tracer(clock=FakeClock())

    class Boom:
        def go(self):
            raise ValueError("boom")

    boom = Boom()
    tracer.wrap(boom, "go", "x.go")
    with pytest.raises(ValueError):
        boom.go()
    assert tracer.spans[0][e2e_trace.END] is not None and not tracer._stack


@pytest.mark.parametrize("n, index, pct", [(1000, 989, 99.0), (100, 89, 90.0), (22, 11, 100 * 12 / 22)])
def test_percentile_hi_keeps_ten_samples_beyond(n, index, pct):
    samples = list(range(n))
    value, got = mt.percentile_hi(samples[::-1])
    assert value == samples[index] and got == pytest.approx(pct)
    assert sum(1 for s in samples if s > value) == 10


@pytest.mark.parametrize("n", [1, 5, 20, 21])
def test_percentile_hi_falls_back_to_the_median(n):
    samples = [float(i) for i in range(n)]
    assert mt.percentile_hi(samples) == (mt.median(samples), 50.0)


def test_declared_names_are_well_formed():
    names = [m["name"] for m in DECL["end_to_end"] + DECL["per_layer"]]
    names += [w["name"] for w in DECL["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def run_py(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=600)


def test_smoke_emits_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = run_py("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    report = json.loads(out.read_text())
    seen = set()
    for w in DECL["workloads"]:
        rec = report["workloads"][w["name"]]
        assert rec["correct"] and rec["failed"] == 0 and not rec["benchmark_errors"]
        for m in DECL["end_to_end"]:
            assert math.isfinite(rec["end_to_end"][m["name"]]["value"])
        assert set(rec["per_layer"]) == {m["name"] for m in DECL["per_layer"]}
        for name, value in rec["per_layer"].items():
            if value is not None:
                assert math.isfinite(value), name
                seen.add(name)
        assert (out.parent / f"{out.name}.{w['name']}.trace.json").exists()
    # Every per-layer metric exists on at least one workload (pp.procs_* on
    # cpl_atm, io.* on ens_ckpt, ai.* on the AI workloads).
    assert seen == {m["name"] for m in DECL["per_layer"]}
    # Each workload stresses what it was chosen for, even at smoke size.
    layer = {w: report["workloads"][w]["per_layer"] for w in report["workloads"]}
    assert layer["cpl_atm"]["ai.tendency_ms"] is None and layer["cpl_ocn"]["ai.tendency_ms"] is None
    assert layer["ens_ckpt"]["esm.batch_calls"] > 0 and layer["ens_ckpt"]["io.ckpt_mb"] > 0
    assert all(layer[w]["io.ckpt_mb"] is None for w in ("cpl_atm", "cpl_ocn", "cpl_ai"))
    assert layer["ens_ckpt"]["ai.rows_per_call"] == 2 * layer["cpl_ai"]["ai.rows_per_call"]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_line_carries_every_metric(trace, section):
    proc = run_py("--smoke", "--workload", "ens_ckpt", "--seed", "7",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in DECL[section]}
    for m in DECL[section]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])


def _trial(label, digest="d0", checks=None, error=None, launches=35.0):
    return {"label": label, "planned_cycles": 4, "error": error, "digest": digest,
            "checks": checks or {"finite": True},
            "cycles": [{"counters": {"pp.atm.radiation.launches": launches,
                                     "pp.atm.radiation.seconds": 0.1 * (1 + len(label))}}] * 4}


def test_verify_counts_failed_cycles():
    import run

    ok = [_trial("untraced0"), _trial("untraced1"), _trial("traced")]
    assert run.verify(ok, _trial("procs"))[:2] == (16, 0)
    # A failed check fails that trial's cycles; an error likewise.
    bad = [_trial("untraced0", checks={"finite": True, "sst_range": False}), _trial("traced")]
    assert run.verify(bad, None)[:2] == (8, 4)
    assert run.verify([_trial("untraced0", error="Traceback\nValueError: x")], None)[:2] == (4, 4)
    # A wrapper that perturbs results, a procs run that is not bitwise, or a
    # count that does not repeat: no trial of the workload can be trusted.
    assert run.verify([_trial("untraced0"), _trial("traced", digest="d1")], None)[:2] == (8, 8)
    assert run.verify([_trial("untraced0")], _trial("procs", digest="d1"))[:2] == (8, 8)
    assert run.verify([_trial("untraced0"), _trial("traced", launches=36.0)], None)[:2] == (8, 8)
