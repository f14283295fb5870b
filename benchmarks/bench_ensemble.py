"""Ensemble runtime: cross-member batched AI physics.

Measures the multi-instance session layer's centerpiece: stacking every
member's physics columns into ONE suite call (one GEMM serves the
fleet) instead of N per-member calls.  The contract under test is
two-fold — the batched result must be *bitwise identical* to per-member
inference, and the call count must collapse by exactly the member count.

Emits ``BENCH_ensemble.json``: the deterministic call/column accounting
is gated by the CI perf gate; wall times and the batched-vs-sequential
speedup ride along informationally (python-overhead amortization is
machine-dependent and noisy at this miniature problem size).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.atm import AIPhysicsSuite, generate_training_archive, synthetic_columns
from repro.bench import PerfBaseline, banner, compare_baselines, emit, format_table
from repro.esm import AP3ESMConfig, BatchedPhysicsDriver, EnsembleConfig, EnsembleRun

BENCH_JSON = "BENCH_ensemble.json"
BASELINE_DIR = Path(__file__).parent / "baselines"

MEMBERS = 8
NCOL = 48
NLEV = 16
ROUNDS = 3


@pytest.fixture(scope="module")
def suite():
    """A tiny trained AI suite (small nets keep the benchmark fast; the
    batching contract is size-independent)."""
    archive = generate_training_archive(
        n_days=8, steps_per_day=4, ncol_per_step=8, nlev=NLEV
    )
    return AIPhysicsSuite.train(archive, epochs=2, width=16, lr=3e-3)


@pytest.fixture(scope="module")
def member_columns():
    return [
        synthetic_columns(NCOL, NLEV, season=k % 4, step=k, seed=k)
        for k in range(MEMBERS)
    ]


def _time_driver(driver, cols, rounds=ROUNDS):
    """Best-of-rounds wall time of one fleet physics step."""
    best, tends = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        tends = driver.compute(cols, 120.0)
        best = min(best, time.perf_counter() - t0)
    return best, tends


def test_batched_bitwise_identical_to_sequential(suite, member_columns):
    """The acceptance contract: one stacked call == N member calls,
    bit for bit, for every tendency and flux field."""
    batched = BatchedPhysicsDriver([suite] * MEMBERS, batch=True)
    sequential = BatchedPhysicsDriver([suite] * MEMBERS, batch=False)
    tb = batched.compute(member_columns, 120.0)
    ts = sequential.compute(member_columns, 120.0)
    for k, (b, s) in enumerate(zip(tb, ts)):
        for fld in ("du", "dv", "dt", "dq", "gsw", "glw", "precip",
                    "cloud_fraction", "shflx", "lhflx"):
            assert np.array_equal(getattr(b, fld), getattr(s, fld)), \
                f"member {k} field {fld} diverged"
    assert batched.fleet_calls == 1
    assert batched.columns_total == MEMBERS * NCOL
    assert sequential.member_calls == MEMBERS


def test_batched_report(suite, member_columns, emit_report):
    batched = BatchedPhysicsDriver([suite] * MEMBERS, batch=True)
    sequential = BatchedPhysicsDriver([suite] * MEMBERS, batch=False)
    t_batch, _ = _time_driver(batched, member_columns)
    t_seq, _ = _time_driver(sequential, member_columns)
    emit_report(
        "ensemble_batched_physics",
        "\n".join([
            banner("Ensemble — cross-member batched AI physics"),
            format_table(
                ["mode", "suite calls/step", "columns/call", "wall [ms]"],
                [("sequential", MEMBERS, NCOL, f"{t_seq * 1e3:.2f}"),
                 ("batched", 1, MEMBERS * NCOL, f"{t_batch * 1e3:.2f}")],
            ),
            f"\nmembers: {MEMBERS}, columns/member: {NCOL}, levels: {NLEV}",
            f"call reduction: {MEMBERS}x",
            f"batched speedup: {t_seq / t_batch:.2f}x (informational)",
            "bitwise identical to per-member inference: True",
        ]),
    )


def _bench_document():
    doc = PerfBaseline(suite="ensemble")
    cols = [
        synthetic_columns(NCOL, NLEV, season=k % 4, step=k, seed=k)
        for k in range(MEMBERS)
    ]
    archive = generate_training_archive(
        n_days=8, steps_per_day=4, ncol_per_step=8, nlev=NLEV
    )
    ai = AIPhysicsSuite.train(archive, epochs=2, width=16, lr=3e-3)

    # Deterministic batching arithmetic (gated): the whole point of the
    # driver is that these counts are machine-independent.
    batched = BatchedPhysicsDriver([ai] * MEMBERS, batch=True)
    sequential = BatchedPhysicsDriver([ai] * MEMBERS, batch=False)
    tb = batched.compute(cols, 120.0)
    ts = sequential.compute(cols, 120.0)
    bitwise = all(
        np.array_equal(b.dt, s.dt) and np.array_equal(b.gsw, s.gsw)
        for b, s in zip(tb, ts)
    )
    doc.record("batched.members", MEMBERS)
    doc.record("batched.fleet_calls_per_step", batched.fleet_calls)
    doc.record("batched.columns_per_call", batched.columns_total)
    doc.record("batched.call_reduction", sequential.member_calls / batched.fleet_calls)
    doc.record("batched.bitwise_identical", float(bitwise))

    # End-to-end session accounting on a miniature coupled ensemble
    # (gated): N members, lockstep, shared infrastructure.
    small = dict(atm_level=2, ocn_nlon=24, ocn_nlat=16, ocn_levels=4)
    ens = EnsembleRun(EnsembleConfig(
        base=AP3ESMConfig(**small),
        members=3, batch_physics=True,
    ))
    ens.init()
    t0 = time.perf_counter()
    ens.run_couplings(2)
    t_plain = time.perf_counter() - t0
    summary = ens.summary()
    bp = summary["batched_physics"]
    doc.record("session.members", len(ens.members))
    doc.record("session.fleet_steps", bp["fleet_steps"])
    doc.record("session.fleet_calls", bp["fleet_calls"])
    doc.record("session.columns_total", bp["columns_total"])
    plain_state = [np.asarray(m.atm.t_col).copy() for m in ens.members]
    ens.finalize()

    # Fleet-supervisor no-fault contract (gated): an armed supervisor
    # with nothing to do must be invisible — zero events, and every
    # member bitwise-identical to the unsupervised fleet above.  The
    # per-coupling wall overhead rides along informationally.
    from repro.resilience import ResilienceConfig

    armed = EnsembleRun(EnsembleConfig(
        base=AP3ESMConfig(resilience=ResilienceConfig(
            enabled=True, guard_physics=False, member_policy="quarantine",
        ), **small),
        members=3, batch_physics=True,
    ))
    armed.init()
    t0 = time.perf_counter()
    armed.run_couplings(2)
    t_armed = time.perf_counter() - t0
    supervised_bitwise = all(
        np.array_equal(np.asarray(m.atm.t_col), ref)
        for m, ref in zip(armed.members, plain_state)
    )
    doc.record("supervisor.armed_events", len(armed.supervisor.events))
    doc.record("supervisor.armed_faults_injected",
               armed.supervisor.faults_injected)
    doc.record("supervisor.fleet_alive", armed.supervisor.n_alive)
    doc.record("supervisor.armed_bitwise_identical", float(supervised_bitwise))
    doc.record("wall.supervisor_overhead", t_armed / t_plain, kind="wall",
               unit="x")
    armed.finalize()

    # Wall/speedup ride along informationally: the python-overhead
    # amortization is real but machine- and load-dependent at this size
    # (the speedup metric is kind="wall", so it never gates).
    t_batch, _ = _time_driver(batched, cols)
    t_seq, _ = _time_driver(sequential, cols)
    doc.record("wall.fleet_step_batched_ms", t_batch * 1e3, kind="wall", unit="ms")
    doc.record("wall.fleet_step_sequential_ms", t_seq * 1e3, kind="wall", unit="ms")
    doc.record("speedup.batched_vs_sequential", t_seq / t_batch, kind="wall",
               unit="x")
    return doc.stamp_host()


def test_emit_bench_ensemble_json(report_dir):
    """Emit BENCH_ensemble.json — the document the CI perf gate compares
    against benchmarks/baselines/BENCH_ensemble.json."""
    doc = _bench_document()
    emit(doc, report_dir)


def test_gate_against_committed_baseline():
    """The acceptance check the CI job runs: the fresh document must pass
    the 15 % gate against the committed baseline (the batching counts are
    deterministic, so any drift is a real behavior change)."""
    baseline_path = BASELINE_DIR / BENCH_JSON
    if not baseline_path.exists():
        pytest.skip("no committed baseline yet")
    doc = _bench_document()
    comparison = compare_baselines(
        doc, PerfBaseline.from_file(baseline_path), tolerance=0.15
    )
    print("\n" + comparison.report())
    assert comparison.ok, comparison.report()
