"""Ensemble runtime: cross-member batched AI physics.

Measures the multi-instance session layer's centerpiece: stacking every
member's physics columns into ONE suite call (one GEMM serves the
fleet) instead of N per-member calls.  The contract under test is
two-fold — the batched result must be *bitwise identical* to per-member
inference, and the call count must collapse by exactly the member count.

The call/column accounting of the batched driver and of a miniature
coupled ensemble is machine-independent and pinned exactly; wall times,
the batched-vs-sequential speedup and the armed supervisor's overhead are
printed in the report only (python-overhead amortization is
machine-dependent and noisy at this miniature problem size).
"""

import time

import numpy as np
import pytest

from repro.atm import AIPhysicsSuite, generate_training_archive, synthetic_columns
from repro.bench import banner, format_table
from repro.esm import (
    AP3ESMConfig,
    BatchedPhysicsDriver,
    EnsembleConfig,
    EnsembleRun,
    first_difference,
    snapshot,
)
from repro.resilience import ResilienceConfig

SMALL = dict(atm_level=2, ocn_nlon=24, ocn_nlat=16, ocn_levels=4)
FLEET = 3
FLEET_COUPLINGS = 2
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
    assert len(tb) == 8
    assert batched.fleet_calls == 1
    assert batched.columns_total == 384
    assert sequential.member_calls / batched.fleet_calls == 8


def _run_fleet(**config):
    """(ensemble, wall seconds) of FLEET batched members over FLEET_COUPLINGS
    couplings; the caller finalizes."""
    ens = EnsembleRun(EnsembleConfig(
        base=AP3ESMConfig(**config, **SMALL),
        members=FLEET, batch_physics=True,
    ))
    ens.init()
    t0 = time.perf_counter()
    ens.run_couplings(FLEET_COUPLINGS)
    return ens, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fleets():
    """A plain fleet and one with an armed supervisor that has nothing to
    do; their counts, whether they are twins, and the armed wall overhead."""
    plain, t_plain = _run_fleet()
    summary = plain.summary()["batched_physics"]
    plain_state = snapshot(plain)
    plain_members = len(plain.members)
    plain.finalize()
    armed, t_armed = _run_fleet(resilience=ResilienceConfig(
        enabled=True, guard_physics=False, member_policy="quarantine",
    ))
    sup = armed.supervisor
    out = dict(
        members=plain_members, batched=summary,
        events=len(sup.events), faults_injected=sup.faults_injected,
        alive=sup.n_alive, difference=first_difference(plain_state, snapshot(armed)),
        overhead=t_armed / t_plain,
    )
    armed.finalize()
    return out


def test_fleet_session_accounting(fleets):
    """Lockstep session accounting: one stacked call per fleet step."""
    bp = fleets["batched"]
    assert fleets["members"] == 3
    assert bp["fleet_steps"] == 2
    assert bp["fleet_calls"] == 2
    assert bp["columns_total"] == 972


def test_armed_supervisor_is_invisible(fleets):
    """An armed supervisor with nothing to do records no event, injects no
    fault, keeps every member and leaves the fleet bitwise unchanged."""
    assert fleets["events"] == 0
    assert fleets["faults_injected"] == 0
    assert fleets["alive"] == 3
    assert fleets["difference"] is None, fleets["difference"]


def test_batched_report(suite, member_columns, fleets, emit_report):
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
            f"armed supervisor overhead ({FLEET}-member coupled fleet): "
            f"{fleets['overhead']:.2f}x (informational)",
        ]),
    )
