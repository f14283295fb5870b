"""Scenario job service: journal accounting and kill-recovery contracts.

Measures the ``repro.serve`` stack at benchmark scale: the journal's
per-job record accounting (deterministic — every state transition is
exactly one append), the worker-kill recovery contract (a killed and
resumed job publishes a restart set bitwise-identical to a never-killed
twin's, costing one extra dispatch and zero failures), and the journal's
append/replay throughput.

The record counts and recovery flags are machine-independent and pinned
exactly; journal throughput and job wall times are printed in the report
only.
"""

import json
import time
from pathlib import Path

import pytest

from repro.bench import banner, format_table
from repro.esm import AP3ESMConfig
from repro.resilience import FaultPlan, ServiceFault
from repro.serve import JobScheduler, JobSpec, JobStore, ServeConfig

SMALL = dict(atm_level=2, ocn_nlon=24, ocn_nlat=16, ocn_levels=4)
COUPLINGS = 2
JOURNAL_APPENDS = 400
ROTATE_EVERY = 100

SPECS = [
    JobSpec("job0", couplings=COUPLINGS, perturb_amplitude=1e-3),
    JobSpec("job1", couplings=COUPLINGS, perturb_seed=1,
            perturb_amplitude=1e-3),
]

KILL_PLAN = FaultPlan(service=[
    ServiceFault(kind="worker_kill", coupling=1, job="job1"),
])


def _run_service(root: Path, plan=None):
    """One service lifetime over SPECS; returns (scheduler, wall_s)."""
    with JobStore(root / "store") as store:
        sched = JobScheduler(
            store, AP3ESMConfig(**SMALL), root / "work",
            ServeConfig(checkpoint_every=1), fault_plan=plan,
        )
        for spec in SPECS:
            sched.submit(spec)
        t0 = time.perf_counter()
        counts = sched.run_until_idle()
        wall = time.perf_counter() - t0
    assert counts == {"completed": len(SPECS)}, counts
    return sched, wall


def _dir_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _completed_counts(journal: Path) -> dict:
    done: dict = {}
    for line in journal.read_text().splitlines():
        body = json.loads(line)["body"]
        if body.get("event") == "state" and body.get("state") == "completed":
            done[body["job_id"]] = done.get(body["job_id"], 0) + 1
    return done


def _journal_throughput(root: Path):
    """Append and replay walls for a journal of JOURNAL_APPENDS records."""
    with JobStore(root, rotate_every=ROTATE_EVERY) as store:
        t0 = time.perf_counter()
        for k in range(JOURNAL_APPENDS // 2):
            store.submit(JobSpec(f"j{k}", couplings=1))
        for k in range(JOURNAL_APPENDS // 2):
            store.update(f"j{k}", "completed", result={"couplings": 1})
        t_append = time.perf_counter() - t0
        appends = store.appends
    t0 = time.perf_counter()
    with JobStore(root, rotate_every=ROTATE_EVERY) as store:
        t_replay = time.perf_counter() - t0
        jobs = len(store.jobs)
    return appends, jobs, t_append, t_replay


def _measure(base: Path) -> dict:
    """Every measured quantity of the suite, by name."""
    m = {}

    # Journal accounting: one record per transition means the twin's
    # journal length is pure arithmetic — submit + running + completed
    # per job.
    twin, t_twin = _run_service(base / "twin")
    m["service.jobs"] = len(SPECS)
    m["service.twin_journal_records"] = twin.store.appends
    m["service.twin_records_per_job"] = twin.store.appends / len(SPECS)

    # Kill-recovery contract: the worker_kill costs exactly one
    # interruption + one redispatch, zero failures, and the published
    # restart sets stay bitwise-identical to the twin's.
    hurt, t_hurt = _run_service(base / "hurt", plan=KILL_PLAN)
    done = _completed_counts(hurt.store.path)
    m["recovery.faults_injected"] = hurt.injector.injected
    m["recovery.interruption_records"] = hurt.store.appends - twin.store.appends
    m["recovery.failures"] = sum(r.failures for r in hurt.store.jobs.values())
    m["recovery.kill_recovery_bitwise"] = all(
        _dir_bytes(hurt.runner.published_dir(s.job_id))
        == _dir_bytes(twin.runner.published_dir(s.job_id))
        for s in SPECS
    )
    m["recovery.completed_exactly_once"] = all(
        done.get(s.job_id) == 1 for s in SPECS
    )

    # Journal rotation arithmetic + throughput (walls: report only).
    appends, jobs, t_append, t_replay = _journal_throughput(base / "journal")
    m["journal.appends"] = appends
    m["journal.jobs_reconstructed"] = jobs
    m["wall.journal_append_us"] = t_append / appends * 1e6
    m["wall.journal_replay_ms"] = t_replay * 1e3
    m["wall.twin_run_s"] = t_twin
    m["wall.kill_recovery_overhead"] = t_hurt / t_twin
    return m


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    return _measure(tmp_path_factory.mktemp("bench-serve"))


def test_kill_recovery_contract(measured):
    """The acceptance contract: recovery is bitwise, exactly-once, and
    costs interruptions — never failures."""
    m = measured
    assert m["recovery.kill_recovery_bitwise"] is True
    assert m["recovery.completed_exactly_once"] is True
    assert m["recovery.failures"] == 0
    assert m["recovery.faults_injected"] == 1
    assert m["recovery.interruption_records"] == 2


def test_journal_accounting(measured):
    """Three records per job, and a rotated journal of 400 appends replays
    into all 200 jobs."""
    m = measured
    assert m["service.jobs"] == 2
    assert m["service.twin_journal_records"] == 6
    assert m["service.twin_records_per_job"] == 3
    assert m["journal.appends"] == 400
    assert m["journal.jobs_reconstructed"] == 200


def test_serve_report(measured, emit_report):
    m = measured
    emit_report(
        "serve_kill_recovery",
        "\n".join([
            banner("Scenario service — journal + kill recovery"),
            format_table(
                ["metric", "value"],
                [("jobs", m["service.jobs"]),
                 ("twin journal records", m["service.twin_journal_records"]),
                 ("interruption records", m["recovery.interruption_records"]),
                 ("failures after worker kill", m["recovery.failures"]),
                 ("kill recovery bitwise", m["recovery.kill_recovery_bitwise"]),
                 ("completed exactly once", m["recovery.completed_exactly_once"]),
                 ("journal append [us]", f"{m['wall.journal_append_us']:.1f}"),
                 ("journal replay [ms]", f"{m['wall.journal_replay_ms']:.2f}"),
                 ("twin run [s]", f"{m['wall.twin_run_s']:.2f}")],
            ),
            f"\nrecovery wall overhead: {m['wall.kill_recovery_overhead']:.2f}x "
            "(informational)",
        ]),
    )
