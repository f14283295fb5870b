"""Scenario job service: journal accounting and kill-recovery contracts.

Measures the ``repro.serve`` stack at benchmark scale: the journal's
per-job record accounting (deterministic — every state transition is
exactly one append), the worker-kill recovery contract (a killed and
resumed job publishes a restart set bitwise-identical to a never-killed
twin's, costing one extra dispatch and zero failures), and the journal's
append/replay throughput.

Emits ``BENCH_serve.json``: the record counts and recovery flags are
machine-independent and gated by the CI perf gate; journal throughput
and job wall times ride along informationally.
"""

import json
import time
from pathlib import Path

import pytest

from repro.bench import PerfBaseline, banner, compare_baselines, emit, format_table
from repro.esm import AP3ESMConfig
from repro.resilience import FaultPlan, ServiceFault
from repro.serve import JobScheduler, JobSpec, JobStore, ServeConfig

BENCH_JSON = "BENCH_serve.json"
BASELINE_DIR = Path(__file__).parent / "baselines"

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


def _bench_document(base: Path) -> PerfBaseline:
    doc = PerfBaseline(suite="serve")

    # Deterministic journal accounting (gated): one record per
    # transition means the twin's journal length is pure arithmetic —
    # submit + running + completed per job.
    twin, t_twin = _run_service(base / "twin")
    doc.record("service.jobs", len(SPECS))
    doc.record("service.twin_journal_records", twin.store.appends)
    doc.record("service.twin_records_per_job",
               twin.store.appends / len(SPECS))

    # Kill-recovery contract (gated): the worker_kill costs exactly one
    # interruption + one redispatch, zero failures, and the published
    # restart sets stay bitwise-identical to the twin's.
    hurt, t_hurt = _run_service(base / "hurt", plan=KILL_PLAN)
    bitwise = all(
        _dir_bytes(hurt.runner.published_dir(s.job_id))
        == _dir_bytes(twin.runner.published_dir(s.job_id))
        for s in SPECS
    )
    done = _completed_counts(hurt.store.path)
    doc.record("recovery.faults_injected", hurt.injector.injected)
    doc.record("recovery.interruption_records",
               hurt.store.appends - twin.store.appends)
    doc.record("recovery.failures",
               sum(r.failures for r in hurt.store.jobs.values()))
    doc.record("recovery.kill_recovery_bitwise", float(bitwise))
    doc.record("recovery.completed_exactly_once",
               float(all(done.get(s.job_id) == 1 for s in SPECS)))

    # Journal rotation arithmetic (gated) + throughput (informational).
    appends, jobs, t_append, t_replay = _journal_throughput(base / "journal")
    doc.record("journal.appends", appends)
    doc.record("journal.jobs_reconstructed", jobs)
    doc.record("wall.journal_append_us",
               t_append / appends * 1e6, kind="wall", unit="us")
    doc.record("wall.journal_replay_ms", t_replay * 1e3, kind="wall",
               unit="ms")
    doc.record("wall.twin_run_s", t_twin, kind="wall", unit="s")
    doc.record("wall.kill_recovery_overhead", t_hurt / t_twin, kind="wall",
               unit="x")
    return doc.stamp_host()


@pytest.fixture(scope="module")
def doc(tmp_path_factory):
    return _bench_document(tmp_path_factory.mktemp("bench-serve"))


def test_kill_recovery_contract(doc):
    """The acceptance contract: recovery is bitwise, exactly-once, and
    costs interruptions — never failures."""
    m = doc.metrics
    assert m["recovery.kill_recovery_bitwise"]["value"] == 1.0
    assert m["recovery.completed_exactly_once"]["value"] == 1.0
    assert m["recovery.failures"]["value"] == 0.0
    assert m["recovery.faults_injected"]["value"] == 1.0


def test_serve_report(doc, emit_report):
    m = {k: v["value"] for k, v in doc.metrics.items()}
    emit_report(
        "serve_kill_recovery",
        "\n".join([
            banner("Scenario service — journal + kill recovery"),
            format_table(
                ["metric", "value"],
                [("jobs", int(m["service.jobs"])),
                 ("twin journal records", int(m["service.twin_journal_records"])),
                 ("interruption records", int(m["recovery.interruption_records"])),
                 ("failures after worker kill", int(m["recovery.failures"])),
                 ("kill recovery bitwise", bool(m["recovery.kill_recovery_bitwise"])),
                 ("completed exactly once", bool(m["recovery.completed_exactly_once"])),
                 ("journal append [us]", f"{m['wall.journal_append_us']:.1f}"),
                 ("journal replay [ms]", f"{m['wall.journal_replay_ms']:.2f}")],
            ),
            f"\nrecovery wall overhead: {m['wall.kill_recovery_overhead']:.2f}x "
            "(informational)",
        ]),
    )


def test_emit_bench_serve_json(doc, report_dir):
    """Emit BENCH_serve.json — the document the CI perf gate compares
    against benchmarks/baselines/BENCH_serve.json."""
    emit(doc, report_dir)


def test_gate_against_committed_baseline(doc):
    """The acceptance check the CI job runs: the record counts are
    deterministic, so any drift against the committed baseline is a real
    behavior change."""
    baseline_path = BASELINE_DIR / BENCH_JSON
    if not baseline_path.exists():
        pytest.skip("no committed baseline yet")
    comparison = compare_baselines(
        doc, PerfBaseline.from_file(baseline_path), tolerance=0.15
    )
    print("\n" + comparison.report())
    assert comparison.ok, comparison.report()
