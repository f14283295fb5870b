"""Tests for the crash-safe scenario job service (``repro.serve``).

Covers the durable journal (torn tails, CRC damage, duplicated and
gapped suffixes, idempotent replay, snapshot rotation, flock
exclusivity), the job state machine and scheduler (dispatch, retry with
pinned jittered backoff, circuit breaker, backpressure, reaping and
stale-generation drops, deadlines, recovery), bitwise worker-kill
recovery, the chaos harness's inter-record kill sweep, the serve CLI
argument groups, and the zero-overhead rule (default CLI paths never
import ``repro.serve``).
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.esm import AP3ESMConfig, EnsembleConfig, EnsembleRun, first_difference, snapshot
from repro.resilience import (
    CheckpointError,
    CheckpointManager,
    FaultPlan,
    FaultPlanError,
    ResilienceConfig,
    RetryPolicy,
    ServiceFault,
    ServiceFaultInjector,
    WorkerKilled,
    corrupt_checkpoint,
)
from repro.serve import (
    JobDeadlineExceeded,
    JobRecord,
    JobScheduler,
    JobSpec,
    JobStore,
    ServeBackpressure,
    ServeConfig,
    ServeError,
)

SMALL = dict(atm_level=2, ocn_nlon=24, ocn_nlat=16, ocn_levels=4)

#: The frozen full-jitter sequence for RetryPolicy(backoff_s=1.0,
#: jitter_seed=7, max_backoff_s=4.0).delay(1..5) — drawn from the
#: deterministic ("retry.jitter", 7, n) streams, so any change to the
#: jitter derivation shows up as a diff here.
PINNED_JITTER = [0.164365, 1.726647, 0.04437, 1.052081, 3.880039]


def _small_config(**overrides) -> AP3ESMConfig:
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return AP3ESMConfig(**kwargs)


def _table(store: JobStore) -> dict:
    """The job table as plain data (what replay must reconstruct)."""
    return {job_id: rec.to_dict() for job_id, rec in store.jobs.items()}


def _replay_table(root) -> dict:
    with JobStore(root) as store:
        return _table(store)


def _dirs_equal(a: Path, b: Path) -> bool:
    fa = {p.relative_to(a).as_posix(): p.read_bytes()
          for p in sorted(Path(a).rglob("*")) if p.is_file()}
    fb = {p.relative_to(b).as_posix(): p.read_bytes()
          for p in sorted(Path(b).rglob("*")) if p.is_file()}
    return fa == fb


# -- specs -------------------------------------------------------------------


class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec("exp-1.a", couplings=4, config_delta={"precision": "mixed"},
                       members=2, perturb_seed=9, perturb_amplitude=1e-3,
                       batch_physics=True, max_attempts=2, deadline_s=60.0)
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown job spec keys"):
            JobSpec.from_dict({"job_id": "a", "walltime": 3})

    @pytest.mark.parametrize("kwargs", [
        dict(job_id="no spaces"),
        dict(job_id=""),
        dict(job_id="a", couplings=0),
        dict(job_id="a", couplings=True),
        dict(job_id="a", members=0),
        dict(job_id="a", config_delta={3: "x"}),
        dict(job_id="a", config_delta="precision=mixed"),
        dict(job_id="a", max_attempts=0),
        dict(job_id="a", deadline_s=0.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            JobSpec(**kwargs)

    def test_record_roundtrip(self):
        rec = JobRecord(spec=JobSpec("a"), state="completed", attempts=2,
                        failures=1, submitted_seq=3,
                        result={"restart_dir": "x"})
        assert JobRecord.from_dict(rec.to_dict()).to_dict() == rec.to_dict()
        assert rec.terminal
        assert not JobRecord(spec=JobSpec("a")).terminal


# -- the journal -------------------------------------------------------------


def _seed_store(root) -> Path:
    """A journal with a little history: 2 jobs, 6 records."""
    with JobStore(root) as s:
        s.submit(JobSpec("a", couplings=1))
        s.submit(JobSpec("b", couplings=1))
        s.update("a", "running", attempts=1)
        s.update("a", "completed", result={"couplings": 1})
        s.update("b", "running", attempts=1)
        s.update("b", "queued", failures=1, error="boom")
    return Path(root) / "journal.jsonl"


class TestJournal:
    def test_replay_roundtrip(self, tmp_path):
        _seed_store(tmp_path)
        with JobStore(tmp_path) as store:
            assert store.counts() == {"completed": 1, "queued": 1}
            assert store.jobs["a"].result == {"couplings": 1}
            assert store.jobs["b"].failures == 1
            assert store.jobs["b"].error == "boom"
            # Replaying again from the same bytes is idempotent.
            before = _table(store)
            store.replay()
            assert _table(store) == before

    def test_duplicate_submit_rejected(self, tmp_path):
        with JobStore(tmp_path) as store:
            store.submit(JobSpec("a"))
            with pytest.raises(ServeError, match="already exists"):
                store.submit(JobSpec("a"))

    def test_torn_tail_tolerated(self, tmp_path):
        journal = _seed_store(tmp_path)
        intact = _replay_table(tmp_path)
        with journal.open("a") as f:
            f.write('{"v": 1, "seq": 7, "crc": 1, "bo')  # cut mid-record
        assert _replay_table(tmp_path) == intact

    def test_crc_damage_stops_replay(self, tmp_path):
        journal = _seed_store(tmp_path)
        lines = journal.read_text().splitlines()
        # Flip the payload of the last record without fixing its CRC:
        # replay must stop there, keeping the 5-record prefix.
        rec = json.loads(lines[-1])
        rec["body"]["failures"] = 99
        journal.write_text("\n".join(lines[:-1] + [json.dumps(rec)]) + "\n")
        with JobStore(tmp_path) as store:
            assert store.jobs["b"].state == "running"  # record 6 ignored
            assert store.jobs["b"].failures == 0

    def test_seq_gap_stops_replay(self, tmp_path):
        journal = _seed_store(tmp_path)
        lines = journal.read_text().splitlines()
        del lines[3]  # drop seq 4: 5 and 6 are now an orphaned suffix
        journal.write_text("\n".join(lines) + "\n")
        with JobStore(tmp_path) as store:
            assert store.jobs["a"].state == "running"  # seq 3 applied
            assert store.jobs["b"].state == "queued"   # seq 5/6 never applied
            assert store.jobs["b"].attempts == 0

    def test_duplicated_suffix_idempotent(self, tmp_path):
        journal = _seed_store(tmp_path)
        intact = _replay_table(tmp_path)
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines + lines[-3:]) + "\n")
        assert _replay_table(tmp_path) == intact

    def test_replay_prefix_property(self, tmp_path):
        """Property-style sweep: for EVERY prefix of the journal, replay
        converges, is stable under re-replay, and is insensitive to a
        duplicated suffix — the three invariants a torn write plus a
        naive re-append can produce."""
        journal = _seed_store(tmp_path)
        lines = journal.read_text().splitlines()
        for n in range(len(lines) + 1):
            prefix_dir = tmp_path / f"prefix-{n}"
            prefix_dir.mkdir()
            (prefix_dir / "journal.jsonl").write_text(
                "\n".join(lines[:n]) + ("\n" if n else "")
            )
            once = _replay_table(prefix_dir)
            assert _replay_table(prefix_dir) == once  # stable
            for dup in range(1, min(n, 3) + 1):
                dup_dir = tmp_path / f"prefix-{n}-dup-{dup}"
                dup_dir.mkdir()
                (dup_dir / "journal.jsonl").write_text(
                    "\n".join(lines[:n] + lines[n - dup:n]) + "\n"
                )
                assert _replay_table(dup_dir) == once  # idempotent

    def test_rotation_compacts_to_snapshot(self, tmp_path):
        with JobStore(tmp_path, rotate_every=4) as store:
            store.submit(JobSpec("a"))
            store.submit(JobSpec("b"))
            store.update("a", "running", attempts=1)
            store.update("a", "completed", result={"couplings": 2})
            table = _table(store)
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["body"]["event"] == "snapshot"
        assert _replay_table(tmp_path) == table

    def test_flock_exclusive(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(ServeError, match="already owned"):
            JobStore(tmp_path)
        store.close()
        JobStore(tmp_path).close()  # released lock can be re-taken

    def test_update_defaults_to_current_counters(self, tmp_path):
        with JobStore(tmp_path) as store:
            store.submit(JobSpec("a"))
            store.update("a", "running", attempts=2, failures=1)
            store.update("a", "queued")  # counters carried forward
            assert store.jobs["a"].attempts == 2
            assert store.jobs["a"].failures == 1

    def test_fifo_order_and_depth(self, tmp_path):
        with JobStore(tmp_path) as store:
            for name in ("c", "a", "b"):
                store.submit(JobSpec(name))
            assert [r.spec.job_id for r in store.queued_jobs()] == \
                ["c", "a", "b"]
            store.update("c", "running")
            assert store.depth == 3
            store.update("c", "completed")
            assert store.depth == 2


# -- retry policy (satellite: seeded full jitter) ----------------------------


class TestRetryJitter:
    def test_pinned_jitter_sequence(self):
        policy = RetryPolicy(backoff_s=1.0, jitter_seed=7, max_backoff_s=4.0)
        assert [round(policy.delay(n), 6) for n in range(1, 6)] == \
            PINNED_JITTER
        # Deterministic: the same (seed, attempt) always redraws the same.
        assert policy.delay(3) == policy.delay(3)

    def test_defaults_byte_identical(self):
        """No cap, no jitter: delay is the exact uncapped exponential
        every pre-existing call site always got."""
        assert RetryPolicy().delay(2) == 0.0
        policy = RetryPolicy(backoff_s=0.5)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == [0.5, 1.0, 2.0, 4.0]

    def test_cap_without_jitter(self):
        policy = RetryPolicy(backoff_s=1.0, max_backoff_s=3.0)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == [1.0, 2.0, 3.0, 3.0]

    def test_jitter_stays_under_cap(self):
        policy = RetryPolicy(backoff_s=1.0, jitter_seed=123, max_backoff_s=2.0)
        assert all(0.0 <= policy.delay(n) <= 2.0 for n in range(1, 12))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_backoff_s=-1.0)


# -- service fault plans (satellite: worker_kill) ----------------------------


class TestServiceFaults:
    def test_roundtrip(self):
        plan = FaultPlan(seed=3, service=[
            ServiceFault(kind="worker_kill", coupling=1, job="job1"),
            ServiceFault(kind="worker_kill", coupling=0),
        ])
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert plan.n_faults == 2
        assert plan.without_members().service == plan.service

    def test_bad_kind_names_key(self):
        with pytest.raises(FaultPlanError, match=r"\$\.service\[0\]\.kind"):
            FaultPlan.from_dict({"service": [{"kind": "oom"}]})

    def test_bad_coupling_names_key(self):
        with pytest.raises(FaultPlanError, match=r"\$\.service\[0\]\.coupling"):
            FaultPlan.from_dict(
                {"service": [{"kind": "worker_kill", "coupling": -1}]}
            )

    def test_unknown_key_named(self):
        with pytest.raises(FaultPlanError, match=r"\$\.service\[0\]\.member"):
            FaultPlan.from_dict(
                {"service": [{"kind": "worker_kill", "member": 0}]}
            )

    def test_job_must_be_string(self):
        with pytest.raises(FaultPlanError, match=r"\$\.service\[0\]\.job"):
            FaultPlan.from_dict(
                {"service": [{"kind": "worker_kill", "job": 3}]}
            )

    def test_injector_one_shot_and_scoping(self):
        plan = FaultPlan(service=[
            ServiceFault(kind="worker_kill", coupling=1, job="a"),
        ])
        inj = ServiceFaultInjector(plan)
        inj.check("b", 1)  # other job: no fire
        inj.check("a", 0)  # other coupling: no fire
        with pytest.raises(WorkerKilled):
            inj.check("a", 1)
        inj.check("a", 1)  # one-shot: the resumed attempt survives
        assert inj.injected == 1

    def test_injector_job_wildcard(self):
        plan = FaultPlan(service=[ServiceFault(kind="worker_kill", coupling=0)])
        inj = ServiceFaultInjector(plan)
        with pytest.raises(WorkerKilled):
            inj.check("anything", 0)


# -- the scheduler (no model: admission, liveness, retry bookkeeping) --------


class _Clock:
    """An injectable monotonic clock the tests advance by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _scheduler(tmp_path, store, **kwargs):
    kwargs.setdefault("base_config", _small_config())
    kwargs.setdefault("work_dir", tmp_path / "work")
    return JobScheduler(store, **kwargs)


class TestSchedulerBookkeeping:
    def test_backpressure(self, tmp_path):
        with JobStore(tmp_path / "store") as store:
            sched = _scheduler(tmp_path, store,
                               config=ServeConfig(max_queue=1))
            sched.submit(JobSpec("a"))
            appends = store.appends
            with pytest.raises(ServeBackpressure) as exc:
                sched.submit(JobSpec("b"))
            assert exc.value.depth == 1 and exc.value.limit == 1
            assert store.appends == appends  # rejected spec never journaled
            assert "b" not in store.jobs

    def test_recover_requeues_running(self, tmp_path):
        with JobStore(tmp_path / "store") as store:
            store.submit(JobSpec("a"))
            store.submit(JobSpec("b"))
            store.update("a", "running", attempts=1)
        # "The previous service was SIGKILLed": a fresh one replays and
        # recovers — interrupted jobs requeue with no failure penalty.
        with JobStore(tmp_path / "store") as store:
            sched = _scheduler(tmp_path, store)
            assert sched.recover() == {"requeued": 1}
            assert store.jobs["a"].state == "queued"
            assert store.jobs["a"].failures == 0
            assert sched.recover() == {"requeued": 0}  # idempotent

    def test_reap_requeues_and_drops_stale_result(self, tmp_path):
        clock = _Clock()
        with JobStore(tmp_path / "store") as store:
            sched = _scheduler(
                tmp_path, store,
                config=ServeConfig(heartbeat_timeout_s=5.0), clock=clock,
            )
            sched.submit(JobSpec("a"))
            job_id = sched._claim()
            assert job_id == "a" and store.jobs["a"].state == "running"
            zombie_gen = sched._gen["a"]

            clock.t = 3.0
            assert sched.reap() == 0  # heartbeat still fresh
            clock.t = 10.0
            assert sched.reap() == 1  # stale: requeued, generation bumped
            assert store.jobs["a"].state == "queued"
            assert "a" not in sched.heartbeats

            # The zombie worker finally reports in — its generation is
            # stale, so the outcome is dropped, not double-journaled.
            appends = store.appends
            sched._completed("a", zombie_gen, {"restart_dir": "x"})
            assert store.jobs["a"].state == "queued"
            assert store.jobs["a"].result is None
            assert store.appends == appends

    def test_poisoned_spec_trips_circuit_breaker(self, tmp_path):
        """A bad config delta fails at run time, burns its attempts
        through the pinned jittered backoff, and lands in quarantine."""
        sleeps = []
        retry = RetryPolicy(backoff_s=1.0, jitter_seed=7, max_backoff_s=4.0)
        with JobStore(tmp_path / "store") as store:
            sched = _scheduler(
                tmp_path, store,
                config=ServeConfig(retry=retry), sleep=sleeps.append,
            )
            sched.submit(JobSpec("poisoned", max_attempts=3,
                                 config_delta={"no_such_field": 1}))
            counts = sched.run_until_idle()
        assert counts == {"quarantined": 1}
        rec = store.jobs["poisoned"]
        assert rec.attempts == 3 and rec.failures == 3
        assert "no_such_field" in rec.error
        assert [round(s, 6) for s in sleeps] == PINNED_JITTER[:2]
        kinds = [e["kind"] for e in sched.events]
        assert kinds.count("retry") == 2
        assert kinds[-1] == "quarantined"

    def test_single_attempt_spec_fails_not_quarantined(self, tmp_path):
        with JobStore(tmp_path / "store") as store:
            sched = _scheduler(tmp_path, store, sleep=lambda s: None)
            sched.submit(JobSpec("once", max_attempts=1,
                                 config_delta={"no_such_field": 1}))
            assert sched.run_until_idle() == {"failed": 1}
            assert store.jobs["once"].failures == 1

    def test_run_until_idle_bounded(self, tmp_path):
        with JobStore(tmp_path / "store") as store:
            sched = _scheduler(tmp_path, store, sleep=lambda s: None)
            sched.submit(JobSpec("p", max_attempts=5,
                                 config_delta={"no_such_field": 1}))
            sched.run_until_idle(max_attempts=2)
            assert store.jobs["p"].state == "queued"
            assert store.jobs["p"].failures == 2

    def test_mode_guards(self, tmp_path):
        with JobStore(tmp_path / "store") as store:
            inline = _scheduler(tmp_path, store)
            with pytest.raises(ServeError, match="threads"):
                inline.start()
        with pytest.raises(ValueError, match="unknown mode"):
            ServeConfig(mode="fork")

    @pytest.mark.parametrize("field", ["checkpoint_every", "checkpoint_keep"])
    def test_checkpoint_rotation_must_be_positive(self, field):
        """A zero rotation is the service's own misconfiguration: it is
        refused up front, not blamed on (and quarantining) every job."""
        with pytest.raises(ValueError, match=field):
            ServeConfig(**{field: 0})


# -- the scheduler driving real jobs -----------------------------------------


class TestSchedulerRuns:
    def test_job_completes_and_publishes(self, tmp_path):
        events = []
        with JobStore(tmp_path / "store") as store:
            sched = _scheduler(tmp_path, store, on_event=events.append)
            sched.submit(JobSpec("demo", couplings=2, perturb_amplitude=1e-3))
            assert sched.run_until_idle() == {"completed": 1}
            rec = store.jobs["demo"]
        published = Path(rec.result["restart_dir"])
        assert published == tmp_path / "work" / "jobs" / "demo" / "restart"
        assert (published / "atm").is_dir()
        assert rec.result["couplings"] == 2
        assert rec.result["adopted"] is False
        assert [e["kind"] for e in events] == \
            ["submitted", "start", "completed"]
        # Restarting the service finds nothing to do — and a redispatch
        # of the same spec ADOPTS the published set instead of re-running.
        with JobStore(tmp_path / "store") as store:
            sched = _scheduler(tmp_path, store)
            sched.recover()
            assert sched.run_until_idle() == {"completed": 1}
            assert sched.runner.run(JobSpec("demo", couplings=2))["adopted"]

    def test_deadline_burns_an_attempt(self, tmp_path):
        clock = _Clock()

        def ticking() -> float:
            clock.t += 10.0
            return clock.t

        with JobStore(tmp_path / "store") as store:
            sched = _scheduler(tmp_path, store, clock=ticking,
                               sleep=lambda s: None)
            sched.submit(JobSpec("slow", couplings=2, max_attempts=1,
                                 deadline_s=5.0))
            assert sched.run_until_idle() == {"failed": 1}
            assert "deadline" in store.jobs["slow"].error

    def test_worker_kill_recovery_is_bitwise(self, tmp_path):
        """The supervision headline at unit scale: a worker killed
        mid-job is requeued, the retry resumes from the rotation, and
        the published restart set is bitwise identical to a never-killed
        twin's."""
        spec = JobSpec("exp", couplings=3, perturb_amplitude=1e-3)
        cfg = ServeConfig(checkpoint_every=1)

        with JobStore(tmp_path / "twin-store") as store:
            twin = JobScheduler(store, _small_config(),
                                tmp_path / "twin-work", cfg)
            twin.submit(spec)
            assert twin.run_until_idle() == {"completed": 1}

        plan = FaultPlan(service=[
            ServiceFault(kind="worker_kill", coupling=2, job="exp"),
        ])
        with JobStore(tmp_path / "hurt-store") as store:
            hurt = JobScheduler(store, _small_config(),
                                tmp_path / "hurt-work", cfg, fault_plan=plan)
            hurt.submit(spec)
            assert hurt.run_until_idle() == {"completed": 1}
            rec = store.jobs["exp"]
        assert rec.attempts == 2 and rec.failures == 0  # interruption != failure
        kinds = [e["kind"] for e in hurt.events]
        assert "interrupted" in kinds
        assert hurt.injector.injected == 1
        assert _dirs_equal(tmp_path / "twin-work" / "jobs" / "exp" / "restart",
                           tmp_path / "hurt-work" / "jobs" / "exp" / "restart")

    def test_threads_mode_drains_pool(self, tmp_path):
        specs = [JobSpec(f"j{k}", couplings=1) for k in range(3)]
        with JobStore(tmp_path / "store") as store:
            sched = _scheduler(
                tmp_path, store,
                config=ServeConfig(mode="threads", workers=2,
                                   checkpoint_every=1),
            )
            for spec in specs:
                sched.submit(spec)
            sched.start()
            assert sched.join() == {"completed": 3}
        for spec in specs:
            assert (tmp_path / "work" / "jobs" / spec.job_id /
                    "restart" / "atm").is_dir()


# -- the chaos kill sweep (the PR's acceptance headline) ---------------------


class TestServiceKillSweep:
    def test_sigkill_between_every_journal_record(self, tmp_path):
        """run_chaos's service stage: SIGKILL the service before AND
        after every journal append, restart it, and demand every job
        completes exactly once with a bitwise-identical restart set."""
        from repro.resilience.chaos import run_chaos

        plan = FaultPlan(seed=0, service=[
            ServiceFault(kind="worker_kill", coupling=1, job="job1"),
        ])
        config = _small_config(
            resilience=ResilienceConfig(enabled=True, guard_physics=False)
        )
        report = run_chaos(plan, config=config, couplings=2)
        assert report.service_jobs == 2
        assert report.service_journal_records >= 6
        # Both instants around every record were actually killed at.
        assert report.service_crash_points == \
            2 * report.service_journal_records
        assert report.service_bitwise is True
        assert report.service_exactly_once is True
        assert report.survived
        assert "exactly once" in report.summary()
        assert report.counters["serve.interruptions"] >= 1
        assert report.counters["serve.resumes"] >= 1
        assert report.counters["serve.adopted"] >= 1


# -- checkpoint manager (satellite: inter-process lock + latest) -------------


def _ckpt_writer(root: str, steps) -> None:
    mgr = CheckpointManager(root, keep=3)
    for step in steps:
        payload = (f"step={step}\n" * 64).encode()
        mgr.to_file(lambda d, p=payload: (d / "state.bin").write_bytes(p),
                    step)


class TestCheckpointConcurrency:
    def test_latest(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        assert mgr.latest() is None
        mgr.to_file(lambda d: (d / "state.bin").write_bytes(b"x"), 4)
        mgr.to_file(lambda d: (d / "state.bin").write_bytes(b"y"), 7)
        assert mgr.latest().name == "ckpt-00000007"
        assert mgr.step_of(mgr.latest()) == 7

    def test_two_concurrent_writers_cannot_shred_the_rotation(self, tmp_path):
        """Regression for the unlocked rotation: two writers sharing one
        directory used to interleave rename/rmtree and leave truncated
        or half-pruned sets.  Under the flock every surviving checkpoint
        must validate and the staging area must be clean."""
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_ckpt_writer,
                        args=(str(tmp_path), range(k, 20, 2)))
            for k in (0, 1)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        mgr = CheckpointManager(tmp_path, keep=3)
        survivors = mgr.checkpoints()
        assert 1 <= len(survivors) <= 3
        for ckpt in survivors:
            mgr.validate(ckpt)  # every published set is whole
        assert mgr.latest_valid() is not None
        assert not list(tmp_path.glob(".tmp-*"))  # no staging junk


# -- ensemble serve adapters -------------------------------------------------


class TestEnsembleRecovery:
    def test_checkpoint_and_recover_to_common_step(self, tmp_path):
        base = _small_config(resilience=ResilienceConfig(
            enabled=True, guard_physics=False, checkpoint_every=2,
            checkpoint_dir=str(tmp_path / "ck"),
        ))
        ens = EnsembleRun(EnsembleConfig(base=base, members=2,
                                         perturb_amplitude=1e-3))
        ens.init()
        try:
            assert ens.has_checkpoint() is False
            ens.run_couplings(2)
            ens.checkpoint()
            assert ens.has_checkpoint() is True
            saved = snapshot(ens)
            ens.run_couplings(2)
            ens.checkpoint()
            # Member 0's newest set is damaged: the fleet must fall back
            # to the newest step valid in EVERY member — coupling 2.
            newest = sorted((tmp_path / "ck" / "member0").glob("ckpt-*"))[-1]
            corrupt_checkpoint(newest, "bitflip")
            assert ens.recover() == 2
            assert ens.n_couplings == 2
            assert first_difference(snapshot(ens), saved) is None
        finally:
            ens.finalize()

    def test_recover_without_common_step_raises(self, tmp_path):
        base = _small_config(resilience=ResilienceConfig(
            enabled=True, guard_physics=False, checkpoint_every=2,
            checkpoint_dir=str(tmp_path / "ck"),
        ))
        ens = EnsembleRun(EnsembleConfig(base=base, members=2))
        ens.init()
        try:
            ens.run_couplings(2)
            ens.checkpoint()
            newest = sorted((tmp_path / "ck" / "member1").glob("ckpt-*"))[-1]
            corrupt_checkpoint(newest, "truncate")
            with pytest.raises(CheckpointError, match="every member"):
                ens.recover()
        finally:
            ens.finalize()


# -- CLI ---------------------------------------------------------------------


class TestServeCLI:
    def _groups(self, command):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        cmd = sub.choices[command]
        groups = {}
        for g in cmd._action_groups:
            opts = sorted(s for a in g._group_actions
                          for s in a.option_strings)
            if opts:
                groups[g.title] = opts
        return groups

    def test_submit_group_snapshot(self):
        groups = self._groups("submit")
        assert set(groups) >= {"job store", "job spec"}
        assert groups["job store"] == ["--store"]
        assert groups["job spec"] == [
            "--batch-physics", "--couplings", "--deadline-s", "--delta",
            "--job-id", "--max-attempts", "--members",
            "--perturb-amplitude", "--perturb-seed",
        ]

    def test_run_jobs_group_snapshot(self):
        groups = self._groups("run-jobs")
        assert set(groups) >= {"job store", "scheduler", "base model"}
        assert groups["job store"] == ["--store"]
        assert groups["scheduler"] == [
            "--checkpoint-every", "--checkpoint-keep", "--faults",
            "--heartbeat-timeout-s", "--max-queue", "--threads",
            "--work-dir", "--workers",
        ]
        assert groups["base model"] == [
            "--atm-level", "--ocn-levels", "--ocn-nlat", "--ocn-nlon",
            "--precision",
        ]

    def test_submit_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["submit", "--store", "st", "--job-id", "a"]
        )
        assert (args.couplings, args.members, args.max_attempts) == (2, 1, 3)
        assert args.delta == [] and args.deadline_s is None
        assert args.perturb_amplitude == 0.0
        assert args.batch_physics is False

    def test_run_jobs_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run-jobs", "--store", "st", "--work-dir", "wk"]
        )
        assert (args.workers, args.max_queue) == (2, 64)
        assert args.heartbeat_timeout_s == 30.0
        assert (args.checkpoint_every, args.checkpoint_keep) == (2, 3)
        assert args.threads is False and args.faults is None

    def test_delta_parsing(self):
        from repro.cli import _parse_delta

        assert _parse_delta(
            ["atm_level=4", "precision=mixed", "dt_atm=120.5", "x=true"]
        ) == {"atm_level": 4, "precision": "mixed", "dt_atm": 120.5,
              "x": True}
        with pytest.raises(SystemExit, match="KEY=VALUE"):
            _parse_delta(["atm_level"])

    def test_submit_then_run_jobs_main(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        assert main(["submit", "--store", store, "--job-id", "demo",
                     "--couplings", "1", "--perturb-amplitude", "1e-3",
                     "--delta", "precision=mixed"]) == 0
        out = capsys.readouterr().out
        assert "queued" in out and "demo" in out
        assert main(["run-jobs", "--store", store,
                     "--work-dir", str(tmp_path / "work"),
                     "--checkpoint-every", "1",
                     "--atm-level", "2", "--ocn-nlon", "24",
                     "--ocn-nlat", "16", "--ocn-levels", "4"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert (tmp_path / "work" / "jobs" / "demo" / "restart").is_dir()

    def test_run_jobs_exit_code_on_quarantine(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        assert main(["submit", "--store", store, "--job-id", "bad",
                     "--max-attempts", "2",
                     "--delta", "no_such_field=1"]) == 0
        assert main(["run-jobs", "--store", store,
                     "--work-dir", str(tmp_path / "work"),
                     "--atm-level", "2", "--ocn-nlon", "24",
                     "--ocn-nlat", "16", "--ocn-levels", "4"]) == 1
        assert "quarantined" in capsys.readouterr().out


# -- the zero-overhead rule --------------------------------------------------


class TestZeroOverhead:
    def test_default_paths_never_import_serve(self):
        """run-coupled / run-ensemble users pay nothing for the service:
        importing the CLI and the model layers must not pull repro.serve
        (its import is lazy, inside the submit/run-jobs handlers)."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import sys\n"
            "import repro.cli, repro.esm, repro.resilience\n"
            "mods = [m for m in sys.modules if m.startswith('repro.serve')]\n"
            "assert not mods, mods\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
