"""Tests for the fault-injection + resilience subsystem.

Covers the contracts the chaos harness relies on: deterministic fault
plans, retried transient sends that stay bit-identical, structured
timeout/kill diagnostics, checksummed rotating checkpoints that fall
back past corruption, the per-column physics guardrail, the task-domain
watchdog — and that all of it costs nothing when disabled.
"""

import json
import threading

import numpy as np
import pytest

from repro.coupler import AttrVect, GlobalSegMap, Rearranger, Router
from repro.io.restart import RestartError, load_restart, save_restart
from repro.esm import AP3ESMConfig, first_difference, snapshot
from repro.obs import NULL_OBS, Obs
from repro.parallel import (
    CommTimeoutError,
    CommTransientError,
    RankFailure,
    SimWorld,
)
from repro.resilience import (
    CheckpointError,
    CheckpointFault,
    CheckpointManager,
    CommFault,
    CommFaultInjector,
    FaultPlan,
    GuardedPhysics,
    PhysicsFault,
    PhysicsFaultInjector,
    ResilienceConfig,
    RetryPolicy,
    WatchdogTimeout,
    corrupt_checkpoint,
    retry_with_backoff,
)
from repro.serve import JobRunner, JobSpec


# -- fault plans -------------------------------------------------------------


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            seed=42,
            comm=[CommFault(kind="transient", src=0, dst=1, times=2),
                  CommFault(kind="kill", rank=2, after_ops=5)],
            checkpoints=[CheckpointFault(kind="truncate", index=-1)],
            physics=[PhysicsFault(kind="nan", step=3, columns=(1, 5))],
            crash_at_coupling=4,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert plan.n_faults == 4

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"seed": 9, "physics": '
                        '[{"kind": "blowup", "step": 2, "n_columns": 3}]}')
        plan = FaultPlan.from_file(path)
        assert plan.seed == 9
        assert plan.physics[0].kind == "blowup"

    def test_unknown_keys_and_kinds_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"bogus": 1})
        with pytest.raises(ValueError, match="comm fault kind"):
            CommFault(kind="meteor")
        with pytest.raises(ValueError, match="checkpoint fault kind"):
            CheckpointFault(kind="meteor")
        with pytest.raises(ValueError, match="physics fault kind"):
            PhysicsFault(kind="meteor", step=0, n_columns=1)


# -- comm faults through the rearranger --------------------------------------


def _mirror_transfer(n_ranks=4, per_rank=4, faults=None, obs=None, **knobs):
    """Run a p2p rearrangement between block and reversed-block
    decompositions; returns per-rank output arrays."""
    src = GlobalSegMap.from_owners(np.repeat(np.arange(n_ranks), per_rank))
    dst = GlobalSegMap.from_owners(
        np.repeat(np.arange(n_ranks)[::-1], per_rank))
    router = Router.build(src, dst)
    gfield = np.arange(float(n_ranks * per_rank))
    rearranger = Rearranger(router, method="p2p", **knobs)
    world = SimWorld(n_ranks, timeout=5.0, faults=faults)

    def program(comm):
        av = AttrVect.from_dict({"f": gfield[src.local_indices(comm.rank)]})
        out = rearranger.rearrange(
            comm, av, len(dst.local_indices(comm.rank)),
            obs=obs.fork(comm.rank) if obs is not None else NULL_OBS,
        )
        return out.data.copy()

    return world.run(program), world


class TestCommFaults:
    def test_transient_retry_is_bit_identical(self):
        plan = FaultPlan(comm=[
            CommFault(kind="transient", src=0, dst=3, match=0, times=2)])
        obs = Obs()
        clean, _ = _mirror_transfer()
        faulted, _ = _mirror_transfer(
            faults=CommFaultInjector(plan, obs=obs), obs=obs,
            max_retries=3)
        for a, b in zip(faulted, clean):
            assert np.array_equal(a, b)
        totals = {}
        for h in obs.all_ranks():
            for name in h.metrics.names():
                m = h.metrics.get(name)
                if m.kind == "counter":
                    totals[name] = totals.get(name, 0) + m.value
        assert totals["resilience.retries"] == 2
        assert totals["resilience.faults_injected"] == 2

    def test_transient_beyond_budget_surfaces(self):
        plan = FaultPlan(comm=[
            CommFault(kind="transient", src=0, dst=3, times=5)])
        with pytest.raises(RuntimeError) as err:
            _mirror_transfer(faults=CommFaultInjector(plan), max_retries=1)
        assert isinstance(err.value.__cause__, CommTransientError)

    def test_drop_surfaces_structured_timeout(self):
        plan = FaultPlan(comm=[CommFault(kind="drop", src=1, dst=2)])
        with pytest.raises(RuntimeError) as err:
            _mirror_transfer(faults=CommFaultInjector(plan),
                             recv_timeout=0.4)
        cause = err.value.__cause__
        assert isinstance(cause, CommTimeoutError)
        assert (cause.src, cause.dst) == (1, 2)
        assert cause.tag == 7300
        assert cause.timeout == 0.4

    def test_kill_surfaces_as_root_cause(self):
        plan = FaultPlan(comm=[CommFault(kind="kill", rank=2, after_ops=0)])
        with pytest.raises(RuntimeError) as err:
            _mirror_transfer(faults=CommFaultInjector(plan),
                             recv_timeout=0.4)
        # Peers see timeouts/broken barriers; the killed rank must win.
        cause = err.value.__cause__
        assert isinstance(cause, RankFailure)
        assert cause.rank == 2

    def test_corrupt_flips_exactly_one_bit(self):
        plan = FaultPlan(seed=5, comm=[
            CommFault(kind="corrupt", src=0, dst=3)])
        clean, _ = _mirror_transfer()
        faulted, _ = _mirror_transfer(faults=CommFaultInjector(plan))
        diff = [int((a != b).sum()) for a, b in zip(faulted, clean)]
        assert sum(diff) == 1  # one element of one rank's output changed

    def test_no_injector_no_extra_messages(self):
        """Resilience knobs armed but no faults installed: same bits,
        same ledger traffic as the pre-resilience rearranger."""
        plain, world_plain = _mirror_transfer()
        armed, world_armed = _mirror_transfer(
            max_retries=3, retry_backoff_s=0.01, recv_timeout=5.0)
        for a, b in zip(armed, plain):
            assert np.array_equal(a, b)
        assert (world_armed.ledger.total_messages
                == world_plain.ledger.total_messages)
        assert world_armed.ledger.total_bytes == world_plain.ledger.total_bytes


class TestRetryWithBackoff:
    def test_succeeds_within_budget(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise CommTransientError(0, 1, 7, attempt=calls["n"])
            return "ok"

        slept = []
        obs = Obs()
        out = retry_with_backoff(
            flaky, RetryPolicy(max_retries=3, backoff_s=0.5),
            obs=obs, sleep=slept.append)
        assert out == "ok"
        assert calls["n"] == 3
        assert slept == [0.5, 1.0]  # exponential, deterministic
        assert obs.metrics.get("resilience.retries").value == 2

    def test_budget_exhausted_reraises(self):
        def always():
            raise CommTransientError(0, 1, 7)

        with pytest.raises(CommTransientError):
            retry_with_backoff(always, RetryPolicy(max_retries=2),
                               sleep=lambda s: None)


# -- restart corruption ------------------------------------------------------


class TestRestartCorruption:
    def _save(self, tmp_path):
        rng = np.random.default_rng(3)
        fields = {"t": rng.standard_normal((6, 4)), "q": rng.standard_normal(9)}
        save_restart(tmp_path, fields, scalars={"time": 7.0})
        return fields

    def test_roundtrip_with_crcs(self, tmp_path):
        fields = self._save(tmp_path)
        loaded, scalars = load_restart(tmp_path)
        assert scalars["time"] == 7.0
        assert first_difference(fields, loaded) is None

    def test_bitflip_detected(self, tmp_path):
        self._save(tmp_path)
        corrupt_checkpoint(tmp_path, "bitflip")
        with pytest.raises(RestartError, match="CRC") as err:
            load_restart(tmp_path)
        assert err.value.field in ("t", "q")
        assert err.value.expected != err.value.actual

    def test_truncate_detected(self, tmp_path):
        self._save(tmp_path)
        corrupt_checkpoint(tmp_path, "truncate")
        with pytest.raises(RestartError):
            load_restart(tmp_path)

    def test_stale_version_structured(self, tmp_path):
        self._save(tmp_path)
        corrupt_checkpoint(tmp_path, "stale")
        with pytest.raises(RestartError, match="version") as err:
            load_restart(tmp_path)
        assert err.value.expected == 1
        assert err.value.actual == 99
        # Backward compatible with callers expecting ValueError.
        assert isinstance(err.value, ValueError)

    def test_missing_manifest_structured(self, tmp_path):
        with pytest.raises(RestartError, match="manifest"):
            load_restart(tmp_path)

    def test_size_shape_mismatch_structured(self, tmp_path):
        import json

        self._save(tmp_path)
        manifest = tmp_path / "restart.json"
        data = json.loads(manifest.read_text())
        data["fields"]["q"]["size"] = 5
        manifest.write_text(json.dumps(data))
        with pytest.raises(RestartError, match="size") as err:
            load_restart(tmp_path)
        assert err.value.field == "q"

    @pytest.mark.parametrize(
        "key, value", [("shape", "ab"), ("size", "x"), ("crc32", [1, 2])]
    )
    def test_field_entry_of_wrong_type_structured(self, tmp_path, key, value):
        self._save(tmp_path)
        manifest = tmp_path / "restart.json"
        data = json.loads(manifest.read_text())
        data["fields"]["q"][key] = value
        manifest.write_text(json.dumps(data))
        with pytest.raises(RestartError, match=f"'{key}'") as err:
            load_restart(tmp_path)
        assert err.value.field == "q"
        assert err.value.actual == value

    @pytest.mark.parametrize(
        "key, value", [("n_ranks", "x"), ("n_groups", [1]), ("n_ranks", 0), ("scalars", [1, 2])]
    )
    def test_manifest_entry_of_wrong_type_structured(self, tmp_path, key, value):
        self._save(tmp_path)
        manifest = tmp_path / "restart.json"
        data = json.loads(manifest.read_text())
        data[key] = value
        manifest.write_text(json.dumps(data))
        with pytest.raises(RestartError, match="manifest"):
            load_restart(tmp_path)

    def test_manifest_written_atomically(self, tmp_path):
        self._save(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))


# -- rotating checkpoints ----------------------------------------------------


def _fake_saver(payload):
    def saver(directory):
        save_restart(directory / "comp", {"x": payload},
                     scalars={"v": float(payload[0])})
    return saver


class TestCheckpointManager:
    def test_rotation_keeps_newest(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        for step in (1, 2, 3):
            mgr.to_file(_fake_saver(np.full(4, float(step))), step)
        names = [p.name for p in mgr.checkpoints()]
        assert names == ["ckpt-00000002", "ckpt-00000003"]
        assert not list(tmp_path.glob(".tmp-*"))

    def test_validate_catches_each_corruption(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=3)
        for kind in ("bitflip", "truncate", "stale"):
            path = mgr.to_file(_fake_saver(np.arange(8.0)), 1)
            mgr.validate(path)
            corrupt_checkpoint(path, kind)
            with pytest.raises(CheckpointError):
                mgr.validate(path)

    def test_validate_catches_unmanifested_file(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=1)
        path = mgr.to_file(_fake_saver(np.arange(8.0)), 1)
        (path / "stray.bin").write_bytes(b"oops")
        with pytest.raises(CheckpointError, match="manifest does not cover"):
            mgr.validate(path)

    def test_restore_falls_back_past_corruption(self, tmp_path):
        obs = Obs()
        mgr = CheckpointManager(tmp_path, keep=3, obs=obs)
        for step in (1, 2, 3):
            mgr.to_file(_fake_saver(np.full(4, float(step))), step)
        corrupt_checkpoint(mgr.checkpoints()[-1], "bitflip")

        seen = {}

        def loader(directory):
            fields, scalars = load_restart(directory / "comp")
            seen["v"] = scalars["v"]

        restored = mgr.restore_latest_valid(loader)
        assert restored.name == "ckpt-00000002"
        assert seen["v"] == 2.0
        assert obs.metrics.get("resilience.checkpoint_fallbacks").value == 1
        assert obs.metrics.get("resilience.restores").value == 1

    def test_valid_steps_skip_a_bitflipped_set_and_count_it_once(self, tmp_path):
        obs = Obs()
        mgr = CheckpointManager(tmp_path, keep=3, obs=obs)
        paths = {step: mgr.to_file(_fake_saver(np.full(4, float(step))), step)
                 for step in (1, 2, 3)}
        corrupt_checkpoint(paths[2], "bitflip")
        assert mgr.valid_steps() == {1: paths[1], 3: paths[3]}
        assert obs.metrics.get("resilience.checkpoint_fallbacks").value == 1

    def test_job_dir_holds_only_the_rotation_and_the_published_set(self, tmp_path):
        runner = JobRunner(AP3ESMConfig(atm_level=2, ocn_nlon=24, ocn_nlat=16, ocn_levels=4),
                           work_dir=tmp_path, checkpoint_every=1)
        out = runner.run(JobSpec("solo", couplings=2))
        job = runner.job_dir("solo")
        assert sorted(p.name for p in job.iterdir()) == ["ckpt", "restart"]
        assert out["restart_dir"] == str(job / "restart")
        assert not list((job / "ckpt").glob(".tmp-*"))

    @pytest.mark.parametrize(
        "damage", ["entry_without_size", "files_as_list", "manifest_not_an_object"]
    )
    def test_malformed_manifest_falls_back(self, tmp_path, damage):
        """A parseable manifest that is not an object, or whose ``files`` are
        malformed, marks the set invalid: restore skips it for the older set
        instead of raising."""
        obs = Obs()
        mgr = CheckpointManager(tmp_path, keep=3, obs=obs)
        for step in (1, 2):
            mgr.to_file(_fake_saver(np.full(4, float(step))), step)
        manifest_path = mgr.checkpoints()[-1] / "checkpoint.json"
        manifest = json.loads(manifest_path.read_text())
        if damage == "entry_without_size":
            del next(iter(manifest["files"].values()))["size"]
        elif damage == "files_as_list":
            manifest["files"] = list(manifest["files"])
        else:
            manifest = [1, 2]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="malformed"):
            mgr.validate(mgr.checkpoints()[-1])

        restored = mgr.restore_latest_valid(lambda d: None)
        assert restored.name == "ckpt-00000001"
        assert obs.metrics.get("resilience.checkpoint_fallbacks").value == 1

    def test_restore_raises_when_everything_corrupt(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        for step in (1, 2):
            mgr.to_file(_fake_saver(np.arange(4.0)), step)
        for ckpt in mgr.checkpoints():
            corrupt_checkpoint(ckpt, "truncate")
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            mgr.restore_latest_valid(lambda d: None)


# -- physics guardrail -------------------------------------------------------


def _column_state(ncol=8, nlev=5):
    from repro.atm.columns import ColumnState

    rng = np.random.default_rng(11)
    return ColumnState(
        u=rng.normal(5, 2, (ncol, nlev)),
        v=rng.normal(0, 2, (ncol, nlev)),
        t=rng.normal(280, 10, (ncol, nlev)),
        q=np.abs(rng.normal(5e-3, 1e-3, (ncol, nlev))),
        p=np.linspace(1e4, 1e5, nlev),
        tskin=rng.normal(288, 5, ncol),
        coszr=np.clip(rng.uniform(-0.2, 1.0, ncol), 0, None),
    )


class _PoisonedPhysics:
    """Conventional suite that emits NaN for a fixed set of columns."""

    def __init__(self, bad_columns):
        from repro.atm.physics import ConventionalPhysics

        self.inner = ConventionalPhysics()
        self.bad_columns = list(bad_columns)

    def compute(self, state, dt_s):
        tend = self.inner.compute(state, dt_s)
        tend.dt[self.bad_columns, :] = np.nan
        return tend

class TestGuardedPhysics:
    def test_healthy_suite_passes_through_bitwise(self):
        from repro.atm.physics import ConventionalPhysics

        state = _column_state()
        bare = ConventionalPhysics().compute(state.copy(), 600.0)
        guarded = GuardedPhysics(ConventionalPhysics()).compute(
            state.copy(), 600.0)
        for name in ("du", "dv", "dt", "dq", "gsw", "glw", "precip",
                     "cloud_fraction", "shflx", "lhflx"):
            assert np.array_equal(getattr(guarded, name), getattr(bare, name))

    def test_bad_columns_fall_back_others_untouched(self):
        from repro.atm.physics import ConventionalPhysics

        bad = [2, 5]
        state = _column_state()
        obs = Obs()
        guard = GuardedPhysics(_PoisonedPhysics(bad), obs=obs)
        tend = guard.compute(state.copy(), 600.0)
        reference = ConventionalPhysics().compute(state.copy(), 600.0)
        poisoned = _PoisonedPhysics(bad).compute(state.copy(), 600.0)

        ok = [c for c in range(8) if c not in bad]
        assert np.isfinite(tend.dt).all()
        # Fallback columns equal the conventional recompute...
        assert np.array_equal(tend.dt[bad], reference.dt[bad])
        # ...and healthy columns keep the primary's bits.
        assert np.array_equal(tend.dt[ok], poisoned.dt[ok])
        assert guard.fallback_columns_total == 2
        assert obs.metrics.get(
            "resilience.physics_fallback_columns").value == 2
        assert obs.metrics.get(
            "resilience.physics_fallback_events").value == 1

    def test_blowup_injection_detected(self):
        from repro.atm.physics import ConventionalPhysics

        plan = FaultPlan(seed=1, physics=[
            PhysicsFault(kind="blowup", step=0, columns=(1,))])
        guard = GuardedPhysics(
            ConventionalPhysics(),
            injector=PhysicsFaultInjector(plan),
            step_fn=lambda: 0,
        )
        tend = guard.compute(_column_state(), 600.0)
        reference = ConventionalPhysics().compute(_column_state(), 600.0)
        assert np.array_equal(tend.dt, reference.dt)  # fully repaired
        assert guard.fallback_columns_total == 1

    def test_injection_keyed_on_step(self):
        from repro.atm.physics import ConventionalPhysics

        plan = FaultPlan(physics=[
            PhysicsFault(kind="nan", step=7, columns=(0,))])
        step = {"n": 0}
        guard = GuardedPhysics(
            ConventionalPhysics(),
            injector=PhysicsFaultInjector(plan),
            step_fn=lambda: step["n"],
        )
        guard.compute(_column_state(), 600.0)
        assert guard.fallback_columns_total == 0  # step 0: nothing
        step["n"] = 7
        guard.compute(_column_state(), 600.0)
        assert guard.fallback_columns_total == 1  # step 7: injected


# -- watchdog ----------------------------------------------------------------


class TestWatchdog:
    def test_hung_domain_aborts_with_diagnostic(self):
        from repro.esm.scheduler import TaskDomainScheduler

        obs = Obs()
        sched = TaskDomainScheduler(
            obs=obs, concurrent=True, watchdog_s=0.2)
        release = threading.Event()
        handle = sched.launch("domain2", lambda _obs: release.wait(10.0))
        with pytest.raises(WatchdogTimeout, match="domain2"):
            handle.result()
        assert obs.metrics.get("resilience.watchdog_aborts").value == 1
        release.set()  # let the worker finish so shutdown is clean
        sched.shutdown()

    def test_fast_domain_unaffected(self):
        from repro.esm.scheduler import TaskDomainScheduler

        sched = TaskDomainScheduler(concurrent=True, watchdog_s=5.0)
        handle = sched.launch("domain2", lambda _obs: 42)
        assert handle.result() == 42
        sched.shutdown()


# -- coupled-model wiring ----------------------------------------------------


def _small_config(**kwargs):
    from repro.esm import AP3ESMConfig

    return AP3ESMConfig(atm_level=3, ocn_nlon=48, ocn_nlat=32,
                        ocn_levels=6, **kwargs)


class TestCoupledResilience:
    def test_disabled_is_zero_overhead_and_bitwise_stable(self):
        """resilience.enabled (guardrail armed, healthy physics) changes
        nothing: same bits as the disabled driver, no intervention
        counters beyond the checkpoint machinery (which is off here)."""
        from repro.esm import AP3ESM

        obs = Obs()
        plain = AP3ESM(_small_config(), obs=obs)
        plain.init()
        assert plain.guarded_physics is None
        assert plain.checkpoints is None
        plain.run_couplings(2)

        guarded = AP3ESM(_small_config(
            resilience=ResilienceConfig(enabled=True)))
        guarded.init()
        assert guarded.guarded_physics is not None
        guarded.run_couplings(2)

        assert first_difference(snapshot(plain), snapshot(guarded)) is None
        assert guarded.guarded_physics.fallback_columns_total == 0
        resilience_counters = [
            name for h in obs.all_ranks() for name in h.metrics.names()
            if name.startswith("resilience.")
        ]
        assert resilience_counters == []

    def test_checkpoint_recover_resume_is_bitwise(self, tmp_path):
        from repro.esm import AP3ESM

        res = ResilienceConfig(enabled=True, checkpoint_every=2,
                               checkpoint_dir=str(tmp_path))
        reference = AP3ESM(_small_config(
            resilience=ResilienceConfig(enabled=True)))
        reference.init()
        reference.run_couplings(5)

        crashed = AP3ESM(_small_config(resilience=res))
        crashed.init()
        crashed.run_couplings(3)  # checkpoint written at coupling 2
        crashed.scheduler.shutdown()

        revived = AP3ESM(_small_config(resilience=res))
        revived.init()
        restored = revived.recover()
        assert restored.name == "ckpt-00000002"
        assert revived.n_couplings == 2
        revived.run_couplings(3)

        assert first_difference(snapshot(reference), snapshot(revived)) is None

    @pytest.mark.parametrize("concurrent", [True, False],
                             ids=["concurrent", "serial"])
    def test_dead_ocean_launch_never_reaches_the_rotation(self, tmp_path, concurrent):
        """An ocean unit that dies inside its first launch stays latent in
        its TaskHandle until the next publish (lagged coupling); the
        cadence checkpoint must surface it instead of writing a set that
        contains an un-stepped ocean."""
        from repro.esm import AP3ESM, AP3ESMConfig

        def config(directory):
            return AP3ESMConfig(
                atm_level=2, ocn_nlon=32, ocn_nlat=24, ocn_levels=4,
                concurrent_domains=concurrent,
                resilience=ResilienceConfig(
                    enabled=True, guard_physics=False,
                    checkpoint_every=1, checkpoint_dir=str(directory)))

        model = AP3ESM(config(tmp_path / "faulted"))
        model.init()

        def dying_step(dt):
            raise RuntimeError("ocean unit died")

        model.ocn.step = dying_step
        with pytest.raises(RuntimeError, match="ocean unit died"):
            model.run_couplings(12)
        model.scheduler.shutdown()
        # The first launch is made by the step that completes coupling
        # `ocn_couple_ratio`: the failure surfaces no later than that
        # step's cadence checkpoint ...
        launch = model.config.ocn_couple_ratio
        assert model.n_couplings <= launch
        # ... and every set left in the rotation predates it.
        steps = [model.checkpoints.step_of(c)
                 for c in model.checkpoints.checkpoints()]
        assert steps and max(steps) < launch

        revived = AP3ESM(config(tmp_path / "faulted"))
        revived.init()
        revived.recover()
        twin = AP3ESM(config(tmp_path / "twin"))
        twin.init()
        twin.run_couplings(revived.n_couplings)
        assert first_difference(snapshot(revived), snapshot(twin)) is None
        revived.finalize()
        twin.finalize()

    def test_chaos_end_to_end(self, tmp_path):
        from repro.resilience.chaos import run_chaos

        plan = FaultPlan(
            seed=7,
            comm=[CommFault(kind="transient", src=0, dst=3, times=2)],
            checkpoints=[CheckpointFault(kind="bitflip", index=-1)],
            physics=[PhysicsFault(kind="nan", step=2, n_columns=3)],
        )
        res = ResilienceConfig(enabled=True, checkpoint_every=2,
                               checkpoint_dir=str(tmp_path))
        report = run_chaos(plan, config=_small_config(resilience=res),
                           couplings=6)
        assert report.survived
        assert report.comm_masked is True
        assert report.bitwise_identical is True
        assert report.counters["resilience.retries"] > 0
        assert report.counters["resilience.checkpoint_fallbacks"] > 0
        assert report.counters["resilience.physics_fallback_columns"] > 0
        assert "bitwise identical" in report.summary()


class TestResilienceConfig:
    def test_checkpoint_requires_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            ResilienceConfig(enabled=True, checkpoint_every=2)

    def test_checkpoint_keep_must_be_positive(self):
        with pytest.raises(ValueError, match="checkpoint_keep"):
            ResilienceConfig(enabled=True, checkpoint_every=2,
                             checkpoint_dir="ckpt", checkpoint_keep=0)

    def test_namelist_ignores_resilience_field(self, tmp_path):
        from repro.esm import AP3ESMConfig

        nml = tmp_path / "ap3esm.nml"
        nml.write_text("&ap3esm_nml\n  atm_level = 3\n/\n")
        cfg = AP3ESMConfig.from_namelist(nml)
        assert cfg.resilience.enabled is False
