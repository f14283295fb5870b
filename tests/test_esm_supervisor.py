"""Tests for the fleet supervisor: member-level fault isolation,
quarantine with bitwise survivors, checkpoint-rollback rejoin, policy
escalation, FaultPlan member scoping, and the EnsembleRun lifecycle
fixes that ride along (teardown on failed init, pool shutdown on a
raising finalize)."""

import pytest

from repro.esm import AP3ESM, AP3ESMConfig, EnsembleConfig, EnsembleRun, first_difference, snapshot
from repro.obs import Obs
from repro.resilience import (
    CommFault,
    CommFaultInjector,
    CommTimeoutError,
    FaultPlan,
    FaultPlanError,
    FleetSupervisor,
    MemberPolicy,
    PhysicsFault,
    PhysicsFaultInjector,
    ResilienceConfig,
    corrupt_checkpoint,
)

SMALL = dict(atm_level=2, ocn_nlon=24, ocn_nlat=16, ocn_levels=4)
COUPLINGS = 6

#: One-shot NaN poisoning of member 2's atmosphere at model step 3.
NAN_PLAN = {
    "seed": 7,
    "physics": [{"kind": "nan", "step": 3, "n_columns": 4, "member": 2}],
}


def _config(checkpoint_dir=None, **res_kw):
    res = ResilienceConfig(
        enabled=True,
        guard_physics=False,  # member-level isolation supersedes it
        checkpoint_every=2 if checkpoint_dir else 0,
        checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
        **res_kw,
    )
    return AP3ESMConfig(resilience=res, **SMALL)


def _fleet(members=3, policy="fail_fast", plan=None, batch=True,
           couplings=COUPLINGS, checkpoint_dir=None, obs=None, **res_kw):
    ens = EnsembleRun(EnsembleConfig(
        base=_config(checkpoint_dir=checkpoint_dir, member_policy=policy,
                     **res_kw),
        members=members,
        batch_physics=batch,
        fault_plan=FaultPlan.from_dict(plan) if plan is not None else None,
    ), obs=obs)
    ens.init()
    ens.run_couplings(couplings)
    return ens


class TestFaultPlanMemberScoping:
    def test_roundtrip_preserves_member(self):
        plan = FaultPlan.from_dict({
            "seed": 3,
            "physics": [{"kind": "nan", "step": 2, "n_columns": 2, "member": 1},
                        {"kind": "blowup", "step": 4, "n_columns": 2}],
            "comm": [{"kind": "transient", "match": 1, "times": 2,
                      "member": 0}],
        })
        again = FaultPlan.from_json(plan.to_json())
        assert again.physics[0].member == 1
        assert again.physics[1].member is None
        assert again.comm[0].member == 0
        assert again.member_scoped
        assert again.member_targets() == [0, 1]

    def test_for_member_and_without_members(self):
        plan = FaultPlan.from_dict({
            "physics": [{"kind": "nan", "step": 2, "n_columns": 2, "member": 1},
                        {"kind": "blowup", "step": 4, "n_columns": 2}],
            "comm": [{"kind": "kill", "rank": 1, "member": 1}],
        })
        phys, comm = plan.for_member(1)
        assert [f.step for f in phys] == [2]
        assert [f.kind for f in comm] == ["kill"]
        assert plan.for_member(0) == ([], [])
        stripped = plan.without_members()
        assert not stripped.member_scoped
        assert [f.step for f in stripped.physics] == [4]
        assert stripped.comm == []

    def test_memberless_plan_is_not_member_scoped(self):
        plan = FaultPlan.from_dict({"physics": [{"kind": "nan", "step": 1, "n_columns": 2}]})
        assert not plan.member_scoped
        assert plan.member_targets() == []

    def test_negative_member_names_the_bad_key(self):
        with pytest.raises(FaultPlanError, match=r"physics\[0\]\.member"):
            FaultPlan.from_dict(
                {"physics": [{"kind": "nan", "step": 1, "n_columns": 2, "member": -1}]}
            )

    def test_bool_member_rejected(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            PhysicsFault(kind="nan", step=1, n_columns=2, member=True)

    def test_drop_and_corrupt_cannot_be_member_scoped(self):
        for kind in ("drop", "corrupt"):
            with pytest.raises(ValueError, match="transient and kill"):
                CommFault(kind=kind, src=0, dst=1, member=2)

    def test_injectors_skip_member_scoped_entries(self):
        plan = FaultPlan.from_dict({
            "physics": [{"kind": "nan", "step": 1, "n_columns": 2, "member": 0}],
            "comm": [{"kind": "transient", "src": 0, "dst": 1, "member": 0}],
        })
        assert PhysicsFaultInjector(plan).steps == []
        inj = CommFaultInjector(plan)
        # The scoped transient on edge (0, 1) must never fire here.
        for _ in range(3):
            assert inj.on_send(0, 1, 0, b"x") == b"x"
        assert inj.injected == 0


class TestQuarantine:
    """Losing the last member must leave the survivors bitwise-identical
    to a fleet that never contained it."""

    @pytest.mark.parametrize("batch", [True, False])
    def test_survivors_bitwise_equal_smaller_fleet(self, batch):
        faulted = _fleet(members=3, policy="quarantine", plan=NAN_PLAN,
                         batch=batch)
        sup = faulted.supervisor
        assert sup.quarantined == [2]
        assert sup.alive == [True, True, False]
        assert [(e.member, e.kind, e.action) for e in sup.events] == \
            [(2, "physics_blowup", "quarantine")]
        # Members 0..1 get the same seeded perturbations in any fleet
        # that contains them, so a 2-member clean fleet is the twin.
        clean = _fleet(members=2, batch=batch)
        for k in (0, 1):
            assert first_difference(snapshot(faulted.members[k]),
                                    snapshot(clean.members[k])) is None
        # The quarantined member stopped at the failed coupling.
        assert faulted.members[2].n_couplings < COUPLINGS
        assert faulted.members[0].n_couplings == COUPLINGS

    def test_whole_fleet_quarantined_raises(self):
        plan = {
            "physics": [{"kind": "nan", "step": 2, "n_columns": 2, "member": 0},
                        {"kind": "nan", "step": 2, "n_columns": 2, "member": 1}],
        }
        ens = EnsembleRun(EnsembleConfig(
            base=_config(member_policy="quarantine"), members=2,
            batch_physics=True, fault_plan=FaultPlan.from_dict(plan),
        ))
        ens.init()
        with pytest.raises(Exception, match="entire fleet quarantined"):
            ens.run_couplings(COUPLINGS)


class TestRestart:
    """Rollback + solo replay + rejoin must be bitwise-invisible: every
    member ends identical to a never-faulted twin fleet."""

    def test_rejoin_bitwise_equal_never_faulted_twin(self, tmp_path):
        plan = {
            "seed": 7,
            "physics": [{"kind": "blowup", "step": 3, "n_columns": 4,
                         "member": 1}],
        }
        faulted = _fleet(members=3, policy="restart", plan=plan,
                         checkpoint_dir=tmp_path / "faulted")
        sup = faulted.supervisor
        assert sup.alive == [True, True, True]
        assert sup.restarts == 1
        events = [(e.member, e.kind, e.action) for e in sup.events]
        assert events == [(1, "physics_blowup", "restart")]
        assert sup.events[0].replayed_couplings > 0
        assert sup.events[0].restored_from is not None
        twin = _fleet(members=3)
        assert first_difference(snapshot(faulted), snapshot(twin)) is None

    def test_armed_but_fault_free_fleet_is_bitwise_clean(self, tmp_path):
        armed = _fleet(members=2, policy="restart",
                       checkpoint_dir=tmp_path / "armed")
        assert armed.supervisor is not None
        assert armed.supervisor.events == []
        plain = _fleet(members=2)
        assert plain.supervisor is None
        assert first_difference(snapshot(armed), snapshot(plain)) is None

    def test_restart_cap_escalates_to_quarantine(self, tmp_path):
        # A 4-coupling timeout window defeats rollback-and-replay: the
        # single allowed restart fails again inside the window.
        plan = {
            "comm": [{"kind": "transient", "match": 1, "times": 4,
                      "member": 2}],
        }
        faulted = _fleet(members=3, policy="restart", plan=plan,
                         checkpoint_dir=tmp_path / "esc",
                         member_restart_max=1)
        sup = faulted.supervisor
        assert sup.alive == [True, True, False]
        assert sup.escalations == 1
        actions = [(e.member, e.kind, e.action) for e in sup.events]
        assert (2, "comm_timeout", "restart") in actions
        assert actions[-1] == (2, "comm_timeout", "escalate")

    def test_restart_policy_needs_checkpoints(self):
        ens = EnsembleRun(EnsembleConfig(
            base=_config(member_policy="restart"), members=2,
            batch_physics=True,
        ))
        with pytest.raises(ValueError, match="rollback target"):
            ens.init()


class TestFleetCheckpoints:
    """The fleet that checkpoints and recovers is the live fleet, and a
    recovery leaves no checkpoint of the abandoned timeline behind."""

    @staticmethod
    def _steps(ens, k):
        mgr = ens.members[k].checkpoints
        return [mgr.step_of(c) for c in mgr.checkpoints()]

    def test_quarantined_member_does_not_block_recovery(self, tmp_path):
        plan = {"seed": 7,
                "physics": [{"kind": "nan", "step": 0, "n_columns": 4, "member": 2}]}
        ens = _fleet(members=3, policy="quarantine", plan=plan, couplings=4,
                     checkpoint_dir=tmp_path / "ck")
        try:
            assert ens.supervisor.quarantined == [2]
            assert [self._steps(ens, k) for k in range(3)] == [[2, 4], [2, 4], []]
            survivors = [snapshot(ens.members[k]) for k in (0, 1)]
            assert ens.recover() == 4
            for k, before in zip((0, 1), survivors):
                assert first_difference(before, snapshot(ens.members[k])) is None
            assert ens.has_checkpoint()
            assert len(ens.checkpoint()) == 2
        finally:
            ens.finalize()

    def test_recovery_drops_the_abandoned_timeline(self, tmp_path):
        ens = _fleet(members=2, policy="restart", couplings=4,
                     checkpoint_dir=tmp_path / "ck")
        try:
            assert self._steps(ens, 1) == [0, 2, 4]
            corrupt_checkpoint(ens.members[0].checkpoints.latest(), "bitflip")
            assert ens.recover() == 2
            assert [self._steps(ens, k)[-1] for k in range(2)] == [2, 2]
            assert ens.supervisor.couplings == 2
            ens.members[1].rollback()
            assert ens.members[1].n_couplings == 2
        finally:
            ens.finalize()

    def test_member_fallback_reaches_the_resilience_rollup(self, tmp_path):
        """A member-scoped counter is rolled up under its recorded name."""
        obs = Obs()
        ens = _fleet(members=2, policy="restart", couplings=4,
                     checkpoint_dir=tmp_path / "ck", obs=obs)
        try:
            corrupt_checkpoint(ens.members[0].checkpoints.latest(), "bitflip")
            assert ens.recover() == 2
        finally:
            ens.finalize()
        section = obs.report().split("== resilience interventions ==")[1]
        assert "member.0.resilience.checkpoint_fallbacks" in section


class TestFailFast:
    def test_reraises_original_exception(self):
        plan = {
            "comm": [{"kind": "transient", "match": 1, "member": 1}],
        }
        ens = EnsembleRun(EnsembleConfig(
            base=_config(), members=2,
            fault_plan=FaultPlan.from_dict(plan),
        ))
        ens.init()
        with pytest.raises(CommTimeoutError):
            ens.run_couplings(COUPLINGS)
        sup = ens.supervisor
        assert [(e.member, e.kind, e.action) for e in sup.events] == \
            [(1, "comm_timeout", "fail_fast")]

    def test_default_policy_without_plan_arms_nothing(self):
        ens = EnsembleRun(EnsembleConfig(base=_config(), members=2))
        ens.init()
        assert ens.supervisor is None

    def test_plan_requires_resilience_enabled(self):
        ens = EnsembleRun(EnsembleConfig(
            base=AP3ESMConfig(**SMALL), members=2,
            fault_plan=FaultPlan.from_dict(
                {"physics": [{"kind": "nan", "step": 3, "n_columns": 2, "member": 1}]}
            ),
        ))
        with pytest.raises(ValueError, match="resilience"):
            ens.init()

    def test_plan_targeting_missing_member_rejected(self):
        ens = EnsembleRun(EnsembleConfig(
            base=_config(member_policy="quarantine"), members=2,
            batch_physics=True,
            fault_plan=FaultPlan.from_dict(NAN_PLAN),  # targets member 2
        ))
        with pytest.raises(ValueError, match="member 2"):
            ens.init()


class TestSupervisorObservability:
    def test_summary_degraded_section_and_counters(self):
        obs = Obs()
        faulted = _fleet(members=3, policy="quarantine", plan=NAN_PLAN,
                         obs=obs)
        summary = faulted.summary()
        sup = summary["supervisor"]
        assert sup["policy"] == "quarantine"
        assert sup["members_total"] == 3.0
        assert sup["alive"] == 2.0
        assert sup["quarantined"] == [2]
        assert sup["quarantines"] == 1.0
        assert sup["faults_injected"] == 1.0
        assert 0 < sup["sypd_degraded"] < summary["sypd"]["mean"] * 1.01
        assert sup["events"][0]["action"] == "quarantine"
        for row in summary["members"]:
            assert row["alive"] == (0.0 if row["member"] == 2 else 1.0)
        metrics = obs.metrics
        assert metrics.get("ensemble.supervisor.quarantines").value == 1.0
        assert metrics.get("ensemble.supervisor.events").value == 1.0

    def test_quarantined_member_sypd_uses_its_own_clock(self):
        """Regression: every member's wall was divided into the survivors'
        simulated days, so a member quarantined early reported the
        survivors' couplings over its own (shorter) wall."""
        faulted = _fleet(members=3, policy="quarantine", plan=NAN_PLAN)
        for row, m in zip(faulted.summary()["members"], faulted.members):
            assert row["wall_s"] == m.wall_s > 0
            # sypd * wall = simulated seconds / 365, per member.
            assert row["sypd"] * row["wall_s"] * 365.0 == \
                pytest.approx(m.clock.time)
        assert faulted.members[2].clock.time < faulted.members[0].clock.time

    def test_counters_render_in_interventions_report(self):
        from repro.obs.export import counter_totals, text_report

        obs = Obs()
        obs.counter("ensemble.supervisor.restarts").inc()
        regs = [h.metrics for h in obs.all_ranks()]
        assert counter_totals(regs, ("resilience.", "ensemble.supervisor.")) == \
            {"ensemble.supervisor.restarts": 1.0}
        report = text_report([h.tracer for h in obs.all_ranks()], regs)
        assert "resilience interventions" in report
        assert "ensemble.supervisor.restarts" in report

    def test_member_policy_validation(self):
        with pytest.raises(ValueError, match="member_policy"):
            ResilienceConfig(enabled=True, member_policy="retry")
        with pytest.raises(ValueError, match="member_restart_max"):
            ResilienceConfig(enabled=True, member_restart_max=-1)
        with pytest.raises(ValueError, match="unknown member_policy"):
            MemberPolicy.parse("retry")


class _FakePool:
    class _Stats:
        dispatches = 0
        fallbacks = 0
        workers = 0
        bytes_shared = 0
        occupancy = 0.0

    def __init__(self):
        self.stats = self._Stats()
        self.obs = None
        self.shutdowns = 0

    def ensure_started(self):
        pass

    def shutdown(self):
        self.shutdowns += 1


class TestLifecycleLeaks:
    """Satellite fixes: no leaked pool or half-built members when init or
    finalize raises partway through the fleet."""

    def test_finalize_shuts_pool_when_member_finalize_raises(self):
        ens = EnsembleRun(EnsembleConfig(base=AP3ESMConfig(**SMALL),
                                         members=2))
        ens.init()
        pool = _FakePool()
        ens._owned_pool = pool

        def bad_finalize():
            raise RuntimeError("member 0 finalize failed")

        real = ens.members[1].finalize
        finalized = []

        def recording_finalize():
            finalized.append(1)
            return real()

        ens.members[0].finalize = bad_finalize
        ens.members[1].finalize = recording_finalize
        with pytest.raises(RuntimeError, match="member 0 finalize"):
            ens.finalize()
        assert pool.shutdowns == 1
        # The later member was still finalized despite member 0 raising.
        assert finalized == [1]

    def test_failed_member_init_tears_down_fleet(self, monkeypatch):
        import repro.esm.ensemble as ensemble_mod

        pool = _FakePool()
        monkeypatch.setattr(
            ensemble_mod, "make_backend",
            lambda *a, **k: type("Space", (), {"runtime": pool})(),
        )
        real_init = AP3ESM.init
        real_finalize = AP3ESM.finalize
        calls, finalized = [], []

        def flaky_init(self):
            calls.append(self)
            if len(calls) == 2:
                raise RuntimeError("member 1 init failed")
            return real_init(self)

        def recording_finalize(self):
            finalized.append(self)
            return real_finalize(self)

        monkeypatch.setattr(AP3ESM, "init", flaky_init)
        monkeypatch.setattr(AP3ESM, "finalize", recording_finalize)
        ens = EnsembleRun(EnsembleConfig(
            base=AP3ESMConfig(backend="procs", **SMALL), members=2,
        ))
        with pytest.raises(RuntimeError, match="member 1 init"):
            ens.init()
        assert ens.members == []
        assert ens._owned_pool is None
        assert pool.shutdowns == 1
        # Member 0 completed init and was finalized on teardown.
        assert finalized == [calls[0]]

    def test_invalid_batched_config_tears_down_pool(self, monkeypatch):
        import repro.esm.ensemble as ensemble_mod

        pool = _FakePool()
        monkeypatch.setattr(
            ensemble_mod, "make_backend",
            lambda *a, **k: type("Space", (), {"runtime": pool})(),
        )
        ens = EnsembleRun(EnsembleConfig(
            base=AP3ESMConfig(backend="procs", **SMALL), members=2,
            batch_physics=True,
            config_deltas=[{}, {"atm_steps_per_coupling": 2}],
        ))
        with pytest.raises(ValueError, match="uniform atmosphere"):
            ens.init()
        assert ens.members == []
        assert pool.shutdowns == 1


class TestChaosEnsembleStage:
    def test_member_scoped_plan_runs_ensemble_stage(self):
        from repro.resilience.chaos import run_chaos

        config = AP3ESMConfig(resilience=ResilienceConfig(enabled=True),
                              **SMALL)
        report = run_chaos(FaultPlan.from_dict(NAN_PLAN), config=config,
                           couplings=COUPLINGS)
        assert report.ensemble_members == 3
        assert report.ensemble_quarantined == [2]
        assert report.ensemble_quarantine_bitwise is True
        assert report.ensemble_restart_bitwise is True
        assert report.survived
        assert report.counters["ensemble.supervisor.quarantines"] == 1.0
        assert report.counters["ensemble.supervisor.restarts"] == 1.0
        assert "ensemble stage (3 member(s))" in report.summary()

    def test_memberless_plan_skips_stage(self):
        from repro.resilience.chaos import run_chaos

        config = AP3ESMConfig(resilience=ResilienceConfig(enabled=True),
                              **SMALL)
        plan = FaultPlan.from_dict(
            {"physics": [{"kind": "nan", "step": 2, "n_columns": 2}]}
        )
        report = run_chaos(plan, config=config, couplings=2)
        assert report.ensemble_members is None
        assert "ensemble stage" not in report.summary()


class TestSupervisorConstruction:
    def test_members_only_no_lockstep(self, tmp_path):
        # The supervisor is usable standalone around plain AP3ESM models.
        cfg = _config(checkpoint_dir=tmp_path)
        models = []
        for k in range(2):
            m = AP3ESM(cfg)
            m.init()
            models.append(m)
        sup = FleetSupervisor(models, MemberPolicy.QUARANTINE)
        for _ in range(2):
            sup.step_fleet()
        assert sup.n_alive == 2
        assert all(m.n_couplings == 2 for m in models)
        for m in models:
            m.finalize()
