"""Tests for elastic rank-failure recovery: revoke/shrink/spare on the
simulated communicator, owner re-partition, GSMap/Router repair, the
kill-and-continue ocean driver, and the coupled driver's recovering loop.

The invariants under test mirror the ULFM-style contract:

* ``shrink`` completes every step on the surviving ranks, re-cut into
  fewer latitude slabs, bitwise-identical to the serial barotropic ocean;
* ``spare`` keeps the decomposition and is bitwise-identical too;
* a checkpointed coupled driver rolls a rank loss back and replays it,
  bitwise-identical to a fault-free twin; without a checkpoint manager
  (or before its first set) the failure surfaces exactly as before.
"""

import numpy as np
import pytest

from repro.coupler import GlobalSegMap, Router
from repro.grids.remap import index_remap
from repro.esm import first_difference, snapshot
from repro.obs import NULL_OBS, Obs
from repro.parallel import (
    CommRevokedError,
    RankFailure,
    SimWorld,
    reassign_dead_ranks,
    shrink_owners,
)
from repro.resilience import (
    ElasticFieldRun,
    FaultPlan,
    FaultPlanError,
    RecoveryPolicy,
    ResilienceConfig,
)


# -- owner re-partition ------------------------------------------------------


class TestShrinkOwners:
    def test_reassign_adopts_nearest_alive(self):
        owners = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        out = reassign_dead_ranks(owners, {1})
        # the dead block splits between its two nearest neighbors
        assert out.tolist() == [0, 0, 0, 2, 2, 2, 3, 3]

    def test_reassign_tie_breaks_left(self):
        owners = np.array([0, 1, 2])
        out = reassign_dead_ranks(owners, {1})
        assert out.tolist() == [0, 0, 2]

    def test_shrink_owners_renumbers_dense(self):
        owners = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        new, old_to_new = shrink_owners(owners, {2})
        assert sorted(set(new.tolist())) == [0, 1, 2]
        assert old_to_new == {0: 0, 1: 1, 3: 2}
        # dead cells adopted, block contiguity preserved
        assert new.tolist() == [0, 0, 1, 1, 1, 2, 2, 2]

    def test_shrink_owners_keeps_empty_survivors(self):
        # rank 2 owns no cells; numbering must still match SimWorld.shrink
        owners = np.array([0, 0, 1, 1, 3, 3])
        new, old_to_new = shrink_owners(owners, {1}, n_ranks=4)
        assert old_to_new == {0: 0, 2: 1, 3: 2}
        assert new.tolist() == [0, 0, 0, 2, 2, 2]


class TestWorldRepair:
    def test_shrink_renumbers_and_keeps_parents(self):
        world = SimWorld(4)
        new = world.shrink({1})
        assert new.n_ranks == 3
        assert new.parent_ranks == (0, 2, 3)

    def test_spare_promotion_fills_slot(self):
        world = SimWorld(4, n_spares=2)
        new = world.promote_spares({2})
        assert new.n_ranks == 4
        assert new.parent_ranks == (0, 1, 4, 3)  # spare id 4 took slot 2
        # one spare left for the next failure
        assert new.promote_spares({0}).parent_ranks == (5, 1, 4, 3)

    def test_spare_pool_exhaustion_raises(self):
        world = SimWorld(4, n_spares=1)
        new = world.promote_spares({2})
        with pytest.raises(ValueError, match="spare"):
            new.promote_spares({0})

    def test_run_elastic_reports_dead_not_raises(self):
        def program(comm):
            if comm.rank == 1:
                raise RankFailure(comm.rank, "injected")
            # survivors blocked on the dead rank are interrupted by the
            # revoke rather than waiting out the timeout
            comm.recv(source=1, tag=0)
            return comm.rank

        world = SimWorld(3, timeout=10.0)
        outcome = world.run_elastic(program)
        assert outcome.failed
        assert outcome.dead == (1,)
        assert set(outcome.interrupted) == {0, 2}

    def test_plain_run_still_raises_root_cause(self):
        def program(comm):
            if comm.rank == 0:
                raise RankFailure(comm.rank, "injected")
            return comm.rank

        with pytest.raises(RuntimeError, match="RankFailure"):
            SimWorld(2, timeout=10.0).run(program)


# -- coupler-layer repair ----------------------------------------------------


class TestGSMapShrink:
    def test_shrink_reassigns_and_renumbers(self):
        gsmap = GlobalSegMap.from_owners(np.repeat(np.arange(4), 4))
        new, old_to_new = gsmap.shrink({2})
        assert new.n_pes == 3
        owners = new.owner_array()
        assert sorted(set(owners.tolist())) == [0, 1, 2]
        assert old_to_new == {0: 0, 1: 1, 3: 2}

    def test_shrink_preserves_holes(self):
        owners = np.array([0, 0, -1, 1, 1, 2, 2, -1])
        new, _ = GlobalSegMap.from_owners(owners).shrink({1})
        out = new.owner_array()
        assert out[2] == -1 and out[7] == -1  # holes neither adopt nor adopted
        assert sorted(set(out.tolist())) == [-1, 0, 1]


class TestRouterRedistribute:
    def test_moves_survivor_state_and_marks_holes(self):
        old = np.array([0, 0, 1, 1, 2, 2])
        masked = old.copy()
        masked[old == 1] = -1  # rank 1 died
        new, _ = shrink_owners(old, {1}, n_ranks=3)
        router = Router.build(
            GlobalSegMap.from_owners(masked), GlobalSegMap.from_owners(new)
        )
        gfield = np.arange(6.0)
        src = {r: gfield[old == r] for r in (0, 2)}
        dst_sizes = {q: int(np.count_nonzero(new == q)) for q in range(2)}
        out = router.redistribute(src, dst_sizes)
        merged = np.empty(6)
        for q, shard in out.items():
            merged[new == q] = shard
        # survivor cells carry their values; dead cells are NaN holes
        assert np.array_equal(merged[old != 1], gfield[old != 1])
        assert np.isnan(merged[old == 1]).all()


class TestIndexRemap:
    def test_exact_selection(self):
        sel = index_remap(np.array([4, 9, 2]), np.array([2, 9]))
        assert np.array_equal(sel @ np.array([40.0, 90.0, 20.0]),
                              np.array([20.0, 90.0]))

    def test_missing_destination_named(self):
        with pytest.raises(ValueError, match="7"):
            index_remap(np.array([1, 2]), np.array([2, 7]))


# -- the kill-and-continue ocean driver ---------------------------------------


KILL_PLAN = {"seed": 11, "comm": [{"kind": "kill", "rank": 2, "after_ops": 20}]}


@pytest.fixture(scope="module")
def ocean():
    """A 48x32 barotropic ocean, a seeded initial state, and the serial
    solver's state after the driver's 12 steps — the oracle every
    continuation must equal bit for bit."""
    from repro.grids import TripolarGrid
    from repro.ocn import BarotropicSolver, BarotropicState, CGridMetrics

    grid = TripolarGrid.build(48, 32, n_levels=6)
    metrics = CGridMetrics.build(grid)
    rng = np.random.default_rng(0)
    zeros = np.zeros(metrics.shape)
    initial = BarotropicState(
        np.where(metrics.mask_c, 0.1 * rng.standard_normal(metrics.shape), 0.0),
        zeros, zeros,
    )
    solver = BarotropicSolver(metrics, grid.depth)
    serial = initial.copy()
    for _ in range(12):
        serial = solver.step(serial, solver.max_stable_dt())
    return grid, initial, serial


class TestElasticFieldRun:
    def _run(self, tmp_path, ocean, policy, faults=None, obs=NULL_OBS):
        grid, initial, _ = ocean
        return ElasticFieldRun(
            tmp_path / str(policy), grid, initial, policy=policy,
            faults=FaultPlan.from_dict(faults) if faults else None,
            obs=obs,
        ).run()

    def test_abort_surfaces_failure(self, tmp_path, ocean):
        with pytest.raises(RankFailure):
            self._run(tmp_path, ocean, "abort", faults=KILL_PLAN)

    def test_shrink_conserves_and_matches_twin(self, tmp_path, ocean):
        obs = Obs()
        out = self._run(tmp_path, ocean, "shrink", faults=KILL_PLAN, obs=obs)
        assert out.survived_failure
        assert out.n_ranks == 3
        # re-cut to three slabs, the continuation is the serial ocean's bits
        assert first_difference(vars(out.state), vars(ocean[2])) is None
        event = out.recoveries[0]
        assert event.policy == "shrink"
        assert event.dead == (2,)
        assert event.n_ranks_after == 3
        # the dead slab: 32 rows / 4 ranks = 8 rows of 48 columns
        assert event.cells_restored == 8 * 48
        assert event.cells_migrated > 0
        assert event.replayed_steps > 0
        counters = {
            name: h.metrics.get(name).value
            for h in obs.all_ranks() for name in h.metrics.names()
            if name.startswith("resilience.")
        }
        assert counters["resilience.recoveries"] == 1
        assert counters["resilience.ranks_lost"] == 1

    def test_spare_is_bitwise_twin(self, tmp_path, ocean):
        out = self._run(tmp_path, ocean, "spare", faults=KILL_PLAN)
        assert out.survived_failure
        assert out.n_ranks == 4  # decomposition unchanged
        assert first_difference(vars(out.state), vars(ocean[2])) is None
        assert out.recoveries[0].dead_parents == (2,)
        assert out.recoveries[0].cells_restored == 8 * 48

    def test_no_fault_runs_identically_under_any_policy(self, tmp_path, ocean):
        for policy in ("abort", "shrink", "spare"):
            out = self._run(tmp_path, ocean, policy)
            assert not out.survived_failure
            assert first_difference(vars(out.state), vars(ocean[2])) is None

    def test_policy_parse_rejects_unknown(self):
        assert RecoveryPolicy.parse("Shrink") is RecoveryPolicy.SHRINK
        with pytest.raises(ValueError, match="unknown recovery policy"):
            RecoveryPolicy.parse("panic")


# -- fault-plan validation (structured errors) -------------------------------


class TestFaultPlanValidation:
    @pytest.mark.parametrize("doc,fragment", [
        ({"seed": 1, "comm": [{"kind": "kill", "whoops": 2}]},
         r"\$\.comm\[0\]\.whoops"),
        ({"seed": 1, "comm": [{"kind": "kill", "rank": "two"}]},
         r"\$\.comm\[0\]\.rank"),
        ({"seed": 1, "physics": {"kind": "nan"}}, r"\$\.physics"),
        ({"seed": "x"}, r"\$\.seed"),
        ({"seed": 1, "bogus": []}, r"bogus"),
        ({"seed": 1, "crash_at_coupling": "soon"}, r"\$\.crash_at_coupling"),
    ])
    def test_bad_documents_name_the_path(self, doc, fragment):
        with pytest.raises(FaultPlanError, match=fragment):
            FaultPlan.from_dict(doc)

    def test_invalid_json_names_position(self):
        with pytest.raises(FaultPlanError, match="line 1"):
            FaultPlan.from_json("{nope}")

    def test_error_is_a_value_error(self):
        # backward compatibility: older callers catch ValueError
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"seed": 1, "bogus": []})


# -- degraded-mode performance estimate --------------------------------------


class TestDegradedEstimate:
    def test_losing_ranks_slows_the_model(self):
        from repro.bench.scaling import paper_coupled_model

        coupled = paper_coupled_model("3v2")
        est = coupled.degraded_estimate(100, 50, lost1=10)
        assert est["sypd_degraded"] < est["sypd_full"]
        assert est["slowdown"] > 1.0
        assert est["procs_domain1"] == 90.0

    def test_losing_everything_rejected(self):
        from repro.bench.scaling import paper_coupled_model

        coupled = paper_coupled_model("3v2")
        with pytest.raises(ValueError):
            coupled.degraded_estimate(4, 4, lost1=4)


# -- the coupled driver's recovering loop ------------------------------------


def _coupled_config(tmp_path, concurrent=False, every=2):
    from repro.esm import AP3ESMConfig

    return AP3ESMConfig(
        atm_level=3, ocn_nlon=48, ocn_nlat=32, ocn_levels=6,
        concurrent_domains=concurrent,
        resilience=ResilienceConfig(
            enabled=True, checkpoint_every=every, checkpoint_dir=str(tmp_path),
            watchdog_s=20.0 if concurrent else None,
        ),
    )


def _inject_ocean_failure(model, at=3, times=1, error=None):
    """Monkeypatch ocn.pre_coupling to die like a lost node, ``times``
    times, once the coupling counter reaches ``at``.  ``error`` builds
    the raised exception (default: the dead rank's ``RankFailure``)."""
    orig = model.ocn.pre_coupling
    fired = {"n": 0}
    error = error or (lambda: RankFailure(0, "injected node loss in ocean domain"))

    def failing(forcing):
        if model.n_couplings >= at and fired["n"] < times:
            fired["n"] += 1
            raise error()
        return orig(forcing)

    model.ocn.pre_coupling = failing


class TestCoupledRecovery:
    def _twin_state(self, tmp_path, couplings=6):
        from repro.esm import AP3ESM, AP3ESMConfig

        cfg = AP3ESMConfig(
            atm_level=3, ocn_nlon=48, ocn_nlat=32, ocn_levels=6,
            resilience=ResilienceConfig(
                enabled=True, checkpoint_every=2,
                checkpoint_dir=str(tmp_path / "twin"),
            ),
        )
        twin = AP3ESM(cfg)
        twin.init()
        twin.run_couplings(couplings)
        return snapshot(twin)

    # The case ids are the driver's two former recovery policies, which
    # ran this same rollback; each case now injects one of the two forms
    # a lost ocean rank takes: the dead rank's own ``RankFailure``, and
    # the revoked communicator its survivors see.
    @pytest.mark.parametrize("error", [
        pytest.param(lambda: RankFailure(0, "injected node loss"), id="shrink"),
        pytest.param(lambda: CommRevokedError(1, {0}), id="spare"),
    ])
    def test_recovers_and_matches_twin(self, tmp_path, error):
        """A checkpointed run recovers a rank loss in the ocean although no
        recovery option exists: rollback + replay is the one path, and the
        task-domain layout is the fault-free one afterwards."""
        from repro.esm import AP3ESM

        twin = self._twin_state(tmp_path)
        model = AP3ESM(_coupled_config(tmp_path / "faulted"))
        model.init()
        layout = model.task_domains()
        _inject_ocean_failure(model, error=error)
        model.run_couplings(6)
        assert len(model.recovery_events) == 1
        event = model.recovery_events[0]
        assert event["domain"] == "domain2"
        assert event["error"] == type(error()).__name__
        assert event["restored_to_coupling"] <= event["failed_at_coupling"]
        assert first_difference(snapshot(model), twin) is None
        assert model.task_domains() == layout

    def test_loss_before_first_checkpoint_surfaces(self, tmp_path):
        """With no set in the rotation yet there is nothing to roll back
        to: the original failure surfaces and nothing is written."""
        from repro.esm import AP3ESM

        model = AP3ESM(_coupled_config(tmp_path, every=10))
        model.init()
        _inject_ocean_failure(model, at=0)
        with pytest.raises(RankFailure) as info:
            model.run_couplings(6)
        model.scheduler.shutdown()
        assert model.recovery_events == []
        assert model.checkpoints.checkpoints() == []
        with pytest.raises(RankFailure) as again:
            model.recover_from_failure(info.value)
        assert again.value is info.value

    def test_concurrent_domain_kill_recovers_without_deadlock(self, tmp_path):
        """A rank kill inside the threaded ocean domain, with
        --concurrent-domains and the watchdog armed, recovers without
        deadlocking the watchdog — and the continuation is
        bitwise-identical to the serial fault-free twin."""
        from repro.esm import AP3ESM

        twin = self._twin_state(tmp_path)
        model = AP3ESM(_coupled_config(tmp_path / "conc", concurrent=True))
        model.init()
        _inject_ocean_failure(model)
        model.run_couplings(6)
        model.scheduler.shutdown()
        assert len(model.recovery_events) == 1
        assert model.recovery_events[0]["domain"] == "domain2"
        assert first_difference(snapshot(model), twin) is None

    def test_concurrent_domain_kill_abort_surfaces_cleanly(self, tmp_path):
        """Without a checkpoint manager the same kill surfaces as a
        structured error (not a hang) and leaves no stuck thread."""
        from repro.esm import AP3ESM, AP3ESMConfig

        cfg = AP3ESMConfig(
            atm_level=3, ocn_nlon=48, ocn_nlat=32, ocn_levels=6,
            concurrent_domains=True,
            resilience=ResilienceConfig(enabled=True, watchdog_s=20.0),
        )
        model = AP3ESM(cfg)
        model.init()
        assert model.checkpoints is None
        _inject_ocean_failure(model)
        with pytest.raises(RankFailure):
            model.run_couplings(10)
            model._publish_ocean()  # surface the latent lagged failure
        model.scheduler.shutdown()

    def test_persistent_fault_gives_up_after_retry_cap(self, tmp_path):
        from repro.esm import AP3ESM

        model = AP3ESM(_coupled_config(tmp_path))
        model.init()
        _inject_ocean_failure(model, times=100)
        with pytest.raises(RankFailure):
            model.run_couplings(6)
        assert len(model.recovery_events) == model.MAX_RECOVERY_RETRIES


# -- chaos + reporting -------------------------------------------------------


class TestKillChaos:
    def test_kill_and_continue_stage(self, tmp_path):
        from repro.resilience.chaos import run_chaos

        plan = FaultPlan.from_dict(KILL_PLAN)
        report = run_chaos(plan, couplings=2)
        assert report.survived
        assert report.kill_ranks == 1
        assert report.shrink_recovered is True
        assert report.shrink_ranks_after == 3
        assert report.shrink_bitwise_identical is True
        assert report.spare_bitwise_identical is True
        assert report.counters["resilience.recoveries"] >= 2
        assert "spare bitwise identical: True" in report.summary()

    @pytest.mark.parametrize("kill", [
        {"kind": "kill", "rank": 2, "after_ops": 100000},  # never reached
        {"kind": "kill", "rank": 9, "after_ops": 20},      # no such rank
    ])
    def test_kill_that_never_fires_does_not_survive(self, kill):
        from repro.resilience.chaos import run_chaos

        report = run_chaos(FaultPlan.from_dict({"seed": 11, "comm": [kill]}),
                           couplings=1)
        assert report.kill_ranks == 0
        assert report.shrink_recovered is False
        assert not report.survived


class TestInterventionReport:
    def test_resilience_section_appears_when_nonzero(self):
        from repro.obs.export import counter_totals, text_report

        obs = Obs()
        obs.counter("resilience.recoveries").inc()
        obs.fork(1).counter("resilience.ranks_lost").inc(2)
        regs = [h.metrics for h in obs.all_ranks()]
        totals = counter_totals(regs, ("resilience.", "ensemble.supervisor."))
        assert totals == {"resilience.recoveries": 1.0,
                          "resilience.ranks_lost": 2.0}
        report = text_report([h.tracer for h in obs.all_ranks()], regs)
        assert "resilience interventions" in report
        assert "resilience.ranks_lost" in report

    def test_clean_run_has_no_section(self):
        from repro.obs.export import text_report

        obs = Obs()
        obs.counter("cpl.steps").inc(4)
        obs.fork(1).counter("ocn.steps").inc(2)
        report = text_report(
            [h.tracer for h in obs.all_ranks()],
            [h.metrics for h in obs.all_ranks()],
        )
        assert "resilience interventions" not in report


class TestCliFlag:
    def test_default_is_abort_and_config_free(self):
        from repro.cli import _resilience_config, build_parser

        args = build_parser().parse_args(["run-coupled"])
        assert _resilience_config(args) is None
