"""Tests for the ensemble runtime: multi-instance sessions, lockstep
stepping, cross-member batched physics, and the bitwise twin contracts."""

import numpy as np
import pytest

from repro.atm import (
    AIPhysicsSuite,
    ConventionalPhysics,
    generate_training_archive,
    synthetic_columns,
)
from repro.atm.columns import ColumnState
from repro.esm import (
    AP3ESM,
    AP3ESMConfig,
    BatchedPhysicsDriver,
    ComponentContext,
    EnsembleConfig,
    EnsembleRun,
    first_difference,
    precision_policy,
    snapshot,
)
from repro.obs import Obs

SMALL = dict(atm_level=2, ocn_nlon=24, ocn_nlat=16, ocn_levels=4)


def _small_config(**overrides) -> AP3ESMConfig:
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return AP3ESMConfig(**kwargs)


def _kernel_counts(member):
    """{kernel: (launches, iterations)} of one member's metrics pool."""
    return {
        k: (row["launches"], row["iterations"])
        for k, row in member.ctx.metrics.summary().items()
    }


class TestEnsembleConfig:
    def test_needs_at_least_one_member(self):
        with pytest.raises(ValueError, match="at least one"):
            EnsembleConfig(members=0)

    def test_member_config_applies_deltas(self):
        cfg = EnsembleConfig(
            base=_small_config(), members=3,
            config_deltas=[{}, {"atm_steps_per_coupling": 2}],
        )
        assert cfg.member_config(0).atm_steps_per_coupling == \
            cfg.base.atm_steps_per_coupling
        assert cfg.member_config(1).atm_steps_per_coupling == 2
        # Trailing members past the delta list stay at the base config.
        assert cfg.member_config(2) == cfg.base

    def test_member_config_rejects_unknown_keys(self):
        cfg = EnsembleConfig(
            base=_small_config(), members=2,
            config_deltas=[{}, {"no_such_field": 1}],
        )
        with pytest.raises(ValueError, match="unknown keys"):
            cfg.member_config(1)


class TestPerturbations:
    def test_member_zero_never_perturbed_and_members_distinct(self):
        ens = EnsembleRun(EnsembleConfig(base=_small_config(), members=3))
        ens.init()
        solo = AP3ESM(_small_config())
        solo.init()
        s0, s1, s2 = map(snapshot, ens.members)
        assert first_difference(s0, snapshot(solo)) is None
        assert first_difference(s0, s1) == first_difference(s1, s2) == "atm.t_col"

    def test_perturbations_deterministic(self):
        a = EnsembleRun(EnsembleConfig(base=_small_config(), members=2,
                                       perturb_seed=7))
        a.init()
        b = EnsembleRun(EnsembleConfig(base=_small_config(), members=2,
                                       perturb_seed=7))
        b.init()
        assert first_difference(snapshot(a), snapshot(b)) is None
        c = EnsembleRun(EnsembleConfig(base=_small_config(), members=2,
                                       perturb_seed=8))
        c.init()
        # Only member 1's atmosphere temperature is perturbed.
        assert first_difference(snapshot(a), snapshot(c)) == "member1.atm.t_col"

    def test_zero_amplitude_disables_perturbation(self):
        ens = EnsembleRun(EnsembleConfig(base=_small_config(), members=2,
                                         perturb_amplitude=0.0))
        ens.init()
        assert first_difference(*map(snapshot, ens.members)) is None


class TestLockstepBitwise:
    """The tentpole contracts: member 0 is a bitwise solo twin, and
    batched physics is bitwise-identical to per-member stepping."""

    COUPLINGS = 3

    def _run_solo(self):
        solo = AP3ESM(_small_config())
        solo.init()
        solo.run_couplings(self.COUPLINGS)
        return solo

    def _run_ensemble(self, batch):
        ens = EnsembleRun(EnsembleConfig(base=_small_config(), members=3,
                                         batch_physics=batch))
        ens.init()
        ens.run_couplings(self.COUPLINGS)
        return ens

    def test_member0_bitwise_vs_solo_batched(self):
        solo = self._run_solo()
        ens = self._run_ensemble(batch=True)
        assert first_difference(snapshot(solo), snapshot(ens.members[0])) is None
        # Perturbed members really diverged.
        assert not np.array_equal(ens.members[0].atm.t_col,
                                  ens.members[1].atm.t_col)

    def test_batched_equals_unbatched_stepping(self):
        batched = self._run_ensemble(batch=True)
        plain = self._run_ensemble(batch=False)
        assert first_difference(snapshot(batched), snapshot(plain)) is None

    def test_fleet_call_accounting(self):
        ens = self._run_ensemble(batch=True)
        summary = ens.summary()
        bp = summary["batched_physics"]
        steps = self.COUPLINGS * ens.config.base.atm_steps_per_coupling
        assert bp["fleet_steps"] == steps
        assert bp["fleet_calls"] == steps
        ncol = ens.members[0].atm.grid.n_cells
        assert bp["columns_total"] == steps * 3 * ncol
        assert summary["sypd"]["mean"] > 0
        assert summary["spread"]["t_bot"] > 0


class TestBatchedPhysicsDriver:
    def _columns(self, sizes, nlev=10):
        return [synthetic_columns(n, nlev, season=i % 4, step=i, seed=i)
                for i, n in enumerate(sizes)]

    def test_conventional_batched_bitwise(self):
        suite = ConventionalPhysics()
        cols = self._columns([16, 5, 1, 40])
        driver = BatchedPhysicsDriver([suite] * 4, batch=True)
        batched = driver.compute(cols, 120.0)
        sequential = [suite.compute(c, 120.0) for c in cols]
        for b, s in zip(batched, sequential):
            for fld in ("du", "dv", "dt", "dq", "gsw", "glw",
                        "precip", "cloud_fraction"):
                assert np.array_equal(getattr(b, fld), getattr(s, fld)), fld
        assert driver.fleet_calls == 1
        assert driver.columns_total == 62

    def test_ai_suite_batched_bitwise(self, tiny_ai_suite):
        """One CNN/MLP forward over the stacked fleet reproduces the
        per-member forwards bit-for-bit (incl. a single-column member,
        the gemv/gemm edge case)."""
        self._assert_batched_bitwise(tiny_ai_suite)

    def test_ai_suite_batched_bitwise_mixed(self, tiny_ai_suite):
        """The same twin with the suite bound to a ``mixed`` context, so
        both nets run their forward pass in fp32: the fixed GEMM row
        blocks keep fleet == per-member bitwise in fp32 too."""
        tiny_ai_suite.bind(ComponentContext(precision=precision_policy("mixed")))
        try:
            assert tiny_ai_suite.tendency_trainer.dtype == np.float32
            self._assert_batched_bitwise(tiny_ai_suite)
        finally:
            tiny_ai_suite.bind(ComponentContext())

    def _assert_batched_bitwise(self, suite):
        cols = self._columns([7, 1, 12])
        driver = BatchedPhysicsDriver([suite] * 3, batch=True)
        batched = driver.compute(cols, 120.0)
        for b, c in zip(batched, cols):
            solo = suite.compute(c, 120.0)
            for fld in ("du", "dv", "dt", "dq", "gsw", "glw", "precip"):
                assert np.array_equal(getattr(b, fld), getattr(solo, fld)), fld

    def test_sequential_path_counts_member_calls(self):
        suite = ConventionalPhysics()
        driver = BatchedPhysicsDriver([suite] * 2, batch=False)
        driver.compute(self._columns([4, 4]), 120.0)
        assert driver.member_calls == 2
        assert driver.fleet_calls == 0

    def test_rejects_mismatched_suites(self):
        from repro.atm.physics import PhysicsParams

        a = ConventionalPhysics()
        other = ConventionalPhysics(params=PhysicsParams(albedo=0.5))
        with pytest.raises(ValueError, match="different physics parameters"):
            BatchedPhysicsDriver([a, other], batch=True)

    def test_rejects_guarded_suites(self):
        from repro.resilience.guardrail import GuardedPhysics

        guarded = GuardedPhysics(ConventionalPhysics())
        with pytest.raises(ValueError, match="guardrail"):
            BatchedPhysicsDriver([guarded, guarded], batch=True)

    def test_concat_requires_shared_pressure(self):
        a = synthetic_columns(4, 10, season=0, step=0)
        b = synthetic_columns(4, 8, season=0, step=0)
        with pytest.raises(ValueError, match="pressure"):
            ColumnState.concat([a, b])


@pytest.fixture(scope="module")
def tiny_ai_suite():
    archive = generate_training_archive(
        n_days=8, steps_per_day=4, ncol_per_step=8, nlev=10
    )
    return AIPhysicsSuite.train(archive, epochs=3, width=16, lr=3e-3)


class TestEnsembleGuards:
    def test_batch_physics_needs_uniform_atmosphere(self):
        cfg = EnsembleConfig(
            base=_small_config(), members=2, batch_physics=True,
            config_deltas=[{}, {"atm_steps_per_coupling": 2}],
        )
        with pytest.raises(ValueError, match="uniform atmosphere"):
            EnsembleRun(cfg).init()

    def test_batch_physics_rejects_guardrail(self):
        from repro.resilience import ResilienceConfig

        res = ResilienceConfig(enabled=True, guard_physics=True)
        cfg = EnsembleConfig(
            base=_small_config(resilience=res), members=2, batch_physics=True,
        )
        with pytest.raises(ValueError, match="guardrail"):
            EnsembleRun(cfg).init()

    def test_stepping_before_init_raises(self):
        ens = EnsembleRun(EnsembleConfig(base=_small_config()))
        with pytest.raises(RuntimeError, match="init"):
            ens.step_coupling()


class TestEnsembleObservability:
    def test_member_prefixes_in_shared_registry(self):
        obs = Obs()
        ens = EnsembleRun(
            EnsembleConfig(base=_small_config(), members=2), obs=obs
        )
        ens.init()
        ens.run_couplings(1)
        ens.summary()
        names = obs.metrics.names()
        assert any(n.startswith("member.0.") for n in names)
        assert any(n.startswith("member.1.") for n in names)
        assert "ensemble.sypd.mean" in names
        assert "ensemble.spread.t_bot" in names

    def test_concurrent_members_keep_prefix_on_their_own_ocean_lane(self):
        """A forked view keeps its prefix and no two threads share a
        tracer stack: each member's domain-2 spans sit, prefixed, on a
        lane of that member's own, and every lane nests cleanly."""
        obs = Obs()
        ens = EnsembleRun(
            EnsembleConfig(base=_small_config(concurrent_domains=True), members=2),
            obs=obs,
        )
        ens.init()
        ens.run_couplings(6)
        ens.finalize()
        lanes = {}
        for handle in obs.all_ranks():
            tracer = handle.tracer
            assert not tracer._stack
            for span in tracer.spans:
                if span.depth:
                    assert any(
                        p.path == span.path[:-1]
                        and p.start <= span.start and span.end <= p.end
                        for p in tracer.spans
                    ), (handle.rank, span.path)
            for k in (0, 1):
                if tracer.find(f"member.{k}.ocn.barotropic"):
                    lanes.setdefault(k, set()).add(handle.rank)
            if handle.rank != 0:
                assert all(s.name.startswith("member.") for s in tracer.spans)
        assert set(lanes) == {0, 1}
        assert lanes[0].isdisjoint(lanes[1]) and 0 not in lanes[0] | lanes[1]

    def test_batched_counters_recorded(self):
        obs = Obs()
        ens = EnsembleRun(
            EnsembleConfig(base=_small_config(), members=2,
                           batch_physics=True),
            obs=obs,
        )
        ens.init()
        ens.run_couplings(1)
        names = obs.metrics.names()
        assert "ensemble.physics.fleet_calls" in names
        assert "ensemble.physics.columns" in names


class TestRegistryFactories:
    """One process-wide kernel table, per-context launch metrics: the
    table is shared by construction, the counts never are."""

    def test_launch_counts_stay_per_instance(self):
        from repro.component import ComponentContext

        cols = synthetic_columns(8, 10, season=0, step=0)
        ca, cb = ComponentContext(), ComponentContext()
        assert ca.kernels is cb.kernels and ca.metrics is not cb.metrics
        pa = ConventionalPhysics(ctx=ca)
        pb = ConventionalPhysics()
        pb.bind(cb)
        pa.compute(cols, 120.0)
        pa.compute(cols, 120.0)
        pb.compute(cols, 120.0)
        assert ca.metrics.summary()["atm.radiation"]["launches"] == 2
        assert cb.metrics.summary()["atm.radiation"]["launches"] == 1

        # Metrics follow the caller, not the last bind(): members sharing
        # ONE suite object each count their own atmosphere's launches ...
        def atm_counts(ens):
            ens.init()
            ens.run_couplings(2)
            return [
                {k: v for k, v in _kernel_counts(m).items() if k.startswith("atm.")}
                for m in ens.members
            ]

        shared = _small_config(physics=ConventionalPhysics())
        solo, twin = atm_counts(EnsembleRun(EnsembleConfig(base=shared, members=2)))
        assert solo == twin and solo["atm.radiation"][0] > 0
        # ... and a batched fleet call counts on member 0, whose suite runs
        # it: as many launches as one member made, over both members' columns.
        lead, rest = atm_counts(EnsembleRun(
            EnsembleConfig(base=shared, members=2, batch_physics=True)))
        assert rest == {}
        assert lead == {k: (n, 2 * its) for k, (n, its) in solo.items()}

    def test_ensemble_members_do_not_share_kernel_metrics(self):
        ens = EnsembleRun(EnsembleConfig(base=_small_config(), members=2))
        ens.init()
        ens.run_couplings(1)
        a, b = ens.members
        assert a.ctx.kernels is b.ctx.kernels and a.ctx.metrics is not b.ctx.metrics
        assert _kernel_counts(a) == _kernel_counts(b) != {}


class TestEnsembleRestarts:
    def test_save_restarts_layout(self, tmp_path):
        ens = EnsembleRun(EnsembleConfig(base=_small_config(), members=2))
        ens.init()
        ens.run_couplings(1)
        ens.save_restart(tmp_path / "rst")
        for k in range(2):
            assert (tmp_path / "rst" / f"member{k}" / "atm").is_dir()
            assert (tmp_path / "rst" / f"member{k}" / "ocn").is_dir()


def _session(kind, directory):
    """A solo AP3ESM or a 2-member EnsembleRun over one checkpointing
    base config — the two implementations of the coupled-session surface."""
    from repro.resilience import ResilienceConfig

    base = _small_config(resilience=ResilienceConfig(
        enabled=True, guard_physics=False, checkpoint_every=4,
        checkpoint_dir=str(directory)))
    if kind == "solo":
        return AP3ESM(base), [""]
    return (EnsembleRun(EnsembleConfig(base=base, members=2)),
            ["member0/", "member1/"])


@pytest.mark.parametrize("kind", ["solo", "fleet"])
def test_coupled_session_conformance(tmp_path, kind):
    """AP3ESM and EnsembleRun expose one session surface: init /
    step_coupling / run_couplings / n_couplings / has_checkpoint /
    checkpoint / recover / save_restart / pool_stats / finalize."""
    session, prefixes = _session(kind, tmp_path / "ckpt")
    session.init()
    assert session.pool_stats() is None  # serial backend
    assert session.has_checkpoint() is False
    session.step_coupling()
    session.checkpoint()
    assert session.has_checkpoint() is True
    session.run_couplings(2)
    assert session.n_couplings == 3
    session.recover()
    assert session.n_couplings == 1
    session.run_couplings(5)
    session.save_restart(tmp_path / "rst")
    for prefix in prefixes:
        for name in ("atm", "ocn", "ice", "lnd", "cpl"):
            assert (tmp_path / "rst" / f"{prefix}{name}").is_dir()

    # One loop, neutral when idle: a straight checkpointed run with no
    # fault ends bitwise-equal to the recovered session above.
    straight, _ = _session(kind, tmp_path / "straight")
    straight.init()
    straight.run_couplings(6)
    assert first_difference(snapshot(session), snapshot(straight)) is None
    session.finalize()
    straight.finalize()
