"""Tests for the Component protocol, the shared ComponentContext, the
task-domain scheduler, and the model-wide precision policy."""

import numpy as np
import pytest

from repro.esm import (
    AP3ESM,
    AP3ESMConfig,
    Component,
    ComponentContext,
    TaskDomain,
    TaskDomainScheduler,
    default_mixed_policy,
    first_difference,
    paper_layout,
    precision_policy,
    snapshot,
)
from repro.obs import Obs
from repro.precision import Precision

TINY = dict(atm_level=3, ocn_nlon=48, ocn_nlat=32, ocn_levels=5)


@pytest.fixture(scope="module")
def serial_model():
    m = AP3ESM(AP3ESMConfig(**TINY))
    m.init()
    m.run_couplings(12)
    return m


class TestComponentProtocol:
    def test_all_four_components_conform(self, serial_model):
        for comp in serial_model.components:
            assert isinstance(comp, Component), comp.name
        assert [c.name for c in serial_model.components] == [
            "atm", "ocn", "ice", "lnd"
        ]

    def test_one_shared_kernel_table(self, serial_model, monkeypatch):
        """Every component registered its kernels into ONE hash registry
        (atm 5 + ocn 3 + ice 1 + lnd 1) — once, at import: a run launches
        by hash and registers nothing (§5.3)."""
        from repro.pp import KERNELS, KernelRegistry

        assert serial_model.ctx.kernels is KERNELS and len(KERNELS) == 10
        m = AP3ESM(AP3ESMConfig(**TINY))
        m.init()
        calls = []
        monkeypatch.setattr(
            KernelRegistry, "register", lambda self, fn, name=None: calls.append(fn)
        )
        m.run_couplings(2)
        assert calls == [] and len(m.ctx.kernels) == 10
        assert m.ctx.metrics.summary()["atm.radiation"]["launches"] > 0

    def test_state_set_state_roundtrip(self, serial_model):
        for comp in serial_model.components:
            state = comp.state()
            assert state, comp.name
            copied = {k: np.array(v, copy=True) for k, v in state.items()}
            comp.set_state(copied)
            assert first_difference(copied, comp.state()) is None, comp.name

    def test_context_namespaces_state(self, serial_model):
        keys = serial_model.ctx.namespaced_state(serial_model.ocn)
        assert all(k.startswith("ocn.") for k in keys)
        assert "ocn.t" in keys


# -- the ComponentBase contract (one schema per model, plumbing inherited) ----

#: The on-disk format pin: restart field names per component.
GOLDEN_RESTART_FIELDS = {
    "atm": ["h", "u", "t_col", "q_col", "tracer", "tskin", "ice_fraction"],
    "ocn": ["t", "s", "u", "v", "eta", "bt_u", "bt_v",
            "taux", "tauy", "heat_flux", "fresh_flux"],
    "ice": ["thickness", "concentration", "tsurf"],
    "lnd": ["tskin", "bucket", "snow", "runoff_total"],
}


def _build(name):
    from repro.atm import GristConfig, GristModel
    from repro.grids.tripolar import TripolarGrid
    from repro.ice import CiceModel
    from repro.lnd import LandModel
    from repro.ocn import LicomConfig, LicomModel

    if name == "atm":
        return GristModel(GristConfig(level=2, nlev=8))
    if name == "ocn":
        return LicomModel(LicomConfig(nlon=24, nlat=16, n_levels=4))
    if name == "ice":
        return CiceModel(TripolarGrid.build(24, 16, n_levels=4))
    return LandModel(40)


def _force(m):
    """Boundary data as the coupler would import it."""
    if m.name == "atm":
        n = m.grid.n_cells
        m.pre_coupling({"sst": np.linspace(270.0, 300.0, n),
                        "ice_fraction": np.linspace(0.0, 0.6, n)})
    elif m.name == "ocn":
        shape = m.metrics.shape
        m.pre_coupling({"taux": np.full(shape, 0.08),
                        "heat_flux": np.full(shape, -60.0),
                        "fresh_flux": np.full(shape, 1e-8)})
    elif m.name == "ice":
        shape = m.metrics.shape
        m.pre_coupling({"t_air": np.full(shape, -20.0),
                        "glw": np.full(shape, 180.0),
                        "freezing": m.grid.mask.copy(),
                        "u_drift": np.full(shape, 0.1)})
    else:
        n = m.n_cells
        m.pre_coupling({"gsw": np.full(n, 200.0), "glw": np.full(n, 300.0),
                        "precip": np.full(n, 2e-7), "t_air": np.full(n, 280.0)})


def _advance(m):
    # atm/ocn hold their forcing between couplings (it is in the restart);
    # ice/lnd are re-forced by the driver before every step.
    if m.name in ("ice", "lnd"):
        _force(m)
        m.step(600.0)
    else:
        m.step()


@pytest.mark.parametrize("bound", [False, True], ids=["standalone", "bound"])
@pytest.mark.parametrize("name", ["atm", "ocn", "ice", "lnd"])
def test_component_base_contract(name, bound, tmp_path):
    import json

    ctx = ComponentContext() if bound else None

    def fresh():
        m = _build(name)
        if ctx is not None:
            m.set_context(ctx)
        with pytest.raises(RuntimeError, match="not initialized"):
            m.state()
        m.init()
        return m

    straight = fresh()
    assert isinstance(straight, Component)
    if ctx is not None:
        # One table whichever component binds: all joined it at import.
        assert straight.ctx is ctx and len(ctx.kernels) == 10
    _force(straight)
    _advance(straight)
    _advance(straight)

    first = fresh()
    _force(first)
    _advance(first)
    first.save_restart(tmp_path)
    manifest = json.loads((tmp_path / "restart.json").read_text())
    assert list(first.state()) == list(first.STATE)
    assert set(first.state()) <= set(manifest["fields"])
    assert sorted(manifest["fields"]) == sorted(GOLDEN_RESTART_FIELDS[name])
    assert sorted(manifest["scalars"]) == ["n_steps", "time"]

    second = fresh()
    second.load_restart(tmp_path)
    _advance(second)
    assert (second.time, second.n_steps) == (straight.time, straight.n_steps)
    assert first_difference(straight.state(), second.state()) is None, name

    # set_state: partial dicts rebind only what they name, unknown keys
    # are ignored, and state() hands back the live arrays.
    before = second.state()
    key = next(iter(before))
    replacement = before[key] + 1.0
    second.set_state({key: replacement, "no_such_field": replacement})
    after = second.state()
    assert after[key] is replacement
    assert all(after[k] is before[k] for k in before if k != key)


@pytest.mark.parametrize("split", [(2, 2), (6, 4)])
def test_coupled_restart_at_split_point(split, tmp_path):
    """run N+M couplings == run N, save_restart, fresh model,
    load_restart, run M — every component bitwise (the second split
    crosses an ocean alarm with an unpublished export pending)."""
    n, m = split
    straight = AP3ESM(AP3ESMConfig(**TINY))
    straight.init()
    straight.run_couplings(n + m)
    first = AP3ESM(AP3ESMConfig(**TINY))
    first.init()
    first.run_couplings(n)
    first.save_restart(tmp_path)
    second = AP3ESM(AP3ESMConfig(**TINY))
    second.init()
    second.load_restart(tmp_path)
    second.run_couplings(m)
    assert first_difference(snapshot(straight), snapshot(second)) is None


class TestTaskDomainScheduler:
    def test_layout_matches_paper(self, serial_model):
        domains = serial_model.task_domains()
        assert domains["domain1"]["members"] == ["cpl", "atm", "ice", "lnd"]
        assert domains["domain2"]["members"] == ["ocn"]
        assert domains == paper_layout()

    def test_serial_launch_runs_immediately(self):
        sched = TaskDomainScheduler(concurrent=False)
        ran = []
        handle = sched.launch("domain2", lambda obs: ran.append(1) or "out")
        assert ran == [1]          # executed before result() was asked for
        assert handle.done()
        assert handle.result() == "out"

    def test_concurrent_launch_runs_on_worker_thread(self):
        import threading

        sched = TaskDomainScheduler(concurrent=True)
        try:
            main = threading.current_thread().name
            handle = sched.launch(
                "domain2", lambda obs: threading.current_thread().name
            )
            assert handle.result() != main
            sched.drain()
        finally:
            sched.shutdown()

    def test_launch_exception_surfaces_at_join(self):
        sched = TaskDomainScheduler(concurrent=True)
        try:
            def boom(obs):
                raise RuntimeError("ocean blew up")

            handle = sched.launch("domain2", boom)
            with pytest.raises(RuntimeError, match="ocean blew up"):
                handle.result()
        finally:
            sched.shutdown()

    def test_unknown_domain_rejected(self):
        sched = TaskDomainScheduler(concurrent=False)
        with pytest.raises(KeyError):
            sched.execute("domain9", lambda obs: None)

    def test_duplicate_domain_names_rejected(self):
        dup = (TaskDomain("d", ("a",)), TaskDomain("d", ("b",)))
        with pytest.raises(ValueError):
            TaskDomainScheduler(dup)


class TestConcurrentSchedule:
    def test_concurrent_bitwise_identical_to_serial(self, serial_model):
        """§5.1.2 with lagged coupling: threading the ocean domain must
        not change a single bit of any component's state."""
        conc = AP3ESM(AP3ESMConfig(concurrent_domains=True, **TINY))
        conc.init()
        conc.run_couplings(12)
        assert first_difference(snapshot(serial_model), snapshot(conc)) is None
        assert conc.ocn.n_steps == serial_model.ocn.n_steps

    def test_procs_backend_bitwise_identical_to_serial(self, serial_model):
        """The ProcPool tentpole end-to-end: fanning every component
        kernel across worker processes must not change a single bit of
        any component's state."""
        procs = AP3ESM(AP3ESMConfig(backend="procs", backend_workers=2, **TINY))
        procs.init()
        try:
            procs.run_couplings(12)
            assert first_difference(snapshot(serial_model), snapshot(procs)) is None
            stats = procs.pool_stats()
            assert stats is not None
            assert stats.workers == 2
            assert stats.dispatches > 0  # kernels really crossed the pool
        finally:
            procs.finalize()

    def test_explicit_space_wins_over_config_backend(self):
        from repro.pp import ExecutionSpace

        space = ExecutionSpace("cut", lanes=4)
        m = AP3ESM(AP3ESMConfig(backend="procs", **TINY), space=space)
        m.init()
        assert m.ctx.space is space
        assert m.pool_stats() is None  # no config-owned pool was built

    def test_ocean_gets_private_timers_when_concurrent(self):
        """The tracer stack is per-thread state: the ocean's phase spans
        sit on the forked domain-2 rank when it runs on its own thread,
        on rank 0 otherwise — nested under ``ocn.run`` either way."""
        for concurrent, ocn_rank in ((True, 2), (False, 0)):
            obs = Obs()
            m = AP3ESM(AP3ESMConfig(concurrent_domains=concurrent, **TINY), obs=obs)
            m.init()
            m.run_couplings(6)
            m.finalize()
            for phase in ("ocn.barotropic", "ocn.baroclinic", "ocn.tracer"):
                spans = [s for o in obs.all_ranks() for s in o.tracer.find(phase)]
                assert spans, phase
                assert {s.rank for s in spans} == {ocn_rank}, phase
                assert {s.parent for s in spans} == {"ocn.run"}, phase
            assert not any(o.tracer._stack for o in obs.all_ranks())

    @pytest.mark.parametrize("concurrent", [False, True])
    def test_obs_on_off_is_bitwise_neutral(self, concurrent):
        """Tracing only observes: the same config with ``obs=None`` and
        ``obs=Obs()`` ends in the same bytes on either schedule."""
        states = []
        for obs in (None, Obs()):
            m = AP3ESM(
                AP3ESMConfig(concurrent_domains=concurrent, **TINY), obs=obs
            )
            m.init()
            m.run_couplings(10)
            states.append(snapshot(m))
            m.finalize()
        assert first_difference(*states) is None


class TestPrecisionCoupled:
    def test_policy_names(self):
        assert not precision_policy("fp64").assignments
        assert precision_policy("mixed").assignments
        with pytest.raises(ValueError):
            precision_policy("fp16")

    def test_mixed_run_stays_physical_and_reports_groups(self):
        """The §5.2.3 policy exercised by the coupled driver: FP32 groups
        appear in the ledger and the climate stays physical."""
        m = AP3ESM(AP3ESMConfig(precision="mixed", **TINY))
        m.init()
        m.run_couplings(12)
        rep = m.memory_report()
        assert rep["n_fp32_groupscaled"] >= 2
        assert rep["n_fp32"] >= 8
        assert 0.0 < rep["saving_fraction"] < 1.0
        assert rep["bytes_mixed"] < rep["bytes_fp64"]
        wet = m.ocn.mask3d
        assert np.isfinite(m.ocn.t[wet]).all()
        assert m.ocn.t[wet].min() >= -1.8 - 1e-3
        assert 170.0 < m.atm.tskin.min() and m.atm.tskin.max() < 345.0

    def test_apply_precision_roundtrip_through_coupled_step(self, serial_model):
        """apply() through GroupScale is a projection: a second pass over
        already-rounded state is bitwise idempotent, and the first pass
        stays within FP32 relative error of the FP64 state."""
        ctx = ComponentContext(precision=default_mixed_policy())
        ocn = serial_model.ocn
        before = {k: np.array(v, copy=True) for k, v in ocn.state().items()}
        try:
            ctx.apply_precision(ocn)
            once = {k: np.array(v, copy=True) for k, v in ocn.state().items()}
            ctx.apply_precision(ocn)
            twice = ocn.state()
            for key in once:
                assert np.array_equal(once[key], twice[key]), key
                scale = np.max(np.abs(before[key])) or 1.0
                assert np.max(np.abs(once[key] - before[key])) <= 1e-5 * scale
        finally:
            ocn.set_state(before)

    def test_fp64_policy_is_identity(self, serial_model):
        ctx = ComponentContext(precision=precision_policy("fp64"))
        ice = serial_model.ice
        before = {k: np.array(v, copy=True) for k, v in ice.state().items()}
        ctx.apply_precision(ice)
        assert first_difference(before, ice.state()) is None

    def test_default_mixed_policy_keeps_accumulators_fp64(self):
        policy = default_mixed_policy()
        assert policy.precision_of("lnd.runoff_total") is Precision.FP64
        assert policy.precision_of("ocn.t") is Precision.FP32_GROUPSCALED


class TestKernelMetricsSurface:
    def test_traced_run_records_kernel_activity(self):
        """Satellite: pp KernelStats flow into repro.obs — a traced
        coupled step shows per-kernel launch counters and iteration
        histograms."""
        from repro.obs import Obs

        obs = Obs()
        m = AP3ESM(AP3ESMConfig(**TINY), obs=obs)
        m.init()
        m.run_couplings(2)
        names = set(obs.metrics.names())
        for kernel in ("atm.radiation", "ice.thermo", "lnd.bucket"):
            assert f"pp.{kernel}.launches" in names
            assert f"pp.{kernel}.iterations" in names
        assert obs.metrics.counter("pp.ice.thermo.launches").value == 2

    def test_null_obs_run_records_nothing(self, serial_model):
        assert serial_model.obs.enabled is False
