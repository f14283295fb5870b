"""Tests for the coupled AP3ESM driver and its diagnostics."""

import numpy as np
import pytest

from repro.esm import AP3ESM, AP3ESMConfig, surface_kinetic_energy, surface_rossby_number
from repro.esm.diagnostics import atm_snapshot, cold_wake, wind_speed_10m
from repro.obs import Obs


@pytest.fixture(scope="module")
def coupled():
    m = AP3ESM(AP3ESMConfig(atm_level=3, ocn_nlon=64, ocn_nlat=48, ocn_levels=8),
               obs=Obs())
    m.init()
    m.run_couplings(12)
    return m


class TestDriver:
    def test_clock_and_frequencies(self, coupled):
        # Ocean couples once per 5 atmosphere couplings (paper 180:36).
        assert coupled.clock.step_count == 12
        assert coupled.ocn.n_steps == 2 * coupled.ocn_steps_per_coupling

    def test_ocean_coupling_period_is_multiple_of_its_step(self, coupled):
        period = coupled.config.ocn_couple_ratio * coupled.dt_couple
        ratio = period / coupled.ocn.dt_baroclinic
        assert ratio == pytest.approx(round(ratio), abs=1e-9)

    def test_all_components_stepped(self, coupled):
        assert coupled.atm.n_steps == 12
        assert coupled.ice.n_steps == 12
        assert coupled.lnd.n_steps == 12

    def test_states_remain_physical(self, coupled):
        assert np.isfinite(coupled.atm.swe.h).all()
        assert coupled.atm.swe.h.min() > 0
        wet = coupled.ocn.mask3d
        assert np.isfinite(coupled.ocn.t[wet]).all()
        assert coupled.ocn.t[wet].min() >= -1.8 - 1e-9
        assert coupled.ocn.t[wet].max() < 40.0
        assert 170.0 < coupled.atm.tskin.min()
        assert coupled.atm.tskin.max() < 345.0

    def test_land_sea_mask_consistent(self, coupled):
        """Land cells keep the land model's skin; ocean cells track SST."""
        land = coupled.land_mask_atm
        assert land.any() and (~land).any()
        assert np.allclose(
            coupled.atm.tskin[land], coupled.lnd.tskin[land]
        )

    def test_field_registry_pruned(self, coupled):
        # The driver-native registry genuinely prunes the a2x, o2x, and
        # i2x paths; x2o is fully consumed (the ocean reads all four).
        for path in ("a2x", "o2x", "i2x"):
            pruned = coupled.fields.pruned(path)
            assert 0 < len(pruned) < len(coupled.fields.registered[path]), path
        assert coupled.fields.pruned("x2o") == coupled.fields.registered["x2o"]
        assert coupled.fields.n_used("a2x") == len(coupled.fields.pruned("a2x"))

    def test_task_domains_match_paper(self, coupled):
        domains = coupled.task_domains()
        assert domains["domain1"]["members"] == ["cpl", "atm", "ice", "lnd"]
        assert domains["domain2"]["members"] == ["ocn"]

    def test_lifecycle_guard(self):
        m = AP3ESM()
        with pytest.raises(RuntimeError):
            m.step_coupling()

    def test_timers_cover_components(self, coupled):
        """Every component phase is a span nested under the driver's
        component span, which is nested under the coupling step."""
        tracer = coupled.obs.tracer
        parents = {
            "atm.dycore": "atm.run", "atm.tracer": "atm.run", "atm.physics": "atm.run",
            "ocn.barotropic": "ocn.run", "ocn.baroclinic": "ocn.run",
            "ocn.tracer": "ocn.run",
            "ice.thermo": "ice.step", "ice.dynamics": "ice.step",
        }
        for phase, parent in parents.items():
            spans = tracer.find(phase)
            assert spans, phase
            assert {s.parent for s in spans} == {parent}, phase
            assert {s.path[0] for s in spans} == {"cpl.step"}, phase
        assert tracer.find("lnd.step")
        # Coupled time includes all component time, and is what SYPD reads.
        assert tracer.total("cpl.step") >= tracer.total("atm.run")
        assert coupled.sypd() > 0


class TestDiagnostics:
    def test_rossby_number_shape_and_mask(self, coupled):
        ro = surface_rossby_number(coupled.ocn)
        assert ro.shape == coupled.ocn.metrics.shape
        assert np.isnan(ro[~coupled.ocn.metrics.mask_c]).all()
        finite = ro[np.isfinite(ro)]
        assert len(finite) > 0
        # Large-scale flow: |Ro| << 1 away from storms.
        assert np.abs(np.median(finite)) < 0.1

    def test_surface_ke_nonnegative(self, coupled):
        ke = surface_kinetic_energy(coupled.ocn)
        finite = ke[np.isfinite(ke)]
        assert np.all(finite >= 0)

    def test_wind10m_positive(self, coupled):
        w = wind_speed_10m(coupled.atm)
        assert w.shape == (coupled.atm.grid.n_cells,)
        assert np.all(w >= 0)
        assert w.max() < 150.0

    def test_atm_snapshot_fields(self, coupled):
        snap = atm_snapshot(coupled.atm)
        assert {"wind10m", "precip", "cloud_fraction"} <= set(snap)

    def test_cold_wake_requires_matching_shapes(self, coupled):
        with pytest.raises(ValueError):
            cold_wake(np.zeros((2, 2)), np.zeros((3, 3)), np.ones((2, 2), bool))


class TestAIPhysicsCoupled:
    """The headline configuration: the coupled AP3ESM running the trained
    AI physics suite in place of the conventional parameterizations."""

    @pytest.fixture(scope="class")
    def ai_coupled(self):
        from repro.atm import (
            AIPhysicsSuite,
            GristConfig,
            GristModel,
            harvest_archive_from_model,
        )

        host = GristModel(GristConfig(level=3, nlev=10))
        host.init()
        archive = harvest_archive_from_model(
            host, n_days=3, samples_per_day=6, ncol_per_sample=64
        )
        suite = AIPhysicsSuite.train(archive, epochs=25, width=24, lr=3e-3)
        model = AP3ESM(AP3ESMConfig(
            atm_level=3, atm_nlev=10, ocn_nlon=48, ocn_nlat=32,
            ocn_levels=6, physics=suite,
        ))
        model.init()
        model.run_couplings(8)
        return model

    def test_runs_stably(self, ai_coupled):
        assert np.isfinite(ai_coupled.atm.swe.h).all()
        assert np.isfinite(ai_coupled.ocn.t).all()
        assert ai_coupled.atm.swe.h.min() > 0

    def test_physical_state(self, ai_coupled):
        assert 170.0 < ai_coupled.atm.tskin.min()
        assert ai_coupled.atm.tskin.max() < 345.0
        wet = ai_coupled.ocn.mask3d
        assert ai_coupled.ocn.t[wet].min() >= -1.8 - 1e-9

    def test_ai_suite_actually_used(self, ai_coupled):
        from repro.atm import AIPhysicsSuite

        assert isinstance(ai_coupled.atm.physics, AIPhysicsSuite)

    def test_radiation_flows_to_land(self, ai_coupled):
        """The AI radiation outputs 'serve as inputs to the land surface
        model' — the land stepped every coupling with those fluxes."""
        assert ai_coupled.lnd.n_steps == 8
