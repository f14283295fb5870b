"""Tests for the non-ocean-point removal (§5.2.2) and the LICOM model."""

import numpy as np
import pytest

from repro.ocn import (
    Compressor,
    LicomConfig,
    LicomModel,
    block_owner_map,
    compressed_equals_full,
    load_stats,
    wet_partition,
    wet_topology_matrix,
)
from repro.parallel import comm_graph_from_matrix, greedy_locality_mapping, traffic_split


@pytest.fixture(scope="module")
def mask3d(tripolar_small):
    return tripolar_small.levels_mask()


class TestCompressor:
    def test_roundtrip_exact(self, mask3d):
        comp = Compressor(mask3d)
        rng = np.random.default_rng(0)
        field = rng.standard_normal(mask3d.shape)
        packed = comp.compress(field)
        assert packed.shape == (comp.n_wet,)
        restored = comp.decompress(packed, fill=np.nan)
        assert np.array_equal(restored[mask3d], field[mask3d])
        assert np.all(np.isnan(restored[~mask3d]))

    def test_reduction_about_30_to_45_percent(self, mask3d):
        comp = Compressor(mask3d)
        assert 0.25 < comp.reduction < 0.50

    def test_kernel_equivalence_bitwise(self, mask3d):
        """'Consistent results': packed execution == masked full execution."""
        comp = Compressor(mask3d)
        rng = np.random.default_rng(1)
        field = rng.standard_normal(mask3d.shape) + 10.0

        def kernel(x):
            return np.sqrt(np.abs(x)) * 1.7 + x**2 * 1e-3

        assert compressed_equals_full(comp, kernel, field)

    def test_kernel_equivalence_sees_signed_zero(self, mask3d):
        """The compare is byte for byte: a kernel that yields -0.0 only on
        the packed path breaks the equivalence that np.array_equal misses."""
        comp = Compressor(mask3d)
        field = np.ones(mask3d.shape)

        def kernel(x):
            return np.zeros_like(x) * (-1.0 if x.ndim == 1 else 1.0)

        assert not compressed_equals_full(comp, kernel, field)

    def test_memory_bytes(self, mask3d):
        comp = Compressor(mask3d)
        full, packed = comp.memory_bytes(n_fields=4)
        assert full == comp.n_full * 8 * 4
        assert packed == comp.n_wet * 8 * 4
        assert packed < full

    def test_shape_validation(self, mask3d):
        comp = Compressor(mask3d)
        with pytest.raises(ValueError):
            comp.compress(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            comp.decompress(np.zeros(3))


class TestRankRemap:
    def test_wet_partition_balances_load(self, mask3d):
        n_ranks = 12
        before = block_owner_map(mask3d, py=3, px=4)
        after = wet_partition(mask3d, n_ranks)
        s_before = load_stats(mask3d, before, n_ranks)
        s_after = load_stats(mask3d, after, n_ranks)
        assert s_after["imbalance"] < s_before["imbalance"]
        assert s_after["imbalance"] < 1.2

    def test_wet_partition_covers_all_wet_columns(self, mask3d):
        owners = wet_partition(mask3d, 8)
        wet_cols = mask3d.sum(axis=0) > 0
        assert np.all(owners[wet_cols] >= 0)
        assert np.all(owners[~wet_cols] == -1)
        assert set(np.unique(owners[wet_cols])) <= set(range(8))

    def test_wet_partition_rank_validation(self, mask3d):
        with pytest.raises(ValueError):
            wet_partition(mask3d, 0)

    def test_topology_matrix_symmetric(self, mask3d):
        owners = wet_partition(mask3d, 6)
        mat = wet_topology_matrix(owners, 6)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)

    def test_new_topology_feeds_locality_mapping(self, mask3d):
        """End-to-end §5.2.2 pipeline: compress -> remap ranks -> rebuild
        the communication topology -> map onto nodes."""
        n_ranks = 8
        owners = wet_partition(mask3d, n_ranks)
        mat = wet_topology_matrix(owners, n_ranks)
        graph = comm_graph_from_matrix(mat)
        placement = greedy_locality_mapping(graph, n_nodes=4, ranks_per_node=2,
                                            nodes_per_supernode=2)
        split = traffic_split(graph, placement)
        total = sum(split.values())
        assert total > 0
        # The greedy mapping keeps a majority of traffic below the top level.
        assert split["inter_supernode"] < 0.7 * total


class TestLicomModel:
    @pytest.fixture(scope="class")
    def model(self):
        m = LicomModel(LicomConfig(nlon=48, nlat=32, n_levels=10))
        m.init()
        m.import_state({
            "taux": np.where(m.metrics.mask_c, 0.05, 0.0),
            "heat_flux": np.where(m.metrics.mask_c, 30.0, 0.0),
        })
        m.run(10)
        return m

    def test_substep_ratio(self, model):
        assert model.dt_baroclinic == pytest.approx(10 * model.dt_barotropic)
        assert model.dt_tracer == model.dt_baroclinic

    def test_exports_all_coupling_fields(self, model):
        out = model.export_state()
        assert {"sst", "sss", "ssh", "u_surf", "v_surf", "freezing"} <= set(out)
        for key in ("sst", "ssh", "u_surf"):
            assert np.isfinite(out[key]).all()

    def test_sst_physical(self, model):
        wet = model.mask3d[0]
        sst = model.export_state()["sst"][wet]
        assert sst.min() >= -1.8 - 1e-9
        assert sst.max() < 40.0

    def test_freezing_floor_enforced(self, model):
        assert np.all(model.t[model.mask3d] >= -1.8 - 1e-12)

    def test_import_validates_shapes(self, model):
        with pytest.raises(ValueError):
            model.import_state({"taux": np.zeros(5)})

    def test_memory_report(self, model):
        rep = model.memory_report()
        assert rep["packed_bytes"] < rep["full_bytes"]
        assert 0.2 < rep["reduction"] < 0.6

    def test_timers(self):
        """The inner phases are spans on the handle the context binds:
        one of each per baroclinic step."""
        from repro.esm import ComponentContext
        from repro.obs import Obs

        obs = Obs()
        m = LicomModel(LicomConfig(nlon=32, nlat=24, n_levels=4))
        m.set_context(ComponentContext(obs=obs))
        m.init()
        m.run(2)
        for name in ("ocn.barotropic", "ocn.baroclinic", "ocn.tracer"):
            assert len(obs.tracer.find(name)) == 2, name
            assert obs.tracer.total(name) > 0, name

    def test_lifecycle(self):
        m = LicomModel(LicomConfig(nlon=48, nlat=32, n_levels=5))
        with pytest.raises(RuntimeError):
            m.step()
        m.init()
        m.step()
        summary = m.finalize()
        assert summary["steps"] == 1
        with pytest.raises(RuntimeError):
            m.step()
