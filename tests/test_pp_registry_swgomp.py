"""Tests for the hash-based kernel registry, hybrid dispatch, and SWGOMP
(``parallel_for`` on a 64-lane cut)."""

import numpy as np
import pytest

from repro.machine import CPE_PROCESSOR, MPE_PROCESSOR
from repro.pp import (
    ExecutionSpace,
    HybridDispatcher,
    KernelRegistry,
    MDRangePolicy,
    Serial,
    kernel_hash,
    parallel_for,
)


def cpe_cut(n_cpes=64):
    """The cut one Sunway core group makes of a launch."""
    return ExecutionSpace("cut", lanes=n_cpes)


def _axpy(idx, y, a, x):
    y[idx] += a * x[idx]


class TestKernelRegistry:
    def test_register_and_lookup(self):
        reg = KernelRegistry()
        h = reg.register(_axpy)
        assert reg.lookup(h) is _axpy
        assert h in reg
        assert len(reg) == 1

    def test_hash_is_stable(self):
        assert kernel_hash(_axpy) == kernel_hash(_axpy)

    def test_reregistration_idempotent(self):
        reg = KernelRegistry()
        h1 = reg.register(_axpy)
        h2 = reg.register(_axpy)
        assert h1 == h2
        assert len(reg) == 1

    def test_collision_detected(self):
        reg = KernelRegistry()
        reg.register(_axpy)
        # Forge a different function with an identical identity string.
        def _axpy2(idx, y, a, x):  # noqa: ANN001
            pass

        _axpy2.__module__ = _axpy.__module__
        _axpy2.__qualname__ = _axpy.__qualname__
        with pytest.raises(ValueError, match="hash collision"):
            reg.register(_axpy2)

        # The components share ONE table, so a kernel forged to hash like
        # another component's is caught on joining it, whoever declares it.
        import inspect

        from repro.ice.kernels import thermo_kernel
        from repro.pp import KERNELS, kernel

        def impostor():
            pass

        impostor.__module__ = thermo_kernel.__module__
        impostor.__qualname__ = thermo_kernel.__qualname__
        impostor.__signature__ = inspect.signature(thermo_kernel)
        with pytest.raises(ValueError, match="hash collision"):
            kernel("lnd.impostor")(impostor)
        assert KERNELS.lookup(thermo_kernel.handle) is thermo_kernel

    def test_unknown_handle(self):
        reg = KernelRegistry()
        with pytest.raises(KeyError, match="no kernel registered"):
            reg.lookup(0xDEAD)

    def test_launch_by_handle(self):
        reg = KernelRegistry()
        h = reg.register(_axpy)
        y = np.zeros(100)
        x = np.ones(100)
        reg.launch(cpe_cut(8), h, 100, y, 2.0, x)
        assert np.all(y == 2.0)

    def test_decorator_form(self):
        reg = KernelRegistry()

        @reg.kernel("scale")
        def scale(idx, y):
            y[idx] *= 3.0

        assert scale.handle == kernel_hash(scale) and reg.stats_name(scale.handle) == "scale"
        y = np.ones(10)
        reg.launch(Serial(), scale.handle, 10, y)
        assert np.all(y == 3.0)


class TestHybridDispatcher:
    def test_split_partitions_range(self):
        d = HybridDispatcher(Serial(), cpe_cut(64), device_fraction=0.8)
        host, dev = d.split(100)
        assert len(dev) == 80 and len(host) == 20
        assert np.array_equal(np.sort(np.concatenate([host, dev])), np.arange(100))

    def test_run_covers_everything(self):
        d = HybridDispatcher(Serial(), cpe_cut(64), device_fraction=0.7)
        out = np.zeros(1000)
        d.run(1000, lambda idx: out.__setitem__(idx, 1.0))
        assert np.all(out == 1.0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            HybridDispatcher(Serial(), cpe_cut(), device_fraction=1.5)

    #: The split that equalizes finish times hands each side work in
    #: proportion to its rate — a property of the device descriptors.
    BALANCED = CPE_PROCESSOR.flops / (CPE_PROCESSOR.flops + MPE_PROCESSOR.flops)

    def test_balanced_fraction_optimal(self):
        """The balanced split's modeled time must beat lopsided splits."""
        n, fpi = 1_000_000, 100.0

        def modeled_s(fraction):
            host, dev = HybridDispatcher(Serial(), cpe_cut(), fraction).split(n)
            return max(
                CPE_PROCESSOR.roofline_s(fpi * len(dev), 0.0),
                MPE_PROCESSOR.roofline_s(fpi * len(host), 0.0),
            )

        for frac in (0.5, 0.99, 1.0):
            assert modeled_s(self.BALANCED) <= modeled_s(frac) + 1e-12

    def test_device_dominates_balanced_fraction(self):
        # One core group at 156 GF vs its MPE at 1.2 GF: fraction near 1.
        assert 0.98 < self.BALANCED < 1.0


class TestSWGOMP:
    """SWGOMP's loop-space mapping is ``parallel_for`` on a lane cut: the
    same launch path every component kernel takes."""

    def test_offload_matches_host_execution(self):
        def relax(idx, u, f):
            u[idx] += 0.25 * f[idx]

        u1 = np.zeros((100, 4))
        u2 = np.zeros((100, 4))
        f = np.random.default_rng(0).standard_normal((100, 4))
        relax(slice(None), u1, f)  # whole-array host call
        parallel_for(cpe_cut(16), 100, lambda idx: relax(idx, u2, f))
        assert np.array_equal(u1, u2)

    def test_offload_writes_through_views(self):
        x = np.zeros(37)

        def bump(idx):
            x[idx] += 1.0

        parallel_for(cpe_cut(8), 37, bump)
        assert np.all(x == 1.0)

    def test_chunked_schedule(self, record_tiles):
        x = np.zeros(95)
        hits = np.zeros(95, dtype=int)

        def fill(idx):
            x[idx] = 5.0
            hits[idx] += 1

        space, launches = record_tiles(Serial())
        parallel_for(space, MDRangePolicy((95,), tile=(10,)), fill)
        assert np.all(x == 5.0)
        assert np.all(hits == 1)  # every row written exactly once
        (tiles,) = launches
        assert len(tiles) == 10  # ceil(95/10)
        assert sum(n for (n,) in tiles) == 95

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            MDRangePolicy((95,), tile=(0,))
        with pytest.raises(ValueError):
            MDRangePolicy((95,), tile=(10, 10))


class TestHybridDispatcherSplitRatios:
    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_split_ratio_honoured(self, fraction):
        d = HybridDispatcher(Serial(), cpe_cut(64), device_fraction=fraction)
        n = 1000
        host, dev = d.split(n)
        assert len(dev) == int(round(n * fraction))
        assert len(host) == n - len(dev)
        # Disjoint cover of range(n), device block first.
        assert np.array_equal(
            np.concatenate([dev, host]), np.arange(n, dtype=np.int64)
        )

    def test_extreme_fractions_still_run_everything(self):
        for fraction in (0.0, 1.0):
            d = HybridDispatcher(
                Serial(), cpe_cut(64), device_fraction=fraction
            )
            out = np.zeros(137)
            d.run(137, lambda idx: out.__setitem__(idx, out[idx] + 1.0))
            assert np.all(out == 1.0)

    def test_split_empty_range(self):
        d = HybridDispatcher(Serial(), cpe_cut(64), device_fraction=0.5)
        host, dev = d.split(0)
        assert len(host) == 0 and len(dev) == 0
        d.run(0, lambda idx: (_ for _ in ()).throw(AssertionError))


class TestRegistryMDRangeLaunch:
    def test_launch_dispatches_mdrange_kernels(self):
        """launch() forwards one index array per MDRange dimension plus
        the bound arguments (the coupled components' tiled kernels)."""
        reg = KernelRegistry()

        def scale2d(yi, xi, out, factor):
            out[np.ix_(yi, xi)] *= factor

        handle = reg.register(scale2d)
        out = np.ones((6, 8))
        reg.launch(
            Serial(), handle, MDRangePolicy((6, 8), tile=(2, 4)), out, 3.0
        )
        assert np.all(out == 3.0)
