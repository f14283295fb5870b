"""Ablations of the design choices behind the paper's optimizations.

Each ablation removes one mechanism and measures the damage:

* **TRSK weight antisymmetrization** — without it the nonlinear Coriolis
  term injects/drains kinetic energy (the dycore's conservation rests on it);
* **cache term in the machine model** — without it the super-linear OCN
  MPE efficiency (published 118 %) cannot appear;
* **hybrid host-device split** — device-only vs balanced hybrid;
* **ocean coupling frequency** — the paper couples the ocean 5x less often
  than the atmosphere; coupling it every step raises the coupler cost;
* **SFC vs naive partitioning** — halo/interior ratios, the communication
  term's driver;
* **face pruning** — exchange bytes with and without it.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.bench import banner, format_table
from repro.grids import IcosPartition, trsk
from repro.machine import (
    CalibrationTable,
    CouplingSpec,
    CPE_PROCESSOR,
    MPE_PROCESSOR,
    PerfModel,
    ProcessorSpec,
    ocn_workload,
    sunway_oceanlight,
)
from repro.parallel import partition_cells_contiguous, partition_cells_space_filling
from repro.pp import ExecutionSpace, HybridDispatcher, Serial


@pytest.fixture(scope="module")
def grid(icos4):
    return icos4


class TestTRSKAntisymmetry:
    def _coriolis_energy(self, grid, weights):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(grid.n_edges)
        ee = grid.edge_edges
        mask = ee >= 0
        vals = u[np.where(mask, ee, 0)]
        tangential = np.sum(weights * np.where(mask, vals, 0.0), axis=1)
        return float(np.sum(grid.le * grid.de * u * tangential)) / float(
            np.sum(grid.le * grid.de * u * u)
        )

    def test_ablation(self, grid, emit_report):
        with_anti = abs(self._coriolis_energy(grid, grid.edge_weights))
        # Break the antisymmetry: perturb the weights by 1 %.
        rng = np.random.default_rng(1)
        broken = grid.edge_weights * (1.0 + 0.01 * rng.standard_normal(grid.edge_weights.shape))
        without = abs(self._coriolis_energy(grid, broken))
        emit_report(
            "ablation_trsk_antisymmetry",
            "\n".join([
                banner("Ablation: TRSK weight antisymmetrization"),
                format_table(
                    ["variant", "relative KE tendency of the Coriolis term"],
                    [("antisymmetrized (ours)", f"{with_anti:.2e}"),
                     ("1% perturbed weights", f"{without:.2e}")],
                ),
                "\nwithout exact antisymmetry the PV term pumps kinetic "
                "energy at a finite rate — the long-run stability of the "
                "dycore rests on this property.",
            ]),
        )
        assert with_anti < 1e-12
        assert without > 1e-5


class TestCacheTerm:
    def test_superlinear_needs_cache_model(self, emit_report):
        """OCN MPE published efficiencies reach 118 %: only reproducible
        with the working-set/cache bonus in the processor model."""
        machine = sunway_oceanlight()
        wl = ocn_workload(18000 * 11511, 80)

        def efficiency_at_2x(model):
            cal, wlc = model.calibrated(wl, [(19608, 0.0014)])
            s1 = cal.predict_sypd(wlc, 19608)
            s2 = cal.predict_sypd(wlc, 2 * 19608)
            return (s2 / s1) / 2.0

        with_cache = PerfModel(machine, mode="host")
        nocache_proc = ProcessorSpec(
            name="MPE-nocache",
            flops=MPE_PROCESSOR.flops,
            mem_bw=MPE_PROCESSOR.mem_bw,
            cache_bytes=0.0,
            cache_speedup=1.0,
        )
        no_cache = PerfModel(machine.with_processor(nocache_proc), mode="accelerated")

        eff_cache = efficiency_at_2x(with_cache)
        eff_plain = efficiency_at_2x(no_cache)
        emit_report(
            "ablation_cache_term",
            "\n".join([
                banner("Ablation: cache term in the MPE processor model"),
                format_table(
                    ["variant", "strong-scaling efficiency at 2x cores"],
                    [("with cache bonus", eff_cache), ("without", eff_plain),
                     ("paper (Table 2)", 1.18)],
                ),
            ]),
        )
        assert eff_plain <= 1.01  # never super-linear without the cache term


class TestHybridSplit:
    def test_balanced_beats_device_only(self, emit_report):
        """Priced on the descriptors Table 2 is regenerated from; the
        executor side only says who gets which iterations."""
        n, fpi = 10_000_000, 50.0
        table = CalibrationTable.from_file(Path(__file__).parents[1] / "CALIBRATION.json")
        launch_s = table.for_intensity(fpi, 0.0).per_launch_s

        def modeled_s(device_fraction):
            split = HybridDispatcher(Serial(), ExecutionSpace("cut", lanes=64), device_fraction)
            host_idx, dev_idx = split.split(n)
            return max(
                proc.roofline_s(fpi * len(idx), 0.0) + launch_s if len(idx) else 0.0
                for proc, idx in ((CPE_PROCESSOR, dev_idx), (MPE_PROCESSOR, host_idx))
            )

        t_h = modeled_s(CPE_PROCESSOR.flops / (CPE_PROCESSOR.flops + MPE_PROCESSOR.flops))
        t_d = modeled_s(1.0)
        emit_report(
            "ablation_hybrid_split",
            "\n".join([
                banner("Ablation: hybrid host-device split (§5.3)"),
                format_table(
                    ["variant", "modeled kernel time [ms]"],
                    [("balanced hybrid", t_h * 1e3), ("device only", t_d * 1e3)],
                ),
                f"\ngain: {100 * (1 - t_h / t_d):.2f}% (the MPE contributes "
                "its share while the CPEs work)",
            ]),
        )
        assert t_h < t_d


class TestCouplingFrequency:
    def test_paper_ratio_cheaper_than_every_step(self, emit_report):
        model = PerfModel(sunway_oceanlight())
        paper = CouplingSpec(
            exchanges_per_day={"atm": 180.0, "ocn": 36.0, "ice": 180.0},
            bytes_per_exchange={"atm": 4.2e8, "ocn": 1.7e9, "ice": 4.2e8},
        )
        everystep = CouplingSpec(
            exchanges_per_day={"atm": 180.0, "ocn": 180.0, "ice": 180.0},
            bytes_per_exchange=paper.bytes_per_exchange,
        )
        n = 100_000
        t_paper = paper.time_per_day(model, n)
        t_every = everystep.time_per_day(model, n)
        emit_report(
            "ablation_coupling_frequency",
            "\n".join([
                banner("Ablation: ocean coupling frequency (180:36 vs 180:180)"),
                format_table(
                    ["variant", "coupler seconds per simulated day"],
                    [("paper ratio (36/day ocean)", t_paper),
                     ("every atm coupling (180/day)", t_every)],
                ),
            ]),
        )
        assert t_paper < t_every


class TestPartitioning:
    def test_sfc_beats_contiguous(self, grid, emit_report):
        n_ranks = 32
        sfc = IcosPartition.build(grid, n_ranks)
        naive_owners = partition_cells_contiguous(grid.n_cells, n_ranks)
        # Surface-to-volume via the partition machinery on both.
        naive = IcosPartition(
            grid, n_ranks, naive_owners.astype(np.int64),
            [np.sort(np.where(naive_owners == r)[0]) for r in range(n_ranks)],
            IcosPartition.build(grid, n_ranks).halo_cells,  # placeholder
        )
        # Recompute halos properly for the naive partition.
        c1, c2 = grid.edge_cells[:, 0], grid.edge_cells[:, 1]
        halos = []
        for r in range(n_ranks):
            nb = np.concatenate([c2[naive_owners[c1] == r], c1[naive_owners[c2] == r]])
            halos.append(np.unique(nb[naive_owners[nb] != r]))
        naive.halo_cells = halos

        s_sfc = float(np.mean([sfc.surface_to_volume(r) for r in range(n_ranks)]))
        s_naive = float(np.mean([naive.surface_to_volume(r) for r in range(n_ranks)]))
        emit_report(
            "ablation_partitioning",
            "\n".join([
                banner("Ablation: SFC vs index-contiguous cell partitioning"),
                format_table(
                    ["partitioner", "mean halo/interior ratio (32 ranks)"],
                    [("space-filling curve (ours)", s_sfc),
                     ("index-contiguous", s_naive)],
                ),
                "\nthe halo/interior ratio is the communication term's "
                "prefactor in the machine model: SFC partitions directly "
                "buy strong-scaling efficiency.",
            ]),
        )
        assert s_sfc < s_naive


def test_benchmark_sfc_partition(benchmark, icos4):
    owners = benchmark(
        partition_cells_space_filling, icos4.lon_cell, icos4.lat_cell, 32
    )
    assert len(np.unique(owners)) == 32


class TestTaskParallelStrategy:
    def test_sequential_vs_concurrent(self, emit_report):
        """§5.1.2's two strategies priced at three scales: the concurrent
        two-domain layout (the paper's choice) wins once strong scaling
        rolls off; time-slicing wins while scaling is near-linear."""
        from dataclasses import replace

        from repro.bench import calibrated_component
        from repro.machine import CoupledPerfModel

        cal_a, wl_a = calibrated_component("atm_3km_cpe")
        cal_o, wl_o = calibrated_component("ocn_2km_cpe")
        cm = replace(
            CoupledPerfModel(
                model1=cal_a, model2=cal_o, domain1=(wl_a,), domain2=(wl_o,),
                coupling=CouplingSpec(
                    exchanges_per_day={"atm": 180.0, "ocn": 36.0, "ice": 180.0},
                    bytes_per_exchange={"atm": 4.2e8, "ocn": 1.7e9, "ice": 4.2e8},
                ),
            ),
            sync_imbalance=0.3,
        )
        rows = []
        for total in (50_000, 260_000, 560_000):
            out = cm.strategy_comparison(total)
            rows.append((
                f"{total:,}", out["sequential_s_per_day"],
                out["concurrent_s_per_day"], out["speedup"],
            ))
        emit_report(
            "ablation_task_strategy",
            "\n".join([
                banner("Ablation: §5.1.2 task strategies (3v2 configuration)"),
                format_table(
                    ["processes", "sequential [s/day]", "concurrent [s/day]",
                     "concurrent speedup"],
                    rows,
                ),
                "\nthe crossover: time-slicing the whole machine wins while "
                "strong scaling is near-linear; the paper's concurrent "
                "two-domain layout wins at its operating scale.",
            ]),
        )
        assert rows[-1][3] > 1.1  # concurrent wins at scale
