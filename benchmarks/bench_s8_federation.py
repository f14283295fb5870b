"""§8 (future work): federating HPC centers through a computing-power
network.

"To further scale, we will explore federating geographically distributed
HPC clusters through a computing power network, enabling task-level
parallel execution of distinct ESM components."

The bench prices the 3v2 configuration with the atmosphere on Sunway
OceanLight and the ocean on ORISE, coupled across a WAN, against the best
single-machine two-domain split — including the break-even WAN bandwidth
and the latency sensitivity.
"""

from dataclasses import replace

import pytest

from repro.bench import banner, calibrated_component, format_table
from repro.esm.config import LICOM_CONFIGS
from repro.machine import (
    CoupledPerfModel,
    CouplingSpec,
    FederatedESM,
    PerfModel,
    WanLink,
    ocn_workload,
    orise,
)

SUNWAY_PROCS = 260_000
ORISE_PROCS = 16_000


@pytest.fixture(scope="module")
def setup():
    ori = PerfModel(orise(), mode="accelerated")
    cal_a, wl_a = calibrated_component("atm_3km_cpe")
    wl_o = ocn_workload(
        LICOM_CONFIGS[2.0].nlon * LICOM_CONFIGS[2.0].nlat, 80, compressed=True
    )
    cal_o, wl_o = ori.calibrated(
        wl_o, [(4060, 0.92 * 4.85), (16085, 1.98 * 4.85)]
        # the 2-km problem is ~4.85x smaller than the 1-km curve's, so the
        # anchor throughputs scale accordingly (same machine, same code)
    )
    coupling = CouplingSpec(
        exchanges_per_day={"atm": 180.0, "ocn": 36.0, "ice": 180.0},
        bytes_per_exchange={"atm": 4.2e8, "ocn": 1.7e9, "ice": 4.2e8},
    )
    fed = FederatedESM(
        model1=cal_a, workload1=wl_a, model2=cal_o, workload2=wl_o,
        coupling=coupling,
    )
    # Single machine: both components on Sunway (the paper's deployment).
    cal_o_sw, wl_o_sw = calibrated_component("ocn_2km_cpe")
    single = CoupledPerfModel(
        model1=cal_a, model2=cal_o_sw, domain1=(wl_a,), domain2=(wl_o_sw,),
        coupling=coupling,
    )
    return fed, single


def test_federation_report(setup, emit_report):
    fed, single = setup
    rows = []
    for label, link in (
        ("research WAN (100 Gb/s, 50 ms)", WanLink()),
        ("metro link (100 Gb/s, 5 ms)", WanLink(latency_s=0.005)),
        ("commodity (10 Gb/s, 100 ms)", WanLink(latency_s=0.1, bandwidth=1.25e9)),
    ):
        f = replace(fed, link=link)
        out = f.compare_with_single_machine(
            single, SUNWAY_PROCS, SUNWAY_PROCS, ORISE_PROCS
        )
        rows.append((
            label, out["single_machine_s_per_day"], out["federated_s_per_day"],
            out["federation_speedup"], f"{100 * out['wan_share_of_federated']:.1f}%",
        ))
    bw = fed.breakeven_bandwidth(
        single.time_per_day(*single.balance_resources(SUNWAY_PROCS)),
        SUNWAY_PROCS, ORISE_PROCS,
    )
    emit_report(
        "s8_federation",
        "\n".join([
            banner("§8 — computing-power-network federation (3v2: atm on "
                   "Sunway + ocn on ORISE)"),
            format_table(
                ["WAN class", "single [s/day]", "federated [s/day]",
                 "speedup", "WAN share"],
                rows,
            ),
            f"\nbreak-even WAN bandwidth vs the single-machine split: "
            f"{(bw or 0) / 1.25e8:.1f} Gb/s"
            if bw else "\nlatency alone exceeds the single-machine budget",
        ]),
    )


def test_federation_wins_with_dedicated_link(setup):
    fed, single = setup
    out = fed.compare_with_single_machine(
        single, SUNWAY_PROCS, SUNWAY_PROCS, ORISE_PROCS
    )
    assert out["federation_speedup"] > 1.0


def test_commodity_link_erodes_the_gain(setup):
    fed, single = setup
    bad = replace(fed, link=WanLink(latency_s=0.1, bandwidth=1.25e9))
    good = fed.compare_with_single_machine(single, SUNWAY_PROCS, SUNWAY_PROCS, ORISE_PROCS)
    worse = bad.compare_with_single_machine(single, SUNWAY_PROCS, SUNWAY_PROCS, ORISE_PROCS)
    assert worse["federation_speedup"] < good["federation_speedup"]


def test_benchmark_federated_evaluation(benchmark, setup):
    fed, _ = setup
    sypd = benchmark(fed.predict_sypd, SUNWAY_PROCS, ORISE_PROCS)
    assert sypd > 0
