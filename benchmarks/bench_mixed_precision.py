"""§5.2.3: group-wise scaling FP64/FP32 mixed precision.

Reproduces the paper's acceptance experiment: run the ocean model twice —
FP64 reference vs mixed precision (a ``LicomModel`` bound to the
``mixed`` policy, which holds and steps its state in FP32) — for 30
simulated days, then compute the area-weighted RMSD of daily (T, S, SSH)
data against the paper's published values (0.018 C, 0.0098 psu,
0.0005 m), plus the heat- and salt-content drift of the FP32 ocean.  The
GRIST-side acceptance (relative L2 of surface pressure/vorticity < 5 %)
runs on the shallow-water dycore with its state group-scaled once a day
(storage only: the dycore computes in FP64).
"""

import numpy as np
import pytest

from repro.atm import ShallowWaterDycore, williamson_tc2
from repro.bench import banner, format_table
from repro.esm import ComponentContext, default_mixed_policy
from repro.grids import IcosahedralGrid, trsk
from repro.ocn import LicomConfig, LicomModel
from repro.precision import (
    GRIST_REL_L2_THRESHOLD,
    GroupScaled32,
    Precision,
    PrecisionPolicy,
    evaluate_licom_acceptance,
    relative_l2,
)

DAYS = 30


def _run_ocean(mixed: bool):
    """One 30-day ocean run; returns daily (T, S, SSH) surface snapshots."""
    model = LicomModel(LicomConfig(nlon=48, nlat=32, n_levels=8))
    if mixed:
        model.set_context(ComponentContext(precision=default_mixed_policy()))
    model.init()
    model.import_state({
        "taux": np.where(model.metrics.mask_c, 0.05 * np.cos(3 * model.grid.lat), 0.0),
        "heat_flux": np.where(model.metrics.mask_c, 30.0 * np.cos(model.grid.lat), 0.0),
    })
    steps_per_day = max(1, int(round(86400.0 / model.dt_baroclinic)))
    daily_t, daily_s, daily_h = [], [], []
    for _ in range(DAYS):
        model.run(steps_per_day)
        out = model.export_state()
        daily_t.append(out["sst"])
        daily_s.append(out["sss"])
        daily_h.append(out["ssh"])
    return model, daily_t, daily_s, daily_h


@pytest.fixture(scope="module")
def runs():
    ref = _run_ocean(mixed=False)
    mix = _run_ocean(mixed=True)
    return ref, mix


@pytest.fixture(scope="module")
def licom_reports(runs):
    (ref_model, rt, rs, rh), (_, mt, ms, mh) = runs
    return evaluate_licom_acceptance(
        mt, ms, mh, rt, rs, rh, ref_model.metrics.area, ref_model.mask3d[0]
    )


@pytest.fixture(scope="module")
def grist_l2():
    """GRIST acceptance: 5-day dycore run FP64 vs group-scaled state."""
    grid = IcosahedralGrid.build(3)
    dycore = ShallowWaterDycore(grid, diffusion=1e5)

    def run(mixed: bool):
        state = williamson_tc2(grid)
        dt = dycore.max_stable_dt(state, cfl=0.4)
        steps_per_day = int(86400.0 / dt) + 1
        for _ in range(5):
            for _ in range(steps_per_day):
                state = dycore.step_rk4(state, dt)
            if mixed:
                state.h = GroupScaled32.encode(state.h).decode()
                state.u = GroupScaled32.encode(state.u).decode()
        return state

    ref = run(False)
    mix = run(True)
    l2_h = relative_l2(mix.h, ref.h)  # surface-pressure proxy
    l2_zeta = relative_l2(
        trsk.curl(grid, mix.u) + 1e-10, trsk.curl(grid, ref.u) + 1e-10
    )
    return l2_h, l2_zeta


def _content_drift(runs):
    """Relative (heat, salt) content of the FP32 ocean against FP64 at day 30."""
    (ref, *_), (mix, *_) = runs
    return tuple(
        mix.tracers.content(getattr(mix, c)) / ref.tracers.content(getattr(ref, c)) - 1.0
        for c in ("t", "s")
    )


def test_mixed_ocean_steps_in_fp32(runs):
    (ref, *_), (mix, *_) = runs
    assert {a.dtype for a in ref.state().values()} == {np.dtype(np.float64)}
    assert {a.dtype for a in mix.state().values()} == {np.dtype(np.float32)}


def test_mixed_precision_report(runs, licom_reports, grist_l2, emit_report):
    l2_h, l2_zeta = grist_l2
    heat_drift, salt_drift = _content_drift(runs)
    rows = [
        ("LICOM T RMSD [C]", licom_reports["temperature"].measured, 0.018),
        ("LICOM S RMSD [psu]", licom_reports["salinity"].measured, 0.0098),
        ("LICOM SSH RMSD [m]", licom_reports["ssh"].measured, 0.0005),
        ("LICOM heat content drift [rel]", heat_drift, None),
        ("LICOM salt content drift [rel]", salt_drift, None),
        ("GRIST rel-L2 (height)", l2_h, GRIST_REL_L2_THRESHOLD),
        ("GRIST rel-L2 (vorticity)", l2_zeta, GRIST_REL_L2_THRESHOLD),
    ]
    emit_report(
        "mixed_precision",
        "\n".join([
            banner(f"§5.2.3 — mixed precision: {DAYS}-day RMSD vs FP64 (paper thresholds)"),
            format_table(["metric", "measured", "paper threshold"],
                         rows, floatfmt="{:.3e}"),
            "\nLICOM: FP32 compute (the mixed policy) against FP64; GRIST: "
            "FP64 compute with the state group-scaled once a day.  Every "
            "metric with a paper threshold must sit at or below it; the "
            "content drifts have none.",
        ]),
    )


def test_licom_acceptance_passes(licom_reports):
    """The paper's own acceptance: RMSD <= (0.018 C, 0.0098 psu, 0.0005 m)."""
    for name, report in licom_reports.items():
        assert report.passed, f"{name}: {report.measured:.3e} > {report.threshold}"


def test_grist_acceptance_passes(grist_l2):
    l2_h, l2_zeta = grist_l2
    assert l2_h < GRIST_REL_L2_THRESHOLD
    assert l2_zeta < GRIST_REL_L2_THRESHOLD


def test_memory_saving_about_half(runs):
    (ref_model, *_), _ = runs
    policy = PrecisionPolicy({
        "t": Precision.FP32_GROUPSCALED, "s": Precision.FP32_GROUPSCALED,
        "u": Precision.FP32, "v": Precision.FP32,
    })
    rep = policy.memory_report({
        "t": ref_model.t, "s": ref_model.s, "u": ref_model.u, "v": ref_model.v,
    })
    assert rep["saving_fraction"] == pytest.approx(0.5, abs=0.05)


def test_benchmark_groupscale_encode(benchmark):
    field = np.random.default_rng(0).standard_normal((64, 64, 16)) * 1e4
    gs = benchmark(GroupScaled32.encode, field, 64)
    assert gs.compression_ratio() < 0.6
