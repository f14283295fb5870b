"""§5.2.4: coupler optimization.

Three published optimizations, measured:

1. **Offline GSMap/Router construction** — build cost and table memory vs
   loading precomputed tables (the Sunway CG memory-pressure fix);
2. **Unused-field pruning** — bytes saved per exchange on the CESM bundles;
3. **All-to-all -> non-blocking point-to-point rearranger** — message and
   byte counts on the simulated runtime, plus modeled time at paper scale.
"""

import time

import numpy as np
import pytest

from repro.bench import banner, format_table
from repro.coupler import (
    AttrVect,
    CouplerCache,
    FieldRegistry,
    GlobalSegMap,
    Rearranger,
    RearrangePlan,
    Router,
)
from repro.obs import NULL_OBS, Obs
from repro.parallel import SimWorld
from repro.parallel.collectives import cost_alltoall, cost_alltoall_sparse

N_PES = 8
GSIZE = 4096
X2O_USED = ["Foxx_taux", "Foxx_tauy", "Foxx_swnet",
            "Foxx_lwdn", "Foxx_sen", "Foxx_lat", "Foxx_rain"]
# Modeled time at paper scale: 100k ranks, 16 real partners, a 64 KiB
# message, and the link's latency / bandwidth.
P_PAPER, NBYTES, LAT, BW = 100_000, 64 * 1024, 2.5e-6, 2.0e10


@pytest.fixture(scope="module")
def maps():
    src = GlobalSegMap.from_owners(np.repeat(np.arange(N_PES), GSIZE // N_PES))
    # Destination nearly aligned with the source (each rank overlaps ~3
    # others) — the typical same-grid coupler rearrangement.
    dst = GlobalSegMap.from_owners(np.roll(np.repeat(np.arange(N_PES), GSIZE // N_PES), GSIZE // 5))
    return src, dst


@pytest.fixture(scope="module")
def router(maps):
    return Router.build(*maps)


def _run_world(maps, router, method, obs=NULL_OBS):
    src, dst = maps
    world = SimWorld(N_PES)
    rearranger = Rearranger(router, method=method)
    gfield = np.arange(GSIZE, dtype=float)

    def program(comm):
        me = comm.rank
        rank_obs = obs.fork(me) if obs.enabled else obs
        av = AttrVect.from_dict({
            "taux": gfield[src.local_indices(me)],
            "tauy": gfield[src.local_indices(me)] * 2,
            "swnet": gfield[src.local_indices(me)] * 3,
        })
        out = rearranger.rearrange(
            comm, av, len(dst.local_indices(me)), obs=rank_obs
        )
        return out.get("taux")

    results = world.run(program)
    for pe, got in enumerate(results):
        assert np.array_equal(got, gfield[dst.local_indices(pe)])
    if obs is not None and obs.enabled:
        obs.metrics.record_traffic(world.ledger, prefix="cpl.comm")
    return world.ledger


def _x2o_savings():
    reg = FieldRegistry.cesm_default()
    reg.mark_used("x2o", X2O_USED)
    return reg.savings("x2o", lsize=GSIZE // N_PES)


def _modeled_dense_sparse():
    """Modeled seconds of a dense alltoall and of the sparse p2p exchange
    at paper scale."""
    msgs_dense, bytes_dense = cost_alltoall(NBYTES, P_PAPER)
    msgs_sparse, bytes_sparse = cost_alltoall_sparse(NBYTES, 16, P_PAPER)
    return (msgs_dense * LAT + bytes_dense / BW,
            msgs_sparse * LAT + bytes_sparse / BW)


def test_coupler_report(maps, router, emit_report, obs):
    src, dst = maps
    # 1. Offline precompute.
    t0 = time.perf_counter()
    Router.build(src, dst)
    build_s = time.perf_counter() - t0
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "router.npz"
        router.to_file(path)
        t0 = time.perf_counter()
        Router.from_file(path)
        load_s = time.perf_counter() - t0

    # 2. Field pruning.
    savings = _x2o_savings()

    # 3. Rearranger traffic (traced when --trace is given).
    led_a2a = _run_world(maps, router, "alltoall", obs=obs)
    led_p2p = _run_world(maps, router, "p2p", obs=obs)
    counts = Rearranger(router).message_counts(N_PES)

    # Tracing-off overhead: the NULL_OBS path must stay in the noise.
    t0 = time.perf_counter()
    _run_world(maps, router, "p2p")
    t_off = time.perf_counter() - t0
    t0 = time.perf_counter()
    _run_world(maps, router, "p2p", obs=Obs())
    t_on = time.perf_counter() - t0

    t_dense, t_sparse = _modeled_dense_sparse()

    rows = [
        ("Router build [ms]", build_s * 1e3, None),
        ("Router load (offline) [ms]", load_s * 1e3, None),
        ("Router table [KiB/rank-pair set]", router.memory_bytes() / 1024, None),
        ("x2o fields pruned [%]", 100 * savings["fraction_saved"], None),
        ("bytes/exchange before prune", savings["bytes_before"], None),
        ("bytes/exchange after prune", savings["bytes_after"], None),
        ("alltoall messages (8 ranks)", float(led_a2a.total_messages), None),
        ("p2p messages (8 ranks)", float(led_p2p.total_messages), None),
        ("modeled dense alltoall @100k ranks [s]", t_dense, None),
        ("modeled sparse p2p @100k ranks [s]", t_sparse, None),
        ("modeled speedup", t_dense / t_sparse, None),
        ("p2p rearrange, tracing off [ms]", t_off * 1e3, None),
        ("p2p rearrange, tracing on [ms]", t_on * 1e3, None),
    ]
    emit_report(
        "coupler_rearrange",
        "\n".join([
            banner("§5.2.4 — coupler optimization"),
            format_table(["metric", "value", "paper"], rows, floatfmt="{:.4g}"),
        ]),
    )


def test_p2p_moves_less_than_alltoall(maps, router):
    led_a2a = _run_world(maps, router, "alltoall")
    led_p2p = _run_world(maps, router, "p2p")
    assert led_a2a.total_messages == 63
    assert led_p2p.total_messages < led_a2a.total_messages


def test_offline_tables_roundtrip(maps, router, tmp_path):
    src, dst = maps
    src.to_file(tmp_path / "gsmap.npz")
    router.to_file(tmp_path / "router.npz")
    src2 = GlobalSegMap.from_file(tmp_path / "gsmap.npz")
    router2 = Router.from_file(tmp_path / "router.npz")
    assert np.array_equal(src2.owner_array(), src.owner_array())
    assert router2.n_pairs == router.n_pairs


def test_sparse_beats_dense_at_scale():
    """The latency term dominates at 100k ranks: 16 partners vs P-1."""
    m_d, b_d = cost_alltoall(NBYTES, P_PAPER)
    m_s, b_s = cost_alltoall_sparse(NBYTES, 16, P_PAPER)
    assert m_s < m_d / 1000
    assert b_s < b_d
    t_dense, t_sparse = _modeled_dense_sparse()
    assert t_dense == pytest.approx(0.5776742232000001, rel=1e-9)
    assert t_sparse == pytest.approx(9.24288e-05, rel=1e-9)


def test_pruning_halves_x2o(maps):
    savings = _x2o_savings()
    assert savings["fraction_saved"] == 0.5
    assert savings["bytes_after"] == 28672


def test_benchmark_router_build(benchmark, maps):
    router = benchmark(Router.build, *maps)
    assert router.total_points() == GSIZE


def test_benchmark_p2p_rearrange(benchmark, maps, router):
    benchmark(_run_world, maps, router, "p2p")


# -- coalesced plans and the cache ---------------------------------------------

PLAN_BUNDLES = {
    "x2o": ["taux", "tauy", "swnet", "lwdn"],
    "i2x": ["ifrac", "tsurf"],
}
N_PLAN_FIELDS = sum(len(f) for f in PLAN_BUNDLES.values())


def _bundle_values(src, rank):
    idx = src.local_indices(rank)
    return {
        name: AttrVect.from_dict(
            {f: np.arange(GSIZE, dtype=float)[idx] * (i + 1)
             for i, f in enumerate(fields)}
        )
        for name, fields in PLAN_BUNDLES.items()
    }


def _run_granularity_world(maps, router, granularity):
    """Ship both PLAN_BUNDLES through the legacy rearranger layouts."""
    src, dst = maps
    world = SimWorld(N_PES)
    rearranger = Rearranger(router, method="p2p", granularity=granularity)

    def program(comm):
        dst_lsize = len(dst.local_indices(comm.rank))
        for av in _bundle_values(src, comm.rank).values():
            rearranger.rearrange(comm, av, dst_lsize)

    world.run(program)
    return world.ledger


def _run_plan_world(maps, router):
    src, dst = maps
    plan = RearrangePlan.compile(router, PLAN_BUNDLES)
    world = SimWorld(N_PES)

    def program(comm):
        plan.execute(
            comm, _bundle_values(src, comm.rank), len(dst.local_indices(comm.rank))
        )

    world.run(program)
    return plan, world.ledger


def _edges(router):
    return sum(1 for (p, q) in router.send if p != q)


def test_plan_beats_field_granularity_on_the_ledger(maps, router):
    """The coalescing chain: per-field > per-bundle > one plan message
    per edge, all over the same Router."""
    led_field = _run_granularity_world(maps, router, "field")
    led_bundle = _run_granularity_world(maps, router, "bundle")
    plan, led_plan = _run_plan_world(maps, router)
    assert _edges(router) == 16
    assert led_plan.p2p_messages == 16
    assert led_bundle.p2p_messages == 32
    assert led_field.p2p_messages == 96
    assert plan.message_counts(N_PES)["message_reduction"] == 6
    # Modeled latency of one exchange per layout at the paper's link.
    assert led_plan.p2p_messages * LAT == pytest.approx(4e-05, rel=1e-9)
    assert led_field.p2p_messages * LAT == pytest.approx(2.4e-04, rel=1e-9)


def test_cache_cold_build_warm_load(maps, tmp_path):
    """The offline preprocessing step, automated: the second run resolves
    the same content key and never calls Router.build."""
    src, dst = maps
    cold = CouplerCache(tmp_path)
    cold.get_gsmap("src", src.owner_array())
    cold.get_gsmap("dst", dst.owner_array())
    cold.get_router("src", "dst", src, dst)
    assert (cold.hits, cold.misses) == (0, 3)
    warm = CouplerCache(tmp_path)
    warm.get_gsmap("src", src.owner_array())
    warm.get_gsmap("dst", dst.owner_array())
    warm.get_router("src", "dst", src, dst)
    assert (warm.hits, warm.misses) == (3, 0)
    assert warm.build_time_saved_s > 0.0
