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
from repro.bench import PerfBaseline, compare_baselines, emit
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
    reg = FieldRegistry.cesm_default()
    reg.mark_used("x2o", ["Foxx_taux", "Foxx_tauy", "Foxx_swnet",
                          "Foxx_lwdn", "Foxx_sen", "Foxx_lat", "Foxx_rain"])
    savings = reg.savings("x2o", lsize=GSIZE // N_PES)

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

    # Modeled time at paper scale (100k ranks, 16 real partners).
    p = 100_000
    nbytes = 64 * 1024
    msgs_dense, bytes_dense = cost_alltoall(nbytes, p)
    msgs_sparse, bytes_sparse = cost_alltoall_sparse(nbytes, 16, p)
    lat, bw = 2.5e-6, 2.0e10
    t_dense = msgs_dense * lat + bytes_dense / bw
    t_sparse = msgs_sparse * lat + bytes_sparse / bw

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
    p, nbytes = 100_000, 64 * 1024
    m_d, b_d = cost_alltoall(nbytes, p)
    m_s, b_s = cost_alltoall_sparse(nbytes, 16, p)
    assert m_s < m_d / 1000
    assert b_s < b_d


def test_pruning_halves_x2o(maps):
    reg = FieldRegistry.cesm_default()
    reg.mark_used("x2o", ["Foxx_taux", "Foxx_tauy", "Foxx_swnet",
                          "Foxx_lwdn", "Foxx_sen", "Foxx_lat", "Foxx_rain"])
    assert reg.savings("x2o", 1000)["fraction_saved"] == pytest.approx(0.5)


def test_benchmark_router_build(benchmark, maps):
    router = benchmark(Router.build, *maps)
    assert router.total_points() == GSIZE


def test_benchmark_p2p_rearrange(benchmark, maps, router):
    benchmark(_run_world, maps, router, "p2p")


# -- coalesced plans, the cache, and the JSON perf baseline ------------------

PLAN_BUNDLES = {
    "x2o": ["taux", "tauy", "swnet", "lwdn"],
    "i2x": ["ifrac", "tsurf"],
}
N_PLAN_FIELDS = sum(len(f) for f in PLAN_BUNDLES.values())

BENCH_JSON = "BENCH_coupler.json"
BASELINE_DIR = __import__("pathlib").Path(__file__).parent / "baselines"


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
    edges = _edges(router)
    assert led_plan.p2p_messages == edges
    assert led_bundle.p2p_messages == edges * len(PLAN_BUNDLES)
    assert led_field.p2p_messages == edges * N_PLAN_FIELDS
    assert led_field.p2p_messages >= N_PLAN_FIELDS * led_plan.p2p_messages
    assert plan.message_counts(N_PES)["message_reduction"] == N_PLAN_FIELDS


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


def _bench_document(maps, router, tmp_path):
    src, dst = maps
    doc = PerfBaseline(suite="coupler")
    edges = _edges(router)

    # Deterministic message arithmetic (gated).
    led_field = _run_granularity_world(maps, router, "field")
    led_bundle = _run_granularity_world(maps, router, "bundle")
    plan, led_plan = _run_plan_world(maps, router)
    led_a2a = _run_world(maps, router, "alltoall")
    doc.record("router.edges", edges)
    doc.record("plan.p2p_messages", led_plan.p2p_messages)
    doc.record("bundle.p2p_messages", led_bundle.p2p_messages)
    doc.record("field.p2p_messages", led_field.p2p_messages)
    doc.record("alltoall.total_messages", led_a2a.total_messages)
    doc.record("plan.message_reduction",
               plan.message_counts(N_PES)["message_reduction"])

    # Pruning arithmetic (gated).
    reg = FieldRegistry.cesm_default()
    reg.mark_used("x2o", ["Foxx_taux", "Foxx_tauy", "Foxx_swnet",
                          "Foxx_lwdn", "Foxx_sen", "Foxx_lat", "Foxx_rain"])
    savings = reg.savings("x2o", lsize=GSIZE // N_PES)
    doc.record("prune.x2o_fraction_saved", savings["fraction_saved"])
    doc.record("prune.x2o_bytes_after", savings["bytes_after"], unit="B")

    # Cache behaviour (gated counts).
    cold = CouplerCache(tmp_path / "bench-cache")
    cold.get_router("src", "dst", src, dst)
    warm = CouplerCache(tmp_path / "bench-cache")
    warm.get_router("src", "dst", src, dst)
    doc.record("cache.cold_misses", cold.misses)
    doc.record("cache.warm_hits", warm.hits)

    # Modeled time at paper scale (gated, deterministic model output).
    p, nbytes, lat, bw = 100_000, 64 * 1024, 2.5e-6, 2.0e10
    m_d, b_d = cost_alltoall(nbytes, p)
    m_s, b_s = cost_alltoall_sparse(nbytes, 16, p)
    doc.record("model.dense_alltoall_s", m_d * lat + b_d / bw, kind="model", unit="s")
    doc.record("model.sparse_p2p_s", m_s * lat + b_s / bw, kind="model", unit="s")
    doc.record("model.plan_latency_s", edges * lat, kind="model", unit="s")
    doc.record("model.field_latency_s", edges * N_PLAN_FIELDS * lat,
               kind="model", unit="s")

    # Wall times (informational only — never gated).
    t0 = time.perf_counter()
    Router.build(src, dst)
    doc.record("wall.router_build_ms", (time.perf_counter() - t0) * 1e3,
               kind="wall", unit="ms")
    path = tmp_path / "bench-router.npz"
    router.to_file(path)
    t0 = time.perf_counter()
    Router.from_file(path)
    doc.record("wall.router_load_ms", (time.perf_counter() - t0) * 1e3,
               kind="wall", unit="ms")
    return doc.stamp_host()


def test_emit_bench_coupler_json(maps, router, tmp_path, report_dir):
    """Emit BENCH_coupler.json — the document the CI perf gate compares
    against benchmarks/baselines/BENCH_coupler.json."""
    doc = _bench_document(maps, router, tmp_path)
    emit(doc, report_dir)


def test_gate_against_committed_baseline(maps, router, tmp_path):
    """The acceptance check the CI job runs: the fresh document must pass
    the 15 % gate against the committed baseline."""
    baseline_path = BASELINE_DIR / BENCH_JSON
    if not baseline_path.exists():
        pytest.skip("no committed baseline yet")
    doc = _bench_document(maps, router, tmp_path)
    comparison = compare_baselines(
        doc, PerfBaseline.from_file(baseline_path), tolerance=0.15
    )
    print("\n" + comparison.report())
    assert comparison.ok, comparison.report()
