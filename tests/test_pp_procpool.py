"""Tests for the ProcPool shared-memory execution backend.

The contract under test: ProcPool executes the *same* decomposition as
the in-process base space, so results are bit-for-bit identical to Serial —
while actually dispatching BoundKernel launches to worker processes and
falling back in-process (never crashing, never losing writes) for
functors it cannot ship.
"""

import functools

import numpy as np
import pytest

from repro.pp import (
    BoundKernel,
    KernelRegistry,
    MDRangePolicy,
    ProcPool,
    Serial,
    make_backend,
    parallel_for,
    parallel_reduce,
    parallel_scan,
    reduction_chunks,
)
from repro.pp.procpool import _pack_index, _unpack_index


# -- module-level kernels (picklable, worker-resolvable) -------------------

def _saxpy(idx, out, x, a):
    out[idx] = a * x[idx] + np.sin(x[idx])


def _fill_tile(kz, jy, out):
    out[np.ix_(kz, jy)] = kz[:, None] * 100.0 + jy[None, :]


def _chunk_sum(idx, x):
    return x[idx].sum()


def _tile_sum(kz, jy, x):
    return x[np.ix_(kz, jy)].sum()


def _copy_tagged(idx, out, tags):
    out[idx] = idx * 2.0


def _rw_alias(idx, a, b):
    # a and b may be the same array: writes through one name must be
    # visible through the other inside the worker.
    a[idx] = b[idx] + 1.0


REGISTRY = KernelRegistry()
_SAXPY_H = REGISTRY.register(_saxpy)


@pytest.fixture(scope="module")
def pool():
    space = ProcPool(2)
    yield space
    space.runtime.shutdown()


def test_parallel_for_bitwise_vs_serial(pool):
    n = 30_000
    x = np.linspace(0.0, 3.0, n)
    out_s, out_p = np.zeros(n), np.zeros(n)
    parallel_for(Serial(), n, BoundKernel(_saxpy, (out_s, x, 2.0)))
    parallel_for(pool, n, BoundKernel(_saxpy, (out_p, x, 2.0)))
    assert np.array_equal(out_s, out_p)
    assert pool.runtime.stats.dispatches >= 1


def test_registry_launch_dispatches_to_pool(pool):
    n = 20_000
    x = np.linspace(0.0, 1.0, n)
    out_s, out_p = np.zeros(n), np.zeros(n)
    REGISTRY.launch(Serial(), _SAXPY_H, n, out_s, x, 0.5)
    before = pool.runtime.stats.dispatches
    REGISTRY.launch(pool, _SAXPY_H, n, out_p, x, 0.5)
    assert pool.runtime.stats.dispatches == before + 1
    assert np.array_equal(out_s, out_p)


def test_mdrange_bitwise_vs_serial(pool):
    policy = MDRangePolicy(extents=(32, 48), tile=(4, 48))
    a_s, a_p = np.zeros((32, 48)), np.zeros((32, 48))
    parallel_for(Serial(), policy, BoundKernel(_fill_tile, (a_s,)))
    parallel_for(pool, policy, BoundKernel(_fill_tile, (a_p,)))
    assert np.array_equal(a_s, a_p)


def test_reduce_bitwise_vs_serial(pool):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(50_000) * 1e8
    r_s = parallel_reduce(Serial(), len(x), BoundKernel(_chunk_sum, (x,)))
    r_p = parallel_reduce(pool, len(x), BoundKernel(_chunk_sum, (x,)))
    assert r_s == r_p  # bit-for-bit, not approx


def test_scan_bitwise_vs_serial(pool):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(40_000)
    s_s = parallel_scan(Serial(), len(x), x)
    s_p = parallel_scan(pool, len(x), x)
    assert np.array_equal(s_s, s_p)


def test_closure_on_write_path_falls_back_correctly(pool):
    n = 5_000
    x = np.arange(n, dtype=float)
    out = np.zeros(n)

    def body(idx):
        out[idx] = x[idx] * 3.0

    before = pool.runtime.stats.fallbacks
    parallel_for(pool, n, body)
    assert np.array_equal(out, x * 3.0)
    assert pool.runtime.stats.fallbacks == before + 1


def test_lambda_reduce_falls_back_correctly(pool):
    x = np.arange(10_000, dtype=float)
    total = parallel_reduce(pool, len(x), lambda idx: x[idx].sum())
    assert total == parallel_reduce(Serial(), len(x), lambda idx: x[idx].sum())


def test_picklable_plain_functor_reduce_dispatches_once(pool):
    """A pure launch ships any picklable functor, not only a BoundKernel."""
    x = np.random.default_rng(6).standard_normal(30_000) * 1e6
    functor = functools.partial(_chunk_sum, x=x)
    st = pool.runtime.stats
    before, fallbacks = st.dispatches, st.fallbacks
    r_p = parallel_reduce(pool, len(x), functor)
    assert (st.dispatches, st.fallbacks) == (before + 1, fallbacks)
    assert np.asarray(r_p).tobytes() == np.asarray(parallel_reduce(Serial(), len(x), functor)).tobytes()


def test_mdrange_reduce_bitwise_vs_serial(pool):
    x = np.random.default_rng(7).standard_normal((40, 30)) * 1e6
    policy = MDRangePolicy(extents=(40, 30))
    before = pool.runtime.stats.dispatches
    r_p = parallel_reduce(pool, policy, BoundKernel(_tile_sum, (x,)))
    assert pool.runtime.stats.dispatches == before + 1
    assert np.asarray(r_p).tobytes() == np.asarray(
        parallel_reduce(Serial(), policy, BoundKernel(_tile_sum, (x,)))).tobytes()


def test_aliased_array_args_share_one_segment(pool):
    n = 4_000
    a = np.arange(n, dtype=float)
    parallel_for(pool, n, BoundKernel(_rw_alias, (a, a)))
    assert np.array_equal(a, np.arange(n, dtype=float) + 1.0)


def test_pool_reuses_shared_segments(pool):
    n = 8_192
    x = np.linspace(0.0, 1.0, n)
    out = np.zeros(n)
    parallel_for(pool, n, BoundKernel(_saxpy, (out, x, 1.0)))
    staged_once = pool.runtime.stats.bytes_shared
    capacity = pool.runtime._arena.total_bytes
    parallel_for(pool, n, BoundKernel(_saxpy, (out, x, 1.0)))
    # bytes_shared counts staging traffic and keeps growing, but the
    # arena recycles segments: capacity must not grow on a repeat launch.
    assert pool.runtime.stats.bytes_shared > staged_once
    assert pool.runtime._arena.total_bytes == capacity


def test_refused_argument_stages_nothing():
    """An argument the pool cannot ship (an object array) is found before
    any segment is acquired: the launch falls back in-process, and neither
    the arena nor ``bytes_shared`` grows however often it repeats."""
    space = ProcPool(2)
    st, arena = space.runtime.stats, space.runtime._arena
    try:
        n = 6_000
        tags = np.empty(3, dtype=object)
        for k in (1, 2, 3):
            out = np.zeros(n)
            parallel_for(space, n, BoundKernel(_copy_tagged, (out, tags)))
            assert np.array_equal(out, np.arange(n) * 2.0)
            assert (st.fallbacks, st.bytes_shared, arena.total_bytes) == (k, 0, 0)
        x = np.linspace(0.0, 3.0, n)
        out_s, out_p = np.zeros(n), np.zeros(n)
        parallel_for(Serial(), n, BoundKernel(_saxpy, (out_s, x, 2.0)))
        parallel_for(space, n, BoundKernel(_saxpy, (out_p, x, 2.0)))
        assert (st.dispatches, st.fallbacks) == (1, 3)
        assert out_s.tobytes() == out_p.tobytes()
    finally:
        space.runtime.shutdown()


def test_shutdown_is_idempotent():
    space = ProcPool(2)
    n = 4_096
    out = np.zeros(n)
    parallel_for(space, n, BoundKernel(_saxpy, (out, np.ones(n), 1.0)))
    space.runtime.shutdown()
    space.runtime.shutdown()
    # After shutdown the space still works — everything falls back lazily
    # to a fresh pool on next dispatch.
    out2 = np.zeros(n)
    parallel_for(space, n, BoundKernel(_saxpy, (out2, np.ones(n), 1.0)))
    assert np.array_equal(out, out2)
    space.runtime.shutdown()


def test_make_backend_names():
    assert make_backend("serial") == Serial()
    procs = make_backend("procs", 2)
    assert procs.name == "ProcPool" and procs.lanes == 2
    procs.runtime.shutdown()
    # The lane counts that used to pose as backends are not executors.
    for name in ("threads", "cpe", "gpu", "quantum"):
        with pytest.raises(ValueError, match="expected 'serial' or 'procs'"):
            make_backend(name)


def test_reduction_chunks_space_independent():
    chunks = reduction_chunks(10_000)
    assert np.array_equal(np.concatenate(chunks), np.arange(10_000))
    assert reduction_chunks(0) == []
    with pytest.raises(ValueError):
        reduction_chunks(-1)


def test_pack_index_roundtrip():
    contiguous = np.arange(5, 17, dtype=np.int64)
    packed = _pack_index(contiguous)
    assert packed == (5, 17)
    assert np.array_equal(_unpack_index(packed), contiguous)
    ragged = np.array([1, 3, 4], dtype=np.int64)
    assert _pack_index(ragged) is ragged
    assert _unpack_index(ragged) is ragged


def test_main_defined_kernels_are_refused(pool):
    # A function claiming to live in __main__ must never be shipped: a
    # worker forked earlier cannot resolve it, which would kill the
    # worker mid-unpickle and hang the dispatch forever.
    def fake(idx, out):
        out[idx] = 1.0

    fake.__module__ = "__main__"
    out = np.zeros(4_000)
    parallel_for(pool, 4_000, BoundKernel(fake, (out,)))  # falls back
    assert np.all(out == 1.0)


def test_occupancy_and_counters(pool):
    st = pool.runtime.stats
    assert st.workers == 2
    assert st.dispatches > 0 and st.tasks >= st.dispatches
    assert 0.0 < st.occupancy <= 2.0 * st.workers
