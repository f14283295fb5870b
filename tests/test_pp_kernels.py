"""Tests for space-polymorphic parallel dispatch (the §5.3 portability claim:
identical results however the launch is cut, wherever the chunks run)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CPE_PROCESSOR
from repro.pp import (
    BoundKernel,
    ExecutionSpace,
    KernelStats,
    MDRangePolicy,
    ProcPool,
    Serial,
    parallel_for,
    parallel_reduce,
    parallel_scan,
)


def cut(lanes):
    return ExecutionSpace("cut", lanes=lanes)


# A device is a lane count: the ids name the hardware each cut stands for
# (and keep the test ids these cases had when each had its own constructor).
SPACES = [Serial(), cut(4), cut(64), cut(256)]
IDS = ["Serial", "HostThreads", "CPECluster", "GPUDevice"]


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_parallel_for_covers_range(space):
    n = 1000
    out = np.zeros(n)

    def body(idx):
        out[idx] = idx * 2.0

    parallel_for(space, n, body)
    assert np.array_equal(out, np.arange(n) * 2.0)


def _every_launch_kind(space, n=20_000):
    """Flat for, default-tile MDRange for, reduce and scan on ``space``."""
    x = np.random.default_rng(11).standard_normal(n)
    flat = np.zeros(n)
    parallel_for(space, n, BoundKernel(_bit_body, (flat, x)))
    tiled = np.zeros((70, 11))
    parallel_for(space, MDRangePolicy((70, 11)), BoundKernel(_bit_tile, (tiled,)))
    total = parallel_reduce(space, n, BoundKernel(_bit_partial, (x,)))
    return flat, tiled, np.asarray(total), parallel_scan(space, n, x)


def test_all_spaces_bit_identical():
    """The portability contract is independence of the cut: every launch
    kind gives Serial()'s bits in 1, 2, 7, 64 and 4096 chunks."""
    want = _every_launch_kind(Serial(), n=5000)
    for lanes in (1, 2, 7, 64, 4096):
        for got, ref in zip(_every_launch_kind(cut(lanes), n=5000), want):
            assert np.array_equal(got, ref), lanes


@dataclasses.dataclass(frozen=True)
class _RecordingSpace(ExecutionSpace):
    """Overrides only ``run``: records (tile rank, pure) per launch."""

    calls: list = dataclasses.field(default_factory=list)

    def run(self, functor, tiles, pure=False):
        self.calls.append((len(tiles[0]), pure))
        return super().run(functor, tiles, pure)


def test_one_run_hook_sees_every_launch_kind():
    """Every launch kind goes through ``ExecutionSpace.run``: flat and
    MDRange ``parallel_for`` and ``parallel_scan`` write (``pure=False``),
    ``parallel_reduce`` is pure; the results are Serial()'s bits."""
    space = _RecordingSpace("rec", lanes=3)
    for got, ref in zip(_every_launch_kind(space, n=5000),
                        _every_launch_kind(Serial(), n=5000)):
        assert np.array_equal(got, ref)
    x = np.random.default_rng(5).standard_normal((12, 7))
    tiled = parallel_reduce(space, MDRangePolicy((12, 7)), BoundKernel(_bit_tile_partial, (x,)))
    assert tiled == parallel_reduce(Serial(), MDRangePolicy((12, 7)), BoundKernel(_bit_tile_partial, (x,)))
    assert space.calls == [(1, False), (2, False), (1, True), (1, False), (2, True)]


def test_chunks_partition_disjoint():
    space = cut(64)
    seen = np.zeros(1000, dtype=int)
    for chunk in space.chunks(1000):
        seen[chunk] += 1
    assert np.all(seen == 1)


def test_chunks_fewer_iterations_than_lanes():
    space = cut(4096)
    chunks = list(space.chunks(10))
    total = np.concatenate(chunks)
    assert np.array_equal(np.sort(total), np.arange(10))


def test_chunks_zero_iterations():
    assert list(Serial().chunks(0)) == []


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_parallel_reduce_sum(space):
    n = 500
    x = np.arange(n, dtype=float)
    total = parallel_reduce(space, n, lambda idx: x[idx].sum())
    assert total == pytest.approx(x.sum())


def test_parallel_reduce_deterministic_across_spaces():
    """FP sums must agree bit-for-bit across spaces with equal lane counts
    and remain deterministic per space."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(10_000) * 1e8
    space = cut(64)
    a = parallel_reduce(space, len(x), lambda idx: x[idx].sum())
    b = parallel_reduce(space, len(x), lambda idx: x[idx].sum())
    assert a == b


def test_parallel_reduce_max_combine():
    x = np.array([3.0, 9.0, 1.0, 7.0])
    space = cut(2)
    result = parallel_reduce(space, 4, lambda idx: x[idx].max(), combine=np.maximum)
    assert result == 9.0


def test_parallel_reduce_empty_raises():
    with pytest.raises(ValueError):
        parallel_reduce(Serial(), 0, lambda idx: 0.0)


def test_mdrange_tiles_cover_space():
    policy = MDRangePolicy(extents=(5, 7, 3), tile=(2, 3, 3))
    covered = np.zeros((5, 7, 3), dtype=int)
    for tile in policy.tiles():
        covered[np.ix_(*tile)] += 1
    assert np.all(covered == 1)
    assert policy.n_iterations == 5 * 7 * 3


def test_mdrange_default_tile_is_pencils():
    """The policy's own, space-independent default (what ``parallel_reduce``
    decomposes by) is pencils; resolved against a space it is one tile per
    lane along the leading dimension; an explicit tile ignores the space."""
    policy = MDRangePolicy(extents=(4, 6))
    assert policy.effective_tile == (1, 6)
    assert len(policy.tiles()) == 4
    assert [tuple(len(ix) for ix in t) for t in policy.tiles(Serial())] == [(4, 6)]
    assert [tuple(len(ix) for ix in t) for t in policy.tiles(cut(2))] == [(2, 6), (2, 6)]
    explicit = MDRangePolicy(extents=(4, 6), tile=(1, 3))
    assert len(explicit.tiles(Serial())) == len(explicit.tiles()) == 8


def test_mdrange_validation():
    with pytest.raises(ValueError):
        MDRangePolicy(extents=())
    with pytest.raises(ValueError):
        MDRangePolicy(extents=(4, 4), tile=(2,))
    with pytest.raises(ValueError):
        MDRangePolicy(extents=(4, 4), tile=(0, 2))


def test_mdrange_parallel_for_matches_dense():
    nz, ny = 6, 8
    a = np.zeros((nz, ny))
    policy = MDRangePolicy(extents=(nz, ny), tile=(2, 4))

    def body(kz, jy):
        a[np.ix_(kz, jy)] = kz[:, None] * 100.0 + jy[None, :]

    parallel_for(Serial(), policy, body)
    kz, jy = np.mgrid[0:nz, 0:ny]
    assert np.array_equal(a, kz * 100.0 + jy)


def test_tile_profiling(record_tiles):
    space, launches = record_tiles(Serial())
    policy = MDRangePolicy(extents=(5, 5), tile=(2, 2))
    assert parallel_for(space, policy, lambda a, b: None) is None
    (tiles,) = launches
    sizes = [math.prod(shape) for shape in tiles]
    assert len(tiles) == 9  # ceil(5/2)^2
    assert sum(sizes) == 25
    assert max(sizes) / (sum(sizes) / len(sizes)) > 1.0  # edge tiles are smaller


def test_kernel_stats_accumulate():
    stats = KernelStats()
    parallel_for(Serial(), 10, lambda idx: None, stats=stats)
    parallel_for(Serial(), 20, lambda idx: None, stats=stats)
    assert stats.launches == 2
    assert stats.iterations == 30


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_parallel_scan_matches_numpy(space):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 100, 333).astype(float)
    got = parallel_scan(space, len(x), x)
    want = np.concatenate([[0.0], np.cumsum(x)[:-1]])
    assert np.allclose(got, want)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=128))
def test_scan_property_any_size_any_lanes(n, lanes):
    x = np.ones(n)
    got = parallel_scan(cut(lanes), n, x)
    assert np.array_equal(got, np.arange(n, dtype=float))


def test_modeled_time_monotone_in_flops():
    """Modeled seconds come from the device descriptor; a space has none."""
    assert CPE_PROCESSOR.roofline_s(1e9, 0.0) < CPE_PROCESSOR.roofline_s(2e9, 0.0)
    assert CPE_PROCESSOR.roofline_s(1.0, 8e9) == 8e9 / CPE_PROCESSOR.mem_bw
    assert CPE_PROCESSOR.roofline_s(1.0, 8e9, mem_bw=1e9) == 8.0
    with pytest.raises(ValueError):
        CPE_PROCESSOR.roofline_s(-1.0, 0.0)
    assert [f.name for f in dataclasses.fields(ExecutionSpace)] == ["name", "lanes"]
    with pytest.raises(ValueError):
        cut(0)


def test_parallel_scan_empty_range():
    """n=0 is a legal launch: empty output, no chunk work, stats recorded."""
    stats = KernelStats()
    for space in SPACES:
        got = parallel_scan(space, 0, np.zeros(0), stats=stats)
        assert got.shape == (0,)
    assert stats.launches == len(SPACES)
    assert stats.iterations == 0


def test_parallel_scan_single_element():
    for space in SPACES:
        got = parallel_scan(space, 1, np.array([7.5]))
        assert np.array_equal(got, np.array([0.0]))


def test_parallel_scan_fewer_elements_than_lanes():
    """A single occupied tile (every other lane's chunk empty) must not
    perturb the serial prefix sum."""
    x = np.array([3.0, 1.0, 4.0])
    got = parallel_scan(cut(64), 3, x)
    assert np.array_equal(got, np.array([0.0, 3.0, 4.0]))


def test_parallel_scan_vector_values():
    """Scan over per-row vectors (the rearranger offset pattern)."""
    x = np.arange(12, dtype=float).reshape(6, 2)
    got = parallel_scan(cut(4), 6, x)
    want = np.cumsum(x, axis=0) - x
    assert np.array_equal(got, want)


def test_mdrange_single_tile_covers_everything():
    """A tile as big as the space degenerates to one launch index."""
    policy = MDRangePolicy((5, 7), tile=(5, 7))
    tiles = policy.tiles()
    assert len(tiles) == 1
    out = np.zeros((5, 7))

    def body(yi, xi):
        out[np.ix_(yi, xi)] += 1.0

    parallel_for(Serial(), policy, body)
    assert np.all(out == 1.0)


# -- empty-iteration-space semantics (the documented edge-case contract) ---


def test_mdrange_zero_extents_are_legal_and_produce_zero_tiles():
    """Zero extents pass validation (only negatives raise) and yield no
    tiles — the MDRange analogue of ``chunks(0)`` yielding no chunks."""
    for extents in [(0,), (0, 5), (5, 0), (3, 0, 4)]:
        policy = MDRangePolicy(extents=extents)
        assert policy.tiles() == []
        assert policy.n_iterations == 0
    with pytest.raises(ValueError, match="non-empty tuple of integers >= 0"):
        MDRangePolicy(extents=(3, -1))


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_parallel_for_empty_flat_and_mdrange_consistent(space):
    """A flat n=0 and a zero-extent MDRange both call the functor zero
    times (and never with an empty index array)."""
    calls = []
    parallel_for(space, 0, lambda idx: calls.append(len(idx)))
    parallel_for(space, MDRangePolicy((0, 4)), lambda a, b: calls.append(0))
    assert calls == []


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_parallel_reduce_empty_flat_and_mdrange_consistent(space):
    """Flat n=0 and zero-extent MDRange raise the same documented error."""
    with pytest.raises(ValueError, match="no reduction identity"):
        parallel_reduce(space, 0, lambda idx: 0.0)
    with pytest.raises(ValueError, match="no reduction identity"):
        parallel_reduce(space, MDRangePolicy((4, 0)), lambda a, b: 0.0)


def test_chunks_negative_raises():
    with pytest.raises(ValueError):
        list(Serial().chunks(-1))


# -- backend-parametrized bitwise identity, including the real ProcPool ----

def _bit_body(idx, out, x):
    out[idx] = np.sin(x[idx]) * np.exp(-x[idx])


def _bit_partial(idx, x):
    return x[idx].sum()


def _bit_tile(kz, jy, out):
    out[np.ix_(kz, jy)] = np.cos(kz[:, None] * 0.1) + jy[None, :] * 0.01


def _bit_tile_nd(kz, jy, *rest):
    """``_bit_tile`` for any rank >= 2: trailing dimensions are ignored."""
    _bit_tile(kz, jy, rest[-1])


def _bit_tile_partial(kz, jy, x):
    return x[np.ix_(kz, jy)].sum()


@pytest.fixture(scope="module")
def procpool():
    space = ProcPool(2)
    yield space
    space.runtime.shutdown()


@pytest.fixture(scope="module")
def all_backends(procpool):
    return SPACES + [procpool]


def test_for_reduce_scan_bitwise_across_all_backends(all_backends):
    """§5.1's validation property, now including a backend that really
    executes on separate processes: identical bits from every space."""
    want = _every_launch_kind(Serial())
    for space in all_backends:
        for got, ref in zip(_every_launch_kind(space), want):
            assert np.array_equal(got, ref), space.name


def test_mdrange_bitwise_across_all_backends(all_backends):
    policy = MDRangePolicy(extents=(24, 40), tile=(6, 40))
    ref = None
    for space in all_backends:
        out = np.zeros((24, 40))
        parallel_for(space, policy, BoundKernel(_bit_tile, (out,)))
        if ref is None:
            ref = out
        else:
            assert np.array_equal(out, ref), space.name


@pytest.fixture(scope="module")
def lane_spaces(procpool):
    return [Serial(), cut(4), procpool]


@pytest.mark.parametrize("extents", [(24, 40), (3, 5), (1, 7, 2)])
def test_mdrange_default_tile_is_one_tile_per_lane(lane_spaces, record_tiles, extents):
    """A default-tile MDRange ``parallel_for`` runs ``min(lanes, extent[0])``
    tiles on every space and writes the bits explicit pencil tiles write."""
    pencils = MDRangePolicy(extents, tile=(1,) + extents[1:])
    ref = np.zeros(extents[:2])
    parallel_for(Serial(), pencils, BoundKernel(_bit_tile_nd, (ref,)))
    for space in lane_spaces:
        rec, launches = record_tiles(space)
        out = np.zeros(extents[:2])
        parallel_for(rec, MDRangePolicy(extents), BoundKernel(_bit_tile_nd, (out,)))
        (tiles,) = launches
        assert len(tiles) == min(space.lanes, extents[0]), space.name
        assert sum(map(math.prod, tiles)) == int(np.prod(extents)), space.name
        assert np.array_equal(out, ref), space.name


def test_mdrange_default_tile_zero_extent_runs_zero_tiles(lane_spaces, record_tiles):
    for space in lane_spaces:
        for extents in [(0, 4), (4, 0)]:
            rec, launches = record_tiles(space)
            parallel_for(
                rec, MDRangePolicy(extents), BoundKernel(_bit_tile, (np.zeros(extents),))
            )
            assert launches == [[]], (space.name, extents)


def test_mdrange_reduce_decomposition_is_not_lane_dependent(lane_spaces):
    """``parallel_reduce`` keeps the policy's space-independent tiles: an
    order-sensitive combine over a default-tile MDRange returns the
    identical value on 1, 4 and 2 lanes."""
    x = np.random.default_rng(13).standard_normal((37, 11))

    def combine(a, b):
        return a + 2.0 * b

    got = [
        parallel_reduce(
            space, MDRangePolicy(x.shape), BoundKernel(_bit_tile_partial, (x,)), combine=combine
        )
        for space in lane_spaces
    ]
    assert got[0] == got[1] == got[2]
    # ... and it is the pencil decomposition, not one lane-sized tile.
    pencils = [x[i].sum() for i in range(x.shape[0])]
    while len(pencils) > 1:
        nxt = [combine(a, b) for a, b in zip(pencils[0::2], pencils[1::2])]
        pencils = nxt + pencils[len(nxt) * 2:]
    assert got[0] == pencils[0]


def test_reduce_non_commutative_combine_pins_order(all_backends):
    """combine(a, b) = a + 2b is order-sensitive: identical results on
    every backend prove the pairwise tree sees identical ordered partials."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal(30_000)

    def combine(a, b):
        return a + 2.0 * b

    ref = None
    for space in all_backends:
        got = parallel_reduce(space, len(x), BoundKernel(_bit_partial, (x,)), combine=combine)
        if ref is None:
            ref = got
        else:
            assert got == ref, space.name


def test_empty_space_edges_on_procpool(procpool):
    """The n=0 / zero-extent contract holds on the process backend too."""
    parallel_for(procpool, 0, BoundKernel(_bit_body, (np.zeros(0), np.zeros(0))))
    with pytest.raises(ValueError, match="no reduction identity"):
        parallel_reduce(procpool, 0, BoundKernel(_bit_partial, (np.zeros(0),)))
    with pytest.raises(ValueError, match="no reduction identity"):
        parallel_reduce(procpool, MDRangePolicy((0, 3)), BoundKernel(_bit_partial, (np.zeros(0),)))
    assert parallel_scan(procpool, 0, np.zeros(0)).shape == (0,)
