"""§5.3: performance portability (Kokkos + SWGOMP).

Two separate questions, answered by the two layers that own them:

* **Do the bits depend on the device?**  No — and the reason is that a
  device only changes how a launch is *cut*.  The same kernels produce
  bit-identical results in 1, 8, 64 and 4096 chunks (the lane counts of
  one MPE, 8 host threads, a 64-CPE cluster and a 4096-thread GPU) and
  on ProcPool, the executor that really runs on separate host cores; the
  hash-registry launch path (the Sunway TMP workaround) matches direct
  dispatch exactly.
* **What does a device cost?**  That is :mod:`repro.machine`'s business:
  the kernel is priced on the ``MPE_/HOST_/CPE_/GPU_PROCESSOR``
  descriptors Table 2 is regenerated from, through the one roofline
  (``ProcessorSpec.roofline_s``) plus the fitted ``per_launch_s`` of the
  committed ``CALIBRATION.json`` — which reproduces the MPE-vs-CPE
  ordering behind Table 2, and the split that balances MPE and CPEs.

The *measured* procs-vs-serial wall-time speedup must exceed 1x on a
multi-core host (informational on a single core); a fixed-width
``ProcPool(2)``'s dispatch counts and the modeled per-device kernel times
are pinned exactly.
"""

import functools
import multiprocessing
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import banner, format_table
from repro.machine import (
    CPE_PROCESSOR,
    GPU_PROCESSOR,
    HOST_PROCESSOR,
    MPE_PROCESSOR,
    CalibrationTable,
)
from repro.pp import (
    BoundKernel,
    ExecutionSpace,
    HybridDispatcher,
    KernelRegistry,
    MDRangePolicy,
    ProcPool,
    Serial,
    kernel_hash,
    parallel_for,
    parallel_reduce,
)

CUTS = {k: ExecutionSpace("cut", lanes=k) for k in (1, 8, 64, 4096)}
CPE_CUT = CUTS[64]

DEVICES = {
    "mpe": MPE_PROCESSOR,
    "host": HOST_PROCESSOR,
    "cpe": CPE_PROCESSOR,
    "gpu": GPU_PROCESSOR,
}
STENCIL_FLOPS, STENCIL_BYTES = 4.0, 16.0   # per point of `_stencil`


@functools.lru_cache(maxsize=None)
def calibration():
    """The committed table (read on first use, not at collection)."""
    return CalibrationTable.from_file(Path(__file__).parents[1] / "CALIBRATION.json")


def kernel_s(proc, flops):
    """Modeled seconds of one compute-bound stencil launch on ``proc``."""
    launch_s = calibration().for_intensity(STENCIL_FLOPS, STENCIL_BYTES).per_launch_s
    return proc.roofline_s(flops, 0.0) + launch_s


def balanced_hybrid(n):
    """(dispatcher, modeled seconds) of the MPE+CPE split that equalizes
    the two finish times: each side gets work in proportion to its rate."""
    fraction = CPE_PROCESSOR.flops / (CPE_PROCESSOR.flops + MPE_PROCESSOR.flops)
    hybrid = HybridDispatcher(Serial(), CPE_CUT, device_fraction=fraction)
    host_idx, dev_idx = hybrid.split(n)
    return hybrid, max(
        kernel_s(CPE_PROCESSOR, STENCIL_FLOPS * len(dev_idx)),
        kernel_s(MPE_PROCESSOR, STENCIL_FLOPS * len(host_idx)),
    )


N = 200_000


def _stencil(out, x, idx):
    left = x[np.maximum(idx - 1, 0)]
    right = x[np.minimum(idx + 1, len(x) - 1)]
    out[idx] = 0.25 * left + 0.5 * x[idx] + 0.25 * right


@pytest.fixture(scope="module")
def field():
    return np.random.default_rng(0).standard_normal(N)


def _run_on_every_cut(field):
    outputs = []
    for space in CUTS.values():
        out = np.zeros(N)
        parallel_for(space, N, lambda idx: _stencil(out, field, idx))
        outputs.append(out)
    return outputs


def test_portability_report(field, emit_report):
    outputs = _run_on_every_cut(field)
    identical = all(np.array_equal(out, outputs[0]) for out in outputs[1:])

    flops = STENCIL_FLOPS * N
    rows = [(proc.name, f"{kernel_s(proc, flops) * 1e6:.2f}") for proc in DEVICES.values()]
    hybrid, t_hybrid = balanced_hybrid(N)
    rows.append(("hybrid MPE+CG", f"{t_hybrid * 1e6:.2f}"))

    emit_report(
        "perf_portability",
        "\n".join([
            banner("§5.3 — performance portability: one kernel, every cut, every device"),
            format_table(["device (repro.machine)", "modeled kernel time [us]"], rows),
            f"\nlaunch cuts run: {sorted(CUTS)} chunks",
            f"bit-identical across all cuts: {identical}",
            f"hybrid device fraction (balanced): {hybrid.device_fraction:.4f}",
            f"calibration table: {calibration().table_id[:12]}",
        ]),
    )
    assert identical


def test_all_cuts_bit_identical(field):
    outputs = _run_on_every_cut(field)
    for out in outputs[1:]:
        assert np.array_equal(out, outputs[0])


def test_reduction_identical_on_every_cut(field):
    vals = {
        parallel_reduce(space, N, lambda idx: field[idx].sum())
        for space in CUTS.values()
    }
    assert len(vals) == 1


def test_hash_registry_launch_matches_direct(field):
    """The Sunway workaround: launch-by-hash == direct dispatch, bitwise."""
    registry = KernelRegistry()

    def saxpy(idx, y, a, x):
        y[idx] += a * x[idx]

    handle = registry.register(saxpy)
    y_direct = np.zeros(N)
    parallel_for(CPE_CUT, N, lambda idx: saxpy(idx, y_direct, 2.0, field))
    y_hash = np.zeros(N)
    registry.launch(CPE_CUT, handle, N, y_hash, 2.0, field)
    assert np.array_equal(y_direct, y_hash)
    assert kernel_hash(saxpy) == handle


def test_swgomp_offload_matches_host(field):
    """SWGOMP's loop-space mapping: ``parallel_for`` on the 64-CPE cut."""
    host = field.copy().reshape(-1, 1)
    dev = field.copy().reshape(-1, 1)

    def relax(idx):
        dev[idx] *= 0.5

    host *= 0.5
    parallel_for(CPE_CUT, len(dev), relax)
    assert np.array_equal(host, dev)


def test_cpe_cluster_fastest_modeled():
    """The modeled per-device ordering behind Table 2's MPE-vs-CPE gap."""
    t = {name: kernel_s(proc, 1e9) for name, proc in DEVICES.items()}
    assert t["cpe"] < t["host"] < t["mpe"]
    ratio = t["mpe"] / t["cpe"]
    assert ratio > 100  # the raw compute gap the 84-184x end-to-end rests on
    # One N-point stencil launch, priced with the committed CALIBRATION.json.
    stencil = {name: kernel_s(proc, STENCIL_FLOPS * N) for name, proc in DEVICES.items()}
    assert stencil == pytest.approx({
        "mpe": 0.0006666666666666666,
        "host": 4e-05,
        "cpe": 5.128205128205128e-06,
        "gpu": 6.153846153846154e-07,
    }, rel=1e-9)


def test_mdrange_tiling_covers(field):
    policy = MDRangePolicy(extents=(100, 50), tile=(10, 25))
    hits = np.zeros((100, 50))
    parallel_for(Serial(), policy, lambda a, b: hits.__setitem__(np.ix_(a, b), 1.0))
    assert hits.all()


@pytest.mark.parametrize("space", list(CUTS.values()), ids=[f"{k}-chunks" for k in CUTS])
def test_benchmark_kernel_per_cut(benchmark, field, space):
    out = np.zeros(N)
    benchmark(parallel_for, space, N, lambda idx: _stencil(out, field, idx))


# -- the real backend: measured speedup and dispatch counts ------------------

HEAVY_N = 300_000


def _heavy(idx, out, x):
    """Compute-bound kernel: enough transcendental work per element that
    fanning chunks across cores beats the dispatch overhead."""
    v = x[idx].copy()
    acc = np.zeros_like(v)
    for _ in range(12):
        acc += np.sin(v) * np.cos(v) + np.sqrt(np.abs(v) + 1.0)
        v = v * 0.99 + 0.01
    out[idx] = acc


def _time_heavy(spaces, x, reps=3):
    """Best-of-reps wall time of the heavy kernel on each of ``spaces``,
    which take turns within every rep, so a load swing on a shared host
    falls on all of them rather than on whichever ran last."""
    outs = [np.zeros(HEAVY_N) for _ in spaces]
    best = [float("inf")] * len(spaces)
    for _ in range(reps):
        for i, space in enumerate(spaces):
            t0 = time.perf_counter()
            parallel_for(space, HEAVY_N, BoundKernel(_heavy, (outs[i], x)))
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, outs


def test_procpool_bitwise_and_measured_speedup(field, emit_report):
    """ProcPool must match Serial bit-for-bit, and be faster than it on a
    multi-core host; the measured walls and speedup are reported."""
    x = np.random.default_rng(1).standard_normal(HEAVY_N)
    pool = ProcPool()  # all cores
    try:
        (t_serial, t_procs), (out_serial, out_procs) = _time_heavy(
            (Serial(), pool), x)
        stats = pool.runtime.stats
    finally:
        pool.runtime.shutdown()
    assert np.array_equal(out_serial, out_procs)
    if pool.lanes > 1:
        # A >1-wide pool cuts >1 chunk per launch, so nothing falls back;
        # a 1-core host has a 1-lane pool whose single chunk correctly
        # stays in-process.
        assert stats.fallbacks == 0
    cores = multiprocessing.cpu_count()
    speedup = t_serial / t_procs
    emit_report(
        "pp_procpool_speedup",
        "\n".join([
            banner("ProcPool — real multi-core execution (shared memory)"),
            format_table(
                ["backend", "workers", "wall [ms]", "speedup"],
                [("Serial", 1, f"{t_serial * 1e3:.1f}", "1.00"),
                 ("ProcPool", pool.lanes, f"{t_procs * 1e3:.1f}",
                  f"{speedup:.2f}")],
            ),
            f"\nhost cores: {cores}",
            "bitwise identical to serial: True",
            f"pool dispatches: {stats.dispatches}, fallbacks: {stats.fallbacks}",
        ]),
    )
    if cores > 1:
        assert speedup > 1.0, f"procs slower than serial on {cores} cores"


def test_fixed_width_pool_dispatch_counts():
    """A 2-worker pool cuts the same chunks on every machine: one dispatch
    of two tasks, nothing falls back in-process."""
    x = np.random.default_rng(1).standard_normal(HEAVY_N)
    pool = ProcPool(2)
    try:
        parallel_for(pool, HEAVY_N, BoundKernel(_heavy, (np.zeros(HEAVY_N), x)))
        stats = pool.runtime.stats
    finally:
        pool.runtime.shutdown()
    assert (stats.dispatches, stats.tasks, stats.fallbacks) == (1, 2, 0)
