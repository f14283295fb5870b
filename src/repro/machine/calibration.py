"""Measurement-calibrated machine model: close the modeled-vs-measured loop.

The analytic model in :mod:`repro.machine.perfmodel` prices kernels with
hand-set roofline constants, so every PR that makes the code faster
silently widens the gap between what the model predicts and what the pp
layer actually measures.  This module closes that loop the way the
csl-experiments compute model does — derive an ``overhead_factor`` from
measured-vs-theoretical time — and keeps it honest over time through the
drift band that ``benchmarks/bench_calibration.py`` asserts
(``DriftReport.ok``).

The pass has three parts:

* **measure** — :func:`measure_probes` launches a portfolio of probe
  kernels with analytically known work (stream copy, axpy, stencil, FMA
  chain, transcendental column) through :func:`repro.pp.parallel_for`,
  instrumented with the same :class:`repro.pp.KernelMetrics` /
  ``KernelStats`` accumulators every component kernel uses.  Measured
  seconds are read back *from the accumulators*, not from ad-hoc timers —
  the calibration consumes exactly the observability signal production
  runs emit.  The MDRange probe's tile imbalance is read off the tiles its
  launch runs, ``policy.tiles(space)``.
* **fit** — :func:`calibrate` fits, per probe kernel, a line
  ``t(n) = per_launch_s + slope * n`` over the probe sizes and decomposes
  the slope into roofline terms: bandwidth-bound probes yield an effective
  ``bandwidth_scale`` (achieved / reference bytes-per-second), compute-
  bound probes an ``overhead_factor`` (measured / theoretical roofline
  time, the csl-experiments quantity).  The result is a versioned,
  content-addressed :class:`CalibrationTable` persisted with the unified
  ``to_file`` / ``from_file`` protocol.
* **drift** — :func:`drift_report` re-measures and compares the table's
  modeled per-kernel time against fresh measurements; :func:`drift` is the
  guarded scalar behind each entry, and ``DriftReport.ok`` fails on any
  non-finite drift (``NaN > tol`` being falsy must never pass silently).

A :class:`CalibrationTable` is applied to the analytic model one way:
``with_calibration(table)`` on a :class:`~repro.machine.perfmodel.PerfModel`
or :class:`~repro.machine.perfmodel.CoupledPerfModel` reprices every phase
with its kernel's fitted terms.  With ``calibration=None`` (the default)
every model output is byte-identical to the uncalibrated constants.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..io.restart import write_atomic_text
from ..pp import BoundKernel, ExecutionSpace, KernelMetrics, MDRangePolicy, Serial, parallel_for
from .spec import ProcessorSpec

__all__ = [
    "CalibrationError",
    "ReferenceRates",
    "KernelProbe",
    "PROBES",
    "KernelMeasurement",
    "measure_probes",
    "KernelCalibration",
    "IDENTITY_CALIBRATION",
    "CalibrationTable",
    "calibrate",
    "drift",
    "DriftEntry",
    "DriftReport",
    "drift_report",
]

_TABLE_VERSION = 1

#: Floor below which a measured/modeled duration is treated as zero
#: (well under one tick of any realistic monotonic clock).
_ZERO_S = 1e-12


class CalibrationError(ValueError):
    """A calibration table is malformed, tampered with, or unusable."""


def _intensity(flops: float, bytes_: float) -> float:
    """Arithmetic intensity (flops/byte) used for phase matching; the
    epsilons keep zero-flop and zero-byte kernels finite."""
    return (flops + 1e-9) / (bytes_ + 1e-9)


# ---------------------------------------------------------------------------
# probe kernels: module-level (picklable) functors with known work
# ---------------------------------------------------------------------------


def _probe_stream(idx: np.ndarray, out: np.ndarray, x: np.ndarray) -> None:
    """Pure copy: the STREAM-style bandwidth floor (0 flops/point)."""
    out[idx] = x[idx]


def _probe_axpy(idx: np.ndarray, out: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """out = a*x + y: the tracer-advection intensity class."""
    out[idx] = 2.5 * x[idx] + y[idx]


def _probe_fma8(idx: np.ndarray, out: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Eight chained multiply-adds per point: dense tensor-kernel class."""
    v = x[idx]
    w = y[idx]
    for _ in range(8):
        v = v * 1.0000001 + w
    out[idx] = v


def _probe_transcendental(idx: np.ndarray, out: np.ndarray, x: np.ndarray) -> None:
    """sin + sqrt per point: the column-physics intensity class."""
    out[idx] = np.sin(x[idx]) + np.sqrt(np.abs(x[idx]) + 1.0)


def _probe_stencil2d(ix: np.ndarray, iy: np.ndarray, out: np.ndarray, x: np.ndarray) -> None:
    """4-point MDRange stencil: the dycore/baroclinic class (tiled)."""
    sub = np.ix_(ix, iy)
    out[sub] = 0.25 * (
        x[sub] + x[np.ix_(ix + 1, iy)] + x[np.ix_(ix, iy + 1)] + x[np.ix_(ix + 1, iy + 1)]
    )


@dataclass(frozen=True)
class KernelProbe:
    """A probe kernel with analytically known per-iteration work.

    ``flops_per_iter`` / ``bytes_per_iter`` are *nominal* accounting
    constants for the roofline denominator (streaming reads + one write;
    transcendentals priced at their usual polynomial cost) — the fit only
    needs them to be consistent between calibration and prediction, not
    exact.
    """

    name: str
    fn: Callable
    flops_per_iter: float
    bytes_per_iter: float
    n_inputs: int = 1       # input arrays handed to the functor (plus out)
    md: bool = False        # launch through a 2-D MDRangePolicy (tiled)


PROBES: Dict[str, KernelProbe] = {
    p.name: p
    for p in (
        KernelProbe("stream", _probe_stream, flops_per_iter=0.0, bytes_per_iter=16.0),
        KernelProbe("axpy", _probe_axpy, flops_per_iter=2.0, bytes_per_iter=24.0, n_inputs=2),
        KernelProbe("stencil", _probe_stencil2d, flops_per_iter=6.0, bytes_per_iter=16.0, md=True),
        KernelProbe("fma8", _probe_fma8, flops_per_iter=16.0, bytes_per_iter=24.0, n_inputs=2),
        KernelProbe(
            "transcendental", _probe_transcendental, flops_per_iter=40.0, bytes_per_iter=16.0
        ),
    )
}


# ---------------------------------------------------------------------------
# reference rates: the denominator of "theoretical" time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceRates(ProcessorSpec):
    """The host descriptor theoretical roofline time is computed against
    (one nominal 3.2 GFLOP/s lane and a commodity-DRAM stream bandwidth).
    Only the two rates are its identity; they are stored in the table so
    a fit is reproducible."""

    name: str = "reference-host"
    flops: float = 3.2e9
    mem_bw: float = 1.6e10

    def __post_init__(self) -> None:
        if self.flops <= 0 or self.mem_bw <= 0:
            raise CalibrationError("reference rates must be positive")

    def payload(self) -> Dict[str, float]:
        return {"flops": self.flops, "mem_bw": self.mem_bw}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelMeasurement:
    """What one probe kernel measured, straight off its obs accumulator."""

    kernel: str
    sizes: Tuple[int, ...]            # actual iteration counts per size
    best_s: Tuple[float, ...]         # best-of-repeats wall seconds per size
    launches: int                     # total launches (from KernelStats)
    iterations: int                   # total iterations (from KernelStats)
    seconds: float                    # total accumulated wall (from KernelStats)
    flops_per_iter: float
    bytes_per_iter: float
    tile_imbalance: float = 0.0       # max/mean tile size (MDRange probes)


def _probe_arrays(
    probe: KernelProbe, n: int, rng: np.random.Generator
) -> Tuple[int, Tuple[np.ndarray, ...], Any]:
    """Allocate (out, inputs...) for one probe launch.

    Returns ``(actual_iterations, functor_args, policy)`` — MDRange probes
    round ``n`` down to a square and carry a one-point halo pad.
    """
    if probe.md:
        m = max(2, math.isqrt(n))
        x = rng.random((m + 1, m + 1))
        out = np.zeros((m, m))
        return m * m, (out, x), MDRangePolicy((m, m))
    out = np.zeros(n)
    inputs = tuple(rng.random(n) for _ in range(probe.n_inputs))
    return n, (out,) + inputs, n


def _tile_imbalance(policy: MDRangePolicy, space: ExecutionSpace) -> float:
    """max / mean size of the tiles ``policy`` runs on ``space`` (0.0: none)."""
    sizes = [math.prod(map(len, tile)) for tile in policy.tiles(space)]
    return max(sizes) / (sum(sizes) / len(sizes)) if sizes else 0.0


def measure_probes(
    space: Optional[ExecutionSpace] = None,
    sizes: Sequence[int] = (16_384, 65_536),
    repeats: int = 3,
    metrics: Optional[KernelMetrics] = None,
    probes: Optional[Dict[str, KernelProbe]] = None,
    seed: int = 20250711,
) -> Dict[str, KernelMeasurement]:
    """Run every probe at every size, ``repeats`` launches each.

    All launches flow through :func:`repro.pp.parallel_for` with a
    ``calib.<probe>`` accumulator from ``metrics`` (a
    :class:`repro.pp.KernelMetrics` pool, obs-attached or not), and the
    measured seconds are read back from that accumulator — the same
    KernelStats path production kernels publish through.  Per-size wall
    time is the best (minimum) launch, which is the stable statistic for
    a line fit on a shared machine.
    """
    if space is None:
        space = Serial()
    if metrics is None:
        metrics = KernelMetrics()
    if repeats < 1:
        raise CalibrationError("repeats must be >= 1")
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 4 for s in sizes):
        raise CalibrationError("probe sizes must be >= 4")
    probes = dict(PROBES) if probes is None else probes
    rng = np.random.default_rng(seed)

    out: Dict[str, KernelMeasurement] = {}
    for name, probe in probes.items():
        acc = metrics.stats(f"calib.{name}")
        actual_sizes: List[int] = []
        best_s: List[float] = []
        worst_imbalance = 0.0
        for n in sizes:
            actual, args, policy = _probe_arrays(probe, n, rng)
            functor = BoundKernel(probe.fn, args)
            best = math.inf
            for _ in range(repeats):
                before = acc.seconds
                parallel_for(space, policy, functor, stats=acc)
                best = min(best, acc.seconds - before)
            if probe.md:
                worst_imbalance = max(worst_imbalance, _tile_imbalance(policy, space))
            actual_sizes.append(actual)
            best_s.append(best)
        out[name] = KernelMeasurement(
            kernel=name,
            sizes=tuple(actual_sizes),
            best_s=tuple(best_s),
            launches=acc.launches,
            iterations=acc.iterations,
            seconds=acc.seconds,
            flops_per_iter=probe.flops_per_iter,
            bytes_per_iter=probe.bytes_per_iter,
            tile_imbalance=worst_imbalance,
        )
    return out


def _fit_line(sizes: Sequence[int], times: Sequence[float]) -> Tuple[float, float]:
    """Least-squares ``t = intercept + slope * n``; clamped physical.

    With a single size the intercept is pinned to zero.  A non-positive
    fitted slope (clock-resolution noise) or a negative intercept (the
    larger size is slower per point, e.g. it left the cache) falls back to
    the secant through the origin and the largest size — clamping the
    intercept alone would keep the steeper slope and over-price every size.
    """
    if len(sizes) == 1:
        return 0.0, max(times[0] / sizes[0], _ZERO_S)
    ns = np.asarray(sizes, dtype=float)
    ts = np.asarray(times, dtype=float)
    slope, intercept = np.polyfit(ns, ts, 1)
    if not math.isfinite(slope) or slope <= 0.0 or intercept < 0.0:
        k = int(np.argmax(ns))
        slope = max(ts[k] / ns[k], _ZERO_S)
        intercept = 0.0
    return float(intercept), max(float(slope), _ZERO_S)


# ---------------------------------------------------------------------------
# the fitted artifact
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelCalibration:
    """Fitted cost terms for one kernel class.

    ``overhead_factor`` multiplies the roofline time (csl-experiments:
    measured / theoretical), ``bandwidth_scale`` rescales the memory-
    bandwidth denominator (achieved / reference), and ``per_launch_s`` is
    the fixed cost added once per kernel launch.
    """

    kernel: str
    overhead_factor: float = 1.0
    per_launch_s: float = 0.0
    bandwidth_scale: float = 1.0
    flops_per_iter: float = 0.0
    bytes_per_iter: float = 0.0
    measured_s: float = 0.0      # total accumulated wall during the fit
    theoretical_s: float = 0.0   # reference roofline time for the same work

    def __post_init__(self) -> None:
        for label, v in (
            ("overhead_factor", self.overhead_factor),
            ("bandwidth_scale", self.bandwidth_scale),
        ):
            if not math.isfinite(v) or v <= 0:
                raise CalibrationError(f"{self.kernel}: {label} must be finite and > 0")
        if not math.isfinite(self.per_launch_s) or self.per_launch_s < 0:
            raise CalibrationError(f"{self.kernel}: per_launch_s must be finite and >= 0")

    @property
    def intensity(self) -> float:
        return _intensity(self.flops_per_iter, self.bytes_per_iter)

    def payload(self) -> Dict[str, float]:
        return {
            "overhead_factor": self.overhead_factor,
            "per_launch_s": self.per_launch_s,
            "bandwidth_scale": self.bandwidth_scale,
            "flops_per_iter": self.flops_per_iter,
            "bytes_per_iter": self.bytes_per_iter,
            "measured_s": self.measured_s,
            "theoretical_s": self.theoretical_s,
        }

    def modeled_s(self, n: int, reference: ReferenceRates) -> float:
        """Calibrated prediction of one launch over ``n`` iterations."""
        per_iter = reference.roofline_s(
            self.flops_per_iter, self.bytes_per_iter, reference.mem_bw * self.bandwidth_scale
        )
        return self.per_launch_s + n * per_iter * self.overhead_factor


#: The do-nothing calibration: applying it reproduces the uncalibrated
#: roofline exactly (factor 1, no launch cost, reference bandwidth).
IDENTITY_CALIBRATION = KernelCalibration(kernel="identity")


@dataclass(frozen=True)
class CalibrationTable:
    """Versioned, content-addressed set of fitted per-kernel cost terms.

    The table is the artifact ``python -m repro calibrate`` emits and
    ``PerfModel.calibration`` consumes.  Its identity (:attr:`table_id`) is
    the SHA-256 of the canonical fit payload — version, machine, space,
    reference rates, entries — so two fits agree iff their bytes agree;
    ``meta`` (host info, probe sizes) rides along without affecting
    identity.  Persistence is the unified ``to_file`` / ``from_file``
    protocol (there are deliberately no ``save``/``load`` aliases), and
    ``from_file`` re-derives the hash to detect hand-edited tables.
    """

    entries: Dict[str, KernelCalibration] = field(default_factory=dict)
    machine: str = "host"
    space: str = "Serial"
    reference: ReferenceRates = field(default_factory=ReferenceRates)
    meta: Dict[str, Any] = field(default_factory=dict)

    # -- identity -----------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """The content that defines this table's identity (excludes meta)."""
        return {
            "version": _TABLE_VERSION,
            "machine": self.machine,
            "space": self.space,
            "reference": self.reference.payload(),
            "entries": {name: e.payload() for name, e in sorted(self.entries.items())},
        }

    @property
    def table_id(self) -> str:
        blob = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- persistence (unified protocol) -------------------------------------

    def to_file(self, path: Union[str, Path]) -> Path:
        doc = self.payload()
        doc["table_id"] = self.table_id
        doc["meta"] = self.meta
        return write_atomic_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CalibrationTable":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CalibrationError(f"unreadable calibration table {path}: {exc}") from exc
        if doc.get("version") != _TABLE_VERSION:
            raise CalibrationError(
                f"{path}: calibration table version {doc.get('version')!r} "
                f"!= supported {_TABLE_VERSION}"
            )
        try:
            entries = {
                name: KernelCalibration(kernel=name, **terms)
                for name, terms in doc["entries"].items()
            }
            table = cls(
                entries=entries,
                machine=doc["machine"],
                space=doc["space"],
                reference=ReferenceRates(**doc["reference"]),
                meta=doc.get("meta", {}),
            )
        except (KeyError, TypeError) as exc:
            raise CalibrationError(f"{path}: malformed calibration table: {exc}") from exc
        stored = doc.get("table_id")
        if stored is not None and stored != table.table_id:
            raise CalibrationError(
                f"{path}: content hash mismatch (stored {stored[:12]}..., "
                f"computed {table.table_id[:12]}...) — table was edited by hand?"
            )
        return table

    # -- lookup -------------------------------------------------------------

    def for_intensity(self, flops_per_point: float, bytes_per_point: float) -> KernelCalibration:
        """Nearest probe class by arithmetic intensity (log distance)."""
        if not self.entries:
            return IDENTITY_CALIBRATION
        ai = math.log(_intensity(flops_per_point, bytes_per_point))
        return min(
            self.entries.values(), key=lambda e: abs(math.log(e.intensity) - ai)
        )

    def for_phase(self, phase: Any) -> KernelCalibration:
        """Terms for a :class:`~repro.machine.perfmodel.Phase`: the
        phase's explicit ``kernel`` tag when present in the table, else
        the nearest probe by arithmetic intensity."""
        tagged = self.entries.get(getattr(phase, "kernel", None))
        if tagged is not None:
            return tagged
        return self.for_intensity(phase.flops_per_point, phase.bytes_per_point)

    # -- human report --------------------------------------------------------

    def report(self) -> str:
        lines = [
            f"calibration table {self.table_id[:12]} "
            f"(machine={self.machine}, space={self.space}, "
            f"{len(self.entries)} kernel(s))",
            f"reference rates: {self.reference.flops:.3g} FLOP/s, "
            f"{self.reference.mem_bw:.3g} B/s",
            f"{'kernel':<16}{'overhead':>10}{'launch_us':>11}{'bw_scale':>10}"
            f"{'meas_s':>10}{'theor_s':>10}",
        ]
        for name in sorted(self.entries):
            e = self.entries[name]
            lines.append(
                f"{name:<16}{e.overhead_factor:>10.3f}{e.per_launch_s * 1e6:>11.2f}"
                f"{e.bandwidth_scale:>10.3f}{e.measured_s:>10.4f}{e.theoretical_s:>10.4f}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the fit
# ---------------------------------------------------------------------------


def calibrate(
    space: Optional[ExecutionSpace] = None,
    sizes: Sequence[int] = (16_384, 65_536),
    repeats: int = 3,
    reference: Optional[ReferenceRates] = None,
    metrics: Optional[KernelMetrics] = None,
    machine: str = "host",
    measurements: Optional[Dict[str, KernelMeasurement]] = None,
) -> CalibrationTable:
    """Measure the probe portfolio and fit a :class:`CalibrationTable`.

    Pass ``measurements`` to fit a table from an existing measurement set
    (e.g. collected on another host) instead of running the probes here.
    """
    if space is None:
        space = Serial()
    if reference is None:
        reference = ReferenceRates()
    if measurements is None:
        measurements = measure_probes(
            space=space, sizes=sizes, repeats=repeats, metrics=metrics
        )
    entries: Dict[str, KernelCalibration] = {}
    for name, m in measurements.items():
        intercept, slope = _fit_line(m.sizes, m.best_s)
        bw_bound = (
            m.bytes_per_iter > 0
            and m.bytes_per_iter / reference.mem_bw >= m.flops_per_iter / reference.flops
        )
        if bw_bound:
            achieved_bw = m.bytes_per_iter / slope
            bandwidth_scale = min(max(achieved_bw / reference.mem_bw, 1e-3), 1e3)
        else:
            bandwidth_scale = 1.0
        scaled_roofline = reference.roofline_s(
            m.flops_per_iter, m.bytes_per_iter, reference.mem_bw * bandwidth_scale
        )
        if scaled_roofline <= 0.0:
            raise CalibrationError(f"{name}: probe has no accountable work")
        overhead = min(max(slope / scaled_roofline, 1e-3), 1e6)
        entries[name] = KernelCalibration(
            kernel=name,
            overhead_factor=overhead,
            per_launch_s=intercept,
            bandwidth_scale=bandwidth_scale,
            flops_per_iter=m.flops_per_iter,
            bytes_per_iter=m.bytes_per_iter,
            measured_s=m.seconds,
            theoretical_s=m.iterations
            * reference.roofline_s(m.flops_per_iter, m.bytes_per_iter),
        )
    any_m = next(iter(measurements.values()), None)
    return CalibrationTable(
        entries=entries,
        machine=machine,
        space=space.name,
        reference=reference,
        meta={
            "sizes": list(any_m.sizes) if any_m is not None else [],
            "repeats": repeats,
            "probe_launches": sum(m.launches for m in measurements.values()),
        },
    )


# ---------------------------------------------------------------------------
# drift: modeled vs measured
# ---------------------------------------------------------------------------


def drift(modeled_s: float, measured_s: float) -> float:
    """Signed modeled-vs-measured drift fraction, guarded.

    ``(modeled - measured) / measured``, except:

    * any non-finite or negative input → ``inf`` (the band check must fail
      loudly; ``NaN > tol`` is falsy in Python and would pass silently);
    * measured ≈ 0: ``0.0`` when the model also predicts ≈ 0, else
      ``inf`` (the model claims cost where none was measured).
    """
    if not (math.isfinite(modeled_s) and math.isfinite(measured_s)):
        return math.inf
    if modeled_s < 0.0 or measured_s < 0.0:
        return math.inf
    if measured_s <= _ZERO_S:
        return 0.0 if modeled_s <= _ZERO_S else math.inf
    return (modeled_s - measured_s) / measured_s


@dataclass(frozen=True)
class DriftEntry:
    """One kernel's modeled-vs-measured comparison."""

    kernel: str
    modeled_s: float
    measured_s: float
    drift: float


@dataclass(frozen=True)
class DriftReport:
    """Per-kernel drift of a calibration table against fresh measurements.

    ``ok`` requires every compared kernel's ``|drift|`` to be finite and
    within tolerance (the boundary exactly met passes) **and** every table
    kernel to have been re-measured — a kernel the table prices but the
    probe run no longer exercises cannot be verified.  Kernels measured
    but absent from the table (``uncalibrated``) are informational: they
    are priced by intensity fallback, not by a stale entry.
    """

    entries: Tuple[DriftEntry, ...]
    missing_measurements: Tuple[str, ...]
    uncalibrated: Tuple[str, ...]
    tolerance: float
    table_id: str = ""

    @property
    def worst(self) -> float:
        if not self.entries:
            return 0.0
        return max((abs(e.drift) for e in self.entries), default=0.0)

    @property
    def ok(self) -> bool:
        if self.missing_measurements:
            return False
        return all(
            math.isfinite(e.drift) and abs(e.drift) <= self.tolerance
            for e in self.entries
        )

    def report(self) -> str:
        lines = [
            f"drift report vs table {self.table_id[:12]} "
            f"(tolerance +/-{self.tolerance:.0%})",
            f"{'kernel':<16}{'modeled_s':>12}{'measured_s':>12}{'drift':>10}",
        ]
        for e in sorted(self.entries, key=lambda e: -abs(e.drift)):
            flag = "" if math.isfinite(e.drift) and abs(e.drift) <= self.tolerance else "  << FAIL"
            shown = f"{e.drift:+.1%}" if math.isfinite(e.drift) else "inf"
            lines.append(
                f"{e.kernel:<16}{e.modeled_s:>12.5g}{e.measured_s:>12.5g}"
                f"{shown:>10}{flag}"
            )
        for k in self.missing_measurements:
            lines.append(f"{k:<16}  in table but not measured  << FAIL")
        for k in self.uncalibrated:
            lines.append(f"{k:<16}  measured but not in table (intensity fallback)")
        lines.append(f"worst |drift|: {self.worst:.1%} -> {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def drift_report(
    table: CalibrationTable,
    measurements: Dict[str, KernelMeasurement],
    tolerance: float = 0.5,
) -> DriftReport:
    """Compare the table's modeled per-kernel time to fresh measurements.

    For every kernel present in both, the modeled side prices each
    measured size with the table's fitted terms
    (:meth:`KernelCalibration.modeled_s`) and the measured side is the
    sum of best-of-repeats launches.
    """
    if tolerance < 0 or not math.isfinite(tolerance):
        raise CalibrationError("tolerance must be finite and >= 0")
    entries: List[DriftEntry] = []
    for name in sorted(set(table.entries) & set(measurements)):
        cal = table.entries[name]
        m = measurements[name]
        modeled = sum(cal.modeled_s(n, table.reference) for n in m.sizes)
        measured = sum(m.best_s)
        entries.append(
            DriftEntry(
                kernel=name,
                modeled_s=modeled,
                measured_s=measured,
                drift=drift(modeled, measured),
            )
        )
    return DriftReport(
        entries=tuple(entries),
        missing_measurements=tuple(sorted(set(table.entries) - set(measurements))),
        uncalibrated=tuple(sorted(set(measurements) - set(table.entries))),
        tolerance=tolerance,
        table_id=table.table_id,
    )
