"""JSON perf baselines and the CI regression gate.

Benchmarks emit ``BENCH_<suite>.json`` documents — flat metric maps with
a *kind* per metric — and CI compares them against the committed
baselines under ``benchmarks/baselines/``:

* ``count`` — deterministic arithmetic (message counts, bytes moved,
  cache hits): gated hard, any drift beyond tolerance fails;
* ``model`` — deterministic performance-model output (modeled seconds,
  SYPD): gated with the same tolerance;
* ``wall`` — measured wall time on whatever machine ran the suite:
  **informational only**, reported but never failed (CI runners are too
  noisy to gate on);
* ``speedup`` — measured wall-time ratio (serial time / parallel time).
  The committed value is never a target — speedup is machine-dependent —
  but the **floor is gated**: when the current document reports a
  ``host.cores`` metric greater than 1, a speedup below 1.0 fails (a
  parallel backend must not be slower than serial on a multi-core host);
  on single-core runners it is informational.
* ``drift`` — modeled-vs-measured drift fraction per kernel (see
  :func:`repro.machine.calibration.drift`).  Like ``speedup``, the
  committed value is never a target (measurements are machine-dependent);
  the **band is gated**: the current run fails when ``|drift|`` exceeds
  ``drift_tolerance`` or is non-finite (``NaN > tol`` is falsy — a
  silent pass — so finiteness is checked explicitly).  The boundary
  exactly met passes.

The gate is symmetric by default — an unexplained 10× *improvement* in a
``count`` metric usually means the benchmark stopped measuring the thing
it used to measure, which is just as much a regression of the baseline's
meaning.  Refresh the baseline deliberately by re-running the suite and
committing the new JSON.

Every benchmark writes its document through :func:`emit` — one place that
stamps host metadata (``host.cores``, the speedup-floor switch), writes
``BENCH_<suite>.json`` under the report directory and verifies the
round-trip — instead of hand-rolled ``json.dump`` blocks per suite.

The CI gate is ``python -m repro perf-gate CURRENT BASELINE [--tolerance 0.15]``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from ..io.restart import write_atomic_text

__all__ = [
    "PerfBaseline",
    "BaselineComparison",
    "compare_baselines",
    "emit",
]

_VERSION = 1
_KINDS = ("count", "model", "wall", "speedup", "drift")
#: Relative difference below which two values are "the same" even when
#: the baseline value is 0 (guards the 0-vs-1e-12 division).
_ABS_FLOOR = 1e-12


@dataclass
class PerfBaseline:
    """One suite's metric document (what ``BENCH_<suite>.json`` holds)."""

    suite: str
    metrics: Dict[str, Dict[str, Union[float, str]]] = field(default_factory=dict)

    def record(self, name: str, value: float, kind: str = "count",
               unit: str = "") -> None:
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        self.metrics[name] = {"value": float(value), "kind": kind, "unit": unit}

    def stamp_host(self) -> "PerfBaseline":
        """Record ``host.cores`` (kind ``wall`` — informational, but it
        switches the speedup floor and documents where measurements came
        from) unless the suite already did.  The one home of the stamp:
        :func:`emit` and every suite's document builder call it, so the
        emitted file and an in-test gate see the same metric set."""
        if "host.cores" not in self.metrics:
            self.record("host.cores", float(os.cpu_count() or 1), kind="wall")
        return self

    def to_json(self) -> str:
        return json.dumps(
            {"version": _VERSION, "suite": self.suite, "metrics": self.metrics},
            indent=2, sort_keys=True,
        )

    def write(self, path: Union[str, Path]) -> Path:
        return write_atomic_text(path, self.to_json() + "\n")

    @staticmethod
    def from_json(text: str) -> "PerfBaseline":
        doc = json.loads(text)
        if doc.get("version") != _VERSION:
            raise ValueError(
                f"unsupported baseline version {doc.get('version')!r}"
            )
        return PerfBaseline(suite=doc["suite"], metrics=doc["metrics"])

    @staticmethod
    def from_file(path: Union[str, Path]) -> "PerfBaseline":
        return PerfBaseline.from_json(Path(path).read_text())


def emit(
    doc: PerfBaseline,
    directory: Union[str, Path],
    host_metadata: bool = True,
    echo: bool = True,
) -> Path:
    """The one way a benchmark suite writes its ``BENCH_<suite>.json``.

    Stamps host metadata (:meth:`PerfBaseline.stamp_host`), writes
    ``BENCH_<suite>.json`` under ``directory``, verifies the document
    round-trips, and returns the path.  ``echo=True`` prints the
    ``[bench-json] <path>`` line the CI logs grep for.
    """
    if host_metadata:
        doc.stamp_host()
    out = doc.write(Path(directory) / f"BENCH_{doc.suite}.json")
    if PerfBaseline.from_file(out).metrics != doc.metrics:
        raise RuntimeError(f"{out}: emitted document did not round-trip")
    if echo:
        print(f"\n[bench-json] {out}")
    return out


@dataclass
class MetricDelta:
    name: str
    kind: str
    baseline: float
    current: float

    @property
    def rel_change(self) -> float:
        if abs(self.baseline) < _ABS_FLOOR:
            return 0.0 if abs(self.current) < _ABS_FLOOR else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)


@dataclass
class BaselineComparison:
    """Outcome of comparing a fresh run against the committed baseline."""

    suite: str
    tolerance: float
    regressions: List[MetricDelta] = field(default_factory=list)
    informational: List[MetricDelta] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    checked: int = 0
    drift_tolerance: float = 0.5

    @property
    def ok(self) -> bool:
        """Gate verdict: no gated metric drifted and none disappeared."""
        return not self.regressions and not self.missing

    def report(self) -> str:
        lines = [f"perf gate: suite={self.suite} tolerance={self.tolerance:.0%} "
                 f"checked={self.checked} -> {'OK' if self.ok else 'FAIL'}"]
        for d in self.regressions:
            if d.kind == "drift":
                shown = f"{d.current:+.1%}" if math.isfinite(d.current) else "non-finite"
                lines.append(
                    f"  DRIFT {d.name}: modeled-vs-measured {shown} "
                    f"exceeds +/-{self.drift_tolerance:.0%}"
                )
                continue
            lines.append(
                f"  REGRESSION {d.name} [{d.kind}]: "
                f"{d.baseline:.6g} -> {d.current:.6g} ({d.rel_change:+.1%})"
            )
        for name in self.missing:
            lines.append(f"  MISSING {name}: in baseline but not in current run")
        for d in self.informational:
            if d.kind == "drift":
                lines.append(
                    f"  drift {d.name}: {d.current:+.1%} modeled-vs-measured "
                    f"(within +/-{self.drift_tolerance:.0%})"
                )
                continue
            mark = " (drifted)" if abs(d.rel_change) > self.tolerance else ""
            lines.append(
                f"  {d.kind} {d.name}: {d.baseline:.6g} -> {d.current:.6g} "
                f"({d.rel_change:+.1%}){mark}"
            )
        for name in self.added:
            lines.append(f"  new metric {name} (not yet in baseline)")
        return "\n".join(lines)


def compare_baselines(
    current: PerfBaseline,
    baseline: PerfBaseline,
    tolerance: float = 0.15,
    symmetric: bool = True,
    drift_tolerance: float = 0.5,
) -> BaselineComparison:
    """Compare a fresh suite run against the committed baseline.

    ``count``/``model`` metrics whose relative change exceeds
    ``tolerance`` (in either direction when ``symmetric``, else only
    when worse, i.e. larger) are regressions; ``wall`` metrics are
    always informational; ``speedup`` metrics are gated against the 1.0
    floor iff the current document's ``host.cores`` metric exceeds 1,
    and informational otherwise; ``drift`` metrics are gated against the
    ``drift_tolerance`` band on the *current* value only (never compared
    to the committed number — it documents, it is not a target), with
    non-finite drift always failing.  Metrics present in the baseline but
    absent from the current run fail the gate (the benchmark lost
    coverage); new metrics are reported but pass.
    """
    if not math.isfinite(drift_tolerance) or drift_tolerance < 0:
        raise ValueError("drift_tolerance must be finite and >= 0")
    cmp = BaselineComparison(
        suite=current.suite, tolerance=tolerance, drift_tolerance=drift_tolerance
    )
    for name, meta in sorted(baseline.metrics.items()):
        cur = current.metrics.get(name)
        if cur is None:
            cmp.missing.append(name)
            continue
        delta = MetricDelta(
            name=name,
            kind=str(meta.get("kind", "count")),
            baseline=float(meta["value"]),
            current=float(cur["value"]),
        )
        if delta.kind == "wall":
            cmp.informational.append(delta)
            continue
        if delta.kind == "drift":
            # Machine-dependent: only the |current| <= band matters; the
            # boundary exactly met passes.  Non-finite always fails —
            # ``NaN > tol`` is falsy and would slip through a naive check.
            cmp.checked += 1
            if not math.isfinite(delta.current) or abs(delta.current) > drift_tolerance:
                cmp.regressions.append(delta)
            else:
                cmp.informational.append(delta)
            continue
        if delta.kind == "speedup":
            # Machine-dependent: the committed value is not a target.
            # Gate only the 1.0 floor (parallel must not be slower than
            # serial), and only when the *current* run's host reports
            # more than one core.
            cores = float(current.metrics.get("host.cores", {}).get("value", 1.0))
            if cores > 1.0:
                cmp.checked += 1
                if delta.current < 1.0:
                    cmp.regressions.append(
                        MetricDelta(delta.name, "speedup", 1.0, delta.current)
                    )
                    continue
            cmp.informational.append(delta)
            continue
        cmp.checked += 1
        change = delta.rel_change
        over = abs(change) > tolerance if symmetric else change > tolerance
        if over:
            cmp.regressions.append(delta)
    cmp.added = sorted(set(current.metrics) - set(baseline.metrics))
    return cmp

