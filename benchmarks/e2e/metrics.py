"""From trial results to named metrics: end-to-end, per-layer, ledger.

Pure arithmetic over the JSON that :mod:`trial` writes — nothing here
imports the program.  Conventions:

* an end-to-end metric is the median over trials of the per-trial value;
* a per-layer timing is the median over the traced trial's timed cycles
  of that cycle's value; a *count* must be the same in every cycle and
  is reported once (a count that varies is returned in ``varying``);
* a metric that does not exist on a workload (no AI nets, no checkpoints,
  a kernel that never launched) is ``None`` — absent, not zero.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

MIB = 2.0 ** 20

#: Layers of the ledger, in report order; a span belongs to the layer its
#: name starts with.  ``esm`` here is the ensemble glue — the coupled
#: driver's own time is the root span's self time, reported as unaccounted.
LAYERS = ("atm", "ocn", "ice", "lnd", "ai", "coupler", "grids", "precision", "io", "esm")
ROOT = "esm.cycle"

PP_KERNELS = ("atm.condensation", "atm.convective_adjustment", "atm.radiation",
              "atm.surface_layer", "ice.thermo", "lnd.bucket")

UNACCOUNTED_MAX = 0.03
TRACE_OVERHEAD_MAX = 0.05


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def quartiles(xs: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(xs) < 2:
        return float(xs[0]), float(xs[0]), float(xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return float(q1), float(q2), float(q3)


def percentile_hi(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile that still has at least ten samples beyond
    it, as ``(value, percentile)`` by nearest rank.  With too few samples
    for that to lie above the median, the median itself (percentile 50)."""
    xs = sorted(samples)
    n = len(xs)
    j = n - 11
    if j <= (n - 1) // 2:
        return median(xs), 50.0
    return float(xs[j]), 100.0 * (j + 1) / n


# -- end to end ----------------------------------------------------------------


def trial_end_to_end(trial: dict) -> Dict[str, float]:
    walls = [c["wall_s"] for c in trial["cycles"]]
    years = trial["static"]["sim_years_per_cycle"]
    return {
        "sypd": years / (median(walls) / 86400.0),
        "chsy": median([c["cpu_s"] for c in trial["cycles"]]) / 3600.0 / years,
        "setup_s": trial["setup_s"],
        "peak_rss_mb": trial["peak_rss_mb"],
    }


def end_to_end(trials: List[dict]) -> Dict[str, dict]:
    per_trial = [trial_end_to_end(t) for t in trials]
    out = {}
    for name in per_trial[0]:
        values = [p[name] for p in per_trial]
        q1, med, q3 = quartiles(values)
        out[name] = {"value": med, "q1": q1, "q3": q3, "trials": values}
    return out


def median_cycle_s(trials: List[dict]) -> float:
    return median([median([c["wall_s"] for c in t["cycles"]]) for t in trials])


# -- per layer -------------------------------------------------------------------


class Layers:
    """Per-layer metrics of one workload from its traced trial (plus the
    untraced trials for the overhead and the procs trial for ``pp.procs_*``)."""

    def __init__(self, traced: dict, untraced: List[dict], procs: Optional[dict]) -> None:
        self.traced = traced
        self.untraced = untraced
        self.procs = procs
        self.cycles = [traced["spans"][str(i)] for i in range(len(traced["cycles"]))]
        self.setup = traced["spans"].get("-1", {})
        self.varying: List[str] = []

    def _ms(self, field: str, *names: str) -> float:
        return 1e3 * median([sum(c.get(n, {}).get(field, 0.0) for n in names)
                             for c in self.cycles])

    def _count(self, label: str, per_cycle: Sequence[float]) -> float:
        if len(set(per_cycle)) > 1:
            self.varying.append(label)
        return float(per_cycle[0])

    def _span_count(self, label: str, name: str, field: str = "calls") -> float:
        return self._count(label, [c.get(name, {}).get(field, 0) for c in self.cycles])

    def _counter(self, label: str, *keys: str) -> float:
        return self._count(label, [sum(c["counters"].get(k, 0.0) for k in keys)
                                   for c in self.traced["cycles"]])

    def _counter_keys(self, suffix: str) -> List[str]:
        return sorted(k for k in self.traced["cycles"][0]["counters"]
                      if k.startswith("pp.") and k.endswith(suffix))

    def ledger(self) -> Dict[str, float]:
        """Mean self time per cycle (ms) by layer; with ``unaccounted`` (the
        root's own time) the rows add up to ``cycle`` by construction."""
        n = len(self.cycles)
        out = {layer: 0.0 for layer in LAYERS}
        for c in self.cycles:
            for name, row in c.items():
                if name != ROOT:
                    out[name.split(".", 1)[0]] += 1e3 * row["self"] / n
        out["unaccounted"] = 1e3 * sum(c[ROOT]["self"] for c in self.cycles) / n
        out["cycle"] = 1e3 * sum(c[ROOT]["incl"] for c in self.cycles) / n
        return out

    def metrics(self) -> Dict[str, Optional[float]]:
        t = self.traced
        static = t["static"]
        ai = "ai.gflop_per_row" in static
        ens = static["members"] > 1
        walls = [c["wall_s"] for trial in self.untraced + [t] for c in trial["cycles"]]
        hi, hi_pct = percentile_hi(walls)
        m: Dict[str, Optional[float]] = {
            "esm.cycle_ms_p50": 1e3 * median(walls),
            "esm.cycle_ms_hi": 1e3 * hi,
            "esm.cycle_hi_pct": hi_pct,
            "esm.cycle_ms_max": 1e3 * max(walls),
            "esm.driver_self_ms": self._ms("self", ROOT),
            "esm.unaccounted_frac": median([c[ROOT]["self"] / c[ROOT]["incl"]
                                            for c in self.cycles]),
            "esm.init_s": self.setup["esm.init"]["incl"],
            "esm.ens_glue_ms": self._ms("self", "esm.batch_physics") if ens else None,
            "esm.batch_calls": self._counter("esm.batch_calls", "esm.batch_calls") if ens else None,
            "esm.batch_rows": self._counter("esm.batch_rows", "esm.batch_rows") if ens else None,
            "atm.run_ms": self._ms("incl", "atm.run"),
            "atm.dycore_ms": self._ms("incl", "atm.dycore"),
            "atm.dycore_calls": self._span_count("atm.dycore_calls", "atm.dycore"),
            "atm.physics_ms": self._ms("incl", "atm.physics"),
            "atm.glue_ms": self._ms("self", "atm.run", "atm.begin_step", "atm.complete_step"),
            "atm.init_s": self.setup["atm.init"]["incl"],
            "ocn.step_ms": self._ms("incl", "ocn.step"),
            "ocn.barotropic_ms": self._ms("incl", "ocn.barotropic"),
            "ocn.baroclinic_ms": self._ms("incl", "ocn.baroclinic"),
            "ocn.tracer_ms": self._ms("incl", "ocn.tracer"),
            "ocn.substeps": self._span_count("ocn.substeps", "ocn.step", "inner"),
            "ocn.init_s": self.setup["ocn.init"]["incl"],
            "ice.step_ms": self._ms("incl", "ice.step"),
            "lnd.step_ms": self._ms("incl", "lnd.step"),
            "coupler.transfer_ms": self._ms("incl", "coupler.transfer"),
            "coupler.transfers": self._counter("coupler.transfers", "coupler.transfers"),
            "coupler.bytes": self._counter("coupler.bytes", "coupler.bytes"),
            "grids.remap_ms": self._ms("incl", "grids.remap"),
            "grids.remap_calls": self._span_count("grids.remap_calls", "grids.remap"),
            "grids.remap_build_s": self.setup["grids.remap_build"]["incl"],
            "precision.apply_ms": self._ms("incl", "precision.apply"),
            "precision.state_mb": static["precision.state_mb"],
            "precision.saving_frac": static["precision.saving_frac"],
        }

        # pp: the program's own KernelStats, read between cycles.
        seconds = self._counter_keys(".seconds")
        kernel_ms = 1e3 * median([sum(c["counters"][k] for k in seconds) for c in t["cycles"]])
        launches = self._counter("pp.launches", *self._counter_keys(".launches"))
        m["pp.kernel_ms"] = kernel_ms
        m["pp.launches"] = launches
        m["pp.iterations"] = self._counter("pp.iterations", *self._counter_keys(".iterations"))
        m["pp.us_per_launch"] = 1e3 * kernel_ms / launches
        for kernel in PP_KERNELS:
            key = f"pp.{kernel}.seconds"
            m[f"pp.{kernel}_ms"] = (
                1e3 * median([c["counters"][key] for c in t["cycles"]])
                if key in seconds else None
            )
        m.update(dict.fromkeys(("pp.procs_speedup", "pp.procs_dispatches",
                                "pp.procs_fallbacks", "pp.procs_mb_staged")))
        if self.procs is not None:
            p = self.procs
            m["pp.procs_speedup"] = median_cycle_s(self.untraced) / median_cycle_s([p])
            # Which launches the pool takes can differ by cycle; the counts
            # are checked across runs, not across cycles.
            for name, key in (("pp.procs_dispatches", "procs.dispatches"),
                              ("pp.procs_fallbacks", "procs.fallbacks")):
                m[name] = sum(c["counters"][key] for c in p["cycles"]) / len(p["cycles"])
            m["pp.procs_mb_staged"] = median(
                [c["counters"]["procs.bytes_shared"] / MIB for c in p["cycles"]])

        m.update(dict.fromkeys(("ai.tendency_ms", "ai.radiation_ms", "ai.rows_per_call",
                                "ai.gflop_per_cycle", "ai.gflops")))
        if ai:
            rows = t["rows_per_call"]
            if len(rows) != 1:
                self.varying.append("ai.rows_per_call")
            calls = self._span_count("ai.calls", "ai.tendency")
            m["ai.tendency_ms"] = self._ms("incl", "ai.tendency")
            m["ai.radiation_ms"] = self._ms("incl", "ai.radiation")
            m["ai.rows_per_call"] = float(rows[0])
            m["ai.gflop_per_cycle"] = static["ai.gflop_per_row"] * rows[0] * calls
            m["ai.gflops"] = m["ai.gflop_per_cycle"] / (
                1e-3 * self._ms("incl", "ai.tendency", "ai.radiation"))

        m.update(dict.fromkeys(("io.ckpt_write_ms", "io.ckpt_mb", "io.ckpt_mb_s",
                                "io.restore_ms")))
        if ens:
            m["io.ckpt_write_ms"] = 1e3 * median([c["ckpt_s"] for c in t["cycles"]])
            m["io.ckpt_mb"] = median([c["ckpt_bytes"] / MIB for c in t["cycles"]])
            m["io.ckpt_mb_s"] = median([c["ckpt_bytes"] / MIB / c["ckpt_s"] for c in t["cycles"]])
            m["io.restore_ms"] = 1e3 * t["restore_s"]

        m["obs.trace_overhead_frac"] = median_cycle_s([t]) / median_cycle_s(self.untraced) - 1.0
        return m

    def trace_overhead_resolved(self) -> Optional[float]:
        """The traced trial against the *slowest* untraced trial: the part of
        the overhead that run-to-run noise cannot explain.  One pair of
        trials cannot resolve 5 % on a shared box, so ``None`` without at
        least two untraced trials."""
        if len(self.untraced) < 2:
            return None
        slowest = max(median_cycle_s([u]) for u in self.untraced)
        return median_cycle_s([self.traced]) / slowest - 1.0


def benchmark_errors(layers: Layers, metrics: Dict[str, Optional[float]]) -> List[str]:
    """Instrumentation gaps — errors of the benchmark, not of the program."""
    out = []
    frac = metrics["esm.unaccounted_frac"]
    if frac < 0.0:
        out.append(f"esm.unaccounted_frac = {frac:.4f} < 0: a re-entrant call was double-counted")
    if frac > UNACCOUNTED_MAX:
        out.append(f"esm.unaccounted_frac = {frac:.4f} > {UNACCOUNTED_MAX}: "
                   "a layer call is not wrapped")
    overhead = layers.trace_overhead_resolved()
    if overhead is not None and overhead > TRACE_OVERHEAD_MAX:
        out.append(f"obs.trace_overhead_frac = {metrics['obs.trace_overhead_frac']:.4f} "
                   f"({overhead:.4f} over the slowest untraced trial) > {TRACE_OVERHEAD_MAX}: "
                   "the ledger does not describe the untraced run")
    for name in layers.varying:
        out.append(f"{name} is a count but differs between cycles")
    return out
