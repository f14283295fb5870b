"""One trial: a fresh process builds a workload, warms up, runs N cycles.

``python trial.py SPEC.json`` reads the spec ``run.py`` wrote, drives the
program through its public API only, and writes one JSON result:

* ``setup_s`` — constructing the model (``AIPhysicsSuite.load``, cache
  and checkpoint directories included) until ``init()`` returns;
* one record per timed cycle — wall, process CPU (self + children), the
  checkpoint's share, and the *deltas* of the program's own counters
  (pp ``KernelStats``, exchange traffic, batched-physics calls, process
  pool stats) read between cycles, outside the timed region;
* the state digest and the correctness checks after the last cycle;
* with ``trace``: per-cycle span aggregates from :mod:`trace`, and the
  spans themselves as Chrome-trace JSON.

A cycle is ``run_couplings(5)``, plus ``checkpoint()`` on the ensemble.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import trace as e2e_trace
from workloads import ATM_NLEV, COUPLINGS_PER_CYCLE

# Imported here, not in Run: set-up time starts at construction, after imports.
import repro.esm.ap3esm as driver
from repro.ai.layers import Conv1d, Dense, ResidualDense, ResUnit
from repro.ai.network import Sequential
from repro.atm import AIPhysicsSuite, GristModel
from repro.esm import AP3ESM, AP3ESMConfig, EnsembleConfig, EnsembleRun
from repro.ocn import LicomModel
from repro.resilience.config import ResilienceConfig

SST_RANGE_C = (-2.0, 40.0)
PRECIP_MAX = 1e-2  # kg m-2 s-1, i.e. 864 mm/day


class Run:
    """The built workload: a solo model or an ensemble, one interface."""

    def __init__(self, spec: dict, tracer: Optional[e2e_trace.Tracer]) -> None:
        cfg = spec["cfg"]
        self.suite = AIPhysicsSuite.load(spec["suite"]) if spec["suite"] else None
        nlon, nlat, nlev = cfg["ocn"]
        base = dict(
            atm_level=cfg["atm_level"], atm_nlev=ATM_NLEV,
            ocn_nlon=nlon, ocn_nlat=nlat, ocn_levels=nlev,
            ocn_couple_ratio=COUPLINGS_PER_CYCLE, precision=cfg["precision"],
            physics=self.suite, backend=spec["backend"],
            backend_workers=2 if spec["backend"] == "procs" else 0,
        )
        self.ens = None
        if cfg["kind"] == "ensemble":
            work = Path(spec["work"])
            base.update(
                coupler_cache_dir=str(work / "cache"),
                resilience=ResilienceConfig(
                    enabled=True, guard_physics=False,
                    checkpoint_every=COUPLINGS_PER_CYCLE,
                    checkpoint_dir=str(work / "ckpt"),
                ),
            )
            self.top = self.ens = EnsembleRun(EnsembleConfig(
                base=AP3ESMConfig(**base), members=cfg["members"],
                batch_physics=True, perturb_seed=spec["seed"],
            ))
        else:
            self.top = AP3ESM(AP3ESMConfig(**base))
        if tracer is not None:
            _trace_init(tracer)
            with tracer.span("esm.init"):
                self.top.init()
        else:
            self.top.init()
        self.members = self.ens.members if self.ens is not None else [self.top]
        self.ckpt_paths: List[Path] = []
        self.ckpt_s = 0.0

    def cycle(self) -> None:
        self.top.run_couplings(COUPLINGS_PER_CYCLE)
        if self.ens is not None:
            t0 = time.perf_counter()
            self.ckpt_paths = self.ens.checkpoint()
            self.ckpt_s = time.perf_counter() - t0

    # -- the program's own counters (cumulative; the caller takes deltas) ----

    def counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {"coupler.transfers": 0.0, "coupler.bytes": 0.0}
        for m in self.members:
            for kernel, row in m.ctx.metrics.summary().items():
                for key in ("launches", "iterations", "seconds"):
                    name = f"pp.{kernel}.{key}"
                    out[name] = out.get(name, 0.0) + row[key]
            for traffic in m.exchange.report().values():
                out["coupler.transfers"] += traffic["transfers"]
                out["coupler.bytes"] += traffic["bytes"]
        if self.ens is not None:
            out["esm.batch_calls"] = float(self.ens.physics_driver.fleet_calls)
            out["esm.batch_rows"] = float(self.ens.physics_driver.columns_total)
        pool = self.top.pool_stats()
        if pool is not None:
            out["procs.dispatches"] = float(pool.dispatches)
            out["procs.fallbacks"] = float(pool.fallbacks)
            out["procs.bytes_shared"] = float(pool.bytes_shared)
        return out

    # -- correctness ---------------------------------------------------------

    def digest(self) -> str:
        h = hashlib.sha256()
        for k, m in enumerate(self.members):
            for comp in m.components:
                for name, arr in sorted(comp.state().items()):
                    h.update(f"{k}.{comp.name}.{name}".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def checks(self) -> Dict[str, bool]:
        finite = sst = ice = precip = True
        for m in self.members:
            for comp in m.components:
                finite &= all(bool(np.isfinite(a).all()) for a in comp.state().values())
            wet_sst = m.ocn.state()["t"][0][m.ocn.mask3d[0]]
            sst &= bool(wet_sst.min() >= SST_RANGE_C[0] - 1e-6
                        and wet_sst.max() <= SST_RANGE_C[1])
            conc = m.ice.state()["concentration"]
            ice &= bool(conc.min() >= -1e-9 and conc.max() <= 1.0 + 1e-9)
            rain = m.atm.export_state()["precip"]
            precip &= bool(rain.min() >= 0.0 and rain.max() <= PRECIP_MAX)
        return {"finite": finite, "sst_range": sst, "ice_area_range": ice,
                "precip_range": precip}

    def static(self) -> Dict[str, float]:
        mem = [m.memory_report() for m in self.members]
        cycle_s = COUPLINGS_PER_CYCLE * self.members[0].dt_couple
        out = {
            "members": float(len(self.members)),
            "sim_years_per_cycle": cycle_s / 86400.0 / 365.0 * len(self.members),
            "precision.state_mb": sum(r["bytes_mixed"] for r in mem) / 2**20,
            "precision.saving_frac": 1.0 - sum(r["bytes_mixed"] for r in mem)
            / sum(r["bytes_fp64"] for r in mem),
        }
        if self.suite is not None:
            out["ai.gflop_per_row"] = (
                _gemm_flops_per_row(self.suite.tendency_trainer.model, ATM_NLEV)
                + _gemm_flops_per_row(self.suite.radiation_trainer.model, 1)
            ) / 1e9
        return out


def _gemm_flops_per_row(model, positions: int) -> float:
    """Computed GEMM work (2*M*K*N) per input row of a Sequential: a conv
    is an im2col GEMM with one row per level, a dense layer one per sample."""
    def flops(layer) -> float:
        if isinstance(layer, Conv1d):
            c_out, c_in, k = layer.w.value.shape
            return 2.0 * positions * c_in * k * c_out
        if isinstance(layer, Dense):
            n_in, n_out = layer.w.value.shape
            return 2.0 * n_in * n_out
        if isinstance(layer, ResUnit):
            return flops(layer.conv1) + flops(layer.conv2)
        if isinstance(layer, ResidualDense):
            return flops(layer.fc1) + flops(layer.fc2)
        if isinstance(layer, Sequential):
            return sum(flops(sub) for sub in layer.layers)
        return 0.0

    return flops(model)


def _trace_init(tracer: e2e_trace.Tracer) -> None:
    """Init-phase spans: the components do not exist yet, so the public
    functions are wrapped where the driver looks them up."""
    tracer.wrap(GristModel, "init", "atm.init")
    tracer.wrap(LicomModel, "init", "ocn.init")
    tracer.wrap(driver, "nearest_remap", "grids.remap_build")


def instrument(tracer: e2e_trace.Tracer, run: Run, rows: List[int]) -> None:
    """Wrap the bound public methods at every layer boundary."""
    w = tracer.wrap
    for m in run.members:
        atm, ocn = m.atm, m.ocn
        w(atm, "run", "atm.run")
        # Under batch_physics the lockstep runner replaces atm.run with
        # begin_step -> one batched compute -> complete_step.
        w(atm, "begin_step", "atm.begin_step")
        w(atm, "complete_step", "atm.complete_step")
        w(atm.dycore, "step_rk4", "atm.dycore")
        w(atm.physics, "compute", "atm.physics")
        w(ocn, "step", "ocn.step")
        w(ocn.barotropic, "step", "ocn.barotropic")
        w(ocn.baroclinic, "step", "ocn.baroclinic")
        w(ocn.tracers, "step", "ocn.tracer")
        w(m.ice, "step", "ice.step")
        w(m.lnd, "step", "lnd.step")
        for comp in m.components:
            w(comp, "pre_coupling", f"{comp.name}.pre_coupling")
            w(comp, "post_coupling", f"{comp.name}.post_coupling")
        w(m.a2o, "apply", "grids.remap")
        w(m.o2a, "apply", "grids.remap")
        w(m.exchange, "transfer", "coupler.transfer")
        w(m.ctx, "apply_precision", "precision.apply")
    if run.suite is not None:
        w(run.suite.tendency_trainer, "predict", "ai.tendency",
          on_call=lambda x: rows.append(int(x.shape[0])))
        w(run.suite.radiation_trainer, "predict", "ai.radiation")
    if run.ens is not None:
        w(run.ens.physics_driver, "compute", "esm.batch_physics")
        w(run.ens, "checkpoint", "io.ckpt_write")
        w(run.ens, "recover", "io.restore")


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children
    (``os.times`` would do, but ticks at 10 ms)."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def _tree_bytes(paths: List[Path]) -> int:
    return sum(f.stat().st_size for p in paths for f in Path(p).rglob("*") if f.is_file())


def run_trial(spec: dict) -> dict:
    tracer = e2e_trace.Tracer() if spec["trace"] else None
    result: dict = {"planned_cycles": spec["cycles"], "cycles": [], "error": None}
    rows: List[int] = []
    run = None
    try:
        t0 = time.perf_counter()
        run = Run(spec, tracer)
        result["setup_s"] = time.perf_counter() - t0
        if spec["noise"]:
            atm = run.top.atm
            atm.set_state({"t_col": atm.state()["t_col"] + np.load(spec["noise"])})
        if tracer is not None:
            instrument(tracer, run, rows)
        result["static"] = run.static()

        run.cycle()  # warm-up: lazy set-up and caches, untimed
        before = run.counters()
        for i in range(spec["cycles"]):
            if tracer is not None:
                tracer.cycle = i
            with tracer.span("esm.cycle") if tracer is not None else nullcontext():
                cpu0, t0 = _cpu_seconds(), time.perf_counter()
                run.cycle()
                wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
            if tracer is not None:
                tracer.cycle = e2e_trace.SETUP
            after = run.counters()
            result["cycles"].append({
                "wall_s": wall, "cpu_s": cpu, "ckpt_s": run.ckpt_s,
                "ckpt_bytes": _tree_bytes(run.ckpt_paths),
                "counters": {k: after[k] - before.get(k, 0.0) for k in after},
            })
            before = after

        result["checks"] = run.checks()
        result["digest"] = run.digest()
        if run.ens is not None:
            t0 = time.perf_counter()
            run.ens.recover()
            result["restore_s"] = time.perf_counter() - t0
            result["checks"]["recover_digest"] = run.digest() == result["digest"]
    except Exception:
        result["error"] = traceback.format_exc()
    finally:
        if run is not None:
            try:
                run.top.finalize()  # stops and joins the process pool
            except Exception:
                result["error"] = result["error"] or traceback.format_exc()
    usage = max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result["peak_rss_mb"] = usage / 1024.0
    if tracer is not None:
        result["rows_per_call"] = sorted(set(rows))
        result["spans"] = {str(cycle): names
                           for cycle, names in e2e_trace.aggregate(tracer.spans).items()}
        tracer.write_chrome_trace(spec["trace_out"])
    return result


def main(argv: List[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result = run_trial(spec)
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
