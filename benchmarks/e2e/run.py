#!/usr/bin/env python3
"""The coupled-model benchmark: SYPD, cost, set-up, memory, and a ledger.

    python benchmarks/e2e/run.py [--seed S] [--workload NAME] [--out FILE]
    python benchmarks/e2e/run.py --compare A.json B.json

With no arguments every workload runs: ``TRIALS`` untraced trials for the
end-to-end metrics, then one traced trial (and on ``cpl_atm`` one trial on
the ``procs`` backend) for the per-layer metrics, the correctness checks,
and a report that prints every metric by name with its unit.

The driver's form — ``--workload W --seed N --seconds S --trace 0|1`` —
runs half of that: ``--trace 0`` the untraced trials only, ``--trace 1``
one untraced and one traced trial.  Either way the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 all checks passed; 1 a correctness check failed (or
``--compare`` found a metric ``worse``); 2 cannot run here; 3 the outputs
are correct but the benchmark's own reconciliation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as mt  # noqa: E402
from workloads import ROOT, TRIALS, cycles_per_trial, declaration, sized  # noqa: E402

SRC = ROOT / "src"
#: BLAS threading doubled the run-to-run spread on the 2-core dev box.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TRIAL_TIMEOUT_S = 150


# -- running trials ------------------------------------------------------------------


def trial_env() -> Dict[str, str]:
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_trial(work: Path, label: str, spec: dict) -> dict:
    """One fresh subprocess; a trial that dies is a result with an error."""
    trial_dir = work / label
    trial_dir.mkdir()
    spec = dict(spec, work=str(trial_dir), out=str(trial_dir / "result.json"),
                trace_out=str(trial_dir / "trace.json"))
    spec_path = trial_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    failure = None
    try:
        # The trial's own output goes to stderr: stdout's last line is ours.
        proc = subprocess.run(
            [sys.executable, str(HERE / "trial.py"), str(spec_path)],
            env=trial_env(), stdout=sys.stderr, timeout=TRIAL_TIMEOUT_S,
        )
        if proc.returncode != 0:
            failure = f"trial {label} exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        failure = f"trial {label} exceeded {TRIAL_TIMEOUT_S} s"
    out = Path(spec["out"])
    if failure is None and out.exists():
        result = json.loads(out.read_text())
    else:
        result = {"planned_cycles": spec["cycles"], "cycles": [],
                  "error": failure or f"trial {label} wrote no result"}
    result["label"] = label
    return result


def run_workload(name: str, seed: int, seconds: float, trace: Optional[int],
                 smoke: bool, keep_traces: Optional[Path]) -> dict:
    """Generate the inputs, run the trials, return the workload's record.
    ``trace``: 0 untraced trials only, 1 one untraced + the traced trials,
    None the full protocol."""
    import inputs

    cfg = sized(name, smoke)
    n_trials = 1 if (smoke or trace == 1) else TRIALS
    cycles = 1 if smoke else cycles_per_trial(cfg, seconds)
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = dict(cfg=cfg, seed=seed, cycles=cycles, trace=False, backend="serial",
                    **inputs.generate(seed, cfg, work))
        untraced = [run_trial(work, f"untraced{i}", spec) for i in range(n_trials)]
        traced = procs = None
        if trace != 0:
            traced = run_trial(work, "traced", dict(spec, trace=True))
            if cfg["procs_trial"]:
                procs = run_trial(work, "procs", dict(spec, backend="procs"))
            trace_file = work / "traced" / "trace.json"
            if keep_traces is not None and trace_file.exists():
                shutil.copy(trace_file, keep_traces)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):  # unless another run is using it
            work.parent.rmdir()
    return summarize(name, seed, cycles, untraced, traced, procs)


# -- checking and summarizing ------------------------------------------------------------

#: Counters of the program that must repeat exactly, trial to trial.
EXACT_COUNTERS = (".launches", ".iterations", "coupler.bytes", "coupler.transfers",
                  "esm.batch_calls", "esm.batch_rows")


def exact_counts(trial: dict) -> List[Dict[str, float]]:
    return [{k: v for k, v in c["counters"].items() if k.endswith(EXACT_COUNTERS)}
            for c in trial["cycles"]]


def verify(serial: List[dict], procs: Optional[dict]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems).  A cycle fails if it raised or its
    trial failed a check; a digest or count that differs between trials
    fails every cycle of the workload, since no trial can be trusted."""
    trials = serial + ([procs] if procs is not None else [])
    problems: List[str] = []
    failed = 0
    for t in trials:
        bad = [k for k, ok in t.get("checks", {}).items() if not ok]
        if t["error"]:
            problems.append(f"{t['label']}: {t['error'].strip().splitlines()[-1]}")
        if bad:
            problems.append(f"{t['label']}: failed checks {bad}")
        if t["error"] or bad:
            failed += t["planned_cycles"]
    attempted = sum(t["planned_cycles"] for t in trials)
    digests = {t["label"]: t.get("digest") for t in trials}
    if len(set(digests.values())) > 1:
        problems.append(f"state digests differ between trials: {digests}")
        failed = attempted
    if any(exact_counts(t) != exact_counts(serial[0]) for t in serial[1:]):
        problems.append("pp/coupler/batch counts differ between trials")
        failed = attempted
    return attempted, failed, problems


def summarize(name: str, seed: int, cycles: int, untraced: List[dict],
              traced: Optional[dict], procs: Optional[dict]) -> dict:
    serial = untraced + ([traced] if traced is not None else [])
    attempted, failed, problems = verify(serial, procs)
    record = {
        "workload": name, "seed": seed, "trials": len(untraced), "cycles_per_trial": cycles,
        "attempted": attempted, "failed": failed, "correct": failed == 0,
        "problems": problems, "benchmark_errors": [],
        "end_to_end": None, "per_layer": None, "ledger": None,
    }
    if failed:
        return record
    walls = [c["wall_s"] for t in untraced for c in t["cycles"]]
    q1, med, q3 = mt.quartiles(walls)
    record["end_to_end"] = mt.end_to_end(untraced)
    record["cycle_wall_s"] = {"q1": q1, "median": med, "q3": q3, "n": len(walls),
                              "trials": [[c["wall_s"] for c in t["cycles"]] for t in untraced]}
    if traced is not None:
        layers = mt.Layers(traced, untraced, procs)
        record["per_layer"] = layers.metrics()
        record["ledger"] = layers.ledger()
        record["benchmark_errors"] = mt.benchmark_errors(layers, record["per_layer"])
    return record


# -- reporting ---------------------------------------------------------------------------


def host() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__}


def fmt(value: Optional[float]) -> str:
    return "absent" if value is None else f"{value:.6g}"


def print_record(rec: dict, decl: dict) -> None:
    print(f"\n== {rec['workload']}  (seed {rec['seed']}, {rec['trials']} untraced trials"
          f" x {rec['cycles_per_trial']} cycles) ==")
    for p in rec["problems"]:
        print(f"  FAILED: {p}")
    print(f"  fail_frac          {rec['failed'] / rec['attempted']:.6g}"
          f"  ({rec['failed']} failed / {rec['attempted']} attempted cycles)")
    if rec["end_to_end"] is None:
        return
    print("  end-to-end (tracing off; median over trials [q1 .. q3])")
    for m in decl["end_to_end"]:
        e = rec["end_to_end"][m["name"]]
        print(f"    {m['name']:<18} {e['value']:>12.6g} {m['unit']:<16}"
              f" [{e['q1']:.6g} .. {e['q3']:.6g}]  {m['better']} is better")
    w = rec["cycle_wall_s"]
    print(f"    cycle wall s       q1 {w['q1']:.4f}  median {w['median']:.4f}"
          f"  q3 {w['q3']:.4f}  (n = {w['n']} pooled cycles)")
    if rec["per_layer"] is None:
        return
    print("  per-layer (traced trial; per-cycle medians, counts exact)")
    for m in decl["per_layer"]:
        print(f"    {m['name']:<32} {fmt(rec['per_layer'][m['name']]):>12} {m['unit']}")
    led = rec["ledger"]
    print("  ledger (traced trial; mean self time per cycle)")
    for layer in mt.LAYERS:
        print(f"    {layer:<12} {led[layer]:>10.3f} ms  {100 * led[layer] / led['cycle']:>6.2f} %")
    print(f"    {'unaccounted':<12} {led['unaccounted']:>10.3f} ms "
          f" {100 * led['unaccounted'] / led['cycle']:>6.2f} %   (esm.unaccounted_frac:"
          " the coupled driver's own time, owned by no layer)")
    print(f"    {'cycle':<12} {led['cycle']:>10.3f} ms  100.00 %")
    print(f"    of which pp kernels (inside atm/ice/lnd): {fmt(rec['per_layer']['pp.kernel_ms'])} ms")
    for e in rec["benchmark_errors"]:
        print(f"  BENCHMARK ERROR: {e}")


def driver_line(rec: dict, decl: dict, trace: int) -> str:
    """The contract's last line: every end-to-end metric with ``--trace 0``,
    every per-layer metric with ``--trace 1`` (an absent one reads 0)."""
    metrics = {}
    if rec["correct"]:
        if trace == 0:
            for m in decl["end_to_end"]:
                metrics[m["name"]] = {"value": rec["end_to_end"][m["name"]]["value"],
                                      "unit": m["unit"]}
        else:
            for m in decl["per_layer"]:
                metrics[m["name"]] = {"value": rec["per_layer"][m["name"]] or 0.0,
                                      "unit": m["unit"]}
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": metrics})


# -- compare -----------------------------------------------------------------------------


def spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def status(m: dict, ea: dict, eb: dict) -> str:
    """``worse`` when B's median loses more than the bound; either verdict
    needs a spread within the bound or trials that do not overlap at all,
    otherwise the pair is ``unresolved``."""
    lower = m["better"] == "lower"
    loss = (eb["value"] - ea["value"]) / ea["value"] * (1.0 if lower else -1.0)
    ta, tb = ea["trials"], eb["trials"]
    b_beats_a = max(tb) < min(ta) if lower else min(tb) > max(ta)
    a_beats_b = max(ta) < min(tb) if lower else min(ta) > max(tb)
    steady = max(spread(ea), spread(eb)) <= m["bound"]
    if loss > m["bound"]:
        return "worse" if steady or a_beats_b else "unresolved"
    return "ok" if steady or b_beats_a else "unresolved"


def compare(path_a: str, path_b: str) -> int:
    """Every end-to-end metric x workload of two reports: both medians, the
    relative difference (base A), the bound and the verdict; then whether
    the count metrics are identical."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    decl = declaration()
    worse = 0
    row = "{:<10} {:<12} {:>12.6g} {:>12.6g} {:>8.2f}% {:>5.0f}%  {}"
    print(f"A = {path_a} (seed {a['seed']})   B = {path_b} (seed {b['seed']})")
    print(f"{'workload':<10} {'metric':<12} {'A':>12} {'B':>12} {'(B-A)/A':>9} {'bound':>6}  status")
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        fa, fb = (r and r["failed"] / r["attempted"] for r in (ra, rb))
        if rb is None or fa or fb:
            print(f"{name:<10} fail_frac A {fa} B {fb}: worse (missing or failed; not comparable)")
            worse += 1
            continue
        for m in decl["end_to_end"]:
            ea, eb = ra["end_to_end"][m["name"]], rb["end_to_end"][m["name"]]
            verdict = status(m, ea, eb)
            worse += verdict == "worse"
            print(row.format(name, m["name"], ea["value"], eb["value"],
                             100 * (eb["value"] - ea["value"]) / ea["value"],
                             100 * m["bound"], verdict))
        print(f"{name:<10} {'fail_frac':<12} {fa:>12.6g} {fb:>12.6g}   (any rise is worse)  ok")
        ca, cb = ra["per_layer"], rb["per_layer"]
        if ca and cb:
            # Which launches the process pool takes is not pinned run to run.
            counts = [m["name"] for m in decl["per_layer"]
                      if m["unit"] in ("count", "B") and not m["name"].startswith("pp.procs_")]
            moved = [c for c in counts if ca[c] != cb[c]]
            print(f"{name:<10} counts: " + (f"DIFFER {moved}" if moved else
                                            f"all {len(counts)} identical"))
    return 1 if worse else 0


# -- entry point -------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    decl = declaration()
    names = [w["name"] for w in decl["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(decl["run_seconds"]),
                    help="timed work per untraced run (sets the cycle count)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: untraced trials only; 1: one untraced + the traced trials")
    ap.add_argument("--out", help="write the full report as JSON (and keep the traces beside it)")
    ap.add_argument("--smoke", action="store_true",
                    help="1 trial x 1 cycle on tiny grids: exercises every code path")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"run.py: the program is not here ({SRC / 'repro'} is missing)", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PINS)  # input generation trains in this process
    sys.path.insert(0, str(SRC))

    report = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
              "host": host(), "workloads": {}}
    for name in [args.workload] if args.workload else names:
        keep = Path(f"{args.out}.{name}.trace.json") if args.out else None
        rec = run_workload(name, args.seed, args.seconds, args.trace, args.smoke, keep)
        report["workloads"][name] = rec
        print_record(rec, decl)
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))

    records = list(report["workloads"].values())
    if args.workload and args.trace is not None:
        print(driver_line(records[0], decl, args.trace))
    if not all(r["correct"] for r in records):
        return 1
    return 3 if any(r["benchmark_errors"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
