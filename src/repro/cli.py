"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library version, subsystem inventory, Table 1 configurations.
``run-coupled``
    Run the coupled AP3ESM for N days and print diagnostics + SYPD.
``run-ensemble``
    Run N perturbed coupled members in lockstep inside ONE process,
    optionally batching all members' AI/conventional physics columns
    into a single suite call per step.
``typhoon``
    The idealized-typhoon experiment (Figs. 6/7) with track output.
``scaling``
    Regenerate the Table 2 / Fig. 8a strong-scaling tables.
``train-ai``
    Harvest a training archive from the model and train the AI suite.
``submit``
    Journal one scenario job (config delta + perturbed IC + coupling
    budget) into a durable job store.
``run-jobs``
    Drive a job store's queued jobs to completion with the crash-safe
    scenario service (recovers jobs a killed service left running).

One table, ``_COMMANDS``, maps each command name to its help line, the
``_add_*`` argument adders that declare its flags, and its ``_cmd_*``
handler; ``build_parser`` and ``main`` both read it.  Commands share the
adders, so ``run-coupled`` and ``run-ensemble`` present identical core/
precision/coupler/observability groups (snapshot-tested by introspection
— keep group titles and flag membership stable), and a flag set used by
two groups (the model size, the checkpoint rotation) is declared once.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# Argument adders


def _add_model_size(group) -> None:
    group.add_argument("--atm-level", type=int, default=3)
    group.add_argument("--ocn-nlon", type=int, default=64)
    group.add_argument("--ocn-nlat", type=int, default=48)
    group.add_argument("--ocn-levels", type=int, default=8)


def _add_checkpoint_flags(group) -> None:
    group.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                       help="write a rotating checksummed checkpoint every N "
                            "couplings and roll a rank loss back to it (requires "
                            "--checkpoint-dir; run-ensemble: per member under "
                            "<dir>/member<k>/, only with --member-policy or --faults)")
    group.add_argument("--checkpoint-dir", default=None,
                       help="rotating checkpoint (root) directory")
    group.add_argument("--checkpoint-keep", type=int, default=3,
                       help="checkpoints kept per rotation (default 3)")


def _add_core_group(p: argparse.ArgumentParser) -> None:
    core = p.add_argument_group("core", "model size and schedule")
    core.add_argument("--days", type=float, default=1.0)
    _add_model_size(core)
    core.add_argument("--restart-dir", default=None,
                      help="write a restart set here at the end")
    core.add_argument("--backend", default="serial",
                      choices=("serial", "procs"),
                      help="execution backend for component kernels; 'procs' "
                           "fans kernels across host cores via a shared-memory "
                           "process pool, bitwise-identical to 'serial'")
    core.add_argument("--backend-workers", type=int, default=0, metavar="N",
                      help="worker/lane count for --backend "
                           "(default 0: all cores for 'procs')")
    core.add_argument("--concurrent-domains", action="store_true",
                      help="run task domain 2 (ocean) on its own thread "
                           "(§5.1.2; bitwise-identical to the serial schedule)")


def _add_precision_group(p: argparse.ArgumentParser) -> None:
    prec = p.add_argument_group("precision", "storage and compute precision (§5.2.3)")
    prec.add_argument("--precision", choices=("fp64", "mixed"), default="mixed",
                      help="storage precision policy for prognostic state; mixed "
                           "also runs AI physics inference and the ocean in FP32 "
                           "(§5.2.3; default: mixed group-scaled FP32)")


def _add_resilience_group(p: argparse.ArgumentParser) -> None:
    res = p.add_argument_group(
        "resilience", "checkpoints, recovery, and chaos testing"
    )
    _add_checkpoint_flags(res)
    res.add_argument("--faults", default=None, metavar="PLAN_JSON",
                     help="chaos mode: inject this FaultPlan, crash, recover "
                          "from the newest valid checkpoint, and verify the "
                          "run is bitwise identical to a fault-free twin")
    res.add_argument("--couplings", type=int, default=6,
                     help="coupling steps for chaos mode (default 6; "
                          "ignored without --faults)")


def _add_coupler_group(p: argparse.ArgumentParser) -> None:
    cpl = p.add_argument_group("coupler", "coupler fast path (§5.2.4)")
    cpl.add_argument("--coupler-cache", default=None, metavar="DIR",
                     help="content-addressed offline GSMap/Router cache "
                          "directory: a warm cache skips Router.build and "
                          "compiles coalesced rearrange plans; stale entries "
                          "(changed decompositions) miss automatically")
    cpl.add_argument("--prune-fields", action="store_true",
                     help="prune unused coupling fields from every exchange "
                          "path (§5.2.4); surviving fields stay bitwise "
                          "identical")


def _add_obs_group(p: argparse.ArgumentParser) -> None:
    obsg = p.add_argument_group("observability", "tracing and reports")
    obsg.add_argument("--trace", default=None, metavar="TRACE_JSON",
                      help="record a structured trace and write Chrome-trace "
                           "JSON here (open in chrome://tracing or Perfetto)")


def _add_ensemble_group(p: argparse.ArgumentParser) -> None:
    ens = p.add_argument_group(
        "ensemble", "member count, perturbations, and cross-member batching"
    )
    ens.add_argument("--members", type=int, default=2, metavar="N",
                     help="ensemble size (default 2); member 0 is never "
                          "perturbed and stays bitwise-identical to a solo "
                          "run-coupled twin")
    ens.add_argument("--perturb-seed", type=int, default=0,
                     help="namespace seed for the deterministic per-member "
                          "initial-condition perturbation streams")
    ens.add_argument("--perturb-amplitude", type=float, default=1e-3,
                     metavar="K",
                     help="Gaussian temperature perturbation amplitude in K "
                          "applied to members k >= 1 (default 1e-3)")
    ens.add_argument("--batch-physics", action="store_true",
                     help="stack every member's physics columns into ONE "
                          "suite call per atmosphere step (one GEMM serves "
                          "the fleet); bitwise-identical to per-member calls")


def _add_supervisor_group(p: argparse.ArgumentParser) -> None:
    sup = p.add_argument_group(
        "fleet supervisor", "member-level fault isolation and rejoin"
    )
    sup.add_argument("--member-policy",
                     choices=("fail_fast", "quarantine", "restart"),
                     default="fail_fast",
                     help="what the fleet does when ONE member fails: "
                          "fail_fast (default, pre-supervisor behavior), "
                          "quarantine (drop the member, survivors continue "
                          "bitwise-identical to a smaller fleet), or restart "
                          "(roll the member back to its rotating checkpoint, "
                          "replay it solo to the fleet clock, and rejoin "
                          "bitwise-identical; requires --checkpoint-every/"
                          "--checkpoint-dir)")
    sup.add_argument("--member-restart-max", type=int, default=2, metavar="K",
                     help="restarts allowed per member before escalating to "
                          "quarantine (default 2)")
    sup.add_argument("--faults", default=None, metavar="PLAN_JSON",
                     help="inject this FaultPlan's member-scoped physics/comm "
                          "faults (entries with a \"member\" key) into the "
                          "fleet and let the supervisor handle them")
    _add_checkpoint_flags(sup)


def _add_store_group(p: argparse.ArgumentParser) -> None:
    svc = p.add_argument_group("job store", "the durable scenario job journal")
    svc.add_argument("--store", required=True, metavar="DIR",
                     help="job store directory (holds the CRC'd append-only "
                          "journal; replaying it reconstructs the job table "
                          "after any crash)")


def _add_job_spec_group(p: argparse.ArgumentParser) -> None:
    job = p.add_argument_group("job spec", "what one scenario job runs")
    job.add_argument("--job-id", required=True,
                     help="unique job name ([A-Za-z0-9._-]+)")
    job.add_argument("--couplings", type=int, default=2,
                     help="coupling steps to run (default 2)")
    job.add_argument("--members", type=int, default=1, metavar="N",
                     help="1 = solo coupled run (default); > 1 = an "
                          "ensemble of N members")
    job.add_argument("--delta", action="append", default=[], metavar="KEY=VAL",
                     help="AP3ESMConfig override (repeatable); validity is "
                          "checked at RUN time, so a bad delta burns the "
                          "job's attempts through the circuit breaker")
    job.add_argument("--perturb-seed", type=int, default=0,
                     help="seed for the deterministic IC perturbation stream")
    job.add_argument("--perturb-amplitude", type=float, default=0.0,
                     metavar="K",
                     help="Gaussian temperature perturbation amplitude in K "
                          "(default 0: unperturbed)")
    job.add_argument("--batch-physics", action="store_true",
                     help="stack member physics into one suite call "
                          "(ensemble jobs only)")
    job.add_argument("--max-attempts", type=int, default=3, metavar="K",
                     help="run attempts before the circuit breaker "
                          "quarantines the spec (default 3)")
    job.add_argument("--deadline-s", type=float, default=None, metavar="T",
                     help="per-attempt wall-clock deadline in seconds "
                          "(default: unbounded)")


def _add_scheduler_group(p: argparse.ArgumentParser) -> None:
    sched = p.add_argument_group(
        "scheduler", "worker pool, liveness, retry, and chaos"
    )
    sched.add_argument("--work-dir", required=True, metavar="DIR",
                       help="per-job checkpoint rotations and published "
                            "restart sets live under <DIR>/jobs/<id>/")
    sched.add_argument("--workers", type=int, default=2, metavar="N",
                       help="pool threads with --threads (default 2; "
                            "ignored inline)")
    sched.add_argument("--threads", action="store_true",
                       help="fan attempts across a thread pool instead of "
                            "the deterministic inline loop")
    sched.add_argument("--max-queue", type=int, default=64, metavar="N",
                       help="admission limit on queued + running jobs "
                            "(default 64)")
    sched.add_argument("--heartbeat-timeout-s", type=float, default=30.0,
                       metavar="T",
                       help="reap (requeue) a running job whose worker has "
                            "not heartbeat within T seconds (default 30)")
    sched.add_argument("--checkpoint-every", type=int, default=2, metavar="N",
                       help="rotating-checkpoint cadence forced onto every "
                            "job (default 2 couplings)")
    sched.add_argument("--checkpoint-keep", type=int, default=3,
                       help="checkpoints kept per job rotation (default 3)")
    sched.add_argument("--faults", default=None, metavar="PLAN_JSON",
                       help="inject this FaultPlan's worker_kill faults "
                            "(service entries) into the pool")


def _add_base_model_group(p: argparse.ArgumentParser) -> None:
    base = p.add_argument_group(
        "base model", "the configuration job deltas apply onto"
    )
    _add_model_size(base)
    base.add_argument("--precision", choices=("fp64", "mixed"),
                      default="fp64",
                      help="base storage precision; mixed also runs AI physics "
                           "inference and the ocean in FP32 (jobs may override via "
                           "--delta precision=...)")


def _add_typhoon_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hours", type=int, default=12)
    p.add_argument("--atm-level", type=int, default=4)
    p.add_argument("--vmax", type=float, default=40.0)
    p.add_argument("--rmax-km", type=float, default=500.0)
    p.set_defaults(ocn_nlon=64, ocn_nlat=48, ocn_levels=8)  # a fixed ocean


def _add_scaling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--curve", default=None, help="one curve key (default: all)")


def _add_train_ai_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--days", type=int, default=6)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--width", type=int, default=32)


def _add_calibration_group(p: argparse.ArgumentParser) -> None:
    cal = p.add_argument_group(
        "calibration", "measured probe kernels -> fitted machine-model cost terms"
    )
    cal.add_argument("--out", default="CALIBRATION.json", metavar="TABLE_JSON",
                     help="where to write the fitted CalibrationTable "
                          "(default CALIBRATION.json)")
    cal.add_argument("--sizes", default="16384,65536",
                     help="comma-separated probe iteration counts "
                          "(>= 2 sizes fits the per-launch cost)")
    cal.add_argument("--repeats", type=int, default=3,
                     help="launches per probe per size; best-of is fitted "
                          "(default 3)")
    cal.add_argument("--check", default=None, metavar="TABLE_JSON",
                     help="load an existing table, re-measure the probes and "
                          "report modeled-vs-measured drift per kernel "
                          "instead of fitting; exit 1 when any kernel "
                          "exceeds --drift-tolerance")
    cal.add_argument("--drift-tolerance", type=float, default=0.5,
                     help="|drift| band allowed by --check (default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AP3ESM reproduction (SC '25) — coupled Earth system "
                    "model at laptop scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, adders, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_)
        for add in adders:
            add(cmd)
    return parser


# ---------------------------------------------------------------------------
# Command implementations


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.esm import AP3ESM_CONFIGS, GRIST_CONFIGS, LICOM_CONFIGS

    print(f"repro {repro.__version__} — AP3ESM reproduction (SC '25)")
    print(f"subpackages: {', '.join(repro.__all__)}")
    print("\nTable 1 configurations:")
    for label, pairing in AP3ESM_CONFIGS.items():
        print(f"  {label:>6}: atm {pairing.atm_resolution_km:g} km "
              f"({pairing.atm.grid_points:.1e} pts) + "
              f"ocn {pairing.ocn_resolution_km:g} km "
              f"({pairing.ocn.grid_points:.1e} pts)")
    return 0


def _resilience_config(args: argparse.Namespace, guard_physics: bool = True):
    """The ResilienceConfig run-coupled's resilience flags describe, or
    run-ensemble's supervisor flags with ``guard_physics=False`` (member
    isolation supersedes the per-column guardrail, which would mask
    injected blow-ups before the supervisor sees them and is incompatible
    with --batch-physics).  None when no such flag was given: the
    zero-overhead default, byte-identical to a plain run."""
    policy = "fail_fast" if guard_physics else args.member_policy
    armed = policy != "fail_fast"
    if not (armed or args.faults or args.checkpoint_every or args.checkpoint_dir):
        return None
    from repro.resilience import ResilienceConfig

    if args.checkpoint_every and not args.checkpoint_dir:
        raise SystemExit("--checkpoint-every requires --checkpoint-dir")
    if policy == "restart" and not (args.checkpoint_every and args.checkpoint_dir):
        raise SystemExit(
            "--member-policy restart needs a rollback target: pass "
            "--checkpoint-every and --checkpoint-dir"
        )
    if not guard_physics and args.checkpoint_every and not (armed or args.faults):
        # Member checkpoints are written by the fleet supervisor's cadence,
        # and the fail-fast default without a plan arms no supervisor.
        raise SystemExit(
            "--checkpoint-every writes member checkpoints only under the "
            "fleet supervisor: pass --member-policy quarantine|restart "
            "or --faults"
        )
    fields = {} if guard_physics else dict(
        member_policy=policy, member_restart_max=args.member_restart_max)
    try:
        return ResilienceConfig(
            enabled=True,
            guard_physics=guard_physics,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_keep=args.checkpoint_keep,
            **fields,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid resilience config: {exc}") from None


def _fault_plan(args: argparse.Namespace):
    """The FaultPlan ``--faults`` names (None without the flag)."""
    if not args.faults:
        return None
    from repro.resilience import FaultPlan

    return FaultPlan.from_file(args.faults)


def _coupled_config(args: argparse.Namespace, resilience=None):
    """The AP3ESMConfig the command's model flags describe (run-coupled,
    chaos mode, typhoon, run-ensemble's base and run-jobs' base model);
    fields the command has no flag for keep their defaults."""
    from repro.esm import AP3ESMConfig

    flags = vars(args)
    kwargs = {f: flags[f] for f in (
        "atm_level", "ocn_nlon", "ocn_nlat", "ocn_levels", "precision",
        "concurrent_domains", "prune_fields", "backend", "backend_workers",
    ) if f in flags}
    if "coupler_cache" in flags:
        kwargs["coupler_cache_dir"] = flags["coupler_cache"]
    if resilience is not None:
        kwargs["resilience"] = resilience
    return AP3ESMConfig(**kwargs)


def _cmd_chaos(args: argparse.Namespace) -> int:
    """run-coupled --faults: the chaos harness instead of a plain run."""
    from repro.resilience import run_chaos

    plan = _fault_plan(args)
    config = _coupled_config(args, resilience=_resilience_config(args))
    print(f"chaos: injecting {plan.n_faults} fault(s) from {args.faults} "
          f"over {args.couplings} coupling(s)...")
    report = run_chaos(plan, config=config, couplings=args.couplings)
    print(report.summary())
    return 0 if report.survived else 1


@contextlib.contextmanager
def _session(args: argparse.Namespace, cls, config, restart_note: str):
    """What run-coupled and run-ensemble share around their own stepping
    and reporting: the ``--trace`` obs, build + ``init()``; then pool
    stats, ``--restart-dir`` (``restart_note`` formats the directory into
    the line printed), ``finalize()`` and the trace dump."""
    from repro.obs import NULL_OBS, Obs

    obs = Obs() if args.trace else NULL_OBS
    session = cls(config, obs=obs)
    session.init()
    yield session
    pstats = session.pool_stats()
    if pstats is not None:
        print(f"procs backend: {pstats.workers} worker(s), "
              f"{pstats.dispatches} pool dispatch(es), "
              f"{pstats.fallbacks} in-process fallback(s), "
              f"{pstats.bytes_shared / 1e6:.1f} MB staged, "
              f"occupancy {pstats.occupancy:.2f}")
    if args.restart_dir:
        session.save_restart(args.restart_dir)
        print(restart_note.format(args.restart_dir))
    session.finalize()
    if args.trace:
        path = obs.write_chrome_trace(args.trace)
        print(obs.report())
        print(f"trace written to {path} (open in chrome://tracing / Perfetto)")


def _cmd_run_coupled(args: argparse.Namespace) -> int:
    from repro.esm import AP3ESM, atm_snapshot

    if args.faults:
        return _cmd_chaos(args)
    config = _coupled_config(args, resilience=_resilience_config(args))
    with _session(args, AP3ESM, config,
                  "restart written to {}/(atm|ocn|ice|lnd|cpl)") as model:
        schedule = "concurrent" if args.concurrent_domains else "serial"
        print(f"running {args.days:g} coupled days "
              f"({schedule} task domains, {args.precision} storage, "
              f"{args.backend} backend)...")
        model.run_days(args.days)
        for ev in model.recovery_events:
            print(f"recovered from {ev['error']} in "
                  f"{ev['domain']} at coupling {ev['failed_at_coupling']}: "
                  f"rolled back to {ev['restored_to_coupling']}, replayed "
                  f"{ev['replayed_couplings']} coupling(s)")
        mem = model.memory_report()
        if mem["n_fp32"] or mem["n_fp32_groupscaled"]:
            print(f"mixed-precision state: {mem['bytes_fp64']:.0f} -> "
                  f"{mem['bytes_mixed']:.0f} bytes "
                  f"({100 * mem['saving_fraction']:.0f}% saving, "
                  f"{mem['n_fp32']:.0f} FP32 + "
                  f"{mem['n_fp32_groupscaled']:.0f} group-scaled of "
                  f"{mem['n_variables']:.0f} fields)")
        snap = atm_snapshot(model.atm)
        sst = model.ocn.export_state()["sst"]
        wet = model.ocn.mask3d[0]
        print(f"precip {snap['precip'].mean() * 86400:.2f} mm/day | "
              f"cloud {snap['cloud_fraction'].mean():.2f} | "
              f"SST {sst[wet].min():.1f}..{sst[wet].max():.1f} C | "
              f"ice {model.ice.total_area() / 1e12:.2f} Mkm^2")
        print(f"throughput: {model.sypd():.1f} SYPD on this machine")
        if args.coupler_cache or args.prune_fields:
            creport = model.coupler_report()
            if model.coupler_cache is not None:
                cs = creport["cache"]
                print(f"coupler cache: {cs['hits']:.0f} hit(s), "
                      f"{cs['misses']:.0f} miss(es), "
                      f"{cs['build_time_saved_s'] * 1e3:.2f} ms of "
                      f"Router/GSMap construction skipped")
                for name, counts in creport["plans"].items():
                    print(f"plan {name}: {counts['coalesced_messages_per_edge']:.0f} "
                          f"message/edge coalesced from "
                          f"{counts['per_field_messages_per_edge']:.0f} "
                          f"({counts['message_reduction']:.0f}x fewer)")
            if args.prune_fields:
                for path, t in creport["exchange"].items():
                    if t["fields_pruned"]:
                        print(f"pruned {path}: {t['fields_pruned']:.0f} field "
                              f"slot(s) ({t['bytes_saved'] / 1e6:.2f} MB) "
                              f"never exchanged")
    return 0


def _cmd_run_ensemble(args: argparse.Namespace) -> int:
    from repro.esm import EnsembleConfig, EnsembleRun

    config = EnsembleConfig(
        base=_coupled_config(
            args, resilience=_resilience_config(args, guard_physics=False)
        ),
        members=args.members,
        perturb_seed=args.perturb_seed,
        perturb_amplitude=args.perturb_amplitude,
        batch_physics=args.batch_physics,
        fault_plan=_fault_plan(args),
    )
    with _session(args, EnsembleRun, config,
                  "restarts written to {}/member<k>/") as ens:
        couplings = max(1, round(args.days * 86400.0 / ens.members[0].dt_couple))
        mode = "batched" if args.batch_physics else "per-member"
        print(f"running {args.members} member(s) for {args.days:g} coupled "
              f"day(s) ({couplings} coupling(s), {mode} physics, "
              f"{args.precision} storage, {args.backend} backend)...")
        ens.run_couplings(couplings)
        summary = ens.summary()
        for row in summary["members"]:
            print(f"member {row['member']:.0f}: {row['sypd']:.1f} SYPD "
                  f"({row['couplings']:.0f} coupling(s), "
                  f"{row['wall_s']:.2f} s wall)")
        sy = summary["sypd"]
        print(f"ensemble SYPD: mean {sy['mean']:.1f}, min {sy['min']:.1f}, "
              f"max {sy['max']:.1f}, spread {sy['spread']:.1f}")
        print(f"member spread: bottom-level T sigma "
              f"{summary['spread']['t_bot']:.2e} K")
        bp = summary.get("batched_physics")
        if bp is not None:
            print(f"batched physics: {bp['fleet_calls']} fleet call(s) served "
                  f"{bp['columns_total']} member-columns over "
                  f"{bp['fleet_steps']} lockstep step(s)")
        sup = summary.get("supervisor")
        if sup is not None:
            for ev in sup["events"]:
                extra = ""
                if ev["action"] == "restart":
                    extra = (f" (replayed {ev['replayed_couplings']} "
                             f"coupling(s))")
                print(f"member {ev['member']} {ev['kind']} at coupling "
                      f"{ev['coupling']} -> {ev['action']}{extra}")
            print(f"fleet: {sup['alive']:.0f}/{sup['members_total']:.0f} "
                  f"member(s) alive under '{sup['policy']}' "
                  f"({sup['restarts']:.0f} restart(s), "
                  f"{sup['quarantines']:.0f} quarantine(s), "
                  f"{sup['escalations']:.0f} escalation(s))")
            if sup["quarantined"]:
                print(f"degraded fleet SYPD (surviving members): "
                      f"{sup['sypd_degraded']:.1f}")
    return 0


def _cmd_typhoon(args: argparse.Namespace) -> int:
    from repro.esm import AP3ESM, HollandVortex, TyphoonExperiment

    model = AP3ESM(_coupled_config(args))
    model.init()
    vortex = HollandVortex(
        center_lon=math.radians(150.0), center_lat=math.radians(20.0),
        v_max=args.vmax, r_max=args.rmax_km * 1000.0,
    )
    exp = TyphoonExperiment(model, vortex)
    exp.run(args.hours)
    for fix in exp.tracker.fixes[:: max(1, args.hours // 6)]:
        print(f"+{fix.time / 3600:5.1f} h  ({math.degrees(fix.lon):6.1f} E, "
              f"{math.degrees(fix.lat):5.1f} N)  Vmax {fix.max_wind:5.1f} m/s")
    em = exp.eye_metrics()
    print(f"eye radius {em['eye_radius_km']:.0f} km | "
          f"max wind {em['max_wind']:.1f} m/s | "
          f"Ro p95 {em['rossby_p95']:.2e}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.bench import (
        STRONG_SCALING_CURVES,
        coupled_curve,
        evaluate_curve,
        format_curve_result,
    )

    if args.curve is not None and args.curve not in STRONG_SCALING_CURVES:
        print(f"unknown curve {args.curve!r}; choose from "
              f"{sorted(STRONG_SCALING_CURVES)}", file=sys.stderr)
        return 2
    for key in [args.curve] if args.curve is not None else STRONG_SCALING_CURVES:
        curve = STRONG_SCALING_CURVES[key]
        result = (coupled_curve(curve.resolution_label)
                  if curve.component == "coupled" else evaluate_curve(curve))
        print(format_curve_result(result))
    return 0


def _cmd_train_ai(args: argparse.Namespace) -> int:
    from repro.atm import (
        AIPhysicsSuite,
        GristConfig,
        GristModel,
        harvest_archive_from_model,
    )

    host = GristModel(GristConfig(level=3, nlev=10))
    host.init()
    print(f"harvesting {args.days} days of training data from the model...")
    archive = harvest_archive_from_model(host, n_days=args.days)
    suite = AIPhysicsSuite.train(archive, epochs=args.epochs, width=args.width)
    idx = np.arange(len(archive["x_column"]))
    skill = suite.skill(archive, idx)
    per = ", ".join(f"{k.split('.')[1]} {v:.2f}" for k, v in skill.items() if "." in k)
    print(f"trained: tendency R^2 {skill['tendency']:.2f}, "
          f"radiation R^2 {skill['radiation']:.2f} (per channel: {per}), "
          f"CNN params {suite.tendency_trainer.model.n_params:,}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.machine.calibration import (
        CalibrationError,
        CalibrationTable,
        calibrate,
        drift_report,
        measure_probes,
    )

    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        raise SystemExit(f"--sizes expects comma-separated ints, got {args.sizes!r}")
    try:
        if args.check:
            table = CalibrationTable.from_file(args.check)
            measurements = measure_probes(sizes=sizes, repeats=args.repeats)
            report = drift_report(
                table, measurements, tolerance=args.drift_tolerance
            )
            print(report.report())
            return 0 if report.ok else 1
        table = calibrate(sizes=sizes, repeats=args.repeats)
    except CalibrationError as exc:
        raise SystemExit(f"calibration failed: {exc}") from None
    print(table.report())
    path = table.to_file(args.out)
    print(f"calibration table {table.table_id[:12]} -> {path}")
    return 0


def _coerce_delta_value(value: str):
    """KEY=VAL values arrive as strings; coerce the obvious scalars so
    ``--delta ocn_nlon=32`` really overrides an int field."""
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _parse_delta(pairs) -> dict:
    delta = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--delta expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        delta[key] = _coerce_delta_value(value)
    return delta


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import JobSpec, JobStore

    try:
        spec = JobSpec(
            job_id=args.job_id,
            couplings=args.couplings,
            config_delta=_parse_delta(args.delta),
            members=args.members,
            perturb_seed=args.perturb_seed,
            perturb_amplitude=args.perturb_amplitude,
            batch_physics=args.batch_physics,
            max_attempts=args.max_attempts,
            deadline_s=args.deadline_s,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid job spec: {exc}") from None
    with JobStore(args.store) as store:
        store.submit(spec)
        counts = store.counts()
    print(f"job {spec.job_id!r} queued ({spec.couplings} coupling(s), "
          f"{spec.members} member(s), "
          f"{len(spec.config_delta)} delta field(s))")
    print("store: " + ", ".join(
        f"{n} {state}" for state, n in sorted(counts.items())
    ))
    return 0


def _cmd_run_jobs(args: argparse.Namespace) -> int:
    from repro.serve import JobScheduler, JobStore, ServeConfig

    try:
        config = ServeConfig(
            workers=args.workers,
            max_queue=args.max_queue,
            heartbeat_timeout_s=args.heartbeat_timeout_s,
            checkpoint_every=args.checkpoint_every,
            checkpoint_keep=args.checkpoint_keep,
            mode="threads" if args.threads else "inline",
        )
    except ValueError as exc:
        raise SystemExit(f"invalid service config: {exc}") from None

    def stream(ev: dict) -> None:
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(ev.items())
            if k not in ("kind", "job_id") and v is not None
        )
        print(f"[{ev['kind']}] {ev['job_id']}" + (f" ({detail})" if detail else ""))

    with JobStore(args.store) as store:
        sched = JobScheduler(
            store, _coupled_config(args), args.work_dir, config,
            fault_plan=_fault_plan(args), on_event=stream,
        )
        recovered = sched.recover()
        if recovered["requeued"]:
            print(f"recovered: requeued {recovered['requeued']} job(s) a "
                  "previous service left running")
        if config.mode == "threads":
            sched.start()
            counts = sched.join()
        else:
            counts = sched.run_until_idle()
        rep = sched.report()
    print("final: " + (", ".join(
        f"{n} {state}" for state, n in sorted(counts.items())
    ) or "empty store"))
    for job_id, row in rep["jobs"].items():
        line = (f"  {job_id}: {row['state']} "
                f"({row['attempts']} attempt(s), {row['failures']} failure(s))")
        if row["error"] and row["state"] != "completed":
            line += f" — {row['error']}"
        print(line)
    bad = counts.get("failed", 0) + counts.get("quarantined", 0)
    return 1 if bad else 0


#: name -> (help, argument adders, handler): the one command table.
_COMMANDS = {
    "info": ("library and configuration summary", (), _cmd_info),
    # run-coupled / run-ensemble group titles and membership are snapshot-
    # tested by parser introspection: keep them stable.
    "run-coupled": (
        "run the coupled model",
        (_add_core_group, _add_precision_group, _add_resilience_group,
         _add_coupler_group, _add_obs_group),
        _cmd_run_coupled,
    ),
    "run-ensemble": (
        "run N perturbed coupled members in lockstep (one process)",
        (_add_core_group, _add_ensemble_group, _add_supervisor_group,
         _add_precision_group, _add_coupler_group, _add_obs_group),
        _cmd_run_ensemble,
    ),
    "typhoon": ("idealized typhoon experiment", (_add_typhoon_args,),
                _cmd_typhoon),
    "scaling": ("Table 2 / Fig. 8a tables", (_add_scaling_args,), _cmd_scaling),
    "train-ai": ("train the AI physics suite", (_add_train_ai_args,),
                 _cmd_train_ai),
    "calibrate": ("fit machine-model cost terms from measured probe kernels",
                  (_add_calibration_group,), _cmd_calibrate),
    "submit": ("journal one scenario job into a durable job store",
               (_add_store_group, _add_job_spec_group), _cmd_submit),
    "run-jobs": ("drive a job store's queue with the crash-safe service",
                 (_add_store_group, _add_scheduler_group,
                  _add_base_model_group),
                 _cmd_run_jobs),
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _, _, handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
