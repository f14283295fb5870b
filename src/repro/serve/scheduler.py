"""The job scheduler: a supervised worker pool over the durable store.

Responsibilities, each journaled so a SIGKILL at any instant is
recoverable by replay:

* **Admission control** — ``submit`` rejects with
  :class:`~repro.serve.spec.ServeBackpressure` once queued + running
  jobs reach ``max_queue`` (nothing is journaled for a rejected spec).
* **Dispatch** — FIFO over the queued jobs; ``inline`` mode runs one
  attempt at a time on the caller's thread (deterministic — what the
  chaos harness drives), ``threads`` mode fans attempts across
  ``workers`` pool threads.
* **Liveness** — every attempt heartbeats once per coupling through the
  runner's ``tick``; :meth:`reap` requeues any running job whose
  heartbeat is older than ``heartbeat_timeout_s`` and bumps the job's
  attempt *generation*, so a zombie worker's eventual outcome is
  recognized as stale and dropped instead of double-journaling.
* **Interruption vs failure** — a killed worker
  (:class:`~repro.resilience.errors.WorkerKilled`), a reaped attempt, or
  a service crash requeues the job with NO failure penalty; a genuine
  failure (bad config delta, deadline, model error) burns a failure,
  backs off by the seeded :class:`~repro.resilience.retry.RetryPolicy`
  delay, and — at ``max_attempts`` — trips the circuit breaker into
  ``quarantined`` (``failed`` for single-attempt jobs), so a poisoned
  spec cannot starve the fleet.
* **Recovery** — :meth:`recover` (call after constructing a scheduler on
  a replayed store) requeues every job the previous service left
  ``running``; the runner's adoption shortcut then completes — without
  re-running — any job whose atomic publish landed before the crash.

Progress streams through ``on_event`` (one dict per transition) and
accumulates in :attr:`events`; :meth:`report` rolls the run up.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..esm.ap3esm import AP3ESMConfig
from ..obs import NULL_OBS
from ..resilience.errors import WorkerKilled
from ..resilience.faults import FaultPlan, ServiceFaultInjector
from ..resilience.retry import RetryPolicy
from .journal import JobStore
from .runner import JobRunner
from .spec import (
    JobDeadlineExceeded,
    JobSpec,
    ServeBackpressure,
    ServeError,
    ServiceCrash,
)

__all__ = ["ServeConfig", "JobScheduler"]


@dataclass
class ServeConfig:
    """Scheduler policy knobs (the service's half of the contract; the
    per-job half — attempts, deadline — lives on each JobSpec)."""

    #: Pool threads in ``threads`` mode (ignored inline).
    workers: int = 2
    #: Admission limit on queued + running jobs.
    max_queue: int = 64
    #: Heartbeat age past which :meth:`JobScheduler.reap` declares a
    #: running attempt dead and requeues its job.
    heartbeat_timeout_s: float = 30.0
    #: Rotating-checkpoint cadence/keep forced onto every job's config.
    checkpoint_every: int = 2
    checkpoint_keep: int = 3
    #: Backoff schedule between failed attempts (``max_retries`` is NOT
    #: consulted — each spec's ``max_attempts`` is the budget; only
    #: ``delay`` is used, so jitter/cap knobs apply verbatim).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: ``inline`` (deterministic, caller thread) or ``threads``.
    mode: str = "inline"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if self.checkpoint_every < 1 or self.checkpoint_keep < 1:
            raise ValueError("checkpoint_every and checkpoint_keep must be >= 1")
        if self.mode not in ("inline", "threads"):
            raise ValueError(f"unknown mode {self.mode!r}; "
                             "choose from ('inline', 'threads')")


class JobScheduler:
    """Drives the store's queued jobs to a terminal state."""

    def __init__(
        self,
        store: JobStore,
        base_config: Optional[AP3ESMConfig] = None,
        work_dir: Union[str, Path] = "serve-work",
        config: Optional[ServeConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        obs=None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> None:
        self.store = store
        self.config = config if config is not None else ServeConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.runner = JobRunner(
            base_config,
            work_dir,
            checkpoint_every=self.config.checkpoint_every,
            checkpoint_keep=self.config.checkpoint_keep,
            obs=obs,
        )
        self.injector: Optional[ServiceFaultInjector] = None
        if fault_plan is not None and fault_plan.service:
            self.injector = ServiceFaultInjector(fault_plan, obs=obs)
        self._sleep = sleep
        self._clock = clock
        self._on_event = on_event
        self.events: List[Dict[str, object]] = []
        #: Per-job attempt generation; a result only lands if its
        #: generation is still current (reap bumps it).
        self._gen: Dict[str, int] = {}
        #: job_id -> (generation, coupling, heartbeat time).
        self.heartbeats: Dict[str, tuple] = {}
        self._mutex = threading.Lock()
        self._threads: List[threading.Thread] = []

    # -- events ------------------------------------------------------------

    def _event(self, kind: str, job_id: str, **extra: object) -> None:
        ev: Dict[str, object] = {"kind": kind, "job_id": job_id, **extra}
        self.events.append(ev)
        if self._on_event is not None:
            self._on_event(ev)

    # -- admission ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> None:
        """Admit and journal one job, or push back."""
        with self._mutex:
            depth = self.store.depth
            if depth >= self.config.max_queue:
                self.obs.counter("serve.rejected").inc()
                raise ServeBackpressure(spec.job_id, depth, self.config.max_queue)
            self.store.submit(spec)
            self.obs.counter("serve.submitted").inc()
            self.obs.gauge("serve.queue_depth").set(float(self.store.depth))
        self._event("submitted", spec.job_id, couplings=spec.couplings)

    # -- recovery ----------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Requeue every job the previous (killed) service left running.

        Interruptions carry no failure penalty; completed work whose
        publish landed is adopted by the runner on redispatch.  Returns
        ``{"requeued": n}``."""
        requeued = 0
        with self._mutex:
            for rec in list(self.store.jobs.values()):
                if rec.state == "running":
                    self.store.update(rec.spec.job_id, "queued")
                    requeued += 1
                    self.obs.counter("serve.requeued").inc()
        if requeued:
            self._event("recovered", "*", requeued=requeued)
        return {"requeued": requeued}

    # -- liveness ----------------------------------------------------------

    def heartbeat(self, job_id: str, gen: int, coupling: int) -> None:
        with self._mutex:
            self.heartbeats[job_id] = (gen, coupling, self._clock())

    def reap(self, now: Optional[float] = None) -> int:
        """Requeue running jobs whose heartbeat went stale (their worker
        is presumed dead/hung); bumps the generation so the zombie's
        late outcome is dropped.  Returns the number reaped."""
        now = self._clock() if now is None else now
        timeout = self.config.heartbeat_timeout_s
        reaped = 0
        with self._mutex:
            for job_id, rec in self.store.jobs.items():
                if rec.state != "running":
                    continue
                hb = self.heartbeats.get(job_id)
                if hb is None or now - hb[2] <= timeout:
                    continue
                self._gen[job_id] = self._gen.get(job_id, 0) + 1
                self.store.update(job_id, "queued")
                self.heartbeats.pop(job_id, None)
                reaped += 1
                self.obs.counter("serve.reaped").inc()
        if reaped:
            self._event("reaped", "*", reaped=reaped)
        return reaped

    # -- dispatch ----------------------------------------------------------

    def _claim(self) -> Optional[str]:
        """Move the FIFO-next queued job to running; None when idle."""
        with self._mutex:
            queued = self.store.queued_jobs()
            if not queued:
                return None
            rec = queued[0]
            job_id = rec.spec.job_id
            self._gen[job_id] = self._gen.get(job_id, 0) + 1
            self.store.update(job_id, "running", attempts=rec.attempts + 1)
            self.heartbeats[job_id] = (self._gen[job_id], -1, self._clock())
            self.obs.gauge("serve.queue_depth").set(float(self.store.depth))
            self.obs.counter("serve.dispatched").inc()
            return job_id

    def _current(self, job_id: str, gen: int) -> bool:
        with self._mutex:
            return (self._gen.get(job_id) == gen
                    and self.store.jobs[job_id].state == "running")

    def _run_attempt(self, job_id: str) -> None:
        rec = self.store.jobs[job_id]
        spec = rec.spec
        gen = self._gen[job_id]
        started = self._clock()
        self._event("start", job_id, attempt=rec.attempts)

        def tick(coupling: int) -> None:
            self.heartbeat(job_id, gen, coupling)
            if self.injector is not None:
                self.injector.check(job_id, coupling)
            if spec.deadline_s is not None:
                elapsed = self._clock() - started
                if elapsed > spec.deadline_s:
                    raise JobDeadlineExceeded(job_id, spec.deadline_s, elapsed)

        try:
            result = self.runner.run(spec, tick)
        except ServiceCrash:
            raise  # a SIGKILL goes through every layer
        except WorkerKilled as exc:
            self._interrupted(job_id, gen, exc)
        except Exception as exc:  # noqa: BLE001 - every failure mode gates here
            self._failed(job_id, gen, exc)
        else:
            self._completed(job_id, gen, result)

    def _interrupted(self, job_id: str, gen: int, exc: WorkerKilled) -> None:
        if not self._current(job_id, gen):
            return
        with self._mutex:
            self.store.update(job_id, "queued", error=str(exc))
            self.heartbeats.pop(job_id, None)
            self.obs.counter("serve.interruptions").inc()
        self._event("interrupted", job_id, coupling=exc.coupling)

    def _failed(self, job_id: str, gen: int, exc: Exception) -> None:
        if not self._current(job_id, gen):
            return
        spec = self.store.jobs[job_id].spec
        failures = self.store.jobs[job_id].failures + 1
        if failures >= spec.max_attempts:
            # Circuit breaker: the spec is poisoned (or out of budget).
            state = "quarantined" if spec.max_attempts > 1 else "failed"
            with self._mutex:
                self.store.update(job_id, state, failures=failures,
                                  error=str(exc))
                self.heartbeats.pop(job_id, None)
                self.obs.counter(f"serve.{state}").inc()
            self._event(state, job_id, failures=failures, error=str(exc))
            return
        delay = self.config.retry.delay(failures)
        with self._mutex:
            self.store.update(job_id, "queued", failures=failures,
                              error=str(exc))
            self.heartbeats.pop(job_id, None)
            self.obs.counter("serve.retries").inc()
        self._event("retry", job_id, failures=failures, delay_s=delay,
                    error=str(exc))
        if delay > 0:
            self._sleep(delay)

    def _completed(self, job_id: str, gen: int, result: Dict[str, object]) -> None:
        if not self._current(job_id, gen):
            return  # stale attempt (reaped and redispatched elsewhere)
        with self._mutex:
            self.store.update(job_id, "completed", result=result)
            self.heartbeats.pop(job_id, None)
            self.obs.counter("serve.completed").inc()
            self.obs.gauge("serve.queue_depth").set(float(self.store.depth))
        self._event("completed", job_id,
                    adopted=bool(result.get("adopted")),
                    resumed_from=result.get("resumed_from"))

    # -- drive -------------------------------------------------------------

    def run_until_idle(self, max_attempts: Optional[int] = None) -> Dict[str, int]:
        """Inline mode: run attempts one at a time until no job is
        dispatchable (``max_attempts`` bounds runaway retry loops).
        Returns the final state counts."""
        if self.config.mode != "inline":
            raise ServeError("run_until_idle requires mode='inline' "
                             "(use start()/join() for threads)")
        ran = 0
        while True:
            if max_attempts is not None and ran >= max_attempts:
                break
            job_id = self._claim()
            if job_id is None:
                break
            ran += 1
            self._run_attempt(job_id)
        return self.store.counts()

    def start(self) -> None:
        """Threads mode: start the worker pool."""
        if self.config.mode != "threads":
            raise ServeError("start() requires mode='threads'")
        if self._threads:
            raise ServeError("scheduler already started")
        for i in range(self.config.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            self._threads.append(t)
            t.start()

    def _worker_loop(self) -> None:
        while True:
            job_id = self._claim()
            if job_id is None:
                with self._mutex:
                    busy = any(r.state == "running"
                               for r in self.store.jobs.values())
                if not busy:
                    return
                time.sleep(0.01)
                continue
            self._run_attempt(job_id)

    def join(self, reap_every_s: float = 0.05) -> Dict[str, int]:
        """Threads mode: wait for the pool to drain, reaping stale
        heartbeats on the way; returns the final state counts."""
        while any(t.is_alive() for t in self._threads):
            self.reap()
            time.sleep(reap_every_s)
        for t in self._threads:
            t.join()
        self._threads = []
        return self.store.counts()

    # -- reporting ---------------------------------------------------------

    def report(self) -> Dict[str, object]:
        counts = self.store.counts()
        return {
            "counts": counts,
            "jobs": {
                job_id: {
                    "state": rec.state,
                    "attempts": rec.attempts,
                    "failures": rec.failures,
                    "error": rec.error,
                    "result": rec.result,
                }
                for job_id, rec in sorted(self.store.jobs.items())
            },
            "events": list(self.events),
            "journal_records": self.store.appends,
            "faults_injected": (self.injector.injected
                                if self.injector is not None else 0),
        }
