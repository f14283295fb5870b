"""Task-domain scheduling for the coupled driver (§5.1.2).

The paper places the coupled system on two *task domains* — domain 1
hosts the coupler, atmosphere, sea ice, and land; domain 2 hosts the
ocean — and runs them concurrently, with "computational resource
allocation ... adjusted based on the computational profile of each
component".  This module makes that layout an explicit, schedulable
object instead of a comment in the driver:

* :class:`TaskDomain` — a named group of components plus the placement
  rationale;
* :class:`TaskDomainScheduler` — executes domain units inline
  (``execute``) or as launched tasks (``launch``), backed by a
  thread-pool when concurrency is requested and by immediate execution
  otherwise.  Every unit runs under a per-domain ``cpl.domain.<name>``
  span; concurrently-launched domains trace on their own forked obs
  rank because the tracer stack is not thread-safe.

The driver pairs ``launch`` with *lagged* coupling (the launched
domain's export is published at a fixed later coupling, not when the
thread happens to finish), which is what makes the concurrent schedule
bitwise-identical to the serial one.

:data:`PAPER_DOMAINS` / :func:`paper_layout` give the canonical §5.1.2
placement; the machine model's ``CoupledPerfModel.from_layout`` consumes
the same dict shape to price it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import NULL_OBS

__all__ = [
    "TaskDomain",
    "TaskHandle",
    "TaskDomainScheduler",
    "PAPER_DOMAINS",
    "paper_layout",
]


@dataclass(frozen=True)
class TaskDomain:
    """A named group of components scheduled as one unit."""

    name: str
    members: Tuple[str, ...]
    rationale: str = ""


#: The paper's §5.1.2 placement: coupler+atm+ice+lnd vs ocean.
PAPER_DOMAINS: Tuple[TaskDomain, ...] = (
    TaskDomain(
        name="domain1",
        members=("cpl", "atm", "ice", "lnd"),
        rationale="atmosphere dominates cost; coupler co-located "
                  "to minimize exchange; land is tied to the "
                  "atmosphere; ice is cheap",
    ),
    TaskDomain(
        name="domain2",
        members=("ocn",),
        rationale="second-largest cost, runs concurrently",
    ),
)


def paper_layout() -> Dict[str, Dict[str, object]]:
    """The canonical two-domain layout as a plain dict (the shape
    ``AP3ESM.task_domains`` exposes and ``CoupledPerfModel.from_layout``
    consumes)."""
    return _layout(PAPER_DOMAINS)


def _layout(domains: Sequence[TaskDomain]) -> Dict[str, Dict[str, object]]:
    return {
        d.name: {"members": list(d.members), "rationale": d.rationale}
        for d in domains
    }


def _tag_domain(exc: BaseException, name: str) -> None:
    """Stamp an escaping unit exception with the domain it came from, so
    elastic recovery can attribute the failure without guessing.  Never
    overwrites (WatchdogTimeout already names its domain) and never
    raises (slotted exceptions just go untagged)."""
    if getattr(exc, "domain", None) is None:
        try:
            exc.domain = name
        except Exception:
            pass


class TaskHandle:
    """Join handle for a launched domain unit.

    In serial mode the unit already ran — the handle just carries the
    value.  In concurrent mode it wraps the executor future; ``result``
    blocks (and re-raises the unit's exception, if any).  With a
    ``watchdog_s`` budget, a unit that outlives it raises
    :class:`~repro.resilience.errors.WatchdogTimeout` naming the domain —
    a clean diagnostic instead of a deadlocked driver.
    """

    def __init__(
        self,
        value: Any = None,
        future: Any = None,
        name: str = "",
        watchdog_s: Optional[float] = None,
        obs: Any = None,
    ) -> None:
        self._value = value
        self._future = future
        self._name = name
        self._watchdog_s = watchdog_s
        self._obs = obs if obs is not None else NULL_OBS

    def done(self) -> bool:
        return self._future is None or self._future.done()

    def _watchdog_abort(self) -> "None":
        from ..resilience.errors import WatchdogTimeout

        self._obs.counter("resilience.watchdog_aborts").inc()
        raise WatchdogTimeout(self._name or "<task>", self._watchdog_s)

    def wait(self) -> None:
        """Block until the unit finished — pure synchronization.  A unit
        failure is NOT raised here; it surfaces at :meth:`result` (the
        point where the value would have been consumed).  The watchdog,
        however, fires here too: a hung unit is never silently waited
        on."""
        if self._future is not None:
            try:
                self._future.exception(timeout=self._watchdog_s)
            except _FutureTimeout:
                self._watchdog_abort()

    def result(self) -> Any:
        if self._future is not None:
            try:
                return self._future.result(timeout=self._watchdog_s)
            except _FutureTimeout:
                self._watchdog_abort()
        return self._value


class TaskDomainScheduler:
    """Executes task domains serially or concurrently.

    Parameters
    ----------
    domains:
        The task-domain layout (defaults to the paper's two domains).
    obs:
        Observability handle; every domain unit runs under a
        ``cpl.domain.<name>`` span.
    concurrent:
        When True, :meth:`launch` dispatches units to a thread pool and
        each launched domain traces on ``obs.fork(rank)``; when False,
        :meth:`launch` runs the unit immediately on the caller's thread
        (same schedule, zero threading).
    watchdog_s:
        Seconds a launched unit may run before joins on its handle abort
        with :class:`~repro.resilience.errors.WatchdogTimeout` (None =
        wait forever, the pre-resilience behavior).  Only meaningful in
        concurrent mode — serial launches finish before returning.
    """

    def __init__(
        self,
        domains: Sequence[TaskDomain] = PAPER_DOMAINS,
        obs: Any = None,
        concurrent: bool = False,
        watchdog_s: Optional[float] = None,
    ) -> None:
        self.domains: Tuple[TaskDomain, ...] = tuple(domains)
        if not self.domains:
            raise ValueError("need at least one task domain")
        self._by_name = {d.name: d for d in self.domains}
        if len(self._by_name) != len(self.domains):
            raise ValueError("task-domain names must be unique")
        self.obs = obs if obs is not None else NULL_OBS
        self.concurrent = bool(concurrent)
        self.watchdog_s = watchdog_s
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=max(1, len(self.domains) - 1),
                thread_name_prefix="task-domain",
            )
            if self.concurrent
            else None
        )
        self._domain_obs: Dict[str, Any] = {}
        self._outstanding: List[TaskHandle] = []

    # -- layout ------------------------------------------------------------

    def domain(self, name: str) -> TaskDomain:
        return self._by_name[name]

    def layout(self) -> Dict[str, Dict[str, object]]:
        """The layout dict the machine model prices (§5.1.2)."""
        return _layout(self.domains)

    # -- execution ---------------------------------------------------------

    def domain_obs(self, name: str) -> Any:
        """The handle a launched domain traces on — its own forked rank
        when concurrent (the tracer stack is per-thread state), the
        scheduler's handle otherwise."""
        if not self.concurrent:
            return self.obs
        handle = self._domain_obs.get(name)
        if handle is None:
            rank = 1 + [d.name for d in self.domains].index(name)
            handle = self.obs.fork(rank)
            self._domain_obs[name] = handle
        return handle

    @staticmethod
    def _run_unit(domain: TaskDomain, unit: Callable[[Any], Any], obs: Any) -> Any:
        """Run ``unit(obs)`` under the ``cpl.domain.<name>`` span, tagging
        an escaping exception with the domain."""
        with obs.span(f"cpl.domain.{domain.name}"):
            try:
                return unit(obs)
            except BaseException as exc:
                _tag_domain(exc, domain.name)
                raise

    def execute(self, name: str, unit: Callable[[Any], Any]) -> Any:
        """Run ``unit(obs)`` inline under the domain's span."""
        return self._run_unit(self._by_name[name], unit, self.obs)

    def launch(self, name: str, unit: Callable[[Any], Any]) -> TaskHandle:
        """Schedule ``unit(obs)``; returns a join handle.

        Serial mode runs the unit right now on this thread (the caller
        decides when to *consume* the result — that deferral, not the
        execution timing, is what coupling lag means).  Concurrent mode
        submits it to the pool under the domain's forked obs.
        """
        domain = self._by_name[name]
        if self._executor is None:
            return TaskHandle(value=self._run_unit(domain, unit, self.obs), name=domain.name)
        handle = TaskHandle(
            future=self._executor.submit(self._run_unit, domain, unit, self.domain_obs(name)),
            name=domain.name,
            watchdog_s=self.watchdog_s,
            obs=self.obs,
        )
        self._outstanding = [h for h in self._outstanding if not h.done()]
        self._outstanding.append(handle)
        return handle

    def drain(self) -> None:
        """Block until every launched unit has finished."""
        for handle in self._outstanding:
            handle.wait()
        self._outstanding = []

    def reset(self, name: str) -> None:
        """Abandon a failed domain's outstanding work so it can re-enter
        the schedule after elastic recovery.

        Handles belonging to ``name`` are dropped without joining (a unit
        hung on a dead rank would otherwise deadlock the driver or trip
        the watchdog again during recovery); in concurrent mode the
        executor is recycled so an abandoned worker thread cannot block a
        relaunched unit.
        """
        if name not in self._by_name:
            raise KeyError(name)
        self._outstanding = [
            h for h in self._outstanding if h._name != name
        ]
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = ThreadPoolExecutor(
                max_workers=max(1, len(self.domains) - 1),
                thread_name_prefix="task-domain",
            )

    def shutdown(self) -> None:
        """Drain and release the thread pool (idempotent)."""
        self.drain()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
