"""A simulated MPI runtime executed with threads.

The paper runs on up to 37.2 million MPI ranks.  This library splits that
concern in two: *functional* parallel semantics are validated here with a
real SPMD runtime (each rank is a thread; messages really move between
ranks), while *performance at scale* is predicted by the analytic machine
model in :mod:`repro.machine`, fed by the exact message counts/sizes this
runtime records in its :class:`TrafficLedger`.

The API deliberately mirrors mpi4py (``send/recv/isend/irecv``,
``bcast/scatter/gather/allgather/allreduce/alltoall/barrier``), so the
component code reads like ordinary MPI code.

Example
-------
>>> from repro.parallel import SimWorld
>>> def program(comm):
...     import numpy as np
...     x = np.array([float(comm.rank)])
...     return comm.allreduce(x, op="sum")[0]
>>> SimWorld(4).run(program)
[6.0, 6.0, 6.0, 6.0]
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..utils import pairwise_tree

__all__ = [
    "SimWorld",
    "SimComm",
    "Request",
    "TrafficLedger",
    "CollectiveCost",
    "CommTransientError",
    "CommTimeoutError",
    "CommRevokedError",
    "RankFailure",
    "ElasticOutcome",
]

ANY_TAG = -1


class CommTransientError(RuntimeError):
    """A send failed transiently (injected link glitch); retrying the same
    send may succeed.  Carries the offending (src, dst, tag) edge."""

    def __init__(self, src: int, dst: int, tag: int, attempt: int = 0) -> None:
        super().__init__(
            f"transient send failure src={src} dst={dst} tag={tag}"
            f" (attempt {attempt})"
        )
        self.src, self.dst, self.tag, self.attempt = src, dst, tag, attempt


class CommTimeoutError(TimeoutError):
    """A receive timed out — the structured form of the runtime's
    deadlock guard, naming the offending (src, dst, tag) so a dead or
    hung peer is diagnosable instead of an anonymous hang."""

    def __init__(self, src: Optional[int], dst: int, tag: int, timeout: float) -> None:
        super().__init__(
            f"recv on rank {dst} from src={'any' if src is None else src} "
            f"tag={tag} timed out after {timeout}s (dead or hung peer?)"
        )
        self.src, self.dst, self.tag, self.timeout = src, dst, tag, timeout


class RankFailure(RuntimeError):
    """A rank was killed by the fault plan (simulated node failure)."""

    def __init__(self, rank: int, op: str) -> None:
        super().__init__(f"rank {rank} killed by fault plan during {op}")
        self.rank, self.op = rank, op


class CommRevokedError(RuntimeError):
    """The communicator was revoked after a rank failure (the ULFM
    ``MPI_Comm_revoke`` analogue): once a death is known, every further
    operation on the world raises this, so survivors reach the recovery
    path promptly and consistently instead of timing out one by one.
    Carries the raising rank and the dead set as agreed at revoke time."""

    def __init__(self, rank: int, dead) -> None:
        dead = tuple(sorted(dead))
        super().__init__(
            f"communicator revoked on rank {rank}: dead rank(s) {list(dead)}"
        )
        self.rank = rank
        self.dead = dead


@dataclass
class ElasticOutcome:
    """What an elastic run produced: per-rank results for ranks that ran
    to completion, plus the agreed set of dead ranks and the survivors
    whose work was interrupted by the revocation.

    ``results[r]`` is ``None`` for dead and interrupted ranks.  The
    driver decides what to do next — typically ``SimWorld.shrink`` or
    ``SimWorld.promote_spares`` followed by re-decomposition and a
    restore/replay from the last checkpoint.
    """

    results: List[Any]
    dead: Tuple[int, ...]
    interrupted: Tuple[int, ...]

    @property
    def failed(self) -> bool:
        return len(self.dead) > 0


@dataclass
class CollectiveCost:
    """Analytic message accounting for one collective call.

    ``messages`` and ``bytes`` follow the standard algorithm models
    (binomial-tree broadcast/reduce, recursive-doubling allreduce, pairwise
    alltoall); the machine model converts them to time.
    """

    op: str
    n_ranks: int
    messages: int
    bytes: int


class TrafficLedger:
    """Thread-safe record of every message the simulated world moved.

    Point-to-point traffic is recorded per (src, dst) edge, which lets the
    coupler benchmarks compare the all-to-all and non-blocking
    point-to-point rearrangers on real traffic matrices, and lets the
    topology module estimate fat-tree congestion.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.p2p_messages = 0
        self.p2p_bytes = 0
        self.edges: Dict[Tuple[int, int], int] = {}
        self.collectives: List[CollectiveCost] = []

    def record_p2p(self, src: int, dst: int, nbytes: int) -> None:
        with self._lock:
            self.p2p_messages += 1
            self.p2p_bytes += nbytes
            self.edges[(src, dst)] = self.edges.get((src, dst), 0) + nbytes

    def record_collective(self, cost: CollectiveCost) -> None:
        with self._lock:
            self.collectives.append(cost)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self.p2p_bytes + sum(c.bytes for c in self.collectives)

    @property
    def total_messages(self) -> int:
        with self._lock:
            return self.p2p_messages + sum(c.messages for c in self.collectives)

    def traffic_matrix(self, n_ranks: int) -> np.ndarray:
        """Dense (n_ranks, n_ranks) byte matrix of point-to-point traffic."""
        mat = np.zeros((n_ranks, n_ranks), dtype=np.int64)
        with self._lock:
            for (src, dst), nbytes in self.edges.items():
                mat[src, dst] += nbytes
        return mat


def _payload_nbytes(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (int, float, complex, bool)):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(_payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_payload_nbytes(k) + _payload_nbytes(v) for k, v in obj.items())
    return 64  # opaque Python object: nominal envelope size


def _copy_payload(obj: Any) -> Any:
    """Value semantics for sends, like MPI buffer copies."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, list):
        return [_copy_payload(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_copy_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return obj


def _match(inbox: deque, src: Optional[int], tag: int, take: bool = True):
    """First message in ``inbox`` from ``src`` (None: any) with ``tag``."""
    for i, msg in enumerate(inbox):
        if (src is None or msg[0] == src) and (tag == ANY_TAG or msg[1] == tag):
            if take:
                del inbox[i]
            return msg
    return None


class Request:
    """Handle for a non-blocking operation (like ``MPI.Request``)."""

    def __init__(self, fn: Callable[[], Any], eager: bool = False) -> None:
        self._fn = fn
        self._done = False
        self._result: Any = None
        if eager:
            self.wait()

    def test(self) -> bool:
        return self._done

    def wait(self) -> Any:
        if not self._done:
            self._result = self._fn()
            self._done = True
        return self._result

    @staticmethod
    def waitall(requests: Sequence["Request"]) -> List[Any]:
        return [r.wait() for r in requests]


class _Rendezvous:
    """One communicator's collective primitive: a barrier over its ranks,
    one slot per rank, and the communicator's p2p tag space."""

    def __init__(self, size: int, tag_offset: int) -> None:
        self.barrier = threading.Barrier(size)
        self.tag_offset = tag_offset
        self._slots: List[Any] = [None] * size

    def exchange(self, rank: int, value: Any) -> List[Any]:
        """Every rank deposits a value; every rank gets the full list.
        Two barriers bracket the read, so the next collective cannot
        overwrite a slot before every rank has copied this one."""
        self._slots[rank] = value
        self.barrier.wait()
        values = list(self._slots)
        self.barrier.wait()
        return values


class _WorldState:
    """Shared state for a set of ranks: one mailbox per rank, ledger,
    fault injector, revocation, and every communicator's rendezvous."""

    def __init__(self, n_ranks: int, timeout: float, faults: Any = None) -> None:
        self.n_ranks = n_ranks
        self.timeout = timeout
        # Opt-in fault injector (e.g. repro.resilience.CommFaultInjector);
        # None keeps the hot path to a single branch per send/recv.
        self.faults = faults
        # Mailbox = a condition variable over a deque of (src, tag, payload).
        self.mailboxes = [(threading.Condition(), deque()) for _ in range(n_ranks)]
        self.ledger = TrafficLedger()
        # Revocation state (elastic runs): once a rank dies, the world is
        # revoked and every further comm op raises CommRevokedError.
        self.revoked = False
        self.dead: set = set()
        self._lock = threading.Lock()
        self._rendezvous: Dict[str, _Rendezvous] = {}
        self.rendezvous("world", n_ranks)

    def rendezvous(self, name: str, size: int) -> _Rendezvous:
        """Communicator ``name``'s rendezvous, made by the first member to
        ask; its place in the registry gives it a tag space of its own."""
        with self._lock:
            rv = self._rendezvous.get(name)
            if rv is None:
                rv = self._rendezvous[name] = _Rendezvous(size, len(self._rendezvous) << 20)
            return rv

    def break_barriers(self) -> None:
        """Abort every communicator's barrier so no rank waits in a
        collective that can no longer complete.  (A rank that fails has
        already made the rendezvous of every communicator it belongs to.)"""
        with self._lock:
            for rv in self._rendezvous.values():
                rv.barrier.abort()

    def revoke(self, dead_rank: int) -> None:
        """Record a death and revoke the world: break every barrier and
        wake every blocked receiver so survivors surface
        :class:`CommRevokedError` promptly instead of timing out."""
        with self._lock:
            self.dead.add(dead_rank)
            self.revoked = True
        self.break_barriers()
        for cond, _ in self.mailboxes:
            with cond:
                cond.notify_all()

    def check_revoked(self, rank: int) -> None:
        if self.revoked:
            with self._lock:
                raise CommRevokedError(rank, self.dead)

    def post(self, src: int, dst: int, tag: int, payload: Any) -> None:
        cond, inbox = self.mailboxes[dst]
        with cond:
            inbox.append((src, tag, payload))
            cond.notify_all()

    def take(self, rank: int, src: Optional[int], tag: int, timeout: float) -> Any:
        """Blocking matched receive into ``rank``'s mailbox.  Every wake-up
        re-checks revocation, so receivers blocked on a dead peer are freed."""
        deadline = None if timeout is None else (threading.TIMEOUT_MAX if timeout < 0 else timeout)
        cond, inbox = self.mailboxes[rank]
        with cond:
            self.check_revoked(rank)
            found = _match(inbox, src, tag)
            while found is None:
                if not cond.wait(timeout=deadline):
                    raise CommTimeoutError(src, rank, tag, timeout)
                self.check_revoked(rank)
                found = _match(inbox, src, tag)
            return found[2]

    def probe(self, rank: int, src: Optional[int], tag: int) -> bool:
        cond, inbox = self.mailboxes[rank]
        with cond:
            return _match(inbox, src, tag, take=False) is not None


class SimComm:
    """Per-rank communicator handle (the analogue of an ``MPI.Comm``).

    The world and every :meth:`split` of it are this one class over the
    same world state: ``world_ranks`` maps group ranks to world ranks
    (identity for the world).  P2p translates rank and tag into the world
    mailboxes; collectives run on the communicator's own rendezvous.
    """

    def __init__(
        self,
        world: _WorldState,
        rank: int,
        world_ranks: Optional[Sequence[int]] = None,
        name: str = "world",
    ) -> None:
        self._world = world
        self._world_ranks = range(world.n_ranks) if world_ranks is None else world_ranks
        self.rank = rank
        self.size = len(self._world_ranks)
        self._me = self._world_ranks[rank]
        self._name = name
        self._rv = world.rendezvous(name, self.size)
        self._n_splits = 0

    # -- point to point ------------------------------------------------

    def _to_world(self, rank: Optional[int], tag: int) -> Tuple[Optional[int], int]:
        return (
            None if rank is None else self._world_ranks[rank],
            tag if tag == ANY_TAG else tag + self._rv.tag_offset,
        )

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send with value semantics.

        With a fault injector installed on the world, the injector may
        raise (:class:`CommTransientError`, :class:`RankFailure`), corrupt
        the payload, or drop the message (by returning ``None``) before
        anything is delivered or recorded in the ledger.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for size {self.size}")
        world = self._world
        if world.revoked:
            world.check_revoked(self._me)
        dest, tag = self._to_world(dest, tag)
        payload = _copy_payload(obj)
        if world.faults is not None:
            payload = world.faults.on_send(self._me, dest, tag, payload)
            if payload is None:  # dropped on the wire
                return
        world.ledger.record_p2p(self._me, dest, _payload_nbytes(payload))
        world.post(self._me, dest, tag, payload)

    def recv(
        self,
        source: Optional[int] = None,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> Any:
        """Blocking receive; ``source=None`` means any source.

        ``timeout`` overrides the world's default deadlock guard for this
        call; expiry raises :class:`CommTimeoutError` naming the edge.
        """
        world = self._world
        source, tag = self._to_world(source, tag)
        if world.faults is not None:
            world.faults.on_recv(self._me, source, tag)
        return world.take(self._me, source, tag, world.timeout if timeout is None else timeout)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        # Buffered semantics: the copy happens immediately, delivery too —
        # the Request exists so caller code matches real non-blocking MPI.
        self.send(obj, dest, tag)
        return Request(lambda: None, eager=True)

    def irecv(
        self,
        source: Optional[int] = None,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> Request:
        return Request(lambda: self.recv(source, tag, timeout=timeout))

    def sendrecv(
        self, obj: Any, dest: int, source: Optional[int] = None,
        sendtag: int = 0, recvtag: int = ANY_TAG,
    ) -> Any:
        req = self.isend(obj, dest, sendtag)
        out = self.recv(source, recvtag)
        req.wait()
        return out

    def probe(self, source: Optional[int] = None, tag: int = ANY_TAG) -> bool:
        return self._world.probe(self._me, *self._to_world(source, tag))

    # -- collectives -----------------------------------------------------

    def _exchange(self, value: Any) -> List[Any]:
        """Every rank of this communicator deposits ``value``; all get the list."""
        self._world.check_revoked(self._me)
        try:
            return self._rv.exchange(self.rank, value)
        except threading.BrokenBarrierError:
            # A revoked world breaks every barrier by design; translate to
            # the structured error so survivors reach the recovery path.
            self._world.check_revoked(self._me)
            raise

    @property
    def _tree_depth(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.size))))

    def barrier(self) -> None:
        self._exchange(None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        payload = self._exchange(obj if self.rank == root else None)[root]
        if self.rank == root:
            nbytes = _payload_nbytes(payload)
            self._world.ledger.record_collective(
                CollectiveCost("bcast", self.size, self.size - 1, nbytes * self._tree_depth)
            )
            return payload
        return _copy_payload(payload)

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("root must supply one object per rank")
        chunks = self._exchange(objs if self.rank == root else None)[root]
        if self.rank == root:
            total = sum(_payload_nbytes(c) for i, c in enumerate(chunks) if i != root)
            self._world.ledger.record_collective(
                CollectiveCost("scatter", self.size, self.size - 1, total)
            )
            return chunks[root]
        return _copy_payload(chunks[self.rank])

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        values = self._exchange(obj)
        if self.rank == root:
            total = sum(_payload_nbytes(v) for i, v in enumerate(values) if i != root)
            self._world.ledger.record_collective(
                CollectiveCost("gather", self.size, self.size - 1, total)
            )
            return [_copy_payload(v) for v in values]
        return None

    def allgather(self, obj: Any) -> List[Any]:
        values = self._exchange(obj)
        if self.rank == 0:
            per = _payload_nbytes(obj)
            self._world.ledger.record_collective(
                CollectiveCost("allgather", self.size, self.size * (self.size - 1), per * (self.size - 1))
            )
        return [_copy_payload(v) for v in values]

    _OPS: Dict[str, Callable] = {
        "sum": lambda a, b: a + b,
        "max": np.maximum,
        "min": np.minimum,
        "prod": lambda a, b: a * b,
    }

    def _combine(self, values: List[Any], op: str) -> Any:
        """A fixed-order pairwise tree over copied payloads: the same bits
        whatever order the rank threads arrive in."""
        return pairwise_tree([_copy_payload(v) for v in values], self._OPS[op])

    def _check_op(self, op: str) -> None:
        """Every rank rejects an unknown op before any exchange."""
        if op not in self._OPS:
            raise ValueError(f"unknown reduce op {op!r}; choose from {sorted(self._OPS)}")

    def reduce(self, obj: Any, op: str = "sum", root: int = 0) -> Any:
        self._check_op(op)
        values = self._exchange(obj)
        if self.rank == root:
            nbytes = _payload_nbytes(obj)
            self._world.ledger.record_collective(
                CollectiveCost(f"reduce-{op}", self.size, self.size - 1, nbytes * self._tree_depth)
            )
            return self._combine(values, op)
        return None

    def allreduce(self, obj: Any, op: str = "sum") -> Any:
        self._check_op(op)
        result = self._combine(self._exchange(obj), op)
        if self.rank == 0:
            nbytes = _payload_nbytes(obj)
            depth = self._tree_depth
            # Recursive doubling: log2(P) rounds, one message each way/rank.
            self._world.ledger.record_collective(
                CollectiveCost(f"allreduce-{op}", self.size, self.size * depth, nbytes * self.size * depth)
            )
        return _copy_payload(result)

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        """Each rank supplies one object per destination rank."""
        if len(objs) != self.size:
            raise ValueError("alltoall needs exactly one object per rank")
        values = self._exchange(list(objs))
        out = [_copy_payload(values[src][self.rank]) for src in range(self.size)]
        off_diag = sum(_payload_nbytes(o) for i, o in enumerate(objs) if i != self.rank)
        self._world.ledger.record_collective(
            CollectiveCost("alltoall", self.size, self.size - 1, off_diag)
        )
        return out

    def split(self, color: int, key: Optional[int] = None) -> "SimComm":
        """Partition the communicator by color (like ``MPI_Comm_split``);
        ranks are ordered by ``key``, ties by rank in this communicator.

        The child is a :class:`SimComm` over the same world.  It is named
        after this call (``<parent>/split:<seq>/c<color>``), so every
        split — repeated or nested — has its own rendezvous and tag space.
        """
        key = self.rank if key is None else key
        self._n_splits += 1
        entries = self._exchange((color, key))
        members = sorted((k, r) for r, (c, k) in enumerate(entries) if c == color)
        world_ranks = [self._world_ranks[r] for _, r in members]
        name = f"{self._name}/split:{self._n_splits}/c{color}"
        return SimComm(self._world, world_ranks.index(self._me), world_ranks, name)

    # -- accounting ------------------------------------------------------

    @property
    def ledger(self) -> TrafficLedger:
        return self._world.ledger


#: What a failure does to its peers, as opposed to a failure of their own.
_COLLATERAL = (threading.BrokenBarrierError, TimeoutError, CommRevokedError)


def _root_causes(errors: List[Tuple[int, BaseException]]) -> List[Tuple[int, BaseException]]:
    return [e for e in errors if not isinstance(e[1], _COLLATERAL)]


def _raise_first(failures: List[Tuple[int, BaseException]]) -> None:
    if failures:
        rank, exc = failures[0]
        raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc


class SimWorld:
    """Launches an SPMD program over ``n_ranks`` simulated MPI ranks.

    Parameters
    ----------
    n_ranks:
        Number of ranks (threads). Functional tests typically use 2–64.
    timeout:
        Seconds a blocking receive may wait before declaring deadlock.
    faults:
        Optional fault injector (``on_send(src, dst, tag, payload)`` /
        ``on_recv(rank, source, tag)`` protocol, e.g.
        :class:`repro.resilience.CommFaultInjector`).  ``None`` (the
        default) keeps every send/recv at one extra branch.
    n_spares:
        Pre-allocated idle ranks (``RecoveryPolicy.spare``).  Spares do
        not run the program; :meth:`promote_spares` fills dead slots with
        them so the decomposition — and therefore the continuation — is
        unchanged relative to a fault-free twin.
    """

    def __init__(
        self,
        n_ranks: int,
        timeout: float = 30.0,
        faults: Any = None,
        n_spares: int = 0,
        parent_ranks: Optional[Sequence[int]] = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if n_spares < 0:
            raise ValueError("n_spares must be >= 0")
        self.n_ranks = n_ranks
        self.n_spares = n_spares
        # Identity of each slot in the *original* world's numbering: after
        # shrink/promote the dense ranks 0..n-1 map back to these ids, so
        # per-rank artifacts (checkpoint subfiles, fault-plan entries)
        # remain addressable across repairs.
        self.parent_ranks: Tuple[int, ...] = (
            tuple(parent_ranks) if parent_ranks is not None else tuple(range(n_ranks))
        )
        if len(self.parent_ranks) != n_ranks:
            raise ValueError("parent_ranks must have one entry per rank")
        self._spare_ids: Tuple[int, ...] = tuple(
            range(max(self.parent_ranks, default=-1) + 1,
                  max(self.parent_ranks, default=-1) + 1 + n_spares)
        )
        self._timeout = timeout
        self._faults = faults
        self._state: Optional[_WorldState] = None

    @property
    def ledger(self) -> TrafficLedger:
        if self._state is None:
            raise RuntimeError("world has not run yet")
        return self._state.ledger

    def _launch(self, fn: Callable[..., Any], args: tuple, kwargs: dict):
        """Run ``fn(comm, *args, **kwargs)`` on one thread per rank and
        join them all.  Returns ``(results, deaths, errors)``, the last two
        as rank-sorted ``(rank, exception)`` lists.

        A :class:`RankFailure` revokes the world (the ``MPI_Comm_revoke``
        analogue): every barrier breaks and blocked receivers wake, so
        survivors raise :class:`CommRevokedError` promptly instead of
        timing out one by one.  Any other exception breaks every barrier,
        so no peer waits on a collective the failed rank will never join.
        """
        state = _WorldState(self.n_ranks, self._timeout, faults=self._faults)
        self._state = state
        results: List[Any] = [None] * self.n_ranks
        deaths: List[Tuple[int, BaseException]] = []
        errors: List[Tuple[int, BaseException]] = []
        lock = threading.Lock()

        def worker(rank: int) -> None:
            try:
                results[rank] = fn(SimComm(state, rank), *args, **kwargs)
            except RankFailure as exc:
                with lock:
                    deaths.append((rank, exc))
                state.revoke(rank)
            except BaseException as exc:  # noqa: BLE001 - propagate to caller
                with lock:
                    errors.append((rank, exc))
                state.break_barriers()

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"simrank-{r}", daemon=True)
            for r in range(self.n_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # One entry per rank at most, so tuples sort by rank alone.
        return results, sorted(deaths), sorted(errors)

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; return results.

        A failure is re-raised in the caller after all threads have been
        joined, as ``RuntimeError("rank k failed: ...")`` from its root
        cause: the lowest killed rank (whose death revokes the world, so
        peers blocked on it are freed at once), else the lowest rank whose
        error is not collateral (a broken barrier, timeout or revocation).
        """
        results, deaths, errors = self._launch(fn, args, kwargs)
        _raise_first(deaths or _root_causes(errors) or errors)
        return results

    # -- elastic (ULFM-style) runs --------------------------------------

    def run_elastic(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> ElasticOutcome:
        """Run ``fn`` like :meth:`run`, but survive rank deaths.

        A :class:`RankFailure` on any rank revokes the world, so survivors
        raise :class:`CommRevokedError` promptly.  After every thread has
        been joined — the join is the agreement point, playing the role of
        ``MPIX_Comm_agree`` in this threaded runtime — the outcome
        classifies each rank as completed, dead, or interrupted.  An error
        that a death does not explain is re-raised exactly as :meth:`run`
        would.
        """
        results, deaths, errors = self._launch(fn, args, kwargs)
        real = _root_causes(errors)
        _raise_first(real if deaths else real or errors)
        return ElasticOutcome(
            results=results,
            dead=tuple(r for r, _ in deaths),
            interrupted=tuple(r for r, _ in errors),
        )

    def shrink(self, dead: Sequence[int], faults: Any = None) -> "SimWorld":
        """Repaired world with the dead ranks removed and survivors densely
        renumbered in ascending order (the ``MPIX_Comm_shrink`` analogue).

        ``parent_ranks`` of the new world maps each new rank back to its
        identity in the original world, so per-rank checkpoint subfiles
        stay addressable.  ``faults`` optionally installs a new injector
        (the old one's kill entries have already fired).
        """
        dead_set = set(dead)
        if not dead_set:
            raise ValueError("shrink requires at least one dead rank")
        if not dead_set <= set(range(self.n_ranks)):
            raise ValueError(f"dead ranks {sorted(dead_set)} out of range 0..{self.n_ranks - 1}")
        survivors = [r for r in range(self.n_ranks) if r not in dead_set]
        if not survivors:
            raise ValueError("cannot shrink: no survivors")
        new = SimWorld(
            len(survivors),
            timeout=self._timeout,
            faults=faults,
            n_spares=self.n_spares,
            parent_ranks=[self.parent_ranks[r] for r in survivors],
        )
        new._spare_ids = self._spare_ids
        return new

    def promote_spares(self, dead: Sequence[int], faults: Any = None) -> "SimWorld":
        """Repaired world of the *same size*: each dead slot is filled by a
        pre-allocated spare rank, so the decomposition (and therefore the
        continuation) is unchanged relative to a fault-free twin.
        """
        dead_sorted = sorted(set(dead))
        if not dead_sorted:
            raise ValueError("promote_spares requires at least one dead rank")
        if len(dead_sorted) > len(self._spare_ids):
            raise ValueError(
                f"{len(dead_sorted)} dead rank(s) but only "
                f"{len(self._spare_ids)} spare(s) pre-allocated"
            )
        parents = list(self.parent_ranks)
        pool = list(self._spare_ids)
        for r in dead_sorted:
            parents[r] = pool.pop(0)
        new = SimWorld(
            self.n_ranks,
            timeout=self._timeout,
            faults=faults,
            n_spares=len(pool),
            parent_ranks=parents,
        )
        new._spare_ids = tuple(pool)
        return new
