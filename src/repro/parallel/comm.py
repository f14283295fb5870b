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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

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


class _Mailbox:
    """Per-rank inbound message store with condition-variable waiting."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._messages: deque = deque()  # (src, tag, payload)

    def put(self, src: int, tag: int, payload: Any) -> None:
        with self._cond:
            self._messages.append((src, tag, payload))
            self._cond.notify_all()

    def _match(self, src: Optional[int], tag: int):
        for i, (msrc, mtag, payload) in enumerate(self._messages):
            if (src is None or msrc == src) and (tag == ANY_TAG or mtag == tag):
                del self._messages[i]
                return msrc, mtag, payload
        return None

    def get(
        self,
        src: Optional[int],
        tag: int,
        timeout: float,
        abort: Optional[Callable[[], None]] = None,
    ) -> Tuple[int, int, Any]:
        """Blocking matched receive.  ``abort`` (if given) is polled on
        every wake-up and may raise to interrupt the wait — the hook the
        world's revocation uses to free receivers blocked on a dead peer."""
        deadline = None if timeout is None else (threading.TIMEOUT_MAX if timeout < 0 else timeout)
        with self._cond:
            if abort is not None:
                abort()
            found = self._match(src, tag)
            while found is None:
                if not self._cond.wait(timeout=deadline):
                    raise TimeoutError(
                        f"recv(src={src}, tag={tag}) timed out after {timeout}s"
                    )
                if abort is not None:
                    abort()
                found = self._match(src, tag)
            return found

    def interrupt(self) -> None:
        """Wake every blocked getter so it re-polls its abort hook."""
        with self._cond:
            self._cond.notify_all()

    def probe(self, src: Optional[int], tag: int) -> bool:
        with self._cond:
            for msrc, mtag, _ in self._messages:
                if (src is None or msrc == src) and (tag == ANY_TAG or mtag == tag):
                    return True
            return False


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


class _WorldState:
    """Shared state for a set of ranks: mailboxes, rendezvous, ledger."""

    def __init__(self, n_ranks: int, timeout: float, faults: Any = None) -> None:
        self.n_ranks = n_ranks
        self.timeout = timeout
        # Opt-in fault injector (e.g. repro.resilience.CommFaultInjector);
        # None keeps the hot path to a single branch per send/recv.
        self.faults = faults
        self.mailboxes = [_Mailbox() for _ in range(n_ranks)]
        self.ledger = TrafficLedger()
        self.barrier = threading.Barrier(n_ranks)
        self._rendezvous_lock = threading.Lock()
        self._slots: Dict[str, List[Any]] = {}
        # Revocation state (elastic runs): once a rank dies, the world is
        # revoked and every further comm op raises CommRevokedError.
        self.revoked = False
        self.dead: set = set()
        self._death_lock = threading.Lock()

    def revoke(self, dead_rank: int) -> None:
        """Record a death and revoke the world: abort the collective
        barrier and wake every blocked receiver so survivors surface
        :class:`CommRevokedError` promptly instead of timing out."""
        with self._death_lock:
            self.dead.add(dead_rank)
            self.revoked = True
        self.barrier.abort()
        for mb in self.mailboxes:
            mb.interrupt()

    def check_revoked(self, rank: int) -> None:
        if self.revoked:
            with self._death_lock:
                raise CommRevokedError(rank, self.dead)

    def exchange(self, key: str, rank: int, value: Any) -> List[Any]:
        """All ranks deposit a value under ``key``; all get the full list.

        This is the rendezvous primitive on which the collectives are
        built.  Two barriers bracket the slot table so that consecutive
        collectives with the same key cannot race.
        """
        self.check_revoked(rank)
        with self._rendezvous_lock:
            slots = self._slots.setdefault(key, [None] * self.n_ranks)
        slots[rank] = value
        try:
            self.barrier.wait()
            result = list(slots)
            self.barrier.wait()
        except threading.BrokenBarrierError:
            # A revoked world breaks the barrier by design; translate to
            # the structured error so survivors reach the recovery path.
            self.check_revoked(rank)
            raise
        if rank == 0:
            with self._rendezvous_lock:
                self._slots.pop(key, None)
        return result


class SimComm:
    """Per-rank communicator handle (the analogue of an ``MPI.Comm``)."""

    def __init__(self, world: _WorldState, rank: int, color_key: str = "world") -> None:
        self._world = world
        self.rank = rank
        self.size = world.n_ranks
        self._color_key = color_key
        self._coll_seq = 0

    # -- point to point ------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send with value semantics.

        With a fault injector installed on the world, the injector may
        raise (:class:`CommTransientError`, :class:`RankFailure`), corrupt
        the payload, or drop the message (by returning ``None``) before
        anything is delivered or recorded in the ledger.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for size {self.size}")
        if self._world.revoked:
            self._world.check_revoked(self.rank)
        payload = _copy_payload(obj)
        faults = self._world.faults
        if faults is not None:
            payload = faults.on_send(self.rank, dest, tag, payload)
            if payload is None:  # dropped on the wire
                return
        self._world.ledger.record_p2p(self.rank, dest, _payload_nbytes(payload))
        self._world.mailboxes[dest].put(self.rank, tag, payload)

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
        faults = self._world.faults
        if faults is not None:
            faults.on_recv(self.rank, source, tag)
        limit = self._world.timeout if timeout is None else timeout
        try:
            _, _, payload = self._world.mailboxes[self.rank].get(
                source, tag, limit,
                abort=lambda: self._world.check_revoked(self.rank),
            )
        except (CommTimeoutError, CommRevokedError):
            raise
        except TimeoutError:
            raise CommTimeoutError(source, self.rank, tag, limit) from None
        return payload

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
        return self._world.mailboxes[self.rank].probe(source, tag)

    # -- collectives -----------------------------------------------------

    def _key(self, op: str) -> str:
        self._coll_seq += 1
        return f"{self._color_key}:{op}:{self._coll_seq}"

    def barrier(self) -> None:
        self._world.exchange(self._key("barrier"), self.rank, None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        values = self._world.exchange(self._key("bcast"), self.rank, obj if self.rank == root else None)
        payload = values[root]
        if self.rank == root:
            nbytes = _payload_nbytes(payload)
            depth = max(1, math.ceil(math.log2(max(2, self.size))))
            self._world.ledger.record_collective(
                CollectiveCost("bcast", self.size, self.size - 1, nbytes * depth)
            )
            return payload
        return _copy_payload(payload)

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("root must supply one object per rank")
        values = self._world.exchange(self._key("scatter"), self.rank, objs if self.rank == root else None)
        chunks = values[root]
        if self.rank == root:
            total = sum(_payload_nbytes(c) for i, c in enumerate(chunks) if i != root)
            self._world.ledger.record_collective(
                CollectiveCost("scatter", self.size, self.size - 1, total)
            )
            return chunks[root]
        return _copy_payload(chunks[self.rank])

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        values = self._world.exchange(self._key("gather"), self.rank, obj)
        if self.rank == root:
            total = sum(_payload_nbytes(v) for i, v in enumerate(values) if i != root)
            self._world.ledger.record_collective(
                CollectiveCost("gather", self.size, self.size - 1, total)
            )
            return [_copy_payload(v) for v in values]
        return None

    def allgather(self, obj: Any) -> List[Any]:
        values = self._world.exchange(self._key("allgather"), self.rank, obj)
        if self.rank == 0:
            per = _payload_nbytes(obj)
            self._world.ledger.record_collective(
                CollectiveCost("allgather", self.size, self.size * (self.size - 1), per * (self.size - 1))
            )
        return [_copy_payload(v) for v in values]

    _OPS: Dict[str, Callable] = {
        "sum": lambda vals: _tree_reduce(vals, lambda a, b: a + b),
        "max": lambda vals: _tree_reduce(vals, np.maximum),
        "min": lambda vals: _tree_reduce(vals, np.minimum),
        "prod": lambda vals: _tree_reduce(vals, lambda a, b: a * b),
    }

    def _check_op(self, op: str) -> None:
        """Every rank rejects an unknown op before any exchange."""
        if op not in self._OPS:
            raise ValueError(f"unknown reduce op {op!r}; choose from {sorted(self._OPS)}")

    def reduce(self, obj: Any, op: str = "sum", root: int = 0) -> Any:
        self._check_op(op)
        values = self._world.exchange(self._key(f"reduce-{op}"), self.rank, obj)
        if self.rank == root:
            nbytes = _payload_nbytes(obj)
            depth = max(1, math.ceil(math.log2(max(2, self.size))))
            self._world.ledger.record_collective(
                CollectiveCost(f"reduce-{op}", self.size, self.size - 1, nbytes * depth)
            )
            return self._OPS[op](values)
        return None

    def allreduce(self, obj: Any, op: str = "sum") -> Any:
        self._check_op(op)
        values = self._world.exchange(self._key(f"allreduce-{op}"), self.rank, obj)
        result = self._OPS[op](values)
        if self.rank == 0:
            nbytes = _payload_nbytes(obj)
            depth = max(1, math.ceil(math.log2(max(2, self.size))))
            # Recursive doubling: log2(P) rounds, one message each way/rank.
            self._world.ledger.record_collective(
                CollectiveCost(f"allreduce-{op}", self.size, self.size * depth, nbytes * self.size * depth)
            )
        return _copy_payload(result)

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        """Each rank supplies one object per destination rank."""
        if len(objs) != self.size:
            raise ValueError("alltoall needs exactly one object per rank")
        values = self._world.exchange(self._key("alltoall"), self.rank, list(objs))
        out = [_copy_payload(values[src][self.rank]) for src in range(self.size)]
        off_diag = sum(_payload_nbytes(o) for i, o in enumerate(objs) if i != self.rank)
        self._world.ledger.record_collective(
            CollectiveCost("alltoall", self.size, self.size - 1, off_diag)
        )
        return out

    def split(self, color: int, key: Optional[int] = None) -> "SimComm":
        """Partition the communicator by color (like ``MPI_Comm_split``).

        The sub-communicator reuses the parent world's mailboxes via a rank
        translation table, so p2p and collectives stay correct within the
        group.
        """
        key = self.rank if key is None else key
        entries = self._world.exchange(self._key("split"), self.rank, (color, key, self.rank))
        members = sorted(
            (k, wr) for (c, k, wr) in entries if c == color
        )
        world_ranks = [wr for _, wr in members]
        return _SubComm(self._world, world_ranks, self.rank, f"{self._color_key}/c{color}")

    # -- accounting ------------------------------------------------------

    @property
    def ledger(self) -> TrafficLedger:
        return self._world.ledger


class _SubComm(SimComm):
    """Communicator over a subset of world ranks (result of ``split``)."""

    def __init__(self, world: _WorldState, world_ranks: List[int], my_world_rank: int, color_key: str) -> None:
        super().__init__(world, world_ranks.index(my_world_rank), color_key)
        self.size = len(world_ranks)
        self._world_ranks = world_ranks
        # P2p goes through the world communicator — the one path that
        # carries fault injection, the revoked check and the abort
        # wake-up — with group ranks translated to world ranks and tags
        # offset so that subcomm traffic cannot be matched by world-comm
        # receives or by a different split's subcomm (zlib.crc32 is
        # process-stable and identical across ranks for the same color key).
        import zlib

        self._p2p = SimComm(world, my_world_rank)
        self._TAG_OFFSET = ((zlib.crc32(color_key.encode()) % 997) + 1) << 20

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._p2p.send(obj, self._world_ranks[dest], tag + self._TAG_OFFSET)

    def _to_world(self, source: Optional[int], tag: int) -> Tuple[Optional[int], int]:
        return (
            None if source is None else self._world_ranks[source],
            tag if tag == ANY_TAG else tag + self._TAG_OFFSET,
        )

    def recv(
        self,
        source: Optional[int] = None,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> Any:
        return self._p2p.recv(*self._to_world(source, tag), timeout=timeout)

    def probe(self, source: Optional[int] = None, tag: int = ANY_TAG) -> bool:
        return self._p2p.probe(*self._to_world(source, tag))

    # For subcomms we route collectives through gather-to-0 + bcast over p2p.
    def _gather0(self, obj: Any, tag: int) -> Optional[List[Any]]:
        if self.rank == 0:
            out: List[Any] = [None] * self.size
            out[0] = obj
            for _ in range(self.size - 1):
                r, payload = self.recv(tag=tag)
                out[r] = payload
            return out
        self.send((self.rank, obj), 0, tag=tag)
        return None

    def _bcast0(self, obj: Any, tag: int) -> Any:
        if self.rank == 0:
            for dst in range(1, self.size):
                self.send(obj, dst, tag=tag)
            return obj
        return self.recv(source=0, tag=tag)

    def barrier(self) -> None:
        self._gather0((self.rank, None), tag=901)
        self._bcast0(None, tag=902)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        if root != 0:
            # Rotate through rank 0.
            if self.rank == root:
                self.send(obj, 0, tag=903)
            if self.rank == 0:
                obj = self.recv(source=root, tag=903)
        return self._bcast0(obj if self.rank == 0 else None, tag=904)

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        if self.rank == root and (objs is None or len(objs) != self.size):
            raise ValueError("root must supply one object per rank")
        return self.bcast(objs, root=root)[self.rank]

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        gathered = self._gather0(obj, tag=905)
        if root == 0:
            return gathered if self.rank == 0 else None
        if self.rank == 0:
            self.send(gathered, root, tag=906)
            return None
        if self.rank == root:
            return self.recv(source=0, tag=906)
        return None

    def allgather(self, obj: Any) -> List[Any]:
        gathered = self._gather0(obj, tag=907)
        return self._bcast0(gathered, tag=908)

    def allreduce(self, obj: Any, op: str = "sum") -> Any:
        self._check_op(op)
        return self._OPS[op](self.allgather(obj))

    def reduce(self, obj: Any, op: str = "sum", root: int = 0) -> Any:
        self._check_op(op)
        values = self.gather(obj, root=root)
        if values is not None:
            return self._OPS[op](values)
        return None

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        if len(objs) != self.size:
            raise ValueError("alltoall needs exactly one object per rank")
        matrix = self.allgather(list(objs))
        return [matrix[src][self.rank] for src in range(self.size)]

    def split(self, color: int, key: Optional[int] = None):  # pragma: no cover
        raise NotImplementedError("nested splits of subcommunicators are not supported")


def _tree_reduce(values: Sequence[Any], op: Callable) -> Any:
    """Fixed-order pairwise reduction: deterministic regardless of thread
    arrival order (the bit-for-bit property the paper validates)."""
    vals = [(_copy_payload(v)) for v in values]
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(op(vals[i], vals[i + 1]))
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


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

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; return results.

        Exceptions on any rank are re-raised in the caller (first failing
        rank wins), after all threads have been joined.
        """
        state = _WorldState(self.n_ranks, self._timeout, faults=self._faults)
        self._state = state
        results: List[Any] = [None] * self.n_ranks
        errors: List[Tuple[int, BaseException]] = []
        errors_lock = threading.Lock()

        def worker(rank: int) -> None:
            comm = SimComm(state, rank)
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - propagate to caller
                with errors_lock:
                    errors.append((rank, exc))
                state.barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"simrank-{r}", daemon=True)
            for r in range(self.n_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            errors.sort(key=lambda e: e[0])
            # Prefer the root cause over secondary errors: a killed rank
            # (RankFailure) makes its peers time out and/or break barriers,
            # so those must not mask the failure that caused them.
            killed = [e for e in errors if isinstance(e[1], RankFailure)]
            primary = killed or [
                e for e in errors
                if not isinstance(e[1], (threading.BrokenBarrierError, TimeoutError))
            ]
            rank, exc = (primary or errors)[0]
            raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
        return results

    # -- elastic (ULFM-style) runs --------------------------------------

    def run_elastic(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> ElasticOutcome:
        """Run ``fn`` like :meth:`run`, but survive rank deaths.

        A :class:`RankFailure` on any rank revokes the world (the
        ``MPI_Comm_revoke`` analogue): the collective barrier is aborted
        and blocked receivers are woken, so survivors raise
        :class:`CommRevokedError` promptly instead of timing out one by
        one.  After every thread has been joined — the join is the
        agreement point, playing the role of ``MPIX_Comm_agree`` in this
        threaded runtime — the outcome classifies each rank as completed,
        dead, or interrupted.  Exceptions unrelated to the failure are
        re-raised exactly as :meth:`run` would.
        """
        state = _WorldState(self.n_ranks, self._timeout, faults=self._faults)
        self._state = state
        results: List[Any] = [None] * self.n_ranks
        dead: List[int] = []
        interrupted: List[int] = []
        errors: List[Tuple[int, BaseException]] = []
        lock = threading.Lock()

        def worker(rank: int) -> None:
            comm = SimComm(state, rank)
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except RankFailure:
                with lock:
                    dead.append(rank)
                state.revoke(rank)
            except (CommRevokedError, CommTimeoutError, threading.BrokenBarrierError) as exc:
                # Collateral damage of a death — but only if a death was in
                # fact recorded by the time we classify (post-join below).
                with lock:
                    interrupted.append(rank)
                    errors.append((rank, exc))
            except BaseException as exc:  # noqa: BLE001 - propagate to caller
                with lock:
                    errors.append((rank, exc))
                state.barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"simrank-{r}", daemon=True)
            for r in range(self.n_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if dead:
            # Agreement reached: deaths explain the interruptions; any
            # remaining error is a genuine (unrelated) program failure.
            real = [
                e for e in errors
                if e[0] not in interrupted
            ]
            if real:
                real.sort(key=lambda e: e[0])
                rank, exc = real[0]
                raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
            return ElasticOutcome(
                results=results,
                dead=tuple(sorted(dead)),
                interrupted=tuple(sorted(interrupted)),
            )
        if errors:
            errors.sort(key=lambda e: e[0])
            primary = [
                e for e in errors
                if not isinstance(e[1], (threading.BrokenBarrierError, TimeoutError))
            ]
            rank, exc = (primary or errors)[0]
            raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
        return ElasticOutcome(results=results, dead=(), interrupted=())

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
