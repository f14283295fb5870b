"""Rearranger: execute a Router transfer over the simulated MPI runtime.

Two methods, exactly the before/after of §5.2.4:

* ``alltoall`` — "the original all-to-all MPI was inefficient": every rank
  participates in a dense collective, sending (mostly empty) buffers to
  every other rank;
* ``p2p`` — "we implemented non-blocking point-to-point MPI, which
  overlaps communication and computation": only actual Router partners
  exchange messages, posted as isend/irecv.

Orthogonally, ``granularity`` selects the message layout on the p2p
path — the second before/after of the coupler fast path:

* ``"field"`` — MCT's legacy layout: one message per *field* per partner
  (an AttrVect of n fields posts n sends to each destination rank);
* ``"bundle"`` (default) — all fields bound for one partner travel in a
  single 2-D block per edge.

:meth:`plan` compiles the next step up: a
:class:`~repro.coupler.plan.RearrangePlan` coalescing *multiple* bundles
into one message per edge, frozen once per Router and reused every
coupling step.  All layouts produce identical results (tested); the
traffic ledger shows the difference the machine model prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Literal, Optional

import numpy as np

from ..obs import NULL_OBS
from ..parallel.comm import Request, SimComm
from .attrvect import AttrVect
from .plan import RearrangePlan, isend_with_retry
from .router import Router

__all__ = ["Rearranger"]

_TAG = 7300


@dataclass
class Rearranger:
    """Moves AttrVect data from a source to a destination decomposition.

    Resilience knobs (all default-off, adding nothing to the no-fault
    path): ``max_retries`` re-posts a send that failed with
    :class:`~repro.parallel.comm.CommTransientError` (backing off
    ``retry_backoff_s * 2^(attempt-1)`` between attempts) — a retried
    success is bit-identical to an unfaulted transfer since the buffered
    payload is unchanged; ``recv_timeout`` bounds each receive so a dead
    peer surfaces as a structured
    :class:`~repro.parallel.comm.CommTimeoutError` naming the (src, dst,
    tag) edge instead of blocking on the world's long deadlock guard.
    """

    router: Router
    method: Literal["p2p", "alltoall"] = "p2p"
    #: Message layout on the p2p path: ``"bundle"`` ships one 2-D block
    #: per partner; ``"field"`` reproduces MCT's legacy one-message-per-
    #: field-per-partner layout (the un-coalesced baseline the benchmarks
    #: compare against).
    granularity: Literal["bundle", "field"] = "bundle"
    max_retries: int = 0
    retry_backoff_s: float = 0.0
    recv_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.method not in ("p2p", "alltoall"):
            raise ValueError("method must be 'p2p' or 'alltoall'")
        if self.granularity not in ("bundle", "field"):
            raise ValueError("granularity must be 'bundle' or 'field'")
        if self.max_retries < 0 or self.retry_backoff_s < 0:
            raise ValueError("max_retries and retry_backoff_s must be >= 0")

    def plan(self, bundles) -> "RearrangePlan":
        """Compile a :class:`~repro.coupler.plan.RearrangePlan` over this
        rearranger's Router, inheriting its resilience knobs.  ``bundles``
        maps bundle names to field lists (see ``RearrangePlan.compile``)."""
        return RearrangePlan.compile(
            self.router,
            bundles,
            max_retries=self.max_retries,
            retry_backoff_s=self.retry_backoff_s,
            recv_timeout=self.recv_timeout,
        )

    def _isend(self, comm: SimComm, payload, dest: int, tag: int, obs) -> Request:
        return isend_with_retry(
            comm, payload, dest, tag, self.max_retries, self.retry_backoff_s, obs
        )

    def rearrange(
        self,
        comm: SimComm,
        src_av: AttrVect | None,
        dst_lsize: int,
        obs=NULL_OBS,
    ) -> AttrVect:
        """Run the transfer on this rank.

        ``src_av`` is this rank's source-side AttrVect (None if this rank
        owns no source points); returns the destination-side AttrVect of
        ``dst_lsize`` points (zeros where the Router delivers nothing).
        Field names are agreed via rank-0 broadcast, like MCT's list sync.
        A live ``obs`` handle records a span plus this rank's sent
        bytes/messages counters.
        """
        with obs.span(
            "cpl.rearrange",
            method=self.method,
            dst_lsize=dst_lsize,
            rank=comm.rank,
        ):
            return self._rearrange(comm, src_av, dst_lsize, obs)

    def _rearrange(
        self,
        comm: SimComm,
        src_av: AttrVect | None,
        dst_lsize: int,
        obs,
    ) -> AttrVect:
        fields = comm.bcast(src_av.fields if src_av is not None else None, root=0)
        if fields is None:
            raise ValueError("rank 0 must hold a source AttrVect")
        n_fields = len(fields)
        me = comm.rank
        out = np.zeros((n_fields, dst_lsize))
        sent_bytes = 0
        sent_messages = 0

        sends = {q: idx for (p, q), idx in self.router.send.items() if p == me}
        recvs = {p: idx for (p, q), idx in self.router.recv.items() if q == me}

        if self.method == "p2p":
            per_field = self.granularity == "field"
            reqs = []
            for q, idx in sorted(sends.items()):
                payload = src_av.data[:, idx] if src_av is not None else np.zeros((n_fields, 0))
                if q == me:
                    # Local copy.  A router may carry a (me, me) send with
                    # no matching recv entry (e.g. a pruned/hand-built
                    # table); delivering nothing is then correct — the
                    # alltoall path already behaves that way.
                    self_idx = recvs.get(me)
                    if self_idx is not None:
                        out[:, self_idx] = payload
                elif per_field:
                    # Legacy MCT layout: one message per field, each on
                    # its own tag so matching never depends on ordering.
                    for fi in range(n_fields):
                        row = payload[fi]
                        reqs.append(self._isend(comm, row, q, _TAG + fi, obs))
                        sent_bytes += int(row.nbytes)
                        sent_messages += 1
                else:
                    reqs.append(self._isend(comm, payload, q, _TAG, obs))
                    sent_bytes += int(payload.nbytes)
                    sent_messages += 1
            for p, idx in sorted(recvs.items()):
                if p == me:
                    continue
                if per_field:
                    for fi in range(n_fields):
                        out[fi, idx] = comm.recv(
                            source=p, tag=_TAG + fi, timeout=self.recv_timeout
                        )
                else:
                    out[:, idx] = comm.recv(source=p, tag=_TAG, timeout=self.recv_timeout)
            Request.waitall(reqs)
        else:
            buffers = []
            for q in range(comm.size):
                idx = sends.get(q)
                if idx is None or src_av is None:
                    buffers.append(np.zeros((n_fields, 0)))
                else:
                    buffers.append(src_av.data[:, idx])
            sent_bytes = int(sum(b.nbytes for i, b in enumerate(buffers) if i != me))
            sent_messages = comm.size - 1
            received = comm.alltoall(buffers)
            for p, payload in enumerate(received):
                idx = recvs.get(p)
                if idx is not None and payload.shape[1]:
                    out[:, idx] = payload
        if obs.enabled:
            obs.counter("cpl.rearrange.calls").inc()
            obs.counter("cpl.rearrange.messages").inc(sent_messages)
            obs.counter("cpl.rearrange.bytes").inc(sent_bytes)
        return AttrVect(list(fields), out)

    # -- analytics ---------------------------------------------------------------

    def message_counts(self, n_ranks: int, n_fields: int = 1) -> Dict[str, float]:
        """Messages on the critical path for each method (the machine
        model's latency term): dense all-to-all posts n-1 sends and n-1
        receives per rank; sparse p2p posts only real partners — counting
        *both* the send side and the recv-side fan-in, since a rank that
        receives from many sources pays those postings too.

        ``n_fields`` prices the granularity axis: the legacy per-field
        layout multiplies every p2p posting by the field count, which the
        bundle layout (and, across bundles, a compiled
        :class:`~repro.coupler.plan.RearrangePlan`) collapses back to one.
        """
        send_partners, recv_partners = self.router.partner_counts(n_ranks)
        posts = send_partners + recv_partners
        posts_max = float(posts.max()) if n_ranks else 0.0
        return {
            "alltoall_messages_per_rank": float(2 * (n_ranks - 1)),
            "p2p_messages_per_rank_max": posts_max,
            "p2p_messages_per_rank_mean": float(posts.mean()) if n_ranks else 0.0,
            "p2p_send_partners_max": float(send_partners.max()) if n_ranks else 0.0,
            "p2p_recv_partners_max": float(recv_partners.max()) if n_ranks else 0.0,
            "field_messages_per_rank_max": posts_max * n_fields,
            "bundle_messages_per_rank_max": posts_max,
            "message_reduction": float(n_fields),
        }
