"""RearrangePlan: the precompiled, coalesced coupler transfer (§5.2.4).

The original MCT rearranger moves one message per *field* per partner and
re-derives its send/recv partner lists (and re-agrees the field list via
a broadcast) on every coupling step.  At kilometer scale that latency
term dominates the coupler (Duan et al., arXiv:2404.10253): with ~40
registered fields per exchange path and 180 couplings per day, every
partner edge carries tens of thousands of small messages per simulated
day.

A :class:`RearrangePlan` is compiled **once per Router** and reused every
coupling step.  Compilation:

* freezes the field schema of every AttrVect bundle travelling over this
  Router edge (no per-step rank-0 broadcast — all ranks share the plan);
* flattens ``Router.send``/``Router.recv`` into per-rank partner lists
  (no per-step dict scans over the global table);
* assigns each bundle a row block in one coalesced buffer, so **all
  fields of all bundles bound for one partner travel in a single
  message** — one message per (src, dst) edge per coupling step instead
  of ``n_fields``.

Execution preserves the rearranger's resilience contract per coalesced
message: transient send failures are retried with backoff (a retried
success is bit-identical — the buffered payload is unchanged) and
receives are bounded by ``recv_timeout``, surfacing a structured
:class:`~repro.parallel.comm.CommTimeoutError` naming the edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs import NULL_OBS
from ..parallel.comm import Request, SimComm
from ..resilience.retry import RetryPolicy, retry_with_backoff
from .attrvect import AttrVect
from .router import Router

__all__ = ["RearrangePlan"]

#: Tag space for coalesced plan messages (distinct from the legacy
#: rearranger's 7300 so mixed traffic cannot cross-match).
_PLAN_TAG = 7400


def isend_with_retry(
    comm: SimComm, payload, dest: int, tag: int, max_retries: int, backoff_s: float, obs
) -> Request:
    """Post a send, retrying transient failures within budget (payload
    unchanged across attempts, so a retried success stays bit-identical).
    Shared by the coalesced plan and the legacy rearranger."""
    return retry_with_backoff(
        lambda: comm.isend(payload, dest, tag=tag),
        RetryPolicy(max_retries=max_retries, backoff_s=backoff_s),
        obs,
    )


@dataclass
class RearrangePlan:
    """A compiled multi-bundle transfer over one Router edge.

    Build with :meth:`compile` (or :meth:`repro.coupler.Rearranger.plan`,
    which inherits the rearranger's resilience knobs).  The plan object
    is shared by all simulated ranks, like the Router itself.
    """

    router: Router
    #: Ordered (bundle name, field names) schema; row layout of the
    #: coalesced buffer is the concatenation in this order.
    bundles: Tuple[Tuple[str, Tuple[str, ...]], ...]
    max_retries: int = 0
    retry_backoff_s: float = 0.0
    recv_timeout: Optional[float] = None
    #: Per-rank partner lists, precompiled from the Router table.
    _sends: Dict[int, List[Tuple[int, np.ndarray]]] = field(default_factory=dict, repr=False)
    _recvs: Dict[int, List[Tuple[int, np.ndarray]]] = field(default_factory=dict, repr=False)
    _rows: Dict[str, slice] = field(default_factory=dict, repr=False)

    # -- compilation ---------------------------------------------------------

    @staticmethod
    def compile(
        router: Router,
        bundles: Mapping[str, Sequence[str]],
        max_retries: int = 0,
        retry_backoff_s: float = 0.0,
        recv_timeout: Optional[float] = None,
    ) -> "RearrangePlan":
        """Compile a plan for the given bundle schema over ``router``.

        ``bundles`` maps bundle names (coupling paths: ``"x2o"``,
        ``"i2x"``, ...) to their field lists.  Field names must be unique
        within a bundle; bundle order fixes the buffer layout.
        """
        if not bundles:
            raise ValueError("a plan needs at least one bundle")
        schema: List[Tuple[str, Tuple[str, ...]]] = []
        rows: Dict[str, slice] = {}
        row = 0
        for name, fields_ in bundles.items():
            fields_ = tuple(fields_)
            if not fields_:
                raise ValueError(f"bundle {name!r} has no fields")
            if len(set(fields_)) != len(fields_):
                raise ValueError(f"bundle {name!r} has duplicate field names")
            schema.append((name, fields_))
            rows[name] = slice(row, row + len(fields_))
            row += len(fields_)

        sends: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        recvs: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        for (p, q), idx in router.send.items():
            sends.setdefault(p, []).append((q, idx))
        for (p, q), idx in router.recv.items():
            recvs.setdefault(q, []).append((p, idx))
        for lst in sends.values():
            lst.sort(key=lambda t: t[0])
        for lst in recvs.values():
            lst.sort(key=lambda t: t[0])
        return RearrangePlan(
            router=router,
            bundles=tuple(schema),
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
            recv_timeout=recv_timeout,
            _sends=sends,
            _recvs=recvs,
            _rows=rows,
        )

    # -- introspection -------------------------------------------------------

    @property
    def n_fields(self) -> int:
        """Total coalesced field rows across all bundles."""
        return sum(len(f) for _, f in self.bundles)

    @property
    def n_bundles(self) -> int:
        return len(self.bundles)

    def bundle_fields(self, name: str) -> Tuple[str, ...]:
        for bname, fields_ in self.bundles:
            if bname == name:
                return fields_
        raise KeyError(f"no bundle {name!r}; have {[b for b, _ in self.bundles]}")

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        comm: SimComm,
        srcs: Mapping[str, Optional[AttrVect]],
        dst_lsize: int,
        obs=NULL_OBS,
    ) -> Dict[str, AttrVect]:
        """Run the coalesced transfer on this rank.

        ``srcs`` maps bundle names to this rank's source-side AttrVects
        (None if this rank owns no source points); every plan bundle must
        be present.  Returns one destination AttrVect per bundle, each of
        ``dst_lsize`` points (zeros where the Router delivers nothing).
        Bitwise-identical to running the legacy per-bundle (or per-field)
        rearranger over the same Router — only the message layout changes.
        """
        with obs.span(
            "cpl.plan.execute",
            bundles=self.n_bundles,
            fields=self.n_fields,
            dst_lsize=dst_lsize,
            rank=comm.rank,
        ):
            return self._execute(comm, srcs, dst_lsize, obs)

    def _execute(
        self,
        comm: SimComm,
        srcs: Mapping[str, Optional[AttrVect]],
        dst_lsize: int,
        obs,
    ) -> Dict[str, AttrVect]:
        buf = self._pack(srcs)
        me = comm.rank
        n_total = self.n_fields
        out = np.zeros((n_total, dst_lsize))
        sent_bytes = 0
        sent_messages = 0
        recvs = dict(self._recvs.get(me, ()))

        reqs = []
        for q, idx in self._sends.get(me, ()):
            payload = buf[:, idx] if buf is not None else np.zeros((n_total, 0))
            if q == me:
                self_idx = recvs.get(me)
                if self_idx is not None:
                    out[:, self_idx] = payload
            else:
                reqs.append(isend_with_retry(
                    comm, payload, q, _PLAN_TAG, self.max_retries, self.retry_backoff_s, obs
                ))
                sent_bytes += int(payload.nbytes)
                sent_messages += 1
        for p, idx in self._recvs.get(me, ()):
            if p == me:
                continue
            out[:, idx] = comm.recv(source=p, tag=_PLAN_TAG, timeout=self.recv_timeout)
        Request.waitall(reqs)

        if obs.enabled:
            obs.counter("cpl.plan.calls").inc()
            obs.counter("cpl.plan.messages").inc(sent_messages)
            obs.counter("cpl.plan.bytes").inc(sent_bytes)
            # What the same step would have cost un-coalesced: one message
            # per field per partner edge.
            obs.counter("cpl.plan.messages_saved").inc(
                sent_messages * (self.n_fields - 1)
            )
        return self._unpack(out)

    def _pack(self, srcs: Mapping[str, Optional[AttrVect]]) -> Optional[np.ndarray]:
        """Stack all bundles into one (n_fields, lsize) buffer; None if
        this rank holds no source points (all bundles None)."""
        blocks: List[np.ndarray] = []
        lsize: Optional[int] = None
        n_none = 0
        for name, fields_ in self.bundles:
            if name not in srcs:
                raise KeyError(f"missing source bundle {name!r}")
            av = srcs[name]
            if av is None:
                n_none += 1
                blocks.append(None)  # type: ignore[arg-type]
                continue
            if tuple(av.fields) != fields_:
                raise ValueError(
                    f"bundle {name!r} fields {av.fields} do not match the "
                    f"compiled schema {list(fields_)}"
                )
            if lsize is not None and av.lsize != lsize:
                raise ValueError("all source bundles must share one lsize")
            lsize = av.lsize
            blocks.append(av.data)
        if n_none == len(self.bundles):
            return None
        if n_none:
            raise ValueError(
                "source bundles must be all present or all None on a rank"
            )
        return np.concatenate(blocks, axis=0)

    def _unpack(self, out: np.ndarray) -> Dict[str, AttrVect]:
        return {
            name: AttrVect(list(fields_), out[self._rows[name]])
            for name, fields_ in self.bundles
        }

    # -- analytics -----------------------------------------------------------

    def message_counts(self, n_ranks: int) -> Dict[str, float]:
        """The coalescing arithmetic the machine model prices: per
        coupling step, every (src, dst) edge carries ONE plan message
        where the per-field path carries ``n_fields``."""
        posts = sum(self.router.partner_counts(n_ranks))
        n_fields = float(self.n_fields)
        coalesced_max = float(posts.max()) if n_ranks else 0.0
        return {
            "n_fields": n_fields,
            "n_bundles": float(self.n_bundles),
            "per_field_messages_per_edge": n_fields,
            "coalesced_messages_per_edge": 1.0,
            "per_field_messages_per_rank_max": coalesced_max * n_fields,
            "coalesced_messages_per_rank_max": coalesced_max,
            "message_reduction": n_fields,
        }
