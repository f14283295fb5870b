"""Retry-with-backoff for simulated transient failures.

Deterministic: exponential backoff with a zero base delay by default —
the simulated runtime has nothing to wait *for*, the retry discipline
(bounded attempts, counted interventions) is what matters.  Services
that retry *real* work (the :mod:`repro.serve` job scheduler) opt into a
``max_backoff_s`` delay cap and seeded full jitter: the delay for
attempt ``n`` is drawn uniformly from ``[0, min(base * 2^(n-1), cap)]``
by a generator keyed on ``("retry.jitter", jitter_seed, n)`` — the same
(seed, attempt) pair always yields the same delay, so a replayed retry
schedule is bit-reproducible while still de-synchronizing a fleet of
retriers (the classic thundering-herd fix).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from ..obs import NULL_OBS
from ..parallel.comm import CommTransientError
from ..utils.rng import seeded

__all__ = ["RetryPolicy", "retry_with_backoff"]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, how long to back off, on what errors.

    The defaults (``backoff_s=0.0``, no cap, no jitter) keep every
    pre-existing call site byte-identical: ``delay`` returns exactly the
    uncapped, unjittered exponential it always did.
    """

    max_retries: int = 3
    backoff_s: float = 0.0
    retry_on: Tuple[Type[BaseException], ...] = (CommTransientError,)
    #: Ceiling on any single backoff delay (None = uncapped exponential).
    max_backoff_s: Optional[float] = None
    #: Arm seeded deterministic full jitter (None = no jitter).
    jitter_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.backoff_s < 0:
            raise ValueError("max_retries and backoff_s must be >= 0")
        if self.max_backoff_s is not None and self.max_backoff_s < 0:
            raise ValueError("max_backoff_s must be >= 0")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): base * 2^(n-1),
        capped at ``max_backoff_s``, then full-jittered when a
        ``jitter_seed`` is set (uniform on [0, capped delay], drawn from
        the deterministic ``("retry.jitter", seed, attempt)`` stream)."""
        d = self.backoff_s * (2.0 ** max(attempt - 1, 0))
        if self.max_backoff_s is not None:
            d = min(d, self.max_backoff_s)
        if self.jitter_seed is not None and d > 0.0:
            rng = seeded("retry.jitter", self.jitter_seed, attempt)
            d = float(rng.uniform(0.0, d))
        return d


def retry_with_backoff(
    fn: Callable[[], T],
    policy: RetryPolicy = RetryPolicy(),
    obs=NULL_OBS,
    counter: str = "resilience.retries",
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` retrying on the policy's transient errors.

    Every retry increments the obs ``counter``; the final failure is
    re-raised unchanged once the budget is spent.  A retried success is
    bit-identical to an unfaulted call by construction — ``fn`` is simply
    invoked again with the same closure state.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except policy.retry_on:
            attempt += 1
            if attempt > policy.max_retries:
                raise
            obs.counter(counter).inc()
            delay = policy.delay(attempt)
            if delay > 0:
                sleep(delay)
