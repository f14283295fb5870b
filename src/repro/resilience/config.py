"""Resilience configuration (the ``resilience`` section of AP3ESMConfig).

Kept dependency-free so the driver, the CLI, and the chaos harness can
all import it without touching the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ResilienceConfig"]


@dataclass
class ResilienceConfig:
    """Opt-in resilience machinery for a coupled run.

    Everything is off by default (``enabled=False``): the driver then
    takes exactly the pre-resilience code paths — no guard wrapper, no
    checkpoint manager, no watchdog, zero extra messages or branches on
    the hot loop beyond one ``is None`` check.
    """

    enabled: bool = False
    #: Wrap the physics suite in a :class:`GuardedPhysics` that falls back
    #: to the conventional parameterization for NaN/blow-up columns.
    guard_physics: bool = True
    #: Write a rotating checkpoint every N couplings (0 = never).
    checkpoint_every: int = 0
    #: Rotating checkpoint directory (required when checkpoint_every > 0).
    checkpoint_dir: Optional[str] = None
    #: How many checkpoints the rotation keeps on disk.
    checkpoint_keep: int = 3
    #: Abort waiting on a task domain after this many seconds
    #: (None = wait forever, the pre-resilience behavior).
    watchdog_s: Optional[float] = None
    #: What the ensemble fleet supervisor does when ONE member's coupling
    #: step fails: ``fail_fast`` (default, the pre-supervisor behavior —
    #: the exception propagates and kills the fleet), ``quarantine``
    #: (remove the member mid-run; survivors continue bitwise-unchanged),
    #: or ``restart`` (roll the member back to its rotating checkpoint
    #: and replay it to the fleet clock; escalates to quarantine after
    #: ``member_restart_max`` restarts).  Ignored outside EnsembleRun.
    member_policy: str = "fail_fast"
    #: Restarts one member may consume before the supervisor escalates
    #: its next failure to quarantine.
    member_restart_max: int = 2

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ValueError("checkpoint_every > 0 requires checkpoint_dir")
        if self.member_policy not in ("fail_fast", "quarantine", "restart"):
            raise ValueError(
                f"unknown member_policy {self.member_policy!r}; "
                "choose from ('fail_fast', 'quarantine', 'restart')"
            )
        if self.member_restart_max < 0:
            raise ValueError("member_restart_max must be >= 0")
