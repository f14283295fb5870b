"""The job runner: drive ONE scenario job attempt, resumably.

One attempt = build the model the spec describes (base config + delta),
restore it from the job's newest valid checkpoint if one exists (else
perturb and write the coupling-0 seed checkpoint, so the perturbed IC is
itself durable), step to the coupling budget writing rotating
checkpoints on the way, write a final checkpoint, and atomically publish
the finished restart set.

Crash-safety invariants the scheduler's bitwise guarantee rests on:

* **Seed checkpoint** — the perturbation is applied exactly once, at
  coupling 0, and immediately checkpointed: a resumed attempt restores
  the perturbed state bitwise instead of re-perturbing.
* **Final checkpoint** — written after the loop even when
  ``checkpoint_every`` does not divide the budget, so an attempt killed
  between "run finished" and "result published" republishes from the
  final checkpoint bitwise.
* **Atomic publish** — the restart set is written through
  :func:`~repro.io.restart.publish_dir` (staged under ``.tmp-restart``,
  then one rename to ``restart/``); existence of the published
  directory therefore PROVES the job ran to completion,
  which is what :meth:`JobRunner.run`'s adoption shortcut and the
  scheduler's recovery lean on ("no job is ever run to completion
  twice").

The ``tick(coupling)`` callback fires once per coupling *before*
stepping; the scheduler composes heartbeat, fault injection
(``worker_kill``), and the per-job deadline into it.  Whatever it raises
abandons the attempt between couplings — the model is discarded and the
next attempt resumes from the rotation.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from ..esm.ap3esm import AP3ESM, AP3ESMConfig
from ..esm.ensemble import EnsembleConfig, EnsembleRun
from ..io.restart import publish_dir
from ..obs import NULL_OBS
from ..resilience.config import ResilienceConfig
from ..utils.rng import seeded
from .spec import JobSpec

__all__ = ["JobRunner"]

_PUBLISH = "restart"


class JobRunner:
    """Runs job attempts under ``<work_dir>/jobs/<job_id>/``."""

    def __init__(
        self,
        base_config: Optional[AP3ESMConfig] = None,
        work_dir: Union[str, Path] = "serve-work",
        checkpoint_every: int = 2,
        checkpoint_keep: int = 3,
        obs=None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.base_config = (base_config if base_config is not None
                            else AP3ESMConfig())
        self.work_dir = Path(work_dir)
        self.checkpoint_every = checkpoint_every
        self.checkpoint_keep = checkpoint_keep
        self.obs = obs if obs is not None else NULL_OBS

    # -- layout ------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.work_dir / "jobs" / job_id

    def published_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / _PUBLISH

    # -- config ------------------------------------------------------------

    def job_config(self, spec: JobSpec) -> AP3ESMConfig:
        """Base config + the spec's delta, with the job's rotating
        checkpoint directory forced on.  Raises on unknown delta fields
        or invalid values — at RUN time, so a poisoned spec burns its
        attempts through the circuit breaker instead of being silently
        dropped at submit."""
        valid = {f.name for f in dataclasses.fields(AP3ESMConfig)} - {
            "physics", "resilience",
        }
        unknown = set(spec.config_delta) - valid
        if unknown:
            raise ValueError(
                f"job {spec.job_id!r} config delta has unknown fields: "
                f"{sorted(unknown)}"
            )
        cfg = dataclasses.replace(self.base_config, **dict(spec.config_delta))
        return dataclasses.replace(
            cfg,
            resilience=ResilienceConfig(
                enabled=True,
                guard_physics=False,
                checkpoint_every=self.checkpoint_every,
                checkpoint_dir=str(self.job_dir(spec.job_id) / "ckpt"),
                checkpoint_keep=self.checkpoint_keep,
            ),
        )

    # -- one attempt -------------------------------------------------------

    def run(
        self,
        spec: JobSpec,
        tick: Optional[Callable[[int], None]] = None,
    ) -> Dict[str, object]:
        """Run (or resume, or adopt) one attempt of ``spec``.

        Returns the result dict journaled with the ``completed`` record:
        ``{"restart_dir", "couplings", "resumed_from", "adopted"}``.
        """
        published = self.published_dir(spec.job_id)
        if published.exists():
            # The atomic publish completed, so the job DID run to the end
            # — only the completed journal record is missing (the service
            # died in between).  Adopt the result instead of re-running.
            self.obs.counter("serve.adopted").inc()
            return {
                "restart_dir": str(published),
                "couplings": spec.couplings,
                "resumed_from": None,
                "adopted": True,
            }
        session = self._session(spec)
        session.init()
        resumed_from: Optional[int] = None
        if session.has_checkpoint():
            session.recover()
            resumed_from = session.n_couplings
            self.obs.counter("serve.resumes").inc()
        else:
            # Coupling-0 seed: the perturbed IC is durable (an ensemble
            # perturbs its members in init()).
            if spec.members == 1:
                self._perturb(spec, session)
            session.checkpoint()
        try:
            every = self.checkpoint_every
            while session.n_couplings < spec.couplings:
                if tick is not None:
                    tick(session.n_couplings)
                session.step_coupling()
                if session.n_couplings % every == 0:
                    session.checkpoint()
            if session.n_couplings % every != 0:
                session.checkpoint()  # final: republish-after-crash is bitwise
            out = self._publish(spec, session.save_restart)
        finally:
            session.finalize()
        out["resumed_from"] = resumed_from
        return out

    def _session(self, spec: JobSpec):
        """The coupled session the spec describes: a solo :class:`AP3ESM`
        or an :class:`EnsembleRun` — one session surface either way."""
        config = self.job_config(spec)
        if spec.members == 1:
            return AP3ESM(config)
        return EnsembleRun(EnsembleConfig(
            base=config,
            members=spec.members,
            perturb_seed=spec.perturb_seed,
            perturb_amplitude=spec.perturb_amplitude,
            batch_physics=spec.batch_physics,
        ))

    def _perturb(self, spec: JobSpec, model: AP3ESM) -> None:
        """Seeded IC perturbation for solo jobs, keyed on the job id so
        distinct jobs sharing a seed stay mutually distinct."""
        if spec.perturb_amplitude == 0.0:
            return
        rng = seeded("serve.job", spec.perturb_seed, spec.job_id)
        noise = rng.standard_normal(model.atm.t_col.shape)
        model.atm.t_col = model.atm.t_col + spec.perturb_amplitude * noise

    def _publish(self, spec: JobSpec, saver) -> Dict[str, object]:
        """Publish the restart set with ONE atomic rename — the commit
        point of the whole job."""
        final = publish_dir(self.published_dir(spec.job_id), saver)
        self.obs.counter("serve.published").inc()
        return {
            "restart_dir": str(final),
            "couplings": spec.couplings,
            "adopted": False,
        }
