"""Seeded input generation: everything a trial reads comes from ``--seed``.

Two inputs, written to the run's work directory for the trials to load:

* the trained AI physics suite (``suite.npz``) for the AI workloads —
  a seeded synthetic archive, one training epoch at the paper's size;
* the initial-condition perturbation (``t_col_noise.npy``), N(0, 1e-3 K)
  on the atmosphere temperature columns, applied by a solo trial through
  ``atm.set_state``.  Ensembles draw theirs from ``perturb_seed=seed``.

One epoch leaves the nets far from converged — inference cost does not
depend on the weights, and training to skill at width 128 takes minutes.
Left alone, such a suite saturates its own guard rail (3x the largest
training tendency, ~0.15 K/s) and drives the coupled state to NaN within
a dozen cycles, so no physical-range check could pass.  The generated
suite therefore carries a guard rail tightened by ``GUARD_RAIL_SCALE``:
the same clip, the same cost, and a state that stays in range for far
longer than any run of the benchmark.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

import numpy as np

from workloads import ATM_NLEV

PERTURB_AMPLITUDE_K = 1e-3
GUARD_RAIL_SCALE = 1e-4


def train_suite(seed: int, width: int, path: Path) -> Path:
    from repro.atm import AIPhysicsSuite, generate_training_archive

    archive = generate_training_archive(
        n_days=8, steps_per_day=4, ncol_per_step=8, nlev=ATM_NLEV, seed=seed
    )
    suite = AIPhysicsSuite.train(archive, epochs=1, width=width, seed=seed)
    suite.tendency_limits = suite.tendency_limits * GUARD_RAIL_SCALE
    suite.save(path)
    return path


def t_col_noise(seed: int, atm_level: int, path: Path) -> Path:
    n_cells = 10 * 4 ** atm_level + 2
    rng = np.random.default_rng([seed, atm_level])
    np.save(path, PERTURB_AMPLITUDE_K * rng.standard_normal((n_cells, ATM_NLEV)))
    return path


def generate(seed: int, cfg: dict, work: Path) -> Dict[str, Optional[str]]:
    """Write the workload's inputs under ``work``; returns their paths."""
    out: Dict[str, Optional[str]] = {"suite": None, "noise": None}
    if cfg["physics"] == "ai":
        out["suite"] = str(train_suite(seed, cfg["ai_width"], work / "suite.npz"))
    if cfg["kind"] == "solo":
        out["noise"] = str(t_col_noise(seed, cfg["atm_level"], work / "t_col_noise.npy"))
    return out
