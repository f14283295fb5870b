"""The four workloads: what is built, and how much of it one run measures.

Names, one-line reasons, units and bounds live in ``BENCHMARK.json`` at
the repo root (the single declaration the driver and ``run.py`` both
read); this table only says how to build each workload.  Every workload
runs ``atm_nlev=30``, ``ocn_couple_ratio=5``, the serial backend and
``concurrent_domains=False``; the operation is one coupling cycle
(``ocn_couple_ratio`` couplings, so every sample holds exactly one ocean
run).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = ROOT / "BENCHMARK.json"

COUPLINGS_PER_CYCLE = 5
ATM_NLEV = 30
#: Trials (fresh subprocesses) per untraced run; each yields one set-up
#: sample and one per-trial median, and a metric is the median over them.
TRIALS = 3

#: ``cycle_s`` is the dev-box cycle time, used only to turn ``--seconds``
#: into a fixed cycle count per trial (fixed, not timed, so every trial of
#: a run ends in the same model state and the digests can be compared).
WORKLOADS: Dict[str, dict] = {
    "cpl_atm": dict(
        kind="solo", atm_level=4, ocn=(48, 32, 6), precision="mixed",
        physics="conventional", cycle_s=0.80, procs_trial=True,
    ),
    "cpl_ocn": dict(
        kind="solo", atm_level=2, ocn=(144, 96, 12), precision="mixed",
        physics="conventional", cycle_s=0.75, procs_trial=False,
    ),
    "cpl_ai": dict(
        kind="solo", atm_level=2, ocn=(48, 32, 6), precision="mixed",
        physics="ai", cycle_s=1.40, procs_trial=False,
    ),
    "ens_ckpt": dict(
        kind="ensemble", members=2, atm_level=2, ocn=(48, 32, 6),
        precision="fp64", physics="ai", cycle_s=2.75, procs_trial=False,
    ),
}

AI_WIDTH = 128
#: ``--smoke`` sizes: same code paths, seconds instead of minutes.
SMOKE = dict(atm_level=1, ocn=(16, 12, 4))
SMOKE_AI_WIDTH = 16


def declaration() -> dict:
    return json.loads(DECLARATION.read_text())


def sized(name: str, smoke: bool) -> dict:
    cfg = dict(WORKLOADS[name], name=name, ai_width=AI_WIDTH)
    if smoke:
        cfg.update(SMOKE, ai_width=SMOKE_AI_WIDTH)
    return cfg


def cycles_per_trial(cfg: dict, seconds: float) -> int:
    return max(2, round(seconds / (TRIALS * cfg["cycle_s"])))
