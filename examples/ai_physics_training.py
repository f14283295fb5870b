#!/usr/bin/env python
"""Train the AI physics suite (§5.2.1) and run the atmosphere with it.

Follows the paper's pipeline end-to-end at laptop scale:
1. generate the training archive — high-resolution conventional-physics
   output over days spanning four seasons;
2. train the AI tendency CNN and the radiation MLP on the 7:1 day split
   (3 random validation steps per training day);
3. evaluate skill on the held-out test days;
4. drop the trained suite into GRIST in place of the conventional suite
   and compare one simulated day of the two models.

Run:  python examples/ai_physics_training.py
"""

import time

import numpy as np

from repro.ai import split_by_days
from repro.atm import (
    AIPhysicsSuite,
    ConventionalPhysics,
    GristConfig,
    GristModel,
    harvest_archive_from_model,
    synthetic_columns,
)

N_DAYS, SAMPLES_PER_DAY, NCOL, NLEV = 6, 8, 128, 10


def main() -> None:
    print("Harvesting the training archive from a conventional-physics run "
          f"({N_DAYS} days x {SAMPLES_PER_DAY} samples x {NCOL} columns)...")
    host = GristModel(GristConfig(level=3, nlev=NLEV))
    host.init()
    archive = harvest_archive_from_model(
        host, n_days=N_DAYS, samples_per_day=SAMPLES_PER_DAY, ncol_per_sample=NCOL
    )
    print(f"  {len(archive['x_column'])} column samples "
          "(the paper's protocol: the model's own high-res output, "
          "supervised by the conventional suite)")

    print("Training the AI suite (tendency CNN + radiation MLP)...")
    t0 = time.perf_counter()
    suite = AIPhysicsSuite.train(archive, epochs=60, width=48, lr=2e-3)
    print(f"  trained in {time.perf_counter() - t0:.1f} s; "
          f"CNN parameters: {suite.tendency_trainer.model.n_params:,} "
          f"(paper-size width-128 net: ~5e5)")

    split = split_by_days(N_DAYS, SAMPLES_PER_DAY)
    test_idx = (split.test[:, None] * NCOL + np.arange(NCOL)[None, :]).ravel()
    skill = suite.skill(archive, test_idx)
    print(f"  held-out skill: tendency R^2 = {skill['tendency']:.2f}, "
          f"radiation R^2 = {skill['radiation']:.2f}")
    print("  per channel: " + ", ".join(
        f"{k} {v:.2f}" for k, v in skill.items() if "." in k))

    # Inference cost comparison.
    cols = synthetic_columns(512, NLEV, season=1, step=3)
    conv = ConventionalPhysics()
    t0 = time.perf_counter()
    for _ in range(5):
        conv.compute(cols, 120.0)
    t_conv = (time.perf_counter() - t0) / 5
    t0 = time.perf_counter()
    for _ in range(5):
        suite.compute(cols, 120.0)
    t_ai = (time.perf_counter() - t0) / 5
    print(f"  cost per 512 columns: conventional {t_conv * 1e3:.1f} ms, "
          f"AI suite {t_ai * 1e3:.1f} ms")

    print("\nRunning GRIST two days with each suite...")
    results = {}
    for name, physics in (("conventional", None), ("AI", suite)):
        model = GristModel(GristConfig(level=3, nlev=NLEV), physics=physics)
        model.init()
        model.run(48)
        out = model.export_state()
        results[name] = out
        print(f"  [{name:>12}] mean precip "
              f"{out['precip'].mean() * 86400:.2f} mm/day, "
              f"T_bot {out['t_bot'].min():.0f}..{out['t_bot'].max():.0f} K, "
              f"mass {model.dycore.total_mass(model.swe):.4e}")
        model.finalize()

    corr = np.corrcoef(results["conventional"]["t_bot"], results["AI"]["t_bot"])[0, 1]
    print(f"\nspatial correlation of near-surface temperature between the "
          f"two suites after two days: {corr:.2f}")
    print("(the AI suite is a drop-in replacement through the same "
          "physics-dynamics coupling interface; the diagnostic module "
          "closes the moisture budget online)")


if __name__ == "__main__":
    main()
