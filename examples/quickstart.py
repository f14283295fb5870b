#!/usr/bin/env python
"""Quickstart: build the coupled AP3ESM, run one simulated day, and print
the model state and timing summary.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.esm import AP3ESM, AP3ESMConfig, atm_snapshot, surface_speed
from repro.obs import Obs


def main() -> None:
    print("Initializing the coupled model (atmosphere L3 + 64x48x8 ocean)...")
    obs = Obs()
    model = AP3ESM(AP3ESMConfig(atm_level=3, ocn_nlon=64, ocn_nlat=48, ocn_levels=8),
                   obs=obs)
    model.init()
    print(f"  atmosphere: {model.atm.grid.n_cells} cells "
          f"(~{model.atm.grid.mean_cell_spacing_km:.0f} km), "
          f"dt_model = {model.atm.dt_model:.0f} s")
    print(f"  ocean:      {model.ocn.grid.nlon}x{model.ocn.grid.nlat}x"
          f"{model.ocn.grid.n_levels}, "
          f"ocean fraction {model.ocn.grid.ocean_fraction:.2f}")
    print(f"  coupling:   atm every {model.dt_couple:.0f} s, "
          f"ocean every {model.config.ocn_couple_ratio} atm couplings "
          f"(paper ratio 180:36 per day)")

    print("\nRunning one simulated day...")
    model.run_days(1.0)

    snap = atm_snapshot(model.atm)
    sst = model.ocn.export_state()["sst"]
    wet = model.ocn.mask3d[0]
    speed = surface_speed(model.ocn)
    print("\nState after one day:")
    print(f"  global-mean precip:     {snap['precip'].mean() * 86400:.2f} mm/day")
    print(f"  global cloud fraction:  {snap['cloud_fraction'].mean():.2f}")
    print(f"  SST range:              {sst[wet].min():.1f} .. {sst[wet].max():.1f} C")
    print(f"  max surface current:    {np.nanmax(speed):.3f} m/s")
    print(f"  sea-ice area:           {model.ice.total_area() / 1e12:.2f} Mkm^2")
    print(f"  mean land skin temp:    "
          f"{model.lnd.tskin[model.land_mask_atm].mean():.1f} K")

    # The paper's metric: SYPD from the wall time of the coupling loop.
    print(f"\nThroughput on this machine: {model.sypd():.1f} SYPD "
          f"({model.wall_s:.1f} s wall for 1 simulated day)")
    model.finalize()
    print("\nPhase table (spans + metrics):")
    print(obs.report())


if __name__ == "__main__":
    main()
