#!/usr/bin/env python
"""Standalone LICOM demo: a wind-driven gyre spin-up on the tripolar grid.

A steady zonal wind-stress pattern (easterlies / westerlies / easterlies)
spins up subtropical gyres; the western sides of the basins intensify —
the classic Stommel signature — and the memory ledger reports what
non-ocean-point compression would save on this mask.

Run:  python examples/ocean_gyre.py
"""

import numpy as np

from repro.esm.diagnostics import surface_speed
from repro.ocn import LicomConfig, LicomModel

DAYS = 30


def main() -> None:
    model = LicomModel(LicomConfig(nlon=96, nlat=64, n_levels=10))
    model.init()
    print(f"ocean grid {model.grid.nlon}x{model.grid.nlat}x{model.grid.n_levels}; "
          f"ocean fraction {model.grid.ocean_fraction:.2f}, "
          f"3-D wet fraction {model.grid.wet_fraction_3d():.2f}")
    rep = model.memory_report()
    print(f"non-ocean-point removal would drop {100 * rep['reduction']:.0f}% of the "
          f"state bytes ({rep['full_bytes'] / 1e6:.1f} -> "
          f"{rep['packed_bytes'] / 1e6:.1f} MB)")

    # Idealized zonal wind stress: trades / westerlies / polar easterlies.
    lat = model.grid.lat
    taux = 0.1 * (-np.cos(3.0 * lat))
    model.import_state({
        "taux": np.where(model.metrics.mask_c, taux, 0.0),
        "heat_flux": np.where(model.metrics.mask_c, 40.0 * np.cos(lat), 0.0),
    })

    steps_per_day = max(1, int(round(86400.0 / model.dt_baroclinic)))
    print(f"\nspinning up {DAYS} days ({steps_per_day} baroclinic steps/day, "
          f"dt = {model.dt_baroclinic:.0f} s, "
          f"{10 * steps_per_day} barotropic substeps/day)...")
    for day in range(DAYS):
        model.run(steps_per_day)
        if (day + 1) % 10 == 0:
            speed = surface_speed(model)
            ssh = model.bt.eta
            print(f"  day {day + 1:3d}: max speed {np.nanmax(speed):.3f} m/s, "
                  f"SSH range [{ssh.min():+.3f}, {ssh.max():+.3f}] m")

    # Western intensification: within each subtropical band, currents on
    # the western flank of ocean basins are stronger than on the east.
    speed = surface_speed(model)
    mask = model.mask3d[0]
    band = (np.abs(np.degrees(lat)) > 15) & (np.abs(np.degrees(lat)) < 45) & mask
    west_edge = np.zeros_like(mask)
    # A wet cell whose western neighbor is land is a western boundary cell.
    west_edge[:, 1:] = mask[:, 1:] & ~mask[:, :-1]
    west_edge[:, 0] = mask[:, 0] & ~mask[:, -1]
    wb = band & west_edge
    interior = band & ~west_edge
    print(f"\nwestern-boundary mean speed: {np.nanmean(speed[wb]):.4f} m/s")
    print(f"basin-interior mean speed:   {np.nanmean(speed[interior]):.4f} m/s")
    ratio = np.nanmean(speed[wb]) / max(np.nanmean(speed[interior]), 1e-12)
    print(f"intensification ratio:       {ratio:.1f}x "
          f"({'western intensification resolved' if ratio > 1.5 else 'weak'})")
    model.finalize()


if __name__ == "__main__":
    main()
