"""Fluid dynamics in three regimes, plus relaxation to the fixed point.

Solves the deterministic scaled dynamics for arrival rates 0.6, 1.0 and
1.4 from an empty start, printed as subcritical, critical and mixed: the
over-loaded path climbs from empty through the capacity band, so it
passes below, at and above capacity, which fluid.classify_regime labels
mixed.  Then shows that the critical fixed point (unit mass with the
stationary age profile) really is stationary and that a perturbed start
relaxes back toward it.
Writes plot-ready CSV columns to demos_out/ under the working directory.

    python3 demos/fluid_relaxation.py
"""
from pathlib import Path

import numpy as np

from queuelab.dists import make_service_dist
from queuelab.fluid import FluidInit, solve_fluid

OUT = Path("demos_out")


def main():
    OUT.mkdir(exist_ok=True)
    dist = make_service_dist({"family": "gamma", "shape": 2.0})
    T, dt = 8.0, 1e-3

    print(f"service: {dist.name} (mean 1), horizon {T}\n")
    print(f"{'arrival rate':>12} {'regime':>14} {'final mass':>11} "
          f"{'final headcount':>16}")
    rows = {}
    for rate in [0.6, 1.0, 1.4]:
        path = solve_fluid(dist, FluidInit(Ebar=rate, x0=0.0), T, dt)
        rows[rate] = path
        print(f"{rate:>12.1f} {path.regime:>14} {path.Bbar[-1]:>11.4f} "
              f"{path.Xbar[-1]:>16.4f}")

    header = "t," + ",".join(f"X_rate{r}" for r in rows)
    cols = [rows[1.0].grid] + [rows[r].Xbar for r in rows]
    lines = [header] + [",".join(repr(float(v)) for v in row)
                        for row in zip(*cols)]
    (OUT / "fluid_regimes.csv").write_text("\n".join(lines) + "\n")

    print("\nstationarity of the critical fixed point (mass 1, stationary "
          "age profile):")
    inv = solve_fluid(dist, FluidInit(Ebar=1.0, x0=1.0,
                                      nu0_density={"invariant": 1.0}), T, dt)
    print(f"  max |headcount - 1| over [0, {T}] = "
          f"{np.max(np.abs(inv.Xbar - 1.0)):.2e}  (quadrature floor)")

    print("\nrelaxation: start 30% under-filled with the same profile shape")
    low = solve_fluid(dist, FluidInit(Ebar=1.0, x0=0.7,
                                      nu0_density={"invariant": 0.7}), T, dt)
    for t in [0.0, 1.0, 2.0, 4.0, 8.0]:
        i = int(round(t / dt))
        print(f"  t={t:>4.1f}  headcount {low.Xbar[i]:.4f}  "
              f"(distance to fixed point {abs(low.Xbar[i] - 1.0):.4f})")
    print(f"\nwrote {OUT / 'fluid_regimes.csv'}")


if __name__ == "__main__":
    main()
