"""Push a Gaussian density around a vortex and watch its norms hold still.

The velocity comes from a compactly supported stream-function bump, so it is
divergence-free by construction and vanishes near the boundary. Solving the
transport equation along backward characteristics then has to preserve every
Lp norm of the density; the drift you see below is pure discretization.
"""

import numpy as np

from transportlab import (
    Grid,
    TimePartition,
    conservation_report,
    gaussian_blob,
    solve_classical,
    static_field,
    unit_square,
    vortex_field,
)

domain = unit_square()
grid = Grid(domain, 128, 128)
times = TimePartition(1.0, 200)
u = vortex_field(domain)
rho0 = static_field(grid, gaussian_blob((0.6, 0.5), 0.08))

print("solving 128^2, 200 layers, T = 1 ...")
rho = solve_classical(rho0, u, times)

reports = conservation_report(grid, rho.times, rho.values, (1.0, 2.0, 3.0, np.inf))
print(f"{'p':>5} {'initial norm':>14} {'final norm':>14} {'gate statistic':>15}")
for p, rep in reports.items():
    print(f"{p:>5g} {rep.reference:>14.8f} {rep.values[-1]:>14.8f} {rep.statistic:>15.3e}")

print()
print("the sup norm can only shrink (bilinear evaluation averages nodal")
print("values), so its gate is one-sided; finite p gates are two-sided.")
print("max principle excess:",
      float(max(rho.values.max() - rho0.values.max(),
                rho0.values.min() - rho.values.min())))
