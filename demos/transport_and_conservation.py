"""Push a Gaussian density around a vortex and watch its norms hold still.

The velocity comes from a compactly supported stream-function bump, so it is
divergence-free by construction and vanishes near the boundary. Solving the
transport equation along backward characteristics then has to preserve every
Lp norm of the density; the drift you see below is pure discretization.
"""

import numpy as np

from transportlab import (
    Grid,
    NormHistory,
    TimePartition,
    WholeLayers,
    drive,
    gaussian_blob,
    iter_solution_layers,
    static_field,
    unit_square,
    vortex_field,
)

domain = unit_square()
grid = Grid(domain, 128, 128)
times = TimePartition(1.0, 200)
u = vortex_field(domain)
rho0 = static_field(grid, gaussian_blob((0.6, 0.5), 0.08))


class Extrema:
    """Reads the smallest and the largest value over every layer."""

    lo, hi = np.inf, -np.inf

    def add_layer(self, j, t, layer):
        self.lo, self.hi = min(self.lo, layer.min()), max(self.hi, layer.max())


print("solving 128^2, 200 layers, T = 1 ...")
# one streamed solve drives both readers; no layer is stored. The solve
# yields each layer on the nodes that move, and WholeLayers writes them
# into one whole grid that both readers read
history, extrema = NormHistory(grid, (1.0, 2.0, 3.0, np.inf)), Extrema()
drive(iter_solution_layers(rho0, u, times), [WholeLayers([history, extrema])])

reports = history.reports()
print(f"{'p':>5} {'initial norm':>14} {'final norm':>14} {'gate statistic':>15}")
for p, rep in reports.items():
    print(f"{p:>5g} {rep.reference:>14.8f} {rep.values[-1]:>14.8f} {rep.statistic:>15.3e}")

print()
print("the sup norm can only shrink (bilinear evaluation averages nodal")
print("values), so its gate is one-sided; finite p gates are two-sided.")
print("max principle excess:",
      float(max(extrema.hi - rho0.values.max(), rho0.values.min() - extrema.lo)))
