"""Boundary flux of the velocity, quantified.

The well-posedness theory asks the velocity's outward flux through a frame
of width 1/h next to the boundary to vanish as h grows. For a compactly
supported stream function it is exactly zero once the frame clears the
support, and a constant unit field (which violates the hypothesis)
converges to the perimeter integral instead.
"""

import numpy as np

from transportlab import Grid, boundary_flux_decay, unit_square, vortex_field


class UnitSpeed:
    """Constant rightward unit field: the negative control."""

    def eval(self, X, Y, t=0.0):
        return np.ones_like(X), np.zeros_like(X)


domain = unit_square()
grid = Grid(domain, 128, 128)
h_list = (4.0, 8.0, 16.0, 64.0)

print("outward boundary flux over a frame of width 1/h:")
print(f"{'h':>6} {'vortex field':>14} {'unit field':>12}")
good = boundary_flux_decay(vortex_field(domain), h_list, grid)
bad = boundary_flux_decay(UnitSpeed(), h_list, grid)
for (h, g), (_, b) in zip(good, bad):
    print(f"{h:>6g} {g:>14.3e} {b:>12.6f}")
print("the vortex flux is exactly zero once the frame misses the support;")
print("the unit field tends to 2 * perimeter = 8 and never decays.")
