"""Mollify the solution and watch the commutator remainder vanish with eps.

Smoothing the density does not commute with transporting it; the gap is the
remainder field r_eps, and its L^gamma norm on an interior region is the
whole story of why renormalization works. Two independent routes to the same
number cross-check each other here: the weak-form residual of the mollified
density against a test function, and the direct space-time pairing of r_eps
with that test function.
"""

from transportlab import (
    Grid,
    IdentityPairing,
    RemainderSweep,
    TimePartition,
    drive,
    gaussian_blob,
    iter_solution_layers,
    make_test_function,
    quadratic_decay_profile,
    shrink,
    static_field,
    unit_square,
    vortex_field,
)

domain = unit_square()
grid = Grid(domain, 128, 128)
times = TimePartition(1.0, 80)
u = vortex_field(domain)
rho0 = static_field(grid, gaussian_blob((0.6, 0.5), 0.08))

# The sweep takes the remainder of every eps on each layer as the solve
# yields it; the pairing, fed after it, checks the consistency identity at
# the coarsest eps: the weak residual of the mollified density and the
# space-time pairing of r_eps against the same test function are two
# discretizations of one identity.
eps_list = (0.1, 0.05, 0.025)
inner = shrink(domain, 0.15)
sweep = RemainderSweep(grid, times.times, u, eps_list, alpha=float("inf"), p=1.0, inner=inner)
phi = make_test_function((0.62, 0.44), 0.2, quadratic_decay_profile(times.T), domain)
pairing = IdentityPairing(sweep, phi)

print("solving 128^2, 80 layers ...")
drive(iter_solution_layers(rho0, u, times), [sweep, pairing])

curve = sweep.curve()
print(f"remainder decay in L^{curve.gamma:g} on the inner region:")
for eps, norm in zip(curve.eps, curve.norms):
    print(f"  eps = {eps:<6g} ||r_eps|| = {norm:.4e}")
print(f"  last/first = {curve.norms[-1] / curve.norms[0]:.3f}")
print()

lhs, rhs = pairing.result()
print(f"weak residual of mollified density : {lhs: .6e}")
print(f"space-time pairing of r_eps        : {rhs: .6e}")
print(f"gap                                : {abs(lhs - rhs):.2e}")
