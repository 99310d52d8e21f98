"""Test the solved density against the weak form, plain and renormalized.

A classical solution pushed through any admissible beta should still be a
weak solution, so both the raw residual and the beta(rho) residuals ought
to sit at quadrature-error level. The test functions are compact space-time
bumps placed off the vortex center; a bump centered on the vortex would
kill the advective term by symmetry and test nothing.
"""

from transportlab import (
    Grid,
    ResidualAccumulator,
    TimePartition,
    beta_bounded_power,
    beta_smooth_approx,
    beta_truncation,
    cosine_decay_profile,
    drive,
    gaussian_blob,
    iter_solution_layers,
    make_test_function,
    quadratic_decay_profile,
    static_field,
    unit_square,
    vortex_field,
)

domain = unit_square()
grid = Grid(domain, 96, 96)
times = TimePartition(1.0, 120)
u = vortex_field(domain)
rho0 = static_field(grid, gaussian_blob((0.6, 0.5), 0.08))

phis = [
    make_test_function((0.62, 0.44), 0.2, quadratic_decay_profile(times.T), domain),
    make_test_function((0.38, 0.58), 0.2, cosine_decay_profile(times.T), domain),
    make_test_function((0.5, 0.68), 0.2, quadratic_decay_profile(times.T), domain),
]
betas = [
    None,
    beta_truncation(10.0),
    beta_smooth_approx(1.0, 10),
    beta_bounded_power(2.0, 4.0, 10),
]

# one backward solve drives one accumulator that pairs every beta with
# every test function; it reads each layer on the nodes the solve moves,
# and evaluates each beta once per layer on those of its nodes
bank = ResidualAccumulator(grid, times.times, u, phis, betas)
drive(iter_solution_layers(rho0, u, times), [bank])
reports = bank.report()

print(f"{'test function':<36} {'beta':<14} {'residual':>10}")
for rep in reports:
    label = rep.beta if rep.beta is not None else "identity"
    print(f"{rep.phi:<36} {label:<14} {rep.residual:>10.3e}")

worst = max(rep.residual for rep in reports)
print()
print(f"worst residual {worst:.3e}; refining the grid and the time partition")
print("together drives it down at second order (see the study runner).")
