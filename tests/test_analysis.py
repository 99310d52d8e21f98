"""Norm, conservation, truncation, boundary-layer, and stability checks."""

from dataclasses import dataclass

import numpy as np
import pytest

from transportlab.analysis import (
    AnalysisError,
    NormReport,
    StabilityReport,
    TruncationProfile,
    amplitude_family,
    bochner_norm_u,
    boundary_flux_decay,
    conservation_report,
    initial_data_family,
    lp_norm,
    renormalization_convergence_check,
    stability_experiment,
    truncation_thresholds,
)
from transportlab.characteristics import solve_classical
from transportlab.fields import (
    AdmissibleBeta,
    ScalarField,
    StreamFunction,
    VelocityField,
    beta_smooth_approx,
    gaussian_blob,
    static_field,
    vortex_field,
)
from transportlab.geometry import Domain, Grid, TimePartition, integrate, shrink, unit_square

DOM = unit_square()

# Trapezoid value of the standard Gaussian blob's L^3 norm on a 512^2 grid
# (4x the test grid); the integrand is smooth enough that 2048^2 moves
# this by ~1e-16.
GAUSS_P3 = 0.237545165366


@pytest.fixture(scope="module")
def vortex_solution():
    grid = Grid(DOM, 64, 64)
    times = TimePartition(1.0, 100)
    u = vortex_field(DOM)
    rho0 = static_field(grid, gaussian_blob())
    return grid, times, u, rho0, solve_classical(rho0, u, times)


@dataclass(frozen=True)
class UnitSpeed:
    """|u| = 1 everywhere: violates the boundary-vanishing hypothesis."""

    def eval(self, x, y, t=0.0):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        return np.ones(shape), np.zeros(shape)


# ---------------------------------------------------------------------------
# lp_norm
# ---------------------------------------------------------------------------


def test_lp_norm_constant():
    grid = Grid(DOM, 64, 64)
    layer = static_field(grid, lambda x, y: 2.5 + 0.0 * x).layer(0)
    for p in (1.0, 2.0, 3.0, np.inf):
        assert lp_norm(layer, grid, p) == pytest.approx(2.5, rel=1e-12)


def test_lp_norm_half_indicator():
    grid = Grid(DOM, 64, 64)
    layer = static_field(grid, lambda x, y: np.where(x < 0.5, 1.0, 0.0)).layer(0)
    assert abs(lp_norm(layer, grid, 1.0) - 0.5) <= grid.hx


def test_lp_norm_gaussian_matches_refinement_oracle():
    grid = Grid(DOM, 128, 128)
    layer = static_field(grid, gaussian_blob()).layer(0)
    assert lp_norm(layer, grid, 3.0) == pytest.approx(GAUSS_P3, rel=1e-5)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
def test_lp_norm_over_a_region_is_the_region_rule(p, rng):
    # p = inf: the sup over the nodes inside the region; finite p: the
    # region-weighted integral of |values|^p, to the power 1/p
    grid = Grid(DOM, 48, 48)
    region = shrink(DOM, 0.15)
    values = rng.standard_normal(grid.shape)
    if np.isinf(p):
        mask_x = (grid.xs >= region.x_lo) & (grid.xs <= region.x_hi)
        mask_y = (grid.ys >= region.y_lo) & (grid.ys <= region.y_hi)
        want = float(np.max(np.abs(values[np.ix_(mask_x, mask_y)])))
    else:
        want = float(integrate(np.abs(values) ** p, grid, region) ** (1.0 / p))
    assert lp_norm(values, grid, p, region) == want
    assert lp_norm(values, grid, p, None) == lp_norm(values, grid, p)


def test_lp_norm_validation():
    grid = Grid(DOM, 16, 16)
    layer = np.zeros(grid.shape)
    with pytest.raises(AnalysisError):
        lp_norm(layer, grid, 0.5)
    with pytest.raises(AnalysisError):
        lp_norm(np.zeros((4, 4)), grid, 2.0)


def test_lp_norm_of_a_region_without_nodes():
    # finite p has the cell-overlap value of the region; a sup over no node
    # is refused, naming the region
    grid = Grid(DOM, 8, 8)
    layer = np.ones(grid.shape)
    region = Domain(0.51, 0.51, 0.52, 0.52)
    assert lp_norm(layer, grid, 1.0, region) == pytest.approx(1e-4, rel=1e-12)
    with pytest.raises(AnalysisError, match=r"region \[0\.51, 0\.52\] x \[0\.51, 0\.52\]"):
        lp_norm(layer, grid, np.inf, region)


def test_lp_norm_monotone_in_the_field(rng):
    grid = Grid(DOM, 32, 32)
    small = rng.standard_normal(grid.shape)
    large = np.abs(small) + 0.1 * rng.random(grid.shape)
    for p in (1.0, 2.0, 3.0, np.inf):
        assert lp_norm(small, grid, p) <= lp_norm(large, grid, p)


def test_lp_norm_scaling(rng):
    grid = Grid(DOM, 32, 32)
    v = rng.standard_normal(grid.shape)
    assert lp_norm(3.5 * v, grid, np.inf) == 3.5 * lp_norm(v, grid, np.inf)
    for p in (1.0, 2.0):
        assert lp_norm(3.5 * v, grid, p) == pytest.approx(3.5 * lp_norm(v, grid, p), rel=1e-13)


# ---------------------------------------------------------------------------
# Bochner norms of the velocity
# ---------------------------------------------------------------------------


def test_bochner_norm_of_zero_field():
    grid = Grid(DOM, 64, 64)
    times = TimePartition(1.0, 50)
    assert bochner_norm_u(VelocityField((), DOM), grid, times) == 0.0
    assert bochner_norm_u(vortex_field(DOM, amplitude=0.0), grid, times, 1.0) == 0.0


def test_bochner_autonomous_is_time_times_spatial():
    grid = Grid(DOM, 96, 96)
    times = TimePartition(2.0, 40)
    u = vortex_field(DOM)
    X, Y = grid.meshes()
    spatial = integrate(u.speed(X, Y, 0.0), grid)
    assert bochner_norm_u(u, grid, times, 1.0) == pytest.approx(2.0 * spatial, rel=1e-13)


def test_bochner_linear_modulation_separates():
    # |m(t) v| integrates in time independently of space: m(t) = t gives
    # exactly T^2/2 times the spatial factor, and the clipped 1/sqrt(t)
    # gives 2 sqrt(T) - 1e-3
    grid = Grid(DOM, 96, 96)
    times = TimePartition(1.0, 50)
    X, Y = grid.meshes()
    spatial = integrate(vortex_field(DOM).speed(X, Y, 0.0), grid)
    got = bochner_norm_u(vortex_field(DOM, modulation="linear"), grid, times, 1.0)
    assert got == pytest.approx(0.5 * spatial, rel=1e-13)
    got = bochner_norm_u(vortex_field(DOM, modulation="inverse_sqrt"), grid, times, 1.0)
    assert got == pytest.approx((2.0 - 1e-3) * spatial, rel=1e-13)


def test_bochner_gradient_part_matches_finite_differences():
    grid = Grid(DOM, 256, 256)
    times = TimePartition(1.0, 10)
    u = vortex_field(DOM)
    with_grad = bochner_norm_u(u, grid, times, 2.0, include_gradient=True)
    without = bochner_norm_u(u, grid, times, 2.0)
    X, Y = grid.meshes()
    ux, uy = u.eval(X, Y, 0.0)
    parts = [np.gradient(ux, grid.hx, axis=0), np.gradient(ux, grid.hy, axis=1),
             np.gradient(uy, grid.hx, axis=0), np.gradient(uy, grid.hy, axis=1)]
    fd = lp_norm(np.sqrt(sum(p**2 for p in parts)), grid, 2.0)
    assert (with_grad - without) / times.T == pytest.approx(fd, rel=1e-2)


# ---------------------------------------------------------------------------
# Conservation reports
# ---------------------------------------------------------------------------


def test_conservation_still_solve_has_zero_drift():
    grid = Grid(DOM, 64, 64)
    times = TimePartition(1.0, 20)
    sol = solve_classical(static_field(grid, gaussian_blob()), VelocityField((), DOM), times)
    for rep in conservation_report(grid, sol.times, sol.values, (1.0, 2.0, np.inf)).values():
        assert rep.drift == 0.0
        assert rep.growth == 0.0
        assert rep.passed


def test_conservation_vortex_drifts(vortex_solution):
    grid, _, _, _, sol = vortex_solution
    reps = conservation_report(
        grid, sol.times, sol.values, (1.0, 2.0, 3.0, np.inf), tol=1e-2, tol_sup=1e-9
    )
    assert reps[1.0].drift < 2e-3
    assert reps[2.0].drift < 5e-3
    assert reps[3.0].drift < 6e-3
    # backward evaluation is a convex nodal average: it can flatten the sup
    # but never push it up
    assert reps[np.inf].growth == 0.0
    assert reps[np.inf].statistic == 0.0
    assert reps[2.0].statistic == reps[2.0].drift
    for rep in reps.values():
        assert rep.passed and rep.reference > 0.0
        assert np.all(rep.values >= 0.0)


def test_conservation_flags_nodes_beyond_tolerance(vortex_solution):
    grid, _, _, _, sol = vortex_solution
    rep = conservation_report(grid, sol.times, sol.values, (2.0,), tol=1e-6)[2.0]
    assert rep.flagged and not rep.passed
    assert rep.drift == rep.statistic > 1e-6


def test_conservation_csv_layout(vortex_solution):
    grid, times, _, _, sol = vortex_solution
    rep = conservation_report(grid, sol.times, sol.values, (2.0,))[2.0]
    rows = rep.csv_rows()
    assert len(rows) == times.nt + 1
    assert len(rows[0]) == len(NormReport.CSV_HEADER) == 4
    assert float(rows[0][3]) == 0.0  # t = 0 row never deviates from itself


def test_conservation_drift_is_scale_invariant(vortex_solution):
    grid, _, _, _, sol = vortex_solution
    base = conservation_report(grid, sol.times, sol.values, (2.0, np.inf))
    big = conservation_report(grid, sol.times, 3.7 * sol.values, (2.0, np.inf))
    assert big[2.0].drift == pytest.approx(base[2.0].drift, rel=1e-10, abs=1e-14)
    assert big[np.inf].drift == pytest.approx(base[np.inf].drift, rel=1e-10, abs=1e-14)


# ---------------------------------------------------------------------------
# Truncation thresholds
# ---------------------------------------------------------------------------


def brute_scan_threshold(layer, grid, eps):
    mags = np.abs(layer).reshape(-1)
    w = grid.quadrature_weights.reshape(-1)
    for M in np.unique(mags):
        if float(np.sum(mags[mags > M] * w[mags > M])) < eps:
            return float(M)
    return float(mags.max())


def test_truncation_matches_brute_force_scan():
    grid = Grid(DOM, 64, 64)
    layer = static_field(grid, gaussian_blob()).layer(0)
    prof = truncation_thresholds([layer], grid, [0.01, 0.001])
    for eps, M, tail in zip(prof.eps, prof.thresholds, prof.tails):
        assert M == brute_scan_threshold(layer, grid, eps)
        assert tail < eps


def test_truncation_bounded_family_saturates_at_the_max():
    grid = Grid(DOM, 48, 48)
    layer = static_field(grid, gaussian_blob()).layer(0)
    prof = truncation_thresholds([layer], grid, [1e-15])
    assert prof.thresholds[0] == np.max(np.abs(layer))
    assert prof.tails[0] == 0.0


def test_truncation_uniform_over_identical_copies():
    grid = Grid(DOM, 48, 48)
    layer = static_field(grid, gaussian_blob()).layer(0)
    single = truncation_thresholds([layer], grid, [0.01])
    family = truncation_thresholds([layer] * 5, grid, [0.01])
    assert family.thresholds == single.thresholds
    assert family.tails == single.tails


def test_truncation_thresholds_monotone_in_eps():
    grid = Grid(DOM, 48, 48)
    layers = [static_field(grid, gaussian_blob(sigma=s)).layer(0) for s in (0.08, 0.12)]
    prof = truncation_thresholds(layers, grid, [0.05, 0.01, 0.002])
    assert all(b >= a for a, b in zip(prof.thresholds, prof.thresholds[1:]))
    assert all(b <= a for a, b in zip(prof.tails, prof.tails[1:]))


def test_truncation_validation():
    grid = Grid(DOM, 16, 16)
    layer = np.ones(grid.shape)
    with pytest.raises(AnalysisError):
        truncation_thresholds([], grid, [0.01])
    with pytest.raises(AnalysisError):
        truncation_thresholds([np.ones((4, 4))], grid, [0.01])
    with pytest.raises(AnalysisError):
        truncation_thresholds([layer], grid, [0.0])
    with pytest.raises(AnalysisError):
        TruncationProfile((0.01,), (1.0,), (0.02,))


# ---------------------------------------------------------------------------
# Boundary-layer flux
# ---------------------------------------------------------------------------


def test_boundary_flux_compact_support_hits_exact_zero():
    grid = Grid(DOM, 128, 128)
    pairs = boundary_flux_decay(vortex_field(DOM), [4.0, 8.0, 16.0, 64.0, 256.0], grid)
    values = [v for _, v in pairs]
    assert values[0] > 0.0  # frame width 1/4 still cuts into the support
    assert all(v == 0.0 for v in values[1:])  # 1/h below the 0.2 margin
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_boundary_flux_unit_probe_saturates_at_twice_perimeter():
    grid = Grid(DOM, 128, 128)
    hs = [4.0, 16.0, 64.0, 256.0]
    pairs = boundary_flux_decay(UnitSpeed(), hs, grid)
    for h, v in pairs:
        assert v == pytest.approx(2.0 * DOM.perimeter - 8.0 / h, abs=1e-10)
    final = pairs[-1][1]
    assert abs(final - 2.0 * DOM.perimeter) / (2.0 * DOM.perimeter) < 0.02


def test_boundary_flux_validation():
    grid = Grid(DOM, 32, 32)
    u = vortex_field(DOM)
    with pytest.raises(AnalysisError):
        boundary_flux_decay(u, [8.0, 4.0], grid)
    with pytest.raises(AnalysisError):
        boundary_flux_decay(u, [-1.0, 4.0], grid)


# ---------------------------------------------------------------------------
# Stability experiment
# ---------------------------------------------------------------------------


def test_stability_amplitude_family(vortex_solution):
    grid, times, u, rho0, _ = vortex_solution
    rep = stability_experiment(u, rho0, times, amplitude_family(u, rho0), [2, 4, 8, 16])
    assert rep.monotone
    assert all(b < a for a, b in zip(rep.e, rep.e[1:]))
    assert rep.e[-1] / rep.e[0] < 0.35
    # d_n = (1/n) T ||u||_1 exactly, so the log-log slope is -1
    slope = np.polyfit(np.log(rep.n), np.log(rep.d), 1)[0]
    assert slope == pytest.approx(-1.0, abs=1e-9)
    rows = rep.csv_rows()
    assert len(rows) == 4 and all(len(r) == len(StabilityReport.CSV_HEADER) for r in rows)


@pytest.mark.parametrize(
    "family", [amplitude_family, initial_data_family], ids=["amplitude", "initial-data"]
)
def test_stability_lockstep_matches_stored_route(family):
    grid = Grid(DOM, 48, 48)
    times = TimePartition(1.0, 60)
    u = vortex_field(DOM)
    rho0 = static_field(grid, gaussian_blob())
    fam = family(u, rho0)
    ns = [2, 4, 8]
    beta = beta_smooth_approx(1.0, 10)
    rep = stability_experiment(u, rho0, times, fam, ns, betas=[beta])
    # the stored route: every problem solved and kept, then reduced
    ref = solve_classical(rho0, u, times)
    sols = [solve_classical(r0, u_n, times) for u_n, r0 in map(fam, ns)]
    e = tuple(
        max(lp_norm(s.layer(j) - ref.layer(j), grid, 2.0) for j in range(s.n_layers))
        for s in sols
    )
    assert rep.e == e
    assert rep.renormalization == renormalization_convergence_check(sols, ref, [beta])
    assert rep.renormalization.labels == (beta.label,)
    assert stability_experiment(u, rho0, times, fam, ns).renormalization.labels == ()


def test_stability_unperturbed_family_is_exactly_zero():
    grid = Grid(DOM, 48, 48)
    times = TimePartition(1.0, 30)
    u = vortex_field(DOM)
    rho0 = static_field(grid, gaussian_blob())
    rep = stability_experiment(u, rho0, times, lambda n: (u, rho0), [2, 4, 8])
    assert rep.e == (0.0, 0.0, 0.0)
    assert rep.d == (0.0, 0.0, 0.0)


def test_stability_initial_data_family_obeys_linearity_bound():
    grid = Grid(DOM, 64, 64)
    times = TimePartition(1.0, 100)
    u = vortex_field(DOM)
    rho0 = static_field(grid, gaussian_blob())
    rep = stability_experiment(u, rho0, times, initial_data_family(u, rho0), [2, 4, 8, 16])
    bump = StreamFunction((0.4, 0.6), 0.15, 1.0).value(*grid.meshes())
    for n, e in zip(rep.n, rep.e):
        assert e <= lp_norm(bump / n, grid, 2.0) + 1e-3


def test_stability_reports_non_decaying_family():
    # a family that never approaches the reference is measured, not refused:
    # the caller reads e_n and judges the decay
    grid = Grid(DOM, 48, 48)
    times = TimePartition(1.0, 30)
    u = VelocityField((), DOM)
    rho0 = static_field(grid, gaussian_blob())
    bump = StreamFunction((0.4, 0.6), 0.15, 1.0).value(*grid.meshes())

    def stuck(n):
        return u, ScalarField(grid, rho0.times, rho0.values + bump[None])

    rep = stability_experiment(u, rho0, times, stuck, [2, 4, 8])
    assert rep.e[0] > 0.0
    assert rep.e[0] == pytest.approx(rep.e[-1])
    assert rep.e[-1] >= rep.e[0] / 2.0
    assert rep.monotone


def test_stability_validation():
    grid = Grid(DOM, 16, 16)
    times = TimePartition(1.0, 10)
    u = vortex_field(DOM)
    rho0 = static_field(grid, gaussian_blob())
    fam = amplitude_family(u, rho0)
    with pytest.raises(AnalysisError):
        stability_experiment(u, rho0, times, fam, [])
    with pytest.raises(AnalysisError):
        stability_experiment(u, rho0, times, fam, [4, 2])
    with pytest.raises(AnalysisError):
        StabilityReport((2, 4), (0.1,), (0.1, 0.2), 2.0, True)
    with pytest.raises(AnalysisError):
        StabilityReport((2,), (-0.1,), (0.1,), 2.0, True)


def test_stability_coarse_grid_does_not_manufacture_instability(vortex_solution):
    _, _, u, _, _ = vortex_solution
    coarse_grid = Grid(DOM, 64, 64)
    fine_grid = Grid(DOM, 96, 96)
    e = {}
    for grid, nt in ((coarse_grid, 100), (fine_grid, 150)):
        rho0 = static_field(grid, gaussian_blob())
        times = TimePartition(1.0, nt)
        rep = stability_experiment(u, rho0, times, amplitude_family(u, rho0), [2, 4, 8, 16])
        e[grid.nx] = rep.e
    for coarse, fine in zip(e[64], e[96]):
        assert coarse <= fine + 1e-3


# ---------------------------------------------------------------------------
# Renormalized convergence
# ---------------------------------------------------------------------------


def test_renormalization_check_zero_cases():
    grid = Grid(DOM, 32, 32)
    times = TimePartition(1.0, 10)
    u = vortex_field(DOM)
    rho = solve_classical(static_field(grid, gaussian_blob()), u, times)
    zero_beta = AdmissibleBeta(
        "zero",
        lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        0.0,
        True,
    )
    trend = renormalization_convergence_check(
        [rho, rho], rho, [beta_smooth_approx(1.0, 10), zero_beta]
    )
    assert trend.distances == ((0.0, 0.0), (0.0, 0.0))
    assert trend.decreasing == (True, True)


def test_renormalization_check_on_stability_outputs():
    grid = Grid(DOM, 48, 48)
    times = TimePartition(1.0, 60)
    u = vortex_field(DOM)
    rho0 = static_field(grid, gaussian_blob())
    ref = solve_classical(rho0, u, times)
    sols = []
    for n in (2, 4, 8):
        u_n, rho0_n = amplitude_family(u, rho0)(n)
        sols.append(solve_classical(rho0_n, u_n, times))
    trend = renormalization_convergence_check(sols, ref, [beta_smooth_approx(1.0, 10)])
    assert trend.decreasing == (True,)
    assert all(b < a for a, b in zip(trend.distances[0], trend.distances[0][1:]))


def test_renormalization_check_validation():
    grid = Grid(DOM, 16, 16)
    other = Grid(DOM, 24, 24)
    times = np.linspace(0.0, 1.0, 3)
    rho = ScalarField(grid, times, np.zeros((3,) + grid.shape))
    bad = ScalarField(other, times, np.zeros((3,) + other.shape))
    with pytest.raises(AnalysisError):
        renormalization_convergence_check([bad], rho, [beta_smooth_approx(1.0, 10)])
