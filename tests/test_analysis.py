"""Norm, conservation, boundary-layer, and stability checks."""

from dataclasses import dataclass

import numpy as np
import pytest

from transportlab.analysis import (
    AnalysisError,
    NormHistory,
    StabilityReport,
    amplitude_family,
    boundary_flux_decay,
    initial_data_family,
    lp_norm,
    renormalization_convergence_check,
    stability_experiment,
)
from transportlab.characteristics import (
    FlowMapIntegrator,
    drive,
    iter_solution_layers,
    solve_classical,
)
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
    for p in (0.5, np.nan):
        with pytest.raises(AnalysisError, match="p must be >= 1"):
            lp_norm(layer, grid, p)
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
# Conservation reports
# ---------------------------------------------------------------------------


def norm_reports(grid, times, values, p_list):
    """The norm history of stored layers, driven one layer at a time."""
    history = NormHistory(grid, p_list)
    drive(zip(range(len(times)), times, values), [history])
    return history.reports()


def test_norm_history_of_no_layer_is_refused():
    history = NormHistory(Grid(DOM, 8, 8), (2.0,))
    drive([], [history])
    with pytest.raises(AnalysisError, match="seen no layer"):
        history.reports()


def test_conservation_still_solve_has_zero_drift():
    grid = Grid(DOM, 64, 64)
    times = TimePartition(1.0, 20)
    sol = solve_classical(static_field(grid, gaussian_blob()), VelocityField((), DOM), times)
    for rep in norm_reports(grid, sol.times, sol.values, (1.0, 2.0, np.inf)).values():
        assert rep.drift == 0.0
        assert rep.growth == 0.0
        assert rep.statistic == 0.0


def test_conservation_vortex_drifts(vortex_solution):
    grid, _, _, _, sol = vortex_solution
    reps = norm_reports(grid, sol.times, sol.values, (1.0, 2.0, 3.0, np.inf))
    assert reps[1.0].drift < 2e-3
    assert reps[2.0].drift < 5e-3
    assert reps[3.0].drift < 6e-3
    # backward evaluation is a convex nodal average: it can flatten the sup
    # but never push it up
    assert reps[np.inf].growth == 0.0
    assert reps[np.inf].statistic == 0.0
    assert reps[2.0].statistic == reps[2.0].drift
    for rep in reps.values():
        assert rep.reference > 0.0
        assert np.all(rep.values >= 0.0)


def test_conservation_flags_nodes_beyond_tolerance(vortex_solution):
    grid, _, _, _, sol = vortex_solution
    rep = norm_reports(grid, sol.times, sol.values, (2.0,))[2.0]
    drifts = list(rep.deviations)
    # the per-node drift column peaks at the statistic a study gates
    assert max(drifts) == rep.drift == rep.statistic > 1e-6
    assert drifts[0] == 0.0 and sum(d > 1e-6 for d in drifts) > len(drifts) // 2


def test_conservation_csv_layout(vortex_solution):
    grid, times, _, _, sol = vortex_solution
    rep = norm_reports(grid, sol.times, sol.values, (2.0,))[2.0]
    # one row per time node: t, p, norm and deviation
    assert rep.times.shape == rep.values.shape == rep.deviations.shape == (times.nt + 1,)
    assert rep.deviations[0] == 0.0  # t = 0 row never deviates from itself


def test_conservation_drift_is_scale_invariant(vortex_solution):
    grid, _, _, _, sol = vortex_solution
    base = norm_reports(grid, sol.times, sol.values, (2.0, np.inf))
    big = norm_reports(grid, sol.times, 3.7 * sol.values, (2.0, np.inf))
    assert big[2.0].drift == pytest.approx(base[2.0].drift, rel=1e-10, abs=1e-14)
    assert big[np.inf].drift == pytest.approx(base[np.inf].drift, rel=1e-10, abs=1e-14)


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
    assert all(b < a for a, b in zip(rep.e, rep.e[1:]))
    assert rep.e[-1] / rep.e[0] < 0.35
    # d_n = (1/n) T ||u||_1 exactly, so the log-log slope is -1
    slope = np.polyfit(np.log(rep.n), np.log(rep.d), 1)[0]
    assert slope == pytest.approx(-1.0, abs=1e-9)
    assert len(rep.n) == len(rep.d) == len(rep.e) == 4


@pytest.mark.parametrize(
    "modulation, M_T",
    [("linear", 0.5), ("inverse_sqrt", 2.0 - 1e-3)],
    ids=["linear", "inverse_sqrt"],
)
def test_stability_velocity_distance_carries_the_time_integral(modulation, M_T):
    # u = m(t) v, so int_0^T ||u_n - u||_1 dt = M(T) ||v_n - v||_1, and the
    # amplitude family has v_n - v = v / n: m(t) = t gives M(1) = 1/2, and
    # the clipped 1/sqrt(t) gives 2 - 1e-3
    grid = Grid(DOM, 24, 24)
    times = TimePartition(1.0, 8)
    u = vortex_field(DOM, modulation=modulation)
    rho0 = static_field(grid, gaussian_blob())
    rep = stability_experiment(u, rho0, times, amplitude_family(u, rho0), [2, 4, 8])
    spatial = integrate(vortex_field(DOM).speed(*grid.meshes()), grid)
    for n, d in zip(rep.n, rep.d):
        assert d == pytest.approx(M_T * spatial / n, rel=1e-13)


def identity_family(u: VelocityField, rho0: ScalarField):
    """Perturbation n -> (u, rho0): every member is the reference problem."""

    def member(n: int):
        return u, rho0

    return member


FAMILIES = {
    "amplitude": amplitude_family,
    "initial-data": initial_data_family,
    "identity": identity_family,
}
# the p = 2 cases keep the bare family name
LOCKSTEP_CASES = [
    pytest.param(name, p, id=name if p == 2.0 else f"{name}-p{p:g}")
    for p in (2.0, 1.0, np.inf)
    for name in FAMILIES
]


@pytest.mark.parametrize("family, p", LOCKSTEP_CASES)
def test_stability_lockstep_matches_stored_route(family, p):
    grid = Grid(DOM, 48, 48)
    times = TimePartition(1.0, 60)
    u = vortex_field(DOM)
    rho0 = static_field(grid, gaussian_blob())
    fam = FAMILIES[family](u, rho0)
    ns = [2, 4, 8]
    beta = beta_smooth_approx(1.0, 10)
    rep = stability_experiment(u, rho0, times, fam, ns, p=p, betas=[beta])
    # the stored route: every problem solved and kept, then reduced
    ref = solve_classical(rho0, u, times)
    sols = [solve_classical(r0, u_n, times) for u_n, r0 in map(fam, ns)]
    e = tuple(
        max(lp_norm(s.layer(j) - ref.layer(j), grid, p) for j in range(s.n_layers))
        for s in sols
    )
    assert rep.e == e
    assert rep.renormalization == renormalization_convergence_check(sols, ref, [beta])
    assert rep.renormalization.labels == (beta.label,)
    assert stability_experiment(u, rho0, times, fam, ns).renormalization.labels == ()


@pytest.mark.parametrize(
    "family, densities, rows, per_layer",
    [("amplitude", 1, 5, 1), ("identity", 1, 1, 1), ("initial-data", 5, 1, 5)],
)
def test_stability_interpolates_once_per_stack_and_density(
    family, densities, rows, per_layer, monkeypatch
):
    # at 24^2 x 60 every amplitude member takes two substeps per layer, so
    # each family is one stack: the amplitude family's five fields are its
    # rows, the identity family's five members share one row, and the
    # initial-data family's five densities share one row. Set-up
    # interpolates each distinct density once, at the nodes themselves.
    grid = Grid(DOM, 24, 24)
    times = TimePartition(1.0, 60)
    u = vortex_field(DOM)
    rho0 = static_field(grid, gaussian_blob())
    fam = FAMILIES[family](u, rho0)
    calls, advances = [], []
    interpolate, advance = Grid.interpolate, FlowMapIntegrator.advance

    def counted_interpolate(self, values, x, y, work=None):
        calls.append(np.shape(x))
        return interpolate(self, values, x, y, work)

    def counted_advance(self, x, y, t_from, t_to, escape_tol):
        advances.append(np.shape(x))
        return advance(self, x, y, t_from, t_to, escape_tol)

    monkeypatch.setattr(Grid, "interpolate", counted_interpolate)
    monkeypatch.setattr(FlowMapIntegrator, "advance", counted_advance)
    stability_experiment(u, rho0, times, fam, [2, 4, 8, 16])
    assert len(advances) == times.nt  # one stack
    moving = int(np.count_nonzero(u.support_mask(*grid.meshes())))
    assert calls[:densities] == [grid.shape] * densities
    assert calls[densities:] == [(rows, moving)] * (per_layer * times.nt)


def test_initial_data_family_integrates_its_one_field_once(monkeypatch):
    # five densities in one field: every layer takes one advance over the
    # moving nodes, and one interpolation per member gives each its layer
    grid = Grid(DOM, 48, 48)
    times = TimePartition(1.0, 30)
    u = vortex_field(DOM)
    rho0 = static_field(grid, gaussian_blob())
    fam = initial_data_family(u, rho0)
    densities = [rho0] + [fam(n)[1] for n in (2, 4, 8, 16)]
    alone = [[layer for _, _, layer in iter_solution_layers(r, u, times)] for r in densities]
    sizes = []
    original = FlowMapIntegrator.advance

    def counted(self, x, y, t_from, t_to, escape_tol):
        sizes.append(np.size(x))
        return original(self, x, y, t_from, t_to, escape_tol)

    monkeypatch.setattr(FlowMapIntegrator, "advance", counted)
    stream = iter_solution_layers(densities, [u] * len(densities), times)
    for j, _, moving in stream:
        for m, layer in enumerate(moving.assemble()):
            assert np.array_equal(layer, alone[m][j])
    moving = int(np.count_nonzero(u.support_mask(*grid.meshes())))
    assert sizes == [moving] * times.nt


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
    assert max(b / a for a, b in zip(rep.e, rep.e[1:])) == pytest.approx(1.0)


def test_stability_validation():
    grid = Grid(DOM, 16, 16)
    times = TimePartition(1.0, 10)
    u = vortex_field(DOM)
    rho0 = static_field(grid, gaussian_blob())
    fam = amplitude_family(u, rho0)
    for n_list in ([], [4, 2], [1.5, 2.9]):
        with pytest.raises(AnalysisError):
            stability_experiment(u, rho0, times, fam, n_list)
    for p in (0.5, np.nan):
        with pytest.raises(AnalysisError, match="p must be >= 1"):
            stability_experiment(u, rho0, times, fam, [2, 4], p=p)
    with pytest.raises(AnalysisError):
        StabilityReport((2, 4), (0.1,), (0.1, 0.2), 2.0)
    with pytest.raises(AnalysisError):
        StabilityReport((2,), (-0.1,), (0.1,), 2.0)


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
    assert all(b < a for a, b in zip(trend.distances[0], trend.distances[0][1:]))


def test_renormalization_check_validation():
    grid = Grid(DOM, 16, 16)
    other = Grid(DOM, 24, 24)
    times = np.linspace(0.0, 1.0, 3)
    rho = ScalarField(grid, times, np.zeros((3,) + grid.shape))
    bad = ScalarField(other, times, np.zeros((3,) + other.shape))
    with pytest.raises(AnalysisError):
        renormalization_convergence_check([bad], rho, [beta_smooth_approx(1.0, 10)])
