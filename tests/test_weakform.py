"""Weak-form residuals, mollification, and commutator remainder checks."""

import numpy as np
import pytest
import scipy.fft
from numpy.fft import irfft2, rfft2

from conftest import (
    bank_betas,
    consistency_identity,
    off_center_phi,
    stored_layers,
    stored_residual,
    whole_views,
)
from transportlab.characteristics import drive, iter_solution_layers, solve_classical
from transportlab.fields import (
    ScalarField,
    TestFunction as SpaceTimeBump,
    VelocityField,
    gaussian_blob,
    make_kernel,
    make_test_function,
    quadratic_decay_profile,
    static_field,
    vortex_field,
)
from transportlab.geometry import (
    Grid,
    TimePartition,
    integrate,
    region_box,
    shrink,
    trapezoid_weights,
    unit_square,
    window_box,
)
from transportlab.studies import PROBE_CENTER, PROBE_RADIUS, _phi_bank
from transportlab.weakform import (
    IdentityPairing,
    LayerTransforms,
    RemainderCurve,
    RemainderSweep,
    ResidualAccumulator,
    WeakformError,
    _fast_len,
    _window_inverse,
    _window_radius,
    _window_spectra,
    commutator_at_points,
    commutator_remainder,
    gamma_exponent,
    mollify_at_points,
    mollify_density,
)

DOM = unit_square()

# Probe points kept off the y = 0.5 symmetry line of the standard vortex,
# where the remainder vanishes identically and relative errors lose meaning.
PROBES_X = np.array([0.55, 0.68, 0.52])
PROBES_Y = np.array([0.45, 0.54, 0.61])

# Windowed trapezoid quadrature of int rho(y) eta_eps(x - y) dy for the
# standard Gaussian blob, eps = 0.05, on a 1024^2 grid (4x the test grid;
# a further doubling moves these by ~1e-10).
MOLL_ORACLE = np.array([0.655976986899, 0.524970173624, 0.240649831466])

# Same quadrature for int rho(y) (u(x)-u(y)) . grad(eta_eps)(y-x) dy with
# the standard vortex, eps = 0.05, on a 2560^2 grid (stable to ~2e-7
# relative against the 1280^2 pass).
COMM_ORACLE = np.array([0.031028790616, 0.018246945954, -0.006040439906])


STILL = VelocityField((), DOM)


def small_solution(n=64, nt=50, field=None):
    grid = Grid(DOM, n, n)
    times = TimePartition(1.0, nt)
    u = vortex_field(DOM) if field is None else field
    rho0 = static_field(grid, gaussian_blob())
    return grid, times, u, rho0, solve_classical(rho0, u, times)


# ---------------------------------------------------------------------------
# Weak residuals
# ---------------------------------------------------------------------------


def test_still_field_residual_telescopes():
    # u = 0 freezes the density, the advective term vanishes, and the time
    # trapezoid integrates the linear psi' exactly, so the time and initial
    # terms cancel to machine precision.
    _, _, u, rho0, sol = small_solution(64, 20, field=VelocityField((), DOM))
    rep = stored_residual(sol, u, off_center_phi())
    assert rep.residual < 1e-14
    assert abs(rep.term_time) > 1e-3
    assert abs(rep.term_initial) > 1e-3
    assert rep.term_advective == 0.0


def test_classical_solution_residual_small_and_refines(half_case):
    grid, times, u, rho0, sol = small_solution(64, 250)
    phi = off_center_phi()
    coarse = stored_residual(sol, u, phi).residual
    fine = half_case.residuals[phi.label, None].residual
    assert coarse < 1e-3
    assert fine < 1e-4
    assert fine < coarse / 2.5


def test_scaled_solution_residual_large(half_case):
    # Multiplying the solution while keeping rho0 breaks the identity by an
    # O(1) margin: the initial term no longer cancels the time term. The
    # case pairs 1.5 times every later layer's moving values with the
    # unscaled layer 0.
    rep = half_case.scaled_residual
    assert rep.phi == off_center_phi().label
    assert rep.residual > 1e-2


def test_report_metadata_and_invariant():
    _, _, u, rho0, sol = small_solution(48, 20)
    rep = stored_residual(sol, u, off_center_phi())
    assert rep.residual == abs(rep.term_time + rep.term_initial + rep.term_advective)
    assert rep.phi.startswith("bump[0.62,0.44")
    assert rep.beta is None


def test_residual_terms_are_linear():
    grid = Grid(DOM, 32, 32)
    times = np.linspace(0.0, 1.0, 4)
    X, Y = grid.meshes()
    layers_a = np.stack([(1 + t) * np.sin(np.pi * X) * np.sin(np.pi * Y) for t in times])
    layers_b = np.stack([np.exp(-t) * X * (1 - Y) for t in times])
    fa = ScalarField(grid, times, layers_a)
    fb = ScalarField(grid, times, layers_b)
    fab = ScalarField(grid, times, layers_a + layers_b)
    u = vortex_field(DOM)
    phi = off_center_phi()
    ra = stored_residual(fa, u, phi)
    rb = stored_residual(fb, u, phi)
    rab = stored_residual(fab, u, phi)
    assert rab.term_time == pytest.approx(ra.term_time + rb.term_time, abs=1e-13)
    assert rab.term_initial == pytest.approx(ra.term_initial + rb.term_initial, abs=1e-13)
    assert rab.term_advective == pytest.approx(
        ra.term_advective + rb.term_advective, abs=1e-13
    )


def test_residual_validation():
    grid, times, u, rho0, sol = small_solution(32, 10)
    other = make_test_function(
        (0.5, 0.5), 0.2, quadratic_decay_profile(1.0), shrink(DOM, 0.01)
    )
    with pytest.raises(WeakformError):
        stored_residual(sol, u, other)
    touching = SpaceTimeBump((0.9, 0.5), 0.3, 1.0, quadratic_decay_profile(1.0), DOM)
    with pytest.raises(WeakformError):
        stored_residual(sol, u, touching)
    late = make_test_function((0.5, 0.5), 0.2, quadratic_decay_profile(2.0), DOM)
    with pytest.raises(WeakformError):
        stored_residual(sol, u, late)
    single = ScalarField(grid, sol.times[:1], sol.values[:1])
    with pytest.raises(WeakformError):
        stored_residual(single, u, off_center_phi())


def test_accumulator_requires_ordered_complete_layers():
    grid, times, u, rho0, sol = small_solution(32, 5)
    acc = ResidualAccumulator(grid, sol.times, u, [off_center_phi()])
    views = list(whole_views(stored_layers(sol)))
    with pytest.raises(WeakformError):
        acc.add_layer(*views[1])
    acc.add_layer(*views[0])
    with pytest.raises(WeakformError):
        acc.report()
    # a layer on other nodes than the first layer's is refused
    with pytest.raises(WeakformError, match="share the first layer's nodes"):
        acc.add_layer(1, sol.times[1], views[1][2]._replace(nodes=views[1][2].nodes.copy()))


def driven_bank(rho0, u, times, phis, betas=(None,)):
    """One solve driven into one accumulator, as the renorm study runs it."""
    acc = ResidualAccumulator(rho0.grid, times.times, u, phis, betas)
    drive(iter_solution_layers(rho0, u, times), [acc])
    return acc.report()


# A bank reduces each beta against every part in one matrix-vector product
# over its distinct nodes, so a pair sums its one-pair accumulator's terms
# in another order; the gap measured on these tests' banks is at most
# 1.2e-15 of the pair's largest term.
PAIR_RTOL = 1e-14


def assert_pairs_like_one_pair_accumulators(reports, pairs, sol, u):
    """Each pair's terms are its one-pair accumulator's, summed in another
    order: within PAIR_RTOL of the largest of its three terms."""
    assert len(reports) == len(pairs)
    for rep, (phi, beta) in zip(reports, pairs):
        ref = stored_residual(sol, u, phi, beta=beta)
        assert (rep.phi, rep.beta) == (ref.phi, ref.beta)
        got = np.array([rep.term_time, rep.term_initial, rep.term_advective])
        want = np.array([ref.term_time, ref.term_initial, ref.term_advective])
        gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert gap <= PAIR_RTOL, (rep.phi, rep.beta, got, want)


def test_streamed_matches_stored():
    grid, times, u, rho0, sol = small_solution(64, 50)
    phis = [off_center_phi(), make_test_function((0.4, 0.58), 0.18, quadratic_decay_profile(1.0), DOM)]
    betas = bank_betas("clip[1]~k10")
    streamed = driven_bank(rho0, u, times, phis, betas)
    pairs = [(phi, beta) for beta in betas for phi in phis]
    assert_pairs_like_one_pair_accumulators(streamed, pairs, sol, u)


def mixed_bank():
    # unequal radii give unequal node boxes; the small ball sits near the
    # (x_hi, y_lo) corner of the union box and away from the vortex
    prof = quadratic_decay_profile(1.0)
    return [
        make_test_function((0.45, 0.45), 0.3, prof, DOM),
        make_test_function((0.4, 0.58), 0.2, prof, DOM),
        make_test_function((0.8, 0.2), 0.05, prof, DOM),
    ]


def _full_grid_terms(sol, rho0, u, phi, beta):
    """The three weak-form terms by full-grid sums, one layer at a time, each
    with the sum of the absolute values of its summands (its scale)."""
    grid = sol.grid
    X, Y = grid.meshes()
    w = grid.quadrature_weights
    phi_w = phi.spatial(X, Y) * w
    gx, gy = phi.spatial_gradient(X, Y)
    t = sol.times
    tw = np.empty(t.size)
    tw[1:-1] = 0.5 * (t[2:] - t[:-2])
    tw[0] = 0.5 * (t[1] - t[0])
    tw[-1] = 0.5 * (t[-1] - t[-2])
    terms = np.zeros(3)
    scales = np.zeros(3)
    for j in range(sol.n_layers):
        vals = beta(sol.layer(j)) if beta is not None else sol.layer(j)
        ux, uy = u.eval(X, Y, t[j])
        time_part = -tw[j] * phi.time_profile.derivative(t[j]) * (vals * phi_w)
        adv_w = ux * (gx * w) + uy * (gy * w)
        adv_part = tw[j] * phi.time_profile.value(t[j]) * (vals * adv_w)
        terms[[0, 2]] += np.sum(time_part), np.sum(adv_part)
        scales[[0, 2]] += np.sum(np.abs(time_part)), np.sum(np.abs(adv_part))
    vals0 = beta(rho0.layer(0)) if beta is not None else rho0.layer(0)
    initial_part = -phi.time_profile.value(t[0]) * (vals0 * phi_w)
    terms[1], scales[1] = np.sum(initial_part), np.sum(np.abs(initial_part))
    return terms, scales


def test_boxed_bank_matches_full_grid_sums():
    grid, times, u, rho0, sol = small_solution(64, 20)
    phis = mixed_bank()
    betas = bank_betas("clip[1]~k10", "const[0.7]")
    acc = ResidualAccumulator(grid, sol.times, u, phis, betas)
    drive(whole_views(stored_layers(sol)), [acc])
    reports = acc.report()
    pairs = [(phi, beta) for beta in betas for phi in phis]
    for rep, (phi, beta) in zip(reports, pairs):
        ref, scale = _full_grid_terms(sol, rho0, u, phi, beta)
        got = np.array([rep.term_time, rep.term_initial, rep.term_advective])
        # relative to the summands' scale: under a constant beta the
        # advective term integrates a divergence, ~1e-4 of its summands
        assert np.all(np.abs(got - ref) <= 1e-13 * scale), (rep.phi, rep.beta, got, ref)
    # the small ball lies outside the vortex, so only its advective terms
    # are exact zeros on the density itself
    assert all(rep.term_time != 0.0 and rep.term_initial != 0.0 for rep in reports)
    assert [rep.term_advective == 0.0 for rep in reports[:3]] == [False, False, True]


def test_support_between_nodes_pairs_to_zero():
    # on an 8 x 8 grid the nearest node is 0.088 away from this center
    grid, times, u, rho0, sol = small_solution(8, 5)
    empty = make_test_function((0.5625, 0.5625), 0.03, quadratic_decay_profile(1.0), DOM)
    reports = driven_bank(rho0, u, times, [empty, off_center_phi()])
    assert (reports[0].term_time, reports[0].term_initial, reports[0].term_advective) == (
        0.0,
        0.0,
        0.0,
    )
    assert reports[1].term_time != 0.0
    alone = driven_bank(rho0, u, times, [empty])[0]
    assert alone.residual == 0.0


def test_unequal_boxes_pair_like_one_pair_accumulators():
    grid, times, u, rho0, sol = small_solution(64, 20)
    phis = mixed_bank()
    betas = bank_betas("clip[1]~k10")
    bank = driven_bank(rho0, u, times, phis, betas)
    pairs = [(phi, beta) for beta in betas for phi in phis]
    assert_pairs_like_one_pair_accumulators(bank, pairs, sol, u)


def test_shared_spatial_parts_pair_like_one_pair_accumulators():
    # the studies' bank pairs each center with two time profiles; the pairs
    # that share a spatial part share its two weight rows, and every pair
    # is its own one-pair accumulator to roundoff
    grid, times, u, rho0, sol = small_solution(64, 20)
    phis = _phi_bank(DOM, 1.0) + mixed_bank()[:1]
    betas = bank_betas("clip[1]~k10", "pow[2|4]~k10")
    acc = ResidualAccumulator(grid, sol.times, u, phis, betas)
    assert len(phis) == 7 and acc._weights.shape[0] == 2 * 4
    drive(whole_views(stored_layers(sol)), [acc])
    pairs = [(phi, beta) for beta in betas for phi in phis]
    assert_pairs_like_one_pair_accumulators(acc.report(), pairs, sol, u)


def test_study_bank_pairs_like_one_pair_accumulators():
    # every beta of the studies' bank, on a density that reaches the
    # rounding window of the smooth clip and the saturation window of the
    # power: each pair is its own one-pair accumulator to roundoff
    grid, times, u, rho0, sol = small_solution(64, 20)
    sol = ScalarField(grid, sol.times, 2.5 * sol.values)
    assert np.any((sol.values > 0.9) & (sol.values < 1.1))
    assert np.any((sol.values**2 > 3.9) & (sol.values**2 < 4.1))
    phis = _phi_bank(DOM, 1.0) + mixed_bank()
    betas = bank_betas("clip[10]", "clip[1]~k10", "pow[2|4]~k10", "const[0.7]")
    acc = ResidualAccumulator(grid, sol.times, u, phis, betas)
    drive(whole_views(stored_layers(sol)), [acc])
    pairs = [(phi, beta) for beta in betas for phi in phis]
    reports = acc.report()
    assert len(reports) == 5 * 9
    assert_pairs_like_one_pair_accumulators(reports, pairs, sol, u)


def test_accumulator_weights_advective_layers_by_trapezoid_times_m():
    # each layer's advective part sums enter with trapezoid weight times the
    # scalar m(t_j) times psi(t_j), as written out here
    u = vortex_field(DOM, modulation="linear")
    grid, times, u, rho0, sol = small_solution(32, 8, field=u)
    phis = mixed_bank()
    betas = bank_betas("clip[1]~k10")
    acc = ResidualAccumulator(grid, sol.times, u, phis, betas)
    tw = trapezoid_weights(sol.times)
    want = np.zeros((len(betas), len(phis)))
    # every node of a whole view moves, so a layer's still part sums to 0
    drive(whole_views(stored_layers(sol)), [acc])
    assert not np.any(acc._still_sums)
    for j in range(sol.n_layers):
        t = float(sol.times[j])
        psi = np.array([float(phi.time_profile.value(t)) for phi in phis])
        sums = acc._pair_sums(sol.layer(j).ravel().take(acc._nodes[acc._at]), acc._moving_w)
        want += tw[j] * u.modulation.value(t) * psi * sums[..., 1]
    assert np.array_equal(acc.term_advective, want)
    assert np.count_nonzero(want) == 4  # the small ball lies outside the vortex


def test_accumulator_rejects_layers_off_the_grid():
    grid, times, u, rho0, sol = small_solution(32, 5)
    acc = ResidualAccumulator(grid, sol.times, u, [off_center_phi()])
    with pytest.raises(WeakformError, match="layer shape"):
        drive(whole_views([(0, 0.0, sol.layer(0)[:-1])]), [acc])


# ---------------------------------------------------------------------------
# Renormalized residuals
# ---------------------------------------------------------------------------


def test_identity_clip_renormalization_matches_plain(half_case):
    label = off_center_phi().label
    plain = half_case.residuals[label, None]
    clipped = half_case.residuals[label, "clip[10]"]
    # clipping at a level above max|rho| is the identity on every layer
    assert clipped.term_time == plain.term_time
    assert clipped.term_initial == plain.term_initial
    assert clipped.term_advective == plain.term_advective
    assert clipped.beta is not None


def test_smooth_clip_renormalization_small(half_case):
    rep = half_case.residuals[off_center_phi().label, "clip[1]~k10"]
    assert rep.residual < 1e-3


def test_constant_beta_residual_vanishes(half_case):
    # beta(rho) constant in space and time: the time and initial terms
    # telescope and the advective term is the integral of a divergence.
    rep = half_case.residuals[off_center_phi().label, "const[0.7]"]
    assert rep.residual < 1e-6


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------


def mollified(grid, layer, kern):
    """The layer of rho_eps, through a holder of its own."""
    return mollify_density(LayerTransforms(grid, layer, STILL, 0.0, kern.eps), kern)


def remainder(grid, layer, u, kern, t=0.0):
    """The layer of r_eps, through a holder of its own."""
    return commutator_remainder(LayerTransforms(grid, layer, u, t, kern.eps), kern)


def test_mollify_reproduces_constants_and_linears():
    grid = Grid(DOM, 256, 256)
    kern = make_kernel(eps=0.1)
    X, Y = grid.meshes()
    const = mollified(grid, 3.0 + 0.0 * X, kern)
    region = shrink(DOM, 0.1)
    in_x = (grid.xs >= region.x_lo) & (grid.xs <= region.x_hi)
    in_y = (grid.ys >= region.y_lo) & (grid.ys <= region.y_hi)
    box = np.ix_(in_x, in_y)
    assert np.max(np.abs(const[box] - 3.0)) < 1e-6
    linear = mollified(grid, X + 0.0 * Y, kern)
    assert np.max(np.abs(linear - X)[box]) < 1e-6


def test_mollify_gaussian_matches_refined_quadrature():
    grid = Grid(DOM, 256, 256)
    rho = static_field(grid, gaussian_blob())
    got = mollify_at_points(grid, rho.layer(0), make_kernel(eps=0.05), PROBES_X, PROBES_Y)
    assert np.max(np.abs(got - MOLL_ORACLE)) < 1e-4


def test_mollify_at_points_matches_layer_nodes():
    grid = Grid(DOM, 64, 64)
    rho = static_field(grid, gaussian_blob())
    kern = make_kernel(eps=0.1)
    layer = mollified(grid, rho.layer(0), kern)
    i = [19, 32, 40]
    j = [26, 32, 49]
    pts = mollify_at_points(grid, rho.layer(0), kern, grid.xs[i], grid.ys[j])
    assert np.max(np.abs(pts - layer[i, j])) < 1e-14


def test_mollify_scale_must_leave_interior():
    grid = Grid(DOM, 32, 32)
    rho = static_field(grid, gaussian_blob())
    with pytest.raises(WeakformError):
        mollified(grid, rho.layer(0), make_kernel(eps=0.5))


def test_mollification_contracts_lp_norms():
    grid = Grid(DOM, 128, 128)
    rho = static_field(grid, gaussian_blob())
    base = rho.layer(0)
    layer = mollified(grid, base, make_kernel(eps=0.1))
    region = shrink(DOM, 0.1)
    for p in (1.0, 2.0):
        inner = integrate(np.abs(layer) ** p, grid, region) ** (1 / p)
        full = integrate(np.abs(base) ** p, grid) ** (1 / p)
        assert inner <= full
    in_x = (grid.xs >= region.x_lo) & (grid.xs <= region.x_hi)
    in_y = (grid.ys >= region.y_lo) & (grid.ys <= region.y_hi)
    assert np.max(np.abs(layer[np.ix_(in_x, in_y)])) <= np.max(np.abs(base))


def test_mollified_density_converges_as_eps_shrinks():
    grid = Grid(DOM, 256, 256)
    rho = static_field(grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    base = rho.layer(0)
    omega0 = shrink(DOM, 0.2)
    for p in (1.0, 2.0):
        diffs = []
        for eps in (0.16, 0.08, 0.04, 0.02):
            layer = mollified(grid, base, make_kernel(eps=eps))
            diffs.append(
                integrate(np.abs(layer - base) ** p, grid, omega0) ** (1 / p)
            )
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-3


# ---------------------------------------------------------------------------
# Commutator remainder
# ---------------------------------------------------------------------------


def test_commutator_vanishes_for_degenerate_inputs():
    grid = Grid(DOM, 64, 64)
    kern = make_kernel(eps=0.1)
    rem = remainder(grid, np.zeros(grid.shape), vortex_field(DOM), kern)
    assert np.max(np.abs(rem)) == 0.0
    rho = static_field(grid, gaussian_blob())
    rem = remainder(grid, rho.layer(0), VelocityField((), DOM), kern)
    assert np.max(np.abs(rem)) == 0.0


def test_commutator_matches_refined_quadrature():
    grid = Grid(DOM, 1280, 1280)
    rho = static_field(grid, gaussian_blob())
    got = commutator_at_points(
        grid, rho.layer(0), vortex_field(DOM), make_kernel(eps=0.05), PROBES_X, PROBES_Y
    )
    assert np.max(np.abs(got - COMM_ORACLE) / np.abs(COMM_ORACLE)) < 1e-4


def test_commutator_at_points_matches_layer_nodes():
    grid = Grid(DOM, 64, 64)
    rho = static_field(grid, gaussian_blob())
    u = vortex_field(DOM)
    kern = make_kernel(eps=0.1)
    layer = remainder(grid, rho.layer(0), u, kern)
    i = [19, 32, 40]
    j = [26, 32, 49]
    pts = commutator_at_points(grid, rho.layer(0), u, kern, grid.xs[i], grid.ys[j])
    assert np.max(np.abs(pts - layer[i, j])) < 1e-14


def _direct_point_sums(grid, layer, u, kern, x0, y0, t):
    """rho_eps and r_eps at (x0, y0) by a double loop over every node within
    eps of it on each axis."""
    w = grid.quadrature_weights
    moll = comm = 0.0
    ux0, uy0 = u.eval(x0, y0, t)
    for i, x in enumerate(grid.xs):
        for j, y in enumerate(grid.ys):
            if abs(x - x0) <= kern.eps and abs(y - y0) <= kern.eps:
                F = layer[i, j] * w[i, j]
                moll += float(kern.value(x0 - x, y0 - y)) * F
                g1, g2 = (float(g) for g in kern.grad(x - x0, y - y0))
                ux, uy = u.eval(x, y, t)
                comm += F * ((ux0 - ux) * g1 + (uy0 - uy) * g2)
    return moll, comm


# (x0, y0) on a 40 x 30 grid of the unit square, eps = 0.2: windows clipped
# at the left edge, at the top edge and at the (x_hi, y_lo) corner
CLIPPED_POINTS = [(0.04, 0.52), (0.47, 0.95), (0.9, 0.12)]


@pytest.mark.parametrize("x0, y0", CLIPPED_POINTS)
def test_point_gathers_at_a_clipped_window_match_a_direct_loop(x0, y0):
    grid = Grid(DOM, 40, 30)
    layer = static_field(grid, gaussian_blob()).layer(0) + 0.25
    # a vortex reaching into every clipped window, so no remainder is zero
    u = vortex_field(DOM, radius=0.45, modulation="linear")
    kern, t = make_kernel(eps=0.2), 0.3
    rows, cols = window_box(grid, x0, y0, kern.eps)
    assert rows.start == 0 or cols.start == 0 or rows.stop == 41 or cols.stop == 31
    moll, comm = _direct_point_sums(grid, layer, u, kern, x0, y0, t)
    assert moll != 0.0 and comm != 0.0
    assert mollify_at_points(grid, layer, kern, x0, y0) == pytest.approx(moll, rel=1e-13)
    got = commutator_at_points(grid, layer, u, kern, x0, y0, t)
    assert got == pytest.approx(comm, rel=1e-12)


def test_point_gathers_of_an_empty_window_are_zero():
    # eps below half a cell, centred between nodes: no node in the window
    grid = Grid(DOM, 8, 8)
    layer, kern = np.ones(grid.shape), make_kernel(eps=0.05)
    x0, y0 = 4.5 / 8, 3.5 / 8
    assert np.ones(grid.shape)[window_box(grid, x0, y0, kern.eps)].size == 0
    assert mollify_at_points(grid, layer, kern, x0, y0) == 0.0
    assert commutator_at_points(grid, layer, vortex_field(DOM), kern, x0, y0, 0.2) == 0.0


def test_point_gathers_of_a_batch_are_each_point_alone():
    grid = Grid(DOM, 40, 30)
    layer = static_field(grid, gaussian_blob()).layer(0)
    u, kern, t = vortex_field(DOM), make_kernel(eps=0.2), 0.4
    points = CLIPPED_POINTS + [(0.55, 0.45), (0.68, 0.54), (0.5125, 0.55)]
    xs, ys = (np.array(c).reshape(2, 3) for c in zip(*points))
    moll = mollify_at_points(grid, layer, kern, xs, ys)
    comm = commutator_at_points(grid, layer, u, kern, xs, ys, t)
    assert moll.shape == comm.shape == (2, 3)
    for idx in np.ndindex(xs.shape):
        x0, y0 = xs[idx], ys[idx]
        assert moll[idx] == mollify_at_points(grid, layer, kern, x0, y0)
        assert comm[idx] == commutator_at_points(grid, layer, u, kern, x0, y0, t)


@pytest.mark.parametrize("nx, ny", [(64, 64), (128, 128), (97, 64)])
def test_every_bank_node_lies_in_its_supports_window(nx, ny):
    # IdentityPairing widens its sweep's box by this window alone, so every
    # node its bank reads must lie inside it
    grid, u = Grid(DOM, nx, ny), vortex_field(DOM)
    times = TimePartition(1.0, 4).times
    probe = make_test_function(PROBE_CENTER, PROBE_RADIUS, quadratic_decay_profile(1.0), DOM)
    for phi in _phi_bank(DOM, 1.0) + [probe]:
        bank = ResidualAccumulator(grid, times, u, [phi])._bank
        inside = np.zeros(grid.shape, dtype=bool)
        inside[window_box(grid, *phi.center, phi.radius)] = True
        assert bank.size and inside.ravel()[bank].all()


def _direct_window_layers(rho, u, kern):
    """Mollified and remainder layers by a direct sum over each node's
    window, one stencil offset at a time, with the same nodal stencil and
    zero data outside the grid."""
    grid = rho.grid
    Kx = int(np.floor(kern.eps / grid.hx))
    Ky = int(np.floor(kern.eps / grid.hy))
    F = rho.layer(0) * grid.quadrature_weights
    X, Y = grid.meshes()
    ux, uy = u.eval(X, Y, 0.0)
    n1, n2 = grid.shape
    moll = np.zeros(grid.shape)
    rem = np.zeros(grid.shape)
    for a in range(-Kx, Kx + 1):
        for b in range(-Ky, Ky + 1):
            # the nodes m whose neighbour m + (a, b) lies on the grid
            at = np.s_[max(0, -a) : min(n1, n1 - a), max(0, -b) : min(n2, n2 - b)]
            nb = np.s_[max(0, a) : min(n1, n1 + a), max(0, b) : min(n2, n2 + b)]
            ox, oy = a * grid.hx, b * grid.hy
            moll[at] += kern.value(ox, oy) * F[nb]
            g1, g2 = kern.grad(ox, oy)
            rem[at] += F[nb] * ((ux[at] - ux[nb]) * g1 + (uy[at] - uy[nb]) * g2)
    return moll, rem


class _UncheckedTransforms(LayerTransforms):
    """A holder that serves any kernel, whether its windows fit or not."""

    def spectra(self, kernel):
        return _window_spectra(kernel, self.grid, self.shape)


def _at_shape(holder, shape):
    """The holder with its transforms taken at `shape`, not at its eps's."""
    holder.shape = shape
    return holder


@pytest.mark.parametrize(
    "nx, ny, eps",
    [
        (17, 11, 0.2),  # Kx = 3, 2, 1 and Ky = 2, 1, 1
        (21, 13, 0.45),  # Kx = 9, 6, 4, 3, 2 and Ky = 5, 3, 2, 1, 1: windows span most of the grid
    ],
)
def test_fft_layers_match_direct_window_sums(nx, ny, eps):
    # every eps of a decreasing sweep up to eps, served by the sweep's one
    # holder, taken for the largest eps on the sweep's box, is the linear
    # window sum at every node of that box; so is every eps through box
    # holders taken for the largest eps at a corner, where the widening is
    # clipped on two sides, and across the grid, and each eps through a
    # whole-grid holder of its own and at the shortest exact shape, n + K
    # per axis
    eps_list = [e for e in (0.45, 0.3, 0.2, 0.15, 0.1) if e <= eps]
    grid = Grid(DOM, nx, ny)
    rng = np.random.default_rng(7)
    rho = ScalarField(grid, np.array([0.0]), rng.uniform(0.0, 1.0, (1, *grid.shape)))
    layer = rho.layer(0)
    u = vortex_field(DOM)
    kernels = [make_kernel(eps=e) for e in eps_list]
    sweep = RemainderSweep(grid, [0.0, 1.0], u, eps_list, 2.0, 2.0, shrink(DOM, eps + 0.01))
    sweep.add_layer(0, 0.0, layer)
    shared, swept = sweep.transforms, sweep.remainders
    assert shared.box == sweep.box
    largest = _window_radius(eps_list[0], grid)
    assert shared.shape == tuple(
        _fast_len(b.stop - b.start + 2 * K) for b, K in zip(sweep.box, largest)
    )
    # a holder taken for the smallest eps is too short for the largest
    with pytest.raises(WeakformError, match="too short"):
        mollify_density(LayerTransforms(grid, layer, u, 0.0, eps_list[-1]), kernels[0])
    n1, n2 = grid.shape
    boxed = [
        LayerTransforms(grid, layer, u, 0.0, eps_list[0], box)
        for box in ((slice(0, 4), slice(n2 - 3, n2)), (slice(n1 // 2, n1 // 2 + 2), slice(1, n2)))
    ]
    for kern, rem in zip(kernels, swept):
        moll, want = _direct_window_layers(rho, u, kern)
        Kx, Ky = _window_radius(kern.eps, grid)
        own = LayerTransforms(grid, layer, u, 0.0, kern.eps)
        tight = _at_shape(LayerTransforms(grid, layer, u, 0.0, kern.eps), (n1 + Kx, n2 + Ky))
        assert np.array_equal(rem, commutator_remainder(shared, kern))
        for transforms in (shared, *boxed, own, tight):
            box = transforms.box
            got_moll = mollify_density(transforms, kern)
            got_rem = commutator_remainder(transforms, kern)
            assert got_moll.shape == got_rem.shape == want[box].shape
            assert np.max(np.abs(got_moll - moll[box])) < 1e-12 * np.max(np.abs(moll))
            assert np.max(np.abs(got_rem - want[box])) < 1e-12 * np.max(np.abs(want))
        # one node short of n + K on either axis, the last window no longer
        # fits the padded buffer: served anyway, the layer loses that row or
        # column, and the library refuses such a holder
        for short in ((n1 + Kx - 1, n2 + Ky), (n1 + Kx, n2 + Ky - 1)):
            unchecked = _at_shape(_UncheckedTransforms(grid, layer, u, 0.0, kern.eps), short)
            assert mollify_density(unchecked, kern).shape != grid.shape
            holder = _at_shape(LayerTransforms(grid, layer, u, 0.0, kern.eps), short)
            with pytest.raises(WeakformError, match="too short"):
                mollify_density(holder, kern)
            with pytest.raises(WeakformError, match="too short"):
                commutator_remainder(holder, kern)


def test_box_holder_matches_the_whole_grid_holder_to_roundoff():
    # the same correlations on a shorter transform: on the box's nodes the
    # box holder's layers differ from the whole-grid holder's by FFT
    # roundoff only, at most 1e-13 times the density layer's largest value
    # (measured: at most 9.2e-15 times it, at the smallest eps)
    grid, times, u, rho0, sol = small_solution(128, 4)
    kernels = [make_kernel(eps=e) for e in (0.1, 0.05, 0.025)]
    box = region_box(grid, shrink(DOM, 0.15))
    for t, layer in zip(sol.times, sol.values):
        whole = LayerTransforms(grid, layer, u, t, 0.1)
        boxed = LayerTransforms(grid, layer, u, t, 0.1, box)
        assert boxed.shape == (120, 120) and whole.shape == (160, 160)
        pairs = [(mollify_density(whole, kernels[0])[box], mollify_density(boxed, kernels[0]))]
        pairs += [(commutator_remainder(whole, k)[box], commutator_remainder(boxed, k)) for k in kernels]
        for want, got in pairs:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(layer))


def test_window_layers_own_their_memory():
    grid = Grid(DOM, 40, 30)
    rho = static_field(grid, gaussian_blob())
    kern = make_kernel(eps=0.1)
    assert mollified(grid, rho.layer(0), kern).base is None
    assert remainder(grid, rho.layer(0), vortex_field(DOM), kern).base is None


def test_fast_len_is_scipys_real_fast_length():
    # the padded transform shapes are the ones scipy.fft would choose
    for n in range(1, 4097):
        assert _fast_len(n) == scipy.fft.next_fast_len(n, real=True), n


def _own_shape(grid, kern):
    """The transform shape of a holder taken for the kernel's own eps."""
    return LayerTransforms(grid, np.zeros(grid.shape), STILL, 0.0, kern.eps).shape


@pytest.mark.parametrize("n, eps", [(32, 0.1), (48, 0.05), (128, 0.025)])
def test_window_inverse_is_the_cropped_irfft2(n, eps, rng):
    # transforming only the kept rows on the last axis changes no bit
    grid = Grid(DOM, n, n + 5)
    kern = make_kernel(eps=eps)
    spec = _window_spectra(kern, grid, _own_shape(grid, kern))
    product = rfft2(rng.standard_normal(grid.shape), s=spec.shape) * spec.G1
    full = irfft2(product, s=spec.shape)
    n1, n2 = grid.shape
    want = full[spec.Kx : spec.Kx + n1, spec.Ky : spec.Ky + n2]
    assert np.array_equal(_window_inverse(spec, product, (slice(0, n1), slice(0, n2))), want)


def _remainder_via_eval(grid, layer, u, kern, t):
    """commutator_remainder's transforms with u evaluated at every node."""
    spec = _window_spectra(kern, grid, _own_shape(grid, kern))
    ux, uy = u.eval(*grid.meshes(), t)
    F = layer * grid.quadrature_weights
    F_hat = rfft2(F, s=spec.shape)
    crop = (slice(0, grid.nx + 1), slice(0, grid.ny + 1))
    conv_b1 = _window_inverse(spec, F_hat * spec.G1, crop)
    conv_b2 = _window_inverse(spec, F_hat * spec.G2, crop)
    conv_u = _window_inverse(
        spec,
        rfft2(F * ux, s=spec.shape) * spec.G1 + rfft2(F * uy, s=spec.shape) * spec.G2,
        crop,
    )
    return ux * conv_b1 + uy * conv_b2 - conv_u


@pytest.mark.parametrize("modulation", ["none", "linear", "inverse-sqrt"])
def test_remainder_scales_the_cached_profile(modulation):
    grid, times, u, rho0, sol = small_solution(32, 8, vortex_field(DOM, modulation=modulation))
    kern = make_kernel(eps=0.1)
    for t, layer in zip(sol.times, sol.values):
        got = remainder(grid, layer, u, kern, t)
        ref = _remainder_via_eval(grid, layer, u, kern, t)
        if modulation == "none":
            assert np.array_equal(got, ref)
        elif modulation == "linear" and t == 0.0:
            assert np.max(np.abs(got)) == 0.0  # m(0) = 0
        else:
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_weak_residual_of_mollified_equals_remainder_pairing():
    # Mollifying a transport solution leaves exactly the commutator as a
    # source: the weak residual of rho_eps and the space-time pairing of
    # r_eps with phi are two independently computed routes to one number.
    n, nt, eps = 128, 80, 0.1
    grid, times, u, rho0, sol = small_solution(n, nt)
    lhs, rhs = consistency_identity(sol, u, eps, off_center_phi())

    # magnitudes large enough for the comparison to carry information; a
    # sign error in either route would show up as a gap of ~2|rhs|
    assert abs(lhs) > 1e-4 and abs(rhs) > 1e-4
    assert lhs < 0.0 and rhs < 0.0
    assert abs(lhs - rhs) < 5e-5


def test_identity_pairing_refuses_a_layer_its_sweep_has_not_taken():
    # the pairing reads the holder and the remainder of the layer its sweep
    # took last; fed before the sweep, or without it, it would pair a stale
    # remainder, and it refuses any index the sweep has not taken last
    grid, times, u, rho0, sol = small_solution(48, 4)
    layers = list(stored_layers(sol))
    sweep = RemainderSweep(grid, sol.times, u, [0.1, 0.05], np.inf, 1.0, shrink(DOM, 0.15))
    pairing = IdentityPairing(sweep, off_center_phi())
    with pytest.raises(WeakformError, match="taken no layer"):
        drive(layers[:1], [pairing])
    drive(layers[:2], [sweep, pairing])
    for consumers in ([pairing, sweep], [pairing]):
        with pytest.raises(WeakformError, match="took layer 1 last, not layer 2"):
            drive(layers[2:3], consumers)
    # in order, the pairing is the stored route's identity
    sweep = RemainderSweep(grid, sol.times, u, [0.1, 0.05], np.inf, 1.0, shrink(DOM, 0.15))
    pairing = IdentityPairing(sweep, off_center_phi())
    drive(layers, [sweep, pairing])
    assert pairing.result() == consistency_identity(sol, u, 0.1, off_center_phi(), sweep.box)


def test_the_sweep_box_widens_to_its_readers_before_the_first_layer():
    # a large inner margin leaves the pairing's support outside the cells
    # the norms read: built, the pairing widens the sweep's box to it, and
    # pairs like the whole-grid stored route up to roundoff
    grid, times, u, rho0, sol = small_solution(48, 4)
    layers, phi, inner = list(stored_layers(sol)), off_center_phi(), shrink(DOM, 0.35)
    sweep = RemainderSweep(grid, sol.times, u, [0.1, 0.05], np.inf, 1.0, inner)
    assert sweep.box == region_box(grid, inner)
    pairing = IdentityPairing(sweep, phi)
    assert sweep.box != region_box(grid, inner)
    rows, cols = sweep.box
    X, Y = grid.meshes()
    support = np.argwhere(phi.spatial(X, Y) != 0.0)
    assert np.all(support.min(axis=0) >= (rows.start, cols.start))
    assert np.all(support.max(axis=0) < (rows.stop, cols.stop))
    drive(layers[:1], [sweep, pairing])
    with pytest.raises(WeakformError, match="only before its first layer"):
        sweep.widen((slice(0, 1), slice(0, 1)))
    with pytest.raises(WeakformError, match="only before its first layer"):
        IdentityPairing(sweep, phi)
    drive(layers[1:], [sweep, pairing])
    assert pairing.result() == consistency_identity(sol, u, 0.1, phi, sweep.box)
    whole = consistency_identity(sol, u, 0.1, phi)
    assert np.allclose(pairing.result(), whole, rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------------
# Remainder decay
# ---------------------------------------------------------------------------


def swept_curve(rho, u, eps_list, alpha, p, inner):
    """A RemainderSweep driven over the stored layers of rho."""
    sweep = RemainderSweep(rho.grid, rho.times, u, eps_list, alpha, p, inner)
    drive(stored_layers(rho), [sweep])
    return sweep.curve()


def test_remainder_decay_for_classical_solution():
    grid, times, u, rho0, sol = small_solution(128, 10)
    inner = shrink(DOM, 0.12)
    curve = swept_curve(sol, u, [0.1, 0.05, 0.025], 2.0, 2.0, inner)
    assert curve.gamma == 1.0
    assert curve.inner == inner
    assert curve.margin == pytest.approx(0.12)
    assert all(b < a for a, b in zip(curve.norms, curve.norms[1:]))
    assert curve.norms[-1] / curve.norms[0] < 0.5
    slope = np.polyfit(np.log(curve.eps), np.log(curve.norms), 1)[0]
    assert slope >= 1.0
    assert len(curve.eps) == len(curve.norms) == 3


def test_remainder_decay_still_field_is_identically_zero():
    grid = Grid(DOM, 64, 64)
    rho = static_field(grid, gaussian_blob())
    curve = swept_curve(
        rho, VelocityField((), DOM), [0.1, 0.05], 2.0, 2.0, shrink(DOM, 0.15)
    )
    assert curve.norms == (0.0, 0.0)


def test_remainder_decay_reports_rough_density():
    # White noise is the regime where the commutator estimate has no
    # business holding; the measured norms grow as eps shrinks, and the
    # curve reports them for the caller to judge.
    grid = Grid(DOM, 64, 64)
    rng = np.random.default_rng(7)
    rho = ScalarField(grid, np.array([0.0]), rng.standard_normal(grid.shape)[None])
    curve = swept_curve(
        rho, vortex_field(DOM), [0.2, 0.1, 0.05], 2.0, 2.0, shrink(DOM, 0.25)
    )
    assert curve.norms[0] > 0.0
    assert curve.norms[-1] >= curve.norms[0]


def test_remainder_decay_validation():
    grid = Grid(DOM, 32, 32)
    rho = static_field(grid, gaussian_blob())
    u = vortex_field(DOM)
    inner = shrink(DOM, 0.2)
    with pytest.raises(WeakformError):
        swept_curve(rho, u, [0.05, 0.1], 2.0, 2.0, inner)
    with pytest.raises(WeakformError):
        swept_curve(rho, u, [0.3, 0.1], 2.0, 2.0, inner)
    with pytest.raises(WeakformError):
        swept_curve(rho, u, [0.1, 0.05], 1.0, 2.0, inner)


def test_gamma_exponent_pairing():
    assert gamma_exponent(2.0, 2.0) == 1.0
    assert gamma_exponent(np.inf, 2.0) == 2.0
    assert gamma_exponent(2.0, np.inf) == 2.0
    assert gamma_exponent(np.inf, np.inf) == np.inf
    with pytest.raises(WeakformError):
        gamma_exponent(1.0, 2.0)
    with pytest.raises(WeakformError):
        gamma_exponent(0.5, 2.0)
    for alpha, p in ((np.nan, 2.0), (2.0, np.nan)):
        with pytest.raises(WeakformError, match="must be >= 1"):
            gamma_exponent(alpha, p)


def test_remainder_curve_validation():
    inner = shrink(DOM, 0.2)
    with pytest.raises(WeakformError):
        RemainderCurve((0.1, 0.1), (1.0, 0.5), 1.0, inner, 0.2)
    with pytest.raises(WeakformError):
        RemainderCurve((0.1, 0.05), (1.0, -0.5), 1.0, inner, 0.2)

