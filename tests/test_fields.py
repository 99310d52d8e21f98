import warnings

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.integrate import quad
from scipy.special import exp1

from transportlab.geometry import Grid, Domain, trapezoid_weights, unit_square
from transportlab.fields import (
    _BUMP_PROFILE_CONSTANT,
    FieldError,
    GradientWorkspace,
    Kernel,
    ScalarField,
    StreamFunction,
    TimeProfile,
    VelocityField,
    _bump,
    _bump_dq,
    _rounded_min,
    beta_bounded_power,
    beta_smooth_approx,
    beta_truncation,
    cosine_decay_profile,
    from_stream_function,
    gaussian_blob,
    make_kernel,
    make_test_function,
    quadratic_decay_profile,
    time_modulation,
    time_weights,
    velocity_into,
    vortex_field,
)

mp.dps = 40


def mp_psi(x, y, cx=0.5, cy=0.5, R=0.3, A=0.5):
    """Arbitrary-precision stream function, the differentiation oracle."""
    q = ((x - cx) ** 2 + (y - cy) ** 2) / mpf(R) ** 2
    if q >= 1:
        return mpf(0)
    return mpf(A) * mp.exp(-1 / (1 - q))


def mp_velocity(x0, y0):
    ux = mp.diff(lambda yy: mp_psi(mpf(x0), yy), mpf(y0))
    uy = -mp.diff(lambda xx: mp_psi(xx, mpf(y0)), mpf(x0))
    return float(ux), float(uy)


def bits_equal(a, b) -> bool:
    """Same values, shapes and zero signs (NaN-free arrays)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


# ---------------------------------------------------------------------------
# Bump building blocks
# ---------------------------------------------------------------------------


def masked_bump_formula(q, form):
    """The closed form evaluated only where q < 1, zero elsewhere."""
    q = np.asarray(q, dtype=float)
    out = np.zeros_like(q)
    m = q < 1.0
    out[m] = form(1.0 - q[m])
    return out


BUMP_FORMS = {
    "bump": (_bump, lambda t: np.exp(-1.0 / t)),
    "dq": (_bump_dq, lambda t: -np.exp(-1.0 / t) / (t * t)),
}
# interior, the underflow band just inside q = 1 (where dq is -0.0), the
# last doubles either side of the edge, and far outside
BUMP_QS = [0.0, 0.5, 0.9999, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 4.0, np.inf]


@pytest.mark.parametrize("name", sorted(BUMP_FORMS))
def test_bump_kernels_match_the_masked_formula(name):
    kernel, form = BUMP_FORMS[name]
    grid_q = np.array(BUMP_QS).reshape(2, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in BUMP_QS:
            assert bits_equal(kernel(q), masked_bump_formula(q, form)), q
        assert bits_equal(kernel(grid_q), masked_bump_formula(grid_q, form))


def test_normalization_constants_match_quadrature_and_closed_forms():
    radial, _ = quad(lambda r: r * np.exp(-1.0 / (1.0 - r * r)), 0.0, 1.0)
    # int_0^1 e^{-1/s} ds = e^{-1} - E1(1) after s = 1 - r^2
    closed_z = 1.0 / (np.pi * (np.exp(-1.0) - exp1(1.0)))
    for want in (1.0 / (2.0 * np.pi * radial), closed_z):
        assert _BUMP_PROFILE_CONSTANT == pytest.approx(want, rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# Time modulation
# ---------------------------------------------------------------------------


def test_time_modulation_registry():
    assert time_modulation("none").value(0.37) == 1.0
    assert time_modulation("linear").value(0.25) == 0.25
    assert time_modulation("inverse-sqrt").value(4.0) == pytest.approx(0.5)
    # clip keeps the integrable singularity finite at t = 0
    assert time_modulation("inverse-sqrt").value(0.0) == pytest.approx(1e3)
    # the unmodulated clock is the time itself, bit for bit
    ts = np.linspace(0.0, 1.0, 7)
    assert time_modulation("none").integral(ts) is ts
    with pytest.raises(FieldError):
        time_modulation("sawtooth")


@pytest.mark.parametrize("label", ["none", "linear", "inverse-sqrt"])
def test_time_modulation_integral_is_the_primitive(label):
    mod = time_modulation(label)
    for t in (0.0, 5e-7, 1e-6, 3e-6, 0.01, 0.37, 1.0, 2.5):
        # adaptive quadrature of the clipped factor, split at the clip
        pieces = [(0.0, min(t, 1e-6)), (min(t, 1e-6), t)]
        want = sum(quad(mod.value, a, b, epsabs=1e-14, epsrel=1e-13)[0] for a, b in pieces)
        assert float(mod.integral(t)) == pytest.approx(want, rel=1e-12, abs=1e-15)
    ts = np.linspace(0.0, 1.0, 7)
    assert np.array_equal(np.asarray(mod.integral(ts)), [float(mod.integral(t)) for t in ts])


# ---------------------------------------------------------------------------
# Velocity fields from stream functions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nt", [8, 1000])
@pytest.mark.parametrize("label", ["none", "linear", "inverse-sqrt"])
def test_time_weights_are_trapezoid_times_scalar_modulation(label, nt):
    # the weight each pairing used to form inline: trapezoid weight times
    # the scalar m(t_j), node by node
    m = time_modulation(label)
    times = np.linspace(0.0, 1.0, nt + 1)
    tw = trapezoid_weights(times)
    want = np.array([tw[j] * m.value(float(t)) for j, t in enumerate(times)])
    assert bits_equal(time_weights(times, m), want)
    assert bits_equal(time_weights(times), tw)


def test_time_weights_lone_node_has_unit_weight():
    assert bits_equal(time_weights([0.25]), np.array([1.0]))


def test_zero_stream_function_gives_zero_field():
    u = from_stream_function(StreamFunction((0.5, 0.5), 0.3, 0.0), unit_square())
    X, Y = Grid(unit_square(), 16, 16).meshes()
    ux, uy = u.eval(X, Y, 0.0)
    assert np.all(ux == 0.0) and np.all(uy == 0.0)


def test_velocity_vanishes_at_vortex_center():
    u = vortex_field(unit_square())
    assert u.eval(0.5, 0.5, 0.0) == (0.0, 0.0)


def test_velocity_matches_high_precision_oracle():
    u = vortex_field(unit_square())
    for probe in [(0.65, 0.5), (0.63, 0.58), (0.41, 0.47)]:
        want = mp_velocity(*probe)
        got = u.eval(*probe, 0.0)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)


def probe_divergence(u, x0, y0, h):
    dux = (u.eval(x0 + h, y0)[0] - u.eval(x0 - h, y0)[0]) / (2 * h)
    duy = (u.eval(x0, y0 + h)[1] - u.eval(x0, y0 - h)[1]) / (2 * h)
    return dux + duy


def test_discrete_divergence_small_at_probe():
    u = vortex_field(unit_square())
    assert abs(probe_divergence(u, 0.65, 0.5, 1.0 / 256)) < 1e-4
    # generic off-axis probe converges at second order
    e1 = abs(probe_divergence(u, 0.63, 0.58, 1.0 / 128))
    e2 = abs(probe_divergence(u, 0.63, 0.58, 1.0 / 256))
    assert e1 / e2 == pytest.approx(4.0, abs=0.5)


def test_discrete_divergence_grid_max_rate_two():
    # Superposed vortices; the sup over nodes is dominated by the support
    # edge, so the clean h^2 regime needs the finer grids.
    u = from_stream_function(
        [
            StreamFunction((0.5, 0.5), 0.3, 0.5),
            StreamFunction((0.3, 0.65), 0.2, -0.3),
        ],
        unit_square(),
    )
    ns = [512, 1024, 2048]
    errs = []
    for n in ns:
        g = Grid(unit_square(), n, n)
        X, Y = g.meshes()
        ux, uy = u.eval(X, Y, 0.0)
        div = (ux[2:, 1:-1] - ux[:-2, 1:-1]) / (2 * g.hx) + (
            uy[1:-1, 2:] - uy[1:-1, :-2]
        ) / (2 * g.hy)
        errs.append(np.max(np.abs(div)))
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope >= 1.8
    assert errs[-2] / errs[-1] >= 3.7


def test_velocity_exactly_zero_on_thousand_boundary_points():
    u = from_stream_function(
        [
            StreamFunction((0.5, 0.5), 0.3, 0.5),
            StreamFunction((0.7, 0.3), 0.25, 0.2),
        ],
        unit_square(),
    )
    s = np.linspace(0.0, 1.0, 250, endpoint=False)
    xs = np.concatenate([s, np.ones_like(s), 1.0 - s, np.zeros_like(s)])
    ys = np.concatenate([np.zeros_like(s), s, np.ones_like(s), 1.0 - s])
    assert xs.size == 1000
    ux, uy = u.eval(xs, ys, 0.0)
    assert np.all(ux == 0.0)
    assert np.all(uy == 0.0)


def test_eval_velocity_boundary_and_exterior():
    u = vortex_field(unit_square())
    assert u.eval(0.0, 0.3) == (0.0, 0.0)
    assert u.eval(1.0, 1.0) == (0.0, 0.0)
    with pytest.raises(FieldError):
        u.eval(1.2, 0.5)


def test_time_modulation_zero_kills_field():
    u = vortex_field(unit_square(), modulation="linear")
    assert u.modulation.label == "linear" and u.profile.modulation.label == "none"
    assert u.eval(0.65, 0.5, 0.0) == (0.0, 0.0)
    moving = u.eval(0.65, 0.5, 0.5)
    still = vortex_field(unit_square()).eval(0.65, 0.5, 0.0)
    assert moving[1] == pytest.approx(0.5 * still[1], rel=1e-13)


def test_support_touching_boundary_rejected():
    with pytest.raises(FieldError):
        from_stream_function(StreamFunction((0.5, 0.5), 0.5, 1.0), unit_square())
    with pytest.raises(FieldError):
        from_stream_function(StreamFunction((0.8, 0.5), 0.25, 1.0), unit_square())
    with pytest.raises(FieldError):
        from_stream_function(StreamFunction((1.0, 0.5), 0.1, 1.0), unit_square())


def test_superposition_and_scaling():
    a = StreamFunction((0.4, 0.5), 0.25, 0.5)
    b = StreamFunction((0.65, 0.55), 0.2, -0.3)
    u_ab = from_stream_function([a, b], unit_square())
    u_a = from_stream_function(a, unit_square())
    u_b = from_stream_function(b, unit_square())
    p = (0.55, 0.52)
    got = u_ab.eval(*p)
    want = np.add(u_a.eval(*p), u_b.eval(*p))
    assert np.allclose(got, want, rtol=1e-14)
    doubled = u_ab.scaled(2.0)
    assert np.allclose(doubled.eval(*p), 2.0 * np.asarray(got), rtol=1e-14)


def zero_accumulated_velocity(u: VelocityField, x, y, t):
    """u from zero-filled accumulators and the masked bump derivative."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = u.modulation.value(t)
    ux = np.zeros(np.broadcast(x, y).shape)
    uy = np.zeros_like(ux)
    for c in u.components:
        dx = x - c.center[0]
        dy = y - c.center[1]
        q = (dx * dx + dy * dy) / c.radius**2
        dq = masked_bump_formula(q, BUMP_FORMS["dq"][1])
        g = dq * (2.0 * c.amplitude * m / c.radius**2)
        ux += g * dy
        uy -= g * dx
    return ux, uy


@pytest.mark.parametrize("modulation", ["none", "linear"])
def test_velocity_eval_matches_zero_accumulated_sum(modulation):
    u = from_stream_function(
        [StreamFunction((0.4, 0.5), 0.25, 0.5), StreamFunction((0.65, 0.55), 0.2, -0.3)],
        unit_square(),
        modulation,
    )
    # the grid holds both centers' rows and columns, where one partial
    # of psi is an exact zero of either sign, and nodes outside both balls
    X, Y = Grid(unit_square(), 40, 20).meshes()
    for t in (0.0, 0.35):
        got = u.eval(X, Y, t)
        want = zero_accumulated_velocity(u, X, Y, t)
        assert bits_equal(got[0], want[0]) and bits_equal(got[1], want[1])
    got = u.eval(0.4, 0.5, 0.35)
    assert type(got[0]) is float and type(got[1]) is float
    want = zero_accumulated_velocity(u, 0.4, 0.5, 0.35)
    assert bits_equal(got[0], want[0]) and bits_equal(got[1], want[1])


# two bumps with dyadic centres and radii, so q = 1 is hit exactly
TWO_BUMPS = (StreamFunction((0.5, 0.5), 0.25, 0.5), StreamFunction((0.375, 0.75), 0.125, -0.3))
KERNEL_POINTS = np.array(
    [
        (0.5, 0.5),  # first centre: psi_x, psi_y are -0.0 there
        (0.375, 0.75),  # second centre
        (0.75, 0.5),  # q = 1 exactly for the first bump
        (0.375, 0.875),  # q = 1 exactly for the second
        (0.55, 0.45),
        (0.4, 0.7),  # inside both balls
        (0.1, 0.9),  # outside both
        (-1e-9, 0.5),  # RK4 stage points a little outside the closure
        (1.0 + 1e-9, 0.25),
        (0.5, -2e-9),
    ]
).T


@pytest.mark.parametrize("scale", [1.0, 0.35, 0.0])
def test_gradient_kernel_matches_the_out_of_place_formula(scale):
    x, y = KERNEL_POINTS
    for c in TWO_BUMPS:
        dx, dy = x - c.center[0], y - c.center[1]
        q = (dx * dx + dy * dy) / c.radius**2
        g = masked_bump_formula(q, BUMP_FORMS["dq"][1]) * (2.0 * c.amplitude * scale / c.radius**2)
        px, py = c.gradient(x, y, scale)
        assert bits_equal(px, g * dx) and bits_equal(py, g * dy)


@pytest.mark.parametrize("t", [0.0, 0.35])
def test_velocity_kernel_matches_eval_and_the_zero_accumulated_sum(t):
    # m(0) = 0 makes every partial of psi a signed zero: the sum from the
    # scalar 0.0 must still give +0.0, as zero-filled accumulators do
    u = from_stream_function(TWO_BUMPS, unit_square(), "linear")
    x, y = KERNEL_POINTS
    # eval takes the points in the closed domain and refuses the RK4 stage
    # points just outside it, which only the kernel below is given
    got = u.eval(x[:7], y[:7], t)
    want = zero_accumulated_velocity(u, x[:7], y[:7], t)
    assert bits_equal(got[0], want[0]) and bits_equal(got[1], want[1])
    assert not np.signbit(got[0][0]) and not np.signbit(got[1][0])
    with pytest.raises(FieldError, match="outside the closed domain"):
        u.eval(x, y, t)
    # a stack of three fields, one row of points each, every component's
    # coefficient a column of the rows' own scalars
    fields = [u, u.scaled(1.5), u.scaled(-1.0)]
    m = u.modulation.value(t)
    cols = np.array([f.coefficients(m) for f in fields]).T[:, :, None]
    X, Y = np.tile(x, (3, 1)), np.tile(y, (3, 1))
    ux, uy = np.full(X.shape, np.nan), np.full(X.shape, np.nan)
    with np.errstate(all="ignore"):
        velocity_into(TWO_BUMPS, list(cols), X, Y, ux, uy, GradientWorkspace(X.shape))
    for row, f in enumerate(fields):
        want = zero_accumulated_velocity(f, x, y, t)
        assert bits_equal(ux[row], want[0]) and bits_equal(uy[row], want[1])


# two concentric bumps: every point within 0.125 of the centre is inside
# both balls, the centre itself included (its psi partials are signed zeros)
CONCENTRIC = (StreamFunction((0.5, 0.5), 0.25, 0.5), StreamFunction((0.5, 0.5), 0.125, -0.3))
MASK_BRANCH_POINTS = {
    # every q < 1, so the kernel skips the outside-support mask
    "inside": np.array(
        [(0.5, 0.5), (0.55, 0.45), (0.4, 0.52), (0.5, 0.6), (0.58, 0.58), (0.45, 0.5)]
    ).T,
    # q = 1 exactly for either bump, and points beyond both
    "edge": np.array(
        [(0.5, 0.5), (0.75, 0.5), (0.5, 0.625), (0.375, 0.5), (0.1, 0.9), (0.55, 0.45)]
    ).T,
}


@pytest.mark.parametrize("branch", sorted(MASK_BRANCH_POINTS))
@pytest.mark.parametrize("t", [0.0, 0.35])
def test_stacked_velocity_kernel_on_either_mask_branch(branch, t):
    # m(0) = 0 of the linear modulation makes every partial a signed zero
    u = from_stream_function(CONCENTRIC, unit_square(), "linear")
    x, y = MASK_BRANCH_POINTS[branch]
    q = [((x - c.center[0]) ** 2 + (y - c.center[1]) ** 2) / c.radius**2 for c in CONCENTRIC]
    assert (np.max(q) < 1.0) == (branch == "inside")
    fields = [u, u.scaled(1.5), u.scaled(-1.0)]
    m = u.modulation.value(t)
    X, Y = np.tile(x, (3, 1)), np.tile(y, (3, 1))
    # the coefficients as an integrating stack holds them: arrays of the
    # points' shape, each row its own field's scalar
    rows = np.array([f.coefficients(m) for f in fields])
    coefs = [np.repeat(c[:, None], X.shape[1], axis=1) for c in rows.T]
    ux, uy = np.full(X.shape, np.nan), np.full(X.shape, np.nan)
    with np.errstate(all="ignore"):
        velocity_into(CONCENTRIC, coefs, X, Y, ux, uy, GradientWorkspace(X.shape))
    for row, f in enumerate(fields):
        want = zero_accumulated_velocity(f, x, y, t)
        assert bits_equal(ux[row], want[0]) and bits_equal(uy[row], want[1])


def test_velocity_kernel_without_components_writes_zeros():
    ux, uy = np.full(3, np.nan), np.full(3, np.nan)
    velocity_into((), [], np.zeros(3), np.zeros(3), ux, uy, GradientWorkspace((3,)))
    assert bits_equal(ux, np.zeros(3)) and bits_equal(uy, np.zeros(3))


def test_support_margin_and_max_speed():
    u = vortex_field(unit_square(), center=(0.5, 0.5), radius=0.3)
    assert u.support_margin == pytest.approx(0.2)
    g = Grid(unit_square(), 256, 256)
    assert u.max_speed(g) == pytest.approx(1.3307, abs=2e-4)


# ---------------------------------------------------------------------------
# Mollifier kernels
# ---------------------------------------------------------------------------


def kernel_mass(k: Kernel, n: int = 400) -> float:
    e = k.eps
    g = Grid(Domain(-e, -e, e, e), n, n)
    X, Y = g.meshes()
    return float(np.sum(k.value(X, Y) * g.quadrature_weights))


def test_kernel_validation():
    with pytest.raises(FieldError):
        make_kernel(eps=0.0)
    with pytest.raises(FieldError):
        make_kernel(eps=-0.1)


def test_kernel_normalization_constant_frozen():
    # one normalization for all scales, pinned against an independent
    # radial quadrature done at design time
    k1 = make_kernel(eps=0.1)
    k2 = make_kernel(eps=0.025)
    assert k1.normalization == k2.normalization
    assert k1.normalization == pytest.approx(2.143565775792248, abs=1e-12)


def test_kernel_unit_mass_across_scales():
    masses = [kernel_mass(make_kernel(eps=e)) for e in (0.05, 0.1, 0.2)]
    for m in masses:
        assert m == pytest.approx(1.0, abs=1e-6)
    assert max(masses) - min(masses) < 1e-6


def test_kernel_support_symmetry_scaling():
    k = make_kernel(eps=0.1)
    assert k.value(0.1, 0.0) == 0.0
    assert k.value(0.0, 0.11) == 0.0
    pts = np.array([[0.03, 0.01], [0.05, -0.02], [-0.07, 0.055]])
    assert np.allclose(
        k.value(pts[:, 0], pts[:, 1]), k.value(-pts[:, 0], -pts[:, 1]), rtol=0
    )
    half = make_kernel(eps=0.05)
    assert half.value(0.0, 0.0) == pytest.approx(4.0 * k.value(0.0, 0.0), rel=1e-14)


def test_kernel_gradient_matches_high_precision_oracle():
    k = make_kernel(eps=0.1)
    Z = k.normalization

    def mp_eta(x, y):
        q = (x * x + y * y) / mpf("0.1") ** 2
        if q >= 1:
            return mpf(0)
        return mpf(Z) / mpf("0.1") ** 2 * mp.exp(-1 / (1 - q))

    for x0, y0 in [(0.03, 0.01), (-0.05, 0.02)]:
        gx = float(mp.diff(lambda a: mp_eta(a, mpf(y0)), mpf(x0)))
        gy = float(mp.diff(lambda b: mp_eta(mpf(x0), b), mpf(y0)))
        got = k.grad(x0, y0)
        assert got[0] == pytest.approx(gx, rel=1e-10)
        assert got[1] == pytest.approx(gy, rel=1e-10)


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
def test_kernel_is_the_scaled_bump(eps):
    # value: (Z / eps^2) bump(q) bit for bit. Gradient: the radial bump's
    # coefficient 2 (Z / eps^2) / eps^2 is within an ulp of 2 Z / eps^4, and
    # the two roundings after it (times bump_dq, times x) widen that to 3
    k = make_kernel(eps=eps)
    Z = k.normalization
    s = np.linspace(-1.2 * eps, 1.2 * eps, 49)
    X, Y = np.meshgrid(s, 0.7 * s, indexing="ij")
    q = (X * X + Y * Y) / eps**2
    assert bits_equal(k.value(X, Y), (Z / eps**2) * _bump(q))
    np.testing.assert_array_max_ulp(2.0 * (Z / eps**2) / eps**2, 2.0 * Z / eps**4, maxulp=1)
    g = _bump_dq(q) * (2.0 * Z / eps**4)
    for got, want in zip(k.grad(X, Y), (g * X, g * Y)):
        np.testing.assert_array_max_ulp(got, want, maxulp=3)


# ---------------------------------------------------------------------------
# Renormalization functions
# ---------------------------------------------------------------------------


def test_beta_truncation_values():
    beta = beta_truncation(1.0)
    assert beta(2.0) == 1.0
    assert beta(-0.5) == -0.5
    assert beta(-3.0) == -1.0
    with pytest.raises(FieldError):
        beta_truncation(0.0)


def gather_scatter_rounded_min(sigma, M, k):
    """min(sigma, M) with the rounded corner, by boolean gather and scatter."""
    sigma = np.asarray(sigma, dtype=float)
    lo, hi = M - 1.0 / k, M + 1.0 / k
    val = np.where(sigma <= lo, sigma, np.minimum(sigma, M))
    win = (sigma > lo) & (sigma < hi)
    tau = sigma[win] - hi
    val = np.array(val, dtype=float)
    val[win] = M - 0.25 * k * tau * tau
    return val


@pytest.mark.parametrize("M,k", [(1.0, 10), (4.0, 10), (10.0, 3)])
def test_rounded_min_matches_gather_scatter_bits(M, k):
    lo, hi = M - 1.0 / k, M + 1.0 / k
    joints = [lo, hi, M]
    near = [np.nextafter(a, b) for a in joints for b in (-np.inf, np.inf)]
    sigma = np.array([0.0, 0.5 * lo, 0.5 * (lo + M), 2.0 * hi, 1e300, *joints, *near])
    want = gather_scatter_rounded_min(sigma, M, k)
    assert np.array_equal(_rounded_min(sigma, M, k).view(np.int64), want.view(np.int64))
    for s in sigma:
        a, b = _rounded_min(s, M, k), gather_scatter_rounded_min(s, M, k)
        assert np.shape(a) == () and np.asarray(a).view(np.int64) == np.asarray(b).view(np.int64)


def whole_array_rounded_min(sigma, M, k):
    """min(sigma, M) with the rounded corner, the arc taken on every entry."""
    sigma = np.asarray(sigma, dtype=float)
    lo, hi = M - 1.0 / k, M + 1.0 / k
    win = (sigma > lo) & (sigma < hi)
    with np.errstate(all="ignore"):
        tau = sigma - hi
        arc = M - 0.25 * k * tau * tau
    return np.where(win, arc, np.minimum(sigma, M))


@pytest.mark.parametrize("M,k", [(1.0, 10), (4.0, 10), (10.0, 3)])
def test_rounded_min_in_its_window_matches_the_whole_array_arc(M, k):
    # the arc is taken only on the entries inside the window; every bit,
    # the sign of zero included, is that of the arc taken everywhere
    lo, hi = M - 1.0 / k, M + 1.0 / k
    edges = [lo, hi, *(np.nextafter(a, b) for a in (lo, hi) for b in (-np.inf, np.inf))]
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, M]
    rng = np.random.default_rng(5)
    sigma = np.concatenate([edges, special, rng.uniform(lo - 0.3, hi + 0.3, 400)])
    got = _rounded_min(sigma, M, k)
    want = whole_array_rounded_min(sigma, M, k)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.count_nonzero((sigma > lo) & (sigma < hi)) > 50
    # none of the entries in the window: the arc is never taken
    outside = np.array([0.5 * lo, 2.0 * hi, lo, hi])
    assert np.array_equal(_rounded_min(outside, M, k), np.minimum(outside, M))
    for s in sigma:
        a, b = _rounded_min(s, M, k), whole_array_rounded_min(s, M, k)
        assert np.shape(a) == () and np.asarray(a).view(np.int64) == b.view(np.int64)
    grid = sigma[:16].reshape(4, 4)
    assert np.array_equal(
        _rounded_min(grid, M, k).view(np.int64), whole_array_rounded_min(grid, M, k).view(np.int64)
    )


def test_beta_smooth_approx_zero_and_windows():
    for M, k in [(1.0, 10), (2.5, 4), (0.7, 30)]:
        beta = beta_smooth_approx(M, k)
        assert beta(0.0) == 0.0
        clip = beta_truncation(M)
        s = np.linspace(-3 * M, 3 * M, 2001)
        inside = np.abs(np.abs(s) - M) < 1.0 / k
        assert np.array_equal(beta(s[~inside]), clip(s[~inside]))


def test_beta_smooth_approx_sup_deviation():
    beta = beta_smooth_approx(1.0, 10)
    clip = beta_truncation(1.0)
    # the deviation peaks with a kink exactly at s = +-M, so sample them
    s = np.concatenate([np.linspace(-3.0, 3.0, 200001), [-1.0, 1.0]])
    dev = np.max(np.abs(beta(s) - clip(s)))
    assert dev < 0.1
    # design gives exactly 1/(4k), attained at s = +-M
    assert dev == pytest.approx(1.0 / 40.0, abs=1e-9)


def test_beta_smooth_approx_sandwich():
    for M, k in [(1.0, 10), (2.0, 5)]:
        beta = beta_smooth_approx(M, k)
        s = np.linspace(-3 * M, 3 * M, 40001)
        assert np.all(np.abs(beta(s)) <= np.minimum(np.abs(s), M) + 1e-15)


def test_beta_smooth_approx_c1_across_corner():
    beta = beta_smooth_approx(1.0, 10)
    h = 1e-7
    fwd = (beta(1.0 + h) - beta(1.0)) / h
    bwd = (beta(1.0) - beta(1.0 - h)) / h
    assert abs(fwd - bwd) < 1e-6
    # the raw clip fails the same scan
    clip = beta_truncation(1.0)
    fwd_c = (clip(1.0 + h) - clip(1.0)) / h
    bwd_c = (clip(1.0) - clip(1.0 - h)) / h
    assert abs(fwd_c - bwd_c) > 0.9


def test_beta_smooth_approx_rejects_wide_rounding():
    with pytest.raises(FieldError):
        beta_smooth_approx(0.5, 1)
    with pytest.raises(FieldError):
        beta_smooth_approx(1.0, 0)


def test_beta_bounded_power_values():
    beta = beta_bounded_power(2.0, 4.0, 50)
    assert beta(0.0) == 0.0
    assert abs(beta(1.0) - 1.0) < 1.0 / 50
    assert abs(beta(10.0) - 4.0) < 1.0 / 50
    assert beta(-1.0) == beta(1.0)  # even construction


def test_beta_bounded_power_monotone_in_k():
    t = np.linspace(-3.0, 3.0, 1001)
    target = np.minimum(np.abs(t) ** 2, 4.0)
    prev = None
    for k in (5, 10, 20, 40):
        vals = beta_bounded_power(2.0, 4.0, k)(t)
        assert np.all(vals <= target + 1e-15)
        if prev is not None:
            assert np.all(vals >= prev - 1e-15)
        assert np.max(target - vals) <= 0.25 / k + 1e-12
        prev = vals


def test_beta_bounded_power_validation():
    with pytest.raises(FieldError):
        beta_bounded_power(1.0, 4.0, 10)
    with pytest.raises(FieldError):
        beta_bounded_power(np.inf, 4.0, 10)
    with pytest.raises(FieldError):
        beta_bounded_power(2.0, -1.0, 10)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


def test_test_function_support_and_endpoints():
    T = 1.0
    phi = make_test_function((0.5, 0.5), 0.3, quadratic_decay_profile(T), unit_square())
    assert phi.spatial(0.85, 0.5) == 0.0
    gx, gy = phi.spatial_gradient(0.85, 0.5)
    assert gx == 0.0 and gy == 0.0
    assert phi.time_profile.value(0.0) == 1.0
    assert phi.time_profile.value(T) == 0.0
    assert phi.spatial(0.5, 0.5) == pytest.approx(1.0, rel=1e-14)


def test_test_function_is_the_closed_form_bump():
    A, R, (cx, cy) = 2.0, 0.25, (0.45, 0.55)
    phi = make_test_function((cx, cy), R, quadratic_decay_profile(1.0), unit_square(), A)
    X, Y = Grid(unit_square(), 40, 40).meshes()
    dx, dy = X - cx, Y - cy
    q = (dx * dx + dy * dy) / R**2
    # A e exp(-1/(1-q)) and its gradient, written out inside the support
    want = A * np.e * masked_bump_formula(q, lambda t: np.exp(-1.0 / t))
    g = masked_bump_formula(q, lambda t: -np.exp(-1.0 / t) / (t * t)) * (2.0 * A * np.e / R**2)
    assert bits_equal(phi.spatial(X, Y), want)
    gx, gy = phi.spatial_gradient(X, Y)
    assert bits_equal(gx, g * dx) and bits_equal(gy, g * dy)


def test_cosine_profile_endpoints():
    prof = cosine_decay_profile(2.0)
    assert prof.value(0.0) == 1.0
    assert abs(prof.value(2.0)) < 1e-30
    assert prof.derivative(0.0) == pytest.approx(0.0, abs=1e-16)


def test_test_function_gradient_second_order():
    phi = make_test_function(
        (0.45, 0.55), 0.25, quadratic_decay_profile(1.0), unit_square(), amplitude=2.0
    )
    x0, y0 = 0.52, 0.48

    def err(h):
        fx = (phi.spatial(x0 + h, y0) - phi.spatial(x0 - h, y0)) / (2 * h)
        fy = (phi.spatial(x0, y0 + h) - phi.spatial(x0, y0 - h)) / (2 * h)
        gx, gy = phi.spatial_gradient(x0, y0)
        return np.hypot(fx - gx, fy - gy)

    assert err(1e-3) / err(5e-4) == pytest.approx(4.0, abs=0.6)


def test_test_function_validation():
    with pytest.raises(FieldError):
        make_test_function((0.9, 0.5), 0.2, quadratic_decay_profile(1.0), unit_square())
    with pytest.raises(FieldError):
        make_test_function((0.5, 0.5), 0.0, quadratic_decay_profile(1.0), unit_square())
    bad = TimeProfile("const", 1.0, lambda t: np.ones_like(np.asarray(t, dtype=float)), lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    with pytest.raises(FieldError):
        make_test_function((0.5, 0.5), 0.2, bad, unit_square())


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------


def test_scalar_field_validation():
    g = Grid(unit_square(), 4, 4)
    with pytest.raises(FieldError):
        ScalarField(g, np.array([0.0]), np.zeros((1, 3, 5)))
    with pytest.raises(FieldError):
        ScalarField(g, np.array([0.0, 1.0]), np.zeros((1, 5, 5)))
    bad = np.zeros((1, 5, 5))
    bad[0, 2, 2] = np.nan
    with pytest.raises(FieldError):
        ScalarField(g, np.array([0.0]), bad)


def test_gaussian_blob_peak():
    f = gaussian_blob((0.6, 0.5), 0.08)
    assert f(0.6, 0.5) == 1.0
    assert f(0.6 + 0.08, 0.5) == pytest.approx(np.exp(-0.5))
