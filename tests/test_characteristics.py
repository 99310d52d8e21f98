import numpy as np
import pytest
from conftest import assemble, moving_nodes_and_radii, solution_layers

from transportlab import characteristics
from transportlab.characteristics import (
    CharacteristicsError,
    FamilyStream,
    FlowEscapeError,
    FlowMapIntegrator,
    MovingLayers,
    _recentred,
    flow_map,
    iter_solution_layers,
    solve_classical,
)
from transportlab.fields import (
    StreamFunction,
    VelocityField,
    from_stream_function,
    gaussian_blob,
    static_field,
    vortex_field,
)
from transportlab.geometry import Domain, Grid, TimePartition, unit_square


@pytest.fixture(scope="module")
def vortex():
    return vortex_field(unit_square())


# ---------------------------------------------------------------------------
# Flow map
# ---------------------------------------------------------------------------


def test_integrator_validation():
    u = vortex_field(unit_square())
    with pytest.raises(CharacteristicsError):
        FlowMapIntegrator((u,), 0.0)


def test_integrator_step_layout(vortex):
    integ = FlowMapIntegrator((vortex,), 0.1)
    steps = integ.steps(0.0, 0.35)
    assert len(steps) == 4
    assert steps[:3] == [0.1, 0.1, 0.1]
    assert steps[3] == pytest.approx(0.05)
    assert sum(steps) == pytest.approx(0.35)
    back = integ.steps(1.0, 0.75)
    assert all(h < 0 for h in back)
    assert sum(back) == pytest.approx(-0.25)
    assert integ.steps(0.4, 0.4) == []
    # exact multiples do not grow a spurious partial step
    assert len(integ.steps(0.0, 0.5)) == 5


def test_flow_map_identity_for_zero_field():
    u = from_stream_function(StreamFunction((0.5, 0.5), 0.3, 0.0), unit_square())
    pts = (np.array([0.1, 0.62, 0.97]), np.array([0.9, 0.5, 0.03]))
    for t0, t1 in [(0.0, 1.0), (0.3, 0.1), (0.7, 0.7)]:
        gx, gy = flow_map(u, t0, t1, *pts)
        assert np.array_equal(gx, pts[0])
        assert np.array_equal(gy, pts[1])


def test_flow_map_boundary_equilibria(vortex):
    for p in [(0.0, 0.3), (1.0, 1.0), (0.5, 0.0), (1.0, 0.25)]:
        assert flow_map(vortex, 0.0, 1.0, p) == p


def test_flow_map_rejects_exterior_start(vortex):
    with pytest.raises(CharacteristicsError):
        flow_map(vortex, 0.0, 1.0, (1.2, 0.5))


def test_flow_map_matches_refined_reference(vortex, vortex_rotation):
    coarse = flow_map(vortex, 0.0, 1.0, (0.65, 0.5), dt=1e-3)
    ref = vortex_rotation(0.65, 0.5, 0.0, 1.0)
    assert np.hypot(coarse[0] - ref[0], coarse[1] - ref[1]) < 1e-8


def test_flow_map_matches_exact_rotation(vortex, vortex_rotation):
    # backward over [0, 1], as the solver traces feet, on points inside and
    # outside the support
    rng = np.random.default_rng(7)
    px, py = rng.uniform(0.0, 1.0, 200), rng.uniform(0.0, 1.0, 200)
    fx, fy = flow_map(vortex, 1.0, 0.0, px, py, dt=1e-3)
    ex, ey = vortex_rotation(px, py, 1.0, 0.0)
    assert np.max(np.hypot(fx - ex, fy - ey)) < 1e-8


def test_flow_map_group_property(vortex):
    p = (0.62, 0.47)
    direct = flow_map(vortex, 0.0, 0.81, p)
    mid = flow_map(vortex, 0.0, 0.37, p)
    thru = flow_map(vortex, 0.37, 0.81, mid)
    assert np.hypot(direct[0] - thru[0], direct[1] - thru[1]) < 1e-7


def test_flow_map_reversibility_budget(vortex):
    # forward then backward over a unit interval returns within 10 dt^4
    dt = 1e-3
    p = (0.65, 0.5)
    fwd = flow_map(vortex, 0.0, 1.0, p, dt=dt)
    back = flow_map(vortex, 1.0, 0.0, fwd, dt=dt)
    assert np.hypot(back[0] - p[0], back[1] - p[1]) < 10.0 * dt**4


def test_flow_map_is_sliceable(vortex):
    # node-level traces are independent, so split evaluation matches
    xs = np.linspace(0.2, 0.8, 101)
    ys = np.full_like(xs, 0.45)
    fx, fy = flow_map(vortex, 0.0, 0.6, xs, ys)
    ax, ay = flow_map(vortex, 0.0, 0.6, xs[:50], ys[:50])
    bx, by = flow_map(vortex, 0.0, 0.6, xs[50:], ys[50:])
    assert np.array_equal(np.concatenate([ax, bx]), fx)
    assert np.array_equal(np.concatenate([ay, by]), fy)


@pytest.mark.parametrize("t_from, t_to", [(0.0, 0.1875), (0.7, 0.55)])
def test_advance_matches_textbook_rk4(t_from, t_to):
    u = from_stream_function(
        [StreamFunction((0.4, 0.5), 0.25, 0.5), StreamFunction((0.65, 0.55), 0.2, -0.3)],
        unit_square(),
        "linear",
    )
    integ = FlowMapIntegrator((u,), 0.0625)
    steps = integ.steps(t_from, t_to)
    assert len(steps) == 3
    X, Y = Grid(unit_square(), 24, 24).meshes()
    x0, y0 = X[3:-3, 3:-3], Y[3:-3, 3:-3]

    def slope(x, y, t):
        ux, uy = u.eval(x, y, t)
        return -ux, -uy

    x, y, t = x0, y0, t_from
    for h in steps:
        k1x, k1y = slope(x, y, t)
        k2x, k2y = slope(x + 0.5 * h * k1x, y + 0.5 * h * k1y, t + 0.5 * h)
        k3x, k3y = slope(x + 0.5 * h * k2x, y + 0.5 * h * k2y, t + 0.5 * h)
        k4x, k4y = slope(x + h * k3x, y + h * k3y, t + h)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        t += h
    gx, gy = integ.advance(x0[None], y0[None], t_from, t_to, escape_tol=1e-9)
    assert np.array_equal(gx[0], x) and np.array_equal(gy[0], y)
    assert not np.array_equal(gx[0], x0)


@pytest.mark.parametrize("t_from, t_to", [(0.0, 0.1875), (0.7, 0.55)])
def test_stacked_advance_matches_each_field_alone(t_from, t_to):
    # row n of a stack moves in field n with its own coefficients, bit for
    # bit as the field's own one-member stack moves it
    u = from_stream_function(
        [StreamFunction((0.4, 0.5), 0.25, 0.5), StreamFunction((0.65, 0.55), 0.2, -0.3)],
        unit_square(),
        "linear",
    )
    fields = (u, u.scaled(1.5), u.scaled(-0.75))
    X, Y = Grid(unit_square(), 24, 24).meshes()
    x0, y0 = X[3:-3, 3:-3].ravel(), Y[3:-3, 3:-3].ravel()
    stack = FlowMapIntegrator(fields, 0.0625)
    for _ in range(2):  # the second pass reuses the first one's workspace
        gx, gy = stack.advance(np.tile(x0, (3, 1)), np.tile(y0, (3, 1)), t_from, t_to, 1e-9)
        for row, f in enumerate(fields):
            alone = FlowMapIntegrator((f,), 0.0625)
            wx, wy = alone.advance(x0[None], y0[None], t_from, t_to, 1e-9)
            assert np.array_equal(gx[row], wx[0]) and np.array_equal(gy[row], wy[0])
    assert not np.array_equal(gx[0], gx[1])


def test_stack_needs_shared_supports():
    u = vortex_field(unit_square())
    for fields in ((), (u, vortex_field(unit_square(), center=(0.45, 0.5))),
                   (u, vortex_field(unit_square(), modulation="linear"))):
        with pytest.raises(CharacteristicsError, match="stack"):
            FlowMapIntegrator(fields, 0.1)


def test_clamp_raises_past_tolerance_and_clamps_onto_the_edge():
    integ = FlowMapIntegrator((vortex_field(unit_square()),), 0.01)
    tol = 1e-6
    x = np.array([0.5, 1.0 + 0.5 * tol, -0.5 * tol, 0.25])
    y = np.array([0.5, 0.5, 1.0, -0.9 * tol])
    integ._clamp(x, y, tol)
    assert x.tolist() == [0.5, 1.0, 0.0, 0.25]
    assert y.tolist() == [0.5, 0.5, 1.0, 0.0]
    inside = np.array([0.3, 0.7])
    integ._clamp(inside, inside[::-1].copy(), tol)
    assert inside.tolist() == [0.3, 0.7]
    for bad in ([1.0 + 2.0 * tol, 0.5], [0.5, -2.0 * tol]):
        with pytest.raises(FlowEscapeError, match="left the domain by 2.000e-06"):
            integ._clamp(np.array([bad[0]]), np.array([bad[1]]), tol)


def test_flow_map_escape_detection():
    # a vortex centred below the square whose support covers its upper
    # part, built directly because from_stream_function refuses a support
    # that crosses the boundary: near (0.9, 0.5) u is about (-0.95, 0), so
    # characteristics run +x out through the right edge
    u = VelocityField((StreamFunction((0.9, -0.5), 1.5, 2.0),), unit_square())
    with pytest.raises(FlowEscapeError):
        flow_map(u, 0.0, 0.5, (0.9, 0.5))
    # a generous allowance clamps instead
    gx, gy = flow_map(u, 0.0, 0.5, (0.9, 0.5), escape_tol=1.0)
    assert gx == 1.0 and 0.0 < gy < 0.5


# ---------------------------------------------------------------------------
# Classical solve
# ---------------------------------------------------------------------------


def test_solve_transports_constants(vortex):
    grid = Grid(unit_square(), 48, 48)
    rho0 = static_field(grid, lambda x, y: np.full_like(x, 3.7))
    rho = solve_classical(rho0, vortex, TimePartition(0.5, 10))
    assert np.allclose(rho.values, 3.7, rtol=1e-14)


def test_solve_radial_data_is_invariant(vortex):
    # streamlines of the centered vortex are level sets of r, so a radial
    # density is a steady state; the leftover is pure interpolation error
    grid = Grid(unit_square(), 256, 256)
    rho0 = static_field(grid, lambda x, y: 0.05 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))
    rho = solve_classical(rho0, vortex, TimePartition(0.2, 20))
    drift = np.max(np.abs(rho.values - rho0.values[0]))
    assert drift < 1e-6


def test_solve_matches_refined_reference(base_case, vortex_rotation):
    # reference: the initial blob in closed form at the exact characteristic
    # feet, compared on every fourth node with the matching trapezoid weights
    grid = base_case.grid
    Xp, Yp = np.meshgrid(grid.xs[::4], grid.ys[::4], indexing="ij")
    dep_x, dep_y = vortex_rotation(Xp, Yp, 1.0, 0.0)
    ref_vals = gaussian_blob((0.6, 0.5), 0.08)(dep_x, dep_y)
    got_vals = base_case.last[::4, ::4]
    sub = Grid(unit_square(), 64, 64)
    err = np.sqrt(np.sum((got_vals - ref_vals) ** 2 * sub.quadrature_weights))
    assert err < 1e-3


def test_solve_max_principle(half_case):
    lo = np.min(half_case.rho0.values)
    hi = np.max(half_case.rho0.values)
    assert half_case.lo >= lo - 1e-14
    assert half_case.hi <= hi + 1e-14


def test_solve_norm_conservation_sanity(half_case):
    # the case's per-layer L2 norms are sqrt(sum(layer**2 * w)), written out
    # rather than read from lp_norm
    norms = half_case.l2_norms
    drift = (max(norms) - min(norms)) / norms[0]
    assert drift < 5e-3


def _arrays(obj, seen):
    """Every ndarray reachable from obj through attributes and containers."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _arrays(key, seen)
            yield from _arrays(value, seen)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item, seen)
    elif hasattr(obj, "__dict__") and not callable(obj):
        for value in vars(obj).values():
            yield from _arrays(value, seen)


@pytest.mark.parametrize("case", ["base_case", "half_case"])
def test_shared_cases_store_no_solution(case, request):
    shared = request.getfixturevalue(case)
    one_layer = (shared.grid.nx + 1) * (shared.grid.ny + 1)
    arrays = list(_arrays(shared, set()))
    assert any(a.size == one_layer for a in arrays)  # the walk reaches the layers
    assert max(a.size for a in arrays) <= one_layer


def test_solve_layers_match_flow_map_composition(vortex):
    # layer j is literally rho0 pulled back by the j-th backward flow map,
    # whether the solver advanced incrementally or not: against one
    # integration of every node's offset from the vortex centre o, bit for
    # bit where the stack turns a radius class's representative by a
    # quarter turn and to 1e-12 elsewhere, and to roundoff against the
    # absolute flow_map
    grid = Grid(unit_square(), 32, 32)
    times = TimePartition(0.4, 8)
    rho0 = static_field(grid, gaussian_blob((0.55, 0.5), 0.15))
    rho = solve_classical(rho0, vortex, times)
    k = max(1, int(np.ceil(times.dt / (0.5 * grid.hx / vortex.max_speed(grid)))))
    X, Y = grid.meshes()
    o = vortex.components[0].center
    # o is node (16, 16), and on 32^2 the lattice offsets are exact
    ax = (np.arange(33) - 16) * grid.hx
    AX, AY = np.meshgrid(ax, ax, indexing="ij")
    moving = np.flatnonzero(vortex.support_mask(X, Y))
    a, b = np.divmod(moving, 33)
    _, _, w = characteristics._radius_classes(a - 16, b - 16)
    turned = moving[np.isin(w, (1.0, 1j, -1.0, -1j))]
    integ = FlowMapIntegrator((_recentred(vortex, o),), times.dt / k)
    for j in (3, 8):
        t = float(times.times[j])
        ox, oy = integ.advance(AX[None], AY[None], t, 0.0, grid.hx)
        fx, fy = o[0] + ox[0], o[1] + oy[0]
        want = grid.interpolate(rho0.layer(0), fx, fy)
        assert np.array_equal(rho.layer(j).ravel()[turned], want.ravel()[turned])
        np.testing.assert_allclose(rho.layer(j), want, rtol=0, atol=1e-12)
        dx, dy = flow_map(vortex, t, 0.0, X, Y, dt=times.dt / k, escape_tol=grid.hx)
        assert np.max(np.hypot(fx - dx, fy - dy)) < 1e-13
        np.testing.assert_allclose(
            rho.layer(j), grid.interpolate(rho0.layer(0), dx, dy), rtol=0, atol=1e-13
        )


def solver_feet(u, grid, times):
    """(j, t_j, foot_x, foot_y) of every node, read off the solver's layers.

    Bilinear interpolation reproduces the coordinate functions x and y to
    roundoff, so transporting them returns the backward characteristic feet.
    """
    fx = static_field(grid, lambda x, y: x)
    fy = static_field(grid, lambda x, y: y)
    for (j, t, lx), (_, _, ly) in zip(
        solution_layers(fx, u, times), solution_layers(fy, u, times)
    ):
        yield j, t, lx, ly


@pytest.mark.parametrize("modulation", ["linear", "inverse-sqrt"])
def test_solve_time_modulated_field(modulation, vortex_rotation):
    # every foot of every layer against the exact rotation by
    # g(r) (M(t_j) - M(0)), with M written out in conftest
    u = vortex_field(unit_square(), modulation=modulation)
    grid = Grid(unit_square(), 32, 32)
    times = TimePartition(1.0, 1000)
    X, Y = grid.meshes()
    worst = 0.0
    for _, t, fx, fy in solver_feet(u, grid, times):
        ex, ey = vortex_rotation(X, Y, t, 0.0, modulation=modulation)
        worst = max(worst, float(np.max(np.hypot(fx - ex, fy - ey))))
    assert worst < 1e-8


def test_solve_time_modulated_field_tracks_flow_map():
    # a route that never reparametrizes time: flow_map integrates
    # m(t) v(x) in t itself, here at a step far below the solver's
    u = vortex_field(unit_square(), modulation="linear")
    grid = Grid(unit_square(), 48, 48)
    times = TimePartition(0.5, 8)
    X, Y = grid.meshes()
    feet = {j: (fx, fy) for j, _, fx, fy in solver_feet(u, grid, times)}
    # early layers barely move (m(t) ~ 0), late ones do
    assert np.max(np.abs(feet[1][0] - X)) < np.max(np.abs(feet[8][0] - X))
    dx, dy = flow_map(u, float(times.times[5]), 0.0, X, Y, dt=1e-4, escape_tol=grid.hx)
    assert np.max(np.hypot(feet[5][0] - dx, feet[5][1] - dy)) < 2e-7


def test_iter_solution_layers_streams_same_values(vortex):
    grid = Grid(unit_square(), 24, 24)
    times = TimePartition(0.3, 6)
    rho0 = static_field(grid, gaussian_blob((0.58, 0.5), 0.14))
    rho = solve_classical(rho0, vortex, times)
    nodes = None
    for j, t, moving in iter_solution_layers(rho0, vortex, times):
        # one problem is the one-member family: the stream's own view
        assert isinstance(moving, MovingLayers) and moving.density == (0,)
        nodes = moving.nodes if nodes is None else nodes
        assert moving.nodes is nodes and moving.values.shape == (1, nodes.size)
        assert t == pytest.approx(float(times.times[j]))
        assert np.array_equal(assemble(moving)[0], rho.layer(j))


@pytest.mark.parametrize(
    "u",
    [
        VelocityField((), unit_square()),
        # time-modulated support ball between four nodes of the 32^2 grid
        vortex_field(
            unit_square(), center=(0.5 + 1 / 64, 0.5 + 1 / 64), radius=0.4 / 32,
            modulation="linear",
        ),
    ],
    ids=["no-components", "support-between-nodes"],
)
def test_iter_solution_layers_without_moving_nodes(u):
    # no node lies inside a support ball, so nothing is integrated; on a
    # 32^2 grid interpolation at a node returns the nodal value
    grid = Grid(unit_square(), 32, 32)
    rho0 = static_field(grid, gaussian_blob((0.58, 0.5), 0.14))
    layers = list(solution_layers(rho0, u, TimePartition(0.5, 4)))
    assert [j for j, _, _ in layers] == [0, 1, 2, 3, 4]
    for _, _, layer in layers:
        assert np.array_equal(layer, rho0.layer(0))
    # the same field in a family, beside a field that moves nodes
    twice = static_field(grid, lambda x, y: 2.0 * gaussian_blob((0.58, 0.5), 0.14)(x, y))
    stream = iter_solution_layers(
        [rho0, twice, rho0], [u, u, vortex_field(unit_square())], TimePartition(0.5, 4)
    )
    family = [(j, t, assemble(moving)) for j, t, moving in stream]
    for (_, _, (a, b, c)), (_, _, alone) in zip(family, layers):
        assert np.array_equal(a, alone) and np.array_equal(b, 2.0 * alone)
    assert not np.array_equal(family[-1][2][2], rho0.layer(0))


def record_advances(monkeypatch) -> list:
    """(dt, t_from, x.shape) of every FlowMapIntegrator.advance call."""
    calls = []
    original = FlowMapIntegrator.advance

    def recorded(self, x, y, t_from, t_to, escape_tol):
        calls.append((self.dt, t_from, np.shape(x)))
        return original(self, x, y, t_from, t_to, escape_tol)

    monkeypatch.setattr(FlowMapIntegrator, "advance", recorded)
    return calls


def test_family_with_different_substep_counts_matches_one_member_solves(monkeypatch):
    # at 48^2 x 60 the CFL rule gives u three substeps per layer and 1.5 u
    # four, so the amplitude family runs as two stacks side by side
    grid = Grid(unit_square(), 48, 48)
    times = TimePartition(1.0, 60)
    u = vortex_field(unit_square())
    rho0 = static_field(grid, gaussian_blob())
    fields = [u] + [u.scaled(1.0 + 1.0 / n) for n in (2, 4, 8)]
    alone = [list(solution_layers(rho0, f, times)) for f in fields]
    calls = record_advances(monkeypatch)
    stream = iter_solution_layers([rho0] * 4, fields, times)
    family = [(j, t, assemble(moving)) for j, t, moving in stream]
    # each stack steps one representative per radius class of its moving
    # nodes about the centre node
    radii = moving_nodes_and_radii(u, grid)[1]
    assert sorted(calls[:2]) == [
        (times.dt / 4, 1.0 / 60, (1, radii)), (times.dt / 3, 1.0 / 60, (3, radii))
    ]
    assert len(calls) == 2 * times.nt
    for j, t, layers in family:
        assert len(layers) == 4
        for m, layer in enumerate(layers):
            assert (j, t) == alone[m][j][:2]
            assert np.array_equal(layer, alone[m][j][2])


def test_family_stream_assembles_each_members_own_solve_over_two_support_radii():
    # radii 0.3 and 0.2 move different node sets, so the stream's nodes are
    # their union, and the 0.2 members read their still layer on the ring
    # of nodes only the 0.3 field moves
    grid = Grid(unit_square(), 40, 40)
    times = TimePartition(1.0, 12)
    rho0 = static_field(grid, gaussian_blob())
    other = static_field(grid, gaussian_blob((0.45, 0.55), 0.1))
    small = vortex_field(unit_square(), radius=0.2)
    fields = [vortex_field(unit_square()), small, small.scaled(1.5), small]
    densities = [rho0, other, rho0, rho0]
    stream = FamilyStream(densities, fields, times)
    X, Y = grid.meshes()
    wide, narrow = (np.flatnonzero(f.support_mask(X, Y)) for f in fields[:2])
    assert narrow.size < wide.size and np.isin(narrow, wide).all()
    assert np.array_equal(stream.nodes, wide)
    assert stream.density == (0, 1, 0, 0)
    alone = [list(solution_layers(r, f, times)) for r, f in zip(densities, fields)]
    steps = 0
    for j, t, moving in stream:
        assert moving.values.shape == (4, wide.size)
        assert moving.nodes is stream.nodes and moving.density == stream.density
        for m, v in enumerate(moving.values):
            layer = moving.still[stream.density[m]].copy()
            layer.ravel()[stream.nodes] = v
            want = alone[m][j]
            assert (j, t) == want[:2]
            assert np.array_equal(layer, want[2])
            assert np.array_equal(np.signbit(layer), np.signbit(want[2]))
        steps += 1
    assert steps == times.nt + 1


def _stream_layers(densities, fields, times):
    return [assemble(moving) for _, _, moving in FamilyStream(densities, fields, times)]


def _stream_feet(densities, fields, times):
    """A family stream's stacks, and per layer j >= 1 every member's whole
    layer and the feet of every stack's rows, stacked in stack order."""
    stream = FamilyStream(densities, fields, times)
    stacks = stream._stacks
    out = [
        (assemble(moving), *(np.concatenate([s.feet[i] for s in stacks]) for i in (0, 1)))
        for j, _, moving in stream
        if j
    ]
    return stacks, out


@pytest.mark.parametrize("n", [96, 128])
@pytest.mark.parametrize("modulation", ["none", "linear", "inverse-sqrt"])
@pytest.mark.parametrize("members", [1, 5], ids=["one-member", "amplitude-family"])
def test_quarter_turn_orbits_give_the_bits_of_every_node_solve(n, modulation, members, monkeypatch):
    # the vortex centre (0.5, 0.5) is a node, so each stack steps one node
    # per radius class and rotates its foot onto the rest of the class;
    # forcing the class map off steps every moving node. The
    # representative's quarter-turn relatives keep the bits of stepping
    # them, and every other foot is within roundoff of its own solve. 96^2
    # is a grid whose linspace nodes are not exact multiples of the cell.
    grid = Grid(unit_square(), n, n)
    times = TimePartition(1.0, 12)
    u = vortex_field(unit_square(), modulation=modulation)
    rho0 = static_field(grid, gaussian_blob())
    fields = [u] + [u.scaled(1.0 + 1.0 / k) for k in (2, 4, 8, 16)][: members - 1]
    moving, radii = moving_nodes_and_radii(u, grid)
    calls = record_advances(monkeypatch)
    stacks, reduced = _stream_feet([rho0] * members, fields, times)
    assert {shape[1] for _, _, shape in calls} == {radii}
    # the nodes whose foot is a representative's turned by 1, i, -1 or -i;
    # the stacks differ only in their substep counts
    _, w = stacks[0].classes
    assert all(np.array_equal(s.classes[1], w) for s in stacks)
    exact = np.isin(w, (1.0, 1j, -1.0, -1j))
    assert np.count_nonzero(exact) == 4 * (radii - 1) + 1
    nodes = stacks[0].moving[exact]
    calls.clear()
    monkeypatch.setattr(characteristics, "_radius_classes", lambda *args: None)
    _, full = _stream_feet([rho0] * members, fields, times)
    assert {shape[1] for _, _, shape in calls} == {moving}
    for (layers, x, y), (want, wx, wy) in zip(reduced, full, strict=True):
        assert np.max(np.hypot(x - wx, y - wy)) < 1e-12
        assert np.array_equal(x[:, exact], wx[:, exact])
        assert np.array_equal(y[:, exact], wy[:, exact])
        for a, b in zip(layers, want, strict=True):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            assert np.array_equal(a.ravel()[nodes], b.ravel()[nodes])
            assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [32, 96, 100])
def test_stack_starts_each_moving_node_within_an_ulp_of_the_centre(n, monkeypatch):
    # the start offsets are lattice multiples of the cell from the centre
    # node o = (0.5, 0.5): o + offset is the node itself where the linspace
    # nodes are exact lattice multiples (32^2), and within one ulp of o where
    # they are not
    monkeypatch.setattr(characteristics, "_radius_classes", lambda *args: None)
    grid = Grid(unit_square(), n, n)
    stack = characteristics._Stack([vortex_field(unit_square())], 1, TimePartition(1.0, 2), grid)
    i, j = np.divmod(stack.moving, n + 1)
    assert stack.x0.size == stack.moving.size
    gap = max(
        np.max(np.abs(0.5 + stack.x0 - grid.xs[i])), np.max(np.abs(0.5 + stack.y0 - grid.ys[j]))
    )
    assert gap <= np.spacing(0.5)
    assert (gap == 0.0) == (n == 32)


@pytest.mark.parametrize(
    "u, ny",
    [
        (vortex_field(unit_square(), center=(0.47, 0.5)), 96),
        (
            from_stream_function(
                [StreamFunction((0.5, 0.5), 0.2, 0.5), StreamFunction((0.55, 0.45), 0.2, 0.3)],
                unit_square(),
            ),
            96,
        ),
        (VelocityField((), unit_square()), 96),
        (vortex_field(unit_square()), 80),
    ],
    ids=["off-node-centre", "two-centres", "zero-field", "unequal-cells"],
)
def test_stacks_without_quarter_turn_orbits_step_every_moving_node(u, ny, monkeypatch):
    # an off-node centre, a component off the first one's centre or cells
    # that are not square break the radius classes, so every moving node is
    # stepped; the zero field steps none and yields layer 0 in every layer.
    # Each member is its one-member solve.
    grid = Grid(unit_square(), 96, ny)
    times = TimePartition(1.0, 6)
    rho0 = static_field(grid, gaussian_blob())
    X, Y = grid.meshes()
    moving = int(np.count_nonzero(u.support_mask(X, Y)))
    fields = [u, u.scaled(1.5)]
    alone = [list(solution_layers(rho0, f, times)) for f in fields]
    calls = record_advances(monkeypatch)
    family = _stream_layers([rho0, rho0], fields, times)
    assert {shape[1] for _, _, shape in calls} == ({moving} if moving else set())
    for j, layers in enumerate(family):
        for m, layer in enumerate(layers):
            assert np.array_equal(layer, alone[m][j][2])
    if not moving:
        assert all(np.array_equal(layer, rho0.layer(0)) for layers in family for layer in layers)


def test_family_members_share_grid():
    u = vortex_field(unit_square())
    rho0 = static_field(Grid(unit_square(), 32, 32), gaussian_blob())
    other = static_field(Grid(unit_square(), 40, 40), gaussian_blob())
    with pytest.raises(CharacteristicsError, match="one density grid"):
        next(iter_solution_layers([rho0, other], [u, u], TimePartition(0.5, 4)))
    with pytest.raises(ValueError):
        next(iter_solution_layers([rho0, rho0], [u], TimePartition(0.5, 4)))
    with pytest.raises(CharacteristicsError, match="one problem or more"):
        next(iter_solution_layers([], [], TimePartition(0.5, 4)))


def test_solve_validations(vortex):
    grid = Grid(unit_square(), 4, 4)
    rho0 = static_field(grid, lambda x, y: np.zeros_like(x))
    with pytest.raises(CharacteristicsError):
        # support margin 0.2 is below one cell (0.25) on a 4x4 grid
        solve_classical(rho0, vortex, TimePartition(1.0, 4))
    other = static_field(Grid(Domain(0.0, 0.0, 2.0, 1.0), 32, 32), lambda x, y: 0 * x)
    with pytest.raises(CharacteristicsError):
        solve_classical(other, vortex, TimePartition(1.0, 4))
    fine = static_field(Grid(unit_square(), 16, 16), lambda x, y: np.zeros_like(x))
    with pytest.raises(CharacteristicsError, match="substep count"):
        # dt / (CFL step) overflows to inf
        next(iter_solution_layers(fine, vortex, TimePartition(1e308, 2)))
    with pytest.raises(CharacteristicsError, match="substep count"):
        # 2.1e7 RK4 steps in each layer, over the cap of 1e6
        next(iter_solution_layers(fine, vortex, TimePartition(1e6, 2)))
