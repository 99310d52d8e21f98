import numpy as np
import pytest

from transportlab.geometry import (
    Domain,
    GeometryError,
    Grid,
    TimePartition,
    dist_to_boundary,
    integrate,
    shrink,
    trapezoid_weights,
    unit_square,
    window_box,
)


def test_domain_rejects_degenerate_rectangles():
    with pytest.raises(GeometryError):
        Domain(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(GeometryError):
        Domain(0.0, 1.0, 1.0, 0.5)


def test_locate_partitions_the_plane():
    d = unit_square()
    cases = {
        (0.5, 0.5): "interior",
        (0.0, 0.3): "boundary",
        (1.0, 1.0): "boundary",
        (0.5, 1.0): "boundary",
        (1.2, 0.5): "exterior",
        (-0.1, -0.1): "exterior",
    }
    for (x, y), expected in cases.items():
        assert d.locate(x, y) == expected


def test_dist_to_boundary_interior_points():
    d = unit_square()
    assert dist_to_boundary(d, 0.5, 0.5) == 0.5
    assert dist_to_boundary(d, 0.0, 0.3) == 0.0
    assert dist_to_boundary(d, 0.1, 0.7) == pytest.approx(0.1, abs=0.0)


def test_dist_to_boundary_exterior_and_vectorized():
    d = unit_square()
    # Outside across an edge: axis distance; outside a corner: Euclidean.
    assert dist_to_boundary(d, 1.5, 0.5) == 0.5
    assert dist_to_boundary(d, 2.0, 2.0) == pytest.approx(np.sqrt(2.0))
    xs = np.array([0.5, 0.0, -0.3])
    ys = np.array([0.5, 0.3, 0.0])
    got = dist_to_boundary(d, xs, ys)
    assert np.allclose(got, [0.5, 0.0, 0.3])
    assert np.all(got >= 0.0)


def test_dist_is_zero_exactly_on_boundary_and_positive_inside():
    d = Domain(-1.0, 0.0, 3.0, 2.0)
    for x, y in [(-1.0, 1.0), (3.0, 0.0), (0.0, 2.0)]:
        assert d.locate(x, y) == "boundary"
        assert dist_to_boundary(d, x, y) == 0.0
    assert dist_to_boundary(d, 0.0, 1.0) > 0.0


def test_shrink_identity_and_offset():
    d = unit_square()
    assert shrink(d, 0.0) == d
    assert shrink(d, 0.25) == Domain(0.25, 0.25, 0.75, 0.75)


def test_shrink_rejects_empty_interior():
    d = unit_square()
    with pytest.raises(GeometryError):
        shrink(d, 0.5)
    with pytest.raises(GeometryError):
        shrink(d, 0.7)
    with pytest.raises(GeometryError):
        shrink(d, -0.1)


def test_shrink_composes_additively():
    d = Domain(0.0, 0.0, 2.0, 1.0)
    a, b = 0.1, 0.15
    assert shrink(shrink(d, a), b) == shrink(d, a + b)


def test_quadrature_weights_sum_to_area():
    g = Grid(Domain(0.0, 0.0, 2.0, 1.5), 37, 23)
    assert np.sum(g.quadrature_weights) == pytest.approx(3.0, rel=1e-14)


def test_integrate_constant_is_domain_measure():
    g = Grid(unit_square(), 64, 64)
    ones = np.ones(g.shape)
    assert integrate(ones, g) == pytest.approx(1.0, rel=1e-14)


def test_integrate_half_indicator():
    g = Grid(unit_square(), 256, 256)
    X, _ = g.meshes()
    ind = (X <= 0.5).astype(float)
    assert integrate(ind, g) == pytest.approx(0.5, abs=g.hx)


def test_integrate_bilinear_product_closed_form():
    # x*y is bilinear, so the trapezoid rule is exact up to roundoff. The
    # closed form 1/4 doubles as the refinement oracle.
    g = Grid(unit_square(), 256, 256)
    vals = g.sample(lambda x, y: x * y)
    assert integrate(vals, g) == pytest.approx(0.25, abs=1e-10)
    fine = Grid(unit_square(), 1024, 1024)
    ref = integrate(fine.sample(lambda x, y: x * y), fine)
    assert ref == pytest.approx(0.25, abs=1e-12)


def test_integrate_refinement_order_two():
    exact = 4.0 / np.pi**2  # integral of sin(pi x) sin(pi y) over the square
    errs = []
    for n in (16, 32, 64, 128):
        g = Grid(unit_square(), n, n)
        vals = g.sample(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        errs.append(abs(integrate(vals, g) - exact))
    slope = np.polyfit(np.log([16, 32, 64, 128]), np.log(errs), 1)[0]
    assert -slope >= 2.0 - 0.2


def test_integrate_region_matches_full_domain_when_region_is_whole():
    g = Grid(unit_square(), 48, 48)
    vals = g.sample(lambda x, y: np.cos(3 * x) + y)
    assert integrate(vals, g, unit_square()) == pytest.approx(
        integrate(vals, g), rel=1e-13
    )


def test_integrate_region_overlap_weighting():
    # Region edges deliberately off the grid lines; constant integrand makes
    # the exact-overlap weighting checkable in closed form.
    g = Grid(unit_square(), 32, 32)
    region = Domain(0.1037, 0.2, 0.7011, 0.9003)
    ones = np.ones(g.shape)
    assert integrate(ones, g, region) == pytest.approx(region.width * region.height, rel=1e-12)


def test_integrate_region_refines_to_closed_form():
    # Smooth integrand over a shrunk square, compared against the closed
    # form of integral x*y (exact since x*y is globally bilinear).
    region = shrink(unit_square(), 0.2)
    expected = ((0.8**2 - 0.2**2) / 2.0) ** 2
    g = Grid(unit_square(), 200, 200)
    vals = g.sample(lambda x, y: x * y)
    assert integrate(vals, g, region) == pytest.approx(expected, rel=1e-12)


def test_integrate_region_outside_domain_rejected():
    g = Grid(unit_square(), 8, 8)
    with pytest.raises(GeometryError):
        integrate(np.ones(g.shape), g, Domain(-0.5, 0.0, 0.5, 1.0))


def test_grid_nodes_inside_closure_and_spacing():
    d = Domain(0.0, 0.0, 2.0, 1.0)
    g = Grid(d, 10, 4)
    assert g.hx == pytest.approx(0.2)
    assert g.hy == pytest.approx(0.25)
    X, Y = g.meshes()
    assert np.all(d.contains_closure(X, Y))
    assert g.xs[0] == d.x_lo and g.xs[-1] == d.x_hi


def test_grid_rejects_empty_axes():
    with pytest.raises(GeometryError):
        Grid(unit_square(), 0, 4)


def test_interpolate_reproduces_bilinear_functions():
    g = Grid(Domain(0.0, 0.0, 2.0, 1.0), 17, 13)
    vals = g.sample(lambda x, y: 2.0 + 3.0 * x - y + 0.5 * x * y)
    rng = np.random.default_rng(7)
    qx = rng.uniform(0.0, 2.0, 200)
    qy = rng.uniform(0.0, 1.0, 200)
    got = g.interpolate(vals, qx, qy)
    want = 2.0 + 3.0 * qx - qy + 0.5 * qx * qy
    assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_interpolate_exact_at_nodes_and_edges():
    g = Grid(unit_square(), 9, 9)
    vals = g.sample(lambda x, y: np.sin(x) + y**2)
    X, Y = g.meshes()
    assert np.allclose(g.interpolate(vals, X, Y), vals, atol=1e-14)
    assert g.interpolate(vals, 1.0, 1.0) == pytest.approx(vals[-1, -1])


def test_interpolate_rejects_exterior_queries():
    g = Grid(unit_square(), 4, 4)
    vals = np.zeros(g.shape)
    with pytest.raises(GeometryError):
        g.interpolate(vals, 1.5, 0.5)
    with pytest.raises(GeometryError):
        g.interpolate(vals, np.array([0.2, -0.01]), np.array([0.2, 0.5]))


def test_interpolate_range_check_guards():
    g = Grid(unit_square(), 4, 4)
    vals = g.sample(lambda x, y: 1.0 + x + 2.0 * y)
    with pytest.raises(GeometryError, match="^1 interpolation"):
        g.interpolate(vals, np.array([0.5, np.nan]), np.array([0.5, 0.5]))
    with pytest.raises(GeometryError, match="^1 interpolation"):
        g.interpolate(vals, 0.5, np.nan)
    # two tolerances out on each side, and once in a corner; the slack is
    # 1e-12 of the longer side
    off = 2e-12
    qx = np.array([0.5, -off, 1.0 + off, 0.5, 0.5, -off, 0.25])
    qy = np.array([0.5, 0.5, 0.5, -off, 1.0 + off, 1.0 + off, 0.75])
    with pytest.raises(GeometryError, match="^5 interpolation"):
        g.interpolate(vals, qx, qy)
    # one ulp outside the closed square reads the edge value
    up, down = np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0)
    assert g.interpolate(vals, up, down) == g.interpolate(vals, 1.0, 0.0) == 2.0
    empty = g.interpolate(vals, np.array([]), np.array([]))
    assert empty.shape == (0,)


def clip_and_shift_interpolate(g, values, x, y):
    """Bilinear interpolation clamped by np.clip, with each corner gathered
    by its own shifted flat index."""
    d = g.domain
    fx = np.clip((x - d.x_lo) / g.hx, 0.0, g.nx)
    fy = np.clip((y - d.y_lo) / g.hy, 0.0, g.ny)
    i = np.minimum(fx.astype(int), g.nx - 1)
    j = np.minimum(fy.astype(int), g.ny - 1)
    sx, sy = fx - i, fy - j
    rx, ry = 1 - sx, 1 - sy
    flat = values.ravel()
    k = i * (g.ny + 1) + j
    v00, v10 = flat[k], flat[k + (g.ny + 1)]
    v01, v11 = flat[k + 1], flat[k + (g.ny + 2)]
    return v00 * rx * ry + v10 * sx * ry + v01 * rx * sy + v11 * sx * sy


def test_interpolate_matches_clip_and_shift_bits():
    # the corners are taken from offset views of the flat values; the bits
    # are those of the shifted-index gather
    g = Grid(Domain(-0.5, 0.25, 1.5, 1.0), 23, 11)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(g.shape)
    d = g.domain
    # one ulp and half the range check's slack outside, which the clamp
    # moves onto the edge
    up, down = np.nextafter(d.x_hi, np.inf), np.nextafter(d.y_lo, -np.inf)
    slack = 1e-12
    edges_x = [d.x_lo, d.x_hi, d.x_hi, d.x_lo, 0.3, d.x_hi, up, d.x_lo]
    edges_y = [d.y_lo, d.y_hi, d.y_lo, d.y_hi, d.y_hi, 0.6, down, 0.5]
    edges_x += [d.x_hi + slack, d.x_lo - slack]
    edges_y += [d.y_lo - slack, d.y_hi + slack]
    # random points, the edges and corners, and a diagonal of nodes
    qx = np.concatenate([rng.uniform(d.x_lo, d.x_hi, 500), edges_x, g.xs[: g.ys.size]])
    qy = np.concatenate([rng.uniform(d.y_lo, d.y_hi, 500), edges_y, g.ys[::-1]])
    got = g.interpolate(vals, qx, qy)
    want = clip_and_shift_interpolate(g, vals, qx, qy)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for x0, y0 in zip(edges_x, edges_y):
        one = g.interpolate(vals, x0, y0)
        assert np.shape(one) == ()
        assert one == clip_and_shift_interpolate(g, vals, np.asarray(x0), np.asarray(y0))


# hx = 0.1 and hy = 0.075 on a 2 x 1.2 rectangle off the origin
WINDOW_GRID = Grid(Domain(-0.3, 0.2, 1.7, 1.4), 20, 16)
_xs, _ys, _hx, _hy = WINDOW_GRID.xs, WINDOW_GRID.ys, WINDOW_GRID.hx, WINDOW_GRID.hy
WINDOWS = {
    "interior": (0.61, 0.77, 0.23),
    # node-centred windows whose edges fall on nodes up to roundoff, on
    # either side of them, at each of the four edges
    "node-centred, r = 3 hx": (_xs[6], _ys[7], 3 * _hx),
    "node-centred, r = 2 hx": (_xs[10], _ys[5], 2 * _hx),
    "node-centred, r = 2 hy": (_xs[12], _ys[12], 2 * _hy),
    "node-centred, r = 4 hy": (_xs[9], _ys[13], 4 * _hy),
    "left edge": (-0.25, 0.8, 0.2),
    "right edge": (1.65, 0.8, 0.2),
    "bottom edge": (0.7, 0.25, 0.2),
    "top edge": (0.7, 1.35, 0.2),
    "corner": (1.68, 0.22, 0.3),
    "node-centred corner, r = 2 hx": (_xs[0], _ys[-1], 2 * _hx),
    "outside the grid": (-1.0, -1.0, 0.2),
}


def brute_window(grid, x0, y0, r):
    """The nodes within r of (x0, y0) on each axis, as a mask; the slack is
    far below any node's distance from a window edge it does not lie on."""
    tol = 1e-9 * min(grid.hx, grid.hy)
    return np.outer(np.abs(grid.xs - x0) <= r + tol, np.abs(grid.ys - y0) <= r + tol)


@pytest.mark.parametrize("x0, y0, r", WINDOWS.values(), ids=WINDOWS.keys())
def test_window_box_holds_the_nodes_of_the_closed_window(x0, y0, r):
    grid, d = WINDOW_GRID, WINDOW_GRID.domain
    box = window_box(grid, x0, y0, r)
    for s, n in zip(box, grid.shape):
        assert s.step is None and 0 <= s.start <= s.stop <= n
    got = np.zeros(grid.shape, dtype=bool)
    got[box] = True
    np.testing.assert_array_equal(got, brute_window(grid, x0, y0, r))
    # a window past an edge keeps the nodes up to that edge
    rows, cols = box
    if got.any():
        assert (rows.start == 0) == (x0 - r <= d.x_lo)
        assert (rows.stop == grid.nx + 1) == (x0 + r >= d.x_hi)
        assert (cols.start == 0) == (y0 - r <= d.y_lo)
        assert (cols.stop == grid.ny + 1) == (y0 + r >= d.y_hi)


def test_window_box_cases_clip_at_every_edge():
    boxes = [window_box(WINDOW_GRID, *w) for w in WINDOWS.values()]
    nx, ny = WINDOW_GRID.nx, WINDOW_GRID.ny
    assert any(rows.start == 0 and rows.stop > 0 for rows, _ in boxes)
    assert any(rows.stop == nx + 1 for rows, _ in boxes)
    assert any(cols.start == 0 and cols.stop > 0 for _, cols in boxes)
    assert any(cols.stop == ny + 1 for _, cols in boxes)
    assert any(r.stop == nx + 1 and c.start == 0 for r, c in boxes)


def test_window_box_between_nodes_below_half_a_cell_is_empty():
    grid = WINDOW_GRID
    x0, y0 = 0.5 * (grid.xs[3] + grid.xs[4]), 0.5 * (grid.ys[2] + grid.ys[3])
    r = 0.4 * min(grid.hx, grid.hy)
    rows, cols = window_box(grid, x0, y0, r)
    assert not brute_window(grid, x0, y0, r).any()
    assert rows.start == rows.stop and cols.start == cols.stop


def test_time_partition_nodes():
    tp = TimePartition(2.0, 8)
    assert tp.dt == pytest.approx(0.25)
    assert tp.times[0] == 0.0
    assert tp.times[-1] == 2.0
    assert np.all(np.diff(tp.times) > 0)
    assert np.allclose(np.diff(tp.times), tp.dt)
    assert np.sum(trapezoid_weights(tp.times)) == pytest.approx(2.0, rel=1e-14)


def test_trapezoid_weights_on_uneven_nodes():
    t = np.array([0.0, 0.1, 0.35, 0.4, 1.0])
    w = trapezoid_weights(t)
    assert w.tolist() == pytest.approx([0.05, 0.175, 0.15, 0.325, 0.3], rel=1e-14)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(GeometryError):
        trapezoid_weights([0.5])


def test_time_partition_validation():
    with pytest.raises(GeometryError):
        TimePartition(0.0, 4)
    with pytest.raises(GeometryError):
        TimePartition(1.0, 0)
