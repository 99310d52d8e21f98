"""Rectangular domains, interior shrinkages, tensor grids, and quadrature.

Everything downstream (velocity fields, transport solves, weak-form
residuals) lives on an axis-aligned rectangle. Keeping the domain a
rectangle makes boundary distance, interior shrinkage and region-weighted
quadrature exact, so the analysis modules never have to budget for
geometric error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GeometryError(ValueError):
    """Raised for invalid domains, regions, or out-of-domain queries."""


@dataclass(frozen=True)
class Domain:
    """Closed axis-aligned rectangle [x_lo, x_hi] x [y_lo, y_hi].

    The open interior plays the role of the transport domain; boundary and
    exterior are distinguished by :meth:`locate`.
    """

    x_lo: float
    y_lo: float
    x_hi: float
    y_hi: float

    def __post_init__(self) -> None:
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise GeometryError(
                f"degenerate rectangle: [{self.x_lo}, {self.x_hi}] x "
                f"[{self.y_lo}, {self.y_hi}]"
            )

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> float:
        return self.y_hi - self.y_lo

    @property
    def min_side(self) -> float:
        return min(self.width, self.height)

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    def locate(self, x: float, y: float) -> str:
        """Classify a point as 'interior', 'boundary', or 'exterior'."""
        if (
            x < self.x_lo or x > self.x_hi
            or y < self.y_lo or y > self.y_hi
        ):
            return "exterior"
        if (
            x == self.x_lo or x == self.x_hi
            or y == self.y_lo or y == self.y_hi
        ):
            return "boundary"
        return "interior"

    def contains_closure(self, x, y, tol: float = 0.0):
        """Vectorized membership in the closed rectangle, within tol."""
        x = np.asarray(x)
        y = np.asarray(y)
        return (
            (x >= self.x_lo - tol) & (x <= self.x_hi + tol)
            & (y >= self.y_lo - tol) & (y <= self.y_hi + tol)
        )


def unit_square() -> Domain:
    return Domain(0.0, 0.0, 1.0, 1.0)


def dist_to_boundary(d: Domain, x, y=None):
    """Euclidean distance to the rectangle boundary, vectorized.

    Nonnegative everywhere: interior points get the distance to the nearest
    edge, exterior points the distance to the closed rectangle (which is
    attained on the boundary). Exactly zero on the boundary itself.
    """
    if y is None:
        x, y = x
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # Exterior excess per axis; zero inside the slab.
    ex = np.maximum(np.maximum(d.x_lo - x, x - d.x_hi), 0.0)
    ey = np.maximum(np.maximum(d.y_lo - y, y - d.y_hi), 0.0)
    outside = np.hypot(ex, ey)
    inside = np.minimum(
        np.minimum(x - d.x_lo, d.x_hi - x),
        np.minimum(y - d.y_lo, d.y_hi - y),
    )
    out = np.where(outside > 0.0, outside, np.maximum(inside, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


def shrink(d: Domain, eps: float) -> Domain:
    """Interior rectangle at distance > eps from the boundary.

    shrink(d, 0) returns d itself. eps at or beyond half the smaller side
    would leave an empty interior and raises.
    """
    if eps < 0.0:
        raise GeometryError(f"negative shrink margin {eps}")
    if eps == 0.0:
        return d
    if eps >= 0.5 * d.min_side:
        raise GeometryError(
            f"shrink margin {eps} leaves an empty interior "
            f"(half the smaller side is {0.5 * d.min_side})"
        )
    return Domain(d.x_lo + eps, d.y_lo + eps, d.x_hi - eps, d.y_hi - eps)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid of nx x ny cells on a rectangle.

    Nodal arrays are indexed [i, j] with i along x and j along y, so a
    sampled scalar has shape (nx + 1, ny + 1).
    """

    domain: Domain
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise GeometryError(f"need at least one cell per axis, got {self.nx} x {self.ny}")

    @property
    def hx(self) -> float:
        return self.domain.width / self.nx

    @property
    def hy(self) -> float:
        return self.domain.height / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx + 1, self.ny + 1)

    @cached_property
    def xs(self) -> np.ndarray:
        return np.linspace(self.domain.x_lo, self.domain.x_hi, self.nx + 1)

    @cached_property
    def ys(self) -> np.ndarray:
        return np.linspace(self.domain.y_lo, self.domain.y_hi, self.ny + 1)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def sample(self, f) -> np.ndarray:
        """Evaluate f(x, y) on all nodes; f must accept ndarray arguments."""
        X, Y = self.meshes()
        return np.asarray(f(X, Y), dtype=float)

    @cached_property
    def quadrature_weights(self) -> np.ndarray:
        """Trapezoid tensor weights; they sum to the domain area exactly."""
        wx = np.full(self.nx + 1, self.hx)
        wx[0] = wx[-1] = 0.5 * self.hx
        wy = np.full(self.ny + 1, self.hy)
        wy[0] = wy[-1] = 0.5 * self.hy
        return np.outer(wx, wy)

    def interpolate(self, values: np.ndarray, x, y) -> np.ndarray:
        """Bilinear interpolation of nodal values at query points.

        Queries must lie in the closed rectangle (a relative slack of a few
        ulps absorbs roundoff); anything further outside raises, because a
        silent extrapolation would corrupt every norm built on top.
        """
        values = np.asarray(values)
        if values.shape != self.shape:
            raise GeometryError(
                f"values shape {values.shape} does not match grid {self.shape}"
            )
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = self.domain
        tol = 1e-12 * max(d.width, d.height)
        # an empty query has no min; the comparisons are written negated so
        # that a NaN query fails the check
        if x.size and y.size and not (
            x.min() >= d.x_lo - tol and x.max() <= d.x_hi + tol
            and y.min() >= d.y_lo - tol and y.max() <= d.y_hi + tol
        ):
            ok = d.contains_closure(x, y, tol=tol)
            bad = int(np.size(ok) - np.count_nonzero(ok))
            raise GeometryError(
                f"{bad} interpolation point(s) outside the closed domain"
            )
        fx = np.clip((x - d.x_lo) / self.hx, 0.0, self.nx)
        fy = np.clip((y - d.y_lo) / self.hy, 0.0, self.ny)
        i = np.minimum(fx.astype(int), self.nx - 1)
        j = np.minimum(fy.astype(int), self.ny - 1)
        sx = fx - i
        sy = fy - j
        rx = 1 - sx
        ry = 1 - sy
        # corner values gathered by flat index from the row-major nodes; the
        # other three corners are the same indices into offset views, so no
        # shifted index array is built. Each gathered corner is weighted in
        # place, and the sum is v00 rx ry + v10 sx ry + v01 rx sy + v11 sx sy
        # in that order.
        flat = values.ravel()
        k = i * (self.ny + 1)
        k += j
        out = flat.take(k)
        out *= rx
        out *= ry
        for offset, a, b in ((self.ny + 1, sx, ry), (1, rx, sy), (self.ny + 2, sx, sy)):
            corner = flat[offset:].take(k)
            corner *= a
            corner *= b
            out += corner
        return out


def integrate(g: np.ndarray, grid: Grid, region: Domain | None = None) -> float:
    """Quadrature of nodal samples g over the full domain or a sub-rectangle.

    The full-domain rule is the tensor trapezoid, exact for functions that
    are bilinear on each cell. A region restricts the same rule by weighting
    every cell's corner mean with the exact rectangle-rectangle overlap
    area, so shrunk-region integrals need no grid alignment.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != grid.shape:
        raise GeometryError(f"values shape {g.shape} does not match grid {grid.shape}")
    if region is None:
        return float(np.sum(g * grid.quadrature_weights))
    d = grid.domain
    tol = 1e-12 * max(d.width, d.height)
    if (
        region.x_lo < d.x_lo - tol or region.x_hi > d.x_hi + tol
        or region.y_lo < d.y_lo - tol or region.y_hi > d.y_hi + tol
    ):
        raise GeometryError("integration region extends outside the grid domain")
    # Per-cell corner mean times exact overlap area with the region.
    mean, ox, oy = cell_overlaps(g, grid, region)
    return float(np.einsum("ij,i,j->", mean, ox, oy))


def cell_overlaps(g: np.ndarray, grid: Grid, region: Domain):
    """(mean, ox, oy): the corner mean of nodal samples g on every cell, and
    how far each cell's x and y spans overlap the region (zero if apart), so
    that cell (i, j) overlaps it on the area ox[i] * oy[j]."""
    mean = 0.25 * (g[:-1, :-1] + g[1:, :-1] + g[:-1, 1:] + g[1:, 1:])
    ox = np.minimum(grid.xs[1:], region.x_hi) - np.maximum(grid.xs[:-1], region.x_lo)
    oy = np.minimum(grid.ys[1:], region.y_hi) - np.maximum(grid.ys[:-1], region.y_lo)
    return mean, np.clip(ox, 0.0, None), np.clip(oy, 0.0, None)


@dataclass(frozen=True)
class TimePartition:
    """Uniform partition of [0, T] into nt steps (nt + 1 node times)."""

    T: float
    nt: int

    def __post_init__(self) -> None:
        if self.T <= 0.0:
            raise GeometryError(f"final time must be positive, got {self.T}")
        if self.nt < 1:
            raise GeometryError(f"need at least one time step, got {self.nt}")

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)


def trapezoid_weights(times) -> np.ndarray:
    """Trapezoid quadrature weights on arbitrary increasing node times.

    Node j gets half the span of its neighbours, 0.5 * (t[j+1] - t[j-1]),
    with the one-sided half step at either end. At least two nodes are
    needed; a single node spans no interval.
    """
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        raise GeometryError("need at least two time nodes for trapezoid weights")
    w = np.empty_like(t)
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    return w
