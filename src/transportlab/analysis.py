"""Norm diagnostics, boundary-layer checks, stability.

Everything here reduces densities or velocity fields to the handful of
numbers the transport theory says must behave: conserved L^p norms,
vanishing boundary-layer flux, and perturbation distances that shrink
together. NormHistory is a layer consumer; the stability experiment drives
its own solves as one family: one iter_solution_layers pass over the
reference and every member, whose values on the moving nodes feed the L^p
and the renormalized distances together. Nothing here judges a number
against a tolerance: the studies do that, each check by the one rule
measured <= tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from transportlab.characteristics import MovingLayers, drive, iter_solution_layers
from transportlab.fields import (
    AdmissibleBeta,
    ScalarField,
    StreamFunction,
    VelocityField,
    time_weights,
)
from transportlab.geometry import (
    Domain,
    Grid,
    GeometryError,
    TimePartition,
    cell_overlaps,
    integrate,
    shrink,
)


class AnalysisError(ValueError):
    """Raised when a diagnostic is asked for inadmissible inputs. Properties
    measured on the data (decay, monotonicity) are reported, never raised."""


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def lp_norm(values: np.ndarray, grid: Grid, p: float, region: Domain | None = None) -> float:
    """L^p norm of one nodal layer over the domain or a sub-rectangle of it.

    p = inf is the sup over the nodes in the region, and a region that holds
    no node is refused; finite p integrates |values|^p by geometry.integrate
    over the same region, which weights cell overlaps and so has a value on
    any region.
    """
    if not p >= 1.0:
        raise AnalysisError(f"p must be >= 1, got {p}")
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise AnalysisError(f"layer shape {values.shape} does not match grid")
    if np.isinf(p):
        if region is not None:
            mask_x = (grid.xs >= region.x_lo) & (grid.xs <= region.x_hi)
            mask_y = (grid.ys >= region.y_lo) & (grid.ys <= region.y_hi)
            if not (mask_x.any() and mask_y.any()):
                raise AnalysisError(
                    f"region [{region.x_lo:g}, {region.x_hi:g}] x "
                    f"[{region.y_lo:g}, {region.y_hi:g}] holds no grid node; "
                    "its sup norm is undefined"
                )
            values = values[np.ix_(mask_x, mask_y)]
        return float(np.max(np.abs(values)))
    return float(integrate(np.abs(values) ** p, grid, region) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormReport:
    """Per-time-node L^p norms of a solved density against the t=0 value.

    drift is the two-sided relative excursion; growth keeps only the
    positive side. Backward semi-Lagrangian evaluation averages nodal
    values, so it can lose extrema to smoothing but never create them:
    for p = inf the meaningful conservation statistic is growth, while
    finite p sees both sides of the quadrature wobble.
    """

    p: float
    times: np.ndarray
    values: np.ndarray
    reference: float

    @property
    def _scale(self) -> float:
        return self.reference if self.reference > 0.0 else 1.0

    @property
    def drift(self) -> float:
        return float(np.max(np.abs(self.values - self.reference)) / self._scale)

    @property
    def growth(self) -> float:
        return float(max(np.max(self.values - self.reference) / self._scale, 0.0))

    @property
    def statistic(self) -> float:
        """The value a study gates: growth for p = inf, two-sided drift otherwise."""
        return self.growth if np.isinf(self.p) else self.drift

    @property
    def deviations(self) -> np.ndarray:
        """Per-time-node relative departure from the t=0 value, one-sided
        for p = inf as statistic is."""
        if np.isinf(self.p):
            return np.maximum(self.values - self.reference, 0.0) / self._scale
        return np.abs(self.values - self.reference) / self._scale


class NormHistory:
    """The L^p norm history of a layer stream, fed one layer at a time in
    time order; reports gives each exponent's against its first layer."""

    def __init__(self, grid: Grid, p_list: Sequence[float] = (1.0, 2.0, 3.0, np.inf)):
        self.grid, self.p_list = grid, tuple(p_list)
        self.times: list[float] = []
        self.norms: list[list[float]] = []

    def add_layer(self, j: int, t: float, layer: np.ndarray) -> None:
        self.times.append(t)
        self.norms.append([lp_norm(layer, self.grid, p) for p in self.p_list])

    def reports(self) -> dict[float, NormReport]:
        if not self.norms:
            raise AnalysisError("the norm history has seen no layer")
        times, norms = np.array(self.times), np.array(self.norms)
        return {
            float(p): NormReport(float(p), times, norms[:, k], float(norms[0, k]))
            for k, p in enumerate(self.p_list)
        }


# ---------------------------------------------------------------------------
# Boundary layer flux
# ---------------------------------------------------------------------------


def _frame_integral(values: np.ndarray, grid: Grid, width: float) -> float:
    """Quadrature of values over the boundary frame of the given width.

    Per cell: corner mean times the cell area left outside the shrunk
    region. Cells with all-zero corners contribute an exact 0.0, so a
    compactly supported integrand clears this function without roundoff.
    """
    cell = grid.hx * grid.hy
    v = np.asarray(values, dtype=float)
    try:
        mean, ox, oy = cell_overlaps(v, grid, shrink(grid.domain, width))
    except GeometryError:  # the frame swallows the whole domain
        return float(np.sum(cell_overlaps(v, grid, grid.domain)[0]) * cell)
    return float(np.einsum("ij,ij->", mean, cell - ox[:, None] * oy[None, :]))


def boundary_flux_decay(u, h_list: Sequence[float], grid: Grid, t: float = 0.0):
    """Pairs (h, 2h * integral of |u| over the frame of width 1/h).

    For continuous boundary-vanishing fields this tends to 0 and hits it
    exactly once 1/h clears the support margin; a field violating the
    boundary condition saturates near 2 * perimeter instead.
    """
    hs = [float(h) for h in h_list]
    if any(h <= 0.0 for h in hs) or any(b <= a for a, b in zip(hs, hs[1:])):
        raise AnalysisError("h_list must be positive and strictly increasing")
    X, Y = grid.meshes()
    ux, uy = u.eval(X, Y, t)
    speed = np.hypot(ux, uy)
    return [(h, 2.0 * h * _frame_integral(speed, grid, 1.0 / h)) for h in hs]


# ---------------------------------------------------------------------------
# Renormalized convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RenormalizationTrend:
    """L2 space-time distances ||beta(rho_n) - beta(rho)|| per beta."""

    labels: tuple[str, ...]
    distances: tuple[tuple[float, ...], ...]


def _trend(betas: Sequence[AdmissibleBeta], sq: list[list[float]]) -> RenormalizationTrend:
    """The trend from sq[b][m], member m's running squared distance for beta b."""
    return RenormalizationTrend(
        tuple(beta.label for beta in betas),
        tuple(tuple(float(np.sqrt(v)) for v in row) for row in sq),
    )


def renormalization_convergence_check(
    rho_list: Sequence[ScalarField],
    rho: ScalarField,
    betas: Sequence[AdmissibleBeta],
) -> RenormalizationTrend:
    """Per beta, the trend of ||beta(rho_n) - beta(rho)||_{L2((0,T) x Omega)}.

    The stored-solution route; stability_experiment takes the same
    distances while it streams the solves. Each time node adds its time
    weight (fields.time_weights) times the spatial integral of
    (beta(rho_n) - beta(rho))^2.
    """
    for r in rho_list:
        if r.grid != rho.grid or r.n_layers != rho.n_layers:
            raise AnalysisError("all densities must share grid and time layout")
    tw = time_weights(rho.times)
    sq = [[0.0] * len(rho_list) for _ in betas]
    for j in range(rho.n_layers):
        for beta, row in zip(betas, sq):
            base = beta(rho.layer(j))
            for m, r in enumerate(rho_list):
                row[m] += tw[j] * integrate((beta(r.layer(j)) - base) ** 2, rho.grid)
    return _trend(betas, sq)


class _FamilyDistances:
    """Running distances of members 1, 2, ... of a family to member 0, fed
    the family's MovingLayers one layer at a time.

    Per member: e, the max over the time nodes so far of ||rho_n - rho||_p
    as lp_norm takes it; and per beta, the running squared distance
    renormalization_convergence_check takes.

    Every distance is reduced over the whole grid, in the order lp_norm and
    integrate reduce it, so each value keeps their bits. A full-grid buffer
    per distance and initial density (members that share one share the
    buffer) holds the integrand. The first layer fixes the nodes and the
    densities the buffers serve; the part off the nodes is written whenever
    a layer brings still layers other than the last ones, and each layer
    rewrites only the entries at the nodes. Each beta is evaluated once per
    layer, on every member's values at once.
    """

    def __init__(self, grid: Grid, times: np.ndarray, p: float, betas: Sequence[AdmissibleBeta]):
        self.grid, self.p = grid, p
        self.betas = list(betas)
        self.tw = time_weights(times)
        self.w = grid.quadrature_weights
        self.still: Sequence[np.ndarray] | None = None  # the last still layers written

    def _lp_integrand(self, diff: np.ndarray, w) -> np.ndarray:
        a = np.abs(diff)
        return a if np.isinf(self.p) else a**self.p * w

    def _set_still(self, stills: Sequence[np.ndarray]) -> None:
        """Write the part off the nodes: stills[d] is the layer of density d,
        stills[0] the reference's."""
        self.still = stills
        for beta, bufs in zip(self.betas, self.buffers):
            b = {d: beta(stills[d]) for d in {0, *bufs}}
            for d, buf in bufs.items():
                buf[...] = (b[d] - b[0]) ** 2 * self.w
        for d, buf in self.buffers[-1].items():
            buf[...] = self._lp_integrand(stills[d] - stills[0], self.w)

    def _reduce(self, bufs: dict, integrands: np.ndarray, reduce) -> list[float]:
        """Per member, its integrand written into its density's buffer at the
        nodes, and the whole buffer reduced."""
        out = []
        for d, row in zip(self.density, integrands):
            buf = bufs[d]
            buf.ravel()[self.nodes] = row
            out.append(float(reduce(buf)))
        return out

    def add_layer(self, j: int, t: float, layer: MovingLayers) -> None:
        """layer.values[m]: member m's layer j at the nodes, member 0 the
        reference."""
        if j == 0:
            self.nodes = layer.nodes
            self.w_nodes = self.w.ravel()[layer.nodes]
            self.density = tuple(layer.density[1:])
            # buffers[k][d]: distance k (each beta, then L^p) for density d
            self.buffers = [
                {d: np.empty(self.grid.shape) for d in sorted(set(self.density))}
                for _ in range(len(self.betas) + 1)
            ]
            self.e = [0.0] * len(self.density)
            self.sq = [[0.0] * len(self.density) for _ in self.betas]
        if layer.still is not self.still:
            self._set_still(layer.still)
        values = layer.values
        for beta, bufs, sq in zip(self.betas, self.buffers, self.sq):
            b = beta(values)
            sums = self._reduce(bufs, (b[1:] - b[0]) ** 2 * self.w_nodes, np.sum)
            for m, v in enumerate(sums):
                sq[m] += self.tw[j] * v
        integrands = self._lp_integrand(values[1:] - values[0], self.w_nodes)
        if np.isinf(self.p):
            norms = self._reduce(self.buffers[-1], integrands, np.max)
        else:
            norms = [
                float(v ** (1.0 / self.p))
                for v in self._reduce(self.buffers[-1], integrands, np.sum)
            ]
        self.e = [max(e, v) for e, v in zip(self.e, norms)]


# ---------------------------------------------------------------------------
# Stability experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """Velocity and solution distances for a family of perturbed problems.

    renormalization carries the ||beta(rho_n) - beta(rho)|| trend taken in
    the same pass; it is empty when no beta was asked for.
    """

    n: tuple[int, ...]
    d: tuple[float, ...]
    e: tuple[float, ...]
    p: float
    renormalization: RenormalizationTrend = RenormalizationTrend((), ())

    def __post_init__(self) -> None:
        if len(self.n) != len(self.d) or len(self.n) != len(self.e):
            raise AnalysisError("n, d, e must align")
        if any(v < 0 for v in self.d) or any(v < 0 for v in self.e):
            raise AnalysisError("distances cannot be negative")


def amplitude_family(u: VelocityField, rho0: ScalarField) -> Callable:
    """Perturbation n -> ((1 + 1/n) u, rho0): shrinking amplitude excess."""

    def member(n: int):
        return u.scaled(1.0 + 1.0 / n), rho0

    return member


def initial_data_family(
    u: VelocityField,
    rho0: ScalarField,
    center: tuple[float, float] = (0.4, 0.6),
    radius: float = 0.15,
    amplitude: float = 1.0,
) -> Callable:
    """Perturbation n -> (u, rho0 + (1/n) * smooth bump): fixed field."""
    bump = StreamFunction(center, radius, amplitude)
    X, Y = rho0.grid.meshes()
    layer = bump.value(X, Y)

    def member(n: int):
        values = rho0.values + layer[None, :, :] / n
        return u, ScalarField(rho0.grid, rho0.times, values)

    return member


def _velocity_distances(
    fields: Sequence[VelocityField], u: VelocityField, grid: Grid, times: TimePartition
) -> tuple[float, ...]:
    """M(T) ||v_n - v||_1 per member: family members share u's modulation by
    construction. v is evaluated on the grid once for every member."""
    X, Y = grid.meshes()
    bx, by = u.profile.eval(X, Y)
    clock = float(u.modulation.integral(times.T))
    out = []
    for u_n in fields:
        ax, ay = u_n.profile.eval(X, Y)
        out.append(clock * integrate(np.hypot(ax - bx, ay - by), grid))
    return tuple(out)


def stability_experiment(
    u: VelocityField,
    rho0: ScalarField,
    times: TimePartition,
    family: Callable,
    n_list: Sequence[int],
    p: float = 2.0,
    betas: Sequence[AdmissibleBeta] = (),
) -> StabilityReport:
    """Solve the reference and each perturbed problem once; report d_n and e_n.

    d_n = ||u_n - u|| in L1 of time and space; e_n = max over time nodes of
    ||rho_n(t_j) - rho(t_j)||_p, the discrete stand-in for the uniform-in-
    time L^p distance. The reference and every member are one family of
    iter_solution_layers, integrated as one stacked pass that stores
    nothing, and its layers are driven into one consumer as MovingLayers, on
    the moving nodes alone. At each time node the
    running e_n maxima are updated and, for each beta in betas, the
    renormalized distances ||beta(rho_n) - beta(rho)|| in L2((0,T) x Omega)
    accumulate, each with the bits lp_norm and
    renormalization_convergence_check give on the stored solutions. Their
    trend is the report's renormalization field. Judging how e_n and the
    trend decay is the caller's business.
    """
    if not all(isinstance(n, (int, np.integer)) or float(n).is_integer() for n in n_list):
        raise AnalysisError(f"n_list entries must be integers, got {tuple(n_list)}")
    ns = [int(n) for n in n_list]
    if not ns or any(n <= 0 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise AnalysisError("n_list must be positive and strictly increasing")
    if not p >= 1.0:
        raise AnalysisError(f"p must be >= 1, got {p}")
    grid = rho0.grid
    members = [family(n) for n in ns]
    fields = [u_n for u_n, _ in members]
    d = _velocity_distances(fields, u, grid, times)
    dist = _FamilyDistances(grid, times.times, p, betas)
    rho0s = [rho0] + [r for _, r in members]
    drive(iter_solution_layers(rho0s, [u] + fields, times), [dist])
    return StabilityReport(tuple(ns), d, tuple(dist.e), float(p), _trend(betas, dist.sq))
