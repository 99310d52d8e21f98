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
    profile_on_grid,
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
    any region. A finite-p norm that reads 0 or not finite on data the
    region sees as not all zero has under- or overflowed, and is refused.
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
    with np.errstate(all="ignore"):
        norm = float(integrate(np.abs(values) ** p, grid, region) ** (1.0 / p))
    if not 0.0 < norm < np.inf and integrate(values != 0.0, grid, region) > 0.0:
        raise _unrepresentable(p, norm)
    return norm


def _unrepresentable(p: float, norm: float) -> AnalysisError:
    return AnalysisError(
        f"the L^p norm with p = {p:g} of data that is not all zero reads {norm!r}: "
        "|values|^p under- or overflows a float"
    )


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormReport:
    """Per-time-node L^p norms of a solved density against the t=0 value.

    Backward semi-Lagrangian evaluation averages nodal values, so it can
    lose extrema to smoothing but never create them: for p = inf a node's
    deviation keeps only the growth above the t=0 value, while finite p
    sees both sides of the quadrature wobble. statistic, the value a study
    gates, is the largest deviation.
    """

    p: float
    times: np.ndarray
    values: np.ndarray
    reference: float

    @property
    def _scale(self) -> float:
        return self.reference if self.reference > 0.0 else 1.0

    @property
    def statistic(self) -> float:
        return float(np.max(self.deviations))

    @property
    def deviations(self) -> np.ndarray:
        """Per-time-node relative departure from the t=0 value: two-sided,
        or for p = inf only upward."""
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

    Each distance is reduced once per layer over the (members, nodes)
    integrand at the moving nodes (a sum per row for finite p and each
    beta, a max for p = inf), plus a per-member constant for the part off
    the nodes: still[d] is density d's layer 0, one list for the pass, read
    at j = 0. That part is exactly 0 for members that share the reference's
    initial density, as the amplitude and identity families do. The terms
    are those lp_norm and integrate take on the whole grid, summed in
    another order: the finite-p and beta distances are roundoff-close to
    the stored route's (within an ulp or so), the p = inf ones equal. Each
    beta is evaluated once per layer, on every member's values at once. A
    finite-p distance that reads 0 or not finite while rho_n - rho is not
    all zero is refused, as lp_norm refuses it.
    """

    def __init__(self, grid: Grid, times: np.ndarray, p: float, betas: Sequence[AdmissibleBeta]):
        self.grid, self.p = grid, p
        self.betas = list(betas)
        self.tw = time_weights(times)
        self.w = grid.quadrature_weights

    def _lp_integrand(self, diff: np.ndarray, w) -> np.ndarray:
        a = np.abs(diff)
        with np.errstate(all="ignore"):
            return a if np.isinf(self.p) else a**self.p * w

    def _reduce(self, integrand: np.ndarray, axis=None):
        if np.isinf(self.p):
            return np.max(integrand, axis=axis, initial=0.0)
        return np.sum(integrand, axis=axis)

    def add_layer(self, j: int, t: float, layer: MovingLayers) -> None:
        """layer.values[m]: member m's layer j at the nodes, member 0 the
        reference."""
        if j == 0:
            self.nodes = layer.nodes
            off = np.ones(self.grid.shape[0] * self.grid.shape[1], dtype=bool)
            off[layer.nodes] = False
            self.w_nodes = self.w.ravel()[layer.nodes]
            self.density = tuple(layer.density[1:])
            self.e = np.zeros(len(self.density))
            self.sq = [np.zeros(len(self.density)) for _ in self.betas]
            # per distance (each beta, then L^p), each member's part off the
            # nodes, against the reference's still layer still[0]
            w, ref = self.w.ravel()[off], layer.still[0].ravel()[off]
            base = [beta(ref) for beta in self.betas]
            self.parts = [np.zeros(len(self.density)) for _ in range(len(self.betas) + 1)]
            for d in set(self.density) - {0}:
                other, at = layer.still[d].ravel()[off], np.equal(self.density, d)
                for beta, b, part in zip(self.betas, base, self.parts):
                    part[at] = np.sum((beta(other) - b) ** 2 * w)
                self.parts[-1][at] = self._reduce(self._lp_integrand(other - ref, w))
        values = layer.values
        for beta, sq, part in zip(self.betas, self.sq, self.parts):
            b = beta(values)
            sq += self.tw[j] * (np.sum((b[1:] - b[0]) ** 2 * self.w_nodes, axis=1) + part)
        reduced = self._reduce(self._lp_integrand(values[1:] - values[0], self.w_nodes), 1)
        if np.isinf(self.p):
            norms = np.maximum(reduced, self.parts[-1])
        else:
            norms = (reduced + self.parts[-1]) ** (1.0 / self.p)
            for m, norm in enumerate(norms):
                if not 0.0 < norm < np.inf:  # lost to the float range unless rho_n = rho
                    diff = layer.still[self.density[m]] - layer.still[0]
                    diff.ravel()[self.nodes] = layer.values[m + 1] - layer.values[0]
                    if np.any(diff):
                        raise _unrepresentable(self.p, float(norm))
        np.maximum(self.e, norms, out=self.e)


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
    construction. Each profile is the cached grid evaluation the solver's
    CFL substeps read too."""
    bx, by = profile_on_grid(u.profile, grid)
    clock = float(u.modulation.integral(times.T))
    out = []
    for u_n in fields:
        ax, ay = profile_on_grid(u_n.profile, grid)
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
    the moving nodes alone. At each time node the running e_n maxima are
    updated and, for each beta in betas, the renormalized distances
    ||beta(rho_n) - beta(rho)|| in L2((0,T) x Omega) accumulate. Each sums
    the terms lp_norm and renormalization_convergence_check sum on the
    stored solutions in another order, so it is theirs to roundoff (p = inf
    exactly). Their trend is the report's renormalization field. Judging how
    e_n and the trend decay is the caller's business.
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
    e = tuple(float(v) for v in dist.e)
    return StabilityReport(tuple(ns), d, e, float(p), _trend(betas, dist.sq))
