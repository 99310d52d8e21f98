"""Norm diagnostics, truncation thresholds, boundary-layer checks, stability.

Everything here reduces densities or velocity fields to the handful of
numbers the transport theory says must behave: conserved L^p norms,
uniformly small super-level tails, vanishing boundary-layer flux, and
perturbation distances that shrink together. Most functions consume solved
densities; the stability experiment streams its own solves, one lockstep
pass over the reference and every family member that takes the L^p and
the renormalized distances together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from transportlab.characteristics import iter_solution_layers
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
    if p < 1.0:
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


def bochner_norm_u(
    u: VelocityField,
    grid: Grid,
    times: TimePartition,
    p_space: float = 2.0,
    include_gradient: bool = False,
) -> float:
    """int_0^T ||u(t)|| dt with an L^p or W^{1,p} spatial norm.

    The W^{1,p} norm is the sum of the L^p norms of |u| and of the
    Frobenius norm of the Jacobian, both in closed form from the stream
    functions. u = m(t) v with m >= 0, so the integral is exactly M(T) times
    the spatial norm of v.
    """
    X, Y = grid.meshes()
    v = u.profile
    total = lp_norm(v.speed(X, Y), grid, p_space)
    if include_gradient:
        u1x, u1y, u2x, u2y = v.eval_gradient(X, Y)
        jac = np.sqrt(u1x**2 + u1y**2 + u2x**2 + u2y**2)
        total += lp_norm(jac, grid, p_space)
    return float(u.modulation.integral(times.T)) * total


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
    tol: float
    flagged: tuple[int, ...]

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
        """The gate value: growth for p = inf, two-sided drift otherwise."""
        return self.growth if np.isinf(self.p) else self.drift

    @property
    def passed(self) -> bool:
        return not self.flagged

    CSV_HEADER = ("t", "p", "norm", "drift")

    def csv_rows(self) -> list[list[str]]:
        devs = self._deviations()
        return [
            [repr(float(t)), repr(float(self.p)), repr(float(v)), repr(float(d))]
            for t, v, d in zip(self.times, self.values, devs)
        ]

    def _deviations(self) -> np.ndarray:
        if np.isinf(self.p):
            return np.maximum(self.values - self.reference, 0.0) / self._scale
        return np.abs(self.values - self.reference) / self._scale


def conservation_report(
    grid: Grid,
    times: np.ndarray,
    layers: Iterable[np.ndarray],
    p_list: Sequence[float] = (1.0, 2.0, 3.0, np.inf),
    tol: float = 1e-3,
    tol_sup: float = 1e-6,
) -> dict[float, NormReport]:
    """Norm history per exponent, with nodes breaching tolerance flagged.

    layers is read once, in time order: stored values or a solver stream.
    The flag statistic matches the gate: one-sided for p = inf (see
    NormReport), two-sided otherwise, against tol_sup and tol respectively.
    """
    norms = np.array([[lp_norm(layer, grid, p) for p in p_list] for layer in layers])
    reports: dict[float, NormReport] = {}
    for k, p in enumerate(p_list):
        gate = tol_sup if np.isinf(p) else tol
        rep = NormReport(float(p), times, norms[:, k], float(norms[0, k]), gate, ())
        flagged = tuple(int(j) for j in np.nonzero(rep._deviations() > gate)[0])
        reports[float(p)] = replace(rep, flagged=flagged)
    return reports


# ---------------------------------------------------------------------------
# Uniform integrability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationProfile:
    """Smallest nodal-value thresholds M with uniform tail mass below eps."""

    eps: tuple[float, ...]
    thresholds: tuple[float, ...]
    tails: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(t >= e for t, e in zip(self.tails, self.eps)):
            raise AnalysisError("tail integral must stay below its eps")


class _TailCurve:
    """Super-level tail integrals of one layer as a function of the cut.

    Sorting the weighted nodal contributions by magnitude turns
    tail(M) = quadrature of |rho| over {|rho| > M} into a suffix sum looked
    up by binary search; ties are handled by cutting after the whole run.
    """

    def __init__(self, layer: np.ndarray, grid: Grid):
        mags = np.abs(np.asarray(layer, dtype=float)).reshape(-1)
        contrib = mags * grid.quadrature_weights.reshape(-1)
        order = np.argsort(mags, kind="stable")
        self.mags = mags[order]
        self.csum = np.concatenate([np.cumsum(contrib[order][::-1])[::-1], [0.0]])

    def tail(self, M: float) -> float:
        return float(self.csum[np.searchsorted(self.mags, M, side="right")])

    def smallest_threshold(self, eps: float) -> float:
        # tails evaluated at each nodal value are nonincreasing, so the
        # first one below eps marks the smallest admissible cut
        per_node = self.csum[np.searchsorted(self.mags, self.mags, side="right")]
        return float(self.mags[int(np.argmax(per_node < eps))])


def truncation_thresholds(
    layers: Sequence[np.ndarray], grid: Grid, eps_list: Sequence[float]
) -> TruncationProfile:
    """For each eps, the smallest nodal threshold M with every member's
    super-level tail integral below eps."""
    if not layers:
        raise AnalysisError("need at least one layer")
    for layer in layers:
        if np.asarray(layer).shape != grid.shape:
            raise AnalysisError("all layers must share the grid")
    eps_vals = [float(e) for e in eps_list]
    if any(e <= 0.0 for e in eps_vals):
        raise AnalysisError("eps values must be positive")
    curves = [_TailCurve(layer, grid) for layer in layers]
    thresholds, tails = [], []
    for e in eps_vals:
        m_family = max(c.smallest_threshold(e) for c in curves)
        thresholds.append(m_family)
        tails.append(max(c.tail(m_family) for c in curves))
    return TruncationProfile(tuple(eps_vals), tuple(thresholds), tuple(tails))


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
    decreasing: tuple[bool, ...]


class _RenormalizedDistances:
    """Running ||beta(rho_n) - beta(rho)||^2 in L2((0,T) x Omega), per beta and n.

    Fed one time node at a time, with the reference layer and the same
    layer of every family member: each beta adds the node's time weight
    (fields.time_weights) times the spatial integral of
    (beta(rho_n) - beta(rho))^2.
    """

    def __init__(
        self,
        grid: Grid,
        times: np.ndarray,
        betas: Sequence[AdmissibleBeta],
        members: int,
    ):
        self.grid = grid
        self.betas = list(betas)
        self.tw = time_weights(times)
        self.sq = [[0.0] * members for _ in self.betas]

    def add_layer(self, j: int, reference: np.ndarray, layers: Sequence[np.ndarray]) -> None:
        for beta, sq in zip(self.betas, self.sq):
            base = beta(reference)
            for m, layer in enumerate(layers):
                sq[m] += self.tw[j] * integrate((beta(layer) - base) ** 2, self.grid)

    def trend(self) -> RenormalizationTrend:
        rows = tuple(tuple(float(np.sqrt(v)) for v in sq) for sq in self.sq)
        return RenormalizationTrend(
            tuple(beta.label for beta in self.betas),
            rows,
            tuple(all(b <= a for a, b in zip(r, r[1:])) for r in rows),
        )


def renormalization_convergence_check(
    rho_list: Sequence[ScalarField],
    rho: ScalarField,
    betas: Sequence[AdmissibleBeta],
) -> RenormalizationTrend:
    """Per beta, the trend of ||beta(rho_n) - beta(rho)||_{L2((0,T) x Omega)}.

    The stored-solution route; stability_experiment takes the same
    distances while it streams the solves.
    """
    for r in rho_list:
        if r.grid != rho.grid or r.n_layers != rho.n_layers:
            raise AnalysisError("all densities must share grid and time layout")
    dist = _RenormalizedDistances(rho.grid, rho.times, betas, len(rho_list))
    for j in range(rho.n_layers):
        dist.add_layer(j, rho.layer(j), [r.layer(j) for r in rho_list])
    return dist.trend()


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
    monotone: bool
    renormalization: RenormalizationTrend = RenormalizationTrend((), (), ())

    def __post_init__(self) -> None:
        if len(self.n) != len(self.d) or len(self.n) != len(self.e):
            raise AnalysisError("n, d, e must align")
        if any(v < 0 for v in self.d) or any(v < 0 for v in self.e):
            raise AnalysisError("distances cannot be negative")

    CSV_HEADER = ("n", "d_n", "e_n")

    def csv_rows(self) -> list[list[str]]:
        return [
            [str(n), repr(d), repr(e)] for n, d, e in zip(self.n, self.d, self.e)
        ]


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


def _velocity_distance(
    u_n: VelocityField, u: VelocityField, grid: Grid, times: TimePartition
) -> float:
    """M(T) ||v_n - v||_1: family members share u's modulation by construction."""
    X, Y = grid.meshes()
    ax, ay = u_n.profile.eval(X, Y)
    bx, by = u.profile.eval(X, Y)
    return float(u.modulation.integral(times.T)) * integrate(np.hypot(ax - bx, ay - by), grid)


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
    time L^p distance. The reference and every member stream their layers
    side by side (one iter_solution_layers pass each, nothing stored); at
    each time node the running e_n maxima are updated and, for each beta in
    betas, the renormalized distances ||beta(rho_n) - beta(rho)|| in
    L2((0,T) x Omega) accumulate exactly as renormalization_convergence_check
    takes them on stored solutions. Their trend is the report's
    renormalization field. monotone records whether e_n is nonincreasing
    with 5 percent slack; judging the decay is the caller's business.
    """
    ns = [int(n) for n in n_list]
    if not ns or any(n <= 0 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise AnalysisError("n_list must be positive and strictly increasing")
    grid = rho0.grid
    members = [family(n) for n in ns]
    streams = [iter_solution_layers(rho0, u, times)] + [
        iter_solution_layers(rho0_n, u_n, times) for u_n, rho0_n in members
    ]
    e = [0.0] * len(ns)
    dist = _RenormalizedDistances(grid, times.times, betas, len(ns))
    for (j, _, reference), *solved in zip(*streams):
        layers = [layer for _, _, layer in solved]
        for m, layer in enumerate(layers):
            e[m] = max(e[m], lp_norm(layer - reference, grid, p))
        dist.add_layer(j, reference, layers)
    d = tuple(_velocity_distance(u_n, u, grid, times) for u_n, _ in members)
    e = tuple(e)
    monotone = all(b <= 1.05 * a for a, b in zip(e, e[1:]))
    return StabilityReport(tuple(ns), d, e, float(p), monotone, dist.trend())
