"""Distributional residuals, density mollification, and the commutator.

The weak form pairs a density with a product test function:

    -int int rho phi_t  -  int rho0 phi(0)  +  int int rho (u . grad phi)

vanishes for weak solutions. Mollifying a solution against a scaled kernel
leaves a commutator remainder

    r_eps(x) = int rho(y) (u(x) - u(y)) . grad(eta_eps)(y - x) dy

and the central quantitative check here is that the weak residual of the
mollified density equals the space-time pairing of r_eps with the test
function, each side computed by its own quadrature path. Norms of r_eps
over shrunk regions decay as eps -> 0; the study operation measures that
curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.fft import ifft, irfft, rfft2

from transportlab.analysis import lp_norm
from transportlab.characteristics import iter_solution_layers
from transportlab.fields import (
    AdmissibleBeta,
    Kernel,
    ScalarField,
    TestFunction,
    VelocityField,
    make_kernel,
    time_weights,
)
from transportlab.geometry import (
    Domain,
    Grid,
    TimePartition,
    dist_to_boundary,
    integrate,
    shrink,
)


class WeakformError(ValueError):
    """Raised for inadmissible residual or mollification inputs."""


# ---------------------------------------------------------------------------
# Weak-form residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Signed weak-form terms and their absolute sum for one pairing."""

    term_time: float
    term_initial: float
    term_advective: float
    phi: str
    nx: int
    ny: int
    nt: int
    beta: str | None = None

    @property
    def residual(self) -> float:
        return abs(self.term_time + self.term_initial + self.term_advective)

    def to_json(self) -> dict:
        return {
            "residual": self.residual,
            "term_time": self.term_time,
            "term_initial": self.term_initial,
            "term_advective": self.term_advective,
            "phi": self.phi,
            "beta": self.beta,
            "grid": [self.nx, self.ny],
            "nt": self.nt,
        }

    CSV_HEADER = (
        "phi",
        "beta",
        "residual",
        "term_time",
        "term_initial",
        "term_advective",
        "nx",
        "ny",
        "nt",
    )

    def csv_row(self) -> list[str]:
        return [
            self.phi,
            self.beta or "",
            repr(self.residual),
            repr(self.term_time),
            repr(self.term_initial),
            repr(self.term_advective),
            str(self.nx),
            str(self.ny),
            str(self.nt),
        ]


@lru_cache(maxsize=8)
def _profile_on_grid(v: VelocityField, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The unmodulated field v at every node of the grid.

    u = m(t) v, so every layer of u is this pair times the scalar m(t).
    """
    vx, vy = v.eval(*grid.meshes())
    for a in (vx, vy):
        a.flags.writeable = False  # shared by every caller through the cache
    return vx, vy


Box = tuple[slice, slice]


def _node_box(mask: np.ndarray) -> tuple[int, int, int, int]:
    """(i0, i1, j0, j1): the smallest index box holding every True of a 2-D
    mask, empty (all zeros) when the mask has none."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return 0, 0, 0, 0
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _union_box(boxes: Sequence[tuple[int, int, int, int]]) -> tuple[Box, list[Box]]:
    """The union box of `boxes` on the grid, and each box relative to it."""
    full = [b for b in boxes if b[0] < b[1]]
    i0 = min((b[0] for b in full), default=0)
    i1 = max((b[1] for b in full), default=0)
    j0 = min((b[2] for b in full), default=0)
    j1 = max((b[3] for b in full), default=0)
    relative = [
        (slice(b[0] - i0, b[1] - i0), slice(b[2] - j0, b[3] - j0))
        if b[0] < b[1]
        else (slice(0, 0), slice(0, 0))
        for b in boxes
    ]
    return (slice(i0, i1), slice(j0, j1)), relative


class ResidualAccumulator:
    """Streaming evaluation of the three weak-form terms for a whole bank.

    One accumulator pairs every renormalization in `betas` (None pairs the
    density itself) with every test function in `phis`. Feeding layers as
    they are produced keeps refined solves at constant memory; weak_residual
    on a stored field is a one-pair bank run over its layers.

    Every test function vanishes outside its support ball, so each phi keeps
    its time and advective weights only on its node box: the bounding box of
    the nodes where either weight is nonzero. Outside it both weights are
    exact zeros, so dropping those nodes drops only exact zeros. Each layer is
    cut to the union of the boxes once, each beta is evaluated once on that
    cut, and each phi reduces the values on its own box with np.sum. A
    pairing's bits therefore depend only on its own box, and a bank of any
    size gives, pair for pair, the bits of a one-pair accumulator.

    report returns the pairings beta-major: entry b * len(phis) + k pairs
    betas[b] with phis[k].
    """

    def __init__(
        self,
        grid: Grid,
        times: np.ndarray,
        u: VelocityField,
        phis: Sequence[TestFunction],
        betas: Sequence[AdmissibleBeta | None] = (None,),
    ):
        self.phis = tuple(phis)
        self.betas = tuple(betas)
        if not self.phis or not self.betas:
            raise WeakformError("need at least one test function and one beta")
        self.times = np.asarray(times, dtype=float)
        T = float(self.times[-1])
        for phi in self.phis:
            if phi.domain != grid.domain:
                raise WeakformError("test function lives on a different domain")
            cx, cy = phi.center
            if dist_to_boundary(grid.domain, cx, cy) <= phi.radius:
                raise WeakformError("test function support is not strictly interior")
            if abs(float(np.asarray(phi.time_profile.value(T)))) > 1e-12:
                raise WeakformError(
                    "test function time profile does not vanish at the final time"
                )
        self.grid = grid
        self.u = u
        if self.times.size < 2:
            raise WeakformError("need at least two time layers for a residual")
        self.tw = time_weights(self.times)
        self.tw_m = time_weights(self.times, u.modulation)
        X, Y = grid.meshes()
        w = grid.quadrature_weights
        # u = m(t) v: v enters the advective weights once, m the modulated
        # time weights
        vx, vy = _profile_on_grid(u.profile, grid)
        boxes, self._weights = [], []
        for phi in self.phis:
            phi_w = phi.spatial(X, Y) * w
            gx, gy = phi.spatial_gradient(X, Y)
            adv_w = vx * (gx * w) + vy * (gy * w)
            i0, i1, j0, j1 = box = _node_box((phi_w != 0) | (adv_w != 0))
            boxes.append(box)
            self._weights.append(np.stack([phi_w[i0:i1, j0:j1], adv_w[i0:i1, j0:j1]]))
        self._union, self._boxes = _union_box(boxes)
        shape = (len(self.betas), len(self.phis))
        self.term_time = np.zeros(shape)
        self.term_advective = np.zeros(shape)
        self._seen = 0

    def _time_profiles(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """psi(t) and psi'(t) of every test function."""
        psi = [float(np.asarray(phi.time_profile.value(t))) for phi in self.phis]
        dpsi = [float(np.asarray(phi.time_profile.derivative(t))) for phi in self.phis]
        return np.array(psi), np.array(dpsi)

    def _cut(self, layer: np.ndarray) -> np.ndarray:
        """The union box of a full-grid layer."""
        if np.shape(layer) != self.grid.shape:
            raise WeakformError(
                f"layer shape {np.shape(layer)} does not match grid {self.grid.shape}"
            )
        return layer[self._union]

    def _box_sums(self, vals: np.ndarray) -> np.ndarray:
        """Shape (len(phis), 2): each phi's time and advective weights summed
        against vals on that phi's box."""
        return np.array(
            [np.sum(vals[box] * W, axis=(1, 2)) for box, W in zip(self._boxes, self._weights)]
        ).reshape(-1, 2)

    def add_layer(self, j: int, layer: np.ndarray) -> None:
        if j != self._seen:
            raise WeakformError(f"layers must arrive in order, expected {self._seen}")
        t = float(self.times[j])
        psi, dpsi = self._time_profiles(t)
        tw_dpsi = self.tw[j] * dpsi
        tw_psi = self.tw_m[j] * psi
        cut = self._cut(layer)
        for b, beta in enumerate(self.betas):
            vals = cut if beta is None else beta(cut)
            sums = self._box_sums(vals)
            self.term_time[b] -= tw_dpsi * sums[:, 0]
            self.term_advective[b] += tw_psi * sums[:, 1]
        self._seen += 1

    def report(self, rho0_layer: np.ndarray) -> list[ResidualReport]:
        if self._seen != self.times.size:
            raise WeakformError(
                f"saw {self._seen} layers, expected {self.times.size}"
            )
        psi0, _ = self._time_profiles(float(self.times[0]))
        cut0 = self._cut(rho0_layer)
        reports = []
        for b, beta in enumerate(self.betas):
            vals0 = cut0 if beta is None else beta(cut0)
            term_initial = -psi0 * self._box_sums(vals0)[:, 0]
            reports += [
                ResidualReport(
                    term_time=float(self.term_time[b, k]),
                    term_initial=float(term_initial[k]),
                    term_advective=float(self.term_advective[b, k]),
                    phi=phi.label,
                    nx=self.grid.nx,
                    ny=self.grid.ny,
                    nt=self.times.size - 1,
                    beta=beta.label if beta is not None else None,
                )
                for k, phi in enumerate(self.phis)
            ]
        return reports


def weak_residual(
    rho: ScalarField,
    rho0: ScalarField,
    u: VelocityField,
    phi: TestFunction,
    beta: AdmissibleBeta | None = None,
) -> ResidualReport:
    """Three-term weak-form pairing of a stored solution with phi.

    With beta given, the pairing is that of beta(rho) with beta(rho0)
    initial data: the renormalized residual.
    """
    acc = ResidualAccumulator(rho.grid, rho.times, u, [phi], [beta])
    for j in range(rho.n_layers):
        acc.add_layer(j, rho.layer(j))
    return acc.report(rho0.layer(0))[0]


def streamed_weak_residuals(
    rho0: ScalarField,
    u: VelocityField,
    times: TimePartition,
    phis: Sequence[TestFunction],
    betas: Sequence[AdmissibleBeta | None] = (None,),
) -> list[ResidualReport]:
    """Solve once and pair every beta with every test function of the bank.

    One transport sweep feeds one accumulator, so memory stays at a few
    layers no matter how fine the solve is. Reports are beta-major, as
    ResidualAccumulator.report orders them.
    """
    acc = ResidualAccumulator(rho0.grid, times.times, u, phis, betas)
    for j, _, layer in iter_solution_layers(rho0, u, times):
        acc.add_layer(j, layer)
    return acc.report(rho0.layer(0))


# ---------------------------------------------------------------------------
# Windowed convolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WindowSpectra:
    """Real-FFT transforms of the flipped stencils of one (kernel, grid) pair.

    The stencils are zero-padded to `shape`, at least n + 2K nodes per axis,
    so the circular correlation they realize is the linear one: no window
    wraps around into the opposite edge of the grid.
    """

    Kx: int
    Ky: int
    nodes: tuple[int, int]
    shape: tuple[int, int]
    H: np.ndarray
    G1: np.ndarray
    G2: np.ndarray


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n: a length the real FFT factors
    into radix-2, 3 and 5 passes only."""
    m = n
    while True:
        k = m
        for prime in (2, 3, 5):
            while k % prime == 0:
                k //= prime
        if k == 1:
            return m
        m += 1


@lru_cache(maxsize=8)
def _window_spectra(kernel: Kernel, grid: Grid) -> _WindowSpectra:
    Kx = int(np.floor(kernel.eps / grid.hx))
    Ky = int(np.floor(kernel.eps / grid.hy))
    ox = grid.hx * np.arange(-Kx, Kx + 1)
    oy = grid.hy * np.arange(-Ky, Ky + 1)
    OX, OY = np.meshgrid(ox, oy, indexing="ij")
    n1, n2 = grid.shape
    shape = (
        _fast_len(n1 + 2 * Kx),
        _fast_len(n2 + 2 * Ky),
    )
    stencils = (kernel.value(OX, OY), *kernel.grad(OX, OY))
    spectra = [rfft2(S[::-1, ::-1], s=shape) for S in stencils]
    for S in spectra:
        S.flags.writeable = False  # shared by every caller through the cache
    return _WindowSpectra(Kx, Ky, (n1, n2), shape, *spectra)


def _window_inverse(spec: _WindowSpectra, product: np.ndarray) -> np.ndarray:
    """out[m] = sum_o stencil[o] F[m + o], F zero-padded outside the grid.

    `product` is rfft2(F) times a stencil spectrum; correlating with the
    stencil is convolving with its flip, whose full output is offset by K.
    This is numpy's irfft2 taken one axis after the other, with the last
    axis transformed only on the rows that are kept; the kept values are
    the same bits. The slice is copied so a stored layer does not keep the
    padded buffer.
    """
    n1, n2 = spec.nodes
    rows = ifft(product, spec.shape[0], axis=0)[spec.Kx : spec.Kx + n1]
    return irfft(rows, spec.shape[1], axis=1)[:, spec.Ky : spec.Ky + n2].copy()


def _inner_region(grid: Grid, eps: float) -> Domain:
    try:
        return shrink(grid.domain, eps)
    except Exception as exc:
        raise WeakformError(f"kernel scale {eps} leaves no interior region") from exc


def mollify_density(grid: Grid, layer: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Convolve one density layer with the kernel: the layer of rho_eps.

    Nodal quadrature of int rho(y) eta_eps(x - y) dy over the grid; exact
    unit kernel mass makes this a local average, so values contract every
    Lp norm on the shrunk region. The result covers the whole grid so that
    region-weighted quadrature has all cell corners it needs; only nodes
    inside shrink(grid.domain, eps) carry that meaning (outside it the
    window was truncated at the boundary).
    """
    _inner_region(grid, kernel.eps)
    spec = _window_spectra(kernel, grid)
    F = layer * grid.quadrature_weights
    return _window_inverse(spec, rfft2(F, s=spec.shape) * spec.H)


def commutator_remainder(
    grid: Grid, layer: np.ndarray, u: VelocityField, kernel: Kernel, t: float = 0.0
) -> np.ndarray:
    """Nodal layer of r_eps = int rho(y) (u(x) - u(y)) . grad(eta_eps)(y - x) dy
    for the density layer at time t.

    Splitting the parenthesis turns the integral into four windowed
    correlations (two gradient components over rho and over rho u), plus a
    pointwise multiplication by u at the evaluation nodes. Each correlation
    is a product in frequency space with the cached real-FFT spectrum of a
    zero-padded stencil: the forward transform of rho is shared by both
    gradient components and the two rho u terms are summed before their one
    inverse transform, so a layer costs three forward and three inverse
    transforms. u is the cached nodal profile v scaled by m(t), so no call
    evaluates the field. commutator_at_points evaluates the same quadrature
    by a direct per-point gather; the stencil-consistency check compares the
    two.
    """
    _inner_region(grid, kernel.eps)
    spec = _window_spectra(kernel, grid)
    m = u.modulation.value(t)
    vx, vy = _profile_on_grid(u.profile, grid)
    ux, uy = vx * m, vy * m
    F = layer * grid.quadrature_weights
    F_hat = rfft2(F, s=spec.shape)
    conv_b1 = _window_inverse(spec, F_hat * spec.G1)
    conv_b2 = _window_inverse(spec, F_hat * spec.G2)
    conv_u = _window_inverse(
        spec,
        rfft2(F * ux, s=spec.shape) * spec.G1 + rfft2(F * uy, s=spec.shape) * spec.G2,
    )
    return ux * conv_b1 + uy * conv_b2 - conv_u


class IdentityPairing:
    """The consistency identity fed one layer at a time: add_layer takes each
    density layer with its commutator remainder at this eps, and result
    returns (lhs, rhs) as consistency_identity does."""

    def __init__(self, grid: Grid, times, u: VelocityField, eps: float, phi: TestFunction):
        self.grid, self.phi, self.kernel = grid, phi, make_kernel(eps=eps)
        self.acc = ResidualAccumulator(grid, times, u, [phi])
        self.phi_sp = phi.spatial(*grid.meshes())
        self.rhs, self.moll0 = 0.0, None

    def add_layer(self, j: int, t: float, layer: np.ndarray, remainder: np.ndarray) -> None:
        moll = mollify_density(self.grid, layer, self.kernel)
        if j == 0:
            self.moll0 = moll
        self.acc.add_layer(j, moll)
        psi = float(self.phi.time_profile.value(t))
        self.rhs += self.acc.tw[j] * psi * integrate(remainder * self.phi_sp, self.grid)

    def result(self) -> tuple[float, float]:
        rep = self.acc.report(self.moll0)[0]
        return rep.term_time + rep.term_initial + rep.term_advective, self.rhs


def consistency_identity(
    rho: ScalarField, u: VelocityField, eps: float, phi: TestFunction
) -> tuple[float, float]:
    """Two routes to one number: (lhs, rhs) with lhs the weak residual of the
    mollified solution and rhs the space-time pairing of the commutator
    remainder with phi, each side taken by its own quadrature path."""
    pairing = IdentityPairing(rho.grid, rho.times, u, eps, phi)
    for j, (t, layer) in enumerate(zip(rho.times, rho.values)):
        pairing.add_layer(j, t, layer, commutator_remainder(rho.grid, layer, u, pairing.kernel, t))
    return pairing.result()


def _window_indices(grid: Grid, x0: float, y0: float, eps: float):
    i0 = max(0, int(np.ceil((x0 - eps - grid.domain.x_lo) / grid.hx - 1e-12)))
    i1 = min(grid.nx, int(np.floor((x0 + eps - grid.domain.x_lo) / grid.hx + 1e-12)))
    j0 = max(0, int(np.ceil((y0 - eps - grid.domain.y_lo) / grid.hy - 1e-12)))
    j1 = min(grid.ny, int(np.floor((y0 + eps - grid.domain.y_lo) / grid.hy + 1e-12)))
    return i0, i1, j0, j1


def mollify_at_points(grid: Grid, layer: np.ndarray, kernel: Kernel, xs, ys) -> np.ndarray:
    """rho_eps at arbitrary interior points (same quadrature as the layer)."""
    F = layer * grid.quadrature_weights
    out = np.empty(np.asarray(xs, dtype=float).shape)
    flat = out.reshape(-1)
    for idx, (x0, y0) in enumerate(
        zip(np.asarray(xs, dtype=float).reshape(-1), np.asarray(ys, dtype=float).reshape(-1))
    ):
        i0, i1, j0, j1 = _window_indices(grid, x0, y0, kernel.eps)
        H = kernel.value(x0 - grid.xs[i0 : i1 + 1, None], y0 - grid.ys[None, j0 : j1 + 1])
        flat[idx] = np.sum(H * F[i0 : i1 + 1, j0 : j1 + 1])
    return out


def commutator_at_points(
    grid: Grid, layer: np.ndarray, u: VelocityField, kernel: Kernel, xs, ys, t: float = 0.0
) -> np.ndarray:
    """r_eps at arbitrary interior points (same quadrature as the layer)."""
    F = layer * grid.quadrature_weights
    X, Y = grid.meshes()
    u1, u2 = u.eval(X, Y, t)
    out = np.empty(np.asarray(xs, dtype=float).shape)
    flat = out.reshape(-1)
    for idx, (x0, y0) in enumerate(
        zip(np.asarray(xs, dtype=float).reshape(-1), np.asarray(ys, dtype=float).reshape(-1))
    ):
        i0, i1, j0, j1 = _window_indices(grid, x0, y0, kernel.eps)
        sl = np.s_[i0 : i1 + 1, j0 : j1 + 1]
        G1, G2 = kernel.grad(
            grid.xs[i0 : i1 + 1, None] - x0, grid.ys[None, j0 : j1 + 1] - y0
        )
        ux0, uy0 = u.eval(x0, y0, t)
        flat[idx] = np.sum(
            F[sl] * ((ux0 - u1[sl]) * G1 + (uy0 - u2[sl]) * G2)
        )
    return out


# ---------------------------------------------------------------------------
# Remainder decay study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemainderCurve:
    """Decay of ||r_eps|| in L1 over time of L^gamma over an inner region."""

    eps: tuple[float, ...]
    norms: tuple[float, ...]
    gamma: float
    inner: Domain
    margin: float

    def __post_init__(self) -> None:
        e = np.asarray(self.eps)
        if e.size == 0 or np.any(np.diff(e) >= 0):
            raise WeakformError("eps values must be strictly decreasing")
        if any(n < 0 for n in self.norms):
            raise WeakformError("remainder norms cannot be negative")

    def to_json(self) -> dict:
        return {
            "eps": list(self.eps),
            "norms": list(self.norms),
            "gamma": self.gamma,
            "inner": [self.inner.x_lo, self.inner.y_lo, self.inner.x_hi, self.inner.y_hi],
            "margin": self.margin,
        }

    CSV_HEADER = ("eps", "norm", "gamma", "region_margin")

    def csv_rows(self) -> list[list[str]]:
        return [
            [repr(e), repr(n), repr(self.gamma), repr(self.margin)]
            for e, n in zip(self.eps, self.norms)
        ]


def _region_margin(inner: Domain, outer: Domain) -> float:
    return min(
        inner.x_lo - outer.x_lo,
        outer.x_hi - inner.x_hi,
        inner.y_lo - outer.y_lo,
        outer.y_hi - inner.y_hi,
    )


def gamma_exponent(alpha: float, p: float) -> float:
    """1/gamma = 1/alpha + 1/p (harmonic pairing of field and density)."""
    if alpha < 1.0 or p < 1.0:
        raise WeakformError(f"exponents must be >= 1, got alpha={alpha}, p={p}")
    inv = (0.0 if np.isinf(alpha) else 1.0 / alpha) + (0.0 if np.isinf(p) else 1.0 / p)
    if inv == 0.0:
        return np.inf
    gamma = 1.0 / inv
    if gamma < 1.0:
        raise WeakformError(
            f"1/gamma = 1/alpha + 1/p gives gamma = {gamma:.3g} < 1, "
            "not a norm exponent"
        )
    return gamma


class RemainderSweep:
    """||r_eps||_{L1(time; L^gamma(inner))} for every eps of a decreasing
    sweep, fed one layer at a time.

    The inner region must clear the boundary by more than the largest eps,
    so every remainder layer is genuinely a mollification statement there.
    add_layer returns the layer's remainders, largest eps first.
    """

    def __init__(self, grid: Grid, times, u: VelocityField, eps_list, alpha, p, inner: Domain):
        self.eps = tuple(float(e) for e in eps_list)
        if len(self.eps) < 2 or any(b >= a for a, b in zip(self.eps, self.eps[1:])):
            raise WeakformError("eps_list must be strictly decreasing with >= 2 entries")
        self.gamma = gamma_exponent(alpha, p)
        self.margin = margin = _region_margin(inner, grid.domain)
        if margin <= self.eps[0]:
            raise WeakformError(
                f"inner region margin {margin:.3g} must exceed the largest eps {self.eps[0]:.3g}"
            )
        self.grid, self.u, self.inner = grid, u, inner
        self.kernels = [make_kernel(eps=e) for e in self.eps]
        self.tw = time_weights(times)
        self.norms = [0.0] * len(self.eps)

    def add_layer(self, j: int, t: float, layer: np.ndarray) -> list[np.ndarray]:
        rems = [commutator_remainder(self.grid, layer, self.u, k, t) for k in self.kernels]
        for i, rem in enumerate(rems):
            norm = lp_norm(rem, self.grid, self.gamma, self.inner)
            self.norms[i] += float(self.tw[j]) * norm
        return rems

    def curve(self) -> RemainderCurve:
        """The norms summed so far. Whether they decay, as the commutator
        estimate promises, is for the caller to judge."""
        return RemainderCurve(self.eps, tuple(self.norms), self.gamma, self.inner, self.margin)


def remainder_decay_study(
    rho: ScalarField,
    u: VelocityField,
    eps_list: Sequence[float],
    alpha: float,
    p: float,
    inner: Domain,
) -> RemainderCurve:
    """RemainderSweep over the stored layers of rho."""
    sweep = RemainderSweep(rho.grid, rho.times, u, eps_list, alpha, p, inner)
    for j, (t, layer) in enumerate(zip(rho.times, rho.values)):
        sweep.add_layer(j, t, layer)
    return sweep.curve()
