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
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from numpy.fft import ifft, irfft, rfft2

from transportlab.analysis import lp_norm
from transportlab.characteristics import MovingLayers
from transportlab.fields import (
    AdmissibleBeta,
    Kernel,
    TestFunction,
    VelocityField,
    make_kernel,
    profile_on_grid,
    time_weights,
)
from transportlab.geometry import (
    Box,
    Domain,
    GeometryError,
    Grid,
    dist_to_boundary,
    region_box,
    shrink,
    window_box,
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
    beta: str | None = None

    @property
    def residual(self) -> float:
        return abs(self.term_time + self.term_initial + self.term_advective)


def _distinct(keys) -> tuple[list[int], np.ndarray]:
    """The position of each distinct key's first occurrence, in order, and
    for every key the index of its distinct key among them."""
    first: dict = {}
    index = [first.setdefault(key, len(first)) for key in keys]
    positions = [index.index(i) for i in range(len(first))]
    return positions, np.array(index)


class ResidualAccumulator:
    """Streaming evaluation of the three weak-form terms for a whole bank.

    One accumulator pairs every renormalization in `betas` (None pairs the
    density itself) with every test function in `phis`. It reads a
    stream's MovingLayers (member 0) as they come, at constant memory.

    A test function's time and advective weights are exact zeros off its
    support ball, so the bank keeps them only on the distinct nodes of its
    spatial parts, as a dense matrix with part k's two weights in rows 2k
    and 2k + 1. The first layer splits those nodes into the stream's moving
    nodes and the still ones, and takes the still part's sums: still[d] is
    density d's layer 0, one list for the pass, read at j = 0. Per layer the
    moving values are taken once, each beta is evaluated once on them and
    reduced against every part by one matrix-vector product. A whole layer
    enters as a view in which every node moves, or none does. The initial
    term -int rho0 phi(0) is layer 0's sums against the spatial parts, times
    psi(0): it is taken at j = 0, so report reads no layer.
    A pair sums its one-pair accumulator's terms in another order, so the
    two are roundoff-close, not bit-equal. Each distinct time profile is
    evaluated at every time node once, when the bank is built.

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
        if self.times.size < 2:
            raise WeakformError("need at least two time layers for a residual")
        self.tw = time_weights(self.times)
        X, Y = grid.meshes()
        w = grid.quadrature_weights
        # u = m(t) v: v enters the advective weights once, m the modulated
        # time weights
        vx, vy = profile_on_grid(u.profile, grid)
        # phis that share a spatial part (a bank pairs each center with
        # several time profiles) share its two weight rows, and phis that
        # share a time profile share its evaluation
        spatial, self._spatial_index = _distinct(
            (phi.center, phi.radius, phi.amplitude) for phi in self.phis
        )
        profiles, self._profile_index = _distinct(phi.time_profile for phi in self.phis)
        profiles = [self.phis[k].time_profile for k in profiles]
        psi = np.array([prof.value(self.times) for prof in profiles])
        dpsi = np.array([prof.derivative(self.times) for prof in profiles])
        # each layer's factors of the time and the advective sums, one row per
        # distinct profile: its time weight times psi' and, m(t) included,
        # its modulated time weight times psi
        self._time_factors = self.tw * dpsi
        self._advective_factors = time_weights(self.times, u.modulation) * psi
        self._psi0 = psi[self._profile_index, 0]
        parts = []
        # the distinct nodes as a mask: np.unique would import numpy.ma
        bank = np.zeros(X.size, dtype=bool)
        for k in spatial:
            phi = self.phis[k]
            phi_w = phi.spatial(X, Y) * w
            gx, gy = phi.spatial_gradient(X, Y)
            adv_w = vx * (gx * w) + vy * (gy * w)
            idx = np.flatnonzero((phi_w != 0) | (adv_w != 0))
            bank[idx] = True
            parts.append((idx, phi_w.ravel()[idx], adv_w.ravel()[idx]))
        self._bank = np.flatnonzero(bank)
        self._weights = np.zeros((2 * len(parts), self._bank.size))
        for k, (idx, phi_w, adv_w) in enumerate(parts):
            at = np.searchsorted(self._bank, idx)
            self._weights[2 * k, at], self._weights[2 * k + 1, at] = phi_w, adv_w
        shape = (len(self.betas), len(self.phis))
        self.term_time = np.zeros(shape)
        self.term_advective = np.zeros(shape)
        self._seen = 0

    def _split(self, layer: MovingLayers) -> None:
        """Split the bank's nodes into the layer's nodes[_at] and the still
        ones, the moving part with its own contiguous weight columns, and
        take the still part's sums from the layer's still list."""
        still = layer.still[layer.density[0]]
        if np.shape(still) != self.grid.shape:
            raise WeakformError(
                f"layer shape {np.shape(still)} does not match grid {self.grid.shape}"
            )
        nodes = layer.nodes
        at = np.searchsorted(nodes, self._bank)
        inside = at < nodes.size
        moving = np.zeros(self._bank.size, dtype=bool)
        moving[inside] = nodes[at[inside]] == self._bank[inside]
        self._nodes, self._at = nodes, at[moving]
        # compress keeps the rows contiguous, as the products read them
        self._moving_w = self._weights.compress(moving, axis=1)
        self._still_sums = self._pair_sums(
            still.ravel().take(self._bank[~moving]), self._weights.compress(~moving, axis=1)
        )
        self._bank = self._weights = None

    def _pair_sums(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Shape (len(betas), len(phis), 2): each beta of the values against
        every part's time and advective weights at their nodes, one
        matrix-vector product per beta, spread over the phis of the part."""
        sums = np.empty((len(self.betas), weights.shape[0]))
        for row, beta in zip(sums, self.betas):
            np.dot(weights, values if beta is None else beta(values), out=row)
        return sums.reshape(len(self.betas), -1, 2)[:, self._spatial_index]

    def add_layer(self, j: int, t: float, layer: MovingLayers) -> None:
        if j != self._seen:
            raise WeakformError(f"layers must arrive in order, expected {self._seen}")
        if j == 0:
            self._split(layer)
        elif layer.nodes is not self._nodes:
            raise WeakformError("every layer of a pass must share the first layer's nodes")
        sums = self._pair_sums(layer.values[0].take(self._at), self._moving_w) + self._still_sums
        if j == 0:
            self.term_initial = -self._psi0 * sums[..., 0]
        self.term_time -= self._time_factors[self._profile_index, j] * sums[..., 0]
        self.term_advective += self._advective_factors[self._profile_index, j] * sums[..., 1]
        self._seen += 1

    def report(self) -> list[ResidualReport]:
        if self._seen != self.times.size:
            raise WeakformError(
                f"saw {self._seen} layers, expected {self.times.size}"
            )
        reports = []
        for b, beta in enumerate(self.betas):
            reports += [
                ResidualReport(
                    term_time=float(self.term_time[b, k]),
                    term_initial=float(self.term_initial[b, k]),
                    term_advective=float(self.term_advective[b, k]),
                    phi=phi.label,
                    beta=beta.label if beta is not None else None,
                )
                for k, phi in enumerate(self.phis)
            ]
        return reports


# ---------------------------------------------------------------------------
# Windowed convolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WindowSpectra:
    """Real-FFT transforms of the flipped stencils of one kernel on one grid,
    zero-padded to `shape`.

    A holder's input is its box of b nodes per axis widened on each side,
    W nodes with the box starting `off` nodes in. A padded length L realizes
    this kernel's linear correlation, with no window wrapping around into
    the opposite end of the input, on the crop [K + off : K + off + b]
    whenever L >= K + max(off + b, W - off): for a whole-grid holder,
    L >= n + K. The fast length of b + 2 K_max for a sweep's largest eps
    serves every kernel up to that eps.

    Every remainder reads both gradient spectra G1 and G2, so they are taken
    at once. The value spectrum H is read only by mollify_density and is
    taken on its first read, so a sweep builds it only for the eps that is
    mollified.
    """

    kernel: Kernel
    Kx: int
    Ky: int
    shape: tuple[int, int]
    offsets: tuple[np.ndarray, np.ndarray]
    G1: np.ndarray
    G2: np.ndarray

    @cached_property
    def H(self) -> np.ndarray:
        return _stencil_spectrum(self.kernel.value(*self.offsets), self.shape)


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


def _window_radius(eps: float, grid: Grid) -> tuple[int, int]:
    """(Kx, Ky): the half-width of a kernel window of scale eps in nodes per
    axis."""
    return int(np.floor(eps / grid.hx)), int(np.floor(eps / grid.hy))


def _stencil_spectrum(stencil: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The real FFT of the flipped stencil, zero-padded to shape."""
    spectrum = rfft2(stencil[::-1, ::-1], s=shape)
    spectrum.flags.writeable = False  # shared by every caller through the cache
    return spectrum


@lru_cache(maxsize=8)
def _window_spectra(kernel: Kernel, grid: Grid, shape: tuple[int, int]) -> _WindowSpectra:
    Kx, Ky = _window_radius(kernel.eps, grid)
    ox = grid.hx * np.arange(-Kx, Kx + 1)
    oy = grid.hy * np.arange(-Ky, Ky + 1)
    OX, OY = np.meshgrid(ox, oy, indexing="ij")
    G1, G2 = (_stencil_spectrum(S, shape) for S in kernel.grad(OX, OY))
    return _WindowSpectra(kernel, Kx, Ky, shape, (OX, OY), G1, G2)


def _window_inverse(spec: _WindowSpectra, product: np.ndarray, crop: Box) -> np.ndarray:
    """out[m] = sum_o stencil[o] F[m + o] at the input nodes m of `crop`, F
    zero-padded outside the input.

    `product` is rfft2(F) times a stencil spectrum; correlating with the
    stencil is convolving with its flip, whose full output is offset by K,
    so the crop is read K further on. This is numpy's irfft2 taken one
    axis after the other, with the last axis transformed only on the rows
    that are kept; the kept values are the same bits. The slice is copied
    so a stored layer does not keep the padded buffer.
    """
    rows, cols = crop
    kept = ifft(product, spec.shape[0], axis=0)[spec.Kx + rows.start : spec.Kx + rows.stop]
    return irfft(kept, spec.shape[1], axis=1)[:, spec.Ky + cols.start : spec.Ky + cols.stop].copy()


class LayerTransforms:
    """The forward real FFTs of one density layer of the field u at time t,
    for every kernel up to scale eps, evaluated on a box of nodes.

    `box`, a pair of node slices, is where the kernels are evaluated; None
    is the whole grid. mollify_density and commutator_remainder return
    arrays of the box's shape. Their windows read the layer on the box
    widened by the half-width K of eps on each side and clipped to the
    grid, so that is the input, `wide`, in which the box is `crop`. Three
    fields of it are transformed: F = rho w, read by the mollified layer and
    by both gradient correlations of the remainder, and F ux and F uy, read
    by its rho u correlation. Each is taken on its first read, so a caller
    pays only for what it reads. The transforms are zero-padded to the fast
    length of b + 2K per axis, b the box's length (n + 2K for the whole
    grid). Every kernel up to eps multiplies its own stencil spectra
    against the same transforms, so a holder at a sweep's largest eps
    serves every eps of the sweep and the identity pairing: a layer costs
    three forward transforms, however many kernels read it.
    """

    def __init__(
        self,
        grid: Grid,
        layer: np.ndarray,
        u: VelocityField,
        t: float,
        eps: float,
        box: Box | None = None,
    ):
        self.grid, self.u, self.t = grid, u, t
        self.K = _window_radius(eps, grid)
        spans = [s.indices(n)[:2] for s, n in zip(box or (slice(None),) * 2, grid.shape)]
        self.box = tuple(slice(lo, hi) for lo, hi in spans)
        self.wide = tuple(
            slice(max(0, lo - K), min(n, hi + K))
            for (lo, hi), K, n in zip(spans, self.K, grid.shape)
        )
        self.crop = tuple(slice(lo - w.start, hi - w.start) for (lo, hi), w in zip(spans, self.wide))
        self.shape = tuple(_fast_len(hi - lo + 2 * K) for (lo, hi), K in zip(spans, self.K))
        self.F = layer[self.wide] * grid.quadrature_weights[self.wide]

    def _velocity(self, nodes: Box) -> tuple[np.ndarray, np.ndarray]:
        """(ux, uy) on the nodes: the cached profile v scaled by m(t), so no
        layer evaluates the field."""
        m = self.u.modulation.value(self.t)
        vx, vy = profile_on_grid(self.u.profile, self.grid)
        return vx[nodes] * m, vy[nodes] * m

    @cached_property
    def velocity(self) -> tuple[np.ndarray, np.ndarray]:
        """(ux, uy) on the box."""
        return self._velocity(self.box)

    @cached_property
    def F_hat(self) -> np.ndarray:
        return rfft2(self.F, s=self.shape)

    @cached_property
    def Fu_hat(self) -> tuple[np.ndarray, np.ndarray]:
        ux, uy = self._velocity(self.wide)
        return rfft2(self.F * ux, s=self.shape), rfft2(self.F * uy, s=self.shape)

    def spectra(self, kernel: Kernel) -> _WindowSpectra:
        """The kernel's stencil spectra at this holder's shape. A window
        wider than the holder's eps would read past its input, and one
        whose correlation does not fit the shape would wrap around."""
        Kx, Ky = _window_radius(kernel.eps, self.grid)
        fits = all(
            k <= K and L >= k + max(c.stop, w.stop - w.start - c.start)
            for k, K, L, c, w in zip((Kx, Ky), self.K, self.shape, self.crop, self.wide)
        )
        if not fits:
            raise WeakformError(
                f"transform shape {self.shape} for windows up to {self.K[0]} x {self.K[1]} "
                f"nodes is too short for a window of {Kx} x {Ky} nodes"
            )
        return _window_spectra(kernel, self.grid, self.shape)


def _inner_region(grid: Grid, eps: float) -> Domain:
    try:
        return shrink(grid.domain, eps)
    except GeometryError as exc:
        raise WeakformError(f"kernel scale {eps} leaves no interior region") from exc


def mollify_density(transforms: LayerTransforms, kernel: Kernel) -> np.ndarray:
    """Convolve the holder's density layer with the kernel: the layer of
    rho_eps.

    Nodal quadrature of int rho(y) eta_eps(x - y) dy over the grid; exact
    unit kernel mass makes this a local average, so values contract every
    Lp norm on the shrunk region. The result covers the holder's box; only
    nodes inside shrink(grid.domain, eps) carry that meaning (outside it the
    window was truncated at the boundary).
    """
    _inner_region(transforms.grid, kernel.eps)
    spec = transforms.spectra(kernel)
    return _window_inverse(spec, transforms.F_hat * spec.H, transforms.crop)


def commutator_remainder(transforms: LayerTransforms, kernel: Kernel) -> np.ndarray:
    """Nodal layer of r_eps = int rho(y) (u(x) - u(y)) . grad(eta_eps)(y - x) dy
    for the holder's density layer, field u and time t, on the holder's box.

    Splitting the parenthesis turns the integral into four windowed
    correlations (two gradient components over rho and over rho u), plus a
    pointwise multiplication by u at the evaluation nodes. Each correlation
    is a product in frequency space with the cached real-FFT spectrum of a
    zero-padded stencil: the forward transform of rho is shared by both
    gradient components and the two rho u terms are summed before their one
    inverse transform, so a call costs three inverse transforms. The three
    forward transforms come from the holder; a sweep hands every eps one
    holder, so a layer pays for them once. commutator_at_points evaluates
    the same quadrature by a direct per-point gather; the
    stencil-consistency check compares the two.
    """
    _inner_region(transforms.grid, kernel.eps)
    spec = transforms.spectra(kernel)
    ux, uy = transforms.velocity
    F_hat = transforms.F_hat
    Fux_hat, Fuy_hat = transforms.Fu_hat
    crop = transforms.crop
    conv_b1 = _window_inverse(spec, F_hat * spec.G1, crop)
    conv_b2 = _window_inverse(spec, F_hat * spec.G2, crop)
    conv_u = _window_inverse(spec, Fux_hat * spec.G1 + Fuy_hat * spec.G2, crop)
    return ux * conv_b1 + uy * conv_b2 - conv_u


def mollify_at_points(grid: Grid, layer: np.ndarray, kernel: Kernel, xs, ys) -> np.ndarray:
    """rho_eps at arbitrary interior points (same quadrature as the layer).

    Each point reads the layer only on its own kernel window."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    out = np.empty(xs.shape)
    flat = out.reshape(-1)
    for idx, (x0, y0) in enumerate(zip(xs.reshape(-1), ys.reshape(-1))):
        win = window_box(grid, x0, y0, kernel.eps)
        F = layer[win] * grid.quadrature_weights[win]
        H = kernel.value(x0 - grid.xs[win[0], None], y0 - grid.ys[None, win[1]])
        flat[idx] = np.sum(H * F)
    return out


def commutator_at_points(
    grid: Grid, layer: np.ndarray, u: VelocityField, kernel: Kernel, xs, ys, t: float = 0.0
) -> np.ndarray:
    """r_eps at arbitrary interior points (same quadrature as the layer).

    Each point reads the layer, and evaluates u, only on its own kernel
    window."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    out = np.empty(xs.shape)
    flat = out.reshape(-1)
    for idx, (x0, y0) in enumerate(zip(xs.reshape(-1), ys.reshape(-1))):
        win = window_box(grid, x0, y0, kernel.eps)
        F = layer[win] * grid.quadrature_weights[win]
        X, Y = grid.xs[win[0], None], grid.ys[None, win[1]]
        u1, u2 = u.eval(X, Y, t)
        G1, G2 = kernel.grad(X - x0, Y - y0)
        ux0, uy0 = u.eval(x0, y0, t)
        flat[idx] = np.sum(F * ((ux0 - u1) * G1 + (uy0 - u2) * G2))
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


def _region_margin(inner: Domain, outer: Domain) -> float:
    return min(
        inner.x_lo - outer.x_lo,
        outer.x_hi - inner.x_hi,
        inner.y_lo - outer.y_lo,
        outer.y_hi - inner.y_hi,
    )


def gamma_exponent(alpha: float, p: float) -> float:
    """1/gamma = 1/alpha + 1/p (harmonic pairing of field and density)."""
    if not (alpha >= 1.0 and p >= 1.0):
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
    Every eps reads one LayerTransforms per layer, taken for the largest eps
    on the sweep's `box`, which serves every smaller eps exactly. The box
    starts as the nodes of the cells the inner region overlaps, the only
    nodes the norms read; a consumer fed after the sweep that reads other
    nodes widens it before the first layer. For its norm, each remainder is
    written into one whole-grid buffer that is zero off the box. The sweep
    keeps the index of the layer it took last as `j`, that layer's holder
    as `transforms` and its remainders on the box, largest eps first, as
    `remainders`, for consumers fed after it.
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
        self.times, self.tw = times, time_weights(times)
        self.norms = [0.0] * len(self.eps)
        self.box: Box = region_box(grid, inner)
        self._buffer = np.zeros(grid.shape)
        self.j: int | None = None
        self.transforms: LayerTransforms | None = None
        self.remainders: list[np.ndarray] = []

    def widen(self, box: Box) -> None:
        """Grow the box to cover `box` too; refused once a layer is taken."""
        if self.j is not None:
            raise WeakformError("the sweep's box can widen only before its first layer")
        self.box = tuple(
            slice(min(a.start, int(b.start)), max(a.stop, int(b.stop))) for a, b in zip(self.box, box)
        )

    def add_layer(self, j: int, t: float, layer: np.ndarray) -> None:
        self.j = j
        self.transforms = LayerTransforms(self.grid, layer, self.u, t, self.eps[0], self.box)
        self.remainders = [commutator_remainder(self.transforms, k) for k in self.kernels]
        for i, rem in enumerate(self.remainders):
            self._buffer[self.box] = rem
            norm = lp_norm(self._buffer, self.grid, self.gamma, self.inner)
            self.norms[i] += float(self.tw[j]) * norm

    def curve(self) -> RemainderCurve:
        """The norms summed so far. Whether they decay, as the commutator
        estimate promises, is for the caller to judge."""
        return RemainderCurve(self.eps, tuple(self.norms), self.gamma, self.inner, self.margin)


class IdentityPairing:
    """The consistency identity at the sweep's largest eps, fed after the
    sweep: each layer is mollified through the sweep's holder and paired
    with its remainder, both on the sweep's box. Built, the pairing widens
    that box to its test function's support, which holds every node of its
    bank. The mollified layer enters the accumulator as a view whose nodes
    are the box's, so its still list, a zero layer, is never read. result
    returns (lhs, rhs), lhs the weak residual of the mollified solution and
    rhs the space-time pairing of the remainder with phi over the box, each
    side taken by its own quadrature path. A layer index the sweep has not
    taken last is refused."""

    def __init__(self, sweep: RemainderSweep, phi: TestFunction):
        self.sweep, self.phi, self.kernel = sweep, phi, sweep.kernels[0]
        self.acc = ResidualAccumulator(sweep.grid, sweep.times, sweep.u, [phi])
        sweep.widen(window_box(sweep.grid, *phi.center, phi.radius))
        self.rhs = 0.0

    def add_layer(self, j: int, t: float, layer: np.ndarray) -> None:
        sweep, grid = self.sweep, self.sweep.grid
        if sweep.j is None:
            raise WeakformError("the sweep has taken no layer; feed it before the pairing")
        if sweep.j != j:
            raise WeakformError(
                f"the sweep took layer {sweep.j} last, not layer {j}; feed it before the pairing"
            )
        if j == 0:  # the sweep's box is final once it has taken a layer
            box = sweep.box
            self._nodes = np.arange(np.prod(grid.shape)).reshape(grid.shape)[box].ravel()
            self._still = [np.broadcast_to(0.0, grid.shape)]
            self._phi_w = self.phi.spatial(*grid.meshes())[box] * grid.quadrature_weights[box]
        moll = mollify_density(sweep.transforms, self.kernel)
        self.acc.add_layer(j, t, MovingLayers(moll.reshape(1, -1), self._nodes, (0,), self._still))
        psi = float(self.phi.time_profile.value(t))
        self.rhs += self.acc.tw[j] * psi * float(np.sum(sweep.remainders[0] * self._phi_w))

    def result(self) -> tuple[float, float]:
        rep = self.acc.report()[0]
        return rep.term_time + rep.term_initial + rep.term_advective, self.rhs
