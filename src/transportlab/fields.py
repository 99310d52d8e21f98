"""Concrete function objects used throughout the laboratory.

Velocity fields are built from compactly supported stream functions, so
incompressibility and boundary vanishing hold by construction instead of by
projection. Densities are nodal layers with bilinear point evaluation.
Mollifier kernels, admissible renormalization functions, and space-time
test functions are all closed form. The derivatives the lab reads
(TimeProfile.derivative, Kernel.grad, TestFunction.spatial_gradient and
StreamFunction.gradient) are written out by hand, and every
finite-difference check downstream compares against these forms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, ClassVar, Sequence

import numpy as np

from transportlab.geometry import Domain, Grid, dist_to_boundary, trapezoid_weights


class FieldError(ValueError):
    """Raised for invalid field constructions or out-of-domain evaluation."""


# ---------------------------------------------------------------------------
# Smooth bump building blocks.
#
# _bump(q) = exp(-1/(1-q)) for q < 1 (q is the squared relative radius), with
# value 0 at q >= 1, and _bump_dq is its q-derivative. Both vanish with all
# derivatives at q = 1, which is what makes every construction here genuinely
# smooth across its support edge. Each takes its closed form on the whole
# array and keeps it where q < 1: at q >= 1 the form divides by zero or
# overflows, which errstate silences and the q < 1 mask discards.
#
# The derivative is written once, in place (_bump_slope_into), because it is
# the slope kernel of every characteristic solve: a solve keeps one
# GradientWorkspace and evaluates its velocity into it at every RK4 stage.
# When every q is below 1 there is nothing to discard, and the mask is
# skipped.
# ---------------------------------------------------------------------------


def _bump(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    with np.errstate(all="ignore"):
        t = 1.0 - q
        return np.where(q < 1.0, np.exp(-1.0 / t), 0.0)


def _bump_slope_into(q: np.ndarray, out: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Write -_bump_dq(q) into out, using q and inside as scratch.

    The caller holds np.errstate(all="ignore"). Every step is one ufunc of
    the closed form exp(-1/t) / (t t), t = 1 - q, in its own order, and the
    points at q >= 1 get -0.0, so negating out gives _bump_dq bit for bit:
    in IEEE arithmetic -(e / s) is (-e) / s.
    """
    masked = q.size > 0 and not q.max() < 1.0  # a NaN q takes the mask too
    if masked:
        np.less(q, 1.0, out=inside)
    np.subtract(1.0, q, out=q)
    np.divide(-1.0, q, out=out)
    np.exp(out, out=out)
    np.square(q, out=q)
    np.divide(out, q, out=out)
    if masked:
        np.logical_not(inside, out=inside)
        np.copyto(out, -0.0, where=inside)
    return out


def _bump_dq(q: np.ndarray) -> np.ndarray:
    q = np.array(q, dtype=float)
    with np.errstate(all="ignore"):
        out = _bump_slope_into(q, np.empty_like(q), np.empty(q.shape, dtype=bool))
        return np.negative(out, out=out)


class GradientWorkspace:
    """Scratch arrays of one point shape for the in-place gradient kernel.

    The kernel leaves its two gradient terms in dx and dy, so they are valid
    until the next kernel call on the same workspace.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.dx = np.empty(shape)
        self.dy = np.empty(shape)
        self.q = np.empty(shape)
        self.g = np.empty(shape)
        self.inside = np.empty(shape, dtype=bool)


# ---------------------------------------------------------------------------
# Time modulation of velocity fields.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeModulation:
    """Scalar factor m(t) of a velocity field and its primitive M(t) = int_0^t m.

    Every modulation is nonnegative, so M is nondecreasing and serves as the
    clock of the field's characteristics. integral takes scalars or arrays.
    """

    label: str
    value: Callable[[float], float]
    integral: Callable


def _inverse_sqrt(t: float) -> float:
    # Integrable in time but unbounded at t = 0; the clip keeps evaluation
    # finite without affecting integrals at observable tolerances.
    return float(max(t, 1e-6)) ** -0.5


def _inverse_sqrt_integral(t):
    # exact primitive of the clipped factor: 1e3 t up to the clip, then
    # 2 sqrt(t) minus what the clip takes off 2 sqrt(1e-6)
    t = np.asarray(t, dtype=float)
    return np.where(t < 1e-6, 1e3 * t, 2.0 * np.sqrt(np.maximum(t, 1e-6)) - 1e-3)


_MODULATIONS = {
    "none": TimeModulation("none", lambda t: 1.0, lambda t: t),
    "linear": TimeModulation("linear", lambda t: float(t), lambda t: 0.5 * t * t),
    "inverse-sqrt": TimeModulation("inverse-sqrt", _inverse_sqrt, _inverse_sqrt_integral),
}


def time_modulation(label: str) -> TimeModulation:
    try:
        return _MODULATIONS[label]
    except KeyError:
        raise FieldError(
            f"unknown time modulation {label!r}; have {sorted(_MODULATIONS)}"
        ) from None


def time_weights(times, modulation: TimeModulation | None = None) -> np.ndarray:
    """Weight of each time node in a time integral: its trapezoid weight,
    times m(t_j) when a modulation is given. A lone node carries unit weight.

    m goes through the scalar modulation.value, node by node, so every
    pairing weights a layer with the bits of m that the field itself uses.
    """
    t = np.asarray(times, dtype=float)
    w = trapezoid_weights(t) if t.size > 1 else np.ones(t.size)
    if modulation is None:
        return w
    return w * np.array([modulation.value(float(tj)) for tj in t])


# ---------------------------------------------------------------------------
# Stream functions and velocity fields.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamFunction:
    """Radial bump stream function A * exp(-1/(1 - (r/R)^2)).

    The perpendicular gradient of psi gives one vortex of the velocity
    field. Value, gradient and second partials are closed form; everything
    vanishes identically at distance >= R from the center. The derivatives
    take a scale that multiplies A inside their one scalar coefficient, which
    is where a velocity field puts its time factor.

    This is the one closed form of the radial bump: the spatial factor of a
    TestFunction and the mollifier Kernel are bumps of this kind.
    """

    center: tuple[float, float]
    radius: float
    amplitude: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise FieldError(f"support radius must be positive, got {self.radius}")

    def _rel(self, x, y):
        dx = np.asarray(x, dtype=float) - self.center[0]
        dy = np.asarray(y, dtype=float) - self.center[1]
        q = (dx * dx + dy * dy) / self.radius**2
        return dx, dy, q

    def value(self, x, y) -> np.ndarray:
        _, _, q = self._rel(x, y)
        return self.amplitude * _bump(q)

    def coefficient(self, scale: float = 1.0) -> float:
        """The scalar 2 A scale / R^2 that multiplies _bump_dq(q) in the gradient."""
        return 2.0 * self.amplitude * scale / self.radius**2

    def _negated_gradient_into(self, x, y, coef, ws: GradientWorkspace):
        """(-psi_x, -psi_y) at points of ws's shape, written into ws.dx and
        ws.dy: G dx and G dy with G = -_bump_dq(q) coef.

        coef is self.coefficient(scale), or per-point coefficients that
        broadcast against the points. The caller holds np.errstate(all="ignore").
        """
        dx, dy, q = ws.dx, ws.dy, ws.q
        np.subtract(x, self.center[0], out=dx)
        np.subtract(y, self.center[1], out=dy)
        np.square(dx, out=q)  # dx * dx, bit for bit
        np.square(dy, out=ws.g)
        np.add(q, ws.g, out=q)
        np.divide(q, self.radius**2, out=q)
        g = _bump_slope_into(q, ws.g, ws.inside)
        np.multiply(g, coef, out=g)
        np.multiply(g, dx, out=dx)
        np.multiply(g, dy, out=dy)
        return dx, dy

    def gradient(self, x, y, scale: float = 1.0):
        """(psi_x, psi_y) of scale * psi in closed form: the negated gradient's
        terms for the negated coefficient, as (-a) b is a (-b) bit for bit."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        coef = np.negative(self.coefficient(scale))
        with np.errstate(all="ignore"):
            px, py = self._negated_gradient_into(x, y, coef, GradientWorkspace(x.shape))
        if x.ndim == 0:
            return px[()], py[()]
        return px, py


def velocity_into(components, coefs, x, y, ux, uy, ws: GradientWorkspace) -> None:
    """Write sum over components of (psi_y, -psi_x) into ux and uy.

    coefs[i] is component i's gradient coefficient (see
    StreamFunction.coefficient). The sum starts from the scalar 0.0, which
    turns an exact -0.0 into +0.0 as a zero-filled accumulator would. Each
    term is taken from the negated gradient, so no negation pass is made:
    adding psi_y is subtracting -psi_y, and subtracting psi_x is adding
    -psi_x, bit for bit. The caller holds np.errstate(all="ignore").
    """
    if not components:
        ux.fill(0.0)
        uy.fill(0.0)
        return
    for i, (c, coef) in enumerate(zip(components, coefs)):
        gx, gy = c._negated_gradient_into(x, y, coef, ws)
        np.subtract(ux if i else 0.0, gy, out=ux)
        np.add(uy if i else 0.0, gx, out=uy)


@dataclass(frozen=True)
class VelocityField:
    """u(x, t) = m(t) v(x): one time modulation times a superposition of
    perpendicular stream-function gradients.

    v = (psi_y, -psi_x) summed over components, hence divergence free
    analytically and identically zero within the support margin of the
    boundary. The characteristics of u are the flow of the time-independent
    v on the clock tau = M(t) = int_0^t m, which is how the solver
    integrates them.
    """

    components: tuple[StreamFunction, ...]
    domain: Domain
    modulation: TimeModulation = _MODULATIONS["none"]

    @property
    def profile(self) -> VelocityField:
        """The spatial factor v, unmodulated."""
        return VelocityField(self.components, self.domain)

    @property
    def support_margin(self) -> float:
        """Distance from the union of supports to the boundary."""
        margins = []
        for c in self.components:
            cx, cy = c.center
            margins.append(dist_to_boundary(self.domain, cx, cy) - c.radius)
        return min(margins) if margins else float("inf")

    def support_mask(self, x, y) -> np.ndarray:
        """True where a point lies strictly inside some component's support.

        This is the q < 1 test the bump derivatives use, so outside the mask
        every component's gradient is exactly zero at every time.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        mask = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        for c in self.components:
            mask |= c._rel(x, y)[2] < 1.0
        return mask

    def eval(self, x, y, t: float = 0.0):
        """Velocity components at points; arrays in, arrays out. Every point
        must lie in the closed domain."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not np.all(self.domain.contains_closure(x, y)):
            raise FieldError("velocity evaluation outside the closed domain")
        x, y = np.broadcast_arrays(x, y)
        ux, uy = np.empty(x.shape), np.empty(x.shape)
        with np.errstate(all="ignore"):
            coefs = self.coefficients(self.modulation.value(t))
            velocity_into(self.components, coefs, x, y, ux, uy, GradientWorkspace(x.shape))
        if x.ndim == 0:
            return float(ux), float(uy)
        return ux, uy

    def coefficients(self, m: float) -> list[float]:
        """Each component's gradient coefficient at modulation value m = m(t)."""
        return [c.coefficient(m) for c in self.components]

    def max_speed(self, grid: Grid) -> float:
        """Nodal sup of |v|, the unmodulated profile."""
        return float(np.max(np.hypot(*profile_on_grid(self.profile, grid))))

    def scaled(self, factor: float) -> VelocityField:
        comps = tuple(replace(c, amplitude=factor * c.amplitude) for c in self.components)
        return replace(self, components=comps)


@lru_cache(maxsize=8)
def profile_on_grid(v: VelocityField, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The unmodulated field v at every node of the grid, read-only.

    This is the one grid evaluation of a profile: the CFL substeps, the
    stability study's velocity distances and the weak form all read it
    through this cache. u = m(t) v, so every layer of u is this pair times
    the scalar m(t). A profile that is not finite on the grid is refused
    here, before any reader computes with it.
    """
    vx, vy = v.eval(*grid.meshes())
    if not (np.isfinite(vx).all() and np.isfinite(vy).all()):
        # a vortex coefficient 2 A / R^2 that overflows makes inf * 0 at its
        # centre node
        raise FieldError("the field's max |v| on the grid is not finite")
    for a in (vx, vy):
        a.flags.writeable = False  # shared by every caller through the cache
    return vx, vy


def from_stream_function(
    psi: StreamFunction | Sequence[StreamFunction], domain: Domain, modulation: str = "none"
) -> VelocityField:
    """Build the divergence-free field u = m(t) (psi_y, -psi_x) on a domain.

    Each component's support ball must stay strictly inside the domain;
    a support touching the boundary would break the boundary-vanishing
    hypothesis the transport theory rests on, so it is a construction error.
    """
    comps = (psi,) if isinstance(psi, StreamFunction) else tuple(psi)
    for c in comps:
        cx, cy = c.center
        if domain.locate(cx, cy) != "interior":
            raise FieldError(f"stream function center {c.center} not interior")
        margin = dist_to_boundary(domain, cx, cy) - c.radius
        if margin <= 0.0:
            raise FieldError(
                f"stream function support (center {c.center}, radius {c.radius}) "
                f"touches the boundary (margin {margin:.3g})"
            )
    return VelocityField(comps, domain, time_modulation(modulation))


def vortex_field(
    domain: Domain,
    center: tuple[float, float] = (0.5, 0.5),
    radius: float = 0.3,
    amplitude: float = 0.5,
    modulation: str = "none",
) -> VelocityField:
    """The workhorse single-vortex field used by studies and tests."""
    return from_stream_function(StreamFunction(center, radius, amplitude), domain, modulation)


# ---------------------------------------------------------------------------
# Mollifier kernels.
# ---------------------------------------------------------------------------


# Unit mass in the plane: Z * 2*pi * int_0^1 r exp(-1/(1-r^2)) dr = 1, shared
# by every scale (mass is invariant under the eps^{-2} rescaling). With
# s = 1 - r^2 the integral is (e^{-1} - E1(1)) / 2, so in closed form
# Z = 1 / (pi (e^{-1} - E1(1))), E1 the exponential integral.
_BUMP_PROFILE_CONSTANT = 2.143565775792248


@dataclass(frozen=True)
class Kernel:
    """Scaled mollifier eta_eps(x) = eps^{-2} eta(x/eps), supp in B(0, eps).

    eta is the smooth bump exp(-1/(1 - |x|^2)) scaled to unit mass.
    """

    eps: float
    normalization: ClassVar[float] = _BUMP_PROFILE_CONSTANT

    @property
    def _radial(self) -> StreamFunction:
        return StreamFunction((0.0, 0.0), self.eps, self.normalization / self.eps**2)

    def value(self, x, y) -> np.ndarray:
        return self._radial.value(x, y)

    def grad(self, x, y):
        """grad eta_eps = eps^{-3} (grad eta)(x/eps), componentwise."""
        return self._radial.gradient(x, y)


def make_kernel(eps: float = 0.1) -> Kernel:
    if eps <= 0.0:
        raise FieldError(f"kernel scale must be positive, got {eps}")
    # the gradient coefficient 2 (Z / eps^2) / eps^2 must be a finite float;
    # eps^4 as products refuses the same eps as that quotient does
    if eps * eps * eps * eps < 2.0 * Kernel.normalization / np.finfo(float).max:
        raise FieldError(
            f"kernel scale {eps!r} is too small: its gradient coefficient "
            "2 Z / eps^4 overflows a float (eps below about 1.2427e-77)"
        )
    return Kernel(float(eps))


# ---------------------------------------------------------------------------
# Admissible renormalization functions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleBeta:
    """A renormalization function beta and its label. The lab reads beta(rho)
    only: the renorm bank pairs it with test functions, and the stability
    study takes differences of it."""

    label: str
    value: Callable[[np.ndarray], np.ndarray]

    def __call__(self, s) -> np.ndarray:
        return self.value(np.asarray(s, dtype=float))


def beta_truncation(M: float) -> AdmissibleBeta:
    """Clip to [-M, M]. Not C1 (corners at +-M); kept as a smoothing target."""
    if M <= 0.0:
        raise FieldError(f"truncation level must be positive, got {M}")

    def val(s):
        return np.clip(np.asarray(s, dtype=float), -M, M)

    return AdmissibleBeta(f"clip[{M:g}]", val)


def _rounded_min(sigma: np.ndarray, M: float, k: int) -> np.ndarray:
    """min(sigma, M) for sigma >= 0 with the corner at M rounded on width 2/k.

    The replacement arc is the unique parabola matching value and slope of
    the clip at both window ends; it stays below min(sigma, M) (equality
    only at the left joint) and deviates by at most 1/(4k), attained at M.
    """
    sigma = np.asarray(sigma, dtype=float)
    lo = M - 1.0 / k
    hi = M + 1.0 / k
    # left of the window min(sigma, M) is sigma itself, bit for bit; out=
    # keeps a 0-d input an array that the window can be written into
    out = np.minimum(sigma, M, out=np.empty(sigma.shape))
    win = (sigma > lo) & (sigma < hi)
    # the arc only where it is kept: inside the window tau is finite
    tau = sigma[win] - hi
    out[win] = M - 0.25 * k * tau * tau
    return out


def beta_smooth_approx(M: float, k: int) -> AdmissibleBeta:
    """C1 approximation of the clip, exact outside 1/k-windows around +-M.

    Odd in s, below the clip in absolute value, and within 1/k of it
    everywhere (the actual gap is 1/(4k)). The rounding window must not
    reach the origin, so k must exceed 1/M.
    """
    if M <= 0.0:
        raise FieldError(f"truncation level must be positive, got {M}")
    if k < 1 or 1.0 / k >= M:
        raise FieldError(
            f"rounding width 1/k must stay below M (got M={M}, k={k}); "
            "otherwise the corner windows reach the origin"
        )

    def val(s):
        s = np.asarray(s, dtype=float)
        return np.sign(s) * _rounded_min(np.abs(s), M, k)

    return AdmissibleBeta(f"clip[{M:g}]~k{k}", val)


def beta_bounded_power(p: float, M: float, k: int) -> AdmissibleBeta:
    """C1 version of t -> min(|t|^p, M), smoothed from below near level M.

    Increasing in k pointwise toward the unsmoothed function. p > 1 keeps
    the derivative p |t|^{p-1} sgn(t) continuous through 0.
    """
    if not 1.0 < p < np.inf:
        raise FieldError(f"exponent must lie in (1, inf), got {p}")
    if M <= 0.0:
        raise FieldError(f"saturation level must be positive, got {M}")
    if k < 1 or 1.0 / k >= M:
        raise FieldError(
            f"rounding width 1/k must stay below M (got M={M}, k={k})"
        )

    def val(t):
        t = np.asarray(t, dtype=float)
        return _rounded_min(np.abs(t) ** p, M, k)

    return AdmissibleBeta(f"pow[{p:g}|{M:g}]~k{k}", val)


# ---------------------------------------------------------------------------
# Test functions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeProfile:
    """Temporal factor of a product test function; vanishes at t = T."""

    label: str
    T: float
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]


def quadratic_decay_profile(T: float) -> TimeProfile:
    """(1 - t/T)^2: value 1 at t = 0, vanishing at t = T."""

    def val(t):
        return (1.0 - np.asarray(t, dtype=float) / T) ** 2

    def der(t):
        return -2.0 * (1.0 - np.asarray(t, dtype=float) / T) / T

    return TimeProfile("quadratic", T, val, der)


def cosine_decay_profile(T: float) -> TimeProfile:
    """cos(pi t / 2T)^2: like the quadratic but with flat slope at t = 0."""

    def val(t):
        return np.cos(0.5 * np.pi * np.asarray(t, dtype=float) / T) ** 2

    def der(t):
        t = np.asarray(t, dtype=float)
        return -0.5 * np.pi / T * np.sin(np.pi * t / T)

    return TimeProfile("cosine", T, val, der)


@dataclass(frozen=True)
class TestFunction:
    """Product test function psi(t) * phi(x, y) with closed-form derivatives.

    phi is a unit-peak radial bump scaled by the amplitude; compact support
    in space (ball strictly inside the domain) and in time (profile
    vanishing at T) make it admissible for every weak-form pairing here.
    """

    center: tuple[float, float]
    radius: float
    amplitude: float
    time_profile: TimeProfile
    domain: Domain

    @property
    def label(self) -> str:
        cx, cy = self.center
        return (
            f"bump[{cx:g},{cy:g};r={self.radius:g};A={self.amplitude:g}]"
            f"*{self.time_profile.label}"
        )

    @property
    def _radial(self) -> StreamFunction:
        # e * exp(-1/(1-q)) peaks at exactly 1 in the center
        return StreamFunction(self.center, self.radius, self.amplitude * np.e)

    def spatial(self, x, y) -> np.ndarray:
        return self._radial.value(x, y)

    def spatial_gradient(self, x, y):
        return self._radial.gradient(x, y)


def make_test_function(
    center: tuple[float, float],
    radius: float,
    time_profile: TimeProfile,
    domain: Domain,
    amplitude: float = 1.0,
) -> TestFunction:
    cx, cy = center
    if (
        radius <= 0.0
        or domain.locate(cx, cy) != "interior"
        or dist_to_boundary(domain, cx, cy) <= radius
    ):
        raise FieldError(
            f"test function ball (center {center}, radius {radius}) "
            "is not a ball strictly interior to the domain"
        )
    tv = float(np.asarray(time_profile.value(time_profile.T)))
    if abs(tv) > 1e-12:
        raise FieldError(f"time profile must vanish at T, got {tv}")
    return TestFunction((cx, cy), float(radius), float(amplitude), time_profile, domain)


# ---------------------------------------------------------------------------
# Densities on grids.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """Time-indexed nodal density layers with bilinear point evaluation."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray  # shape (len(times), nx+1, ny+1)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if values.ndim != 3 or values.shape[0] != times.size:
            raise FieldError(
                f"expected (nt+1, nx+1, ny+1) layers, got {values.shape} "
                f"for {times.size} times"
            )
        if values.shape[1:] != self.grid.shape:
            raise FieldError(
                f"layer shape {values.shape[1:]} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise FieldError("density layers contain non-finite values")

    @property
    def n_layers(self) -> int:
        return int(self.times.size)

    def layer(self, j: int) -> np.ndarray:
        return self.values[j]


def static_field(grid: Grid, f: Callable, t: float = 0.0) -> ScalarField:
    """Single-layer field sampled from f(x, y) at time t."""
    return ScalarField(grid, np.array([t]), grid.sample(f)[None, :, :])


def gaussian_blob(
    center: tuple[float, float] = (0.6, 0.5), sigma: float = 0.08, amplitude: float = 1.0
) -> Callable:
    def f(x, y):
        return amplitude * np.exp(
            -((x - center[0]) ** 2 + (y - center[1]) ** 2) / (2.0 * sigma**2)
        )

    return f
