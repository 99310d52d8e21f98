"""Characteristic flow maps and the classical transport solution.

The transport equation rho_t - u . grad(rho) = 0 is constant along the
curves dX/ds = -u(X, s), so the solver evaluates each time layer by tracing
every node backward to time zero and reading the initial density there
(semi-Lagrangian evaluation: nodal values come out directly, no scatter
step). Every field is u = m(t) v(x), and its characteristics are those of
the time-independent field v on the clock tau = M(t) = int_0^t m, so one
incremental integration of v serves modulated and unmodulated fields alike,
including an unbounded but time-integrable m. Trajectories of admissible
fields never reach the boundary, so any numerically drifting point is
clamped if the excursion is tiny and treated as a blowup otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from transportlab.fields import ScalarField, VelocityField
from transportlab.geometry import TimePartition

# the largest step, in grid cells, a node may move per RK4 step
_CFL = 0.5
# the most RK4 steps a solve may take for one time layer
_MAX_STEPS_PER_LAYER = 10**6


class CharacteristicsError(ValueError):
    """Raised for invalid solver inputs."""


class FlowEscapeError(CharacteristicsError):
    """A trajectory left the domain by more than the allowed excursion.

    Signals a velocity field violating the boundary-vanishing hypothesis,
    not a condition to repair silently.
    """


@dataclass(frozen=True)
class FlowMapIntegrator:
    """Fixed-step RK4 integrator for the characteristic system of one field.

    Steps of size dt are taken until the remaining interval is shorter than
    dt; a single partial step finishes it. Fixed stepping keeps results
    deterministic and lets a solve advance stored departure points layer by
    layer without drift between code paths.
    """

    velocity: VelocityField
    dt: float

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise CharacteristicsError(f"step size must be positive, got {self.dt}")

    def steps(self, t_from: float, t_to: float) -> list[float]:
        """Signed step sequence covering [t_from, t_to]."""
        total = abs(t_to - t_from)
        if total == 0.0:
            return []
        sgn = 1.0 if t_to > t_from else -1.0
        n_full = int(np.floor(total / self.dt + 1e-12))
        out = [sgn * self.dt] * n_full
        partial = total - n_full * self.dt
        if partial > 1e-12 * self.dt:
            out.append(sgn * partial)
        return out

    def advance(self, x, y, t_from: float, t_to: float, escape_tol: float):
        """March points from t_from to t_to, clamping tiny boundary drift.

        Each step is classical RK4 for dX/ds = -u(X, s), whose stage slopes
        are k = -u. The negation is folded into the arithmetic: in IEEE
        arithmetic x - a u is x + a (-u) and -2 u is 2 (-u), bit for bit, so
        the result is the textbook form's. Stages may poke slightly outside
        the closure, where the closed forms are still defined.
        """
        vel = self.velocity.eval
        x = np.array(x, dtype=float, copy=True)
        y = np.array(y, dtype=float, copy=True)
        t = t_from
        for h in self.steps(t_from, t_to):
            a = 0.5 * h
            u1x, u1y = vel(x, y, t, checked=False)
            u2x, u2y = vel(x - a * u1x, y - a * u1y, t + a, checked=False)
            u3x, u3y = vel(x - a * u2x, y - a * u2y, t + a, checked=False)
            u4x, u4y = vel(x - h * u3x, y - h * u3y, t + h, checked=False)
            # x += (h / 6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right in
            # place on the fresh arrays eval returns
            for p, u1, u2, u3, u4 in ((x, u1x, u2x, u3x, u4x), (y, u1y, u2y, u3y, u4y)):
                u2 *= -2.0
                u2 -= u1
                u3 *= -2.0
                u2 += u3
                u2 -= u4
                u2 *= h / 6.0
                p += u2
            t += h
            self._clamp(x, y, escape_tol)
        return x, y

    def _clamp(self, x, y, escape_tol: float) -> None:
        d = self.velocity.domain
        # furthest excursion past an edge; when no point is outside, the
        # clip would change nothing
        worst = max(d.x_lo - x.min(), x.max() - d.x_hi, d.y_lo - y.min(), y.max() - d.y_hi)
        if worst > escape_tol:
            raise FlowEscapeError(
                f"trajectory left the domain by {worst:.3e} "
                f"(allowed excursion {escape_tol:.3e})"
            )
        if worst > 0.0:
            np.clip(x, d.x_lo, d.x_hi, out=x)
            np.clip(y, d.y_lo, d.y_hi, out=y)


def flow_map(
    u: VelocityField,
    t_from: float,
    t_to: float,
    x,
    y=None,
    dt: float = 1e-3,
    escape_tol: float | None = None,
):
    """Characteristic position at t_to of the curve through x at t_from.

    Points must start in the closed domain. By default only a roundoff-size
    excursion is tolerated before clamping; callers tied to a grid pass one
    cell instead.
    """
    scalar = y is None
    if scalar:
        x, y = x
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(u.domain.contains_closure(x, y)):
        raise CharacteristicsError("flow map start point outside the closed domain")
    if escape_tol is None:
        escape_tol = 1e-9 * max(u.domain.width, u.domain.height)
    xi, yi = FlowMapIntegrator(u, dt).advance(x, y, t_from, t_to, escape_tol)
    if scalar and xi.ndim == 0:
        return float(xi), float(yi)
    return xi, yi


def iter_solution_layers(
    rho0: ScalarField,
    u: VelocityField,
    times: TimePartition,
) -> Iterator[tuple[int, float, np.ndarray]]:
    """Yield (j, t_j, layer) of the classical solution without storing it.

    Layer j is rho0 evaluated at the backward characteristic foot of every
    node, i.e. at flow_map(u, t_j, 0, node). For u = m(t) v(x) that foot is
    the flow of the time-independent v run backward over the clock interval
    [0, tau_j], tau_j = M(t_j), so the stored departure points advance
    incrementally from tau_j to tau_{j-1} in fixed RK4 steps of v. The step
    is times.dt / k with k the fewest substeps per layer interval that keep
    max|v| step within the CFL cap, so it is CFL-safe in tau whatever the
    modulation; for an unmodulated field tau is times.times itself and each
    layer takes exactly the steps a per-layer integration would.

    Only nodes strictly inside some support ball are integrated. Elsewhere
    v vanishes, so every RK4 stage slope is exactly zero and the node is a
    fixed point of the integrator and of its clamp: its foot is the node
    itself in every layer, and its value is interpolated once per solve.
    Every operation is elementwise, so splitting the nodes this way changes
    no bit of any layer.
    """
    grid = rho0.grid
    if grid.domain != u.domain:
        raise CharacteristicsError("density grid and velocity domain differ")
    h_min = min(grid.hx, grid.hy)
    if u.support_margin < h_min:
        raise CharacteristicsError(
            f"velocity support margin {u.support_margin:.3e} is below one "
            f"grid cell {h_min:.3e}; boundary-vanishing is not resolved"
        )
    base = rho0.layer(0)
    v = u.profile
    tau = u.modulation.integral(times.times)
    # k equal substeps per dt, the fewest that keep max|v| step <= _CFL h_min
    vmax = v.max_speed(grid)
    step = times.dt if vmax == 0.0 else min(times.dt, _CFL * h_min / vmax)
    k = max(1.0, float(np.ceil(times.dt / step - 1e-12)))  # inf if dt / step overflows
    # the busiest layer spans max diff(tau) of clock at k steps per dt
    layer_steps = k * float(np.max(np.diff(tau))) / times.dt
    if not layer_steps <= _MAX_STEPS_PER_LAYER:
        raise CharacteristicsError(
            f"time step {times.dt:.3e} over the CFL step {step:.3e} gives "
            f"{layer_steps:.3e} RK4 steps in a layer; the substep count is "
            f"capped at {_MAX_STEPS_PER_LAYER:.0e} per layer"
        )
    integ = FlowMapIntegrator(v, times.dt / int(k))
    X0, Y0 = (m.ravel() for m in grid.meshes())
    inside = u.support_mask(X0, Y0)
    moving, still = np.flatnonzero(inside), np.flatnonzero(~inside)
    xd, yd = X0[moving], Y0[moving]
    # interpolation at a node need not return the nodal value, so the still
    # nodes keep what interpolate gives, as the moving ones do
    still_layer = np.zeros(grid.shape)
    still_layer.ravel()[still] = grid.interpolate(base, X0[still], Y0[still])

    def layer(xd, yd) -> np.ndarray:
        out = still_layer.copy()
        out.ravel()[moving] = grid.interpolate(base, xd, yd)
        return out

    yield 0, 0.0, np.array(base, copy=True)
    for j in range(1, times.nt + 1):
        if xd.size:
            xd, yd = integ.advance(xd, yd, tau[j], tau[j - 1], h_min)
        yield j, float(times.times[j]), layer(xd, yd)


def solve_classical(
    rho0: ScalarField,
    u: VelocityField,
    times: TimePartition,
) -> ScalarField:
    """Classical solution rho(x, t_j) = rho0 at the backward characteristic.

    Bilinear evaluation of rho0 is a convex combination of nodal values, so
    every layer stays inside [min rho0, max rho0] exactly; norm decay is
    the only discretization artifact.
    """
    values = np.empty((times.nt + 1,) + rho0.grid.shape)
    for j, _, layer in iter_solution_layers(rho0, u, times):
        values[j] = layer
    return ScalarField(rho0.grid, times.times.copy(), values)
