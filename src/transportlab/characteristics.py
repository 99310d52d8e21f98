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

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from transportlab.fields import GradientWorkspace, ScalarField, VelocityField, velocity_into
from transportlab.geometry import Domain, Grid, TimePartition

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


def _stack_key(v: VelocityField) -> tuple:
    """What fields must share to be integrated as one stack."""
    return v.domain, v.modulation, tuple((c.center, c.radius) for c in v.components)


class _StepWorkspace:
    """The buffers of one RK4 pass at a fixed point shape: stage points,
    stage slope, the running RK4 sum and, for a stack, the slope kernel's
    scratch."""

    def __init__(self, shape: tuple[int, ...], stacked: bool):
        self.shape = shape
        self.xs, self.ys = np.empty(shape), np.empty(shape)
        self.ux, self.uy = np.empty(shape), np.empty(shape)
        self.sx, self.sy = np.empty(shape), np.empty(shape)
        self.kernel = GradientWorkspace(shape) if stacked else None


@dataclass(frozen=True)
class FlowMapIntegrator:
    """Fixed-step RK4 integrator for the characteristic system of one field,
    or of a stack of fields integrated together.

    Steps of size dt are taken until the remaining interval is shorter than
    dt; a single partial step finishes it. Fixed stepping keeps results
    deterministic and lets a solve advance stored departure points layer by
    layer without drift between code paths.

    velocity is one VelocityField, whose points may have any shape, or a
    tuple of fields with one domain, one modulation and the same component
    centres and radii. A stack's points carry one row per field (axis 0),
    and row n moves in field n: each component's coefficient is a column of
    the members' own scalars, so every row gets the bits of its own solve.
    The integrator keeps one workspace for the last point shape it stepped,
    so a solve that advances the same points layer after layer allocates its
    stage buffers once.
    """

    velocity: VelocityField | tuple[VelocityField, ...]
    dt: float
    _work: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise CharacteristicsError(f"step size must be positive, got {self.dt}")
        v = self.velocity
        if not isinstance(v, tuple):
            return
        if not v or any(_stack_key(f) != _stack_key(v[0]) for f in v):
            raise CharacteristicsError(
                "a stack needs one field or more, all with one domain, one "
                "modulation and the same component centres and radii"
            )

    @property
    def domain(self) -> Domain:
        v = self.velocity
        return v[0].domain if isinstance(v, tuple) else v.domain

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

    def _slope(self, ndim: int, kernel: GradientWorkspace):
        """slope(x, y, t, out_x, out_y) writing u(x, y, t) into the outs."""
        v = self.velocity
        if not isinstance(v, tuple):

            def slope(x, y, t, out_x, out_y):
                ux, uy = v.eval(x, y, t, checked=False)
                np.copyto(out_x, ux)
                np.copyto(out_y, uy)

            return slope
        # each component's coefficient is a column with one scalar per row,
        # taken at the stack's one modulation value m(t)
        coefs: dict[float, list] = {}
        col = (len(v),) + (1,) * (ndim - 1)

        def slope(x, y, t, out_x, out_y):
            m = v[0].modulation.value(t)
            if m not in coefs:
                rows = np.array([f.coefficients(m) for f in v]).reshape(len(v), -1)
                coefs[m] = [c.reshape(col) for c in rows.T]
            velocity_into(v[0].components, coefs[m], x, y, out_x, out_y, kernel)

        return slope

    def _workspace(self, shape: tuple[int, ...]) -> _StepWorkspace:
        if not self._work or self._work[0].shape != shape:
            self._work[:] = [_StepWorkspace(shape, isinstance(self.velocity, tuple))]
        return self._work[0]

    def advance(self, x, y, t_from: float, t_to: float, escape_tol: float):
        """March points from t_from to t_to, clamping tiny boundary drift.

        Returns fresh arrays; x and y are not modified. Each step is
        classical RK4 for dX/ds = -u(X, s), whose stage slopes are k = -u.
        The negation is folded into the arithmetic: in IEEE arithmetic
        x - a u is x + a (-u) and -2 u is 2 (-u), bit for bit, so the result
        is the textbook form's. The sum ((-2 u2 - u1) - 2 u3 - u4) h / 6 is
        built stage by stage in place, in that order. Stages may poke
        slightly outside the closure, where the closed forms are still
        defined.
        """
        x = np.array(x, dtype=float, copy=True)
        y = np.array(y, dtype=float, copy=True)
        ws = self._workspace(x.shape)
        xs, ys, ux, uy, sx, sy = ws.xs, ws.ys, ws.ux, ws.uy, ws.sx, ws.sy
        slope = self._slope(x.ndim, ws.kernel)

        def stage(p, a, u, out):  # out = p - a u
            np.multiply(u, a, out=out)
            np.subtract(p, out, out=out)

        t = t_from
        with np.errstate(all="ignore"):
            for h in self.steps(t_from, t_to):
                a = 0.5 * h
                slope(x, y, t, sx, sy)  # u1, kept in the sum's buffers
                stage(x, a, sx, xs)
                stage(y, a, sy, ys)
                slope(xs, ys, t + a, ux, uy)  # u2
                stage(x, a, ux, xs)
                stage(y, a, uy, ys)
                for u, s in ((ux, sx), (uy, sy)):  # s = -2 u2 - u1
                    np.multiply(u, -2.0, out=u)
                    np.subtract(u, s, out=s)
                slope(xs, ys, t + a, ux, uy)  # u3
                stage(x, h, ux, xs)
                stage(y, h, uy, ys)
                for u, s in ((ux, sx), (uy, sy)):  # s += -2 u3
                    np.multiply(u, -2.0, out=u)
                    np.add(s, u, out=s)
                slope(xs, ys, t + h, ux, uy)  # u4
                for p, u, s in ((x, ux, sx), (y, uy, sy)):  # p += (s - u4) h / 6
                    np.subtract(s, u, out=s)
                    np.multiply(s, h / 6.0, out=s)
                    np.add(p, s, out=p)
                t += h
                self._clamp(x, y, escape_tol)
        return x, y

    def _clamp(self, x, y, escape_tol: float) -> None:
        d = self.domain
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
    rho0: ScalarField | Sequence[ScalarField],
    u: VelocityField | Sequence[VelocityField],
    times: TimePartition,
) -> Iterator[tuple[int, float, np.ndarray | tuple[np.ndarray, ...]]]:
    """Yield (j, t_j, layer) of the classical solution without storing it.

    rho0 and u are one problem, or equal-length sequences of problems on one
    grid (a family); a family yields the tuple of its members' layers, in
    member order, where one problem yields the bare layer. One problem is
    the one-member family: every solve takes the same path. Each yielded
    layer is a fresh array the caller may keep.

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

    Members whose fields share k, domain, modulation and component centres
    and radii move the same nodes on the same clock, so they are integrated
    as one stack: one FlowMapIntegrator.advance per layer steps every
    distinct field's moving nodes, and members with equal fields share one
    set of feet. Groups that differ run side by side, one stack each. Every
    operation is elementwise and each row keeps its own coefficients, so
    neither the node split nor the stacking changes a bit of any layer.
    """
    if isinstance(u, VelocityField):
        for j, t, (layer,) in _family_layers([(rho0, u)], times):
            yield j, t, layer
        return
    yield from _family_layers(list(zip(rho0, u, strict=True)), times)


def _substeps(u: VelocityField, grid: Grid, times: TimePartition) -> int:
    """k equal substeps per dt, the fewest that keep max|v| step <= _CFL h_min."""
    h_min = min(grid.hx, grid.hy)
    tau = u.modulation.integral(times.times)
    vmax = u.profile.max_speed(grid)
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
    return int(k)


class _Stack:
    """The distinct fields of one group, integrated as rows of one stack."""

    def __init__(self, fields: list[VelocityField], k: int, times: TimePartition, X0, Y0):
        self.tau = fields[0].modulation.integral(times.times)
        self.integ = FlowMapIntegrator(tuple(f.profile for f in fields), times.dt / k)
        inside = fields[0].support_mask(X0, Y0)
        self.moving, self.still = np.flatnonzero(inside), np.flatnonzero(~inside)
        self.fx = np.tile(X0[self.moving], (len(fields), 1))
        self.fy = np.tile(Y0[self.moving], (len(fields), 1))

    def advance(self, j: int, escape_tol: float) -> None:
        if self.moving.size:
            self.fx, self.fy = self.integ.advance(
                self.fx, self.fy, self.tau[j], self.tau[j - 1], escape_tol
            )


def _family_layers(problems: list, times: TimePartition):
    if not problems:
        raise CharacteristicsError("a family needs one problem or more")
    grid = problems[0][0].grid
    h_min = min(grid.hx, grid.hy)
    keys = []
    for rho0, u in problems:
        if rho0.grid != grid:
            raise CharacteristicsError("family members must share one density grid")
        if grid.domain != u.domain:
            raise CharacteristicsError("density grid and velocity domain differ")
        if u.support_margin < h_min:
            raise CharacteristicsError(
                f"velocity support margin {u.support_margin:.3e} is below one "
                f"grid cell {h_min:.3e}; boundary-vanishing is not resolved"
            )
        keys.append((_substeps(u, grid, times),) + _stack_key(u))
    # group by key; within a group one row per distinct field
    groups: dict[tuple, list[VelocityField]] = {}
    rows = []
    for key, (_, u) in zip(keys, problems):
        fields = groups.setdefault(key, [])
        if u not in fields:
            fields.append(u)
        rows.append(fields.index(u))
    X0, Y0 = (m.ravel() for m in grid.meshes())
    stacks = {key: _Stack(fields, key[0], times, X0, Y0) for key, fields in groups.items()}
    members = []
    for key, row, (rho0, _) in zip(keys, rows, problems):
        stack = stacks[key]
        base = rho0.layer(0)
        # interpolation at a node need not return the nodal value, so the
        # still nodes keep what interpolate gives, as the moving ones do
        still_layer = np.zeros(grid.shape)
        still_layer.ravel()[stack.still] = grid.interpolate(
            base, X0[stack.still], Y0[stack.still]
        )
        members.append((stack, row, base, still_layer))
    del X0, Y0  # the stream keeps only what its layers read

    def layer(stack: _Stack, row: int, base, still_layer) -> np.ndarray:
        out = still_layer.copy()
        out.ravel()[stack.moving] = grid.interpolate(base, stack.fx[row], stack.fy[row])
        return out

    yield 0, 0.0, tuple(np.array(base, copy=True) for _, _, base, _ in members)
    for j in range(1, times.nt + 1):
        for stack in stacks.values():
            stack.advance(j, h_min)
        yield j, float(times.times[j]), tuple(layer(*m) for m in members)


def solve_classical(
    rho0: ScalarField,
    u: VelocityField,
    times: TimePartition,
) -> ScalarField:
    """Classical solution rho(x, t_j) = rho0 at the backward characteristic.

    Bilinear evaluation of rho0 is a convex combination of nodal values, so
    every layer stays inside [min rho0, max rho0] exactly; norm decay is
    the only discretization artifact.

    No study or command stores a solution; they all stream
    iter_solution_layers. This function remains as the stored reference
    route the tests compare the streamed studies against, and for scripts
    that read every layer at once, as the demos do.
    """
    values = np.empty((times.nt + 1,) + rho0.grid.shape)
    for j, _, layer in iter_solution_layers(rho0, u, times):
        values[j] = layer
    return ScalarField(rho0.grid, times.times.copy(), values)
