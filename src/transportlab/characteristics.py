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
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from transportlab.fields import GradientWorkspace, ScalarField, VelocityField, velocity_into
from transportlab.geometry import Domain, Grid, InterpolationWorkspace, TimePartition

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
    stage slope and the running RK4 sum, each with x and y as its two
    planes, and, for a stack, the slope kernel's scratch and the rows of
    component coefficients."""

    def __init__(self, shape: tuple[int, ...], stacked: bool):
        self.shape = shape
        self.points, self.slope, self.sum = (np.empty((2,) + shape) for _ in range(3))
        self.kernel = GradientWorkspace(shape) if stacked else None
        self.coefs: tuple[float, list] | None = None  # (m, one array per component)


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
    and row n moves in field n: each component's coefficient is an array of
    the points' shape holding the members' own scalars row by row, so every
    row gets the bits of its own solve. The integrator keeps one workspace
    for the last point shape it stepped, so a solve that advances the same
    points layer after layer allocates its stage buffers and coefficient
    rows once.
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

    def _slope(self, ws: _StepWorkspace):
        """slope(p, t, out) writing u(p, t) into out; p and out hold x and y
        as their two planes."""
        v = self.velocity
        if not isinstance(v, tuple):

            def slope(p, t, out):
                out[0], out[1] = v.eval(p[0], p[1], t, checked=False)

            return slope
        # each component's coefficient at the stack's one modulation value
        # m(t), spread over the points row by row; rebuilt only when m moves
        col = (len(v),) + (1,) * (len(ws.shape) - 1)

        def slope(p, t, out):
            m = v[0].modulation.value(t)
            if ws.coefs is None or ws.coefs[0] != m:
                rows = np.array([f.coefficients(m) for f in v]).reshape(len(v), -1)
                full = [np.broadcast_to(c.reshape(col), ws.shape).copy() for c in rows.T]
                ws.coefs = (m, full)
            velocity_into(v[0].components, ws.coefs[1], p[0], p[1], out[0], out[1], ws.kernel)

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
        built stage by stage in place, in that order. x and y are stepped
        together, as the two planes of one array. Stages may poke slightly
        outside the closure, where the closed forms are still defined.
        """
        x = np.asarray(x, dtype=float)
        p = np.empty((2,) + x.shape)
        p[0], p[1] = x, y
        ws = self._workspace(x.shape)
        q, u, s = ws.points, ws.slope, ws.sum
        slope = self._slope(ws)

        def stage(a, k):  # q = p - a k
            np.multiply(k, a, out=q)
            np.subtract(p, q, out=q)

        t = t_from
        with np.errstate(all="ignore"):
            for h in self.steps(t_from, t_to):
                a = 0.5 * h
                slope(p, t, s)  # u1, kept in the sum's buffer
                stage(a, s)
                slope(q, t + a, u)  # u2
                stage(a, u)
                np.multiply(u, -2.0, out=u)  # s = -2 u2 - u1
                np.subtract(u, s, out=s)
                slope(q, t + a, u)  # u3
                stage(h, u)
                np.multiply(u, -2.0, out=u)  # s += -2 u3
                np.add(s, u, out=s)
                slope(q, t + h, u)  # u4
                np.subtract(s, u, out=s)  # p += (s - u4) h / 6
                np.multiply(s, h / 6.0, out=s)
                np.add(p, s, out=p)
                t += h
                self._clamp(p[0, ...], p[1, ...], escape_tol)
        return p[0, ...], p[1, ...]

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
) -> Iterator[tuple[int, float, np.ndarray | MovingLayers]]:
    """Yield (j, t_j, layer) of the classical solution without storing it.

    rho0 and u are one problem, or equal-length sequences of problems on one
    grid (a family). Both are solved by one FamilyStream, which integrates
    and interpolates only the nodes that move (see there): one problem is
    the one-member family, so every solve takes the same path.

    Layer j is rho0 evaluated at the backward characteristic foot of every
    node, i.e. at flow_map(u, t_j, 0, node). One problem yields the bare
    layer, a fresh array the caller may keep: its still layer with its
    values on the moving nodes written in, so it has the bits of a
    whole-grid solve. A family yields the stream's MovingLayers as they are,
    for consumers that read only what moves; MovingLayers.assemble gives
    every member's whole layer.
    """
    if not isinstance(u, VelocityField):
        yield from FamilyStream(rho0, u, times)
        return
    for j, t, layer in FamilyStream([rho0], [u], times):
        yield j, t, layer.assemble()[0]


class MovingLayers(NamedTuple):
    """A family's layer j on its moving nodes.

    values[m] is member m's layer at nodes (flat indices, increasing), one
    row per member; off the nodes it is still[density[m]]. values is the
    stream's own array, rewritten by the next layer.
    """

    values: np.ndarray
    nodes: np.ndarray
    density: tuple[int, ...]
    still: list[np.ndarray]

    def assemble(self) -> tuple[np.ndarray, ...]:
        """Every member's whole layer, each a fresh array."""
        layers = []
        for d, v in zip(self.density, self.values):
            layer = self.still[d].copy()
            layer.ravel()[self.nodes] = v
            layers.append(layer)
        return tuple(layers)


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
    """The distinct fields of one group, integrated as rows of one stack.

    Its feet are read through interpolation jobs, one per initial density
    its members use: the rows of those members, interpolated in one call
    whose temporaries are the stack's own RK4 buffers, free between layers.
    """

    def __init__(self, fields: list[VelocityField], k: int, times: TimePartition, grid: Grid):
        self.tau = fields[0].modulation.integral(times.times)
        self.integ = FlowMapIntegrator(tuple(f.profile for f in fields), times.dt / k)
        X0, Y0 = (m.ravel() for m in grid.meshes())
        self.moving = np.flatnonzero(fields[0].support_mask(X0, Y0))
        self.grid, self.rows = grid, len(fields)

    def start(self) -> None:
        """Put every row's feet back on the moving nodes."""
        i, j = np.divmod(self.moving, self.grid.ny + 1)
        self.fx = np.tile(self.grid.xs[i], (self.rows, 1))
        self.fy = np.tile(self.grid.ys[j], (self.rows, 1))

    def advance(self, j: int, escape_tol: float) -> None:
        if self.moving.size:
            self.fx, self.fy = self.integ.advance(
                self.fx, self.fy, self.tau[j], self.tau[j - 1], escape_tol
            )

    def job(self, rows: list[int]):
        """(index, work): the stack's rows as an index (a slice when they are
        consecutive) and an InterpolationWorkspace for them whose buffers
        are the planes of the RK4 workspace, the flat index the slope
        kernel's q seen as integers."""
        n = len(rows)
        index = slice(rows[0], rows[0] + n) if rows == list(range(rows[0], rows[0] + n)) else rows
        ws = self.integ._workspace((self.rows, self.moving.size))
        planes = [a[i, :n] for a in (ws.points, ws.slope, ws.sum) for i in (0, 1)]
        k = ws.kernel.q[:n].view(np.int64)
        return index, InterpolationWorkspace((n, self.moving.size), planes, k)


class FamilyStream:
    """A family's layers on its moving nodes: the producer behind
    iter_solution_layers.

    rho0 and u are equal-length sequences of problems on one grid. nodes
    holds the flat indices, increasing, of every node some member's field
    moves: the union of the stacks' support nodes. Iterating yields
    (j, t_j, MovingLayers) over one values array, rewritten layer by layer;
    each pass over the stream solves afresh from layer 0.

    density maps each member to its initial density among the family's
    distinct ones (rho0 objects compared by identity, member 0's first).
    The still layers, one per distinct density, are its layer 0 at j = 0,
    and at every later j its interpolation at the nodes themselves, which
    need not return the nodal value; they change only at j = 0 and j = 1.

    Only nodes strictly inside some support ball are integrated. Elsewhere
    v vanishes, so every RK4 stage slope is exactly zero and the node is a
    fixed point of the integrator and of its clamp: its foot is the node
    itself in every layer. For u = m(t) v(x) the foot of a moving node is
    the flow of the time-independent v run backward over the clock
    interval [0, tau_j], tau_j = M(t_j), so the stored departure points
    advance incrementally from tau_j to tau_{j-1} in fixed RK4 steps of v.
    The step is times.dt / k with k the fewest substeps per layer interval
    that keep max|v| step within the CFL cap, so it is CFL-safe in tau
    whatever the modulation; for an unmodulated field tau is times.times
    itself and each layer takes exactly the steps a per-layer integration
    would.

    Members whose fields share k, domain, modulation and component centres
    and radii move the same nodes on the same clock, so they are integrated
    as one stack: one FlowMapIntegrator.advance per layer steps every
    distinct field's moving nodes, and members with equal fields share one
    set of feet. Groups that differ run side by side, one stack each. Each
    stack interpolates once per layer for each initial density its members
    use, over all their rows. Every operation is elementwise and each row
    keeps its own coefficients, so neither the node split, the stacking nor
    the shared interpolation changes a bit of any layer.
    """

    def __init__(
        self, rho0: Sequence[ScalarField], u: Sequence[VelocityField], times: TimePartition
    ):
        problems = list(zip(rho0, u, strict=True))
        if not problems:
            raise CharacteristicsError("a family needs one problem or more")
        grid = problems[0][0].grid
        h_min = min(grid.hx, grid.hy)
        keys = []
        for r, v in problems:
            if r.grid != grid:
                raise CharacteristicsError("family members must share one density grid")
            if grid.domain != v.domain:
                raise CharacteristicsError("density grid and velocity domain differ")
            if v.support_margin < h_min:
                raise CharacteristicsError(
                    f"velocity support margin {v.support_margin:.3e} is below one "
                    f"grid cell {h_min:.3e}; boundary-vanishing is not resolved"
                )
            keys.append((_substeps(v, grid, times),) + _stack_key(v))
        # group by key; within a group one row per distinct field
        groups: dict[tuple, list[VelocityField]] = {}
        row_of = []
        for key, (_, v) in zip(keys, problems):
            fields = groups.setdefault(key, [])
            if v not in fields:
                fields.append(v)
            row_of.append(fields.index(v))
        distinct = {id(r): r for r, _ in problems}  # in order of first appearance
        self.density = tuple(list(distinct).index(id(r)) for r, _ in problems)
        stacks = {key: _Stack(fields, key[0], times, grid) for key, fields in groups.items()}
        # the union as a mask: np.unique would import numpy.ma, about 0.6 MB
        moves = np.zeros(grid.shape[0] * grid.shape[1], dtype=bool)
        for stack in stacks.values():
            moves[stack.moving] = True
        self.nodes = np.flatnonzero(moves)
        self._initial = [r.layer(0) for r in distinct.values()]
        X0, Y0 = grid.meshes()
        self._still = [grid.interpolate(base, X0, Y0) for base in self._initial]
        del X0, Y0  # the stream keeps only what its layers read
        # one interpolation job per stack and initial density: the rows it
        # reads and, per member it serves, that member's row of the result
        # and where among the nodes its values go
        served: dict[tuple, list[int]] = {}
        for m, key in enumerate(keys):
            served.setdefault((key, self.density[m]), []).append(m)
        self._jobs = []
        for (key, d), members in served.items():
            stack = stacks[key]
            if not stack.moving.size:
                continue
            at = (
                slice(None) if stack.moving.size == self.nodes.size
                else np.searchsorted(self.nodes, stack.moving)
            )
            rows = sorted({row_of[m] for m in members})
            targets = [(m, rows.index(row_of[m])) for m in members]
            self._jobs.append((stack, self._initial[d], rows, at, targets))
        self._stacks = list(stacks.values())
        self._values = np.empty((len(problems), self.nodes.size))
        self._grid, self._times, self._h_min = grid, times, h_min

    def _fill(self, layers: list[np.ndarray]) -> None:
        for v, d in zip(self._values, self.density):
            layers[d].ravel().take(self.nodes, out=v)

    def __iter__(self) -> Iterator[tuple[int, float, MovingLayers]]:
        grid, times, values = self._grid, self._times, self._values
        for stack in self._stacks:
            stack.start()
        self._fill(self._initial)
        yield 0, 0.0, MovingLayers(values, self.nodes, self.density, self._initial)
        for j in range(1, times.nt + 1):
            for stack in self._stacks:
                stack.advance(j, self._h_min)
            if j == 1:
                self._fill(self._still)
                # the first advance has made the RK4 workspaces the jobs borrow
                jobs = [(s, base, *s.job(rows), at, t) for s, base, rows, at, t in self._jobs]
            for stack, base, index, work, at, targets in jobs:
                out = grid.interpolate(base, stack.fx[index], stack.fy[index], work)
                for m, row in targets:
                    values[m, at] = out[row]
            yield j, float(times.times[j]), MovingLayers(
                values, self.nodes, self.density, self._still
            )


def drive(stream: Iterable[tuple[int, float, object]], consumers: Sequence) -> None:
    """The one loop over a solve's layers: every (j, t_j, layer) of the
    stream goes to each consumer's add_layer(j, t, layer), in list order."""
    for j, t, layer in stream:
        for consumer in consumers:
            consumer.add_layer(j, t, layer)


class _Stored:
    """Writes layer j into values[j]."""

    def __init__(self, values: np.ndarray):
        self.values = values

    def add_layer(self, j: int, t: float, layer: np.ndarray) -> None:
        self.values[j] = layer


def solve_classical(
    rho0: ScalarField,
    u: VelocityField,
    times: TimePartition,
) -> ScalarField:
    """Classical solution rho(x, t_j) = rho0 at the backward characteristic.

    Bilinear evaluation of rho0 is a convex combination of nodal values, so
    every layer stays inside [min rho0, max rho0] exactly; norm decay is
    the only discretization artifact.

    No study or command stores a solution. This is the stored reference
    route the tests compare the driven studies against. It stays in the
    package while the benchmark harness (perfbench/tracer.py) wraps it by
    name; once the harness no longer names it, it can move into the tests.
    """
    values = np.empty((times.nt + 1,) + rho0.grid.shape)
    drive(iter_solution_layers(rho0, u, times), [_Stored(values)])
    return ScalarField(rho0.grid, times.times.copy(), values)
