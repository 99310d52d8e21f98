"""Shared solves reused across test modules.

The vortex transport of a Gaussian blob at the reference resolution (256^2
nodes, 1000 time layers, T = 1) backs the conservation, max-principle,
residual and accuracy checks; a half-resolution twin (128^2 x 500) backs
the refinement ratios and the weak-form tests. Each is one session-wide
streamed solve: drive hands every layer of one iter_solution_layers pass to
each reader as it goes by, as the studies do, and the case keeps the
readers' results and the last layer, never the solution.

stored_layers, stored_residual and consistency_identity are the stored
routes the streamed consumers are compared with: a stored solution fed as
the stream a solve would yield, a one-pair residual over it, and the
consistency identity written out layer by layer.

exact_vortex_flow is the closed-form flow map of the default vortex under
any of the library's time modulations, an oracle for the RK4 integrator
that shares no code with it.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from transportlab.analysis import NormHistory
from transportlab.characteristics import drive, iter_solution_layers
from transportlab.cli import _steady_heap
from transportlab.fields import (
    ScalarField,
    TestFunction,
    gaussian_blob,
    make_kernel,
    make_test_function,
    quadratic_decay_profile,
    static_field,
    vortex_field,
)
from transportlab.geometry import Grid, TimePartition, integrate, trapezoid_weights, unit_square
from transportlab.studies import _beta_bank, _phi_bank
from transportlab.weakform import (
    LayerTransforms,
    ResidualAccumulator,
    ResidualReport,
    commutator_remainder,
    mollify_density,
)

DOM = unit_square()


def pytest_configure(config):
    # the heap the command line pins: a streamed solve reuses its per-layer
    # temporaries instead of unmapping them and faulting them back in
    _steady_heap()


def off_center_phi(T: float = 1.0) -> TestFunction:
    """The weak-form tests' test function, off the blob's symmetry line."""
    return make_test_function((0.62, 0.44), 0.22, quadratic_decay_profile(T), DOM)


def bank_betas(*labels: str) -> list:
    """None (the density itself) and the studies' betas with these labels."""
    bank = {beta.label: beta for beta in _beta_bank()}
    return [None] + [bank[label] for label in labels]


def stored_layers(rho: ScalarField):
    """(j, t_j, layer) for every layer of a stored field: the stream a solve
    of it would yield."""
    return zip(range(rho.n_layers), rho.times, rho.values)


def stored_residual(rho: ScalarField, rho0: ScalarField, u, phi, beta=None) -> ResidualReport:
    """The weak-form pairing of a stored field with phi: a one-pair
    accumulator driven over its layers, paired with rho0's layer 0 (with
    beta, beta(rho) with beta(rho0))."""
    acc = ResidualAccumulator(rho.grid, rho.times, u, [phi], [beta])
    drive(stored_layers(rho), [acc])
    return acc.report(rho0.layer(0))[0]


def consistency_identity(rho: ScalarField, u, eps: float, phi) -> tuple[float, float]:
    """(lhs, rhs) of the consistency identity for a stored field, written out
    layer by layer: lhs the weak residual of the mollified solution, rhs the
    trapezoid pairing of the commutator remainder with phi. IdentityPairing
    takes the same two sums while a RemainderSweep is driven."""
    grid, kernel = rho.grid, make_kernel(eps=eps)
    tw, phi_sp = trapezoid_weights(rho.times), phi.spatial(*grid.meshes())
    mollified, rhs = [], 0.0
    for j, (t, layer) in enumerate(zip(rho.times, rho.values)):
        transforms = LayerTransforms(grid, layer, u, t, eps)
        mollified.append(mollify_density(transforms, kernel))
        psi = float(phi.time_profile.value(t))
        rhs += tw[j] * psi * integrate(commutator_remainder(transforms, kernel) * phi_sp, grid)
    moll = ScalarField(grid, rho.times, np.stack(mollified))
    rep = stored_residual(moll, moll, u, phi)
    return rep.term_time + rep.term_initial + rep.term_advective, rhs


class _Readings:
    """The test-local readers of a layer stream: the extrema over all
    layers, the hand-written L2 norm of each layer, the last layer and, with
    a control bank, 1.5 times every layer fed to it."""

    def __init__(self, w: np.ndarray, scaled: ResidualAccumulator | None):
        self.w, self.scaled = w, scaled
        self.lo, self.hi, self.l2_norms, self.last = np.inf, -np.inf, [], None

    def add_layer(self, j: int, t: float, layer: np.ndarray) -> None:
        if self.scaled is not None:
            self.scaled.add_layer(j, t, 1.5 * layer)
        self.lo = min(self.lo, float(layer.min()))
        self.hi = max(self.hi, float(layer.max()))
        self.l2_norms.append(np.sqrt(np.sum(layer**2 * self.w)))
        self.last = layer


def stream_transport_case(n: int, nt: int, phis, betas, control=None) -> SimpleNamespace:
    """One streamed solve of the blob in the vortex, every reader fed per layer.

    The readers: the norm histories for p = 1, 2, 3, inf; one residual bank
    pairing every beta with every phi, keyed by (phi label, beta label or
    None); and the _Readings, with, given a control test function, the
    negative control that pairs 1.5 times every layer with the unscaled
    layer 0. solve_seconds times the whole pass.
    """
    grid = Grid(DOM, n, n)
    times = TimePartition(1.0, nt)
    u = vortex_field(DOM)
    rho0 = static_field(grid, gaussian_blob((0.6, 0.5), 0.08))
    history = NormHistory(grid, (1.0, 2.0, 3.0, np.inf))
    bank = ResidualAccumulator(grid, times.times, u, phis, betas)
    scaled = None if control is None else ResidualAccumulator(grid, times.times, u, [control])
    readings = _Readings(grid.quadrature_weights, scaled)
    t0 = time.perf_counter()
    drive(iter_solution_layers(rho0, u, times), [history, bank, readings])
    solve_seconds = time.perf_counter() - t0
    layer0 = rho0.layer(0)
    return SimpleNamespace(
        grid=grid,
        rho0=rho0,
        norms=history.reports(),
        lo=readings.lo,
        hi=readings.hi,
        l2_norms=np.array(readings.l2_norms),
        last=readings.last,
        betas=tuple(None if beta is None else beta.label for beta in betas),
        residuals={(r.phi, r.beta): r for r in bank.report(layer0)},
        scaled_residual=None if scaled is None else scaled.report(layer0)[0],
        solve_seconds=solve_seconds,
    )


def _clock(modulation, t):
    """M(t) = int_0^t m for the library's modulations, written out here."""
    t = np.asarray(t, dtype=float)
    if modulation == "none":
        return t
    if modulation == "linear":
        return t * t / 2.0
    if modulation == "inverse_sqrt":
        # m = max(t, 1e-6)^(-1/2): slope 1e3 up to the clip, 2 sqrt(t) after
        # it, minus the 2e-3 - 1e-3 that the clip takes off
        return np.where(t < 1e-6, 1e3 * t, 2.0 * np.sqrt(np.maximum(t, 1e-6)) - 1e-3)
    raise ValueError(f"no clock for modulation {modulation!r}")


def exact_vortex_flow(
    x, y, t_from, t_to, center=(0.5, 0.5), radius=0.3, amplitude=0.5, modulation="none"
):
    """Closed-form flow_map(vortex_field(unit_square(), modulation=...), t_from, t_to, (x, y)).

    The stream function A m(t) exp(-1/(1 - r^2/R^2)) is radial, so
    dX/ds = -u(X, s) turns X - c about the center at the angular speed
    m(s) g(r) of its orbit, g(r) = 2A bump_dq(r^2/R^2) / R^2 with
    bump_dq(q) = -exp(-1/(1 - q)) / (1 - q)^2 (and g = 0 outside the
    support): the flow map rotates x - c by the angle
    g (M(t_to) - M(t_from)), M(t) = int_0^t m.
    """
    dx = np.asarray(x, dtype=float) - center[0]
    dy = np.asarray(y, dtype=float) - center[1]
    q = (dx * dx + dy * dy) / radius**2
    inside = q < 1.0
    s = np.where(inside, 1.0 - q, 1.0)
    bump_dq = np.where(inside, -np.exp(-1.0 / s) / s**2, 0.0)
    elapsed = _clock(modulation, t_to) - _clock(modulation, t_from)
    angle = 2.0 * amplitude * bump_dq / radius**2 * elapsed
    c, sn = np.cos(angle), np.sin(angle)
    return center[0] + c * dx - sn * dy, center[1] + sn * dx + c * dy


@pytest.fixture(scope="session")
def vortex_rotation():
    return exact_vortex_flow


@pytest.fixture(scope="session")
def base_case() -> SimpleNamespace:
    """Reference resolution, 256^2 nodes and 1000 layers: criteria 1-4 and
    the accuracy test read it."""
    return stream_transport_case(
        256,
        1000,
        _phi_bank(DOM, 1.0),
        bank_betas("clip[1]~k10", "pow[2|4]~k10", "const[0.7]"),
    )


@pytest.fixture(scope="session")
def half_case() -> SimpleNamespace:
    """Half resolution in space and time: criterion 3's coarse bank, the
    max-principle and L2 sanity tests, and the off-center weak-form tests."""
    return stream_transport_case(
        128,
        500,
        _phi_bank(DOM, 1.0) + [off_center_phi()],
        bank_betas("clip[10]", "clip[1]~k10", "const[0.7]"),
        control=off_center_phi(),
    )


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
