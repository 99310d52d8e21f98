"""Shared solves reused across test modules.

The full-scale vortex transport of a Gaussian blob (256^2 nodes, 1000 time
layers, T = 1) is the reference configuration for residual and conservation
checks; it is expensive enough (~10 s, ~0.5 GB) that a single session-wide
instance is computed and shared. A half-resolution twin supports the
refinement comparisons.

exact_vortex_flow is the closed-form flow map of the default vortex under
any of the library's time modulations, an oracle for the RK4 integrator
that shares no code with it.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from transportlab.characteristics import solve_classical
from transportlab.fields import gaussian_blob, static_field, vortex_field
from transportlab.geometry import Grid, TimePartition, unit_square


def make_transport_case(n: int, nt: int, T: float = 1.0) -> SimpleNamespace:
    grid = Grid(unit_square(), n, n)
    times = TimePartition(T, nt)
    u = vortex_field(unit_square())
    rho0 = static_field(grid, gaussian_blob((0.6, 0.5), 0.08))
    t0 = time.perf_counter()
    rho = solve_classical(rho0, u, times)
    solve_seconds = time.perf_counter() - t0
    return SimpleNamespace(
        grid=grid, times=times, u=u, rho0=rho0, rho=rho, solve_seconds=solve_seconds
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
    """Reference-resolution transport: 256^2 nodes, 1000 layers."""
    return make_transport_case(256, 1000)


@pytest.fixture(scope="session")
def half_case() -> SimpleNamespace:
    """Half resolution in space and time, for refinement ratios."""
    return make_transport_case(128, 500)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
