"""The one layer type: consumers read a solve's MovingLayers.

A solve yields each layer as values on its moving nodes plus still layers
that change only at j = 0 and j = 1. Whole-grid consumers read it through
WholeLayers, which keeps one buffer; the residual bank reads the view as it
is. These tests hold both routes to the per-layer assembled route they
replaced, check that a changing still layer reaches the bank, and that no
layer of a streamed pass allocates a grid.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import assemble, whole_views
from transportlab import cli
from transportlab.analysis import NormHistory
from transportlab.characteristics import (
    MovingLayers,
    WholeLayers,
    drive,
    iter_solution_layers,
    solve_classical,
)
from transportlab.fields import make_test_function, quadratic_decay_profile, vortex_field
from transportlab.geometry import Grid, TimePartition, shrink, unit_square
from transportlab.studies import (
    PROBE_CENTER,
    PROBE_RADIUS,
    _beta_bank,
    _phi_bank,
    _probe_nodes,
    _StencilProbe,
    build_case,
    load_snapshot,
    parse_study_config,
)
from transportlab.weakform import IdentityPairing, RemainderSweep, ResidualAccumulator

# A bank that reads the stream's views sums each pair's terms in another
# order than one fed whole layers in which every node moves: the gap
# measured at most 5.9e-16 of the pair's largest term (128^2 and 96^2 x 12,
# and the synthetic stream below), against 0.15 for a stale still part.
BANK_RTOL = 1e-14


class _Assembled:
    """The per-layer assembled route: each consumer gets a fresh whole
    layer of member 0."""

    def __init__(self, consumers):
        self.consumers = consumers

    def add_layer(self, j, t, layer):
        whole = assemble(layer)[0]
        for consumer in self.consumers:
            consumer.add_layer(j, t, whole)


class _Layers:
    """Keeps a copy of every whole layer it is fed."""

    def __init__(self):
        self.layers = []

    def add_layer(self, j, t, layer):
        self.layers.append(layer.copy())


def _case(n, nt=12):
    cfg = parse_study_config(None, [f"grid.nx={n}", f"grid.ny={n}", f"time.nt={nt}"])
    return (cfg, *build_case(cfg))


def _mollify_consumers(cfg, grid, times, u):
    inner = shrink(grid.domain, cfg.inner_margin)
    sweep = RemainderSweep(grid, times.times, u, cfg.eps_list, cfg.alpha, cfg.p_moll, inner)
    phi = make_test_function(
        PROBE_CENTER, PROBE_RADIUS, quadratic_decay_profile(cfg.horizon), grid.domain
    )
    probe = _StencilProbe(sweep, (times.nt + 1) // 2, *_probe_nodes(grid, inner, cfg.seed))
    return sweep, IdentityPairing(sweep, phi), probe


@pytest.mark.parametrize("n", [128, 96])
def test_whole_grid_consumers_get_the_bits_of_assembled_layers(n, tmp_path):
    # on 96^2 the linspace nodes are not exact multiples of the cell, so the
    # still layer the stream brings at j = 1 is not layer 0 and WholeLayers
    # must rewrite its still entries then
    cfg, grid, times, u, rho0 = _case(n)
    stills = [moving.still[0] for j, _, moving in iter_solution_layers(rho0, u, times) if j < 2]
    assert np.array_equal(stills[1], stills[0]) == (n == 128)

    routes = {}
    for route in (WholeLayers, _Assembled):
        history, layers = NormHistory(grid, cfg.p_list), _Layers()
        mollify = _mollify_consumers(cfg, grid, times, u)
        drive(iter_solution_layers(rho0, u, times), [route([history, layers, *mollify])])
        sweep, pairing, probe = mollify
        routes[route] = (
            history.reports(), layers.layers, sweep.curve().norms, pairing.result(), probe.gap
        )
    (norms, layers, decay, identity, gap), want = routes[WholeLayers], routes[_Assembled]
    assert norms.keys() == want[0].keys()
    for p, rep in norms.items():
        assert np.array_equal(rep.values, want[0][p].values)
    assert all(np.array_equal(a, b) for a, b in zip(layers, want[1], strict=True))
    assert (decay, identity, gap) == want[2:]

    # the stored solve and the command line's final layer read WholeLayers
    assert np.array_equal(solve_classical(rho0, u, times).values, np.stack(want[1]))
    keys = (f"grid.nx={n}", f"grid.ny={n}", "time.nt=12")
    sets = [arg for key in keys for arg in ("--set", key)]
    assert cli.main(["solve", "--quiet", "--out", str(tmp_path), *sets]) == 0
    final = load_snapshot(tmp_path / "solution_final")
    assert np.array_equal(final.values[0], want[1][-1])

    # the bank reads the views; fed the assembled layers as views in which
    # every node moves, it sums the same terms in another order
    phis, betas = _phi_bank(grid.domain, cfg.horizon), [None, *_beta_bank()]
    banks = [ResidualAccumulator(grid, times.times, u, phis, betas) for _ in range(2)]
    drive(iter_solution_layers(rho0, u, times), [banks[0]])
    drive(whole_views(zip(range(times.nt + 1), times.times, want[1])), [banks[1]])
    _assert_banks_close(*(bank.report(rho0.layer(0)) for bank in banks))


def _assert_banks_close(reports, want):
    for rep, ref in zip(reports, want, strict=True):
        got = np.array([rep.term_time, rep.term_initial, rep.term_advective])
        terms = np.array([ref.term_time, ref.term_initial, ref.term_advective])
        assert np.max(np.abs(got - terms)) <= BANK_RTOL * np.max(np.abs(terms)), (rep, ref)


def _stream_with_a_new_still_layer(n=32, nt=6):
    """A synthetic stream on an n^2 grid: random values on a disc of moving
    nodes, and a still layer that changes by O(1) at j = 1, where a solve's
    changes by interpolation roundoff at most."""
    grid = Grid(unit_square(), n, n)
    times = TimePartition(1.0, nt)
    X, Y = grid.meshes()
    nodes = np.flatnonzero(np.hypot(X - 0.5, Y - 0.5) < 0.3)
    rng = np.random.default_rng(7)
    first = [np.exp(-((X - 0.4) ** 2 + (Y - 0.6) ** 2) / 0.05)]
    later = [first[0] + 1.0 + np.sin(3.0 * X)]
    values = np.empty((1, nodes.size))
    stream = []
    for j, t in enumerate(times.times):
        values[0] = rng.uniform(0.0, 2.0, nodes.size)
        still = first if j == 0 else later
        stream.append((j, float(t), MovingLayers(values.copy(), nodes, (0,), still)))
    return grid, times, stream


class _StaleStill(ResidualAccumulator):
    """An accumulator that keeps the still part of its first layer: the
    fault the still-refresh guard must catch."""

    def add_layer(self, j, t, layer):
        super().add_layer(j, t, layer if j == 0 else layer._replace(still=self._still))


def _bank_matches_whole_layers(accumulator, grid, times, stream) -> bool:
    u = vortex_field(grid.domain)
    phis = _phi_bank(grid.domain, 1.0)
    betas = [None, *_beta_bank()]
    bank = accumulator(grid, times.times, u, phis, betas)
    drive(stream, [bank])
    whole = ResidualAccumulator(grid, times.times, u, phis, betas)
    layers = [(j, t, assemble(moving)[0]) for j, t, moving in stream]
    drive(whole_views(layers), [whole])
    rho0 = layers[0][2]
    try:
        _assert_banks_close(bank.report(rho0), whole.report(rho0))
    except AssertionError:
        return False
    return True


def test_bank_rereads_a_still_layer_that_changes():
    # at the reference grids a stale still part moves the checks only by
    # roundoff, so the guard feeds a stream whose still layer moves by O(1)
    grid, times, stream = _stream_with_a_new_still_layer()
    assert np.max(np.abs(stream[1][2].still[0] - stream[0][2].still[0])) > 0.5
    assert _bank_matches_whole_layers(ResidualAccumulator, grid, times, stream)
    assert not _bank_matches_whole_layers(_StaleStill, grid, times, stream)


def test_whole_layers_rewrite_their_still_entries_when_the_still_layer_changes():
    grid, times, stream = _stream_with_a_new_still_layer()
    fed = _Layers()
    drive(stream, [WholeLayers([fed])])
    for (_, _, moving), layer in zip(stream, fed.layers, strict=True):
        assert np.array_equal(layer, assemble(moving)[0])


def _conservation_peak(nt: int) -> int:
    """The tracemalloc peak of a streamed 128^2 conservation pass."""
    cfg, grid, times, u, rho0 = _case(128, nt)
    history = NormHistory(grid, cfg.p_list)
    tracemalloc.start()
    try:
        drive(iter_solution_layers(rho0, u, times), [WholeLayers([history])])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _PeakAfter:
    """Records the traced memory at layer 2 and restarts the peak there."""

    def add_layer(self, j, t, layer):
        if j == 2:
            self.base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()


def test_streamed_pass_allocates_no_grid_per_layer():
    _conservation_peak(50)  # fills the caches a first pass fills
    grid_bytes = 129 * 129 * 8
    # the norm history keeps a few floats per layer, far below a grid
    assert _conservation_peak(200) < _conservation_peak(50) + grid_bytes // 2
    # past layer 2 the stream and WholeLayers write into what they own
    cfg, grid, times, u, rho0 = _case(128, 50)
    mark = _PeakAfter()
    tracemalloc.start()
    try:
        drive(iter_solution_layers(rho0, u, times), [mark, WholeLayers([])])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - mark.base < grid_bytes // 4

