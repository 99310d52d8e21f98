"""The one layer type: consumers read a solve's MovingLayers.

A solve yields each layer as values on its moving nodes plus one still
list for the pass: each density's layer 0. Whole-grid consumers read it
through WholeLayers, which keeps one buffer; the residual bank reads the
view as it is. These tests hold both routes to the per-layer assembled route
they replaced, check that every node off the moving ones keeps its layer-0
value, and that no layer of a streamed pass allocates a grid.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import assemble, whole_views
from transportlab import cli
from transportlab.analysis import NormHistory
from transportlab.characteristics import (
    WholeLayers,
    drive,
    iter_solution_layers,
    solve_classical,
)
from transportlab.fields import ScalarField, make_test_function, quadratic_decay_profile
from transportlab.geometry import shrink
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
# measured at most 5.9e-16 of the pair's largest term (128^2 and 96^2 x 12).
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
    cfg, grid, times, u, rho0 = _case(n)
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
    _assert_banks_close(*(bank.report() for bank in banks))


def _assert_banks_close(reports, want):
    for rep, ref in zip(reports, want, strict=True):
        got = np.array([rep.term_time, rep.term_initial, rep.term_advective])
        terms = np.array([ref.term_time, ref.term_initial, ref.term_advective])
        assert np.max(np.abs(got - terms)) <= BANK_RTOL * np.max(np.abs(terms)), (rep, ref)


def test_a_pass_keeps_layer_0_off_its_moving_nodes():
    # at 96^2 interpolating rho0 at the nodes themselves is off the nodal
    # values by roundoff; a node no field moves is a fixed point of the flow
    # and keeps its layer-0 value in every layer, through one still list
    cfg, grid, times, u, rho0 = _case(96)
    rho0s = [rho0, ScalarField(grid, rho0.times, 0.5 + rho0.values), rho0]
    fed = _Layers()
    whole = WholeLayers([fed])
    for j, t, moving in iter_solution_layers(rho0s, [u, u, u.scaled(1.5)], times):
        whole.add_layer(j, t, moving)
        if j == 0:
            still = moving.still
            off = np.ones(grid.shape, dtype=bool)
            off.ravel()[moving.nodes] = False
        assert moving.still is still
        assert moving.density == (0, 1, 0)
        assert all(np.array_equal(still[d], rho0s[d].layer(0)) for d in (0, 1))
        for r, layer in zip(rho0s, assemble(moving), strict=True):
            assert np.array_equal(layer[off], r.layer(0)[off])
    assert 0 < np.count_nonzero(off) < off.size
    assert all(np.array_equal(layer[off], rho0.layer(0)[off]) for layer in fed.layers)


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

