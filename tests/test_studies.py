"""End-to-end study runs: configs, checks, artifacts, determinism."""

import ast
import csv
import json
import random
import sys
from pathlib import Path

import pytest

import numpy as np

from conftest import RESOLVED_EPS, consistency_identity, moving_nodes_and_radii, stored_layers
from transportlab import characteristics, cli, studies, weakform
from transportlab.analysis import NormHistory
from transportlab.fields import (
    ScalarField,
    make_test_function,
    quadratic_decay_profile,
)
from transportlab.geometry import Domain, Grid, shrink
from transportlab.studies import (
    PROBE_CENTER,
    PROBE_RADIUS,
    RUNNERS,
    STUDY_NAMES,
    StudiesError,
    StudyOutcome,
    CheckResult,
    build_case,
    config_text,
    load_snapshot,
    parse_study_config,
    resolve_out_dir,
    run_conservation_study,
    run_mollification_study,
    run_renormalization_study,
    run_stability_study,
    save_snapshot,
    _StencilProbe,
    _probe_box,
    _probe_nodes,
    _ratio,
)
from transportlab.weakform import IdentityPairing, RemainderSweep


CONFIGS = Path(__file__).parents[1] / "configs"
BENCH_REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.json"


def cfg_for(study, out, *overrides):
    base = [f"study.name={study}", f"output.dir={out}"]
    return parse_study_config(None, overrides=base + list(overrides))


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------


def test_config_round_trips_through_its_text_form(tmp_path):
    cfg = parse_study_config()
    path = tmp_path / "default.cfg"
    path.write_text(config_text(cfg))
    assert parse_study_config(path) == cfg


@pytest.mark.parametrize(
    "override",
    [
        "time.horizon=0.1234567",
        "velocity.center=0.51234567, 0.5",
        "sweeps.eps_list=0.1, 0.05123456789, 0.025",
    ],
    ids=["scalar", "pair", "list"],
)
def test_config_text_keeps_every_digit(override, tmp_path):
    # :g keeps six significant digits; a longer value must echo in full
    cfg = parse_study_config(None, overrides=[override])
    path = tmp_path / "echo.cfg"
    path.write_text(config_text(cfg))
    assert parse_study_config(path) == cfg


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_config_parses_and_round_trips(path, tmp_path):
    cfg = parse_study_config(path)
    assert cfg.study == path.stem
    text = tmp_path / "echo.cfg"
    text.write_text(config_text(cfg))
    assert parse_study_config(text) == cfg


def test_every_study_ships_a_config():
    shipped = {p.stem for p in CONFIGS.glob("*.cfg")}
    assert shipped == set(STUDY_NAMES)


@pytest.mark.parametrize("study", ["mollify", "renorm", "stability"])
def test_benchmark_workloads_keep_their_check_names(study, tmp_path):
    # the benchmark fails every run whose check names differ from its
    # reference, so a renamed check must fail here first
    reference = json.loads(BENCH_REFERENCE.read_text())["workloads"][study]["checks"]
    cfg = parse_study_config(
        CONFIGS / f"{study}.cfg",
        ["grid.nx=32", "grid.ny=32", "time.nt=6", RESOLVED_EPS, f"output.dir={tmp_path}"],
    )
    out = RUNNERS[cfg.study](cfg)
    assert sorted(c.name for c in out.checks) == sorted(reference)


def test_config_overrides_apply():
    cfg = parse_study_config(None, ["grid.nx=64", "sweeps.p_list=2, inf", "study.seed=7"])
    assert cfg.nx == 64 and cfg.ny == 128
    assert cfg.p_list == (2.0, float("inf"))
    assert cfg.seed == 7


@pytest.mark.parametrize(
    "override, field",
    [
        ("grid.nx=0", "grid.nx"),
        ("grid.bogus=3", "grid.bogus"),
        ("nosection=1", "nosection"),
        ("tolerances.drift=-1", "tolerances.drift"),
        ("velocity.kind=tornado", "velocity.kind"),
        ("sweeps.eps_list=", "eps_list"),
        ("sweeps.eps_list=0.1", "sweeps.eps_list"),
        ("sweeps.eps_list=0.05, 0.1", "sweeps.eps_list"),
        ("mollify.alpha=0.5", "mollify.alpha"),
        ("sweeps.p_list=0.5, 2", "sweeps.p_list"),
        ("sweeps.h_list=4", "sweeps.h_list"),
        ("density.kind=gaussian", "density.kind"),
        ("sweeps.n_list=1", "sweeps.n_list"),
        ("sweeps.n_list=4, 2", "sweeps.n_list"),
        ("velocity.radius=0.5", "velocity.radius"),
        ("velocity.radius=0.496", "velocity.radius"),
        ("velocity.center=1.2, 0.5", "velocity.center"),
        ("velocity.radius=1e-163", "velocity.radius"),
        ("density.sigma=1.35e154", "density.sigma"),
        ("density.sigma=1e-170", "density.sigma"),
        ("time.nt=1000000000", "time.nt"),
        ("mollify.inner_margin=0.6", "mollify.inner_margin"),
        # the mollify probes, refused for every study as the sweeps are
        pytest.param("sweeps.eps_list=0.3, 0.1", "sweeps.eps_list", id="identity-probe"),
        pytest.param(
            ("grid.nx=6", "grid.ny=6", "mollify.inner_margin=0.45", "sweeps.eps_list=0.04, 0.02"),
            "grid.nx",
            id="no-probe-node",
        ),
        pytest.param(
            ("grid.ny=6", "mollify.inner_margin=0.45", "sweeps.eps_list=0.04, 0.02"),
            "grid.ny",
            id="no-probe-node-in-y",
        ),
        pytest.param("mollify.inner_margin=0.05", "sweeps.eps_list", id="margin-below-eps"),
        # non-finite values are refused where they are parsed
        ("time.horizon=inf", "time.horizon"),
        ("velocity.center=nan, 0.5", "velocity.center"),
        ("density.center=nan, 0.5", "density.center"),
        ("velocity.amplitude=inf", "velocity.amplitude"),
        ("density.amplitude=nan", "density.amplitude"),
        ("sweeps.p_list=nan", "sweeps.p_list"),
        ("sweeps.p_list=1, 1", "sweeps.p_list"),
    ],
)
def test_config_errors_name_the_field(override, field):
    overrides = [override] if isinstance(override, str) else list(override)
    with pytest.raises(StudiesError, match=field.replace(".", r"\.")):
        parse_study_config(None, overrides)


def test_config_rejects_unknown_file_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\nnx = 32\nmystery = 9\n")
    with pytest.raises(StudiesError, match=r"grid\.mystery"):
        parse_study_config(path)


def test_config_rejects_malformed_and_missing_files(tmp_path):
    path = tmp_path / "mangled.cfg"
    path.write_text("nx = 32\n")  # key before any section header
    with pytest.raises(StudiesError, match="malformed"):
        parse_study_config(path)
    with pytest.raises(StudiesError, match="cannot read"):
        parse_study_config(tmp_path / "absent.cfg")


def test_output_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("TRANSPORTLAB_OUT", str(tmp_path / "root"))
    cfg = parse_study_config(None, ["study.name=renorm"])
    assert resolve_out_dir(cfg) == tmp_path / "root" / "renorm"
    cfg = parse_study_config(None, [f"output.dir={tmp_path / 'explicit'}"])
    assert resolve_out_dir(cfg) == tmp_path / "explicit"


# ---------------------------------------------------------------------------
# Conservation study
# ---------------------------------------------------------------------------


def test_conservation_study_passes_and_writes(tmp_path):
    cfg = cfg_for(
        "conservation", tmp_path / "run",
        "grid.nx=64", "grid.ny=64", "time.nt=100", "tolerances.drift=1e-2",
    )
    out = run_conservation_study(cfg)
    assert out.passed
    names = [c.name for c in out.checks]
    assert "analysis.norm_conservation[p=1]" in names
    assert "characteristics.max_principle" in names
    assert set(out.artifacts) == {"conservation.csv", "config.cfg", "summary.json"}
    rows = (tmp_path / "run" / "conservation.csv").read_text().strip().split("\n")
    assert rows[0] == "t,p,norm,drift"
    assert len(rows) == 1 + 4 * 101  # header + each p exponent's full history
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["hypothesis"] == "satisfied"
    assert len(summary["checks"]) == 4


def test_conservation_zero_velocity_is_exact(tmp_path):
    cfg = cfg_for(
        "conservation", tmp_path / "run",
        "grid.nx=64", "grid.ny=64", "time.nt=10", "velocity.kind=zero",
    )
    out = run_conservation_study(cfg)
    assert out.passed
    assert all(c.measured == 0.0 for c in out.checks)


def test_conservation_coarse_grid_is_flagged(tmp_path):
    cfg = cfg_for(
        "conservation", tmp_path / "run",
        "grid.nx=16", "grid.ny=16", "time.nt=50",
    )
    out = run_conservation_study(cfg)
    assert not out.passed
    failures = [c for c in out.checks if not c.passed]
    assert failures and all(c.measured > c.tolerance for c in failures)
    # the max principle holds even on a coarse grid
    sup = next(c for c in out.checks if c.name == "characteristics.max_principle")
    assert sup.passed
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["passed"] is False


def test_conservation_reruns_are_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        cfg = cfg_for("conservation", tmp_path / tag, "grid.nx=48", "grid.ny=48", "time.nt=50")
        run_conservation_study(cfg)
        outs.append(tmp_path / tag)
    for name in ("conservation.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# ---------------------------------------------------------------------------
# Mollification study
# ---------------------------------------------------------------------------


def test_mollification_study_passes(tmp_path):
    cfg = cfg_for("mollify", tmp_path / "run", "grid.nx=128", "grid.ny=128", "time.nt=20")
    out = run_mollification_study(cfg)
    assert out.passed and out.hypothesis == "satisfied"
    by_name = {c.name: c for c in out.checks}
    assert by_name["weakform.remainder_decay"].measured < 0.5
    assert by_name["weakform.remainder_monotone"].measured < 1.0
    assert by_name["weakform.consistency_identity"].measured < 1e-3
    assert by_name["weakform.stencil_consistency"].measured < 1e-12
    rows = (tmp_path / "run" / "remainder.csv").read_text().strip().split("\n")
    assert rows[0] == "eps,norm,gamma,region_margin"
    assert len(rows) == 4  # header + one row per eps


def test_mollification_zero_velocity_curve_is_zero(tmp_path):
    cfg = cfg_for(
        "mollify", tmp_path / "run",
        "grid.nx=48", "grid.ny=48", "time.nt=5", "velocity.kind=zero",
    )
    out = run_mollification_study(cfg)
    assert out.passed
    rows = (tmp_path / "run" / "remainder.csv").read_text().strip().split("\n")[1:]
    assert all(row.split(",")[1] == "0.0" for row in rows)


def test_mollification_gamma_mismatch_still_runs(tmp_path):
    # alpha = 2, p = 1.5 gives 1/alpha + 1/p > 1: the paired exponent drops
    # below 1 and the commutator estimate does not apply. The study falls
    # back to the L1 gauge and flags the hypothesis.
    cfg = cfg_for(
        "mollify", tmp_path / "run",
        "grid.nx=48", "grid.ny=48", "time.nt=5", "mollify.alpha=2", "mollify.p=1.5",
    )
    out = run_mollification_study(cfg)
    assert out.hypothesis == "not satisfied"
    assert len(out.checks) == 4  # ran to completion
    rows = (tmp_path / "run" / "remainder.csv").read_text().strip().split("\n")[1:]
    assert all(row.split(",")[2] == "1.0" for row in rows)
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["hypothesis"] == "not satisfied"


def test_mollification_probe_geometry_validated(tmp_path):
    # the inner region clears eps = 0.3, the identity probe does not
    with pytest.raises(StudiesError, match=r"sweeps\.eps_list: .* identity probe"):
        cfg_for(
            "mollify", tmp_path / "run",
            "sweeps.eps_list=0.3, 0.15", "mollify.inner_margin=0.35",
        )


def test_mollification_curve_independent_of_seed(tmp_path):
    curves = []
    for tag, seed in (("a", 1), ("b", 2)):
        cfg = cfg_for(
            "mollify", tmp_path / tag,
            "grid.nx=48", "grid.ny=48", "time.nt=5", f"study.seed={seed}",
        )
        run_mollification_study(cfg)
        curves.append((tmp_path / tag / "remainder.csv").read_bytes())
    assert curves[0] == curves[1]


# ---------------------------------------------------------------------------
# Renormalization study
# ---------------------------------------------------------------------------


def test_renormalization_study_passes(tmp_path):
    cfg = cfg_for("renorm", tmp_path / "run", "grid.nx=64", "grid.ny=64", "time.nt=100")
    out = run_renormalization_study(cfg)
    assert out.passed
    assert len(out.checks) == 5  # raw + four beta variants
    const = next(c for c in out.checks if "const" in c.name)
    assert const.provenance == "trivial"
    rows = (tmp_path / "run" / "residuals.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 5 * 6  # header + (raw + 4 betas) x 6 phis
    assert rows[0].endswith(",nx,ny,nt")
    assert all(row.endswith(",64,64,100") for row in rows[1:])


@pytest.mark.parametrize(
    "study, table, labels",
    [
        ("conservation", "conservation.csv", []),
        ("mollify", "remainder.csv", []),
        ("renorm", "residuals.csv", ["phi", "beta"]),
        ("stability", "stability.csv", []),
    ],
    ids=STUDY_NAMES,
)
def test_renormalization_csv_numbers_are_plain_floats(study, table, labels, tmp_path):
    size = ("grid.nx=32", "grid.ny=32", "time.nt=20", RESOLVED_EPS)
    RUNNERS[study](cfg_for(study, tmp_path / "run", *size))
    text = (tmp_path / "run" / table).read_text()
    assert "np.float64(" not in text
    rows = list(csv.reader(text.splitlines()))
    assert rows[0][: len(labels)] == labels and len(rows) > 1
    # every column after the labels is a number
    for row in rows[1:]:
        for cell in row[len(labels) :]:
            float(cell)


def test_renormalization_frozen_solution_is_detected(tmp_path):
    cfg = cfg_for(
        "renorm", tmp_path / "run",
        "grid.nx=64", "grid.ny=64", "time.nt=100", "renorm.corruption=freeze-time",
    )
    out = run_renormalization_study(cfg)
    assert not out.passed
    raw = next(c for c in out.checks if c.name == "weakform.distributional_residual")
    assert raw.measured > 1e-2
    # every beta that keeps the transport content trips the gate as well
    assert all(not c.passed for c in out.checks if "const" not in c.name)
    # a constant beta wipes out the transport content, so even the frozen
    # field looks fine through it
    const = next(c for c in out.checks if "const" in c.name)
    assert const.passed


# ---------------------------------------------------------------------------
# Stability study
# ---------------------------------------------------------------------------


def test_stability_study_amplitude_family(tmp_path):
    cfg = cfg_for("stability", tmp_path / "run", "grid.nx=64", "grid.ny=64", "time.nt=100")
    out = run_stability_study(cfg)
    assert out.passed
    by_name = {c.name.split("[")[0]: c for c in out.checks}
    assert by_name["analysis.stability_halving"].measured < 0.35
    assert by_name["analysis.renormalized_convergence"].passed
    rows = (tmp_path / "run" / "stability.csv").read_text().strip().split("\n")
    assert rows[0] == "n,d_n,e_n"
    assert len(rows) == 5


def test_stability_study_identity_family_is_exactly_stable(tmp_path):
    cfg = cfg_for(
        "stability", tmp_path / "run",
        "grid.nx=48", "grid.ny=48", "time.nt=20", "stability.family=identity",
    )
    out = run_stability_study(cfg)
    assert out.passed
    assert all(c.measured == 0.0 for c in out.checks)


def test_stability_study_initial_data_family(tmp_path):
    cfg = cfg_for(
        "stability", tmp_path / "run",
        "grid.nx=64", "grid.ny=64", "time.nt=100", "stability.family=initial-data",
    )
    out = run_stability_study(cfg)
    assert out.passed


def replace_everywhere(monkeypatch, original, replacement):
    """Rebind every transportlab module's reference to original."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("transportlab"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, replacement)


def test_stability_study_solves_each_problem_once(tmp_path, monkeypatch):
    # the reference and every member are stepped once per layer, in one
    # stream, one node per radius class of the moving nodes, and no study
    # route stores a solution
    def refuse(*args, **kwargs):
        raise AssertionError("the stability study stored a solution")

    replace_everywhere(monkeypatch, characteristics.solve_classical, refuse)
    stepped = {}
    original = characteristics.FlowMapIntegrator.advance

    def counted(self, x, y, t_from, t_to, escape_tol):
        stepped[t_from] = stepped.get(t_from, 0) + np.size(x)
        return original(self, x, y, t_from, t_to, escape_tol)

    monkeypatch.setattr(characteristics.FlowMapIntegrator, "advance", counted)
    cfg = cfg_for("stability", tmp_path / "run", "grid.nx=32", "grid.ny=32", "time.nt=12")
    grid, times, u, _ = build_case(cfg)
    radii = moving_nodes_and_radii(u, grid)[1]
    out = run_stability_study(cfg)
    assert stepped == {float(t): (1 + len(cfg.n_list)) * radii for t in times.times[1:]}
    assert out.checks[-1].name.startswith("analysis.renormalized_convergence[")


@pytest.mark.parametrize("study", ["mollify", "renorm"])
def test_linear_weak_form_checks_do_not_depend_on_the_density_unit(study, tmp_path):
    # the transport is linear and a power of two scales every float
    # operation exactly, so the linear checks, measured in units of
    # |density.amplitude|, keep their bits at amplitudes 2^k
    linear = {"weakform.distributional_residual", "weakform.consistency_identity",
              "weakform.stencil_consistency"}
    seen = []
    for k in (-40, -20, 0, 20, 40):
        cfg = cfg_for(
            study, tmp_path / str(k), "grid.nx=48", "grid.ny=48", "time.nt=8",
            f"density.amplitude={2.0 ** k!r}",
        )
        checks = RUNNERS[cfg.study](cfg).checks
        seen.append([(c.name, c.measured, c.passed) for c in checks if c.name in linear])
    assert len(seen[0]) == (1 if study == "renorm" else 2)
    assert all(s == seen[0] for s in seen)


class _FirstAdvance(Exception):
    """Ends a study run at its first characteristic step."""


# rows x radius classes each shipped config's stack steps per RK4 step
SHIPPED_STEPS = {
    "conservation": (1, 1680), "mollify": (1, 470), "renorm": (1, 470), "stability": (5, 280)
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_study_steps_one_node_per_radius_class(path, tmp_path, monkeypatch):
    # every shipped config centres its vortex on a node of a square-celled
    # grid, so its stack steps one node of each distinct a^2 + b^2 of the
    # moving nodes' cell offsets (a, b) from the centre: a start offset, a
    # mask or a class map that breaks the reduction fails here, not only in
    # the benchmark
    cfg = parse_study_config(path, [f"output.dir={tmp_path}"])
    grid, _, u, _ = build_case(cfg)
    moving, radii = moving_nodes_and_radii(u, grid)
    assert radii < moving
    shapes = []

    def first(self, x, y, t_from, t_to, escape_tol):
        shapes.append(np.shape(x))
        raise _FirstAdvance

    monkeypatch.setattr(characteristics.FlowMapIntegrator, "advance", first)
    with pytest.raises(_FirstAdvance):
        RUNNERS[cfg.study](cfg)
    assert shapes[0][1] == radii
    assert shapes[0] == SHIPPED_STEPS[path.stem]


# ---------------------------------------------------------------------------
# One layer stream per study
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "study, overrides",
    [
        # unmodulated cases keep the bare study name as their id
        pytest.param(s, (f"velocity.modulation={m}",), id=s if m == "none" else f"{s}-{m}")
        for m in ("none", "linear", "inverse-sqrt")
        for s in STUDY_NAMES
    ]
    + [
        pytest.param("solve", (), id="solve"),
        pytest.param("renorm", ("renorm.corruption=freeze-time",), id="renorm-freeze-time"),
    ],
)
def test_every_study_runs_without_a_stored_solve(study, overrides, tmp_path, monkeypatch):
    # every run is one drive pass, the one loop over a solve's layers
    def refuse(*args, **kwargs):
        raise AssertionError("a study stored its solution")

    def counted(stream, consumers):
        passes.append(len(consumers))
        return drive(stream, consumers)

    passes, drive = [], characteristics.drive
    replace_everywhere(monkeypatch, characteristics.solve_classical, refuse)
    replace_everywhere(monkeypatch, drive, counted)
    size = ("grid.nx=32", "grid.ny=32", "time.nt=8", RESOLVED_EPS)
    if study == "solve":
        sets = [arg for item in size for arg in ("--set", item)]
        assert cli.main(["solve", "--quiet", "--out", str(tmp_path / "run"), *sets]) == 0
    else:
        out = RUNNERS[study](cfg_for(study, tmp_path / "run", *size, *overrides))
        assert out.study == study and out.checks
    assert len(passes) == 1


@pytest.mark.parametrize("study", (*STUDY_NAMES, "solve"))
def test_every_study_solves_through_one_iter_solution_layers_pass(study, tmp_path, monkeypatch):
    # the benchmark's characteristics.solves and characteristics.layers
    # count the calls of iter_solution_layers and the layers it yields, by
    # name: a study that reached the FamilyStream another way, or solved
    # twice, would read wrong there while every check still passed
    yields, original = [], characteristics.iter_solution_layers

    def counted(*args, **kwargs):
        yields.append(0)
        for item in original(*args, **kwargs):
            yields[-1] += 1
            yield item

    replace_everywhere(monkeypatch, original, counted)
    size = ("grid.nx=32", "grid.ny=32", "time.nt=8", RESOLVED_EPS)
    if study == "solve":
        sets = [arg for item in size for arg in ("--set", item)]
        assert cli.main(["solve", "--quiet", "--out", str(tmp_path / "run"), *sets]) == 0
    else:
        assert RUNNERS[study](cfg_for(study, tmp_path / "run", *size)).checks
    assert yields == [8 + 1]


def test_mollification_fails_before_the_solve(tmp_path, monkeypatch):
    class Sentinel(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Sentinel

    replace_everywhere(monkeypatch, characteristics.iter_solution_layers, refuse)
    # every geometry the runner needs is refused by config validation,
    # before any runner: a one-entry sweep, an identity probe the largest
    # eps pushes out, and an inner region that does not clear that eps
    for overrides in (
        ["sweeps.eps_list=0.1"],
        ["sweeps.eps_list=0.3, 0.15", "mollify.inner_margin=0.35"],
        ["mollify.inner_margin=0.05"],
    ):
        with pytest.raises(StudiesError, match=r"sweeps\.eps_list"):
            cfg_for("mollify", tmp_path / "run", *overrides)


def test_mollification_computes_each_remainder_once(tmp_path, monkeypatch):
    calls = []
    original = weakform.commutator_remainder

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    replace_everywhere(monkeypatch, original, counted)
    cfg = cfg_for("mollify", tmp_path / "run", "grid.nx=48", "grid.ny=48", "time.nt=6")
    run_mollification_study(cfg)
    assert len(calls) == len(cfg.eps_list) * (cfg.nt + 1)


def _recorded_sweeps(monkeypatch) -> list:
    """Every RemainderSweep the studies build from now on."""
    sweeps = []

    class Recorded(RemainderSweep):
        def __init__(self, *args):
            super().__init__(*args)
            sweeps.append(self)

    monkeypatch.setattr(studies, "RemainderSweep", Recorded)
    return sweeps


def test_mollification_transforms_each_layer_once(tmp_path, monkeypatch):
    # F = rho w, F ux and F uy on the holder's input, the sweep's box
    # widened by the window of its largest eps: three forward transforms
    # per layer serve every eps of the sweep and the identity pairing. The
    # stencil spectra are cached and smaller than that input, so they are
    # not counted.
    cfg = cfg_for("mollify", tmp_path / "run", "grid.nx=48", "grid.ny=48", "time.nt=6")
    sweeps, shapes = _recorded_sweeps(monkeypatch), []
    original = weakform.rfft2

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(weakform, "rfft2", counted)
    run_mollification_study(cfg)
    (sweep,) = sweeps
    wide = sweep.transforms.F.shape
    assert wide[0] < cfg.nx + 1 and wide[1] < cfg.ny + 1
    assert shapes.count(wide) == 3 * (cfg.nt + 1)


def test_reference_mollify_sweep_transforms_only_its_box(tmp_path, monkeypatch):
    # at configs/mollify.cfg the norms read the 91 x 91 nodes of the cells
    # [0.15, 0.85]^2 overlaps, which hold the pairing's support and the
    # probe nodes; widened by the 12-node window of eps = 0.1 on each side,
    # 115 nodes per axis pad to 120, where the whole grid padded to 160
    sweeps = _recorded_sweeps(monkeypatch)
    cfg = parse_study_config(CONFIGS / "mollify.cfg", [f"output.dir={tmp_path}"])
    run_mollification_study(cfg)
    (sweep,) = sweeps
    assert sweep.box == (slice(19, 110), slice(19, 110))
    assert sweep.transforms.F.shape == (115, 115)
    assert sweep.transforms.shape == (120, 120)
    assert [rem.shape for rem in sweep.remainders] == [(91, 91)] * 3


def test_mollification_builds_one_mollifier_spectrum(tmp_path, monkeypatch):
    # every eps's remainder reads its two gradient spectra, but only the
    # identity pairing's eps (the largest) is mollified, so a 3-eps sweep
    # transforms one value stencil: 3 stencil transforms at the largest
    # eps's window and 2 at each other
    cfg = cfg_for("mollify", tmp_path / "run", "grid.nx=48", "grid.ny=48", "time.nt=6")
    assert len(cfg.eps_list) == 3
    grid = build_case(cfg)[0]
    windows = [weakform._window_radius(e, grid) for e in cfg.eps_list]
    stencil_shapes = [(2 * Kx + 1, 2 * Ky + 1) for Kx, Ky in windows]
    assert len(set(stencil_shapes)) == 3
    calls = []
    original = weakform.rfft2

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    weakform._window_spectra.cache_clear()
    monkeypatch.setattr(weakform, "rfft2", counted)
    run_mollification_study(cfg)
    assert [calls.count(shape) for shape in stencil_shapes] == [3, 2, 2]


@pytest.mark.parametrize("seed", [0, 1, 2**64])
def test_probe_draw_is_the_seeds_and_stays_in_the_probe_box(seed, tmp_path):
    cfg = cfg_for("mollify", tmp_path / "run", "grid.nx=48", "grid.ny=48", f"study.seed={seed}")
    grid = build_case(cfg)[0]
    inner = shrink(grid.domain, cfg.inner_margin)
    ii, jj = _probe_nodes(grid, inner, cfg.seed)
    lo_x, hi_x, lo_y, hi_y = _probe_box(grid, inner)
    assert ii.shape == jj.shape == (5,)
    assert np.all((lo_x <= ii) & (ii < hi_x)) and np.all((lo_y <= jj) & (jj < hi_y))
    # the stdlib generator, x indices first: the same draw on every run
    draw = random.Random(seed).randrange
    assert ii.tolist() == [draw(lo_x, hi_x) for _ in range(5)]
    assert jj.tolist() == [draw(lo_y, hi_y) for _ in range(5)]


@pytest.mark.parametrize(
    "overrides", [(), ("mollify.alpha=1.5", "mollify.p=1.5")], ids=["satisfied", "not-satisfied"]
)
def test_mollification_stream_matches_the_stored_routes(overrides, tmp_path):
    cfg = cfg_for(
        "mollify", tmp_path / "run", "grid.nx=48", "grid.ny=48", "time.nt=6", *overrides
    )
    out = run_mollification_study(cfg)
    by_name = {c.name: c for c in out.checks}

    grid, times, u, rho0 = build_case(cfg)
    sol = characteristics.solve_classical(rho0, u, times)
    inner = shrink(grid.domain, cfg.inner_margin)
    if out.hypothesis == "satisfied":
        alpha, p = cfg.alpha, cfg.p_moll
    else:
        alpha, p = float("inf"), 1.0
    sweep = RemainderSweep(grid, sol.times, u, cfg.eps_list, alpha, p, inner)
    phi = make_test_function(
        PROBE_CENTER, PROBE_RADIUS, quadratic_decay_profile(cfg.horizon), grid.domain
    )
    # the study's pairing and probe widen its sweep's box when they are
    # built; the stored routes read through the same box
    IdentityPairing(sweep, phi)
    _StencilProbe(sweep, (cfg.nt + 1) // 2, *_probe_nodes(grid, inner, cfg.seed))
    characteristics.drive(stored_layers(sol), [sweep])
    curve = sweep.curve()
    assert by_name["weakform.remainder_decay"].measured == curve.norms[-1] / curve.norms[0]
    with open(tmp_path / "run" / "remainder.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [
            [repr(e), repr(n), repr(curve.gamma), repr(curve.margin)]
            for e, n in zip(curve.eps, curve.norms)
        ]

    lhs, rhs = consistency_identity(sol, u, cfg.eps_list[0], phi, sweep.box)
    assert by_name["weakform.consistency_identity"].measured == abs(lhs - rhs)


def test_streamed_norm_history_matches_the_stored_one():
    cfg = parse_study_config(None, ["grid.nx=40", "grid.ny=40", "time.nt=15"])
    grid, times, u, rho0 = build_case(cfg)
    sol = characteristics.solve_classical(rho0, u, times)
    stored, streamed = NormHistory(grid, cfg.p_list), NormHistory(grid, cfg.p_list)
    characteristics.drive(stored_layers(sol), [stored])
    streamed_layers = characteristics.iter_solution_layers(rho0, u, times)
    characteristics.drive(streamed_layers, [characteristics.WholeLayers([streamed])])
    stored, streamed = stored.reports(), streamed.reports()
    assert stored.keys() == streamed.keys()
    for p, rep in stored.items():
        assert np.array_equal(streamed[p].values, rep.values)
        assert np.array_equal(streamed[p].times, rep.times)
        assert streamed[p].reference == rep.reference
        assert streamed[p].statistic == rep.statistic


# ---------------------------------------------------------------------------
# Outcome plumbing
# ---------------------------------------------------------------------------


def test_runners_dispatch_on_the_config(tmp_path):
    cfg = cfg_for(
        "stability", tmp_path / "run",
        "grid.nx=48", "grid.ny=48", "time.nt=10", "stability.family=identity",
    )
    out = RUNNERS[cfg.study](cfg)
    assert out.study == "stability"


def test_outcome_pass_iff_all_checks_pass():
    good = CheckResult("x.y", 0.0, 1.0, "trivial")
    bad = CheckResult("x.z", 2.0, 1.0, "derived")
    assert StudyOutcome("s", (good, good)).passed
    assert not StudyOutcome("s", (good, bad)).passed
    lines = StudyOutcome("s", (good, bad)).lines()
    assert lines[-1].endswith("FAIL (1/2 checks)")
    assert any("x.z" in line and "FAIL" in line for line in lines)


# ---------------------------------------------------------------------------
# The verdict rule: a check passes when measured <= tolerance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "study, overrides, passed",
    [
        pytest.param(
            "conservation", ("grid.nx=16", "grid.ny=16", "time.nt=50"), False, id="conservation-16"
        ),
        pytest.param(
            "conservation", ("grid.nx=48", "grid.ny=48", "time.nt=20", "tolerances.drift=1e-2"),
            True, id="conservation",
        ),
        # 48^2 under-resolves the commutator: three of the four checks fail
        pytest.param("mollify", ("grid.nx=48", "grid.ny=48", "time.nt=5"), False, id="mollify-48"),
        pytest.param("renorm", ("grid.nx=32", "grid.ny=32", "time.nt=20"), True, id="renorm"),
        pytest.param(
            "renorm", ("grid.nx=32", "grid.ny=32", "time.nt=20", "renorm.corruption=freeze-time"),
            False, id="renorm-freeze-time",
        ),
        pytest.param(
            "stability", ("grid.nx=32", "grid.ny=32", "time.nt=12"), True, id="stability"
        ),
    ],
)
def test_summary_verdicts_follow_the_rule(study, overrides, passed, tmp_path):
    RUNNERS[study](cfg_for(study, tmp_path / "run", *overrides))
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["passed"] is passed
    for check in summary["checks"]:
        assert check["passed"] is (check["measured"] <= check["tolerance"]), check["name"]
    assert summary["passed"] is all(check["passed"] for check in summary["checks"])


def test_check_at_its_tolerance_passes_and_nan_fails():
    assert CheckResult("x.y", 1.0, 1.0, "derived").passed
    nan = CheckResult("x.z", float("nan"), 1.0, "derived")
    assert not nan.passed
    assert nan.line().startswith("[FAIL] x.z: measured nan")
    assert not StudyOutcome("s", (nan,)).passed


def test_ratio_of_zero_first_value():
    assert _ratio(0.1, 0.0) == float("inf")
    assert _ratio(0.0, 0.0) == 0.0
    assert _ratio(0.1, 0.4) == 0.25


# ---------------------------------------------------------------------------
# Snapshots and the one writer
# ---------------------------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    g = Grid(Domain(0.0, -1.0, 2.0, 1.0), 9, 7)
    rng = np.random.default_rng(11)
    field = ScalarField(g, np.array([0.25]), rng.normal(size=(1, 10, 8)))
    base = tmp_path / "snap"
    csv_path, json_path = save_snapshot(g, field.values[0], 0.25, base)
    back = load_snapshot(base)
    assert back.grid == g
    assert back.times[0] == 0.25
    assert np.allclose(back.values, field.values, rtol=1e-15, atol=0)
    first = csv_path.read_bytes()
    # every line ends in \n, as every study table does
    assert first.startswith(b"x,y,value\n") and b"\r" not in first
    assert first.count(b"\n") == 1 + 10 * 8
    save_snapshot(g, field.values[0], 0.25, base)
    assert csv_path.read_bytes() == first


def test_snapshot_header_from_older_writers_still_loads(tmp_path):
    # headers once carried an "interpolation" key; the reader ignores it
    g = Grid(Domain(0.0, 0.0, 1.0, 1.0), 4, 3)
    field = ScalarField(g, np.array([0.5]), np.arange(20.0).reshape(1, 5, 4))
    base = tmp_path / "snap"
    _, json_path = save_snapshot(g, field.values[0], 0.5, base)
    header = json.loads(json_path.read_text())
    assert "interpolation" not in header
    json_path.write_text(json.dumps({**header, "interpolation": "bilinear"}))
    back = load_snapshot(base)
    assert np.array_equal(back.values, field.values)


def test_only_studies_and_cli_import_csv_or_json():
    package = Path(__file__).parents[1] / "src" / "transportlab"
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] in ("csv", "json") for m in modules):
                importers.add(path.stem)
    assert "studies" in importers and importers <= {"studies", "cli"}
