"""Exit codes, flag handling, and artifact placement for the CLI."""

import contextlib
import ctypes
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import transportlab
from transportlab.characteristics import solve_classical
from transportlab.cli import _steady_heap, main
from transportlab.studies import (
    MAX_NODES,
    MAX_NT,
    STUDY_NAMES,
    build_case,
    config_text,
    load_snapshot,
    parse_study_config,
)


@pytest.fixture()
def tiny_cfg(tmp_path):
    """A config file every subcommand can run in well under a second."""
    cfg = parse_study_config(
        None,
        [
            "grid.nx=48", "grid.ny=48", "time.nt=20",
            "velocity.kind=zero", "stability.family=identity",
            f"output.dir={tmp_path / 'out'}",
        ],
    )
    path = tmp_path / "tiny.cfg"
    path.write_text(config_text(cfg))
    return path


def _readme_usage() -> str:
    """The usage line of the README's "Command line" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## Command line", 1)[1].split("```", 2)[1].strip()


def test_help_enumerates_subcommands_and_flags(capsys):
    # the flags are the README usage line's, so the docs and the parser
    # cannot drift apart: --help lists exactly those, besides itself
    usage = _readme_usage()
    assert usage.startswith("transportlab <study> [CONFIG]")
    flags = set(re.findall(r"--[a-z]+", usage))
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    for command in ("conservation", "mollify", "renorm", "stability", "solve", "validate-config"):
        assert command in text
        assert main([command, "--help"]) == 0
        sub = capsys.readouterr().out
        assert "CONFIG" in sub and set(re.findall(r"--[a-z]+", sub)) == flags | {"--help"}
    assert set(re.findall(r"--[a-z]+", text)) == flags | {"--help"}


def test_module_invocation_reaches_the_parser():
    proc = subprocess.run(
        [sys.executable, "-m", "transportlab", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: transportlab")


def test_runs_without_importing_scipy_integrate(tmp_path):
    # the package pays for no quadrature module at import or in a study run,
    # and for no scipy FFT either: numpy.fft does every transform. Nor for
    # numpy.random: the mollify probes are drawn by the stdlib's generator.
    # Nor for numpy.ma (about 0.6 MB of RSS), which np.unique imports: the
    # solver groups its nodes by sorting
    script = f"""
import sys
import transportlab
ABSENT = ("scipy.integrate", "scipy.fft", "scipy.special", "numpy.random", "numpy.ma")
assert "scipy.integrate" not in sys.modules, "after import"
from transportlab.cli import main
assert not [m for m in ABSENT if m in sys.modules], "after importing the CLI"
rc = main(["conservation", "--set", "grid.nx=16", "--set", "grid.ny=16",
           "--set", "time.nt=4", "--out", {str(tmp_path / "out")!r}, "--quiet"])
assert "scipy.integrate" not in sys.modules, "after the run"
assert not [m for m in ABSENT if m in sys.modules], "after the conservation run"
for study, n in (("mollify", 48), ("renorm", 32), ("stability", 32)):
    other = main([study, "--set", f"grid.nx={{n}}", "--set", f"grid.ny={{n}}",
                  "--set", "time.nt=6", "--out", {str(tmp_path / "other")!r}, "--quiet"])
    assert other in (0, 1), (study, other)
    assert not [m for m in ABSENT if m in sys.modules], f"after the {{study}} run"
print(rc)
"""
    src = str(Path(transportlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    # 16^2 is too coarse for the conservation gate; the run itself completes
    assert proc.stdout.strip() in ("0", "1")
    assert (tmp_path / "out" / "summary.json").is_file()


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # perfbench/tracer.py wraps library names from outside; a renamed one
    # would fail every traced benchmark run, so it fails here first. A
    # fresh interpreter keeps the wrappers out of the other tests.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    script = f"""
import json, sys
import transportlab.cli
sys.path.insert(0, {str(perfbench)!r})
from tracer import Tracer
tracer = Tracer()
tracer.install(traced=True)
print(json.dumps(tracer.missing))
"""
    src = str(Path(transportlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _run_faults(tmp_path, nt: int) -> int:
    """Minor page faults of one 256^2 conservation run through main, in a
    fresh interpreter, counted from the start of main to its return."""
    script = f"""
import resource
from transportlab.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
main(["conservation", {str(Path(__file__).parents[1] / "configs" / "conservation.cfg")!r},
      "--set", "time.nt={nt}", "--out", {str(tmp_path / f"nt{nt}")!r}, "--quiet"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = str(Path(transportlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap thresholds are glibc's",
)
def test_page_faults_do_not_grow_with_the_layer_count(tmp_path):
    # with the heap thresholds pinned, every layer reuses the pages of the
    # last; unpinned, each layer of a 256^2 run faults its temporaries back
    # in (about 1.4k faults per layer)
    short, long = _run_faults(tmp_path, 20), _run_faults(tmp_path, 40)
    assert long - short < 0.1 * short, (short, long)


@pytest.mark.parametrize("failure", ["no symbol", "no library"])
def test_steady_heap_is_quiet_without_mallopt(monkeypatch, capsys, failure):
    class NoMallopt:
        pass

    def cdll(name):
        if failure == "no library":
            raise OSError("no C library")
        return NoMallopt()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert _steady_heap() is None
    assert capsys.readouterr() == ("", "")


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_validate_config_echoes_the_parsed_config(tiny_cfg, capsys):
    assert main(["validate-config", str(tiny_cfg)]) == 0
    text = capsys.readouterr().out
    assert "[grid]" in text and "nx = 48" in text
    # the echo is itself a valid config describing the same study
    echo = tiny_cfg.parent / "echo.cfg"
    echo.write_text(text)
    assert parse_study_config(echo) == parse_study_config(tiny_cfg)


def test_validate_config_reports_field_errors(tmp_path, capsys):
    bad = tmp_path / "broken.cfg"
    bad.write_text("[tolerances]\ndrift = -1\n")
    assert main(["validate-config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "tolerances.drift" in err


@pytest.mark.parametrize("command", ["validate-config", "mollify"])
@pytest.mark.parametrize(
    "overrides, field",
    [
        (["sweeps.eps_list=0.3, 0.1"], "sweeps.eps_list"),
        (
            ["grid.nx=6", "grid.ny=6", "mollify.inner_margin=0.45", "sweeps.eps_list=0.04, 0.02"],
            "grid.nx",
        ),
        (["mollify.inner_margin=0.05"], "sweeps.eps_list"),
        # the kernel gradient coefficient 2 Z / eps^4 overflows below about
        # 1.2427e-77, and eps^2 itself is 0 below about 1e-162
        (["sweeps.eps_list=0.1, 1.2e-77"], "sweeps.eps_list"),
        (["sweeps.eps_list=0.1, 1e-300"], "sweeps.eps_list"),
    ],
    ids=["identity-probe", "no-probe-node", "margin-below-eps", "kernel-overflow", "kernel-zero"],
)
def test_validation_refuses_what_mollify_refuses(command, overrides, field, tmp_path, capsys):
    argv = [command, "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and field in err[0]


def test_smallest_kernel_scale_with_a_finite_coefficient_validates():
    assert main(["validate-config", "--quiet", "--set", "sweeps.eps_list=0.1, 1.3e-77"]) == 0


@pytest.mark.parametrize("command", ["solve", "renorm"])
def test_density_center_out_of_reach_exits_2_naming_the_key(command, tmp_path, capsys):
    # the blob squares each node's offset from its centre: at 1e160 that
    # square overflows, and far enough out the density is all zero
    base = ["grid.nx=8", "grid.ny=8", "time.nt=2"]
    for center, code in (("1e160, 0.5", 2), ("-2.5, 3.5", None)):
        argv = [command, "--out", str(tmp_path / "out"), "--quiet"]
        for item in base + [f"density.center={center}"]:
            argv += ["--set", item]
        got = main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        if code == 2:
            assert got == 2 and len(err) == 1 and "density.center" in err[0]
        else:  # three widths out is still in reach
            assert got in (0, 1) and not err


@pytest.mark.parametrize("command", ["validate-config", "conservation"])
@pytest.mark.parametrize(
    "override, field",
    [
        ("time.horizon=inf", "time.horizon"),
        ("velocity.center=nan, 0.5", "velocity.center"),
        ("density.center=nan, 0.5", "density.center"),
        ("sweeps.p_list=nan", "sweeps.p_list"),
        ("sweeps.p_list=1, 1", "sweeps.p_list"),
    ],
)
def test_non_finite_or_repeated_values_exit_2_naming_the_key(
    command, override, field, tmp_path, capsys
):
    argv = [command, "--out", str(tmp_path)]
    for item in ("grid.nx=16", "grid.ny=16", "time.nt=2", override):
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and field in err[0]


@pytest.mark.parametrize("command", [*STUDY_NAMES, "solve", "validate-config"])
@pytest.mark.parametrize(
    "override, field",
    [
        # sigma^2 overflows a float in the initial density
        ("density.sigma=1.35e154", "density.sigma"),
        # 2 sigma^2 underflows to 0 and the density divides by it
        ("density.sigma=1e-170", "density.sigma"),
        # R^2 underflows to 0 in the vortex's gradient coefficient
        ("velocity.radius=1e-163", "velocity.radius"),
        # |rho|^3 of the default sweeps.p_list overflows to inf in lp_norm
        ("density.amplitude=6e102", "density.amplitude"),
        # |rho|^2 = 1e-600 underflows to 0, so a norm or a weak-form
        # residual would pass on nothing
        ("density.amplitude=1e-300", "density.amplitude"),
    ],
)
def test_float_range_edges_exit_2_naming_the_key(command, override, field, tmp_path, capsys):
    argv = [command, "--out", str(tmp_path)]
    for item in ("grid.nx=16", "grid.ny=16", "time.nt=2", override):
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and field in err[0]


@pytest.mark.parametrize(
    "command, override, p",
    [
        # |r_eps|^1000 of every remainder underflows to 0
        ("mollify", "mollify.p=1000", "1000"),
        # |rho_n - rho|^1000 of every member underflows to 0
        ("stability", "stability.p=1000", "1000"),
    ],
)
def test_an_lp_norm_that_underflows_exits_2_naming_p(command, override, p, tmp_path, capsys):
    # a norm reading 0 on data that is not all zero would pass a decay or
    # conservation check on nothing
    argv = [command, "--out", str(tmp_path)]
    for item in ("grid.nx=32", "grid.ny=32", "time.nt=8", override):
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"p = {p} " in err[0]


@pytest.mark.parametrize("study", STUDY_NAMES)
def test_largest_accepted_amplitude_runs_without_overflow(study, tmp_path, capsys):
    # the default sweeps.p_list tops out at p = 3 and stability.p = 2 raises
    # differences of up to 2 |A| to the power 2, so 2^(1023 / 3) = 2^341 is
    # the largest amplitude taken: with either sign every study runs with
    # finite measurements and no overflow warning (tier-1 turns a
    # RuntimeWarning into an error), and the next float up exits 2
    base = [study, "--out", str(tmp_path), "--set", "grid.nx=16", "--set", "grid.ny=16"]
    limit = 2.0**341
    for amplitude in (limit, -limit):
        assert main([*base, "--set", f"density.amplitude={amplitude!r}"]) in (0, 1)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert all(math.isfinite(c["measured"]) for c in summary["checks"])
    above = math.nextafter(limit, math.inf)
    assert main([*base, "--set", f"density.amplitude={above!r}"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "density.amplitude" in err[0]


def test_smallest_accepted_amplitude_validates(capsys):
    # the default sweeps.p_list tops out at p = 3, so 2^(-1021 / 3) is the
    # smallest nonzero |density.amplitude| taken and the next float down is
    # refused; 0 is taken
    low = 2.0 ** (-1021.0 / 3.0)
    assert low**3 >= sys.float_info.min
    for amplitude in (low, -low, 0.0):
        assert main(["validate-config", "--set", f"density.amplitude={amplitude!r}"]) == 0
    below = math.nextafter(low, 0.0)
    assert main(["validate-config", "--set", f"density.amplitude={below!r}"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "density.amplitude" in err[0]


def test_sigma_at_the_normal_float_edge_validates(capsys):
    # the smallest sigma whose square is a normal float is taken, the next
    # float down is refused; validate-config runs nothing
    tiny = sys.float_info.min
    low = math.sqrt(tiny)
    while low * low < tiny:
        low = math.nextafter(low, math.inf)
    below = math.nextafter(low, 0.0)
    while below * below >= tiny:
        low, below = below, math.nextafter(below, 0.0)
    assert main(["validate-config", "--set", f"density.sigma={low!r}"]) == 0
    assert main(["validate-config", "--set", f"density.sigma={below!r}"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "density.sigma" in err[0]


def test_time_steps_are_bounded(capsys):
    # validate-config allocates nothing, so the bound itself can be checked
    assert main(["validate-config", "--set", f"time.nt={MAX_NT}"]) == 0
    assert f"nt = {MAX_NT}" in capsys.readouterr().out
    assert main(["validate-config", "--set", f"time.nt={MAX_NT + 1}"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "time.nt" in err[0]


def _n_list(length: int) -> str:
    return ",".join(map(str, range(1, length + 1)))


@pytest.mark.parametrize(
    "at, past, key",
    [
        # 4096 x 4096 nodes is MAX_NODES itself
        (["grid.nx=4095", "grid.ny=4095"], ["grid.nx=4096", "grid.ny=4095"], "grid.nx"),
        # 4095 members and the reference on 64 x 64 nodes is MAX_NODES
        (
            ["study.name=stability", "grid.nx=63", "grid.ny=63", f"sweeps.n_list={_n_list(4095)}"],
            ["study.name=stability", "grid.nx=63", "grid.ny=63", f"sweeps.n_list={_n_list(4096)}"],
            "sweeps.n_list",
        ),
    ],
    ids=["grid", "stability-family"],
)
def test_nodes_are_bounded(at, past, key, capsys):
    # validate-config allocates nothing, so the bound itself can be checked
    assert MAX_NODES == 4096 * 4096
    argv = ["validate-config", "--quiet"]
    assert main([*argv, *(f"--set={kv}" for kv in at)]) == 0
    assert main([*argv, *(f"--set={kv}" for kv in past)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and key in err[0]


def test_a_study_command_validates_as_its_own_study(tiny_cfg, capsys):
    # the family bound holds for the stability command even when the file
    # names another study
    n_list = f"sweeps.n_list={_n_list(MAX_NODES // (49 * 49))}"
    assert main(["validate-config", str(tiny_cfg), "--quiet", "--set", n_list]) == 0
    assert main(["stability", str(tiny_cfg), "--set", n_list]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "sweeps.n_list" in err[0]


def test_conservation_run_passes_and_writes(tiny_cfg, tmp_path, capsys):
    assert main(["conservation", str(tiny_cfg)]) == 0
    out = capsys.readouterr().out
    assert "conservation: PASS" in out
    run_dir = tmp_path / "out"
    assert (run_dir / "conservation.csv").exists()
    assert (run_dir / "summary.json").exists()


def test_conservation_broken_config_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.cfg"
    broken.write_text("[tolerances]\ndrift = -0.5\n")
    assert main(["conservation", str(broken)]) == 2
    assert "tolerances.drift" in capsys.readouterr().err


def test_check_failure_exits_1(tiny_cfg, capsys):
    code = main(
        ["conservation", str(tiny_cfg), "--set", "grid.nx=16", "--set", "grid.ny=16",
         "--set", "velocity.kind=vortex", "--set", "time.nt=50"]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_set_overrides_reach_the_study(tiny_cfg, capsys):
    assert main(["validate-config", str(tiny_cfg), "--set", "grid.nx=99"]) == 0
    assert "nx = 99" in capsys.readouterr().out


def test_bad_override_exits_2(tiny_cfg, capsys):
    assert main(["conservation", str(tiny_cfg), "--set", "grid.bogus=1"]) == 2
    assert "grid.bogus" in capsys.readouterr().err


def test_quiet_silences_stdout(tiny_cfg, capsys):
    assert main(["conservation", str(tiny_cfg), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_out_flag_overrides_config(tiny_cfg, tmp_path, capsys):
    elsewhere = tmp_path / "elsewhere"
    assert main(["conservation", str(tiny_cfg), "--out", str(elsewhere), "--quiet"]) == 0
    assert (elsewhere / "summary.json").exists()
    assert not (tmp_path / "out").exists()


def test_subcommand_selects_the_study(tiny_cfg, tmp_path):
    # the file says conservation; the subcommand wins
    assert main(["stability", str(tiny_cfg), "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["study"] == "stability"


def test_solve_dumps_the_final_layer(tmp_path, capsys):
    out = tmp_path / "dump"
    code = main(
        ["solve", "--set", "grid.nx=32", "--set", "grid.ny=32", "--set", "time.nt=5",
         "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "solution_final" in text
    restored = load_snapshot(out / "solution_final")
    assert restored.grid.nx == 32
    assert float(restored.times[0]) == 1.0
    assert np.all(np.isfinite(restored.values))
    # the streamed last layer is the stored solve's last layer, bit for bit
    _, times, u, rho0 = build_case(
        parse_study_config(None, ["grid.nx=32", "grid.ny=32", "time.nt=5"])
    )
    assert np.array_equal(restored.values[0], solve_classical(rho0, u, times).values[-1])


def test_solve_without_out_lands_under_the_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("TRANSPORTLAB_OUT", str(tmp_path / "root"))
    code = main(
        ["solve", "--set", "grid.nx=32", "--set", "grid.ny=32", "--set", "time.nt=5", "--quiet"]
    )
    assert code == 0
    assert (tmp_path / "root" / "solve" / "config.cfg").exists()


def test_env_var_sets_default_output_root(tiny_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("TRANSPORTLAB_OUT", str(tmp_path / "root"))
    code = main(
        ["renorm", str(tiny_cfg), "--set", "output.dir=", "--set", "time.nt=10", "--quiet"]
    )
    assert code == 0
    assert (tmp_path / "root" / "renorm" / "summary.json").exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        # velocity support margin below one cell, caught by config validation
        (["grid.nx=4", "grid.ny=4"], "support margin"),
        # inner region does not exist, caught by config validation
        (["grid.nx=16", "grid.ny=16", "mollify.inner_margin=0.6"], "mollify.inner_margin"),
        # finite horizon whose CFL substep count overflows, caught by the solver
        (["grid.nx=16", "grid.ny=16", "time.nt=2", "time.horizon=1e308"], "substep count"),
        # 2.1e13 RK4 steps per layer: a MemoryError when the step list is built
        (["grid.nx=16", "grid.ny=16", "time.nt=2", "time.horizon=1e12"], "substep count"),
        # 2.1e7 RK4 steps per layer: a solve that never ends
        (["grid.nx=16", "grid.ny=16", "time.nt=2", "time.horizon=1e6"], "substep count"),
        # the vortex coefficient 2 A / R^2 overflows and the centre node's
        # velocity is inf * 0, refused where the profile meets the grid
        (["grid.nx=32", "grid.ny=32", "time.nt=4", "velocity.amplitude=1e308"], "max |v|"),
        (
            ["grid.nx=32", "grid.ny=32", "time.nt=4", "velocity.radius=1e-150",
             "velocity.amplitude=1e10"],
            "max |v|",
        ),
    ],
)
def test_unrunnable_config_exits_2_without_traceback(tmp_path, overrides, field):
    args = [sys.executable, "-m", "transportlab", "mollify", "--out", str(tmp_path)]
    for item in overrides:
        args += ["--set", item]
    proc = subprocess.run(args, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "command, out",
    [
        ("conservation", "taken"),  # the output directory is an existing file
        ("solve", "taken/x"),  # its parent is a file
    ],
)
def test_output_dir_that_cannot_be_created_exits_2(tmp_path, command, out):
    (tmp_path / "taken").write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "transportlab", command, "--out", str(tmp_path / out),
         "--set", "grid.nx=16", "--set", "grid.ny=16", "--set", "time.nt=2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert str(tmp_path / out) in lines[0]


def test_inverse_sqrt_modulation_runs_without_traceback(tiny_cfg, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "transportlab", "conservation", str(tiny_cfg),
         "--set", "velocity.kind=vortex", "--set", "velocity.modulation=inverse-sqrt",
         "--set", "grid.nx=24", "--set", "grid.ny=24", "--set", "time.nt=10"],
        capture_output=True, text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 1)
    assert (proc.returncode == 1) == ("[FAIL]" in proc.stdout)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["study"] == "conservation"


# Each example perturbs a small valid base config (at most 32^2 x 8, short
# sweeps) at up to three keys, each set to a value from the edges the
# parsers and _validate guard: zero, negatives, huge finite horizons and
# amplitudes, radii that touch the boundary or whose square leaves the float
# range, eps above the inner margin. Every valid nt drawn is at most 8: a
# run's memory and time grow with nt, so only the refused side of the
# MAX_NT bound is drawn, and so it is of the MAX_NODES bounds: the long
# n_list edge and the reference exceed MAX_NODES nodes on the coarsest grid
# drawn that has probe nodes, nx = ny = 4.
_BASE = {"grid.nx": ["8", "17", "32"], "grid.ny": ["8", "17", "32"], "time.nt": ["1", "2", "8"]}
_EDGES = {
    "grid.nx": ["-1", "0", "1", "4", "1000000000"],
    "grid.ny": ["-1", "0", "1", "4"],
    "time.nt": ["-1", "0", str(MAX_NT + 1), "1000000000"],
    "time.horizon": ["-1", "0", "1e-300", "0.25", "1e6", "1e12", "1e308", "inf"],
    "study.seed": ["-1", "0", "1", str(2**64)],
    "velocity.kind": ["zero"],
    "velocity.modulation": ["linear", "inverse-sqrt"],
    "velocity.center": ["0.3, 0.6", "0, 0.5", "1.2, 0.5", "nan, 0.5"],
    "velocity.radius": ["-0.3", "0", "1e-300", "1e-163", "1e-160", "0.05", "0.45", "0.5"],
    "velocity.amplitude": ["-0.5", "0", "1e-300", "1e300", "1e308", "inf"],
    "density.center": ["0, 0", "1, 1", "2, 2", "1e160, 0.5"],
    "density.sigma": ["-1", "0", "1e-300", "1e154", "1.35e154", "1e308"],
    "density.amplitude": ["-1", "0", "1e-300", "4.4e102", "6e102", "1e308"],
    "sweeps.eps_list": [
        "0.14, 0.1", "0.2, 0.1", "0.3, 0.1", "0.1, 0.1", "0.05, 0.1", "0.1, 0",
        "0.1, 1e-300", "0.1, 1e-100",
    ],
    "sweeps.n_list": ["1, 2", "4, 2", "0, 1", _n_list(MAX_NODES // 25)],
    "sweeps.p_list": ["1, inf", "2", "0.5", "1, 1", "nan"],
    "mollify.inner_margin": ["0", "0.05", "0.45", "0.5"],
    "mollify.alpha": ["1.5", "0.5"],
    "mollify.p": ["1.5", "1000"],
    "stability.family": ["initial-data", "identity"],
    "stability.p": ["1", "inf", "1000"],
    "renorm.corruption": ["freeze-time"],
    "tolerances.drift": ["0", "1e-300", "1e300"],
}


@st.composite
def _edge_configs(draw):
    values = {key: draw(st.sampled_from(v)) for key, v in _BASE.items()}
    values["sweeps.n_list"] = "2, 4"
    for key in draw(st.lists(st.sampled_from(sorted(_EDGES)), max_size=3, unique=True)):
        values[key] = draw(st.sampled_from(_EDGES[key]))
    return values


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=st.sampled_from([*STUDY_NAMES, "solve", "validate-config"]), values=_edge_configs())
def test_exit_code_contract_holds_on_the_guarded_edges(command, values, tmp_path):
    # 0 when every check passes, 1 exactly when one fails, 2 for a config
    # the run cannot honour; never an uncaught exception (in a process,
    # that is a traceback on stderr)
    argv = [command, "--out", str(tmp_path / "out")]
    for key, value in values.items():
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 1) == ("[FAIL]" in out.getvalue())
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1
