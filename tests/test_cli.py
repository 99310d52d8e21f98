"""Exit codes, flag handling, and artifact placement for the CLI."""

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transportlab
from transportlab.characteristics import solve_classical
from transportlab.cli import _steady_heap, main
from transportlab.fields import load_snapshot
from transportlab.studies import build_case, config_text, parse_study_config


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


def test_help_enumerates_subcommands_and_flags(capsys):
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    for command in ("conservation", "mollify", "renorm", "stability", "solve", "validate-config"):
        assert command in text
    for flag in ("--config", "--out", "--set", "--quiet"):
        assert flag in text


def test_module_invocation_reaches_the_parser():
    proc = subprocess.run(
        [sys.executable, "-m", "transportlab", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: transportlab")


def test_runs_without_importing_scipy_integrate(tmp_path):
    # the package pays for no quadrature module at import or in a study run,
    # and for no scipy FFT either: numpy.fft does every transform
    script = f"""
import sys
import transportlab
ABSENT = ("scipy.integrate", "scipy.fft", "scipy.special")
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


def test_positional_and_flag_config_conflict(tiny_cfg, capsys):
    assert main(["conservation", str(tiny_cfg), "--config", str(tiny_cfg)]) == 2
    assert "not both" in capsys.readouterr().err


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
        # inner region does not exist: StudiesError raised inside the runner
        (["grid.nx=16", "grid.ny=16", "mollify.inner_margin=0.6"], "mollify.inner_margin"),
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
