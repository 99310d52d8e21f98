"""Command-line front end for the study runners and ad-hoc solves.

Exit codes follow the usual triage: 0 when every check passes, 1 when the
study ran but a check failed, 2 for usage or configuration problems,
including a configuration the library refuses to run. No check failure ever
exits 0.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

# Only for its __version__: the benchmark harness (perfbench/child.py) reads
# sys.modules["scipy"] after a run. The bare package loads no submodule.
import scipy  # noqa: F401

from .analysis import AnalysisError
from .characteristics import CharacteristicsError, WholeLayers, drive, iter_solution_layers
from .fields import FieldError
from .geometry import GeometryError
from .studies import (
    OUTPUT_ROOT_ENV,
    RUNNERS,
    STUDY_NAMES,
    StudiesError,
    StudyConfig,
    build_case,
    config_text,
    make_out_dir,
    parse_study_config,
    resolve_out_dir,
    save_snapshot,
)
from .weakform import WeakformError

# A configuration that parses but cannot be run surfaces as one of these
# from the library; it is exit 2, like any other unusable configuration.
_RUN_ERRORS = (
    AnalysisError,
    CharacteristicsError,
    FieldError,
    GeometryError,
    StudiesError,
    WeakformError,
)

_COMMAND_HELP = {
    "conservation": "classical solve plus the norm-history gate for every p",
    "mollify": "remainder decay sweep and the consistency identity",
    "renorm": "weak and renormalized residuals over the phi and beta banks",
    "stability": "perturbation family sweep with renormalized convergence",
    "solve": "bare classical solve; dumps the final layer as CSV + JSON",
    "validate-config": "parse and echo a configuration without running anything",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "config_pos", nargs="?", metavar="CONFIG", help="configuration file"
    )
    common.add_argument(
        "--config", metavar="PATH", help="configuration file (alternative to the positional)"
    )
    common.add_argument(
        "--out", metavar="DIR", help=f"output directory (overrides the config and ${OUTPUT_ROOT_ENV})"
    )
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one configuration field (repeatable)",
    )
    common.add_argument("--quiet", action="store_true", help="suppress per-check output")

    parser = argparse.ArgumentParser(
        prog="transportlab",
        description="Transport-equation studies: solve, verify, and report.",
        epilog=(
            "every subcommand accepts --config PATH, --out DIR, "
            "--set SECTION.KEY=VALUE (repeatable), and --quiet; "
            f"${OUTPUT_ROOT_ENV} sets the default output root"
        ),
    )
    sub = parser.add_subparsers(dest="command")
    for name in (*STUDY_NAMES, "solve", "validate-config"):
        sub.add_parser(name, parents=[common], help=_COMMAND_HELP[name])
    return parser


def _load_config(ns: argparse.Namespace) -> StudyConfig:
    if ns.config_pos and ns.config:
        raise StudiesError(
            "pass the configuration either positionally or with --config, not both"
        )
    path = ns.config_pos or ns.config
    study = [f"study.name={ns.command}"] if ns.command in STUDY_NAMES else []
    cfg = parse_study_config(path, [*ns.overrides, *study])  # validated as the study it runs
    if ns.out:
        cfg = replace(cfg, out_dir=ns.out)
    return cfg


def _run_solve(cfg: StudyConfig, quiet: bool) -> int:
    grid, times, u, rho0 = build_case(cfg)
    final = WholeLayers([])  # its buffer holds the last layer once the pass ends
    drive(iter_solution_layers(rho0, u, times), [final])
    out = make_out_dir(cfg, "solve")
    csv_path, json_path = save_snapshot(grid, final.layer, times.T, out / "solution_final")
    if not quiet:
        print(f"solved {cfg.nx}x{cfg.ny} over {cfg.nt} steps to t = {cfg.horizon:g}")
        print(f"wrote {csv_path} and {json_path}")
    return 0


def _steady_heap() -> None:
    """Keep every layer's grid-sized temporaries on the heap.

    By default glibc serves a block above its mmap threshold with a fresh
    mapping, and returns freed heap tops above its trim threshold to the
    system. Both thresholds start low and only grow as the process frees
    large mappings, so a study that allocates and frees the same few
    grid-sized arrays every layer would unmap or trim them and fault them
    back in, layer after layer. Pinning both at the ceilings the dynamic
    thresholds grow to on a 64-bit build makes those arrays reuse heap
    pages. Where no glibc mallopt resolves, this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


def main(argv=None) -> int:
    _steady_heap()
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        print("transportlab: a subcommand is required", file=sys.stderr)
        return 2

    try:
        cfg = _load_config(ns)
    except StudiesError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if ns.command == "validate-config":
        if not ns.quiet:
            print(config_text(cfg), end="")
        return 0
    try:
        if ns.command == "solve":
            return _run_solve(cfg, ns.quiet)
        outcome = RUNNERS[ns.command](cfg)
    except _RUN_ERRORS as exc:
        print(f"{ns.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. an output directory that cannot be created
        print(f"{ns.command}: cannot write the outputs: {exc}", file=sys.stderr)
        return 2
    if not ns.quiet:
        for line in outcome.lines():
            print(line)
        print(f"outputs in {resolve_out_dir(cfg)}")
    return 0 if outcome.passed else 1


def entry() -> None:
    raise SystemExit(main())
