"""Named end-to-end experiments binding the solver, weak form, and analysis.

Each study reads a flat key = value config (sections in brackets), runs one
verification scenario, and writes CSV tables plus a JSON summary through a
single writer at the end. Studies are the one place regression numbers
measured in pilot runs may be pinned; the library modules underneath assert
only what is analytically forced. Every check in a StudyOutcome names the
module invariant it instantiates, so a failing line points straight at the
property that broke.

Determinism contract: identical config (including the seed, which is spent
exclusively on probe-point sampling) produces byte-identical CSV and JSON
output. This module writes every file a run leaves, and every CSV cell by
one rule: repr(float(v)) for a real number, str(v) for an int or a label,
and an empty cell for None.
"""

from __future__ import annotations

import configparser
import csv
import json
import os
import random
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .analysis import (
    NormHistory,
    amplitude_family,
    initial_data_family,
    stability_experiment,
)
from .characteristics import MovingLayers, WholeLayers, drive, iter_solution_layers
from .fields import (
    AdmissibleBeta,
    FieldError,
    ScalarField,
    TestFunction,
    VelocityField,
    beta_bounded_power,
    beta_smooth_approx,
    beta_truncation,
    cosine_decay_profile,
    gaussian_blob,
    make_kernel,
    make_test_function,
    quadratic_decay_profile,
    static_field,
    vortex_field,
)
from .geometry import (
    Domain,
    GeometryError,
    Grid,
    TimePartition,
    dist_to_boundary,
    shrink,
    unit_square,
)
from .weakform import (
    IdentityPairing,
    RemainderSweep,
    ResidualAccumulator,
    WeakformError,
    commutator_at_points,
    gamma_exponent,
)

OUTPUT_ROOT_ENV = "TRANSPORTLAB_OUT"

STUDY_NAMES = ("conservation", "mollify", "renorm", "stability")

# The test function ball the mollify study pairs with its consistency
# identity; _validate keeps it clear of the boundary by the largest eps.
PROBE_CENTER = (0.62, 0.44)
PROBE_RADIUS = 0.22

# The most time steps a study accepts. Every study holds arrays of nt + 1
# floats (the time nodes and their weights), 80 MB each at this bound, and
# steps through every layer; far above it a run would be killed for memory
# or take days, so _validate refuses it up front.
MAX_NT = 10**7
# The most nodes a study holds: (nx + 1)(ny + 1), times the members plus the
# reference for a stability family, which steps them together. One float per
# node is 128 MB at this bound and a run keeps several such arrays; far above
# it a run would be killed for memory, so _validate refuses it before any Grid.
MAX_NODES = 2**24
# how far, in domain widths, density.center may lie outside the domain
CENTER_REACH = 3.0


class StudiesError(ValueError):
    """Config or orchestration failure; message names the offending field."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _float(s: str) -> float:
    v = float(s)
    if not np.isfinite(v):
        raise ValueError(f"must be finite, got {s}")
    return v


def _pos_float(s: str) -> float:
    v = _float(s)
    if not v > 0.0:
        raise ValueError(f"must be positive, got {s}")
    return v


def _pos_int(s: str) -> int:
    v = int(s)
    if v < 1:
        raise ValueError(f"must be a positive integer, got {s}")
    return v


def _seed(s: str) -> int:
    v = int(s)
    if v < 0:
        raise ValueError(f"must be a nonnegative integer, got {s}")
    return v


def _pair(s: str) -> tuple[float, float]:
    parts = [p for p in s.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ValueError(f"expected two numbers, got {s!r}")
    return _float(parts[0]), _float(parts[1])


def _list(cast: Callable) -> Callable[[str], tuple]:
    def parse(s: str) -> tuple:
        parts = [p for p in s.replace(",", " ").split() if p]
        if not parts:
            raise ValueError("sweep must be nonempty")
        return tuple(cast(p) for p in parts)

    return parse


def _choice(*allowed: str) -> Callable[[str], str]:
    def parse(s: str) -> str:
        if s not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}; got {s!r}")
        return s

    return parse


def _exponent(s: str) -> float:
    v = float(s)
    if not v >= 1.0:
        raise ValueError(f"integrability exponent must be >= 1, got {s}")
    return v


def _key(section: str, key: str, parse: Callable, default):
    """A config field: where it sits in the file, how it parses, its default."""
    return field(default=default, metadata={"key": (section, key), "parse": parse})


@dataclass(frozen=True)
class StudyConfig:
    """Every key a study reads, declared once. The file format is the flat one
    these fields imply: every value is a scalar, a pair, or a list."""

    study: str = _key("study", "name", _choice(*STUDY_NAMES), "conservation")
    seed: int = _key("study", "seed", _seed, 20240817)
    nx: int = _key("grid", "nx", _pos_int, 128)
    ny: int = _key("grid", "ny", _pos_int, 128)
    horizon: float = _key("time", "horizon", _pos_float, 1.0)
    nt: int = _key("time", "nt", _pos_int, 200)
    velocity: str = _key("velocity", "kind", _choice("vortex", "zero"), "vortex")
    v_center: tuple[float, float] = _key("velocity", "center", _pair, (0.5, 0.5))
    v_radius: float = _key("velocity", "radius", _pos_float, 0.3)
    v_amplitude: float = _key("velocity", "amplitude", _float, 0.5)
    modulation: str = _key(
        "velocity", "modulation", _choice("none", "linear", "inverse-sqrt"), "none"
    )
    d_center: tuple[float, float] = _key("density", "center", _pair, (0.6, 0.5))
    d_sigma: float = _key("density", "sigma", _pos_float, 0.08)
    d_amplitude: float = _key("density", "amplitude", _float, 1.0)
    eps_list: tuple[float, ...] = _key("sweeps", "eps_list", _list(float), (0.1, 0.05, 0.025))
    n_list: tuple[int, ...] = _key("sweeps", "n_list", _list(int), (2, 4, 8, 16))
    p_list: tuple[float, ...] = _key(
        "sweeps", "p_list", _list(float), (1.0, 2.0, 3.0, float("inf"))
    )
    alpha: float = _key("mollify", "alpha", _exponent, float("inf"))
    p_moll: float = _key("mollify", "p", _exponent, 1.0)
    inner_margin: float = _key("mollify", "inner_margin", _pos_float, 0.15)
    family: str = _key(
        "stability", "family", _choice("amplitude", "initial-data", "identity"), "amplitude"
    )
    p_stab: float = _key("stability", "p", _exponent, 2.0)
    corruption: str = _key("renorm", "corruption", _choice("none", "freeze-time"), "none")
    tol_drift: float = _key("tolerances", "drift", _pos_float, 1e-3)
    tol_drift_sup: float = _key("tolerances", "drift_sup", _pos_float, 1e-6)
    tol_residual: float = _key("tolerances", "residual", _pos_float, 1e-3)
    tol_identity: float = _key("tolerances", "identity", _pos_float, 1e-3)
    tol_decay_ratio: float = _key("tolerances", "decay_ratio", _pos_float, 0.5)
    tol_stability_ratio: float = _key("tolerances", "stability_ratio", _pos_float, 0.35)
    out_dir: str = _key("output", "dir", str, "")


# (section, key) -> (StudyConfig attribute, parser), in declaration order.
_SCHEMA: dict[tuple[str, str], tuple[str, Callable]] = {
    f.metadata["key"]: (f.name, f.metadata["parse"]) for f in fields(StudyConfig)
}


def _coerce(section: str, key: str, raw: str) -> tuple[str, object]:
    entry = _SCHEMA.get((section, key))
    if entry is None:
        raise StudiesError(f"unknown configuration field {section}.{key}")
    attr, parse = entry
    try:
        return attr, parse(raw)
    except ValueError as exc:
        raise StudiesError(f"{section}.{key}: {exc}") from None


def _probe_box(grid: Grid, inner: Domain) -> tuple[int, int, int, int]:
    """(lo_x, hi_x, lo_y, hi_y): the half-open node index ranges, inside the
    inner region, that the mollify study draws its stencil probes from."""
    lo_x, hi_x = np.searchsorted(grid.xs, (inner.x_lo, inner.x_hi)) + (1, -1)
    lo_y, hi_y = np.searchsorted(grid.ys, (inner.y_lo, inner.y_hi)) + (1, -1)
    return lo_x, hi_x, lo_y, hi_y


def _probe_nodes(grid: Grid, inner: Domain, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(ii, jj): the node indices of the five stencil probes, drawn uniformly
    from _probe_box by the stdlib generator random.Random(seed), the x
    indices first. numpy.random is not imported: it would add about 6 MB to
    a run's peak RSS for ten integers."""
    lo_x, hi_x, lo_y, hi_y = _probe_box(grid, inner)
    draw = random.Random(seed).randrange
    ii = [draw(lo_x, hi_x) for _ in range(5)]
    jj = [draw(lo_y, hi_y) for _ in range(5)]
    return np.array(ii), np.array(jj)


def _amplitude_limits(cfg: StudyConfig) -> tuple[float, float]:
    """The smallest nonzero and the largest |density.amplitude| a run takes.

    The studies raise a density, at most |A| in absolute value, to each
    finite power of sweeps.p_list and to 2, and a difference of two
    densities, at most 2 |A|, to stability.p. Each power must stay below
    2^1023, half the float range, so that its sums stay finite, and at or
    above 2^-1021, twice the smallest normal float, so that a rounded power
    does not underflow the normal floats.
    """
    powers = [(1.0, p) for p in (*cfg.p_list, 2.0)] + [(2.0, cfg.p_stab)]
    finite = [(factor, p) for factor, p in powers if np.isfinite(p)]
    return (
        max(2.0 ** (-1021.0 / p) / factor for factor, p in finite),
        min(2.0 ** (1023.0 / p) / factor for factor, p in finite),
    )


def _density_unit(cfg: StudyConfig) -> float:
    """|density.amplitude|, or 1 when it is 0: the unit in which the linear
    weak-form checks measure, so that their values and verdicts do not
    depend on the density's units. The renormalized residuals stay
    absolute, since a clip level is in the density's units."""
    return abs(cfg.d_amplitude) or 1.0


def _validate(cfg: StudyConfig) -> StudyConfig:
    def fail(name: str, msg: str):
        raise StudiesError(f"{name}: {msg}")

    domain = unit_square()

    e = cfg.eps_list
    if len(e) < 2 or not e[-1] > 0.0 or not all(b < a for a, b in zip(e, e[1:])):
        fail("sweeps.eps_list", f"need >= 2 strictly decreasing positive entries, got {e}")
    try:
        make_kernel(e[-1])  # the smallest eps makes the largest kernel coefficients
    except FieldError as exc:
        fail("sweeps.eps_list", str(exc))
    n = cfg.n_list
    if len(n) < 2 or n[0] < 1 or any(b <= a for a, b in zip(n, n[1:])):
        fail("sweeps.n_list", f"need >= 2 strictly increasing positive integers, got {n}")
    if any(not p >= 1.0 for p in cfg.p_list):
        fail("sweeps.p_list", f"norm exponents must be >= 1, got {cfg.p_list}")
    if len(set(cfg.p_list)) < len(cfg.p_list):
        fail("sweeps.p_list", f"norm exponents must be distinct, got {cfg.p_list}")
    try:
        inner = shrink(domain, cfg.inner_margin)
    except GeometryError as exc:
        raise StudiesError(f"mollify.inner_margin: {exc}") from None
    if dist_to_boundary(domain, PROBE_CENTER) <= PROBE_RADIUS + e[0]:
        fail(
            "sweeps.eps_list",
            f"largest eps {e[0]:g} pushes the identity probe support outside "
            "the mollification region",
        )
    nodes = (cfg.nx + 1) * (cfg.ny + 1)
    if nodes > MAX_NODES:
        fail(
            "grid.nx, grid.ny",
            f"{cfg.nx + 1} x {cfg.ny + 1} nodes exceed the most a study takes, {MAX_NODES}",
        )
    if cfg.study == "stability" and (len(n) + 1) * nodes > MAX_NODES:
        fail(
            "sweeps.n_list",
            f"{len(n) + 1} x {nodes} nodes, the members and the reference, exceed the "
            f"most a study takes, {MAX_NODES}",
        )
    lo_x, hi_x, lo_y, hi_y = _probe_box(Grid(domain, cfg.nx, cfg.ny), inner)
    for key, lo, hi in (("grid.nx", lo_x, hi_x), ("grid.ny", lo_y, hi_y)):
        if hi <= lo:
            fail(key, "too coarse to sample probes inside the inner region")
    if cfg.inner_margin <= e[0]:
        fail(
            "sweeps.eps_list",
            f"largest eps {e[0]:g} must be below mollify.inner_margin {cfg.inner_margin:g}",
        )
    if cfg.nt > MAX_NT:
        fail("time.nt", f"{cfg.nt} time steps exceed the most a study takes, {MAX_NT}")
    # the density divides by 2 sigma^2 and the vortex by R^2; each square
    # must be a finite normal float
    if not np.isfinite(cfg.d_sigma * cfg.d_sigma):
        fail("density.sigma", f"{cfg.d_sigma:g} is too large: its square overflows a float")
    if cfg.d_sigma * cfg.d_sigma < np.finfo(float).tiny:
        fail(
            "density.sigma",
            f"{cfg.d_sigma:g} is too small: its square underflows the normal floats",
        )
    low, limit = _amplitude_limits(cfg)
    if abs(cfg.d_amplitude) > limit:
        fail(
            "density.amplitude",
            f"{cfg.d_amplitude!r} is too large: the powers of sweeps.p_list, "
            f"stability.p and 2 would overflow a float; at most {limit!r} is accepted",
        )
    if 0.0 < abs(cfg.d_amplitude) < low:
        fail(
            "density.amplitude",
            f"{cfg.d_amplitude!r} is too small: the powers of sweeps.p_list, "
            f"stability.p and 2 would underflow the normal floats; 0 or at least "
            f"{low!r} is accepted",
        )
    # the density squares each node's offset from its centre; a centre a
    # few domain widths away keeps that square finite
    if not domain.contains_closure(*cfg.d_center, tol=CENTER_REACH * domain.width):
        fail(
            "density.center",
            f"{cfg.d_center} lies more than {CENTER_REACH:g} domain widths outside "
            "the unit square",
        )
    if cfg.velocity == "vortex":
        if cfg.v_radius * cfg.v_radius < np.finfo(float).tiny:
            fail(
                "velocity.radius",
                f"{cfg.v_radius:g} is too small: its square underflows the normal floats",
            )
        # the solver resolves boundary vanishing only with a cell to spare
        if domain.locate(*cfg.v_center) != "interior":
            fail("velocity.center", f"{cfg.v_center} is not inside the unit square")
        margin = dist_to_boundary(domain, cfg.v_center) - cfg.v_radius
        cell = min(1.0 / cfg.nx, 1.0 / cfg.ny)
        if margin < cell:
            fail(
                "velocity.radius",
                f"support margin {margin:.3g} around velocity.center {cfg.v_center} "
                f"is below one grid cell {cell:.3g}",
            )
    # the kernel vanishes at distance eps, so below the coarser grid spacing
    # it reaches no node off its centre on that axis; on a square grid the
    # remainder is then exactly 0 and the decay checks pass on nothing
    spacing = max(1.0 / cfg.nx, 1.0 / cfg.ny)
    if cfg.study == "mollify" and e[-1] <= spacing:
        fail(
            "sweeps.eps_list",
            f"smallest eps {e[-1]:g} must exceed the grid spacing {spacing:g}, "
            "or its kernel reaches no node off its centre",
        )
    return cfg


def parse_study_config(
    path: str | Path | None = None, overrides: Sequence[str] = ()
) -> StudyConfig:
    """Build a StudyConfig from an optional file plus section.key=value overrides.

    Missing keys fall back to the built-in defaults, so an empty file (or no
    file at all) is a valid, fully determined study.
    """
    updates: dict[str, object] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        try:
            with open(path, "r") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise StudiesError(f"cannot read config {path}: {exc}") from None
        except configparser.Error as exc:
            raise StudiesError(f"malformed config {path}: {exc}") from None
        for section in parser.sections():
            for key, raw in parser.items(section):
                attr, value = _coerce(section, key, raw)
                updates[attr] = value
    for item in overrides:
        if "=" not in item:
            raise StudiesError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        if dotted.count(".") != 1:
            raise StudiesError(f"override key {dotted!r} is not of the form section.key")
        section, key = dotted.split(".")
        attr, value = _coerce(section.strip(), key.strip(), raw.strip())
        updates[attr] = value
    return _validate(StudyConfig(**updates))


def _render(value) -> str:
    """A float by :g when that parses back to it, else by repr; the rest by str."""
    if isinstance(value, float):
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    return str(value)


def config_text(cfg: StudyConfig) -> str:
    """Canonical file rendering of a config; parsing it back is the identity."""
    by_section: dict[str, list[str]] = {}
    for (section, key), (attr, _) in _SCHEMA.items():
        value = getattr(cfg, attr)
        rendered = ", ".join(map(_render, value)) if isinstance(value, tuple) else _render(value)
        by_section.setdefault(section, []).append(f"{key} = {rendered}")
    blocks = [f"[{name}]\n" + "\n".join(lines) for name, lines in by_section.items()]
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# Outcome types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One verified property: the module invariant it instantiates, by name.

    The verdict is derived, never stored: a check passes when its measured
    value is at most its tolerance, so a NaN fails. provenance records where
    the reference value comes from: "trivial" for analytically forced
    properties, "derived" for tolerances pinned by pilot measurements.
    """

    name: str
    measured: float
    tolerance: float
    provenance: str

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.tolerance)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.name}: measured {self.measured:.6e} "
            f"vs tolerance {self.tolerance:.6e} ({self.provenance})"
        )


@dataclass(frozen=True)
class StudyOutcome:
    study: str
    checks: tuple[CheckResult, ...]
    hypothesis: str = "satisfied"
    artifacts: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "study": self.study,
            "passed": self.passed,
            "hypothesis": self.hypothesis,
            "checks": [
                {
                    "name": c.name,
                    "passed": bool(c.passed),
                    "measured": float(c.measured),
                    "tolerance": float(c.tolerance),
                    "provenance": c.provenance,
                }
                for c in self.checks
            ],
            "artifacts": list(self.artifacts),
        }

    def lines(self) -> list[str]:
        done = sum(c.passed for c in self.checks)
        verdict = "PASS" if self.passed else "FAIL"
        out = [c.line() for c in self.checks]
        if self.hypothesis != "satisfied":
            out.append(f"[note] integrability hypothesis {self.hypothesis}")
        out.append(f"{self.study}: {verdict} ({done}/{len(self.checks)} checks)")
        return out


# ---------------------------------------------------------------------------
# Case construction and output plumbing
# ---------------------------------------------------------------------------


def build_case(cfg: StudyConfig):
    """Grid, time partition, velocity, and initial density from the config."""
    domain = unit_square()
    grid = Grid(domain, cfg.nx, cfg.ny)
    times = TimePartition(cfg.horizon, cfg.nt)
    if cfg.velocity == "zero":
        u = VelocityField((), domain)
    else:
        u = vortex_field(
            domain,
            center=cfg.v_center,
            radius=cfg.v_radius,
            amplitude=cfg.v_amplitude,
            modulation=cfg.modulation,
        )
    rho0 = static_field(grid, gaussian_blob(cfg.d_center, cfg.d_sigma, cfg.d_amplitude))
    return grid, times, u, rho0


def resolve_out_dir(cfg: StudyConfig, command: str | None = None) -> Path:
    """The config's output directory, else <root>/<command or study>.

    The root is $TRANSPORTLAB_OUT when set and ./runs otherwise.
    """
    if cfg.out_dir:
        return Path(cfg.out_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
    return Path(root) / (command or cfg.study)


def make_out_dir(cfg: StudyConfig, command: str | None = None) -> Path:
    """Create the run's output directory and echo the config into it."""
    out = resolve_out_dir(cfg, command)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.cfg").write_text(config_text(cfg))
    return out


def _cell(value) -> str:
    """The one cell rule: a real number by repr(float(v)), an int or a label
    by str, None as an empty cell."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_table(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_outputs(
    cfg: StudyConfig,
    outcome: StudyOutcome,
    tables: dict[str, tuple[Sequence[str], Iterable[Sequence]]],
) -> StudyOutcome:
    """Single writer: emit every artifact at the end of the run."""
    out = make_out_dir(cfg)
    for name, (header, rows) in tables.items():
        _write_table(out / name, header, rows)
    outcome = replace(outcome, artifacts=(*tables, "config.cfg", "summary.json"))
    _write_json(out / "summary.json", outcome.to_json())
    return outcome


def save_snapshot(
    grid: Grid, layer: np.ndarray, t: float, basename: str | Path
) -> tuple[Path, Path]:
    """Write one layer at time t as basename.csv (x, y, value rows) + basename.json."""
    base = Path(basename)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    rows = ((x, y, layer[i, j]) for i, x in enumerate(grid.xs) for j, y in enumerate(grid.ys))
    _write_table(csv_path, ("x", "y", "value"), rows)
    d = grid.domain
    header = {
        "domain": [d.x_lo, d.y_lo, d.x_hi, d.y_hi],
        "nx": grid.nx,
        "ny": grid.ny,
        "time": float(t),
    }
    _write_json(json_path, header)
    return csv_path, json_path


def load_snapshot(basename: str | Path) -> ScalarField:
    base = Path(basename)
    with open(base.with_suffix(".json")) as fh:
        header = json.load(fh)
    x_lo, y_lo, x_hi, y_hi = header["domain"]
    grid = Grid(Domain(x_lo, y_lo, x_hi, y_hi), int(header["nx"]), int(header["ny"]))
    with open(base.with_suffix(".csv"), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header row
        flat = [float(row[2]) for row in reader]
    values = np.reshape(flat, (1, *grid.shape))
    return ScalarField(grid, np.array([header["time"]]), values)


def _ratio(last: float, first: float) -> float:
    """last / first for nonnegative values: 0 / 0 reads as 0 (nothing left to
    shrink), while growth out of 0 reads as inf."""
    if first > 0.0:
        return last / first
    return float("inf") if last > 0.0 else 0.0


def _worst_step(values: Sequence[float]) -> float:
    """The largest ratio of a value to its predecessor; at most 1 when the
    sequence never rises."""
    return max(_ratio(b, a) for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------


def run_conservation_study(cfg: StudyConfig) -> StudyOutcome:
    """Norm-history gate for every requested p over one streamed solve.

    Finite exponents instantiate the norm-conservation invariant (two-sided
    drift); p = inf instantiates the max principle (one-sided growth), which
    the bilinear evaluation satisfies by convexity.
    """
    grid, times, u, rho0 = build_case(cfg)
    history = NormHistory(grid, cfg.p_list)
    drive(iter_solution_layers(rho0, u, times), [WholeLayers([history])])
    checks = []
    rows = []
    for p, rep in history.reports().items():
        if np.isinf(p):
            name, tol, provenance = "characteristics.max_principle", cfg.tol_drift_sup, "trivial"
        else:
            name, tol, provenance = f"analysis.norm_conservation[p={p:g}]", cfg.tol_drift, "derived"
        checks.append(CheckResult(name, rep.statistic, tol, provenance))
        rows += [(t, rep.p, v, d) for t, v, d in zip(rep.times, rep.values, rep.deviations)]
    outcome = StudyOutcome(cfg.study, tuple(checks))
    return _write_outputs(cfg, outcome, {"conservation.csv": (("t", "p", "norm", "drift"), rows)})


class _StencilProbe:
    """Fed after the sweep: at layer mid, the gap between the sweep's smallest
    eps remainder and the per-point gather at the probe nodes. Built, the
    probe widens the sweep's box to its nodes."""

    def __init__(self, sweep: RemainderSweep, mid: int, ii: np.ndarray, jj: np.ndarray):
        self.sweep, self.mid, self.ii, self.jj = sweep, mid, ii, jj
        sweep.widen((slice(ii.min(), ii.max() + 1), slice(jj.min(), jj.max() + 1)))

    def add_layer(self, j: int, t: float, layer: np.ndarray) -> None:
        if j == self.mid:
            sweep, ii, jj = self.sweep, self.ii, self.jj
            xs, ys = sweep.grid.xs[ii], sweep.grid.ys[jj]
            probed = commutator_at_points(sweep.grid, layer, sweep.u, sweep.kernels[-1], xs, ys, t)
            rows, cols = sweep.box
            at = sweep.remainders[-1][ii - rows.start, jj - cols.start]
            self.gap = float(np.max(np.abs(probed - at)))


def run_mollification_study(cfg: StudyConfig) -> StudyOutcome:
    """Remainder decay along the eps sweep plus the consistency identity.

    One streamed solve drives the sweep, then the identity pairing of its
    remainder at the largest eps, then the stencil probe: one set of forward
    transforms per layer serves every eps and the pairing. If the config's
    (alpha, p) pairing gives gamma < 1 the commutator estimate does not
    apply; the study still runs, measures the curve in the always-defined
    L1 gauge, and flags the hypothesis as not satisfied. The identity and
    the stencil gap are linear in the density, so they are measured in its
    unit (_density_unit); the decay checks are ratios.
    """
    grid, times, u, rho0 = build_case(cfg)
    inner = shrink(grid.domain, cfg.inner_margin)
    phi = make_test_function(
        PROBE_CENTER, PROBE_RADIUS, quadratic_decay_profile(cfg.horizon), grid.domain
    )

    hypothesis = "satisfied"
    alpha_eff, p_eff = cfg.alpha, cfg.p_moll
    try:
        gamma_exponent(cfg.alpha, cfg.p_moll)
    except WeakformError:
        hypothesis = "not satisfied"
        alpha_eff, p_eff = float("inf"), 1.0
    sweep = RemainderSweep(grid, times.times, u, cfg.eps_list, alpha_eff, p_eff, inner)
    pairing = IdentityPairing(sweep, phi)
    # probe-point sampling is the seed's only job: the FFT-windowed full
    # layer and the per-point gather must agree to roundoff
    probe = _StencilProbe(sweep, (times.nt + 1) // 2, *_probe_nodes(grid, inner, cfg.seed))
    drive(iter_solution_layers(rho0, u, times), [WholeLayers([sweep, pairing, probe])])

    curve = sweep.curve()
    norms = curve.norms
    lhs, rhs = pairing.result()
    unit = _density_unit(cfg)
    checks = [
        CheckResult(
            "weakform.remainder_decay", _ratio(norms[-1], norms[0]), cfg.tol_decay_ratio, "derived"
        ),
        CheckResult("weakform.remainder_monotone", _worst_step(norms), 1.0, "derived"),
        CheckResult(
            "weakform.consistency_identity", abs(lhs - rhs) / unit, cfg.tol_identity, "derived"
        ),
        CheckResult("weakform.stencil_consistency", probe.gap / unit, 1e-10, "trivial"),
    ]

    outcome = StudyOutcome(cfg.study, tuple(checks), hypothesis=hypothesis)
    rows = [(e, n, curve.gamma, curve.margin) for e, n in zip(curve.eps, norms)]
    return _write_outputs(
        cfg, outcome, {"remainder.csv": (("eps", "norm", "gamma", "region_margin"), rows)}
    )


def _phi_bank(domain: Domain, horizon: float) -> list[TestFunction]:
    centers = ((0.62, 0.44), (0.38, 0.58), (0.5, 0.68))
    profiles = (quadratic_decay_profile(horizon), cosine_decay_profile(horizon))
    return [make_test_function(c, 0.2, prof, domain) for prof in profiles for c in centers]


def _beta_bank() -> list[AdmissibleBeta]:
    constant = AdmissibleBeta(
        "const[0.7]", lambda s: np.full_like(np.asarray(s, dtype=float), 0.7)
    )
    return [
        beta_truncation(10.0),
        beta_smooth_approx(1.0, 10),
        beta_bounded_power(2.0, 4.0, 10),
        constant,
    ]


def run_renormalization_study(cfg: StudyConfig) -> StudyOutcome:
    """Weak and renormalized residuals over the full phi and beta banks.

    The freeze-time corruption knob is a negative control: it drives the
    initial layer in place of every solved one, which leaves the advective
    term unbalanced and must trip the residual gate. The distributional
    residual is measured in the density's unit (_density_unit).
    """
    grid, times, u, rho0 = build_case(cfg)
    phis = _phi_bank(grid.domain, cfg.horizon)
    betas: list[AdmissibleBeta | None] = [None] + list(_beta_bank())

    base = rho0.layer(0)
    # every layer the initial one: a view in which no node moves
    still = MovingLayers(np.empty((1, 0)), np.empty(0, dtype=np.intp), (0,), [base])
    frozen = ((j, t, still) for j, t in enumerate(times.times))
    acc = ResidualAccumulator(grid, times.times, u, phis, betas)
    drive(iter_solution_layers(rho0, u, times) if cfg.corruption == "none" else frozen, [acc])
    reports = acc.report()

    checks = []
    for b, beta in enumerate(betas):
        batch = reports[b * len(phis) : (b + 1) * len(phis)]
        worst = max(r.residual for r in batch)
        if beta is None:
            name, provenance = "weakform.distributional_residual", "derived"
            worst /= _density_unit(cfg)
        else:
            name = f"weakform.renormalized_residual[{beta.label}]"
            provenance = "trivial" if beta.label.startswith("const") else "derived"
        checks.append(CheckResult(name, worst, cfg.tol_residual, provenance))

    outcome = StudyOutcome(cfg.study, tuple(checks))
    grid_size = (cfg.nx, cfg.ny, cfg.nt)
    header = (
        "phi", "beta", "residual", "term_time", "term_initial", "term_advective", "nx", "ny", "nt"
    )
    rows = [
        (r.phi, r.beta, r.residual, r.term_time, r.term_initial, r.term_advective, *grid_size)
        for r in reports
    ]
    return _write_outputs(cfg, outcome, {"residuals.csv": (header, rows)})


def run_stability_study(cfg: StudyConfig) -> StudyOutcome:
    """Perturbation family sweep: e_n decay plus renormalized convergence.

    Both come from one stability_experiment pass, which solves the
    reference and every family member together, one stacked integration
    per layer, and stores no layer.
    """
    _, times, u, rho0 = build_case(cfg)
    if cfg.family == "amplitude":
        family = amplitude_family(u, rho0)
    elif cfg.family == "initial-data":
        family = initial_data_family(u, rho0)
    else:
        def family(n: int):
            return u, rho0

    rep = stability_experiment(
        u,
        rho0,
        times,
        family,
        cfg.n_list,
        p=cfg.p_stab,
        betas=[beta_smooth_approx(1.0, 10)],
    )
    checks = [
        # e_n may rise by 5 percent from one member to the next
        CheckResult("analysis.stability_monotone", _worst_step(rep.e), 1.05, "derived"),
        CheckResult(
            "analysis.stability_halving",
            _ratio(rep.e[-1], rep.e[0]),
            cfg.tol_stability_ratio,
            "derived",
        ),
    ]
    trend = rep.renormalization
    for label, dists in zip(trend.labels, trend.distances):
        checks.append(
            CheckResult(
                f"analysis.renormalized_convergence[{label}]", _worst_step(dists), 1.0, "derived"
            )
        )

    outcome = StudyOutcome(cfg.study, tuple(checks))
    return _write_outputs(
        cfg, outcome, {"stability.csv": (("n", "d_n", "e_n"), zip(rep.n, rep.d, rep.e))}
    )


RUNNERS: dict[str, Callable[[StudyConfig], StudyOutcome]] = {
    "conservation": run_conservation_study,
    "mollify": run_mollification_study,
    "renorm": run_renormalization_study,
    "stability": run_stability_study,
}
