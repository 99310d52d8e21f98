"""transportlab benchmark: the four reference studies, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a transportlab checkout. A workload is one reference
study, run unchanged from ``configs/<study>.cfg`` through the transportlab
CLI; the seed reaches the program only as ``--set study.seed=<seed>``. Each
run of the study is a fresh interpreter (``child.py``), one at a time: a
closed loop with one client and one process, with BLAS/OpenMP pools pinned to
one thread. Runs repeat until ``--seconds`` have passed; timings are medians
over the runs.

Every run is gated on correctness: it fails if it exits non-zero, if
``summary.json`` is missing, if a check is not PASS, if its check names
differ from those in ``reference.json``, or if a name the tracer wraps is
gone from the package. The result's ``attempted`` and ``failed`` give the
error rate.

The workloads and the metrics with their units are read from
``BENCHMARK.json`` at the root. With ``--trace 0`` the result holds the
end-to-end metrics (wall_s, setup_s, peak_rss_mb). With ``--trace 1``
untraced and traced runs alternate; the result holds the per-layer metrics
from the traced runs (see ``tracer.py``) and ``trace.overhead_s``, the traced
minus the untraced median ``wall_s``. The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
MIN_SETUPS = 9  # set-up samples per run, topped up with set-up-only children
BUDGET_S = 150.0  # no run is started past this; the whole command must end by 180 s

# (metric, span, statistic) read straight from the traced run's spans. The
# metric names, units and workloads themselves are listed in BENCHMARK.json.
SPAN_METRICS = (
    ("characteristics.solves", "characteristics.iter_solution_layers", "calls"),
    ("characteristics.layers", "characteristics.iter_solution_layers", "yields"),
    ("characteristics.advance.calls", "characteristics.advance", "calls"),
    ("characteristics.advance.self_s", "characteristics.advance", "self_s"),
    ("characteristics.rk4_steps", "characteristics.advance", "rk4_steps"),
    ("characteristics.solve_classical.self_s", "characteristics.solve_classical", "self_s"),
    ("fields.velocity_eval.calls", "fields.velocity_eval", "calls"),
    ("fields.velocity_eval.self_s", "fields.velocity_eval", "self_s"),
    ("fields.velocity_eval.points", "fields.velocity_eval", "points"),
    ("fields.beta.calls", "fields.beta", "calls"),
    ("fields.beta.self_s", "fields.beta", "self_s"),
    ("geometry.interpolate.calls", "geometry.interpolate", "calls"),
    ("geometry.interpolate.self_s", "geometry.interpolate", "self_s"),
    ("geometry.integrate.calls", "geometry.integrate", "calls"),
    ("geometry.integrate.self_s", "geometry.integrate", "self_s"),
    ("weakform.commutator_remainder.calls", "weakform.commutator_remainder", "calls"),
    ("weakform.commutator_remainder.self_s", "weakform.commutator_remainder", "self_s"),
    ("weakform.mollify_density.calls", "weakform.mollify_density", "calls"),
    ("weakform.mollify_density.self_s", "weakform.mollify_density", "self_s"),
    ("weakform.add_layer.calls", "weakform.add_layer", "calls"),
    ("weakform.add_layer.self_s", "weakform.add_layer", "self_s"),
    ("analysis.lp_norm.calls", "analysis.lp_norm", "calls"),
    ("analysis.lp_norm.self_s", "analysis.lp_norm", "self_s"),
    ("analysis.stability_experiment.total_s", "analysis.stability_experiment", "total_s"),
    (
        "analysis.renormalization_convergence_check.total_s",
        "analysis.renormalization_convergence_check",
        "total_s",
    ),
    ("studies.run.self_s", "studies.run", "self_s"),
    ("studies.write_outputs.self_s", "studies.write_outputs", "self_s"),
)


def _stat(stats: dict, span: str, key: str) -> float:
    return stats.get(span, {}).get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def traced_run_metrics(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    stats = rep["stats"]
    out = {metric: _stat(stats, span, key) for metric, span, key in SPAN_METRICS}
    out["characteristics.node_steps_per_s"] = _ratio(
        _stat(stats, "characteristics.advance", "node_steps"),
        _stat(stats, "characteristics.advance", "total_s"),
    )
    out["characteristics.stored_mb"] = (
        _stat(stats, "characteristics.solve_classical", "stored_bytes") / 2**20
    )
    out["geometry.interpolate.points_per_s"] = _ratio(
        _stat(stats, "geometry.interpolate", "points"),
        _stat(stats, "geometry.interpolate", "self_s"),
    )
    out["studies.output_bytes"] = rep["output_bytes"]
    return out


def setup_times(data: dict) -> dict[str, float]:
    """The parts of setup_s that one child measured."""
    stats = data["stats"]
    return {
        "cli.import_s": data["import_s"],
        "studies.parse_config_s": _stat(stats, "studies.parse_config", "total_s"),
        "studies.build_case_s": _stat(stats, "studies.build_case", "total_s"),
    }


# what a run that gave no measurements contributes: every metric reads 0
NO_RUN = {"stats": {}, "import_s": 0.0, "output_bytes": 0}


def check_outputs(out_dir: Path, exit_code: int, ref: dict, skip: set[str]):
    """(failure reason or None, worst relative drift of the check values
    outside skip)."""
    summary = out_dir / "summary.json"
    if not summary.is_file():
        return f"exit code {exit_code}, summary.json missing", 0.0
    checks = json.loads(summary.read_text())["checks"]
    drift = 0.0
    for check in checks:
        expected = ref["checks"].get(check["name"])
        if expected is None or check["name"] in skip:
            continue
        gap = abs(check["measured"] - expected)
        drift = max(drift, gap / abs(expected) if expected != 0 else gap)
    if exit_code != 0:
        return f"exit code {exit_code}", drift
    failing = [c["name"] for c in checks if not c["passed"]]
    if failing:
        return f"checks not PASS: {', '.join(failing)}", drift
    names = sorted(c["name"] for c in checks)
    if names != sorted(ref["checks"]):
        return f"check names {names} differ from the reference", drift
    return None, drift


class Bench:
    def __init__(self, root: Path, work: Path, workload: str, seed: int, reference: dict):
        self.root = root
        self.work = work
        self.out = work / "out"  # the study's --out, emptied after each run
        self.workload = workload
        self.seed = seed
        self.ref = reference["workloads"][workload]
        # a seed-dependent check is compared only at the seed it was recorded at
        self.skip = set(self.ref["seed_dependent"]) if seed != reference["seed"] else set()
        self.start = perf_counter()
        self.env = dict(os.environ, **THREAD_VARS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.env.pop("TRANSPORTLAB_OUT", None)
        self.n = 0
        self.versions: dict = {}

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def _argv(self) -> list[str]:
        return [
            self.workload,
            f"configs/{self.workload}.cfg",
            "--out",
            str(self.out),
            "--set",
            f"study.seed={self.seed}",
            "--quiet",
        ]

    def child(self, trace: bool = False, setup_only: bool = False):
        """Run one child interpreter; its measurements, or None if it broke."""
        self.n += 1
        result = self.work / f"result{self.n}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        cmd += self._argv()
        timeout = max(175.0 - self.elapsed(), 1.0)
        try:
            proc = subprocess.run(
                cmd,
                cwd=self.root,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"child timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.is_file():
            print(proc.stderr, end="", file=sys.stderr)
            return None
        data = json.loads(result.read_text())
        if data["missing"]:
            # its metrics would read 0, which must not pass for a gain
            print(f"names gone, update tracer.py: {data['missing']}", file=sys.stderr)
            return None
        self.versions = data["versions"]
        data["setup"] = setup_times(data)
        return data

    def study_run(self, trace: bool) -> dict:
        data = self.child(trace=trace)
        if data is None:
            rep = {"traced": trace, "failure": "run crashed, timed out or lost a traced name"}
        else:
            reason, drift = check_outputs(self.out, data["exit_code"], self.ref, self.skip)
            out_bytes = sum(p.stat().st_size for p in self.out.glob("*"))
            rep = {
                **data,
                "traced": trace,
                "failure": reason,
                "drift": drift,
                "output_bytes": out_bytes,
                "wall_s": _stat(data["stats"], "studies.run", "total_s"),
            }
        shutil.rmtree(self.out, ignore_errors=True)
        if rep["failure"]:
            print(f"run failed: {rep['failure']}", file=sys.stderr)
        return rep


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(bench: Bench, seconds: float, trace: bool):
    bench.child(setup_only=True)  # warm-up: byte-compile, fill the file cache
    bench.start = perf_counter()
    reps: list[dict] = []
    while True:
        t0 = bench.elapsed()
        reps.append(bench.study_run(trace=trace and len(reps) % 2 == 1))
        last = bench.elapsed() - t0
        enough = not trace or len(reps) >= 2
        if enough and (bench.elapsed() >= seconds or bench.elapsed() + last > BUDGET_S):
            break
    setups = [r["setup"] for r in reps if "setup" in r]
    while len(setups) < MIN_SETUPS and bench.elapsed() + 5.0 < BUDGET_S:
        data = bench.child(setup_only=True)
        if data is None:
            break
        setups.append(data["setup"])
    return reps, setups


def summarize(reps, setups, trace: bool) -> dict[str, float]:
    """Every metric the runs give: the end-to-end ones untraced, else the
    per-layer ones."""
    ok = [r for r in reps if "wall_s" in r]
    plain = [r for r in ok if not r["traced"]]
    if not trace:
        return {
            "wall_s": _median(r["wall_s"] for r in plain),
            "setup_s": _median(sum(s.values()) for s in setups),
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
        }
    traced = [r for r in ok if r["traced"]]
    per_run = [traced_run_metrics(r) for r in traced] or [traced_run_metrics(NO_RUN)]
    # median_low keeps counts whole: they repeat exactly from run to run
    metrics = {}
    for name in per_run[0]:
        metrics[name] = statistics.median_low(run[name] for run in per_run)
    for key in setup_times(NO_RUN):
        metrics[key] = _median(s[key] for s in setups)
    metrics["studies.check_drift_max"] = max((r["drift"] for r in ok), default=0.0)
    metrics["trace.overhead_s"] = _median(r["wall_s"] for r in traced) - _median(
        r["wall_s"] for r in plain
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ns = parser.parse_args(argv)
    if ns.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "transportlab" / "cli.py").is_file() or not (
        root / "BENCHMARK.json"
    ).is_file():
        print(
            "perfbench: run from the root of a transportlab checkout "
            "(src/transportlab/ or BENCHMARK.json not found)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if ns.workload not in why:
        parser.error(f"--workload must be one of {', '.join(why)}")
    reference = json.loads((HERE / "reference.json").read_text())

    work_root = root / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        bench = Bench(root, work, ns.workload, ns.seed, reference)
        reps, setups = measure(bench, ns.seconds, bool(ns.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    failed = sum(1 for r in reps if r["failure"])
    values = summarize(reps, setups, bool(ns.trace))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if ns.trace else "end_to_end"]}
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: BENCHMARK.json lists metrics it does not give: {missing}", file=sys.stderr)
        return 2
    metrics = {name: values[name] for name in units}
    walls = [round(r["wall_s"], 3) for r in reps if "wall_s" in r and not r["traced"]]
    print(f"workload {ns.workload}, seed {ns.seed}, trace {ns.trace}: {len(reps)} runs")
    print(f"  untraced wall_s per run: {walls}; set-up samples: {len(setups)}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:.6g} {units[name]}")
    print(f"  {'error_rate':<52} {failed / len(reps):.6g} fraction ({failed}/{len(reps)} failed)")
    environment = {"nproc": os.cpu_count(), **bench.versions, "threads": THREAD_VARS}
    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    print(f"rationale: {why[ns.workload]}")
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
