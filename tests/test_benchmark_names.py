"""Every name the benchmark harness traces still resolves on the package.

The harness's own tests (python -m pytest perfbench) are not part of this
suite, so a package change that removes a traced name would fail only
there. This test loads perfbench/tracer.py as it is, without importing the
rest of the harness, looks up each name it wraps, and checks that the
arguments its counters bind by name are still parameters there.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from transportlab.studies import STUDY_NAMES

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves_on_the_package():
    tracer = _load_tracer()
    spans = tracer.SETUP_SPANS + tracer.LAYER_SPANS
    assert spans
    for module, path, _, _ in spans:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module}.{path} no longer resolves"
    runners = importlib.import_module(f"{tracer.PACKAGE}.studies").RUNNERS
    assert sorted(runners) == sorted(STUDY_NAMES)


def test_every_counter_finds_the_arguments_it_binds_by_name():
    # the counters read call arguments by name, so a renamed parameter
    # would break a traced run even though every name still resolves
    tracer = _load_tracer()
    binds = {
        tracer._count_advance: {"x", "t_from", "t_to"},
        tracer._count_points: {"x"},
        tracer._count_solve: set(),  # reads only the result
    }
    for module, path, _, count in tracer.SETUP_SPANS + tracer.LAYER_SPANS:
        if count is None:
            continue
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        params = set(inspect.signature(owner).parameters)
        assert binds[count] <= params, f"{module}.{path} lost {binds[count] - params}"
