"""Every name the benchmark harness traces still resolves on the package.

The harness's own tests (python -m pytest perfbench) are not part of this
suite, so a package change that removes a traced name would fail only
there. This test loads perfbench/tracer.py as it is, without importing the
rest of the harness, and looks up each name it wraps.
"""

import importlib
import importlib.util
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
