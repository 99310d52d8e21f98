"""One measured transportlab run in a fresh interpreter.

    python3 perfbench/child.py --result FILE [--trace] [--setup-only] ARGV...

ARGV is a ``transportlab`` command line (study, config, ``--out``,
``--set``...). The child times the package import, installs the tracer,
runs ``transportlab.cli.main(ARGV)`` and writes its measurements to FILE as
JSON. With ``--setup-only`` it stops after what every CLI run pays before the
study starts: import, config parsing and ``build_case``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    ns = parser.parse_args()

    start = perf_counter()
    cli = importlib.import_module("transportlab.cli")
    import_s = perf_counter() - start

    tracer = Tracer()
    tracer.install(traced=ns.trace)
    studies = sys.modules["transportlab.studies"]
    if ns.setup_only:
        cli_ns = cli.build_parser().parse_args(ns.argv)
        cfg = studies.parse_study_config(cli_ns.config_pos, cli_ns.overrides)
        studies.build_case(cfg)
        exit_code = 0
    else:
        exit_code = cli.main(ns.argv)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "exit_code": exit_code,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "stats": tracer.stats,
        "missing": tracer.missing,
        "versions": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    Path(ns.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
