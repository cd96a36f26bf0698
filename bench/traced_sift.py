"""Run one ``loopsift sift`` with every layer traced.

    python3 bench/traced_sift.py TRACE_JSON sift --input DIR --out DIR ...

Installs the tracer, runs the CLI with the remaining arguments in this
process, writes the per-function span sums and counters to TRACE_JSON,
and exits with the CLI's exit code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from loopsift import cli

    code = cli.main(argv)
    with open(trace_path, "w") as f:
        json.dump(tracer.snapshot(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
