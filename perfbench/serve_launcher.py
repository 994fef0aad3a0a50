"""Run ``repro serve`` with the benchmark's serving-layer spans installed.

Usage (the arguments after ``--`` go to the ``repro`` command line)::

    PYTHONPATH=src:perfbench python3 perfbench/serve_launcher.py \
        --spans-out spans.json -- serve --port 0

The wrappers are installed before the public entry point starts, and the
recorded spans are written to ``--spans-out`` when the server shuts down
(SIGINT is the serve command's clean stop).
"""

from __future__ import annotations

import argparse
import json
import sys

from spans import SERVE_TARGETS, Recorder


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        raise SystemExit("usage: serve_launcher.py --spans-out PATH -- ARGS")
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv[:split])

    from repro.cli import main as repro_main

    recorder = Recorder().install(SERVE_TARGETS)
    try:
        return repro_main(argv[split + 1:])
    finally:
        with open(args.spans_out, "w") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main())
