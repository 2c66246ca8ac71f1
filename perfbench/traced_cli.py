"""Run one sobolev-constants CLI command with the outside-in tracer installed.

    python perfbench/traced_cli.py SPANS_PATH -- <cli arguments>

Imports the CLI (which imports every package module), wraps the traced
functions, runs `cli.main`, writes the spans to SPANS_PATH (+ '.bin') and
exits with the CLI's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_PATH -- <cli arguments>", file=sys.stderr)
        return 2
    import sobolev_constants.cli as cli

    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        return cli.main(argv[2:])
    finally:
        spans.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
