"""Run one `hurwitzkit` command with the per-layer wrappers installed.

Usage: python3 perfbench/cli_trace.py <hurwitzkit arguments...>

Behaves like `python3 -m hurwitzkit`: the command's output goes to stdout and
its exit code is returned.  The last line on stderr is `PERFBENCH_TRACE `
followed by a JSON object with the layer metrics and the moment (on the
monotonic clock) at which the package had been imported, so the caller can
work out the command's start-up time.
"""
import time  # first, so the import below is measured

import json
import sys

import hurwitzkit.cli

IMPORTED = time.monotonic()

import layers  # noqa: E402  (perfbench/layers.py, next to this file)


def main() -> int:
    tracer = layers.install()
    try:
        return hurwitzkit.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(layers.MARKER + json.dumps({"imported": IMPORTED, "layers": tracer.metrics()}),
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
