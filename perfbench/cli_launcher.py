"""Traced stand-in for `python -m susyfact`, used by the cli-cold workload.

    python3 perfbench/cli_launcher.py SPANS.json ARGS...

Imports the package, installs the tracer's wrappers, calls
`susyfact.cli.main(ARGS)` inside a `cli.main` span, writes the spans and
counters to SPANS.json for the parent to merge, and exits with main's code.
"""

import json
import sys

from tracer import Tracer

import susyfact.cli


def main() -> int:
    spanfile, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    span = tracer.open("cli.main")
    try:
        rc = susyfact.cli.main(argv)
    finally:
        tracer.close(span)
        tracer.uninstall()
        with open(spanfile, "w") as f:
            json.dump(tracer.export(), f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
