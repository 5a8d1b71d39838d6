"""Run the bures CLI with per-layer spans recorded from outside the program.

    python3 perfbench/traced_cli.py SPANS.json <bures arguments>...

Stdout and the exit status are the CLI's own; the spans are written to
SPANS.json when the CLI returns.
"""

import sys

from tracing import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import bures.cli

    try:
        return bures.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
