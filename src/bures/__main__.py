"""Entry point of the ``bures`` command and of ``python -m bures``."""

import os
import sys


def main(argv: list[str] | None = None) -> int:
    """Run the CLI with numpy's BLAS on one thread.

    OpenBLAS reads its thread count when numpy loads, so it is set here,
    before numpy loads: neither ``import bures`` nor ``bures.cli`` imports
    numpy, and a subcommand imports it only when it runs, so ``--help`` and
    usage errors end without it.  It is an assignment, not a default: a BLAS
    reduction split over threads rounds differently, and the CLI's output
    bytes must not depend on the environment.  One thread also stops the
    idle worker thread from spending CPU on another core.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
