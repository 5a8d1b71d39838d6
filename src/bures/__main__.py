"""Entry point of the ``bures`` command and of ``python -m bures``.

``run`` is the process entry; ``main`` runs the CLI and returns its exit
status to an in-process caller.
"""

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


def run() -> None:
    """Run the CLI as a process and end the process with its exit status.

    Once the status is known (``main``'s return value, or the ``SystemExit``
    argparse raises for ``--help`` and usage errors), stdout and stderr are
    flushed and the process ends with ``os._exit``, as mypy's ``hard_exit``
    does.  That skips interpreter finalization: atexit hooks, the garbage
    collector, the teardown of every module and numpy's and OpenBLAS's own
    exit handlers, which together cost more than the math of most commands.
    Nothing of the program needs them: the output is flushed first, and the
    commands hold no other open file, thread or child process.

    The interpreter still ends the process, as before, on an uncaught
    exception (its traceback, status 1), when a flush fails (it retries the
    flush and reports the error), and when a tracer or profiler is attached,
    so coverage and ``python -m cProfile -m bures`` still write their
    reports.
    """
    try:
        status = main()
    except SystemExit as exc:
        status = exc.code
    if not _observed() and _flushed():
        os._exit(status)
    sys.exit(status)


def _observed() -> bool:
    """Whether a tracer or profiler (coverage, cProfile) watches the process."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)       # Python 3.12+ tools
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6))


def _flushed() -> bool:
    """Flush stdout and stderr; False if either cannot take its output."""
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        return False
    return True


if __name__ == "__main__":
    run()
