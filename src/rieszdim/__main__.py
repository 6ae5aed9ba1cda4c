"""The process entry: ``python -m rieszdim`` and the ``rieszdim`` console script.

:func:`run` is the one entry of a CLI process. The garbage collector is off
while ``cli`` and numpy are imported, and what they allocate is frozen out
of every later collection. Once ``cli.main`` has returned (or argparse has
exited) and standard output and error are flushed, the process leaves
through ``os._exit``: its output is complete, so it skips the teardown of
every module and the final collection. An uncaught exception still takes
the interpreter's own path (traceback, exit 1). In-process callers use
``cli.main``, which returns the exit code and ends nothing.

No pass uses threaded BLAS, so ``OPENBLAS_NUM_THREADS`` defaults to 1
before numpy loads: the process starts no idle BLAS thread to burn CPU or
to be held across the forks of the pair engine. A value already set wins.
"""

import contextlib
import gc
import os
import sys


def run() -> None:
    """Run the CLI on ``sys.argv`` and end the process with its exit code."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse: --version, -h and usage errors
            code = 0 if exc.code is None else exc.code
        sys.stdout.flush()
    except BrokenPipeError as exc:  # whoever read standard output has closed it
        code = 1
        with contextlib.suppress(BrokenPipeError):  # stderr may be that same pipe
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
