"""The process entry: ``python -m rieszdim`` and the ``rieszdim`` console script.

:func:`run` is the one entry of a CLI process. The garbage collector is off
while ``cli`` and numpy are imported, and what they allocate is frozen out
of every later collection. Once ``cli.main`` has returned its exit code
(0, 1 or 2, for every command line: ``-h``, ``--version`` and argparse's
errors included) and standard output and error are flushed, the process
leaves through ``os._exit``: its output is complete, so it skips the
teardown of every module and the final collection. A closed standard
output is one ``error:`` line and exit 1; any other uncaught exception (a
bug, or a system failure such as a fork refused) still takes the
interpreter's own path (traceback, exit 1).
In-process callers use ``cli.main``, which returns the exit code and ends
nothing.

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
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:  # whoever read standard output has closed it
        code = 1
        with contextlib.suppress(BrokenPipeError):  # stderr may be that same pipe
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
