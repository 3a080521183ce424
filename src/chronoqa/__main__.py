"""``python -m chronoqa`` and the ``chronoqa`` console script."""

import os
import sys


def _observed() -> bool:
    """Whether a profiler, tracer or coverage tool watches this process:
    each writes its output as the interpreter exits."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, where cProfile registers as a tool
    return monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6))  # ids 0-5


def run() -> None:
    """Run the command line and end the process with its exit code.

    Every artifact is written, closed and moved into place before
    ``cli.main`` returns, and chronoqa registers no ``atexit`` hook, so once
    stdout and stderr are flushed the process ends with ``os._exit``: the
    interpreter's teardown (module cleanup and a final full collection) would
    only free memory the operating system frees anyway. The exit stays normal
    when a flush fails, so the interpreter reports it (a closed stdout pipe,
    say), and when a profiler or tracer is set, so it writes its output.
    """
    from .cli import main

    code = main()
    if not _observed():
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except (OSError, ValueError):
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
