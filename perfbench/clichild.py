"""``python -m repro ARGS`` under the benchmark tracer (traced cli-session).

Usage: ``python -X importtime perfbench/clichild.py TRACE_OUT ARGS...``

Wraps the layer functions as their modules are first imported, runs the
``repro`` entry point exactly as ``python -m repro`` would, writes the
spans and counts to ``TRACE_OUT`` and exits with the program's code.

The import rows on this process's standard error must be its own:
forked pool workers inherit ``-X importtime``, so their standard error
goes to ``/dev/null``, and the option is dropped from ``sys._xoptions``
so interpreters the program starts (the shared-memory resource tracker)
do not inherit it.
"""

from __future__ import annotations

import os
import runpy
import sys

from layers import TARGETS
from tracer import Tracer


def _silence_stderr() -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 2)
    os.close(devnull)


def main() -> int:
    trace_out = sys.argv[1]
    sys.argv = ["repro", *sys.argv[2:]]
    os.register_at_fork(after_in_child=_silence_stderr)
    sys._xoptions.pop("importtime", None)
    tracer = Tracer()
    tracer.install(TARGETS)
    code = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        code = exit_.code or 0
    finally:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
