"""Run one steinlab CLI invocation in this process.

    python3 perfbench/child.py SIDECAR [--trace] [--memory] -- CLI-ARGS...

Imports the CLI from the checkout's ``src`` and runs
``steinlab.cli.main(CLI-ARGS)``; the exit status is the CLI's. Set-up ends at
the first call into ``harness.parallel_mc`` or ``SteinSolution.g``, marked
with one ``time.monotonic()`` timestamp. With ``--trace`` every hooked entry
point records spans (``tracer.py``); ``--memory`` also turns tracemalloc on,
which slows allocation-heavy code several-fold, so memory peaks come from a
run of their own. Timestamps, spans and library facts go to the JSON file
SIDECAR when the CLI returns; nothing is added to the report or to stdout.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys
import time
import tracemalloc

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer  # noqa: E402  (perfbench/ is on sys.path as the script dir)

SETUP_END = ("steinlab.harness:parallel_mc", "steinlab.stein:SteinSolution.g")


def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "lib*openblas*.so*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv) -> int:
    sidecar, *flags = argv[:argv.index("--")]
    cli_args = argv[argv.index("--") + 1:]

    from steinlab import cli

    mark: dict = {}
    tracer.first_call_mark(SETUP_END, mark)
    spans = None
    if "--trace" in flags:
        spans = tracer.Tracer()
        spans.install()
        if "--memory" in flags:
            tracemalloc.start()
    main_start = time.monotonic()
    code = cli.main(cli_args)
    payload = {
        # Without either set-up entry point (a refactor removed both), the
        # mark falls back to the moment the CLI was entered.
        "setup_end": mark.get("setup_end", main_start),
        "setup_marked": "setup_end" in mark,
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }
    if spans is not None:
        payload["spans"] = spans.spans
        payload["missing"] = spans.missing
    with open(sidecar, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
