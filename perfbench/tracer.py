"""In-memory spans around steinlab's public entry points.

Used inside the child process (``child.py``). Every hook names its entry
point as ``"module:qualname"``; a hook whose target no longer exists is
reported as missing and skipped, so a refactor that renames or merges an
entry point drops only the layer metrics built from it.

A span is ``{"id", "name", "start", "end", "parent", "thread", ...attrs}``
with ``perf_counter`` times. The parent is the innermost open span on the
same thread; chunk spans name their ``parallel_mc`` pass as parent
explicitly, because they run on worker threads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc

# Spans whose parallel_mc passes count as the statistics pass; any other
# pass is the gap pass.
STATS_SPANS = ("degrees.stats", "nonlinear.stats", "coloring.stats")


def resolve(target: str):
    """``(owner, attribute, object)`` for ``"module:qualname"``, or None."""
    modname, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    found = (owner.__dict__.get(attr) if isinstance(owner, type)
             else getattr(owner, attr, None))
    if found is None:
        return None
    return owner, attr, found


def patch(target: str, make_wrapper) -> bool:
    """Replace ``target`` by ``make_wrapper(original)`` everywhere it is bound.

    Module-level functions are also replaced in every ``steinlab`` module
    that imported them by name. Returns False when the target is missing.
    """
    found = resolve(target)
    if found is None:
        return False
    owner, attr, original = found
    wrapper = functools.wraps(original)(make_wrapper(original))
    setattr(owner, attr, wrapper)
    if not isinstance(owner, type):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "steinlab" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return True


def first_call_mark(targets, mark: dict) -> None:
    """Store ``time.monotonic()`` in ``mark["setup_end"]`` at the first call
    into any of ``targets``. No other timing is taken."""

    def make(fn):
        def wrapper(*args, **kwargs):
            mark.setdefault("setup_end", time.monotonic())
            return fn(*args, **kwargs)
        return wrapper

    for target in targets:
        patch(target, make)


def _rows(arr) -> int:
    shape = getattr(arr, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _size(arr) -> int:
    return int(getattr(arr, "size", 1))


class Tracer:
    """Span recorder; spans stay in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None) -> dict:
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": parent if parent is not None
                else (stack[-1] if stack else 0),
                "thread": threading.get_ident()}
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def end(self, span: dict, **attrs) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        span.update(attrs)
        self.spans.append(span)  # list.append is atomic under the GIL

    def timed(self, name: str, count=None, after=None, memory=False):
        """Wrapper factory: one span per call.

        ``count(*args)`` gives the span's ``points``; ``after(result,
        *args)`` returns extra attributes; ``memory`` records the
        tracemalloc peak inside the call as ``peak_bytes`` when tracemalloc
        is tracing.
        """

        def make(fn):
            def wrapper(*args, **kwargs):
                attrs = ({"points": count(*args)}
                         if count and len(args) > 1 else {})
                peak = memory and tracemalloc.is_tracing()
                if peak:
                    tracemalloc.reset_peak()
                span = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if peak:
                        _, attrs["peak_bytes"] = \
                            tracemalloc.get_traced_memory()
                    self.end(span, **attrs)
                if after:
                    span.update(after(result, *args))
                return result
            return wrapper

        return make

    def parallel_mc(self, fn):
        """Span per pass, plus a span per chunk task on its worker thread."""

        def wrapper(task, *args, **kwargs):
            span = self.begin("harness.parallel_mc")

            def chunk(*targs, **tkwargs):
                inner = self.begin("harness.chunk", parent=span["id"])
                try:
                    return task(*targs, **tkwargs)
                finally:
                    self.end(inner)

            try:
                return fn(chunk, *args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def install(self) -> None:
        """Wrap every hooked entry point; record the ones that are gone."""
        for name, (target, options) in HOOKS.items():
            make = (self.parallel_mc if name == "harness.parallel_mc"
                    else self.timed(name, **options))
            if not patch(target, make):
                self.missing.append(name)


def _legendre_nodes(_, solution, *args) -> dict:
    nodes = getattr(solution, "s_nodes", None)
    return {"legendre_nodes": 0 if nodes is None else len(nodes)}


# span name: (entry point, options of Tracer.timed)
HOOKS = {
    "harness.parallel_mc": ("steinlab.harness:parallel_mc", {}),
    "degrees.stats": ("steinlab.degrees:estimate_coupling_stats",
                      {"memory": True}),
    "nonlinear.stats": ("steinlab.nonlinear:estimate_nonlinear_stats",
                        {"memory": True}),
    "coloring.stats": ("steinlab.coloring:local_dep_stats", {"memory": True}),
    "nonlinear.cond_exp": (
        "steinlab.nonlinear:GaussianSumCoupler.cond_exp_given_u",
        {"count": lambda self_, u, *a: _rows(u)}),
    "nonlinear.survival": ("steinlab.nonlinear:TiltedSampler.survival",
                           {"count": lambda self_, t, *a: _size(t)}),
    "nonlinear.tilted_init": ("steinlab.nonlinear:TiltedSampler.__init__", {}),
    "nonlinear.couple": (
        "steinlab.nonlinear:MultinomialSumCoupler.couple_counts",
        {"count": lambda self_, counts, *a: _rows(counts)}),
    "testfuncs.phi_h": ("steinlab.testfuncs:phi_h", {}),
    "testfuncs.derivative_norms": (
        "steinlab.testfuncs:SmoothTestFunction.derivative_norms", {}),
    "testfuncs.h_eval": ("steinlab.testfuncs:SmoothTestFunction.evaluate",
                         {"count": lambda self_, pts, *a: _rows(pts)}),
    "testfuncs.tensor_rule": (
        "steinlab.testfuncs:gauss_hermite_tensor",
        {"after": lambda rule, *a: {"nodes": _rows(rule[0])}}),
    "stein.g": ("steinlab.stein:SteinSolution.g",
                {"count": lambda self_, w, *a: _rows(w),
                 "after": _legendre_nodes}),
    "stein.residual": ("steinlab.stein:SteinSolution.pde_residual", {}),
    "stein.violation": ("steinlab.stein:SteinSolution.derivative_violation",
                        {}),
}
