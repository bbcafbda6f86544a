"""Command-line front door.

Every model is built from one table, :data:`steinlab.specs.MODELS`, keyed
by spec kind (``degree``, ``gauss``, ``multinomial``, ``color``; ``/``
separates a list value). ``degree-count``, ``color-match`` and
``nonlinear`` map their flags onto the same builders and run one model each
through :func:`steinlab.experiment.run_experiment`; ``sweep --model SPEC
--n LIST`` runs a spec once per n, which ``--n`` supplies and the spec
leaves out; ``validate-couplings`` checks the models its registry of specs
names, at a fixed z threshold; ``stein-check`` checks ``--h``'s Stein
solution at a fixed grid extent and tolerance, with a step that follows
``h``'s length scale. Each subcommand writes a JSON report (CSV for
``sweep``) to ``--out`` or stdout and a one-line summary to stderr. Exit
status is 0 when every certified check passes, 2 when a bound or validation
check is violated, and 1 for usage or configuration errors. All randomness
flows from ``--seed``; re-running with the same arguments gives
byte-identical output regardless of ``STEIN_LAB_THREADS``. That variable
caps the worker processes among which a Monte Carlo pass shares its chunks:
forked on Linux, while elsewhere the pass runs in-process. The closed-form
moments every report rests on are checked against exact enumeration by the
test suite.
"""

from __future__ import annotations

import argparse
import atexit
import ctypes
import functools
import gc
import sys
import time

import numpy as np

from .errors import SteinLabError
from .experiment import run_experiment
from .harness import SEED_LIMIT
from .report import stable_json
from .sizebias import Z_THRESHOLD, verify_characterization
from .specs import build_model, degree_model, graph_color_model
from .stein import CHECK_TOL, GRID_EXTENT, SteinSolution, grid_points
from .testfuncs import GH_NODES, SmoothTestFunction, parse_test_function

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    bound violations, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _list_of(kind):
    """argparse type: a comma list of one or more finite ``kind`` values."""
    def parse(raw: str) -> list:
        out = [kind(x) for x in raw.split(",") if x]
        if not out or not np.all(np.isfinite(out)):
            raise argparse.ArgumentTypeError(
                f"{raw!r} is not a list of finite numbers")
        return out
    parse.__name__ = f"{kind.__name__} list"  # argparse's name for the type
    return parse


def _add_common(sub, samples_default=100_000, chunk_default=4096):
    sub.add_argument("--samples", type=int, default=samples_default)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--chunk-size", type=int, default=chunk_default)
    sub.add_argument("--out", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="steinlab",
                     description="Normal-approximation bounds from size-bias "
                                 "couplings, with Monte Carlo certification.")
    subs = parser.add_subparsers(dest="command", required=True)

    deg = subs.add_parser("degree-count",
                          help="degree counts in a G(n, pi) random graph")
    deg.add_argument("--n", type=int, required=True)
    group = deg.add_mutually_exclusive_group(required=True)
    group.add_argument("--c", type=float, help="pi = c / (n - 1)")
    group.add_argument("--pi", type=float)
    deg.add_argument("--degrees", type=_list_of(int), required=True)
    deg.add_argument("--h", default=None, help="e.g. cosine:a=0.5,0.5")
    _add_common(deg, chunk_default=512)

    col = subs.add_parser("color-match",
                          help="monochromatic edge counts under vertex coloring")
    col.add_argument("--graph", required=True,
                     help="cycle:64 | complete:8 | matching:10 | regular:n=200,d=3")
    col.add_argument("--colors", type=_list_of(float), required=True)
    col.add_argument("--h", default=None)
    _add_common(col, chunk_default=2048)

    non = subs.add_parser("nonlinear",
                          help="sums of nonnegative functions of Gaussian or "
                               "multinomial arguments")
    non.add_argument("--model", required=True,
                     help="gauss:rho=0.1,n=200 (pair covariance rho, "
                          "-1/(n-1) < rho < 1) | multinomial:n=100,k=2")
    non.add_argument("--psi", required=True,
                     choices=["square", "exp", "indicator"])
    non.add_argument("--h", default=None)
    _add_common(non, chunk_default=8192)

    stn = subs.add_parser("stein-check",
                          help="verify the Stein solution's residual and "
                               "derivative caps at a fixed grid extent and "
                               "tolerance; the step follows h's length scale")
    stn.add_argument("--h", required=True)
    stn.add_argument("--grid-points", type=int,
                     default=grid_points.__defaults__[0])
    stn.add_argument("--gh-nodes", type=int, default=GH_NODES,
                     help="Gauss-Hermite nodes per axis for the Gaussian "
                          "smoothing of product-logistic; cosine and "
                          "gauss-radial use closed forms")
    stn.add_argument("--out", default=None)

    val = subs.add_parser("validate-couplings",
                          help="re-check the coupling identity for every "
                               "model coupler")
    val.add_argument("--which", default="all",
                     help="comma list of registry names, or 'all'")
    _add_common(val, samples_default=1_000_000, chunk_default=16384)

    swp = subs.add_parser("sweep",
                          help="run one model spec across sizes; CSV output")
    swp.add_argument("--model", required=True,
                     help="a model spec without n, which --n sets: "
                          "degree:c=2,degrees=1/2 (or pi= for c=) | "
                          "gauss:rho=0.1,psi=square | "
                          "multinomial:k=2,psi=square | "
                          "color:graph=regular,d=3,colors=0.5/0.5 (graph: "
                          "cycle|complete|matching|regular, d for regular "
                          "only); '/' separates a list")
    swp.add_argument("--n", type=_list_of(int), required=True,
                     help="comma list of sizes, one CSV row each")
    swp.add_argument("--h", default=None)
    _add_common(swp, samples_default=20_000, chunk_default=512)
    return parser


def _default_h(p: int) -> SmoothTestFunction:
    return SmoothTestFunction("cosine", p=p, a=tuple([0.5] * p))


def _parse_h(raw: str) -> SmoothTestFunction:
    try:
        return parse_test_function(raw)
    except (SteinLabError, ValueError) as exc:
        raise _UsageError(f"--h: {exc}") from None


def _resolve_h(raw: str | None, p: int) -> SmoothTestFunction:
    h = _parse_h(raw) if raw else _default_h(p)
    if h.p != p:
        raise _UsageError(f"test function has dimension {h.p}, expected {p}")
    return h


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------

def _run_model(args, model):
    """Run one model through the experiment driver; summary to stderr."""
    h = _resolve_h(args.h, model.p)
    report = run_experiment(model, h, args.samples, seed=args.seed,
                            chunk_size=args.chunk_size)
    print(report.summary(), file=sys.stderr)
    return report


def _run_single(args, model) -> int:
    report = _run_model(args, model)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _run_degree(args) -> int:
    return _run_single(args, degree_model(args.n, args.degrees, c=args.c,
                                          pi=args.pi, flag="--"))


def _run_color(args) -> int:
    return _run_single(args, graph_color_model(args.graph, args.colors,
                                               seed=args.seed, flag="--"))


def _run_nonlinear(args) -> int:
    if args.model.partition(":")[0] not in ("gauss", "multinomial"):
        raise _UsageError(f"unknown model {args.model!r}")
    return _run_single(args, build_model(args.model, psi=args.psi))


def _run_stein(args) -> int:
    h = _parse_h(args.h)
    if args.grid_points < 1:
        raise _UsageError(f"--grid-points must be at least 1, got "
                          f"{args.grid_points}")
    if args.gh_nodes < 2:
        raise _UsageError(f"--gh-nodes must be at least 2, got "
                          f"{args.gh_nodes}")
    sol = SteinSolution(h, gh_nodes=args.gh_nodes)
    grid = grid_points(h.p, args.grid_points)
    norms = h.derivative_norms()
    checks = sol.run_checks(grid, norms)
    residual = checks["max_pde_residual"]
    violations = {f"order_{k}": checks[f"derivative_violation_{k}"]
                  for k in (1, 2, 3)}
    ok = residual <= CHECK_TOL and all(v <= CHECK_TOL
                                       for v in violations.values())
    payload = {
        "experiment": "stein-check",
        "config": {"h": h.spec_string(), "p": h.p, "extent": GRID_EXTENT,
                   "grid_points": args.grid_points, "fd_step": sol.fd_step,
                   "gh_nodes": args.gh_nodes, "tol": CHECK_TOL},
        "max_pde_residual": residual,
        "derivative_violations": violations,
        "norms": {"h": norms.h, "d1": norms.d1, "d2": norms.d2,
                  "d3": norms.d3},
        "phi_h": sol.phi,
        "pass": bool(ok),
    }
    _emit(stable_json(payload), args.out)
    print(f"stein-check: residual={residual:.3g} "
          f"worst-violation={max(violations.values()):.3g} "
          f"[{'PASS' if ok else 'FAIL'}]", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VIOLATION


# validate-couplings' registry: each size-bias model class the experiments
# run, at a small, fixed configuration. Entry ``k`` of the sorted registry
# draws from ``seed + k``, so a subset selected with ``--which`` reproduces
# the full run's entries.
COUPLERS = {
    "degree-count": "degree:n=20,c=2,degrees=1/2",
    "gauss-square": "gauss:n=8,rho=0.2,psi=square",
    "gauss-exp": "gauss:n=8,rho=0.15,psi=exp",
    "gauss-indicator": "gauss:n=8,rho=0.2,psi=indicator",
    "multinomial-square": "multinomial:n=6,k=2,psi=square",
    "multinomial-exp": "multinomial:n=6,k=2,psi=exp",
}


def _run_validate(args) -> int:
    order = sorted(COUPLERS)
    names = order if args.which == "all" else [s.strip() for s in
                                               args.which.split(",")]
    for name in names:
        if name not in COUPLERS:
            raise _UsageError(f"unknown coupler {name!r}")
        if names.count(name) > 1:
            raise _UsageError(f"--which names {name!r} more than once")
    seeds = {name: args.seed + order.index(name) for name in names}
    for name, seed in seeds.items():
        if seed >= SEED_LIMIT:
            raise _UsageError(f"--seed {args.seed}: {name} draws from seed "
                              f"{seed}, past 2**64 - 1")
    results = {}
    for name in names:
        res = verify_characterization(build_model(COUPLERS[name]),
                                      samples=args.samples, seed=seeds[name],
                                      chunk_size=args.chunk_size)
        results[name] = {"labels": res.labels, "zscores": res.zscores,
                         "max_abs_z": res.max_abs_z,
                         "pass": res.passed(),
                         "samples": args.samples}
    ok = all(entry["pass"] for entry in results.values())
    payload = {"experiment": "validate-couplings",
               "threshold": Z_THRESHOLD, "results": results,
               "pass": bool(ok)}
    _emit(stable_json(payload), args.out)
    for name in sorted(results):
        entry = results[name]
        print(f"  {name}: max|z| = {entry['max_abs_z']:.2f} "
              f"[{'ok' if entry['pass'] else 'FAIL'}]", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VIOLATION


def _run_sweep(args) -> int:
    # Every row's model is built before any row runs, so a spec that is
    # invalid at some n is refused before any Monte Carlo is spent.
    models = [build_model(args.model, seed=args.seed, n=n) for n in args.n]
    rows = []
    all_passed = True
    for n, model in zip(args.n, models):
        report = _run_model(args, model)
        all_passed = all_passed and report.passed
        rows.append((n, report.bound.total, report.gap, report.gap_stderr))
    lines = ["n,bound,gap,gap_stderr"]
    lines += [f"{n},{bound!r},{gap!r},{sem!r}" for n, bound, gap, sem in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_passed else EXIT_VIOLATION


@functools.cache
def _keep_heap() -> None:
    """Keep freed chunk-sized arrays in the heap for the next chunk.

    By default glibc maps large blocks afresh and trims the heap's top on
    free, so every chunk faults its arrays' pages in again. Where the C
    library has no ``mallopt``, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at its 64-bit maximum
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    # At interpreter shutdown, freeze the heap ahead of the final garbage
    # collections, so they skip the objects the imports left. Registering
    # anew replaces an earlier registration: the freeze runs once, at the
    # process's exit, and code sharing the process keeps its collector.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "chunk_size", 1) < 1:
            raise _UsageError(f"--chunk-size must be at least 1, got "
                              f"{args.chunk_size}")
        if not 0 <= getattr(args, "seed", 0) < SEED_LIMIT:
            raise _UsageError(f"--seed must lie in [0, 2**64), got "
                              f"{args.seed}")
        if args.command != "stein-check":
            # Only Monte Carlo chunks gain from a kept heap. stein-check
            # runs none, and there a kept heap only raised peak RSS.
            _keep_heap()
        runner = {
            "degree-count": _run_degree,
            "color-match": _run_color,
            "nonlinear": _run_nonlinear,
            "stein-check": _run_stein,
            "validate-couplings": _run_validate,
            "sweep": _run_sweep,
        }[args.command]
        code = runner(args)
    except (_UsageError, SteinLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wall time: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
