"""Command-line front door.

``degree-count``, ``color-match`` and ``nonlinear`` build one model each and
run it through :func:`steinlab.experiment.run_experiment`; ``sweep`` builds
its rows with the same model constructors, and ``validate-couplings``
checks the coupling of the same size-bias model classes. Each subcommand
writes a JSON report (CSV for ``sweep``) to ``--out`` or stdout and a
one-line summary to stderr. Exit status is 0 when every certified check
passes, 2 when a bound or validation check is violated, and 1 for usage or
configuration errors. All randomness flows from ``--seed``; re-running with
the same arguments gives byte-identical output regardless of
``STEIN_LAB_THREADS``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .errors import SteinLabError, TooLarge
from .experiment import run_experiment
from .report import stable_json
from .specs import read_spec
from .stein import SteinSolution, grid_points
from .testfuncs import SmoothTestFunction, parse_test_function

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
    deg.add_argument("--oracle", action="store_true",
                     help="compare closed-form moments against enumeration")
    _add_common(deg, chunk_default=512)

    col = subs.add_parser("color-match",
                          help="monochromatic edge counts under vertex coloring")
    col.add_argument("--graph", required=True,
                     help="cycle:64 | complete:8 | matching:10 | regular:n=200,d=3")
    col.add_argument("--colors", type=_list_of(float), required=True)
    col.add_argument("--h", default=None)
    col.add_argument("--oracle", action="store_true")
    _add_common(col, chunk_default=2048)

    non = subs.add_parser("nonlinear",
                          help="sums of nonnegative functions of Gaussian or "
                               "multinomial arguments")
    non.add_argument("--model", required=True,
                     help="gauss:rho=0.1,n=200 (pair covariance rho, "
                          "-1/(n-1) < rho < 1) | multinomial:n=100,k=2")
    non.add_argument("--psi", required=True,
                     choices=["square", "exp", "indicator"])
    non.add_argument("--raw-psi", action="store_true",
                     help="skip scaling psi to unit Gaussian mean")
    non.add_argument("--h", default=None)
    _add_common(non, chunk_default=8192)

    stn = subs.add_parser("stein-check",
                          help="verify the smoothing-equation solution "
                               "residual and derivative caps")
    stn.add_argument("--h", required=True)
    stn.add_argument("--extent", type=float, default=2.0)
    stn.add_argument("--grid-points", type=int, default=21)
    stn.add_argument("--fd-step", type=float, default=1e-3,
                     help="finite-difference step of the PDE residual and "
                          "of the order-1 and order-2 derivative stencils")
    stn.add_argument("--gh-nodes", type=int, default=40,
                     help="Gauss-Hermite nodes per axis for the Gaussian "
                          "smoothing of product-logistic; cosine and "
                          "gauss-radial use closed forms")
    stn.add_argument("--tol", type=float, default=1e-3)
    stn.add_argument("--out", default=None)

    val = subs.add_parser("validate-couplings",
                          help="re-check the coupling identity for every "
                               "model coupler")
    val.add_argument("--which", default="all",
                     help="comma list of registry names, or 'all'")
    val.add_argument("--threshold", type=float, default=4.0)
    _add_common(val, samples_default=1_000_000, chunk_default=16384)

    swp = subs.add_parser("sweep",
                          help="run one experiment across sizes; CSV output")
    swp.add_argument("experiment", choices=["degree-count", "color-match"])
    swp.add_argument("--n", type=_list_of(int), required=True)
    swp.add_argument("--c", type=float, default=None)
    swp.add_argument("--pi", type=float, default=None)
    swp.add_argument("--degrees", type=_list_of(int), default=None)
    swp.add_argument("--graph-family", default="cycle",
                     help="cycle | regular:d=3 (color-match only)")
    swp.add_argument("--colors", type=_list_of(float), default=None)
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


def _run_oracle(model, config: dict, exact, out_path) -> int:
    """Compare the model's closed-form moments against the exact
    ``(lam, sigma)`` from enumeration."""
    (lam, sigma), (exact_lam, exact_sigma) = (model.lam, model.sigma), exact
    scale = max(np.abs(exact_lam).max(), np.abs(exact_sigma).max(), 1.0)
    worst = max(np.abs(lam - exact_lam).max(),
                np.abs(sigma - exact_sigma).max()) / scale
    match = bool(worst <= 1e-12)
    payload = {
        "experiment": f"{model.name}-oracle", "config": config,
        "lambda_formula": lam, "lambda_exact": exact_lam,
        "sigma_formula": sigma, "sigma_exact": exact_sigma,
        "max_rel_diff": worst, "match": match,
    }
    _emit(stable_json(payload), out_path)
    print(f"{model.name} oracle: max relative difference {worst:.3g} "
          f"[{'MATCH' if match else 'MISMATCH'}]", file=sys.stderr)
    return EXIT_OK if match else EXIT_VIOLATION


# Each subcommand imports its model module; a run loads only what it uses.

def _degree_model(args, n: int, check_pd: bool = True):
    from .degrees import DegreeCountCoupler, ErdosRenyiConfig
    cfg = (ErdosRenyiConfig(n, args.pi, tuple(args.degrees), check_pd)
           if args.pi is not None else
           ErdosRenyiConfig.from_c(n, args.c, tuple(args.degrees), check_pd))
    return DegreeCountCoupler(cfg)


def _color_model(args, spec: str):
    from . import coloring
    graph = coloring.parse_graph_spec(spec, seed=args.seed)
    cfg = coloring.ColoringConfig(tuple(args.colors))
    return coloring.ColoringModel(graph, cfg, spec)


def _run_degree(args) -> int:
    model = _degree_model(args, args.n, check_pd=not args.oracle)
    if args.oracle:
        from .degrees import brute_force_moments
        cfg = model.cfg
        return _run_oracle(
            model, {"n": cfg.n, "pi": cfg.pi, "degrees": list(cfg.degrees)},
            brute_force_moments(cfg), args.out)
    return _run_single(args, model)


def _run_color(args) -> int:
    model = _color_model(args, args.graph)
    if args.oracle:
        from .coloring import brute_force_moments
        return _run_oracle(
            model, {"graph": args.graph, "colors": list(model.cfg.probs)},
            brute_force_moments(model.g, model.cfg)[:2], args.out)
    return _run_single(args, model)


def _run_nonlinear(args) -> int:
    from . import nonlinear
    psi = nonlinear.parse_psi(args.psi, normalize=not args.raw_psi)
    kind = args.model.partition(":")[0]
    if kind == "gauss":
        kv = read_spec(args.model, {"n": int, "rho": float}, required=("n",))
        model = nonlinear.GaussianSumCoupler(nonlinear.GaussianSumConfig(
            kv["n"], psi, rho=kv.get("rho", 0.0)))
    elif kind == "multinomial":
        kv = read_spec(args.model, {"n": int, "k": int}, required=("n", "k"))
        model = nonlinear.MultinomialSumCoupler(
            nonlinear.MultinomialSumConfig(kv["n"], kv["k"], psi))
    else:
        raise _UsageError(f"unknown model {args.model!r}")
    return _run_single(args, model)


def _run_stein(args) -> int:
    h = _parse_h(args.h)
    if args.grid_points < 1:
        raise _UsageError(f"--grid-points must be at least 1, got "
                          f"{args.grid_points}")
    if args.gh_nodes < 2:
        raise _UsageError(f"--gh-nodes must be at least 2, got "
                          f"{args.gh_nodes}")
    for flag, value in (("--extent", args.extent),
                        ("--fd-step", args.fd_step), ("--tol", args.tol)):
        if not 0 < value < np.inf:
            raise _UsageError(f"{flag} must be positive, got {value}")
    sol = SteinSolution(h, gh_nodes=args.gh_nodes)
    grid = grid_points(h.p, args.extent, args.grid_points)
    norms = h.derivative_norms()
    checks = sol.run_checks(grid, norms, fd_step=args.fd_step)
    residual = checks["max_pde_residual"]
    violations = {f"order_{k}": checks[f"derivative_violation_{k}"]
                  for k in (1, 2, 3)}
    ok = residual <= args.tol and all(v <= args.tol
                                      for v in violations.values())
    payload = {
        "experiment": "stein-check",
        "config": {"h": h.spec_string(), "p": h.p, "extent": args.extent,
                   "grid_points": args.grid_points, "fd_step": args.fd_step,
                   "gh_nodes": args.gh_nodes, "tol": args.tol},
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


def _run_validate(args) -> int:
    from . import validation
    names = None if args.which == "all" else [s.strip()
                                              for s in args.which.split(",")]
    try:
        results = validation.validate_couplers(names, samples=args.samples,
                                               seed=args.seed,
                                               threshold=args.threshold,
                                               chunk_size=args.chunk_size)
    except KeyError as exc:
        raise _UsageError(str(exc))
    ok = all(entry["pass"] for entry in results.values())
    payload = {"experiment": "validate-couplings",
               "threshold": args.threshold, "results": results,
               "pass": bool(ok)}
    _emit(stable_json(payload), args.out)
    for name in sorted(results):
        entry = results[name]
        print(f"  {name}: max|z| = {entry['max_abs_z']:.2f} "
              f"[{'ok' if entry['pass'] else 'FAIL'}]", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VIOLATION


def _run_sweep(args) -> int:
    if args.experiment == "degree-count":
        if args.degrees is None:
            raise _UsageError("sweep degree-count needs --degrees")
        if (args.c is None) == (args.pi is None):
            raise _UsageError("sweep degree-count needs exactly one of "
                              "--c and --pi")

        def build(n):
            return _degree_model(args, n)
    else:
        if args.colors is None:
            raise _UsageError("sweep color-match needs --colors")
        family = args.graph_family
        kind, _, rest = family.partition(":")
        if family != "cycle" and kind != "regular":
            raise _UsageError(f"unknown graph family {family!r}")

        def build(n):
            spec = (f"cycle:{n}" if family == "cycle" else
                    ",".join(filter(None, [f"regular:n={n}", rest])))
            return _color_model(args, spec)
    rows = []
    all_passed = True
    for n in args.n:
        report = _run_model(args, build(n))
        all_passed = all_passed and report.passed
        rows.append((n, report.bound.total, report.gap, report.gap_stderr))
    lines = ["n,bound,gap,gap_stderr"]
    lines += [f"{n},{bound!r},{gap!r},{sem!r}" for n, bound, gap, sem in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_passed else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "chunk_size", 1) < 1:
            raise _UsageError(f"--chunk-size must be at least 1, got "
                              f"{args.chunk_size}")
        runner = {
            "degree-count": _run_degree,
            "color-match": _run_color,
            "nonlinear": _run_nonlinear,
            "stein-check": _run_stein,
            "validate-couplings": _run_validate,
            "sweep": _run_sweep,
        }[args.command]
        code = runner(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TooLarge as exc:
        print(f"error: instance too large for exact enumeration: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except (SteinLabError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wall time: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
