"""Benchmark for the steinlab CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout. The load is a closed loop with one
client: each workload is a fixed CLI configuration, run again and again in
fresh processes, one at a time, for ``--seconds`` (at least three runs). The
seed goes to the CLI's ``--seed``. ``STEIN_LAB_THREADS`` is unset, so the
program's default worker cap applies. The BLAS libraries are pinned to one
thread, so that the only parallelism is the program's own, and no bytecode
cache is written, so every run's set-up compiles the package the same way.

A run fails when the CLI exits non-zero, its report does not parse, the
report says ``"pass": false``, or its bytes differ from the first report of
the set (the determinism contract).

``--trace 0`` reports the end-to-end metrics: medians over the runs of
wall time, set-up time, work items per second after set-up, and peak RSS.
``--trace 1`` makes the same untraced runs, then one run at
``STEIN_LAB_THREADS=1``, one traced run and one traced run with tracemalloc
on, and reports the per-layer metrics of ``layers.py``: times and counts
from the traced run, memory peaks from the tracemalloc run. The traced
run's spans are kept in ``.perfbench/trace-<workload>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

from layers import PER_LAYER, bound_readout, layer_metrics, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench")

THREADS_VAR = "STEIN_LAB_THREADS"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
MIN_RUNS = 3
RUN_LIMIT_S = 170.0   # no CLI run may end later than this after start
START_LIMIT_S = 100.0  # no new untraced run starts after this


@dataclass(frozen=True)
class Workload:
    args: tuple
    items: int        # Monte Carlo samples, or Stein grid points
    layer: str        # the module that does most of the work
    seeded: bool = True


# Each workload is the only one where its code path dominates. The two degree
# workloads differ in graph size: per-graph dispatch cost against per-vertex
# cost. BENCHMARK.json says why each one was chosen.
WORKLOADS = {
    "degree-small": Workload(
        ("degree-count", "--n", "200", "--c", "2", "--degrees", "1,2",
         "--samples", "10000"), 10000, "degrees"),
    "degree-large": Workload(
        ("degree-count", "--n", "5000", "--c", "2", "--degrees", "1,2",
         "--samples", "1024"), 1024, "degrees"),
    "gauss-indicator": Workload(
        ("nonlinear", "--model", "gauss:rho=0.1,n=64", "--psi", "indicator",
         "--samples", "8192", "--chunk-size", "4096"), 8192, "nonlinear"),
    "multinomial": Workload(
        ("nonlinear", "--model", "multinomial:n=100,k=2", "--psi", "square",
         "--samples", "8192", "--chunk-size", "4096"), 8192, "nonlinear"),
    "stein-check": Workload(
        ("stein-check", "--h", "cosine:a=1,0.5", "--grid-points", "11"),
        121, "stein", seeded=False),
}


@dataclass
class Run:
    wall_s: float
    setup_s: float
    rss_mb: float
    code: int
    report: bytes
    sidecar: dict
    stderr: str
    failure: str = ""


def child_env(threads: int | None = None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in (THREADS_VAR, "PYTHONPATH")}
    env.update(PINNED_ENV)
    if threads is not None:
        env[THREADS_VAR] = str(threads)
    return env


def invoke(workload: Workload, seed: int, workdir: str, tag: str,
           deadline: float, threads: int | None = None,
           trace: tuple = ()) -> Run:
    """One CLI process; waits for it and reads its rusage."""
    out = os.path.join(workdir, f"{tag}.report")
    side = os.path.join(workdir, f"{tag}.side")
    err = os.path.join(workdir, f"{tag}.err")
    cli = list(workload.args)
    if workload.seeded:
        cli += ["--seed", str(seed)]
    argv = [sys.executable, CHILD, side, *trace, "--", *cli, "--out", out]
    with open(err, "w") as err_fh:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(threads),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err_fh)
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    # Reaped by wait4 above; tell Popen, so that it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    sidecar = {}
    if os.path.exists(side):
        with open(side) as fh:
            sidecar = json.load(fh)
    report = b""
    if os.path.exists(out):
        with open(out, "rb") as fh:
            report = fh.read()
    with open(err) as fh:
        stderr = fh.read()
    setup = sidecar.get("setup_end", start + wall) - start
    return Run(wall, setup, usage.ru_maxrss / 1024.0, proc.returncode,
               report, sidecar, stderr)


def check(run: Run, reference: bytes) -> None:
    """Set ``run.failure`` when the run breaks any correctness rule."""
    if run.code != 0:
        run.failure = f"exit code {run.code}"
        return
    try:
        payload = json.loads(run.report)
    except ValueError:
        run.failure = "report does not parse"
        return
    if payload.get("pass") is not True:
        run.failure = "report has pass != true"
    elif run.report != reference:
        run.failure = "report bytes differ from the first run"


def untraced_runs(workload, seed, seconds, workdir, begun) -> list[Run]:
    runs: list[Run] = []
    while len(runs) < MIN_RUNS or time.monotonic() - begun < seconds:
        if time.monotonic() - begun > START_LIMIT_S:
            break
        runs.append(invoke(workload, seed, workdir, f"run{len(runs)}",
                           begun + RUN_LIMIT_S))
        check(runs[-1], runs[0].report)
    return runs


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def environment(seed: int, sidecar: dict) -> dict:
    cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sidecar.get("numpy"),
        "openblas_threads": sidecar.get("blas_threads"),
        **PINNED_ENV,
        THREADS_VAR: f"unset (default cap min(4, {cpus}) = {min(4, cpus)})",
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def end_to_end(runs: list[Run], items: int) -> dict:
    med = statistics.median
    return {
        "wall_s": (med(r.wall_s for r in runs), "s"),
        "setup_s": (med(r.setup_s for r in runs), "s"),
        "items_per_s": (med(items / max(r.wall_s - r.setup_s, 1e-9)
                            for r in runs), "1/s"),
        "peak_rss_mb": (med(r.rss_mb for r in runs), "MB"),
    }


def traced(workload, seed, workdir, runs, begun) -> tuple[dict, dict]:
    """Single-thread, traced and memory runs; the per-layer metrics and the
    traced run's spans."""
    deadline = begun + RUN_LIMIT_S
    base_wall = statistics.median(r.wall_s for r in runs)
    extra = {
        "one-thread": invoke(workload, seed, workdir, "one-thread", deadline,
                             threads=1),
        "traced": invoke(workload, seed, workdir, "traced", deadline,
                         trace=("--trace",)),
        "memory": invoke(workload, seed, workdir, "memory", deadline,
                         trace=("--trace", "--memory")),
    }
    for run in extra.values():
        check(run, runs[0].report)
        runs.append(run)
    trace_run = extra["traced"]
    spans = trace_run.sidecar.get("spans", [])
    missing = trace_run.sidecar.get("missing", [])
    metrics = layer_metrics(spans, missing, workload.items, workload.layer)
    memory = layer_metrics(extra["memory"].sidecar.get("spans", []), missing,
                           workload.items, workload.layer)
    metrics.update({k: v for k, v in memory.items() if k.endswith("_peak_mb")})
    try:
        metrics.update(bound_readout(json.loads(runs[0].report)))
    except ValueError:
        pass  # the unparsable report already counts as a failed run
    metrics.update({
        "harness.speedup_1t": extra["one-thread"].wall_s / base_wall,
        "trace.wall_s": trace_run.wall_s,
        "trace.overhead_s": trace_run.wall_s - base_wall,
        "trace.hooks_missing": len(missing),
        "bench.fail_rate": sum(bool(r.failure) for r in runs) / len(runs),
    })
    return metrics, {"seed": seed, "missing": missing, "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "steinlab", "cli.py")):
        print("error: no steinlab sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    begun = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        runs = untraced_runs(workload, args.seed, args.seconds, workdir,
                             begun)
        if args.trace:
            values, trace = traced(workload, args.seed, workdir, runs, begun)
            metrics = {name: (value, PER_LAYER[name][0])
                       for name, value in values.items()}
        else:
            metrics = end_to_end(runs, workload.items)

    failed = [r for r in runs if r.failure]
    print("env: " + json.dumps(environment(args.seed, runs[0].sidecar),
                               sort_keys=True))
    print(f"{args.workload}: {len(runs)} runs, {len(failed)} failed; "
          f"walls " + " ".join(f"{r.wall_s:.3f}" for r in runs))
    if not runs[0].sidecar.get("setup_marked", True):
        print("  no set-up entry point was called; set-up ends at CLI entry")
    for run in failed:
        print(f"  failed: {run.failure}; stderr: "
              f"{run.stderr.strip()[-300:]!r}")
    if args.trace:
        path = os.path.join(WORK, f"trace-{args.workload}.json")
        with open(path, "w") as fh:
            json.dump(trace, fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}; "
              "self time by span (calls, total s, self s):")
        rows = sorted(self_times(trace["spans"]).items(),
                      key=lambda kv: -kv[1][1])
        for span, (calls, total, own) in rows:
            print(f"  {span:28s} {calls:6d} {total:9.3f} {own:9.3f}")
        if trace["missing"]:
            print(f"absent layer hooks: {', '.join(trace['missing'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
