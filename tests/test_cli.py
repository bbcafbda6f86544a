"""CLI behavior: subcommands, exit codes, deterministic output."""

import gc
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import steinlab
from steinlab import cli
from steinlab.cli import main
from steinlab.errors import SteinLabError
from steinlab.sizebias import CoupledPairSampler
from steinlab.specs import build_model


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSteinCheck:
    def test_smoke(self, capsys):
        code, out, err = _run(["stein-check", "--h", "cosine:a=1",
                               "--grid-points", "9"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["max_pde_residual"] <= 1e-3

    @pytest.mark.parametrize("spec,length", [
        ("gauss-radial:p=2:scale=0.01", 0.01),
        ("gauss-radial:p=2:scale=0.001", 0.001),
        ("cosine:a=1000", 0.001)])
    def test_step_follows_the_length_scale_of_h(self, spec, length, capsys):
        """A sharp h is differenced on its own scale: a step of 1e-3 reads
        residuals 1.25e-3, 0.112 and 0.081 on these and fails them. At 21
        points per axis the 0.001 case still fails, since g's quadrature
        level is chosen on a subsample of the batch that misses the peak."""
        code, out, _ = _run(["stein-check", "--h", spec, "--grid-points",
                             "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["max_pde_residual"] < 1e-6
        assert report["config"]["fd_step"] == pytest.approx(1e-3 * length)

    def test_benchmark_run_config(self, capsys):
        """The benchmark's stein-check run reports the fixed extent and
        tolerance, the step for a length scale of 1 and the default
        Gauss-Hermite nodes."""
        code, out, _ = _run(["stein-check", "--h", "cosine:a=1,0.5",
                             "--grid-points", "11"], capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert {key: config[key] for key in
                ("extent", "fd_step", "gh_nodes", "tol")} == {
            "extent": 2.0, "fd_step": 0.001, "gh_nodes": 40, "tol": 0.001}


class TestExperiments:
    def test_degree_count_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, _, err = _run(["degree-count", "--n", "20", "--c", "2",
                             "--degrees", "1,2", "--samples", "2000",
                             "--seed", "3", "--out", str(out_file)], capsys)
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["pass"] is True
        assert payload["experiment"] == "degree-count"
        assert "wall" not in json.dumps(payload)  # timing stays on stderr
        assert "PASS" in err

    def test_color_match_stdout(self, capsys):
        code, out, _ = _run(["color-match", "--graph", "cycle:16",
                             "--colors", "0.5,0.5", "--samples", "2000",
                             "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["experiment"] == "color-match"

    DEGREE_RUN = ["degree-count", "--n", "20", "--c", "2", "--degrees", "1,2",
                  "--samples", "2000"]
    COLOR_RUN = ["color-match", "--graph", "cycle:16", "--colors", "0.5,0.5",
                 "--samples", "2000"]
    # per module: its closed-form moments, and the eigendecompositions of a
    # run (inverse_sqrt's, the logged spectral norm's, and for colourings
    # the PSD margin's)
    MOMENTS = {"degrees": ("theoretical_moments", 2),
               "coloring": ("theoretical_moments", 3),
               "nonlinear": ("gaussian_moments", 2)}

    @pytest.mark.parametrize("module,argv", [
        ("degrees", DEGREE_RUN), ("coloring", COLOR_RUN),
        ("nonlinear", ["nonlinear", "--model", "gauss:rho=0.1,n=20",
                       "--psi", "square", "--samples", "2000"])])
    def test_moments_computed_once_per_run(self, monkeypatch, capsys,
                                           module, argv):
        """A run computes its model's closed-form moments once and whitens
        once, in the model; the driver, the bound and the report's checks
        reuse that ``Sigma^{-1/2}``. Every steinlab module that binds
        ``inverse_sqrt`` is counted, and so is every eigendecomposition."""
        moments, eigs = self.MOMENTS[module]
        calls = {moments: 0, "inverse_sqrt": 0, "eig": 0}

        def counted(owner, name, key):
            def wrapper(*args, _fn=getattr(owner, name), **kw):
                calls[key] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(owner, name, wrapper)

        counted(importlib.import_module(f"steinlab.{module}"), moments,
                moments)
        for info in pkgutil.iter_modules(steinlab.__path__):
            mod = importlib.import_module(f"steinlab.{info.name}")
            if info.name != "linalg" and hasattr(mod, "inverse_sqrt"):
                counted(mod, "inverse_sqrt", "inverse_sqrt")
        counted(np.linalg, "eigh", "eig")
        counted(np.linalg, "eigvalsh", "eig")
        code, _, _ = _run(argv, capsys)
        assert code == 0
        assert calls == {moments: 1, "inverse_sqrt": 1, "eig": eigs}

    def test_whitening_norms_reported_once(self, capsys):
        """The norms of ``Sigma^{-1/2}`` appear once each, at the top level,
        and both multivariate models report the same norm-cap check."""
        def keys(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield k
                    yield from keys(v)
            elif isinstance(node, list):
                for v in node:
                    yield from keys(v)

        caps = []
        for argv in (self.DEGREE_RUN, self.COLOR_RUN):
            code, out, _ = _run(argv, capsys)
            assert code == 0
            report = json.loads(out)
            found = list(keys(report))
            for name in ("sigma_isqrt_max_norm", "sigma_isqrt_spectral_norm"):
                assert found.count(name) == 1 and name in report
            caps.append(sorted(report["isqrt_norm_bound"]))
        assert caps == [["B", "cap", "holds"]] * 2

    def test_nonlinear(self, capsys):
        code, out, _ = _run(["nonlinear", "--model", "gauss:rho=0.1,n=20",
                             "--psi", "square", "--samples", "2000",
                             "--seed", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["model"] == "gauss"

    def test_nonlinear_multinomial(self, capsys):
        code, out, _ = _run(["nonlinear", "--model", "multinomial:n=10,k=2",
                             "--psi", "square",
                             "--samples", "1000", "--seed", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["model"] == "multinomial"

    def test_multinomial_past_float_binomials(self, capsys):
        """1200 balls, where C(1200, k) overflows a float."""
        code, out, err = _run(["nonlinear", "--model", "multinomial:n=600,k=2",
                               "--psi", "square", "--samples", "200"], capsys)
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["config"]["model"] == "multinomial"

    def test_multinomial_exp_past_float_exp(self, capsys):
        """800 balls with psi = exp: e^u overflows past u = 709, where the
        cell-count probability is 0, so those values must add nothing."""
        code, out, err = _run(["nonlinear", "--model", "multinomial:n=400,k=2",
                               "--psi", "exp", "--samples", "200"], capsys)
        assert code == 0 and "Traceback" not in err
        payload = json.loads(out)
        assert np.isfinite(payload["var_cond"])
        assert np.isfinite(payload["sigma"][0][0])

    def test_degree_count_custom_h(self, capsys):
        code, out, _ = _run(["degree-count", "--n", "20", "--c", "2",
                             "--degrees", "1,2", "--h", "cosine:a=0.3,0.2",
                             "--samples", "1000", "--seed", "3"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["h"] == "cosine:a=0.3,0.2:b=0.0"

    @pytest.mark.parametrize("argv", [
        ["degree-count", "--n", "200", "--c", "2", "--degrees", "0,1,2,3,4",
         "--samples", "2000"],
        ["stein-check", "--h", "cosine:a=0.5,0.5,0.5,0.5,0.5",
         "--grid-points", "3"],
        ["stein-check", "--h", "logistic:a=1,1,1,1,1", "--grid-points", "3"],
    ], ids=["degree-count", "stein-check", "stein-check-logistic"])
    def test_five_dimensional_builtin_h(self, argv, capsys):
        """Built-in h smooth without a tensor rule, so p = 5 runs."""
        code, out, _ = _run(argv, capsys)
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_validate_couplings_subset(self, capsys):
        code, out, _ = _run(["validate-couplings", "--which",
                             "degree-count,gauss-square",
                             "--samples", "20000", "--seed", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert set(payload["results"]) == {"degree-count", "gauss-square"}

    def test_validate_couplings_subset_matches_full_run(self, capsys):
        """An entry draws the same samples whichever entries run with it."""
        runs = [json.loads(_run(["validate-couplings", "--which", which,
                                 "--samples", "20000"], capsys)[1])
                for which in ("gauss-square", "all")]
        assert len(runs[1]["results"]) == 6
        assert (runs[0]["results"]["gauss-square"]
                == runs[1]["results"]["gauss-square"])

    def test_registry_holds_every_model_coupler(self, monkeypatch, capsys):
        """No coupler ships unvalidated, the registry holds no other, and
        the size-bias models the experiments run are registry types. A
        private shared base (leading underscore) is not a model, so only
        concrete classes count."""
        defined = set()
        for info in pkgutil.iter_modules(steinlab.__path__):
            module = importlib.import_module(f"steinlab.{info.name}")
            defined |= {cls for _, cls in inspect.getmembers(module,
                                                             inspect.isclass)
                        if issubclass(cls, CoupledPairSampler)
                        and cls is not CoupledPairSampler
                        and not cls.__name__.startswith("_")
                        and cls.__module__ == module.__name__}
        built = {type(build_model(spec)) for spec in cli.COUPLERS.values()}
        assert built == defined

        ran = []

        def capture(model, *args, **kwargs):
            ran.append(type(model))
            raise SteinLabError("model captured")

        monkeypatch.setattr(cli, "run_experiment", capture)
        for argv in (["degree-count", "--n", "20", "--c", "2",
                      "--degrees", "1,2"],
                     ["sweep", "--model", "degree:c=2,degrees=1/2",
                      "--n", "16"],
                     ["nonlinear", "--model", "gauss:rho=0.1,n=20",
                      "--psi", "square"],
                     ["nonlinear", "--model", "multinomial:n=10,k=2",
                      "--psi", "square"]):
            assert _run(argv, capsys)[0] == 1
        assert len(ran) == 4 and set(ran) <= built

    def test_validate_couplings_uses_chunk_size(self, capsys):
        """The chunk size sets the seeded streams, so it moves the
        z-scores; at 0 the run is refused."""
        argv = ["validate-couplings", "--which", "gauss-square",
                "--samples", "2000"]
        default = _run(argv, capsys)[1]
        assert _run(argv + ["--chunk-size", "16384"], capsys)[1] == default
        code, out, _ = _run(argv + ["--chunk-size", "700"], capsys)
        assert code == 0 and out != default

    def test_unknown_coupler_is_usage_error(self, capsys):
        code, _, err = _run(["validate-couplings", "--which", "nope"],
                            capsys)
        assert code == 1


class TestSweep:
    def test_degree_sweep_csv(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = _run(["sweep", "--model", "degree:c=2,degrees=1/2",
                           "--n", "16,32", "--samples", "1500", "--seed", "5",
                           "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "n,bound,gap,gap_stderr"
        assert len(lines) == 3
        n_vals = [int(line.split(",")[0]) for line in lines[1:]]
        assert n_vals == [16, 32]

    def test_color_sweep(self, capsys):
        code, out, _ = _run(["sweep", "--model",
                             "color:graph=cycle,colors=0.5/0.5", "--n",
                             "12,24", "--samples", "1500", "--seed", "5"],
                            capsys)
        assert code == 0
        assert out.startswith("n,bound,gap")

    @staticmethod
    def _single_run(argv, capsys):
        code, out, _ = _run(argv, capsys)
        assert code == 0
        report = json.loads(out)
        return f"{report['bound']['total']!r},{report['gap']!r}"

    @pytest.mark.parametrize("spec,sizes,single", [
        ("degree:pi=0.15,degrees=1/2", (12, 20),
         ["degree-count", "--n", "{n}", "--pi", "0.15", "--degrees", "1,2"]),
        ("color:graph=regular,d=3,colors=0.5/0.5", (20, 30),
         ["color-match", "--graph", "regular:n={n},d=3", "--colors",
          "0.5,0.5"]),
        ("gauss:rho=0.1,psi=square", (10, 20),
         ["nonlinear", "--model", "gauss:rho=0.1,n={n}", "--psi", "square"]),
        ("multinomial:k=2,psi=square", (5, 10),
         ["nonlinear", "--model", "multinomial:n={n},k=2", "--psi",
          "square"]),
    ], ids=["degree", "color", "gauss", "multinomial"])
    def test_sweep_rows_match_single_runs(self, spec, sizes, single, capsys):
        code, out, _ = _run(["sweep", "--model", spec,
                             "--n", ",".join(map(str, sizes)),
                             "--samples", "1000", "--seed", "5"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        for n, row in zip(sizes, rows, strict=True):
            argv = [arg.format(n=n) for arg in single]
            run = self._single_run(argv + ["--samples", "1000", "--seed", "5",
                                           "--chunk-size", "512"], capsys)
            assert row.startswith(f"{n},{run},")

    def test_missing_flags_are_usage_errors(self, capsys):
        code, _, err = _run(["sweep", "--model", "degree:c=2", "--n", "16"],
                            capsys)
        assert code == 1 and "missing key 'degrees'" in err
        # a degree spec takes one of c and pi, never both
        code, _, err = _run(["sweep", "--model",
                             "degree:c=2,pi=0.3,degrees=1/2", "--n", "16"],
                            capsys)
        assert code == 1 and "exactly one of c and pi" in err

    def test_bad_row_refused_before_any_row_runs(self, capsys):
        code, out, err = _run(["sweep", "--model", "degree:c=2,degrees=1",
                               "--n", "2000,3", "--samples", "4000"], capsys)
        assert code == 1
        assert "c = 2.0 at n = 3" in err
        assert "degree-count:" not in err
        assert out == ""


class TestDeterminism:
    @staticmethod
    def _assert_same_bytes_at_thread_caps(argv, tmp_path, chunks=None):
        """Run argv at STEIN_LAB_THREADS 1 and 8; the reports must match.

        ``chunks`` is ``(samples, chunk_size)`` for a report that does not
        echo them."""
        # The children import the same steinlab as this process: src/ in a
        # checkout, site-packages in an install. Only PATH, PYTHONPATH and
        # the thread cap are passed on, so no stray STEIN_LAB_THREADS or
        # BLAS setting reaches them; cwd=tmp_path keeps the working
        # directory from supplying the package.
        package_root = os.path.dirname(os.path.dirname(steinlab.__file__))
        inherited = os.environ.get("PYTHONPATH")
        pythonpath = os.pathsep.join(
            [package_root, inherited] if inherited else [package_root])
        outputs = []
        for threads in ("1", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "steinlab.cli", *argv],
                capture_output=True, text=True, cwd=tmp_path,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath,
                     "STEIN_LAB_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        # The comparison means something only if the report is on stdout
        # and the run spans several chunks for the workers to share.
        assert outputs[0]
        report = json.loads(outputs[0])
        assert report["pass"] is True
        samples, chunk_size = chunks or (report["samples"],
                                         report["chunk_size"])
        assert samples > chunk_size
        assert outputs[0] == outputs[1]

    def test_same_argv_same_bytes(self, tmp_path):
        """Identical seed and chunking give byte-identical reports even
        when the thread cap changes."""
        self._assert_same_bytes_at_thread_caps(
            ["degree-count", "--n", "16", "--c", "2", "--degrees", "1,2",
             "--samples", "3000", "--seed", "11"], tmp_path)

    def test_gaussian_indicator_same_bytes(self, tmp_path):
        """The pairwise indicator kernel's buffers are per call, so chunks
        on concurrent workers give the same bytes as on one."""
        self._assert_same_bytes_at_thread_caps(
            ["nonlinear", "--model", "gauss:rho=0.1,n=16", "--psi",
             "indicator", "--samples", "3000", "--chunk-size", "512",
             "--seed", "11"], tmp_path)

    def test_gaussian_square_same_bytes(self, tmp_path):
        """The O(n) sampler and the row-sum square kernel, at rho < 0, give
        the same bytes on any number of workers."""
        self._assert_same_bytes_at_thread_caps(
            ["nonlinear", "--model", "gauss:rho=-0.002,n=300", "--psi",
             "square", "--samples", "3000", "--chunk-size", "512",
             "--seed", "11"], tmp_path)

    def test_multinomial_same_bytes(self, tmp_path):
        """The ball-transfer coupling and the histogram kernel give the
        same bytes on any number of workers."""
        self._assert_same_bytes_at_thread_caps(
            ["nonlinear", "--model", "multinomial:n=100,k=2", "--psi",
             "square", "--samples", "3000", "--chunk-size", "512",
             "--seed", "11"], tmp_path)

    def test_color_match_same_bytes(self, tmp_path):
        """The local-dependence pass, which also scores each chunk's W for
        the gap, gives the same bytes on any number of workers."""
        self._assert_same_bytes_at_thread_caps(
            ["color-match", "--graph", "regular:n=40,d=3", "--colors",
             "0.3,0.3,0.4", "--samples", "3000", "--chunk-size", "512",
             "--seed", "11"], tmp_path)

    def test_validate_couplings_same_bytes(self, tmp_path):
        """Every registry entry's characterization check, at the reference
        run's sample count (13 chunks per coordinate), gives the same bytes
        on any number of workers."""
        self._assert_same_bytes_at_thread_caps(
            ["validate-couplings", "--samples", "200000", "--seed", "11"],
            tmp_path, chunks=(200000, 16384))


class TestImports:
    def test_stein_check_loads_no_model_module(self, tmp_path):
        """A subcommand imports its model module only when it runs, so a
        run holds only the modules it uses."""
        package_root = os.path.dirname(os.path.dirname(steinlab.__file__))
        script = ("import sys\n"
                  "from steinlab import cli\n"
                  "code = cli.main(['stein-check', '--h', 'cosine:a=1',\n"
                  "                 '--grid-points', '3'])\n"
                  "print(code, sorted(m for m in sys.modules if m in {\n"
                  "    'steinlab.coloring', 'steinlab.degrees',\n"
                  "    'steinlab.nonlinear'}),\n"
                  "      file=sys.stderr)\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=tmp_path,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("argv,unused", [
        (["sweep", "--model", "gauss:rho=0.1,psi=square", "--n", "10"],
         ["steinlab.coloring", "steinlab.degrees"]),
        (["degree-count", "--n", "10", "--c", "2", "--degrees", "1"],
         ["steinlab.coloring", "steinlab.nonlinear"]),
    ], ids=["sweep-gauss", "degree-count"])
    def test_run_loads_only_its_model_module(self, tmp_path, argv, unused):
        """A model spec's builder imports its model module when it is
        called, so a run leaves the other models' modules unloaded."""
        package_root = os.path.dirname(os.path.dirname(steinlab.__file__))
        script = ("import sys\n"
                  "from steinlab import cli\n"
                  f"code = cli.main({argv + ['--samples', '200']!r})\n"
                  f"loaded = [m for m in {unused!r} if m in sys.modules]\n"
                  "print(code, loaded, file=sys.stderr)\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=tmp_path,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 []"


class TestExit:
    @pytest.mark.parametrize("argv", [
        ["stein-check", "--h", "cosine:a=1", "--grid-points", "3"],
        ["stein-check"]])
    def test_process_exits_with_heap_frozen(self, tmp_path, argv):
        """A CLI process freezes its heap at exit, after a run and after a
        usage error alike. The probe is registered first, so it runs after
        the CLI's exit handler."""
        package_root = os.path.dirname(os.path.dirname(steinlab.__file__))
        script = ("import atexit, gc, sys\n"
                  "from steinlab import cli\n"
                  "atexit.register(lambda: print(gc.get_freeze_count(),\n"
                  "                              file=sys.stderr))\n"
                  f"sys.exit(cli.main({argv!r}))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=tmp_path,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root})
        assert proc.returncode in (0, 1), proc.stderr
        assert int(proc.stderr.splitlines()[-1]) > 0

    def test_in_process_call_keeps_the_collector(self, capsys):
        """The freeze waits for the interpreter's exit: a call in a running
        process freezes nothing."""
        before = gc.get_freeze_count()
        code, _, _ = _run(["stein-check", "--h", "cosine:a=1",
                           "--grid-points", "3"], capsys)
        assert code == 0
        assert gc.get_freeze_count() == before

    def test_heap_kept_once_and_only_for_monte_carlo(self, capsys,
                                                      monkeypatch):
        """A command that runs Monte Carlo chunks sets glibc's mmap
        threshold to its 32 MiB maximum and the trim threshold to 1 GiB,
        once per process; stein-check leaves the allocator alone."""
        calls = []

        class LibC:
            def mallopt(self, *args):
                calls.append(args)

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: LibC())
        cli._keep_heap.cache_clear()
        try:
            assert _run(["stein-check", "--h", "cosine:a=1",
                         "--grid-points", "3"], capsys)[0] == 0
            assert calls == []
            for _ in range(2):
                assert _run(["degree-count", "--n", "10", "--c", "2",
                             "--degrees", "1", "--samples", "200"],
                            capsys)[0] == 0
            assert calls == [(-3, 32 << 20), (-1, 1 << 30)]
        finally:
            cli._keep_heap.cache_clear()


class TestUsageErrors:
    def test_bad_flag(self, capsys):
        # argparse errors are remapped: 1 is usage, 2 is reserved for
        # bound violations
        assert main(["degree-count", "--badflag"]) == 1

    DEGREE = ["degree-count", "--n", "20", "--c", "2", "--degrees", "1,2"]
    COLOR = ["color-match", "--graph", "cycle:16", "--colors", "0.5,0.5"]
    GAUSS = ["nonlinear", "--model", "gauss:rho=0.1,n=20", "--psi", "square"]
    MULTI = ["nonlinear", "--model", "multinomial:n=10,k=2", "--psi",
             "square", "--samples", "200"]

    @pytest.mark.parametrize("argv,message", [
        (DEGREE + ["--samples", "1"], "at least 100 samples, got 1"),
        (COLOR + ["--samples", "0"], "at least 100 samples, got 0"),
        (COLOR + ["--samples", "1"], "at least 100 samples, got 1"),
        (GAUSS + ["--samples", "0"], "at least 100 samples, got 0"),
        (GAUSS + ["--samples", "1"], "at least 100 samples, got 1"),
        (MULTI + ["--inner", "4"], "unrecognized arguments: --inner 4"),
        (["color-match", "--graph", "regular:n=10,d=0", "--colors", "0.5,0.5"],
         "need 0 < d < n"),
        (DEGREE + ["--h", "cosine:a=1"], "dimension 1, expected 2"),
        (["nonlinear", "--model", "gauss:rho=0.1", "--psi", "square"],
         "'gauss:rho=0.1' is missing key 'n'"),
        (["nonlinear", "--model", "gauss:n", "--psi", "square"],
         "'n' is not key=value"),
        (["nonlinear", "--model", "gauss:n=ten", "--psi", "square"],
         "n='ten' is not a valid int"),
        (["color-match", "--graph", "regular:n=20", "--colors", "0.5,0.5"],
         "'regular:n=20' is missing key 'd'"),
        (["sweep", "--model", "color:graph=regular,colors=0.5/0.5", "--n",
          "20"], "'regular:n=20' is missing key 'd'"),
        (["validate-couplings", "--which", "degree-count", "--samples", "0"],
         "at least 100 samples, got 0"),
        (["validate-couplings", "--which", "gauss-square", "--samples", "1"],
         "at least 100 samples, got 1"),
        (["color-match", "--graph", "regular:n=7,d=3", "--colors", "0.5,0.5"],
         "n*d must be even"),
        (["stein-check", "--h", "cosine:a=1", "--grid-points", "0"],
         "--grid-points must be at least 1, got 0"),
        # P(degree 200) is 1e-316: finite now, but the covariance is singular
        (["degree-count", "--n", "100000", "--c", "2", "--degrees", "1,200"],
         "leave degree 200 out of --degrees"),
        # 1000 balls in 2 cells: e^u at counts past 709 has probability > 0
        (["nonlinear", "--model", "multinomial:n=2,k=500", "--psi", "exp",
          "--samples", "200"], "psi = exp overflows a float on 1000 balls"),
        # pair covariance rho is a law only for -1/(n-1) < rho < 1
        (["nonlinear", "--model", "gauss:rho=1,n=64", "--psi", "square"],
         "rho = 1.0 at n = 64 is not positive definite: "
         "need -1/(n-1) < rho < 1, here -0.015873 < rho < 1"),
        (["nonlinear", "--model", "gauss:rho=-0.5,n=64", "--psi", "square"],
         "rho = -0.5 at n = 64 is not positive definite: "
         "need -1/(n-1) < rho < 1, here -0.015873 < rho < 1"),
        # the check settings are constants, not flags
        (["stein-check", "--h", "cosine:a=1", "--fd-step", "0.001"],
         "unrecognized arguments: --fd-step 0.001"),
        (["degree-count", "--n", "1", "--c", "1", "--degrees", "0"],
         "need n >= 2 vertices, got n = 1"),
        (["stein-check", "--h", "gauss-radial:p=0", "--grid-points", "3"],
         "gauss-radial needs p >= 1, got p=0"),
        (["stein-check", "--h", "cosine:a="],
         "--h: spec 'cosine:a=': a='' is not a valid float list"),
        (["stein-check", "--h", "cosine:a=1,x"],
         "--h: spec 'cosine:a=1,x': a='1,x' is not a valid float list"),
        (["stein-check", "--h", "cosine:a=1:scale=3", "--grid-points", "3"],
         "--h: spec 'cosine:a=1:scale=3': key 'scale' is not allowed"),
        (["stein-check", "--h", "gauss-radial:p=1:a=2"],
         "--h: spec 'gauss-radial:p=1:a=2': key 'a' is not allowed"),
        (["stein-check", "--h", "cosine:a=1", "--gh-nodes", "0"],
         "--gh-nodes must be at least 2, got 0"),
        (["validate-couplings", "--which", "gauss-square", "--chunk-size",
          "0"], "--chunk-size must be at least 1, got 0"),
        # an empty or non-finite list names its flag
        (["degree-count", "--n", "20", "--c", "2", "--degrees", ","],
         "argument --degrees: ',' is not a list of finite numbers"),
        (["sweep", "--model", "degree:c=2,degrees=1/2", "--n", ","],
         "argument --n: ',' is not a list of finite numbers"),
        (["color-match", "--graph", "cycle:16", "--colors", "0.5,nan"],
         "argument --colors: '0.5,nan' is not a list of finite numbers"),
        (["degree-count", "--n", "20", "--c", "2", "--degrees", "1,x"],
         "argument --degrees: invalid int list value: '1,x'"),
        (["stein-check", "--h", "cosine:a=1", "--extent", "2"],
         "unrecognized arguments: --extent 2"),
        (["stein-check", "--h", "cosine:a=1", "--tol", "0.001"],
         "unrecognized arguments: --tol 0.001"),
        (["validate-couplings", "--which", "gauss-square", "--threshold",
          "4"], "unrecognized arguments: --threshold 4"),
        (["validate-couplings", "--which", "degree-count,degree-count"],
         "--which names 'degree-count' more than once"),
        (["color-match", "--graph", "cycle:16", "--colors", "1e-300,1"],
         "color 1 has mass 1e-300, too little for its count to vary"),
        (["color-match", "--graph", "cycle:16", "--colors", "0.5,0.5",
          "--h", "cosine:a=nan,1"], "--h: cosine parameters must be finite"),
        (["stein-check", "--h", "gauss-radial:p=2:scale=nan"],
         "--h: gauss-radial parameters must be finite"),
        (["degree-count", "--n", "20", "--c", "nan", "--degrees", "1,2"],
         "--c must be finite, got nan"),
        (["degree-count", "--n", "20", "--c", "inf", "--degrees", "1,2"],
         "--c must be finite, got inf"),
        (["degree-count", "--n", "20", "--pi", "nan", "--degrees", "1,2"],
         "--pi must be finite, got nan"),
        (["sweep", "--model", "degree:c=nan,degrees=1/2", "--n", "20,40"],
         "error: c must be finite, got nan"),
        (["sweep", "--model", "degree:pi=inf,degrees=1/2", "--n", "20"],
         "error: pi must be finite, got inf"),
        # a graph size that is not an integer names the spec
        (["color-match", "--graph", "cycle:abc", "--colors", "0.5,0.5"],
         "spec 'cycle:abc': size 'abc' is not a valid int"),
        (["color-match", "--graph", "complete:", "--colors", "0.5,0.5"],
         "spec 'complete:': size '' is not a valid int"),
        (["color-match", "--graph", "matching:x", "--colors", "0.5,0.5"],
         "spec 'matching:x': size 'x' is not a valid int"),
        # one color makes every edge monochromatic: W is constant
        (["color-match", "--graph", "cycle:10", "--colors", "1"],
         "--colors needs at least 2 colors: with one color every edge is "
         "monochromatic, so W is constant"),
        # options that changed no certified number are gone
        (["degree-count", "--n", "4", "--pi", "0.5", "--degrees", "1",
          "--oracle"], "unrecognized arguments: --oracle"),
        (["color-match", "--graph", "complete:3", "--colors", "0.5,0.5",
          "--oracle"], "unrecognized arguments: --oracle"),
        (["nonlinear", "--model", "gauss:rho=0.1,n=64", "--psi", "square",
          "--raw-psi"], "unrecognized arguments: --raw-psi"),
        # an edge probability outside (0, 1) names its flag and value
        (["degree-count", "--n", "10", "--pi", "1.5", "--degrees", "1"],
         "--pi = 1.5: the edge probability must lie strictly in (0, 1)"),
        (["degree-count", "--n", "10", "--pi", "0", "--degrees", "1"],
         "--pi = 0.0: the edge probability must lie strictly in (0, 1)"),
        (["degree-count", "--n", "3", "--c", "2", "--degrees", "1"],
         "--c = 2.0 at n = 3, so pi = c/(n-1) = 1: the edge probability "
         "must lie strictly in (0, 1)"),
        (["sweep", "--model", "degree:c=2,degrees=1", "--n", "20,3"],
         "error: c = 2.0 at n = 3, so pi = c/(n-1) = 1"),
        # a colour of mass 1e-6 leaves the covariance numerically singular
        (["color-match", "--graph", "cycle:16", "--colors",
          "0.4999995,0.4999995,0.000001"],
         "color 3 has mass 1e-06, too little for its count to vary"),
        # a key set both in a spec and by a flag is refused, never overridden
        (["nonlinear", "--model", "gauss:n=20,psi=exp", "--psi", "square"],
         "key 'psi' is also set by --psi"),
        (["sweep", "--model", "degree:n=10,c=2,degrees=1", "--n", "20"],
         "key 'n' is also set by --n"),
        (["validate-couplings", "--which", "nope"],
         "error: unknown coupler 'nope'"),
    ])
    def test_rejected_input_names_the_problem(self, argv, message, capsys):
        code, out, err = _run(argv, capsys)
        assert code == 1
        assert message in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        DEGREE + ["--samples", "200", "--seed", str(2**64)],
        ["color-match", "--graph", "regular:n=40,d=3", "--colors", "0.5,0.5",
         "--samples", "200", "--seed", str(2**64)],
        ["validate-couplings", "--samples", "200", "--seed", str(2**64)],
    ], ids=["degree-count", "color-match", "validate-couplings"])
    def test_seed_past_key_word_is_refused(self, argv, capsys):
        """A seed is the first 64-bit word of the stream key: 2**64 would
        alias seed 0, so it is refused, by name, before any model runs."""
        code, out, err = _run(argv, capsys)
        assert code == 1 and out == ""
        assert f"--seed must lie in [0, 2**64), got {2**64}" in err
        assert "Traceback" not in err

    def test_validation_seed_past_key_word_is_refused(self, capsys):
        """Each entry after the first draws from seed + its index, so the
        largest seed runs none of them."""
        code, out, err = _run(["validate-couplings", "--samples", "200",
                               "--seed", str(2**64 - 1)], capsys)
        assert code == 1 and out == ""
        assert (f"--seed {2**64 - 1}: gauss-exp draws from seed {2**64}"
                in err)

    @pytest.mark.parametrize("spec,message", [
        ("cosine:a=1,1,1,1", f"{21**4} grid points times 137 stencil offsets"),
        ("cosine:a=1,1,1,1,1", f"{21**5} grid points times 241 stencil "
                               "offsets"),
        ("cosine:a=1,1,1,1,1,1", "21**6 grid points is more than 4194304")])
    def test_check_past_point_cap_is_refused(self, spec, message, capsys):
        """At the default 21 grid points a p = 4 or 5 check would evaluate
        g at 27M or 984M points, and the p = 6 grid alone would take 4 GB;
        each is refused before it is built."""
        code, out, err = _run(["stein-check", "--h", spec], capsys)
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize("spec", ["cosine:a=1e300,1", "logistic:a=1e200",
                                      "gauss-radial:p=1:scale=1e-120",
                                      "gauss-radial:p=1:scale=1e-105"])
    @pytest.mark.parametrize("command", [["stein-check"], DEGREE],
                             ids=["stein-check", "degree-count"])
    def test_overflowing_h_is_refused(self, command, spec, capsys):
        """An h whose derivative sup-norms overflow a float is refused
        when parsed, before any run. The first three raise in the norm
        arithmetic; the last divides by a subnormal ``s**3`` and reads
        ``||D^3 h|| = inf``."""
        code, out, err = _run(command + ["--h", spec], capsys)
        assert code == 1 and out == ""
        assert "error: --h: " in err
        assert "derivative sup-norms overflow a float" in err
