"""CLI behavior: subcommands, exit codes, deterministic output."""

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
from steinlab import cli, validation
from steinlab.cli import main
from steinlab.errors import SteinLabError
from steinlab.sizebias import CoupledPairSampler


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


class TestOracleModes:
    def test_degree_oracle_matches(self, capsys):
        code, out, _ = _run(["degree-count", "--n", "4", "--pi", "0.5",
                             "--degrees", "1", "--oracle"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        np.testing.assert_allclose(payload["lambda_exact"], [1.5])

    def test_degree_oracle_refuses_large(self, capsys):
        code, _, err = _run(["degree-count", "--n", "9", "--pi", "0.5",
                             "--degrees", "1", "--oracle"], capsys)
        assert code == 1 and "too large" in err

    def test_color_oracle_matches(self, capsys):
        code, out, _ = _run(["color-match", "--graph", "complete:3",
                             "--colors", "0.5,0.5", "--oracle"], capsys)
        assert code == 0
        assert json.loads(out)["match"] is True


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
        built = {type(build()) for build in validation.build_registry().values()}
        assert built == defined

        ran = []

        def capture(model, *args, **kwargs):
            ran.append(type(model))
            raise SteinLabError("model captured")

        monkeypatch.setattr(cli, "run_experiment", capture)
        for argv in (["degree-count", "--n", "20", "--c", "2",
                      "--degrees", "1,2"],
                     ["sweep", "degree-count", "--n", "16", "--c", "2",
                      "--degrees", "1,2"],
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
        code, _, _ = _run(["sweep", "degree-count", "--n", "16,32",
                           "--c", "2", "--degrees", "1,2",
                           "--samples", "1500", "--seed", "5",
                           "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "n,bound,gap,gap_stderr"
        assert len(lines) == 3
        n_vals = [int(line.split(",")[0]) for line in lines[1:]]
        assert n_vals == [16, 32]

    def test_color_sweep(self, capsys):
        code, out, _ = _run(["sweep", "color-match", "--n", "12,24",
                             "--colors", "0.5,0.5", "--graph-family",
                             "cycle", "--samples", "1500", "--seed", "5"],
                            capsys)
        assert code == 0
        assert out.startswith("n,bound,gap")

    @staticmethod
    def _single_run(argv, capsys):
        code, out, _ = _run(argv, capsys)
        assert code == 0
        report = json.loads(out)
        return f"{report['bound']['total']!r},{report['gap']!r}"

    def test_degree_sweep_pi_rows_match_single_runs(self, capsys):
        code, out, _ = _run(["sweep", "degree-count", "--n", "12,20",
                             "--pi", "0.15", "--degrees", "1,2",
                             "--samples", "1000", "--seed", "5"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        for n, row in zip((12, 20), rows):
            single = self._single_run(
                ["degree-count", "--n", str(n), "--pi", "0.15",
                 "--degrees", "1,2", "--samples", "1000", "--seed", "5",
                 "--chunk-size", "512"], capsys)
            assert row.startswith(f"{n},{single},")

    def test_color_sweep_regular_rows_match_single_runs(self, capsys):
        code, out, _ = _run(["sweep", "color-match", "--n", "20,30",
                             "--colors", "0.5,0.5",
                             "--graph-family", "regular:d=3",
                             "--samples", "1000", "--seed", "5"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        for n, row in zip((20, 30), rows):
            single = self._single_run(
                ["color-match", "--graph", f"regular:n={n},d=3",
                 "--colors", "0.5,0.5", "--samples", "1000", "--seed", "5",
                 "--chunk-size", "512"], capsys)
            assert row.startswith(f"{n},{single},")

    def test_missing_flags_are_usage_errors(self, capsys):
        code, _, err = _run(["sweep", "degree-count", "--n", "16"], capsys)
        assert code == 1 and "--degrees" in err
        # degree-count's own parser takes one of --c and --pi, never both
        code, _, err = _run(["sweep", "degree-count", "--n", "16", "--c", "2",
                             "--pi", "0.3", "--degrees", "1,2"], capsys)
        assert code == 1 and "--c" in err and "--pi" in err


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
                  "    'steinlab.nonlinear', 'steinlab.validation'}),\n"
                  "      file=sys.stderr)\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=tmp_path,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 []"


class TestUsageErrors:
    def test_bad_flag(self, capsys):
        # argparse errors are remapped: 1 is usage, 2 is reserved for
        # bound violations
        assert main(["degree-count", "--badflag"]) == 1

    def test_invalid_pi(self, capsys):
        code, _, err = _run(["degree-count", "--n", "10", "--pi", "1.5",
                             "--degrees", "1"], capsys)
        assert code == 1 and "error" in err

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
        (["sweep", "color-match", "--n", "20", "--colors", "0.5,0.5",
          "--graph-family", "regular"], "'regular:n=20' is missing key 'd'"),
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
        (["stein-check", "--h", "cosine:a=1", "--fd-step", "0",
          "--grid-points", "3"], "--fd-step must be positive, got 0.0"),
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
        (["sweep", "degree-count", "--n", ",", "--c", "2", "--degrees",
          "1,2"], "argument --n: ',' is not a list of finite numbers"),
        (["color-match", "--graph", "cycle:16", "--colors", "0.5,nan"],
         "argument --colors: '0.5,nan' is not a list of finite numbers"),
        (["degree-count", "--n", "20", "--c", "2", "--degrees", "1,x"],
         "argument --degrees: invalid int list value: '1,x'"),
        (["stein-check", "--h", "cosine:a=1", "--extent", "nan"],
         "--extent must be positive, got nan"),
        (["stein-check", "--h", "cosine:a=1", "--extent", "0"],
         "--extent must be positive, got 0.0"),
        (["stein-check", "--h", "cosine:a=1", "--extent", "-1"],
         "--extent must be positive, got -1.0"),
        (["stein-check", "--h", "cosine:a=1", "--tol", "nan"],
         "--tol must be positive, got nan"),
        (["stein-check", "--h", "cosine:a=1", "--fd-step", "inf"],
         "--fd-step must be positive, got inf"),
        (["color-match", "--graph", "cycle:16", "--colors", "0.5,0.5",
          "--h", "cosine:a=nan,1"], "--h: cosine parameters must be finite"),
        (["stein-check", "--h", "gauss-radial:p=2:scale=nan"],
         "--h: gauss-radial parameters must be finite"),
    ])
    def test_rejected_input_names_the_problem(self, argv, message, capsys):
        code, out, err = _run(argv, capsys)
        assert code == 1
        assert message in err and "Traceback" not in err
        assert out == ""
