"""Reference reports: small runs of every command against checked-in values.

Each configuration of :data:`CONFIGS` runs in process through ``cli.main``.
The named fields of its report (bound total and terms, gap, gap_stderr,
pass, coupling z-scores, Stein residual and derivative violations) must
equal those in ``reference_reports.json`` to 12 significant digits. A
change that must move them rewrites the file with

    PYTHONPATH=src python tests/test_reference_reports.py

and says in CHANGES.md which fields moved, and why.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from steinlab import cli

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference_reports.json")

CONFIGS = {
    "degree-count": ["degree-count", "--n", "200", "--c", "2",
                     "--degrees", "1,2", "--samples", "2000"],
    "color-match": ["color-match", "--graph", "cycle:64",
                    "--colors", "0.5,0.5", "--samples", "2000"],
    **{f"gauss-{psi}": ["nonlinear", "--model", "gauss:rho=0.1,n=16",
                        "--psi", psi, "--samples", "2000"]
       for psi in ("square", "exp", "indicator")},
    "multinomial-square": ["nonlinear", "--model", "multinomial:n=10,k=2",
                           "--psi", "square", "--samples", "2000"],
    "validate-couplings": ["validate-couplings", "--which", "degree-count",
                           "--samples", "20000"],
    "stein-check": ["stein-check", "--h", "cosine:a=1,0.5",
                    "--grid-points", "5"],
}


def _digits(value):
    """``value`` with every float rounded to 12 significant digits."""
    if isinstance(value, list):
        return [_digits(v) for v in value]
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def fields(report: dict) -> dict:
    """The compared fields of one report, by name."""
    out = {"pass": report["pass"]}
    if "bound" in report:
        out["bound.total"] = report["bound"]["total"]
        for term in report["bound"]["terms"]:
            out[f"bound.{term['name']}"] = term["value"]
        out["gap"] = report["gap"]
        out["gap_stderr"] = report["gap_stderr"]
    for name, entry in report.get("results", {}).items():
        out[f"{name}.zscores"] = entry["zscores"]
    if "max_pde_residual" in report:
        out["max_pde_residual"] = report["max_pde_residual"]
        for order, excess in report["derivative_violations"].items():
            out[f"violation.{order}"] = excess
    return {key: _digits(value) for key, value in out.items()}


def run(name: str, out_path: str) -> dict:
    """The compared fields of configuration ``name``'s report."""
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(CONFIGS[name] + ["--out", out_path])
    with open(out_path) as fh:
        report = json.load(fh)
    assert code == (cli.EXIT_OK if report["pass"] else cli.EXIT_VIOLATION)
    return fields(report)


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def test_every_configuration_has_a_reference(reference):
    assert sorted(reference) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_reference(name, reference, tmp_path):
    assert run(name, str(tmp_path / "report.json")) == reference[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: run(name, os.path.join(tmp, "report.json"))
                 for name in sorted(CONFIGS)}
    with open(REFERENCE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
