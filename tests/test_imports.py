"""The package imports only the standard library, numpy and itself.

scipy and hypothesis are test-only dependencies; an import of either, or of
anything else, in ``src/steinlab`` would make the installed package need it.
A run imports no more of numpy than its kernels use.
"""

import ast
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "steinlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "steinlab"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield ("steinlab" if node.level
                   else node.module.partition(".")[0])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_imports_stdlib_numpy_or_steinlab(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted(set(_imported_roots(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


def test_degree_count_run_leaves_numpy_ma_unimported():
    """A ``degree-count`` run imports no ``numpy.ma``: ``np.unique``
    without indices imports it on its first call, inside the run's timed
    pass, and the degree kernel does not call it."""
    code = ("import sys\n"
            "from steinlab.cli import main\n"
            "code = main(['degree-count', '--n', '30', '--c', '2',\n"
            "             '--degrees', '1,2', '--samples', '2000',\n"
            "             '--out', sys.argv[1]])\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run([sys.executable, "-c", code,
                              os.path.join(tmp, "report.json")],
                             env=env, capture_output=True, text=True,
                             check=True)
    assert out.stdout.split() == ["0", "False"], out.stderr
