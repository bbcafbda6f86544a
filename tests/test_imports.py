"""The package imports only the standard library, numpy and itself.

scipy and hypothesis are test-only dependencies; an import of either, or of
anything else, in ``src/steinlab`` would make the installed package need it.
"""

import ast
import pathlib
import sys

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
