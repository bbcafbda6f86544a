"""Every span hook of the benchmark tracer names an entry point that exists.

A refactor that renames or drops a hooked entry point would otherwise only
zero the benchmark's layer metrics built from it. The tracer is loaded
from its file without writing bytecode next to it.
"""

import importlib.util
import os
import sys

import pytest

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("name", sorted(TRACER.HOOKS))
def test_hook_target_resolves(name):
    target, _ = TRACER.HOOKS[name]
    assert TRACER.resolve(target) is not None, f"{name}: {target} is gone"
