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


_STATS_HOOKS = ("degrees.stats", "nonlinear.stats", "coloring.stats")


def _count_calls(monkeypatch, target, counts, name):
    """Wrap ``target`` with a call counter wherever a ``steinlab`` module
    binds it, as the tracer's ``patch`` does, undone after the test."""
    owner, attr, original = TRACER.resolve(target)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "steinlab" or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, wrapper)
    assert getattr(owner, attr) is wrapper


@pytest.mark.parametrize("argv,hook", [
    (["degree-count", "--n", "20", "--c", "2", "--degrees", "1,2",
      "--samples", "200"], "degrees.stats"),
    (["nonlinear", "--model", "gauss:rho=0.1,n=16", "--psi", "indicator",
      "--samples", "200"], "nonlinear.stats"),
    (["color-match", "--graph", "cycle:16", "--colors", "0.5,0.5",
      "--samples", "200"], "coloring.stats"),
], ids=["degree-count", "nonlinear", "color-match"])
def test_stats_hooks_stay_on_the_call_path(argv, hook, monkeypatch, capsys):
    """A run calls its model's statistics hook once and makes one
    ``parallel_mc`` pass through it, so the layer metrics built from those
    spans see the run's sampling."""
    from steinlab import cli
    counts = dict.fromkeys(_STATS_HOOKS + ("harness.parallel_mc",), 0)
    for name in counts:
        _count_calls(monkeypatch, TRACER.HOOKS[name][0], counts, name)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert counts == {**dict.fromkeys(_STATS_HOOKS, 0), hook: 1,
                      "harness.parallel_mc": 1}
