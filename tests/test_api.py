"""The public surface: every exported name resolves, and the README's library
example runs and shows the values it documents."""
import importlib
import pathlib
import pkgutil
import re
import types

import numpy as np
import pytest

import frontsim
import frontsim.cli
from frontsim.classical import EventKind

from conftest import merge_setup

MODULES = ["frontsim"] + [f"frontsim.{m.name}" for m in pkgutil.iter_modules(frontsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    # a name left in __all__ after its definition is deleted breaks
    # `from module import *` only, so nothing else would notice
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def _tracing() -> types.ModuleType:
    """perfbench/tracing.py, compiled from its source so that nothing is
    written beside it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing.__dict__)
    return tracing


def test_tracer_patches_existing_names():
    # perfbench/tracing.py patches frontsim's callables by name, through
    # owner.__dict__[attr]; one deleted or renamed here would fail only the
    # traced benchmark runs
    patches = _tracing().Tracer()._patches(frontsim)
    missing = [(owner.__name__, attr) for owner, attr, _ in patches if attr not in owner.__dict__]
    assert len(patches) > 0 and missing == []


def test_tracer_reads_the_knots_of_every_segment(pstar):
    # the tracer counts a segment's knots as args[2].xs, the third positional
    # argument run_weak passes to weak.run_segment: the initial profile, then
    # after each event the continued field
    tracer = _tracing().Tracer()
    with tracer.installed(frontsim):
        w = frontsim.weak.run_weak(pstar, *merge_setup(pstar), 3.0)
    assert len(w.events) == 1 and tracer.counts["weak.segments"] == 2
    assert tracer.counts["weak.knots_total"] == sum(np.size(seg.profile_start.xs) for seg in w.segments)


def test_readme_library_example():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    ns: dict = {}
    exec(compile(code, "README.md", "exec"), ns)
    w = ns["w"]
    assert w.events[0].kind is EventKind.MERGE
    assert w.events[0].time == pytest.approx(1.0, abs=1e-6)
    live = ns["row"][~np.isnan(ns["row"])]
    assert live == pytest.approx([-6.0, 6.0], abs=1e-8)
