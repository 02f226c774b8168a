"""The names ``perfbench/tracer.py`` traces still resolve in the package.

The tracer wraps 28 public entry points by name, and its counter hooks read
``build_level(...).outer.arcs`` and ``hyperbolic_cover(...)[0].squares``.  A
refactor that renames one of them, or changes the shape a hook reads, would
silently break ``--trace 1``; these tests fail first.  The tracer module is
only read, never changed.
"""

import importlib
import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

from liminfdim.level_sets import LevelParams, build_level
from liminfdim.multiplicative import hyperbolic_cover

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
NAMES = [(layer, attr) for layer, attrs in tracer.SPANS for attr in attrs]


def test_all_names_listed():
    assert len(NAMES) == 28
    assert set(tracer._HOOKS) <= set(tracer.SPAN_NAMES)


@pytest.mark.parametrize("layer, attr", NAMES, ids=[f"{l}.{a}" for l, a in NAMES])
def test_traced_name_resolves(layer, attr):
    owner = importlib.import_module(f"liminfdim.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer patches the class's own attribute, so it must not be inherited
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))


def test_hook_result_shapes():
    level = build_level(5, LevelParams(theta=(F(0),), tau=F(1)))
    assert len(level.outer.arcs) == 5
    assert all(len(arc) == 2 for arc in level.outer.arcs)
    cover = hyperbolic_cover(F(1, 64), F(8, 5))
    assert len(cover[0].squares) == cover[0].total_squares()
