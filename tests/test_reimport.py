"""A re-imported package frees the copy it replaces.

Deleting the ``liminfdim`` modules from ``sys.modules`` and importing them
again (as a benchmark or a notebook reload does) must leave nothing that
holds the old modules' classes, the old ``numerics``' log2 cache of its
``Enclosure`` instances and the old ``dimension``'s walk cache of its
``CoverReport`` instances included.  A type alias written with ``typing``'s
subscript forms (``Union[...]``, ``typing.Callable[...]``) is kept in
``typing``'s per-form cache, and each copy of the classes it names stays
alive through it, with everything those classes reach.

The check runs in a subprocess, so the other tests keep their class
identities.  ``liminfdim.__main__`` is left out: importing it runs the CLI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import get_args

from liminfdim.sequences import (
    AlternatingSpec,
    ContractiveSpec,
    ExplicitSpec,
    PowerSpec,
    SequenceSpec,
)

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import gc, importlib, json, pkgutil, sys, weakref

import liminfdim

names = ["liminfdim"] + sorted(f"liminfdim.{m.name}" for m in pkgutil.iter_modules(liminfdim.__path__)
                               if m.name != "__main__")


def exercise():
    from liminfdim.cli import run
    from liminfdim.config import load_config
    for cfg in ("power4_bracket.cfg", "multiplicative.cfg"):
        run(load_config(sys.argv[1] + "/" + cfg), canonical=True)
    from liminfdim.dimension import upper_dim_estimate
    from liminfdim.sequences import QSequence
    upper_dim_estimate(QSequence((4, 100, 20000)), 1)


def classes():
    refs = {}
    for name in names:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                refs[f"{name}.{attr}"] = weakref.ref(value)
    return refs


old = classes()
exercise()
# the process's log2 cache holds the old Enclosure class's instances
assert sys.modules["liminfdim.numerics"]._log2_cached.cache_info().currsize > 0
# and its walk cache the old CoverReport class's
assert sys.modules["liminfdim.dimension"]._walks
del liminfdim
for name in [n for n in sys.modules if n == "liminfdim" or n.startswith("liminfdim.")]:
    del sys.modules[name]
new = classes()
gc.collect()
print(json.dumps({"classes": sorted(old), "alive": sorted(k for k, ref in old.items() if ref() is not None),
                  "reimported": sorted(new)}))
"""


def test_reimport_frees_the_old_classes():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "demos" / "configs")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert len(result["classes"]) >= 30          # every module's classes were found
    assert result["reimported"] == result["classes"]
    assert result["alive"] == []


def test_sequence_spec_names_the_four_families():
    assert get_args(SequenceSpec) == (ExplicitSpec, PowerSpec, ContractiveSpec, AlternatingSpec)
