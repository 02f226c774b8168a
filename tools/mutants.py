"""Mutation runner for the Cantor tree's ball walk.

Applies a fixed table of small edits to ``src/liminfdim/cantor.py``, one at a
time, each to a copy of the repository under a temporary directory, and runs

    python -m pytest -x tests/test_cantor.py tests/test_residue_window.py

there in one subprocess per mutant.  A mutant is killed when the tests fail
and survives when they pass; a surviving mutant is a gap in the tests.  A
test run that takes longer than ``TIMEOUT`` seconds counts as killed.  An
edit whose target the source does not have is reported as "n/a".

Usage, from the root of a checkout (about five minutes):

    python3 tools/mutants.py

The exit status is 0 when every applicable mutant was killed, 1 when one
survived, and 2 when the tests fail without a mutant.  It is a report, not
a gate: no CI step runs it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src/liminfdim/cantor.py")
TESTS = ["tests/test_cantor.py", "tests/test_residue_window.py"]
TIMEOUT = 600  # seconds per test run, against a mutant that hangs

Edit = Callable[[ast.Module], bool]


def _function(tree: ast.Module, name: str) -> Optional[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _walk(tree: ast.Module) -> list[ast.AST]:
    """Every node of ``_window_counts``, its nested functions included."""
    fn = _function(tree, "_window_counts")
    return [] if fn is None else list(ast.walk(fn))


def _span_calls(tree: ast.Module, window: str) -> list[ast.Call]:
    """The walk's ``residue_span`` calls for the meeting window (its lower
    end reads ``ball_hi``) or the inside window (``ball_lo``)."""
    ball = "ball_hi" if window == "meet" else "ball_lo"
    return [node for node in _walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "residue_span" and node.args
            and ball in {n.id for n in ast.walk(node.args[0]) if isinstance(n, ast.Name)}]


def shift_span(window: str, end: int, delta: int) -> Edit:
    """Move the first (end 0) or last (end 1) residue of a window's span."""
    def edit(tree: ast.Module) -> bool:
        calls = _span_calls(tree, window)
        for call in calls:
            # residue_span(lo, hi, ...) -> (lambda s: (s[0] + delta, s[1]))(residue_span(...))
            orig = ast.Call(func=call.func, args=call.args, keywords=call.keywords)
            parts = [ast.Subscript(value=ast.Name("s", ast.Load()), slice=ast.Constant(i),
                                   ctx=ast.Load()) for i in (0, 1)]
            parts[end] = ast.BinOp(parts[end], ast.Add(), ast.Constant(delta))
            lam = ast.Lambda(args=ast.arguments(posonlyargs=[], args=[ast.arg("s")],
                                                kwonlyargs=[], kw_defaults=[], defaults=[]),
                             body=ast.Tuple(parts, ast.Load()))
            call.func, call.args, call.keywords = lam, [orig], []
        return bool(calls)
    return edit


def drop_copy(sign: int) -> Edit:
    """Remove the -q (sign -1) or +q (sign 1) copy from the ``(-q, 0, q)``
    shifts of the window."""
    def is_shift_tuple(node: ast.AST) -> bool:
        return (isinstance(node, ast.Tuple) and len(node.elts) == 3
                and isinstance(node.elts[1], ast.Constant) and node.elts[1].value == 0
                and isinstance(node.elts[2], ast.Name)
                and isinstance(node.elts[0], ast.UnaryOp) and isinstance(node.elts[0].op, ast.USub))

    def edit(tree: ast.Module) -> bool:
        hits = [node for node in ast.walk(tree) if is_shift_tuple(node)]
        for node in hits:
            node.elts = node.elts[1:] if sign < 0 else node.elts[:2]
        return bool(hits)
    return edit


def swap_compare(find: Callable[[ast.Compare], bool], new_op: type) -> Edit:
    def edit(tree: ast.Module) -> bool:
        hits = [node for node in _walk(tree) if isinstance(node, ast.Compare) and find(node)]
        for node in hits:
            node.ops = [new_op()]
        return bool(hits)
    return edit


def _long_rule(node: ast.Compare) -> bool:
    # 2 * (ball_hi + r_hi) >= den
    return (isinstance(node.ops[0], ast.GtE) and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.left, ast.Constant) and node.left.left.value == 2)


def _cap(node: ast.Compare) -> bool:
    # n_meet > _QUERY_FANOUT_CAP
    return (isinstance(node.ops[0], ast.Gt) and isinstance(node.comparators[0], ast.Name)
            and node.comparators[0].id == "_QUERY_FANOUT_CAP")


def drop_zero_fill(tree: ast.Module) -> bool:
    """Delete ``counts.extend([(0, 0)] * ...)`` after an empty level."""
    for node in _walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            continue
        for i, stmt in enumerate(body):
            if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Attribute)
                    and stmt.value.func.attr == "extend"):
                body[i] = ast.Pass()
                return True
    return False


def offset_end(name: str, delta: int) -> Edit:
    """Move the child index found for one end of a range, ``lo`` (the first
    child meeting a span) or ``hi`` (the last), by delta."""
    def edit(tree: ast.Module) -> bool:
        hits = [node for node in _walk(tree) if isinstance(node, ast.Assign)
                and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.left, ast.BinOp)
                and isinstance(node.value.left.op, ast.Mult)]
        for node in hits:
            node.value = ast.BinOp(node.value, ast.Add(), ast.Constant(delta))
        return bool(hits)
    return edit


def offset_parent_search(which: int, delta: int) -> Edit:
    """Move the parent found by the bisection for the first child (which 0)
    or the last child (which 1) of a range by delta."""
    def edit(tree: ast.Module) -> bool:
        hits = [node for node in _walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(n, ast.Name) and n.id == "bisect_left"
                        for n in ast.walk(node.value))]
        if len(hits) <= which:
            return False
        hits[which].value = ast.BinOp(hits[which].value, ast.Add(), ast.Constant(delta))
        return True
    return edit


MUTANTS: dict[str, Edit] = {
    "meet span first +1": shift_span("meet", 0, 1),
    "meet span first -1": shift_span("meet", 0, -1),
    "meet span last +1": shift_span("meet", 1, 1),
    "meet span last -1": shift_span("meet", 1, -1),
    "inside span first +1": shift_span("inside", 0, 1),
    "inside span first -1": shift_span("inside", 0, -1),
    "inside span last +1": shift_span("inside", 1, 1),
    "inside span last -1": shift_span("inside", 1, -1),
    "drop the -q copy": drop_copy(-1),
    "drop the +q copy": drop_copy(1),
    "long-window rule >= -> >": swap_compare(_long_rule, ast.Gt),
    "fan-out cap > -> >=": swap_compare(_cap, ast.GtE),
    "no zero-fill": drop_zero_fill,
    "first child +1": offset_end("lo", 1),
    "first child -1": offset_end("lo", -1),
    "last child +1": offset_end("hi", 1),
    "last child -1": offset_end("hi", -1),
    "first-child parent +1": offset_parent_search(0, 1),
    "first-child parent -1": offset_parent_search(0, -1),
    "last-child parent +1": offset_parent_search(1, 1),
    "last-child parent -1": offset_parent_search(1, -1),
}


def run_tests(workdir: Path) -> tuple[bool, float]:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *TESTS],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT)
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.monotonic() - t0


def main() -> int:
    source = (ROOT / TARGET).read_text()
    survived = 0
    with tempfile.TemporaryDirectory(prefix="liminfdim-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src")
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        target = work / TARGET
        # the unmutated source, through the same parse and unparse as a mutant
        target.write_text(ast.unparse(ast.parse(source)))
        ok, secs = run_tests(work)
        print(f"{'unmutated':28} {'passes' if ok else 'FAILS'}  ({secs:.0f} s)", flush=True)
        if not ok:
            print("the tests fail without a mutant; nothing to measure", file=sys.stderr)
            return 2
        for name, edit in MUTANTS.items():
            tree = ast.parse(source)
            if not edit(tree):
                print(f"{name:28} n/a", flush=True)
                continue
            target.write_text(ast.unparse(ast.fix_missing_locations(tree)))
            passed, secs = run_tests(work)
            survived += passed
            print(f"{name:28} {'SURVIVED' if passed else 'killed'}  ({secs:.0f} s)", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
