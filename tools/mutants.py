"""Mutation runner for the Cantor tree, the level builder and the numeric kernels.

Applies a fixed table of small edits, one at a time, to a copy of the
repository under a temporary directory.  Each entry of ``MUTANTS`` names the
source file it edits and the test files that must catch it, and runs

    python -m pytest -x <its test files>

there in one subprocess per mutant.  A mutant is killed when the tests fail
and survives when they pass; a surviving mutant is a gap in the tests,
unless the table marks it equivalent, with the reason: no input can tell
it from the source, so it always survives.  A test run that takes longer
than ``TIMEOUT`` seconds counts as killed.  An edit whose target the source
does not have is reported as "n/a".

Usage, from the root of a checkout (about ten minutes):

    python3 tools/mutants.py

The exit status is 0 when every applicable mutant not marked equivalent
was killed, 1 when one survived, and 2 when the tests fail without a
mutant.  It is a report, not a gate: no CI step runs it.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
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


def _span_calls(nodes: list[ast.AST], name: str) -> list[ast.Call]:
    """The ``residue_span`` calls among nodes whose lower end reads ``name``."""
    return [node for node in nodes
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "residue_span" and node.args
            and name in {n.id for n in ast.walk(node.args[0]) if isinstance(n, ast.Name)}]


def walk_span(window: str) -> Callable[[ast.Module], list[ast.Call]]:
    """The walk's span for the meeting window (its lower end reads
    ``ball_hi``) or the inside window (``ball_lo``)."""
    return lambda tree: _span_calls(_walk(tree), "ball_hi" if window == "meet" else "ball_lo")


def build_span(tree: ast.Module) -> list[ast.Call]:
    """``build_level``'s span for each window of the set it refines."""
    fn = _function(tree, "build_level")
    return [] if fn is None else _span_calls(list(ast.walk(fn)), "wlo")


def shift_span(spans: Callable[[ast.Module], list[ast.Call]], end: int, delta: int) -> Edit:
    """Move the first (end 0) or last (end 1) residue of the chosen spans."""
    def edit(tree: ast.Module) -> bool:
        calls = spans(tree)
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


Scope = Callable[[ast.Module], Optional[ast.AST]]


def _in_function(name: str) -> Scope:
    return lambda tree: _function(tree, name)


def _in_class(cls: str, method: Optional[str] = None) -> Scope:
    """The class ``cls``, or its method ``method`` when given."""
    def find(tree: ast.Module) -> Optional[ast.AST]:
        owner = next((node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == cls), None)
        if owner is None or method is None:
            return owner
        return next((node for node in owner.body
                     if isinstance(node, ast.FunctionDef) and node.name == method), None)
    return find


def replace(scope: Scope, match: Callable[[ast.AST], bool],
            make: Callable[[ast.AST], ast.AST]) -> Edit:
    """Replace every node inside the scope that ``match`` accepts by ``make(node)``."""
    def edit(tree: ast.Module) -> bool:
        root = scope(tree)
        hits = 0

        class Swap(ast.NodeTransformer):
            def visit(self, node: ast.AST) -> ast.AST:
                nonlocal hits
                if match(node):
                    hits += 1
                    return make(node)
                return self.generic_visit(node)

        if root is not None:
            Swap().visit(root)
        return hits > 0
    return edit


def _is_name(*ids: str) -> Callable[[ast.AST], bool]:
    return lambda node: isinstance(node, ast.Name) and node.id in ids


def _swap_names(a: str, b: str) -> Callable[[ast.AST], ast.AST]:
    return lambda node: ast.Name(b if node.id == a else a, ast.Load())


def _calls(func: str, *arg_ids: str) -> Callable[[ast.AST], bool]:
    """A call of ``func`` whose arguments are the names ``arg_ids``."""
    return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id == func
                         and [getattr(arg, "id", None) for arg in node.args] == list(arg_ids))


def _bound(direction: str) -> Callable[[ast.AST], bool]:
    """A ``DirectedReal(..., DOWN)`` (or UP) call: one end of a bracket."""
    return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id == "DirectedReal" and len(node.args) == 3
                         and _is_name(direction)(node.args[2]))


def _is_op(op: type) -> Callable[[ast.AST], bool]:
    """A single comparison with the operator ``op``."""
    return lambda node: (isinstance(node, ast.Compare) and len(node.ops) == 1
                         and isinstance(node.ops[0], op))


def _with_op(op: type) -> Callable[[ast.AST], ast.AST]:
    def make(node: ast.Compare) -> ast.AST:
        node.ops = [op()]
        return node
    return make


def _minus_one(node: ast.AST) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.Constant) and node.right.value == 1)


def _two_r_plus_one(node: ast.AST) -> bool:
    # 2 * r + 1
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.right, ast.Constant) and node.right.value == 1
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
            and isinstance(node.left.left, ast.Constant) and node.left.left.value == 2)


def _plus_one(node: ast.AST) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.right, ast.Constant) and node.right.value == 1)


def _constant(value: int) -> Callable[[ast.AST], bool]:
    return lambda node: isinstance(node, ast.Constant) and node.value == value


def _compares(left: Callable[[ast.AST], bool], op: type) -> Callable[[ast.AST], bool]:
    """A single comparison with the operator ``op`` whose left side ``left`` accepts."""
    return lambda node: _is_op(op)(node) and left(node.left)


def _assigns(name: str) -> Callable[[ast.AST], bool]:
    """An assignment of a computed value (not a constant) to ``name``."""
    return lambda node: (isinstance(node, ast.Assign) and len(node.targets) == 1
                         and _is_name(name)(node.targets[0])
                         and not isinstance(node.value, ast.Constant))


def _value_plus(delta: int) -> Callable[[ast.AST], ast.AST]:
    def make(node: ast.Assign) -> ast.AST:
        node.value = ast.BinOp(node.value, ast.Add(), ast.Constant(delta))
        return node
    return make


def _appends_gap(*ids: str) -> Callable[[ast.AST], bool]:
    """A ``gaps.append(...)`` statement whose argument reads every name in ``ids``."""
    def match(node: ast.AST) -> bool:
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "append" and _is_name("gaps")(node.value.func.value)):
            return False
        return set(ids) <= {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
    return match


def drop_not(which: int) -> Edit:
    """Drop the ``not`` of the skip number ``which`` in ``holder_certificate``."""
    def edit(tree: ast.Module) -> bool:
        fn = _function(tree, "holder_certificate")
        nots = [] if fn is None else [node for node in ast.walk(fn) if isinstance(node, ast.UnaryOp)
                                      and isinstance(node.op, ast.Not)]
        if len(nots) <= which:
            return False
        hit = nots[which]

        class Drop(ast.NodeTransformer):
            def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
                return node.operand if node is hit else self.generic_visit(node)

        Drop().visit(fn)
        return True
    return edit


def body_of(source: str, target: str) -> Edit:
    """Give the function ``target`` the body of the function ``source``."""
    def edit(tree: ast.Module) -> bool:
        src, dst = _function(tree, source), _function(tree, target)
        if src is None or dst is None:
            return False
        dst.body = copy.deepcopy(src.body)
        return True
    return edit


def _moved(delta: int) -> Callable[[ast.AST], ast.AST]:
    """The same call with its mantissa moved by delta."""
    def make(node: ast.Call) -> ast.AST:
        node.args[0] = ast.BinOp(node.args[0], ast.Add(), ast.Constant(delta))
        return node
    return make


class Mutant(NamedTuple):
    target: str                # source file, relative to the checkout
    tests: tuple[str, ...]     # test files that must catch the edit
    edit: Edit
    equivalent: bool = False   # no input tells it from the source: it survives


def _group(target: str, *tests: str) -> Callable[..., Mutant]:
    return lambda edit, equivalent=False: Mutant(target, tests, edit, equivalent)


cantor = _group("src/liminfdim/cantor.py", "tests/test_cantor.py", "tests/test_residue_window.py")
numerics = _group("src/liminfdim/numerics.py", "tests/test_numerics.py",
                  "tests/test_enclosure_properties.py", "tests/test_power_kernel.py",
                  "tests/test_log_table.py", "tests/test_sequences.py", "tests/test_golden.py")
level_sets = _group("src/liminfdim/level_sets.py", "tests/test_level_sets.py",
                    "tests/test_level_stats.py", "tests/test_residue_window.py",
                    "tests/test_golden.py")

MUTANTS: dict[str, Mutant] = {
    "meet span first +1": cantor(shift_span(walk_span("meet"), 0, 1)),
    "meet span first -1": cantor(shift_span(walk_span("meet"), 0, -1)),
    "meet span last +1": cantor(shift_span(walk_span("meet"), 1, 1)),
    "meet span last -1": cantor(shift_span(walk_span("meet"), 1, -1)),
    "inside span first +1": cantor(shift_span(walk_span("inside"), 0, 1)),
    "inside span first -1": cantor(shift_span(walk_span("inside"), 0, -1)),
    "inside span last +1": cantor(shift_span(walk_span("inside"), 1, 1)),
    "inside span last -1": cantor(shift_span(walk_span("inside"), 1, -1)),
    "drop the -q copy": cantor(drop_copy(-1)),
    "drop the +q copy": cantor(drop_copy(1)),
    "long-window rule >= -> >": cantor(swap_compare(_long_rule, ast.Gt)),
    "fan-out cap > -> >=": cantor(swap_compare(_cap, ast.GtE)),
    "no zero-fill": cantor(drop_zero_fill),
    "first child +1": cantor(offset_end("lo", 1)),
    "first child -1": cantor(offset_end("lo", -1)),
    "last child +1": cantor(offset_end("hi", 1)),
    "last child -1": cantor(offset_end("hi", -1)),
    "first-child parent +1": cantor(offset_parent_search(0, 1)),
    "first-child parent -1": cantor(offset_parent_search(0, -1)),
    "last-child parent +1": cantor(offset_parent_search(1, 1)),
    "last-child parent -1": cantor(offset_parent_search(1, -1)),
    "LogTable: no guard bits": numerics(replace(
        _in_class("LogTable"), _is_name("LOG_GUARD_BITS"), lambda node: ast.Constant(0))),
    "LogTable: no a = b**k check": numerics(replace(
        _in_class("LogTable", "ratio"), _calls("_power_exponent_of", "a", "b"),
        lambda node: ast.Constant(None))),
    "LogTable: no b = a**k check": numerics(replace(
        _in_class("LogTable", "ratio"), _calls("_power_exponent_of", "b", "a"),
        lambda node: ast.Constant(None))),
    "_radius_grid: floor <-> ceil": level_sets(replace(
        _in_function("_radius_grid"), _is_name("_shift_floor", "_shift_ceil"),
        _swap_names("_shift_floor", "_shift_ceil"))),
    "pow_frac: every base exact": numerics(replace(
        _in_class("Enclosure", "pow_frac"),
        lambda node: isinstance(node, ast.Attribute) and node.attr == "is_exact",
        lambda node: ast.Constant(True))),
    "_log2_bracket: lower end +1": numerics(replace(
        _in_function("_log2_bracket"), _bound("DOWN"), _moved(1))),
    "_log2_bracket: lower end -1": numerics(replace(
        _in_function("_log2_bracket"), _bound("DOWN"), _moved(-1))),
    "_log2_bracket: upper end +1": numerics(replace(
        _in_function("_log2_bracket"), _bound("UP"), _moved(1))),
    "_log2_bracket: upper end -1": numerics(replace(
        _in_function("_log2_bracket"), _bound("UP"), _moved(-1))),
    "_div_directed: DOWN <-> UP": numerics(replace(
        _in_function("_div_directed"), _is_name("DOWN", "UP"), _swap_names("DOWN", "UP"))),
    "_shift_floor rounds up": numerics(body_of("_shift_ceil", "_shift_floor")),
    "_shift_ceil rounds down": numerics(body_of("_shift_floor", "_shift_ceil")),
    "_iroot: start from y << k": numerics(replace(
        _in_function("_iroot"), _plus_one, lambda node: node.left)),
    "_iroot: base case < 64 -> < 1": numerics(replace(
        _in_function("_iroot"), _constant(64), lambda node: ast.Constant(1))),
    "pow_exponent_below: no -1": numerics(replace(
        _in_function("pow_exponent_below"), _minus_one, lambda node: node.left)),
    "holder: no walk skip": cantor(drop_not(0)),
    "holder: no power skip": cantor(drop_not(1)),
    "holder: ratio > -> >=": cantor(replace(
        _in_function("_exceeds"), _is_op(ast.Gt), _with_op(ast.GtE))),
    # equivalent: a tie swaps in an equal pair, and each end's Fraction is
    # the same number
    "ball_measure: min < -> <=": cantor(replace(
        _in_class("CantorTree", "ball_measure"), _is_op(ast.Lt), _with_op(ast.LtE)),
        equivalent=True),
    "build_level span first +1": level_sets(shift_span(build_span, 0, 1)),
    # equivalent, both: the extra residue's centre lies more than the radius
    # outside the window, so its arc ends at or before the window's lower end
    # (or starts at or after its upper end) and the clip drops it
    "build_level span first -1": level_sets(shift_span(build_span, 0, -1), equivalent=True),
    "build_level span last +1": level_sets(shift_span(build_span, 1, 1), equivalent=True),
    "build_level span last -1": level_sets(shift_span(build_span, 1, -1)),
    "overlap test gap < 0 -> <= 0": level_sets(replace(
        _in_function("build_level"), _compares(_is_name("gap"), ast.Lt), _with_op(ast.LtE))),
    "build_level: no join gap": level_sets(replace(
        _in_function("build_level"), _appends_gap("run", "out"), lambda node: ast.Pass())),
    "build_level: no wrap gap": level_sets(replace(
        _in_function("build_level"), _appends_gap("out", "size"), lambda node: ast.Pass())),
    "on-grid centres +1": level_sets(replace(
        _in_function("_progression_stats"), _assigns("on_grid"), _value_plus(1))),
    "on-grid centres -1": level_sets(replace(
        _in_function("_progression_stats"), _assigns("on_grid"), _value_plus(-1))),
    "arc width 2r + 1 -> 2r": level_sets(replace(
        _in_function("_progression_stats"), _two_r_plus_one, lambda node: node.left)),
    "short gap 0 < rem -> <=": level_sets(replace(
        _in_function("_progression_stats"),
        _compares(lambda left: isinstance(left, ast.Constant), ast.Lt), _with_op(ast.LtE))),
    "short gap k < n - 1 -> <=": level_sets(replace(
        _in_function("_progression_stats"), _compares(_is_name("k"), ast.Lt),
        _with_op(ast.LtE))),
    "_clip: lo < hi -> <=": level_sets(replace(
        _in_function("_clip"), _is_op(ast.Lt), _with_op(ast.LtE))),
}


def run_tests(workdir: Path, tests: tuple[str, ...]) -> tuple[bool, float]:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT)
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.monotonic() - t0


def main() -> int:
    sources = {m.target: (ROOT / m.target).read_text() for m in MUTANTS.values()}
    # every target through the same parse and unparse as a mutant
    baseline = {target: ast.unparse(ast.parse(text)) for target, text in sources.items()}
    all_tests = tuple(dict.fromkeys(t for m in MUTANTS.values() for t in m.tests))
    survived = 0
    with tempfile.TemporaryDirectory(prefix="liminfdim-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src")
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copytree(ROOT / "demos", work / "demos",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for target, text in baseline.items():
            (work / target).write_text(text)
        ok, secs = run_tests(work, all_tests)
        print(f"{'unmutated':32} {'passes' if ok else 'FAILS'}  ({secs:.0f} s)", flush=True)
        if not ok:
            print("the tests fail without a mutant; nothing to measure", file=sys.stderr)
            return 2
        for name, mutant in MUTANTS.items():
            tree = ast.parse(sources[mutant.target])
            if not mutant.edit(tree):
                print(f"{name:32} n/a", flush=True)
                continue
            target = work / mutant.target
            target.write_text(ast.unparse(ast.fix_missing_locations(tree)))
            passed, secs = run_tests(work, mutant.tests)
            target.write_text(baseline[mutant.target])
            if passed and mutant.equivalent:
                outcome = "survived (equivalent)"
            else:
                survived += passed
                outcome = "SURVIVED" if passed else "killed"
            print(f"{name:32} {outcome}  ({secs:.0f} s)", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
