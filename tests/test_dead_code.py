"""Every name the package defines has a caller outside the tests.

A private module-level name (one leading underscore) has no caller outside
``src/``, so one that nothing in ``src/`` reads is dead code: typically a
helper left behind when its last caller was inlined.

A public function, class or method must be read somewhere in ``src/``,
``demos/`` or ``perfbench/``.  The re-exports of ``__init__`` do not count
as reads, and a name that only tests call is a test reference: it belongs in
``tests/reference.py``, not in the package.  The benchmark's tracer wraps
its spans by name, so a name in ``perfbench/tracer.py``'s ``SPANS`` counts
as read.  Uses are matched by bare name (``x.count`` reads every
``count``), so the check can miss dead code, and it flags only names that
no code reads by name.  A public class member is held to more: it counts as
read only through an attribute read (``x.name``) or the tracer's ``SPANS``,
so a local variable of the same name does not keep it.

Two kinds of dead member still pass: a dunder (``__sub__``, ``__getitem__``)
is exempt, as Python calls it through syntax no read shows; and a member
whose name another class also defines (``depth``, ``is_exact``) is kept by
that class's reads.  Such members are found by tracing the callers' runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liminfdim"
CALLERS = (SRC, ROOT / "demos", ROOT / "perfbench")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _reads(tree: ast.AST) -> set[str]:
    """Every name and attribute the module loads or imports."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _span_names() -> set[str]:
    """The parts of every dotted name in the tracer's ``SPANS`` literal."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets))
    return {part for _, attrs in spans for attr in attrs for part in attr.split(".")}


def _attribute_reads(tree: ast.AST) -> set[str]:
    """Every attribute the module loads (``x.name``)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _callers() -> list[ast.Module]:
    """The modules whose reads count: ``src/`` less ``__init__``, the demos
    and the benchmark."""
    return [ast.parse(path.read_text(), str(path)) for root in CALLERS
            for path in sorted(root.rglob("*.py")) if path != SRC / "__init__.py"]


def _package() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def test_private_module_names_are_referenced():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path, tree in _package().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in filter(_private, names):
                defined[name] = path.name
        used |= _reads(tree)
    dead = sorted(f"{module}: {name}" for name, module in defined.items() if name not in used)
    assert not dead, f"private names nothing in src/ references: {dead}"


def test_public_names_have_a_caller_outside_the_tests():
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined: dict[str, list[str]] = {}
    for path, tree in _package().items():
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            defined.setdefault(node.name, []).append(f"{path.name}: {node.name}")
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("_"):
                        defined.setdefault(member.name, []).append(
                            f"{path.name}: {node.name}.{member.name}")
    used = _span_names().union(*map(_reads, _callers()))
    dead = sorted(where for name, places in defined.items() if name not in used
                  for where in places)
    assert not dead, f"public names only the tests call: {dead}"


def test_public_members_are_read_as_attributes():
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    members = [(member.name, f"{path.name}: {node.name}.{member.name}")
               for path, tree in _package().items() for node in tree.body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
               for member in node.body
               if isinstance(member, defs) and not member.name.startswith("_")]
    read = _span_names().union(*map(_attribute_reads, _callers()))
    dead = sorted(where for name, where in members if name not in read)
    assert not dead, f"public members no code reads as an attribute: {dead}"
