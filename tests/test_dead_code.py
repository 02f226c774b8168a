"""Every module-level private name of the package is used by the package.

A private function, class or constant (one leading underscore) has no
caller outside ``src/``, so one that nothing in ``src/`` reads is dead code:
typically a helper left behind when its last caller was inlined.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liminfdim"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_private_module_names_are_referenced():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
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
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = sorted(f"{module}: {name}" for name, module in defined.items() if name not in used)
    assert not dead, f"private names nothing in src/ references: {dead}"
