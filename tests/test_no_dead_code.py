"""Every function and method in the package is referenced somewhere.

A definition counts as used when its name appears as a name, an attribute or
a string constant in ``src/``, ``tests/`` or ``perfbench/`` outside its own
``def`` line.  String constants count because the benchmark's tracer patches
methods by name (``vars(owner)[attr]``).  Dunder methods are called by the
interpreter and are exempt.  This is a stdlib (``ast``) check,
so a definition that nothing calls cannot quietly come back.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "klschubert"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions():
    out = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.append((path.relative_to(ROOT), node.lineno, name))
    return out


def _references():
    names = set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_definition_is_referenced():
    refs = _references()
    dead = [f"{path}:{line} {name}" for path, line, name in _definitions() if name not in refs]
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
