"""Every function and method in the package is referenced somewhere, and
every parameter default in it is overridden by some call.

A function counts as used when its name appears as a name, an attribute or
a string constant in ``src/``, ``tests/`` or ``perfbench/`` outside its own
``def`` line; a method only as an attribute or a string constant, since a
local variable of the same name does not call it.  String constants count
because the benchmark's tracer patches methods by name
(``vars(owner)[attr]``).  Dunder methods are called by the interpreter and
are exempt.  A default that no call overrides is an option
with a single value in use, which belongs in the code as a constant.  These
are stdlib (``ast``) checks, so a definition that nothing calls, or a
one-value option, cannot quietly come back.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "klschubert"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _parents(tree):
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _definitions():
    """(location, name, is a method) per non-dunder function."""
    out = []
    for path, tree in _trees(PACKAGE):
        parents = _parents(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    method = isinstance(parents.get(node), ast.ClassDef)
                    out.append((f"{path.relative_to(ROOT)}:{node.lineno}", name, method))
    return out


def _references():
    """(bare names, attribute names and string constants)."""
    names, attrs = set(), set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.add(node.value)
    return names, attrs


def test_every_definition_is_referenced():
    names, attrs = _references()
    dead = [
        f"{where} {name}"
        for where, name, method in _definitions()
        if name not in attrs and (method or name not in names)
    ]
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)


def _is_method(node, parents) -> bool:
    return isinstance(parents.get(node), ast.ClassDef) and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
    )


def _defaulted_parameters():
    """(location, callee names, positional names, defaulted names) per definition."""
    out = []
    for path, tree in _trees(PACKAGE):
        parents = _parents(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if _is_method(node, parents):
                positional = positional[1:]
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if not defaulted:
                continue
            callees = {node.name}
            if node.name == "__init__" and isinstance(parents.get(node), ast.ClassDef):
                callees.add(parents[node].name)
            where = f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
            out.append((where, callees, positional, defaulted))
    return out


def _calls():
    """(callee name, positional count, keyword names, passes everything) per call."""
    out = []
    for _, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            out.append((name, len(node.args), keywords, starred or None in keywords))
    return out


def test_every_default_is_passed():
    """A call passes a parameter by keyword or by position; a call through the
    class name counts for ``__init__``, and a call with ``*args`` or
    ``**kwargs`` counts as passing everything.
    """
    calls = _calls()
    unused = []
    for where, callees, positional, defaulted in _defaulted_parameters():
        passed = set()
        for name, npos, keywords, everything in calls:
            if name not in callees:
                continue
            if everything:
                passed.update(defaulted)
            passed.update(positional[:npos])
            passed.update(keywords)
        unused += [f"{where}({p})" for p in defaulted if p not in passed]
    assert not unused, "defaults that no call overrides:\n" + "\n".join(unused)
