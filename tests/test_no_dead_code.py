"""Every function and method in the package is reached from the verdict path,
and every parameter default in it is overridden by some call.

Reachability is a name graph over ``src/``, parsed with stdlib ``ast``.  Its
nodes are the module-level functions and the methods (a nested function
belongs to the body that holds it).  The roots are:

- ``run_suite``, plus every module-level statement other than an import or
  ``__all__`` (so ``SUITES``), and every class body outside its methods;
- dunder methods, which the interpreter calls, and the public members of
  ``VerificationReport``, the object ``run_suite`` returns;
- every name, attribute or string constant under ``perfbench/``, since the
  benchmark's tracer patches methods by name (``vars(owner)[attr]``);
- the printers kept for the command line (ROADMAP item 7).

A reached body reaches a function through a bare name, an attribute or a
string constant, and a method only through an attribute or a string
constant, since a local variable of the same name does not call it.
References from ``tests/`` do not count: a helper that only tests call
belongs in ``tests/``.  A default that no call in ``src/`` or ``perfbench/``
overrides is an option with a single value in use, which belongs in the code
as a constant.  These checks keep an unreached definition, or a one-value
option, from quietly coming back.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "klschubert"

# Printers that no verdict reaches but the command line will print through.
CLI_PRINTERS = (
    "qpoly_str",  # ROADMAP item 7: KL polynomials in the CLI's text output
    "render_tiling",  # ROADMAP item 7: tilings in the CLI's text output
)


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _parents(tree):
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


def _definitions_and_roots():
    """(location, class name or None, def node) per module-level function and
    method, and the root statements and expressions outside them."""
    defs, roots = [], []
    for path, tree in _trees(PACKAGE):
        where = path.relative_to(ROOT)
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                roots += stmt.bases + stmt.keywords + stmt.decorator_list
                owner, body = stmt.name, stmt.body
            else:
                owner, body = None, [stmt]
            for item in body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((f"{where}:{item.lineno}", owner, item))
                    roots += item.decorator_list
                elif not (isinstance(item, (ast.Import, ast.ImportFrom)) or _is_all(item)):
                    roots.append(item)
    return defs, roots


def _references(node):
    """(bare names, attribute names and string constants) under an ast node."""
    names, attrs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            attrs.add(sub.value)
    return names, attrs


def _is_reached(owner, name, names, attrs) -> bool:
    if _is_dunder(name) or name in attrs:
        return True
    if owner is None:
        return name in names
    return owner == "VerificationReport" and not name.startswith("_")


def _unreached():
    """Location and qualified name of every definition that no root reaches."""
    defs, roots = _definitions_and_roots()
    names, attrs = {"run_suite", *CLI_PRINTERS}, set()
    for _, tree in _trees(ROOT / "perfbench"):
        attrs.update(*_references(tree))
    frontier = roots
    while frontier:
        for node in frontier:
            n, a = _references(node)
            names |= n
            attrs |= a
        frontier = [node for _, owner, node in defs if _is_reached(owner, node.name, names, attrs)]
        defs = [d for d in defs if d[2] not in frontier]
    return [f"{where} {owner + '.' if owner else ''}{node.name}" for where, owner, node in defs]


def test_every_definition_is_referenced():
    """Every definition is reached from run_suite and the other roots."""
    dead = _unreached()
    assert not dead, "not reached from run_suite:\n" + "\n".join(dead)


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


def _classmethod_owner(node, parents):
    """The class whose classmethod holds node, or None."""
    while not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
        node = parents[node]
    owner = parents.get(node)
    is_classmethod = any(
        isinstance(d, ast.Name) and d.id == "classmethod"
        for d in getattr(node, "decorator_list", ())
    )
    return owner.name if is_classmethod and isinstance(owner, ast.ClassDef) else None


def _calls():
    """(callee name, positional count, keyword names, passes everything) per
    call in ``src/`` and ``perfbench/``; ``cls(...)`` in a classmethod calls
    its class."""
    out = []
    for _, tree in _trees(ROOT / "src", ROOT / "perfbench"):
        parents = _parents(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "cls":
                name = _classmethod_owner(node, parents)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            out.append((name, len(node.args), keywords, starred or None in keywords))
    return out


def test_every_default_is_passed():
    """A call passes a parameter by keyword or by position; a call through the
    class name, or through ``cls`` in one of its classmethods, counts for
    ``__init__``, and a call with ``*args`` or ``**kwargs`` counts as passing
    everything.  Calls from ``tests/`` do not count.
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
