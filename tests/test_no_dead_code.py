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
  benchmark's tracer patches methods by name (``vars(owner)[attr]``).

A reached body reaches a function through a bare name, an attribute or a
string constant, and a method only through an attribute or a string
constant, since a local variable of the same name does not call it.  An
attribute is resolved by its owner where the owner is known:

- an attribute of ``self`` inside a method of class C reaches only the
  methods of that name in C and its bases;
- an attribute of another object that is read but not called, under a name
  that some method stores on ``self`` (``dom.zero``), is taken for that
  stored value, not for a method.

So a method reached only through a same-named attribute of another class is
flagged.
References from ``tests/`` do not count: a helper that only tests call
belongs in ``tests/``.  A default that no call in ``src/`` or ``perfbench/``
overrides is an option with a single value in use, which belongs in the code
as a constant.  These checks keep an unreached definition, or a one-value
option, from quietly coming back.

A name graph cannot tell two methods of one name apart, so a runtime check
stands beside it: a grid of suite runs is traced with ``sys.setprofile``, and
the functions it never enters must be exactly a listed set, each kept for a
stated reason.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

from klschubert.verify import SUITES, RunConfig, run_suite

from test_trace_targets import _load_tracing

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "klschubert"

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


def _definitions_and_roots(package):
    """(location, class name or None, def node) per module-level function and
    method; the root statements and expressions outside them; each class's own
    name and its bases' names in the package, transitively; and the names that
    some method stores on self."""
    defs, roots, bases, stored = [], [], {}, set()
    for path, tree in _trees(package):
        where = path.relative_to(package.parents[1])
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                roots += stmt.bases + stmt.keywords + stmt.decorator_list
                bases[stmt.name] = [b.id for b in stmt.bases if isinstance(b, ast.Name)]
                owner, body = stmt.name, stmt.body
            else:
                owner, body = None, [stmt]
            for item in body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((f"{where}:{item.lineno}", owner, item))
                    roots += item.decorator_list
                elif not (isinstance(item, (ast.Import, ast.ImportFrom)) or _is_all(item)):
                    roots.append(item)
        stored |= {
            sub.attr
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) and _on_self(sub)
        }

    def lineage(name):
        out = [name]
        for base in bases.get(name, ()):
            out += lineage(base)
        return out

    return defs, roots, {name: lineage(name) for name in bases}, stored


def _on_self(attr) -> bool:
    return isinstance(attr.value, ast.Name) and attr.value.id == "self"


def _references(node, lineage=()):
    """(bare names, attributes called or named by a string constant, attributes
    of other objects read without a call, (class, name) pairs) under an ast
    node; an attribute of self counts as a pair for each class in lineage, the
    classes whose methods self can be."""
    names, called, read, owned = set(), set(), set(), set()
    calls = {id(sub.func) for sub in ast.walk(node) if isinstance(sub, ast.Call)}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            if _on_self(sub) and lineage:
                owned.update((cls, sub.attr) for cls in lineage)
            elif id(sub) in calls:
                called.add(sub.attr)
            else:
                read.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            called.add(sub.value)
    return names, called, read, owned


def _unreached(package=PACKAGE, bench=ROOT / "perfbench"):
    """Location and qualified name of every definition that no root reaches."""
    defs, roots, lineages, stored = _definitions_and_roots(package)
    names, called, read, owned = {"run_suite"}, set(), set(), set()
    for _, tree in _trees(bench):
        for refs in _references(tree)[:3]:
            called |= refs

    def is_reached(owner, name) -> bool:
        if _is_dunder(name) or name in called or name in read and name not in stored:
            return True
        if owner is None:
            return name in names or name in read
        return (owner, name) in owned or (
            owner == "VerificationReport" and not name.startswith("_")
        )

    frontier = [(None, node) for node in roots]
    while frontier:
        for owner, node in frontier:
            n, c, r, o = _references(node, lineages.get(owner, ()))
            names |= n
            called |= c
            read |= r
            owned |= o
        frontier = [(owner, node) for _, owner, node in defs if is_reached(owner, node.name)]
        reached = {id(node) for _, node in frontier}
        defs = [d for d in defs if id(d[2]) not in reached]
    return [f"{where} {owner + '.' if owner else ''}{node.name}" for where, owner, node in defs]


def test_every_definition_is_referenced():
    """Every definition is reached from run_suite and the other roots."""
    dead = _unreached()
    assert not dead, "not reached from run_suite:\n" + "\n".join(dead)


PLANTED = """
def run_suite():
    return Algebra().total() + Sub().total() + Domain().zero


class Domain:
    def __init__(self):
        self.zero = 0


class Ring:
    def zero(self):
        return 0


class Algebra:
    def zero(self):
        return 0

    def total(self):
        return self.zero()


class Base:
    def helper(self):
        return 1


class Sub(Base):
    def total(self):
        return self.helper()
"""


def test_a_method_reached_only_through_another_class_is_flagged(tmp_path):
    """Ring.zero, like the deleted TwistedRing.zero, shares its name with
    Algebra.zero, which Algebra calls on self, and with the value Domain stores
    on self and run_suite reads: neither reaches Ring.zero, so it is flagged,
    while Base.helper, called on self in its subclass, is reached."""
    package = tmp_path / "src" / "planted"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(PLANTED)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    assert _unreached(package, bench) == ["src/planted/mod.py:12 Ring.zero"]


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


# ---------- runtime reachability ----------

# The functions under src/klschubert that the traced grid below never enters,
# each kept for a reason; the names that perfbench/tracing.py patches are
# taken from its TARGETS, not listed here.  An alias (OrbitScalar.__radd__ is
# __add__) is one function and is entered with it.
NEVER_ENTERED = {
    # called by perfbench/test_perfbench.py
    "localization.Localization.kl_class_c_tilde",
    "ratfunc.RatFunc.fraction",
    # printing, for witnesses and names: a case prints only when it fails
    "grassmannian.GrassData.__repr__",
    "grassmannian.Partition.__repr__",
    "hecke.HeckeElt.__repr__",
    "laurent.LaurentPoly.__repr__",
    "laurent.LaurentPoly.format",
    "localization.CohClass.__repr__",
    "modp.OrbitScalar.__repr__",
    "modp.OrbitScalar.format",
    "ratfunc.RatFunc.__repr__",
    "ratfunc.RatFunc.format",
    "rootsystem.Root.__repr__",
    "rootsystem.WMap.format",
    "rootsystem.WMap.support",
    "rootsystem.WeylElt.word",
    "twisted.QWElt.__repr__",
    "verify._witness",
    # error constructors and fault guards, entered only when a run goes wrong
    "laurent._arity_mismatch",
    "laurent._overflow",
    "laurent.LaurentPoly._tighten",
    # Partition is a value type
    "grassmannian.Partition.__eq__",
    "grassmannian.Partition.__hash__",
}


def _functions() -> dict:
    """{code object: its names} over the module-level functions and the methods
    (properties and class and static methods included) defined in the
    package's source files; generated methods, such as a dataclass's
    __eq__, have no source file there."""
    out: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"{PACKAGE.name}.{path.stem}")
        members = [(path.stem, name, obj) for name, obj in vars(module).items()]
        members += [
            (f"{path.stem}.{cls_name}", attr, value)
            for cls_name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
            for attr, value in vars(cls).items()
        ]
        for owner, name, obj in members:
            for fn in (getattr(obj, "__func__", None), getattr(obj, "fget", None), obj):
                if inspect.isfunction(fn):
                    if Path(fn.__code__.co_filename).resolve() == path.resolve():
                        out.setdefault(fn.__code__, []).append(f"{owner}.{name}")
                    break
    return out


def _traced_codes() -> set:
    """The code objects of every function perfbench/tracing.py patches."""
    return {
        vars(obj)[attr].__code__
        for _, owner, attrs, _ in _load_tracing().TARGETS
        for obj in (owner if isinstance(owner, tuple) else (owner,))
        for attr in attrs
    }


def test_every_function_is_entered_on_the_verdict_path():
    """Every suite at A2 and the Grassmannian suites at G(2,4), in both modes,
    with each report passing and written as JSON, enter every function in the
    package but NEVER_ENTERED and the benchmark's traced names.  The static
    check above resolves calls by name, so it counts a method reached when
    another one of that name is (RatFunc.inv for OrbitScalar.inv); this one
    records what runs."""
    grassmannian = ("zelevinsky", "grassmann-smoothness")
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(record)
    try:
        for name in SUITES:
            for mode in ("exact", "modp"):
                if name in grassmannian:
                    cfg = RunConfig(n=4, d=2, mode=mode)
                else:
                    cfg = RunConfig(rank=2, mode=mode)
                report = run_suite(name, cfg)
                assert report.all_passed(), (name, mode)
                report.to_json()
    finally:
        sys.setprofile(None)
    traced = _traced_codes()
    never = {
        name
        for code, names in _functions().items()
        if code not in entered and code not in traced
        for name in names
    }
    extra, entered_now = sorted(never - NEVER_ENTERED), sorted(NEVER_ENTERED - never)
    assert not extra and not entered_now, f"never entered: {extra}; entered: {entered_now}"
