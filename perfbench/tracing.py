"""Per-layer tracing from outside the program.

The tracer replaces public methods on their classes (and module functions in
the namespaces that call them) with wrappers that time each call.  Nothing in
``src/`` changes: ``instrument()`` installs the wrappers and restores the
originals on exit.

Every call is a span with a name, start, end and parent.  Calls are counted
and timed online: a span's self time is its duration minus the time its
traced children cover (children of one single-threaded caller never overlap,
so that is the sum of their durations).  One pass can make millions of
calls (A4 inversion makes over 50 million), so only the first ``span_cap``
spans are kept in memory as raw records; the per-name totals cover every call.
"""

from __future__ import annotations

import itertools
import time
import weakref
from contextlib import contextmanager

from klschubert import hecke, laurent, localization, modp, ratfunc, rootsystem, twisted, verify

SPAN_CAP = 100_000

_CALLS, _SELF, _BOTH = ("calls",), ("self_s",), ("calls", "self_s")
_HITS = ("calls", "self_s", "hit_ratio")

# (span name, owner, attributes, metrics reported).  The owner is a class whose
# methods are patched, or a tuple of modules in each of which a module function
# is patched.  Every target is timed, so its time never counts as its
# caller's self time; the last field only selects what the traced run reports.
TARGETS = [
    ("laurent.mul", laurent.LaurentPoly, ["__mul__"], _BOTH),
    ("laurent.exact_divide", laurent.LaurentPoly, ["exact_divide"], _HITS),
    ("laurent.eval_mod", laurent.LaurentPoly, ["eval_mod"], _BOTH),
    ("ratfunc.init", ratfunc.RatFunc, ["__init__"], _BOTH),
    ("ratfunc.add", ratfunc.RatFunc, ["__add__"], _BOTH),
    ("ratfunc.mul", ratfunc.RatFunc, ["__mul__"], _BOTH),
    ("ratfunc.eq", ratfunc.RatFunc, ["__eq__"], _CALLS),
    ("ratfunc.weyl", ratfunc.RatFunc, ["weyl"], _CALLS),
    ("ratfunc.dualize", ratfunc.RatFunc, ["dualize"], _CALLS),
    ("modp.domain_init", modp.OrbitDomain, ["__init__"], _SELF),
    ("modp.lift", modp.OrbitDomain, ["lift"], _HITS),
    ("modp.weyl", modp.OrbitDomain, ["weyl"], _BOTH),
    ("modp.dualize", modp.OrbitDomain, ["dualize"], _CALLS),
    # OrbitScalar binds __radd__/__rmul__ to the same functions at class creation
    ("modp.scalar_add", modp.OrbitScalar, ["__add__", "__radd__"], _BOTH),
    ("modp.scalar_mul", modp.OrbitScalar, ["__mul__", "__rmul__"], _BOTH),
    ("modp.scalar_inv", modp.OrbitScalar, ["inv"], _CALLS),
    ("rootsystem.init", rootsystem.RootSystem, ["__init__"], _SELF),
    ("rootsystem.product", rootsystem.RootSystem, ["product"], _BOTH),
    ("rootsystem.right_descents", rootsystem.RootSystem, ["right_descents"], _BOTH),
    ("rootsystem.bruhat_leq", rootsystem.RootSystem, ["bruhat_leq"], _BOTH),
    ("hecke.kl_compute_upto", hecke.HeckeAlgebra, ["kl_compute_upto"], _SELF),
    ("hecke.inverse_kl", hecke.HeckeAlgebra, ["inverse_kl"], _BOTH),
    ("hecke.parabolic_kl", hecke.HeckeAlgebra, ["parabolic_kl"], _BOTH),
    ("hecke.inverse_parabolic_kl", hecke.HeckeAlgebra, ["inverse_parabolic_kl"], _BOTH),
    ("hecke.kl_polynomial", hecke.HeckeAlgebra, ["kl_polynomial"], _CALLS),
    ("hecke.product", hecke.HeckeAlgebra, ["product"], _CALLS),
    ("hecke.gamma_rel", hecke.HeckeAlgebra, ["gamma_rel"], _CALLS),
    ("twisted.qw_mul", twisted.TwistedRing, ["qw_mul"], _BOTH),
    ("twisted.hecke_to_qw", twisted.TwistedRing, ["hecke_to_qw"], _BOTH),
    ("twisted.pushpull_rel", twisted.TwistedRing, ["pushpull_rel"], _BOTH),
    ("twisted.dl_element", twisted.TwistedRing, ["dl_element"], _CALLS),
    # psi is imported by name into verify and localization
    ("twisted.psi", (twisted, verify, localization), ["psi"], _CALLS),
    ("localization.bullet", localization.Localization, ["bullet"], _BOTH),
    ("localization.odot", localization.Localization, ["odot"], _BOTH),
    ("localization.pairing", localization.Localization, ["pairing"], _BOTH),
    ("localization.serre_dual", localization.Localization, ["serre_dual"], _BOTH),
    ("localization.is_smooth", localization.Localization, ["is_smooth"], _BOTH),
    ("localization.kl_schubert", localization.Localization, ["kl_schubert"], _CALLS),
]


class Tracer:
    """Span recorder: per-name call counts, total and self time, hit counts."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.hits: dict = {}  # name -> useful outcomes, for hit ratios
        self.spans: list = []  # (id, name, start, end, parent id)
        self._ids = itertools.count()
        # one frame per open span: [time covered by children, span id]
        self._stack = [[0.0, -1]]

    def wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids, cap = self._stack, self.spans, self._ids, self.span_cap
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[0] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if len(spans) < cap:
                    spans.append((frame[1], name, start, end, parent[1]))

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict:
        """Per-name (calls, total_s, self_s, hits-or-None)."""
        return {
            name: (rec[0], rec[1], rec[2], self.hits.get(name))
            for name, rec in self.stats.items()
        }

    def span_dump(self) -> dict:
        return {
            "spans_kept": len(self.spans),
            "spans_total": sum(rec[0] for rec in self.stats.values()),
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
        }


def _count_quotients(tracer: Tracer, name: str, fn):
    """exact_divide returns None when the division is not exact."""

    def exact_divide(self, d):
        q = fn(self, d)
        if q is not None:
            tracer.hits[name] += 1
        return q

    return exact_divide


def _count_lift_hits(tracer: Tracer, name: str, fn):
    """Mirror OrbitDomain's lift cache from outside.

    The cache keys on id(r) and keeps every lifted r alive while its domain
    lives, so "this domain already lifted an object with this id" is exactly
    the cache's hit test.  A lift that raises caches nothing, so an id is
    recorded only after a successful return.
    """
    seen = weakref.WeakKeyDictionary()

    def lift(domain, r):
        ids = seen.setdefault(domain, set())
        hit = id(r) in ids
        out = fn(domain, r)
        ids.add(id(r))
        if hit:
            tracer.hits[name] += 1
        return out

    return lift


HIT_COUNTERS = {"laurent.exact_divide": _count_quotients, "modp.lift": _count_lift_hits}


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for name, owner, attrs, _ in TARGETS:
            owners = owner if isinstance(owner, tuple) else (owner,)
            shared = {}
            for obj in owners:
                for attr in attrs:
                    orig = vars(obj)[attr]
                    if orig not in shared:
                        fn = orig
                        if name in HIT_COUNTERS:
                            tracer.hits[name] = 0
                            fn = HIT_COUNTERS[name](tracer, name, fn)
                        shared[orig] = tracer.wrap(name, fn)
                    saved.append((obj, attr, orig))
                    setattr(obj, attr, shared[orig])
        yield tracer
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)
