"""Multivariate Laurent polynomials with arbitrary-precision integer coefficients.

The variables are t, z1, ..., zn; an exponent vector is a tuple of length
arity = n + 1, slot 0 holding the exponent of t and slot i the exponent of
z_i.  Here z_i stands for the character of the i-th fundamental weight, so a
weight written in fundamental-weight coordinates maps to the monomial
prod z_i^{lambda_i}.

Terms are kept in a dict from exponent tuple to nonzero int; the canonical
total order on monomials is lexicographic on exponent tuples (t first),
which is exactly Python's tuple comparison.  The zero polynomial is the
empty dict.  Instances are immutable by convention: no method mutates terms
after construction.

Exact division by a binomial d = z^m0 (c1 y + c0), y = z^(m1 - m0), is one
linear pass: the ring is free over Z[y^+-1] on one monomial per coset of
Z (m1 - m0), so the terms split into chains (keyed along one nonzero slot of
a step that need not be primitive, as in 1 - t^2), each divided synthetically
from the top down.  None is one-sided: one chain's non-integer coefficient or
remainder proves that d does not divide; a quotient needs every chain.

Most trial divisions fail, so one chain is tested before any is divided.
Let w = +-(m1 - m0), the sign that makes w lex-positive, u = z^w, and
d = z^m (c_top u + c_bot).  If d divides f, every chain of f is a monomial
times a Laurent polynomial in u that c_top u + c_bot divides, so it has at
least two terms and vanishes at u = -c_bot / c_top.  Take the chain of the
lex-largest term e of f: no term of f lies above e, so the chain is all of
e, e - w, e - 2w, ... while slot j (the first nonzero slot of w, where w is
positive) stays at or above f's minimum there.  With a_i the coefficient at
e - i w and l the last i with a_i != 0, its value at the root, cleared of
denominators, is sum_i a_i (-c_bot)^(l - i) c_top^i: integer arithmetic,
no evaluation mod p.  A nonzero value (a one-term chain gives a_0) proves
that d does not divide f; a zero proves nothing, and the chain-wise division
decides.  The lex-largest exponent and the per-slot minima are cached on f,
which _cancel tries against many factors.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import add, mul, sub

__all__ = ["LaurentPoly"]


class LaurentPoly:
    __slots__ = ("arity", "terms", "_key", "_box")

    def __init__(self, arity: int, terms: dict | None = None):
        self.arity = arity
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}
        self._key = None
        self._box = None

    # ---------- constructors ----------

    @classmethod
    def const(cls, arity: int, c: int) -> "LaurentPoly":
        if c == 0:
            return cls(arity)
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def monomial(cls, exps: tuple, c: int = 1) -> "LaurentPoly":
        if c == 0:
            return cls(len(exps))
        return cls(len(exps), {tuple(exps): c})

    @classmethod
    def var(cls, arity: int, slot: int, exp: int = 1) -> "LaurentPoly":
        e = [0] * arity
        e[slot] = exp
        return cls.monomial(tuple(e))

    @classmethod
    def t_power(cls, arity: int, exp: int) -> "LaurentPoly":
        return cls.var(arity, 0, exp)

    # ---------- basic queries ----------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        z = (0,) * self.arity
        return len(self.terms) == 1 and self.terms.get(z) == 1

    def sort_key(self):
        """Canonical hashable key: terms sorted by descending monomial order."""
        if self._key is None:
            self._key = (self.arity, tuple(sorted(self.terms.items(), reverse=True)))
        return self._key

    def exponent_box(self):
        """(lex-largest exponent, per-slot minima) of a nonzero polynomial,
        computed once: the walk bound of the binomial refutation, read by
        monomial_content and leading too."""
        if self._box is None:
            self._box = (max(self.terms), tuple(map(min, zip(*self.terms))))
        return self._box

    def leading(self):
        """(exponent tuple, coefficient) of the lex-largest monomial."""
        e = self.exponent_box()[0]
        return e, self.terms[e]

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash(self.sort_key())

    def __bool__(self):
        return bool(self.terms)

    # ---------- ring operations ----------

    def _check(self, other: "LaurentPoly"):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            elif e in terms:
                del terms[e]
        return LaurentPoly(self.arity, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        if not self.terms or not other.terms:
            return LaurentPoly(self.arity)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return LaurentPoly(self.arity, out)

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly(self.arity)
        if c == 1:
            return self
        return LaurentPoly(self.arity, {e: k * c for e, k in self.terms.items()})

    def shift(self, exps: tuple) -> "LaurentPoly":
        """Multiply by the monomial with the given exponent tuple."""
        if all(x == 0 for x in exps):
            return self
        return LaurentPoly(self.arity, {tuple(map(add, e, exps)): c for e, c in self.terms.items()})

    # ---------- content and division ----------

    def int_content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
            if g == 1:
                return 1
        return g

    def monomial_content(self) -> tuple:
        """Componentwise min of exponent tuples (zero tuple for the zero poly)."""
        if not self.terms:
            return (0,) * self.arity
        return self.exponent_box()[1]

    def exact_divide(self, d: "LaurentPoly"):
        """Return self / d if d divides self exactly in the Laurent ring, else None.
        Binomials go chain by chain (module docstring), others by long division."""
        self._check(d)
        if not d.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return LaurentPoly(self.arity)
        if len(d.terms) == 2:
            return self._divide_binomial(d)
        # Strip monomial content so divisibility reduces to the true-polynomial case.
        mc_n, mc_d = self.monomial_content(), d.monomial_content()
        num = self.shift(tuple(-x for x in mc_n))
        den = d.shift(tuple(-x for x in mc_d))
        elead = max(den.terms)
        clead = den.terms[elead]
        cur = dict(num.terms)
        quo: dict = {}
        while cur:
            e = max(cur)
            c = cur[e]
            qe = tuple(x - y for x, y in zip(e, elead))
            if any(x < 0 for x in qe):
                return None
            qc, r = divmod(c, clead)
            if r:
                return None
            quo[qe] = qc
            for ed, cd in den.terms.items():
                k = tuple(x + y for x, y in zip(qe, ed))
                v = cur.get(k, 0) - qc * cd
                if v:
                    cur[k] = v
                elif k in cur:
                    del cur[k]
        shift_back = tuple(x - y for x, y in zip(mc_n, mc_d))
        return LaurentPoly(self.arity, quo).shift(shift_back)

    def _divide_binomial(self, d: "LaurentPoly"):
        """self / (c1 z^m1 + c0 z^m0) by synthetic division along each chain,
        once the chain of the lex-largest term has failed to refute it."""
        (m1, c1), (m0, c0) = d.terms.items()
        step = tuple(map(sub, m1, m0))
        sj = next(filter(None, step))
        j = step.index(sj)
        # Refute first (module docstring): walk the chain of the lex-largest
        # term down slot j and evaluate it at the root of c_top u + c_bot; a
        # chain of one term is refuted by its own nonzero coefficient.
        e, lo = self.exponent_box()
        if sj > 0:
            down, c_top, c_bot = tuple(map(sub, m0, m1)), c1, c0
        else:
            down, c_top, c_bot = step, c0, c1
        v, last, top_power = self.terms[e], 0, 1
        for i in range(1, (e[j] - lo[j]) // abs(sj) + 1):
            e = tuple(map(add, e, down))
            top_power *= c_top
            c = self.terms.get(e)
            if c:
                v = v * (-c_bot) ** (i - last) + c * top_power
                last = i
        if v:
            return None
        steps: dict = {}  # k -> k * step
        chains: dict = {}  # offset -> {k: coefficient at offset + k * step}
        for e, c in self.terms.items():
            k = e[j] // sj
            ks = steps.get(k) or steps.setdefault(k, tuple(map(mul, step, repeat(k))))
            chains.setdefault(tuple(map(sub, e, ks)), {})[k] = c
        if 1 in map(len, chains.values()):
            return None
        quo: dict = {}
        for rep, chain in chains.items():
            # (c1 y + c0) sum q_k y^k has a_k = c1 q_{k-1} + c0 q_k: solve top down
            lo, hi = min(chain), max(chain)
            e = tuple(map(add, rep, map(mul, step, repeat(hi))))
            q = 0
            for k in range(hi, lo, -1):
                q, r = divmod(chain.get(k, 0) - c0 * q, c1)
                if r:
                    return None
                e = tuple(map(sub, e, step))
                if q:
                    quo[tuple(map(sub, e, m0))] = q
            if chain[lo] != c0 * q:
                return None
        return LaurentPoly(self.arity, quo)

    # ---------- substitutions ----------

    def weyl(self, matrix) -> "LaurentPoly":
        """Apply a Weyl group element to the characters: z^lam -> z^(M lam), t fixed.

        matrix is an n x n tuple-of-tuples acting on fundamental-weight
        coordinates (column vectors).
        """
        out: dict = {}
        for e, c in self.terms.items():
            lam = e[1:]
            k = (e[0],) + tuple([sum(map(mul, row, lam)) for row in matrix])
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return LaurentPoly(self.arity, out)

    def dualize(self) -> "LaurentPoly":
        """Substitution t -> t^-1 and z_i -> z_i^-1."""
        return LaurentPoly(self.arity, {tuple(-x for x in e): c for e, c in self.terms.items()})

    def embed(self, arity: int, slots: tuple) -> "LaurentPoly":
        """Re-embed into a ring of the given arity, slot i -> slots[i]."""
        out = {}
        for e, c in self.terms.items():
            k = [0] * arity
            for i, x in enumerate(e):
                k[slots[i]] = x
            out[tuple(k)] = c
        return LaurentPoly(arity, out)

    # ---------- evaluation ----------

    def eval_mod(self, point: tuple, p: int) -> int:
        """Evaluate at a tuple of residues (one per slot, all nonzero) mod p."""
        total = 0
        for e, c in self.terms.items():
            v = c % p
            for x, base in zip(e, point):
                if x:
                    v = v * pow(base, x, p) % p
            total = (total + v) % p
        return total

    # ---------- text form ----------

    def format(self) -> str:
        """Canonical text form: terms in descending monomial order.

        Each term prints as `c * t^a * z1^b1 * ...`, omitting factors with
        zero exponent, `^1` on single powers, and `c *` when c is 1 and at
        least one variable factor is present.
        """
        if not self.terms:
            return "0"
        names = ["t"] + [f"z{i}" for i in range(1, self.arity)]
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for name, x in zip(names, e):
                if x == 1:
                    factors.append(name)
                elif x != 0:
                    factors.append(f"{name}^{x}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(" * ".join(factors))
            elif c == -1:
                parts.append("-" + " * ".join(factors))
            else:
                parts.append(f"{c} * " + " * ".join(factors))
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return f"LaurentPoly({self.format()})"

