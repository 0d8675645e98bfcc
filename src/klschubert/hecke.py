"""Hecke algebra over Z[t, t^-1] in the tau basis, and Kazhdan-Lusztig data.

Generators satisfy tau_i^2 = (t^-1 - t) tau_i + 1 and the braid relations.
The canonical basis gamma_w is the unique bar-invariant element of
tau_w + sum_{v<w} t Z[t] tau_v; writing gamma_w = sum t^{l(w)-l(v)}
P_{v,w}(t^-2) tau_v defines the KL polynomials, which are kept in a KLTable
(with optional versioned JSON persistence, since the table dominates the
runtime for larger symmetric groups).

The recursion used is gamma_w = gamma_{ws} gamma_s - sum mu(v, ws) gamma_v
over v < ws with vs < v, where mu(v, u) is the coefficient of t in the
gamma_u coefficient of tau_v; bar-invariance is re-checked after the fact
(fully at small rank, on a sample beyond that) to guard convention bugs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from .laurent import LaurentPoly
from .rootsystem import RootSystem, WeylElt

__all__ = ["HeckeAlgebra", "HeckeElt", "KLTable", "qpoly_str"]

# coefficient ring helpers (Laurent polynomials in t alone)
_T = LaurentPoly.monomial((1,), 1)
_TINV = LaurentPoly.monomial((-1,), 1)
_ONE = LaurentPoly.const(1, 1)
_QUAD = _TINV - _T  # t^-1 - t

FULL_BAR_CHECK_LIMIT = 130  # |W| up to which every gamma_w gets the bar check


class HeckeElt:
    """Finite Z[t, t^-1]-combination of tau_w basis elements."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "HeckeAlgebra", coeffs: dict):
        self.algebra = algebra
        self.coeffs = {w: p for w, p in coeffs.items() if p.terms}

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        out = dict(self.coeffs)
        for w, p in other.coeffs.items():
            q = out.get(w)
            out[w] = p if q is None else q + p
        return HeckeElt(self.algebra, out)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + other.scale(LaurentPoly.const(1, -1))

    def scale(self, p: LaurentPoly) -> "HeckeElt":
        if not p.terms:
            return HeckeElt(self.algebra, {})
        return HeckeElt(self.algebra, {w: c * p for w, c in self.coeffs.items()})

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        return self.algebra.product(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElt)
            and self.algebra.system is other.algebra.system
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs, key=lambda w: (w.length, w.idx))

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for w in self.support():
            parts.append(f"({self.coeffs[w].format()}) tau[{w!r}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"HeckeElt({self.format()})"


class KLTable:
    """Kazhdan-Lusztig polynomials P_{v,w} as ascending q-coefficient tuples."""

    FORMAT_VERSION = 1

    def __init__(self, system: RootSystem):
        self.system = system
        self.entries: dict = {}
        self.complete: set = set()

    def get(self, v: WeylElt, w: WeylElt):
        if w.idx in self.complete:
            return self.entries.get((v.idx, w.idx), ())
        return self.entries.get((v.idx, w.idx))

    def known_for(self, w: WeylElt) -> bool:
        return w.idx in self.complete

    def entry_count(self) -> int:
        """Logical (v, w) pairs whose value is known."""
        return len(self.complete) * self.system.order

    # ---------- persistence ----------

    def to_json(self) -> str:
        words = self.system._words
        rows = sorted(
            (list(words[v]), list(words[w]), list(coeffs))
            for (v, w), coeffs in self.entries.items()
            if coeffs
        )
        payload = {
            "format_version": self.FORMAT_VERSION,
            "type_label": self.system.cartan_data.type_label,
            "rank": self.system.rank,
            "complete": sorted(list(words[w]) for w in self.complete),
            "entries": rows,
        }
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)

    def load_json(self, text: str):
        payload = json.loads(text)
        if payload.get("format_version") != self.FORMAT_VERSION:
            raise ValueError("unsupported KL cache format version")
        if (
            payload.get("type_label") != self.system.cartan_data.type_label
            or payload.get("rank") != self.system.rank
        ):
            raise ValueError("KL cache belongs to a different group")
        for v_word, w_word, coeffs in payload["entries"]:
            v = self.system.from_word(v_word)
            w = self.system.from_word(w_word)
            self.entries[(v.idx, w.idx)] = tuple(coeffs)
        for w_word in payload["complete"]:
            self.complete.add(self.system.from_word(w_word).idx)

    def file_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


class HeckeAlgebra:
    def __init__(self, system: RootSystem, cache_dir: str | None = None):
        self.system = system
        self.table = KLTable(system)
        self.cache_dir = cache_dir
        self._gamma: dict = {}
        self._bar_tau: dict = {}
        self._kl_done_length = -1
        if cache_dir:
            path = self.cache_path()
            if os.path.exists(path):
                with open(path) as fh:
                    self.table.load_json(fh.read())

    def cache_path(self) -> str:
        label = self.system.cartan_data.type_label
        return os.path.join(self.cache_dir, f"kl_{label}_{self.system.rank}.json")

    def save_cache(self):
        if not self.cache_dir:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        with open(self.cache_path(), "w") as fh:
            fh.write(self.table.to_json())

    # ---------- basis elements and products ----------

    def zero(self) -> HeckeElt:
        return HeckeElt(self, {})

    def one(self) -> HeckeElt:
        return self.tau(self.system.identity)

    def tau(self, w: WeylElt) -> HeckeElt:
        return HeckeElt(self, {w: _ONE})

    def tau_mul(self, h: HeckeElt, i: int, side: str = "right") -> HeckeElt:
        """Multiply by tau_i on the given side."""
        if not 0 <= i < self.system.rank:
            raise IndexError(f"simple reflection index {i} out of range")
        system = self.system
        table = system.right_table if side == "right" else system.left_table
        lengths = system._lengths
        elements = system.elements
        out: dict = {}
        for w, p in h.coeffs.items():
            j = table[w.idx][i]
            ws = elements[j]
            q = out.get(ws)
            out[ws] = p if q is None else q + p
            if lengths[j] < w.length:
                extra = p * _QUAD
                q = out.get(w)
                out[w] = extra if q is None else q + extra
        return HeckeElt(self, out)

    def tau_word(self, h: HeckeElt, word, side: str = "right") -> HeckeElt:
        for i in word:
            h = self.tau_mul(h, i, side)
        return h

    def product(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        out = self.zero()
        for w, c in b.coeffs.items():
            out = out + self.tau_word(a, w.word).scale(c)
        return out

    def tau_inverse_generator(self, i: int) -> HeckeElt:
        """tau_i^{-1} = tau_i + t - t^{-1}."""
        s = self.system.simple_reflection(i)
        return HeckeElt(self, {s: _ONE, self.system.identity: _T - _TINV})

    def tau_inverse(self, w: WeylElt) -> HeckeElt:
        """(tau_w)^{-1}, by inverting a reduced word."""
        out = self.one()
        for i in reversed(w.word):
            out = self.product(out, self.tau_inverse_generator(i))
        return out

    # ---------- bar involution ----------

    def bar_tau(self, w: WeylElt) -> HeckeElt:
        """bar(tau_w) = (tau_{w^{-1}})^{-1}, memoized along reduced words."""
        hit = self._bar_tau.get(w)
        if hit is not None:
            return hit
        if w.length == 0:
            out = self.one()
        else:
            i = w.word[-1]
            prev = self.system.elements[self.system.right_table[w.idx][i]]
            out = self.product(self.bar_tau(prev), self.tau_inverse_generator(i))
        self._bar_tau[w] = out
        return out

    def bar(self, h: HeckeElt) -> HeckeElt:
        """Ring involution with bar(t) = t^-1 and bar(tau_i) = tau_i^{-1}."""
        out = self.zero()
        for w, c in h.coeffs.items():
            out = out + self.bar_tau(w).scale(c.dualize())
        return out

    # ---------- Kazhdan-Lusztig bases ----------

    def kl_compute_upto(self, max_length: int, check_bar: str = "auto"):
        """Fill gamma_w and the KL table for all w of length <= max_length."""
        if max_length <= self._kl_done_length:
            return
        system = self.system
        order = sorted(system.elements, key=lambda w: (w.length, w.idx))
        to_check = self._bar_check_plan(order, check_bar)
        for w in order:
            if w.length > max_length:
                break
            if w in self._gamma:
                continue
            if self.table.known_for(w):
                self._gamma[w] = self._assemble_gamma(w)
                continue
            if w.length == 0:
                g = self.one()
            else:
                i = w.word[-1]
                u = system.elements[system.right_table[w.idx][i]]
                gu = self._gamma[u]
                g = self.tau_mul(gu, i) + gu.scale(_T)
                for v, cv in gu.coeffs.items():
                    mu = cv.terms.get((1,), 0)
                    if mu == 0 or v is u:
                        continue
                    vs = system.elements[system.right_table[v.idx][i]]
                    if vs.length < v.length:
                        g = g + self._gamma[v].scale(LaurentPoly.const(1, -mu))
            self._gamma[w] = g
            self._record_kl_row(w, g)
            if w in to_check and not self._is_bar_invariant(g):
                raise AssertionError(f"gamma for {w!r} is not bar-invariant")
        self._kl_done_length = max_length

    def _bar_check_plan(self, order, check_bar: str):
        if check_bar == "none":
            return set()
        if check_bar == "full" or (
            check_bar == "auto" and self.system.order <= FULL_BAR_CHECK_LIMIT
        ):
            return set(order)
        rng = random.Random(20240 + self.system.order)
        shortish = [w for w in order if 0 < w.length <= 4]
        pool = [w for w in order if w.length > 4]
        sample = rng.sample(pool, min(8, len(pool))) if pool else []
        return set(shortish) | set(sample)

    def _is_bar_invariant(self, g: HeckeElt) -> bool:
        return self.bar(g) == g

    def _record_kl_row(self, w: WeylElt, g: HeckeElt):
        lw = w.length
        for v, poly in g.coeffs.items():
            coeffs = [0] * ((lw - v.length) // 2 + 1)
            for (e,), c in poly.terms.items():
                j, r = divmod(lw - v.length - e, 2)
                if r or j < 0 or j >= len(coeffs):
                    raise AssertionError(f"bad KL exponent structure at ({v!r},{w!r})")
                coeffs[j] = c
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if not coeffs or coeffs[0] != 1:
                raise AssertionError(f"KL constant term is not 1 at ({v!r},{w!r})")
            if len(coeffs) - 1 > max(0, (lw - v.length - 1)) // 2:
                raise AssertionError(f"KL degree bound violated at ({v!r},{w!r})")
            self.table.entries[(v.idx, w.idx)] = tuple(coeffs)
        self.table.complete.add(w.idx)

    def _assemble_gamma(self, w: WeylElt) -> HeckeElt:
        coeffs = {}
        lw = w.length
        for v in self.system.elements:
            p = self.table.get(v, w)
            if p:
                coeffs[v] = LaurentPoly(
                    1, {(lw - v.length - 2 * j,): c for j, c in enumerate(p)}
                )
        return HeckeElt(self, coeffs)

    def kl_basis(self, w: WeylElt, check_bar: str = "auto") -> HeckeElt:
        hit = self._gamma.get(w)
        if hit is not None:
            return hit
        if self.table.known_for(w):
            g = self._assemble_gamma(w)
            self._gamma[w] = g
            return g
        self.kl_compute_upto(w.length, check_bar)
        return self._gamma[w]

    def kl_polynomial(self, v: WeylElt, w: WeylElt) -> tuple:
        """P_{v,w} as a tuple of ascending q-coefficients; () is the zero polynomial."""
        p = self.table.get(v, w)
        if p is None:
            self.kl_basis(w)
            p = self.table.get(v, w)
        return p

    def mu(self, v: WeylElt, w: WeylElt) -> int:
        """Coefficient of t in the gamma_w coefficient of tau_v."""
        p = self.kl_polynomial(v, w)
        d = w.length - v.length
        if d <= 0 or d % 2 == 0:
            return 0
        j = (d - 1) // 2
        return p[j] if len(p) > j else 0

    def kl_tilde_basis(self, w: WeylElt) -> HeckeElt:
        """The second canonical basis, with alternating signs and t -> t^-1 powers."""
        self.kl_basis(w)
        coeffs = {}
        lw, sw = w.length, w.sign
        for v in self.system.elements:
            p = self.table.get(v, w)
            if p:
                sign = sw * v.sign
                coeffs[v] = LaurentPoly(
                    1,
                    {(v.length - lw + 2 * j,): sign * c for j, c in enumerate(p)},
                )
        return HeckeElt(self, coeffs)

    def gamma_rel(self, J, Jp) -> HeckeElt:
        """gamma_{J/J'} = sum over W_J cap W^{J'} of t^{l(w_{J/J'}) - l(v)} tau_v."""
        if not set(Jp) <= set(J):
            raise ValueError("J' must be contained in J")
        reps = self.system.relative_reps(J, Jp)
        top = self.system.relative_longest(J, Jp).length
        return HeckeElt(
            self, {v: LaurentPoly.monomial((top - v.length,), 1) for v in reps}
        )

    def gamma_parabolic(self, J) -> HeckeElt:
        return self.gamma_rel(J, ())

    def gamma_sum(self, w: WeylElt) -> HeckeElt:
        """Gamma_w = sum over the Bruhat interval [e, w] of t^{-l(v)} tau_v."""
        return HeckeElt(
            self,
            {
                v: LaurentPoly.monomial((-v.length,), 1)
                for v in self.system.bruhat_interval(w)
            },
        )

    def hiota(self, h: HeckeElt) -> HeckeElt:
        """Anti-involution fixing t and every tau_i; tau_w -> tau_{w^{-1}}."""
        out: dict = {}
        for w, c in h.coeffs.items():
            wi = w.inverse()
            q = out.get(wi)
            out[wi] = c if q is None else q + c
        return HeckeElt(self, out)

    # ---------- inverse and parabolic KL polynomials ----------

    def inverse_kl(self, u: WeylElt, w: WeylElt) -> tuple:
        """Q_{u,w} = P_{w_0 w, w_0 u}."""
        w0 = self.system.w0
        return self.kl_polynomial(w0 * w, w0 * u)

    def parabolic_kl(self, v: WeylElt, w: WeylElt, J) -> tuple:
        """P^J_{v,w} = P_{v, w w_J} for v, w in W^J."""
        self.system.require_min_rep(v, J)
        self.system.require_min_rep(w, J)
        wj = self.system.longest_parabolic(J)
        return self.kl_polynomial(v, w * wj)

    def inverse_parabolic_kl(self, u: WeylElt, w: WeylElt, J) -> tuple:
        """Q^J_{u,w} = sum over v in W_J of eps_v eps_{w_J} Q_{u w_J, w v}."""
        self.system.require_min_rep(u, J)
        self.system.require_min_rep(w, J)
        wj = self.system.longest_parabolic(J)
        acc: dict = {}
        for v in self.system.parabolic_elements(J):
            sign = v.sign * wj.sign
            q = self.inverse_kl(u * wj, w * v)
            for j, c in enumerate(q):
                acc[j] = acc.get(j, 0) + sign * c
        top = max((j for j, c in acc.items() if c), default=-1)
        return tuple(acc.get(j, 0) for j in range(top + 1))


def qpoly_str(coeffs: tuple) -> str:
    """Human-readable form of an ascending q-coefficient tuple."""
    if not coeffs:
        return "0"
    parts = []
    for j, c in enumerate(coeffs):
        if not c:
            continue
        if j == 0:
            parts.append(str(c))
        elif j == 1:
            parts.append(f"{c}*q" if c != 1 else "q")
        else:
            parts.append(f"{c}*q^{j}" if c != 1 else f"q^{j}")
    return " + ".join(parts)
