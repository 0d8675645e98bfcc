"""Hecke algebra over Z[t, t^-1] in the tau basis, and Kazhdan-Lusztig data.

Generators satisfy tau_i^2 = (t^-1 - t) tau_i + 1 and the braid relations.
The canonical basis gamma_w is the unique bar-invariant element of
tau_w + sum_{v<w} t Z[t] tau_v; writing gamma_w = sum t^{l(w)-l(v)}
P_{v,w}(t^-2) tau_v defines the KL polynomials.  Row w of the polynomials
is recorded when gamma_w is computed, so it is known exactly when gamma_w is.

The recursion used is gamma_w = gamma_{ws} gamma_s - sum mu(v, ws) gamma_v
over v < ws with vs < v, where mu(v, u) is the coefficient of t in the
gamma_u coefficient of tau_v; bar-invariance is re-checked after the fact
(fully at small rank, on a sample beyond that) to guard convention bugs.
"""

from __future__ import annotations

import random

from .laurent import LaurentPoly
from .rootsystem import RootSystem, WeylElt, WMap

__all__ = ["HeckeAlgebra", "HeckeElt", "qpoly_str"]

# coefficient ring helpers (Laurent polynomials in t alone)
_T = LaurentPoly.monomial((1,), 1)
_TINV = LaurentPoly.monomial((-1,), 1)
_ONE = LaurentPoly.const(1, 1)
_QUAD = _TINV - _T  # t^-1 - t

FULL_BAR_CHECK_LIMIT = 130  # |W| up to which every gamma_w gets the bar check


class HeckeElt(WMap):
    """Finite Z[t, t^-1]-combination of tau_w basis elements."""

    __slots__ = ()
    _term = "({c}) tau[{w!r}]"
    _sep = " + "

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        return self.ring.product(self, other)

    def __repr__(self):
        return f"HeckeElt({self.format()})"


class HeckeAlgebra:
    def __init__(self, system: RootSystem):
        self.system = system
        self._gamma: dict = {}
        # (v.idx, w.idx) -> P_{v,w} as ascending q-coefficients, for w in _gamma
        self._kl: dict = {}
        self._bar_tau: dict = {}
        self._kl_done_length = -1

    def compatible(self, other) -> bool:
        """Elements of other can be added to and compared with ours."""
        return other is self or (isinstance(other, HeckeAlgebra) and other.system is self.system)

    def as_scalar(self, value) -> LaurentPoly:
        """An int as a constant Laurent polynomial in t; a polynomial as itself."""
        return LaurentPoly.const(1, value) if isinstance(value, int) else value

    # ---------- basis elements and products ----------

    def zero(self) -> HeckeElt:
        return HeckeElt(self, {})

    def one(self) -> HeckeElt:
        return self.tau(self.system.identity)

    def tau(self, w: WeylElt) -> HeckeElt:
        return HeckeElt(self, {w: _ONE})

    def tau_mul(self, h: HeckeElt, i: int) -> HeckeElt:
        """Multiply by tau_i on the right."""
        if not 0 <= i < self.system.rank:
            raise IndexError(f"simple reflection index {i} out of range")
        system = self.system
        table = system.right_table
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

    def tau_word(self, h: HeckeElt, word) -> HeckeElt:
        for i in word:
            h = self.tau_mul(h, i)
        return h

    def product(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        out = self.zero()
        for w, c in b.coeffs.items():
            out = out + self.tau_word(a, w.word).scale(c)
        return out

    # ---------- bar involution ----------

    def bar_tau(self, w: WeylElt) -> HeckeElt:
        """bar(tau_w) = (tau_{w^{-1}})^{-1}, memoized along reduced words: with
        b = bar(tau_{ws}), bar(tau_w) = b tau_s^{-1} = b tau_s + (t - t^{-1}) b."""
        hit = self._bar_tau.get(w)
        if hit is not None:
            return hit
        if w.length == 0:
            out = self.one()
        else:
            i, prev = self.system.right_step(w)
            b = self.bar_tau(prev)
            out = self.tau_mul(b, i) + b.scale(_T - _TINV)
        self._bar_tau[w] = out
        return out

    def bar(self, h: HeckeElt) -> HeckeElt:
        """Ring involution with bar(t) = t^-1 and bar(tau_i) = tau_i^{-1}: the sum
        of dualize(h_w) bar(tau_w), accumulated into one map."""
        out: dict = {}
        for w, c in h.coeffs.items():
            c = c.dualize()
            for v, p in self.bar_tau(w).coeffs.items():
                q = out.get(v)
                out[v] = p * c if q is None else q + p * c
        return HeckeElt(self, out)

    # ---------- Kazhdan-Lusztig bases ----------

    def kl_compute_upto(self, max_length: int):
        """Fill gamma_w and the KL polynomials for all w of length <= max_length."""
        if max_length <= self._kl_done_length:
            return
        system = self.system
        order = sorted(system.elements, key=lambda w: (w.length, w.idx))
        to_check = self._bar_check_plan(order)
        for w in order:
            if w.length > max_length:
                break
            if w in self._gamma:
                continue
            if w.length == 0:
                g = self.one()
            else:
                i, u = system.right_step(w)
                gu = self._gamma[u]
                g = self.tau_mul(gu, i) + gu.scale(_T)
                for v, mu in self.mu_terms(u, i):
                    g = g + self._gamma[v].scale(-mu)
            self._gamma[w] = g
            self._record_kl_row(w, g)
            if w in to_check and self.bar(g) != g:
                raise AssertionError(f"gamma for {w!r} is not bar-invariant")
        self._kl_done_length = max_length

    def _bar_check_plan(self, order):
        """The w whose gamma_w gets the bar check: all of W when |W| is at most
        FULL_BAR_CHECK_LIMIT, else every w of length 1..4 and 8 seeded longer ones."""
        if self.system.order <= FULL_BAR_CHECK_LIMIT:
            return set(order)
        rng = random.Random(20240 + self.system.order)
        shortish = [w for w in order if 0 < w.length <= 4]
        pool = [w for w in order if w.length > 4]
        sample = rng.sample(pool, min(8, len(pool))) if pool else []
        return set(shortish) | set(sample)

    def _record_kl_row(self, w: WeylElt, g: HeckeElt):
        lw = w.length
        for v, poly in g.coeffs.items():
            coeffs = [0] * ((lw - v.length) // 2 + 1)
            for e, c in poly.packed.items():  # an arity-1 key is the exponent of t
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
            self._kl[(v.idx, w.idx)] = tuple(coeffs)

    def mu_row(self, w: WeylElt) -> list:
        """(v, mu(v, w)) for every v < w with mu(v, w) nonzero, where mu(v, w) is
        the coefficient of q^{(l(w) - l(v) - 1)/2} in P_{v,w}."""
        lw = w.length
        out = []
        for v in self.kl_basis(w).coeffs:
            d = lw - v.length
            if d % 2:
                p = self._kl[v.idx, w.idx]
                j = d // 2
                if j < len(p) and p[j]:
                    out.append((v, p[j]))
        return out

    def mu_terms(self, w: WeylElt, i: int) -> list:
        """The (v, mu(v, w)) of mu_row(w) with v s_i < v: the terms subtracted
        from gamma_w gamma_{s_i} in the right KL recursion."""
        descents = self.system._descents
        return [(v, m) for v, m in self.mu_row(w) if descents[v.idx] >> i & 1]

    def kl_basis(self, w: WeylElt) -> HeckeElt:
        hit = self._gamma.get(w)
        if hit is None:
            self.kl_compute_upto(w.length)
            hit = self._gamma[w]
        return hit

    def kl_polynomial(self, v: WeylElt, w: WeylElt) -> tuple:
        """P_{v,w} as a tuple of ascending q-coefficients; () is the zero polynomial."""
        if w not in self._gamma:
            self.kl_compute_upto(w.length)
        return self._kl.get((v.idx, w.idx), ())

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
        """S_w = sum over the Bruhat interval [e, w] of t^{-l(v)} tau_v."""
        return HeckeElt(
            self,
            {
                v: LaurentPoly.monomial((-v.length,), 1)
                for v in self.system.bruhat_interval(w)
            },
        )

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
