"""Hecke algebra over Z[t, t^-1] in the tau basis, and Kazhdan-Lusztig data.

Generators satisfy tau_i^2 = (t^-1 - t) tau_i + 1 and the braid relations.
The canonical basis gamma_w is the unique bar-invariant element of
tau_w + sum_{v<w} t Z[t] tau_v; writing gamma_w = sum t^{l(w)-l(v)}
P_{v,w}(t^-2) tau_v defines the KL polynomials.  The first read of any row
builds the whole table; what stays after the build is row w of the
polynomials and the mu terms of gamma_w, for every w.

The recursion used is gamma_w = gamma_{ws} (tau_s + t) - sum mu(v, ws) gamma_v
over v < ws with vs < v, where mu(v, u) is the coefficient of t in the
gamma_u coefficient of tau_v; bar-invariance is re-checked after the fact
(fully at small rank, on a sample beyond that) to guard convention bugs, as
sum_v dualize(gamma_w[v]) bar(tau_v) = gamma_w.

Packed coefficients.  Every coefficient here is a Laurent polynomial in t
alone with small integer coefficients, held as one Python int: p packs to
p(2^B) 2^{B O} (Kronecker substitution), t^e at bit B (e + O).  Packing is a
ring homomorphism, so the recursions add, multiply and shift (times t or
t^-1) packed ints exactly; gamma_w sits at offset 0 (exponents 0 to l(w)),
bar(tau_v) at offset L = l(w0) (exponents -l(v) to l(v)).  Reading back needs
a bound: the balanced digits, each in [-2^{B-1}, 2^{B-1}), are the
coefficients when each is below 2^{B-1} in absolute value, and two packings
are equal ints exactly when the polynomials are equal, once every
coefficient of their difference is below 2^B.

The bound.  At t = 1 the algebra is Z[W] and gamma_w is sum_v P_{v,w}(1) v.
KL polynomials have nonnegative coefficients (Kazhdan-Lusztig 1980), so the
recursion gives N(gamma_w) <= 2 N(gamma_{ws}) <= 2^{l(w)}, N the sum of the
absolute values of the coefficients; tau_s^-1 at most triples N, so
N(bar(tau_v)) <= 3^{l(v)}, and the two sides of the bar check differ by at
most N(gamma_w) (3^{l(w)} + 1) in any coefficient.  B is the bit length of
2^L (3^L + 1).  Positivity is a theorem about the true values, so the table
does not rely on it: gamma_w is read back only while 2 N(gamma_{ws}) +
sum |mu| N(gamma_v), from rows already read, stays below 2^{B-1}, and
bar-checked only while N(gamma_w) (3^{l(w)} + 1) stays below 2^B; else
OverflowError, before any digit can wrap.  A bar check that passes is
therefore exact equality of polynomials.  product sizes its packing from its
arguments the same way, and builds a tau_w = (a tau_{ws}) tau_s as the rows
bar(tau_w) = bar(tau_{ws}) tau_s^-1 are built, by one walk of right steps.

Inversion rows.  The inversion formula sum_w eps_u eps_w Q^J_{u,w} P^J_{w,v}
= delta_uv (Deodhar 1987) reads P^J by rows and Q^J by rows, and
inversion_rows builds both for one J in one pass over the stored columns, once
per J.  Row w of P^J is {v: P_{w, v w_J}} over v in W^J: the columns at
v w_J, transposed and restricted to W^J.  Q^J_{u,w} = sum over x in W_J of
eps_x eps_{w_J} P_{w0 w x, w0 u w_J} reads the one column at w0 u w_J: its
entry at z has w0 z = r x with r the minimal representative of w0 z W_J, so
it adds eps_r eps_{w0 z} eps_{w_J} P_{z, w0 u w_J} to the row at w = r.  At
J = () the Q row of u is the column of w0 u, reindexed by w0 z.
"""

from __future__ import annotations

import random
from itertools import zip_longest

from .laurent import LaurentPoly
from .rootsystem import Memo, RootSystem, WeylElt, WMap

__all__ = ["HeckeAlgebra", "HeckeElt", "balanced_digits"]

_ONE = LaurentPoly.const(1, 1)

FULL_BAR_CHECK_LIMIT = 130  # |W| up to which every gamma_w gets the bar check

# c = (a, b) for a right step by tau_i + a t + b t^-1
_TAU = (0, 0)
_TAU_PLUS_T = (1, 0)  # the KL recursion's gamma_ws (tau_s + t)
_TAU_INVERSE = (1, -1)  # tau_s^-1 = tau_s + t - t^-1


def _slot_width(top: int) -> int:
    """Bits per t-power slot of the KL table of a group with l(w0) = top: the
    bit length of the a priori bound 2^top (3^top + 1) (module docstring)."""
    return (2**top * (3**top + 1)).bit_length()


def balanced_digits(n: int, width: int) -> list:
    """The balanced base-2^width digits of n, lowest first, no zero on top."""
    out = []
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    while n:
        r = n & mask
        if r >= half:
            r -= full
        out.append(r)
        n = (n - r) >> width
    return out


def _pack(poly: LaurentPoly, offset: int, width: int) -> int:
    return sum(c << width * (e + offset) for e, c in poly.packed.items())


def _unpack(n: int, offset: int, width: int) -> LaurentPoly:
    digits = balanced_digits(n, width)
    return LaurentPoly.from_packed(1, {e - offset: c for e, c in enumerate(digits)})


class HeckeElt(WMap):
    """Finite Z[t, t^-1]-combination of tau_w basis elements."""

    __slots__ = ()
    _term = "({c}) tau[{w!r}]"
    _sep = " + "

    def __repr__(self):
        return f"HeckeElt({self.format()})"


class HeckeAlgebra(Memo):
    def __init__(self, system: RootSystem):
        super().__init__()
        self.system = system
        n = system.order
        self._rows = [None] * n  # {v.idx: P_{v,w} as ascending q-coefficients}
        self._mu = [None] * n  # [(v, mu(v, w))] for mu(v, w) nonzero

    # ---------- basis elements and products ----------

    def one(self) -> HeckeElt:
        return self.tau(self.system.identity)

    def tau(self, w: WeylElt) -> HeckeElt:
        """tau_w; ValueError for an element of another group."""
        self.system.require_element(w)
        return HeckeElt(self, {w: _ONE})

    def _right_step(self, coeffs: dict, i: int, width: int, c: tuple) -> dict:
        """coeffs (tau_i + a t + b t^-1) for c = (a, b), on packed coefficients
        keyed by element index: each moves to v s_i, and v keeps
        (t^-1 - t + a t + b t^-1) p where v s_i < v, (a t + b t^-1) p elsewhere,
        a shift by one slot each way."""
        table, descents = self.system.right_table, self.system._descents
        a, b = c
        out: dict = {}
        for v, p in coeffs.items():
            j = table[v][i]
            out[j] = out.get(j, 0) + p
            d = descents[v] >> i & 1
            up, down = a - d, b + d
            if up or down:
                extra = up * (p << width) if up else 0
                if down:
                    extra += down * (p >> width)
                out[v] = out.get(v, 0) + extra
        return out

    def _walk(self, images: dict, w: int, width: int, c: tuple) -> dict:
        """The image of the element of index w, images[ws] (tau_s + a t + b t^-1)
        for c = (a, b) and s its last letter: right steps from the nearest image
        recorded on w's parent chain, each new image recorded by index."""
        parent, last, chain = self.system._parent, self.system._last, []
        while w not in images:
            chain.append(w)
            w = parent[w]
        image = images[w]
        for w in reversed(chain):
            image = images[w] = self._right_step(image, last[w], width, c)
        return image

    def product(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        """a b = sum over w of b_w a tau_w on packed coefficients, a tau_w one
        right step from a tau_{ws}, recorded for this call; a is packed once and
        the result read back once.  Each step at most triples N, so the slot
        width comes from N(a) N(b) 3^l for the longest w in b, and the offset of
        a from its lowest exponent and that l, so every shift down is exact."""
        if a.ring is not self or b.ring is not self:
            raise ValueError("elements of different Hecke algebras")
        steps = max((w.length for w in b.coeffs), default=0)
        norm_a = sum(abs(c) for p in a.coeffs.values() for c in p.packed.values())
        norm_b = sum(abs(c) for p in b.coeffs.values() for c in p.packed.values())
        width = (norm_a * norm_b * 3**steps).bit_length() + 1
        off_a = max(0, steps - min((e for p in a.coeffs.values() for e in p.packed), default=0))
        off_b = max(0, -min((e for p in b.coeffs.values() for e in p.packed), default=0))
        images = {0: {w.idx: _pack(p, off_a, width) for w, p in a.coeffs.items()}}
        out: dict = {}
        for w, c in b.coeffs.items():
            cb = _pack(c, off_b, width)
            for v, p in self._walk(images, w.idx, width, _TAU).items():
                out[v] = out.get(v, 0) + cb * p
        elements = self.system.elements
        return HeckeElt(
            self, {elements[v]: _unpack(p, off_a + off_b, width) for v, p in out.items()}
        )

    # ---------- Kazhdan-Lusztig bases ----------

    def kl_compute_upto(self):
        """Build gamma_w and row w of the KL polynomials for every w, in order of
        length; gamma_w, their norms and the bar rows are dropped at the end."""
        system = self.system
        top, n = system.w0.length, system.order
        width = _slot_width(top)
        limit = 1 << (width - 1)
        packed, norms = [None] * n, [None] * n  # gamma_w packed at offset 0, N(gamma_w)
        bar_rows = {0: {0: 1 << width * top}}  # bar(tau_w) packed at offset l(w0)
        to_check = self._bar_check_plan(system.elements)
        for w in system.elements:
            if w.length == 0:
                g, bound = {w.idx: 1}, 1
            else:
                # row u passed its structure checks, so each coefficient at a
                # v < u has no constant term and the shift down is exact
                i, u = system.right_step(w)
                g = self._right_step(packed[u.idx], i, width, _TAU_PLUS_T)
                bound = 2 * norms[u.idx]
                for v, mu in self.mu_terms(u, i):
                    bound += abs(mu) * norms[v.idx]
                    for y, p in packed[v.idx].items():
                        g[y] = g.get(y, 0) - mu * p
                g = {y: p for y, p in g.items() if p}
            if bound >= limit:
                raise OverflowError(
                    f"gamma for {w!r} may have a coefficient of {bound}, "
                    f"beyond {width}-bit slots"
                )
            digits = {v: balanced_digits(p, width) for v, p in g.items()}
            norms[w.idx] = norm = sum(abs(c) for dig in digits.values() for c in dig)
            if w in to_check:
                self._bar_check(w, g, digits, norm, width, bar_rows)
            packed[w.idx] = g
            self._record_kl_row(w, digits)

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

    def _bar_check(
        self, w: WeylElt, g: dict, digits: dict, norm: int, width: int, bar_rows: dict
    ):
        """sum_v dualize(gamma_w[v]) bar(tau_v) = gamma_w as packed ints, norm =
        N(gamma_w): each dualized coefficient packed at offset l(w), bar(tau_v)
        = bar(tau_{vs}) tau_s^{-1} walked on bar_rows at offset l(w0), so both
        sides sit at offset l(w) + l(w0)."""
        lw = w.length
        if norm * (3**lw + 1) >= 1 << width:
            raise OverflowError(
                f"the bar check of gamma for {w!r} may differ by {norm * (3**lw + 1)}, "
                f"beyond {width}-bit slots"
            )
        acc: dict = {}
        for v, dig in digits.items():
            dual = sum(c << width * (lw - e) for e, c in enumerate(dig) if c)
            for y, r in self._walk(bar_rows, v, width, _TAU_INVERSE).items():
                acc[y] = acc.get(y, 0) + dual * r
        shift = width * (lw + self.system.w0.length)
        for y, p in g.items():
            acc[y] = acc.get(y, 0) - (p << shift)
        if any(acc.values()):
            raise AssertionError(f"gamma for {w!r} is not bar-invariant")

    def _record_kl_row(self, w: WeylElt, digits: dict):
        """Row w of the KL table from the digits of gamma_w: the coefficient of
        t^e at v is that of q^j in P_{v,w} for e = l(w) - l(v) - 2j."""
        lw = w.length
        lengths, elements = self.system._lengths, self.system.elements
        row, mus = {}, []
        for v, dig in digits.items():
            d = lw - lengths[v]
            if len(dig) > d + 1 or (len(dig) == d + 1 and d and any(dig[d - 1 :: -2])):
                raise AssertionError(f"bad KL exponent structure at ({elements[v]!r},{w!r})")
            coeffs = dig[d::-2] if len(dig) == d + 1 else []  # q^j at t^{d - 2j}
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if not coeffs or coeffs[0] != 1:
                raise AssertionError(f"KL constant term is not 1 at ({elements[v]!r},{w!r})")
            if len(coeffs) - 1 > max(0, (d - 1)) // 2:
                raise AssertionError(f"KL degree bound violated at ({elements[v]!r},{w!r})")
            row[v] = tuple(coeffs)
            if d % 2 and dig[1]:
                mus.append((elements[v], dig[1]))
        self._rows[w.idx], self._mu[w.idx] = row, mus

    def _index(self, w: WeylElt) -> int:
        """w.idx, once w is checked to be an element of this algebra's group."""
        self.system.require_element(w)
        return w.idx

    def _column(self, w: int) -> dict:
        """{v.idx: P_{v,w}} for the element of index w; the first read of a
        missing row builds the whole table (the build reads its earlier rows
        here, so it is not entered again)."""
        row = self._rows[w]
        if row is None:
            self.kl_compute_upto()
            row = self._rows[w]
        return row

    def mu_row(self, w: WeylElt) -> list:
        """(v, mu(v, w)) for every v < w with mu(v, w) nonzero, where mu(v, w) is
        the coefficient of q^{(l(w) - l(v) - 1)/2} in P_{v,w}."""
        self._column(self._index(w))
        return self._mu[w.idx]

    def mu_terms(self, w: WeylElt, i: int) -> list:
        """The (v, mu(v, w)) of mu_row(w) with v s_i < v: the terms subtracted
        from gamma_w gamma_{s_i} in the right KL recursion."""
        descents = self.system._descents
        return [(v, m) for v, m in self.mu_row(w) if descents[v.idx] >> i & 1]

    def kl_basis(self, w: WeylElt) -> HeckeElt:
        """gamma_w, decoded from row w of the KL table once."""
        self._index(w)
        return self._once(self._kl_basis, w)

    def _kl_basis(self, w: WeylElt) -> HeckeElt:
        lw, lengths, elements = w.length, self.system._lengths, self.system.elements
        return HeckeElt(
            self,
            {
                elements[v]: LaurentPoly.from_packed(
                    1, {lw - lengths[v] - 2 * j: c for j, c in enumerate(p)}
                )
                for v, p in self._column(w.idx).items()
            },
        )

    def kl_polynomial(self, v: WeylElt, w: WeylElt) -> tuple:
        """P_{v,w} as a tuple of ascending q-coefficients; () is the zero polynomial."""
        return self._column(self._index(w)).get(self._index(v), ())

    def gamma_rel(self, J, Jp) -> HeckeElt:
        """gamma_{J/J'} = sum over W_J cap W^{J'} of t^{l(w_{J/J'}) - l(v)} tau_v."""
        reps = self.system.relative_reps(J, Jp)
        top = self.system.relative_longest(J, Jp).length
        return HeckeElt(
            self, {v: LaurentPoly.monomial((top - v.length,), 1) for v in reps}
        )

    # ---------- inverse and parabolic KL polynomials ----------

    def inverse_kl(self, u: WeylElt, w: WeylElt) -> tuple:
        """Q_{u,w} = P_{w_0 w, w_0 u}, through kl_polynomial."""
        left, elements = self.system._w0_left, self.system.elements
        return self.kl_polynomial(elements[left[self._index(w)]], elements[left[self._index(u)]])

    def parabolic_kl(self, v: WeylElt, w: WeylElt, J) -> tuple:
        """P^J_{v,w} = P_{v, w w_J} for v, w in W^J."""
        system = self.system
        system.require_min_rep(v, J)
        system.require_min_rep(w, J)
        times_wj = system.cayley_column(system.longest_parabolic(J).idx)
        return self._column(times_wj[w.idx]).get(v.idx, ())

    def inverse_parabolic_kl(self, u: WeylElt, w: WeylElt, J) -> tuple:
        """Q^J_{u,w}, read from the Q^J row of u."""
        self.system.require_min_rep(u, J)
        self.system.require_min_rep(w, J)
        return self.inversion_rows(J)[1][u.idx].get(w.idx, ())

    def inversion_rows(self, J) -> tuple:
        """(P^J rows, Q^J rows) over W^J, built once per J (module docstring):
        {w.idx: {v.idx: P^J_{w,v}}} and {u.idx: {w.idx: Q^J_{u,w}}}, each
        row without its zero entries."""
        return self._once(self._inversion_rows, self.system._jkey(J))

    def _inversion_rows(self, J: tuple) -> tuple:
        system = self.system
        reps = system.minimal_coset_reps(J)
        w0, wj = system.w0, system.longest_parabolic(J)
        p_rows = {w.idx: {} for w in reps}
        for v in reps:
            for w, p in self._column((v * wj).idx).items():
                row = p_rows.get(w)
                if row is not None:
                    row[v.idx] = p
        rep = [0] * system.order  # the minimal representative of y W_J, by y
        for x in system.parabolic_elements(J):
            times_x = system.cayley_column(x.idx)
            for r in p_rows:
                rep[times_x[r]] = r
        left, lengths = system._w0_left, system._lengths
        parity = w0.length + wj.length
        q_rows = {}
        for u in reps:
            acc: dict = {}
            for z, p in self._column((w0 * u * wj).idx).items():
                r = rep[left[z]]
                if (lengths[r] + lengths[z] + parity) & 1:
                    p = tuple(-c for c in p)
                q = acc.get(r)
                acc[r] = p if q is None else tuple(map(sum, zip_longest(q, p, fillvalue=0)))
            q_rows[u.idx] = row = {}
            for r, q in acc.items():
                while q and q[-1] == 0:
                    q = q[:-1]
                if q:
                    row[r] = q
        return p_rows, q_rows
