"""Localized twisted group ring Q_W over a formal-group-law realization.

Elements are finite sums sum p_w delta_w with rational-function coefficients
and the twisted product (p delta_v)(p' delta_w) = p v(p') delta_{vw}.  Two
realizations are supported, sharing one rational-function field so that the
transfer between them is coefficientwise trivial:

    multiplicative   x_lam = 1 - e^{-lam}
    hyperbolic       x_lam = (t^2+1)(1 - e^{-lam}) / (t^2 - e^{-lam})

The hyperbolic x is the preimage of the multiplicative one under the formal
group law morphism g(x) = (1-t^2) x / (x - (t^2+1)); the price is that the
coefficient ring inverts t^2 - 1, which the fraction field supplies.

Demazure-Lusztig generators: the Hecke algebra acts through Y_i c - t, with
c = t - t^{-1} e^{alpha_i} in the multiplicative realization and
c = mu = t + t^{-1} in the hyperbolic one.  The transfer psi sends the first
to the second, which is one of the verified contracts.

Every sum of products goes through dot_by_key, one dom.dot per key: general
twisted products (qw_mul, and bullet and odot in localization), the right
steps of dl_element and the combinations of hecke_to_qw.  Exact mode then
cancels once per sum, and mod p reduces once.

A right product by Y_{J/J'} = sum_w w(q) delta_w (w over W_J / W_{J'}, q =
1/x_{J/J'}) is in closed form, times_pushpull: p v(w(q)) = p (vw)(q), so
(a Y_{J/J'})_z = z(q) sum_w a_{z w^-1}, one sum (a dot against dom.one) and
one twist and product per key z, not per pair (v, w) as in qw_mul.  In mod p,
q is a known function, so any z may twist it.
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .ratfunc import RatFunc
from .rootsystem import Memo, Root, RootSystem, WeylElt, WMap

__all__ = ["FglModel", "QWElt", "TwistedRing", "combine", "dot_by_key", "psi", "twisted_product"]


def twisted_product(dom, a: dict, b: dict) -> dict:
    """The twisted product of {w: scalar} maps: p v(q) summed at v w, one
    dom.dot per key."""
    weyl = dom.weyl
    return dot_by_key(dom, ((v * w, p, weyl(v, q)) for v, p in a.items() for w, q in b.items()))


def combine(dom, terms) -> dict:
    """sum c m over (scalar c, {w: scalar} map m) pairs: one dom.dot per key w,
    over the m_w and c in the order of terms."""
    return dot_by_key(dom, ((w, v, c) for c, m in terms for w, v in m.items()))


def dot_by_key(dom, triples) -> dict:
    """{w: sum x c over the (w, x, c) in triples}: one dom.dot per key w, in
    the order of triples."""
    by_key: dict = {}
    for w, x, c in triples:
        pair = by_key.get(w)
        if pair is None:
            by_key[w] = ([x], [c])
        else:
            pair[0].append(x)
            pair[1].append(c)
    return {w: dom.dot(xs, cs) for w, (xs, cs) in by_key.items()}


class FglModel:
    """Exact-fraction realization of x_lambda for one formal group law."""

    KINDS = ("multiplicative", "hyperbolic")

    def __init__(self, kind: str, rank: int):
        if kind not in self.KINDS:
            raise ValueError(f"unknown formal group law kind {kind!r}")
        self.kind = kind
        self.rank = rank
        self.arity = rank + 1

    def _e_minus(self, lam) -> LaurentPoly:
        return LaurentPoly.monomial((0,) + tuple(-x for x in lam), 1)

    def x_weight(self, lam) -> RatFunc:
        """x_lambda as an exact rational function."""
        one = LaurentPoly.const(self.arity, 1)
        em = self._e_minus(lam)
        if self.kind == "multiplicative":
            return RatFunc(one - em)
        t2p1 = LaurentPoly.t_power(self.arity, 2) + one
        t2 = LaurentPoly.t_power(self.arity, 2)
        return RatFunc.from_den_factors(t2p1 * (one - em), [t2 - em])

    def x_weight_inv(self, lam) -> RatFunc:
        """1 / x_lambda, with the denominator kept in factored binomials."""
        one = LaurentPoly.const(self.arity, 1)
        em = self._e_minus(lam)
        if self.kind == "multiplicative":
            return RatFunc.from_den_factors(one, [one - em])
        t2p1 = LaurentPoly.t_power(self.arity, 2) + one
        t2 = LaurentPoly.t_power(self.arity, 2)
        return RatFunc.from_den_factors(t2 - em, [t2p1, one - em])

    def fgl_morphism_g(self, x: RatFunc) -> RatFunc:
        """g(x) = (1 - t^2) x / (x - (t^2 + 1)), from this law to the multiplicative one."""
        if self.kind != "hyperbolic":
            raise ValueError("g is defined on the hyperbolic realization")
        one = RatFunc.from_int(self.arity, 1)
        t2 = RatFunc(LaurentPoly.t_power(self.arity, 2))
        return (one - t2) * x / (x - (t2 + one))


class QWElt(WMap):
    """Finite combination sum p_w delta_w in a twisted group ring."""

    __slots__ = ()
    _term = "({c}) d[{w!r}]"
    _sep = " + "

    def __repr__(self):
        return f"QWElt<{self.ring.kind}>({self.format()})"


class TwistedRing(Memo):
    def __init__(self, system: RootSystem, kind: str, domain):
        super().__init__()
        self.system = system
        self.kind = kind
        self.model = FglModel(kind, system.rank)
        self.dom = domain

    # ---------- scalars ----------

    def as_scalar(self, value):
        """An int or a RatFunc lifted into the domain."""
        if isinstance(value, int):
            value = RatFunc.from_int(self.model.arity, value)
        return self.dom.lift(value)

    def inv_mu_power(self, n: int):
        """mu^{-n} = t^n / (t^2 + 1)^n, mu = t + t^{-1}, lifted as one fraction."""
        arity = self.model.arity
        t2p1 = LaurentPoly.t_power(arity, 2) + LaurentPoly.const(arity, 1)
        return self.dom.lift(RatFunc.from_den_factors(LaurentPoly.t_power(arity, n), [t2p1] * n))

    def t_poly(self, p: LaurentPoly):
        """Lift a polynomial in t alone (arity-1 LaurentPoly), once per distinct p."""
        return self._once(self._t_poly, p)

    def _t_poly(self, p: LaurentPoly):
        return self.as_scalar(RatFunc(p.embed(self.model.arity, (0,))))

    def x_root(self, root: Root):
        """x_root as a scalar, lifted once per root."""
        return self._once(self._x_root, root)

    def _x_root(self, root: Root):
        return self.as_scalar(self.model.x_weight(root.weight))

    def root_product(self, factor, roots):
        """The product of the lifts of factor(a) over the roots a.  It starts
        from the lift of 1, not dom.one, which is a computed value, so the
        product is a known function and can be twisted (see modp)."""
        lift = self.dom.lift
        out = lift(RatFunc.from_int(self.model.arity, 1))
        for a in roots:
            out = out * lift(factor(a))
        return out

    def x_parabolic_inv(self, J, Jp=()):
        """1 / x_{J/J'}: the product of 1/x_{-a} over the positive roots a of
        Sigma_J outside Sigma_J', lifted root by root, since pushpull_rel
        twists it."""
        outside_j = set(self.system.roots_outside(J))
        roots = [a for a in self.system.roots_outside(Jp) if a not in outside_j]
        inv = self.model.x_weight_inv
        return self.root_product(lambda a: inv(tuple(-x for x in a.weight)), roots)

    # ---------- elements ----------

    def delta(self, w: WeylElt) -> QWElt:
        """delta_w; ValueError for an element of another group."""
        self.system.require_element(w)
        return QWElt(self, {w: self.dom.one})

    def qw_mul(self, a: QWElt, b: QWElt) -> QWElt:
        if not (a.ring is self and b.ring is self):
            raise ValueError("elements of different twisted rings")
        return QWElt(self, twisted_product(self.dom, a.coeffs, b.coeffs))

    def pushpull_rel(self, J, Jp=()) -> QWElt:
        """Y_{J/J'} = (sum over W_J intersect W^{J'} of delta_w) / x_{J/J'},
        built once per (J, J') and shared by every caller.

        Changing the W_J / W_{J'} representatives moves delta_w to delta_{wv}
        with the same coefficient, so the element itself depends on the
        choice; its products against right-W_{J'}-symmetric elements (e.g.
        Y_{J'}) and its action on W_{J'}-invariant classes do not.
        """
        jkey = self.system._jkey
        return self._once(self._pushpull_rel, jkey(J), jkey(Jp))

    def _pushpull_rel(self, J: tuple, Jp: tuple) -> QWElt:
        reps = self.system.relative_reps(J, Jp)
        xinv, weyl = self.x_parabolic_inv(J, Jp), self.dom.weyl
        return QWElt(self, {w: weyl(w, xinv) for w in reps})

    def times_pushpull(self, a: QWElt, J, Jp) -> QWElt:
        """a Y_{J/J'} in closed form (module docstring); q is Y_{J/J'} at e."""
        if a.ring is not self:
            raise ValueError("elements of different twisted rings")
        reps = self.pushpull_rel(J, Jp).coeffs
        dom, q = self.dom, reps[self.system.identity]
        sums = dot_by_key(dom, ((v * w, p, dom.one) for v, p in a.coeffs.items() for w in reps))
        return QWElt(self, {z: s * dom.weyl(z, q) for z, s in sums.items()})

    # ---------- Demazure-Lusztig generators and the Hecke action ----------

    def dl_generator(self, i: int) -> QWElt:
        """The element acting as tau_i: Y_i c - t, with c = t - t^{-1} e^{alpha_i}
        in the multiplicative realization (Demazure-Lusztig) and c = mu in the
        hyperbolic one.  Its two coefficients, 1/x_{-alpha_i} c - t at e and
        1/x_{alpha_i} s_i(c) at s_i, are each lifted as one function, since
        every right product by tau_i twists them.  Built once per i."""
        return self._once(self._dl_generator, i)

    def _dl_generator(self, i: int) -> QWElt:
        arity = self.model.arity
        t = LaurentPoly.t_power(arity, 1)
        s, root = self.system.simple_reflection(i), self.system.simple_roots[i]
        if self.kind == "multiplicative":
            c = RatFunc(t - LaurentPoly.monomial((-1,) + root.weight, 1))
        else:
            c = RatFunc(t + LaurentPoly.t_power(arity, -1))
        inv = self.model.x_weight_inv
        ge = inv(tuple(-x for x in root.weight)) * c - RatFunc(t)
        gs = inv(root.weight) * c.weyl(s.matrix)
        lift = self.dom.lift
        return QWElt(self, {self.system.identity: lift(ge), s: lift(gs)})

    def generator_twist(self, u: WeylElt, i: int) -> tuple:
        """(u(g_e), u(g_s)) for the coefficients g_e, g_s of tau_i's image, made
        once per (u, i)."""
        return self._once(self._generator_twist, u, i)

    def _generator_twist(self, u: WeylElt, i: int) -> tuple:
        self.system.require_element(u)
        g = self.dl_generator(i).coeffs
        weyl = self.dom.weyl
        return weyl(u, g[self.system.identity]), weyl(u, g[self.system.simple_reflection(i)])

    def dl_element(self, w: WeylElt) -> QWElt:
        """The image of tau_w: G_{i_1} ... G_{i_k} along w's reduced word, each
        G_i = g_e delta_e + g_s delta_s the image of tau_i, built once per w by
        right steps.  A right step twists only G's coefficients: p_u delta_u
        gives p_u u(g_e) at u and p_u u(g_s) at u s, summed by dot_by_key."""
        return self._once(self._dl_element, w)

    def _dl_element(self, w: WeylElt) -> QWElt:
        if w is self.system.identity:  # another group's e goes on to right_step, which refuses it
            return self.delta(w)
        i, prev = self.system.right_step(w)
        s = self.system.simple_reflection(i)
        triples = []
        for u, p in self.dl_element(prev).coeffs.items():
            ge, gs = self.generator_twist(u, i)
            triples += ((u, p, ge), (u * s, p, gs))
        return QWElt(self, dot_by_key(self.dom, triples))

    def hecke_to_qw(self, h) -> QWElt:
        """Ring homomorphism sending tau_w to the generator product along w."""
        terms = [(self.t_poly(poly), self.dl_element(w).coeffs) for w, poly in h.coeffs.items()]
        return QWElt(self, combine(self.dom, terms))


def psi(a: QWElt, target: TwistedRing) -> QWElt:
    """Transfer from the multiplicative ring to the hyperbolic one.

    In the shared rational-function realization the coefficient map is the
    identity; only the model tag changes.
    """
    if a.ring.kind != "multiplicative" or target.kind != "hyperbolic":
        raise ValueError("psi maps the multiplicative ring into the hyperbolic one")
    if a.ring.system is not target.system or a.ring.dom is not target.dom:
        raise ValueError("psi requires the same group and scalar domain")
    return QWElt(target, dict(a.coeffs))
