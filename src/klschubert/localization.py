"""Fixed-point (GKM) model of the flag variety's equivariant cohomology.

A class is the total map W -> Q of restrictions to the torus-fixed points,
stored sparsely (missing = zero restriction).  The twisted group ring acts
in two ways:

    (p delta_v) . (q f_w)  : bullet  q w v^{-1}(p) f_{w v^{-1}}
    (p delta_v) o (q f_w)  : odot    p v(q) f_{v w}

bullet is linear over the fraction field, odot is not, and the two commute.
On top of these actions sit the point classes, motivic Chern and Segre
motivic Chern classes of cells, the canonical (Kazhdan-Lusztig) classes and
their parabolic versions, the tensor-product pairing, a localization formula
for Serre-Grothendieck duality, the smoothness criterion, and the canonical
classes of the hyperbolic theory together with restriction-formula
fundamental classes of smooth Schubert varieties.

A class on G/P_J is a map W^J -> Q: the torus-fixed points of G/P_J are the
cosets x W_J, one per x in W^J (Goresky-Kottwitz-MacPherson 1998).  The
parabolic builders return such classes, and pullback(c, J), the one bridge to
G/B, has c_x at every point of x W_J; the hyperbolic class of x in W^J pulls
back to that of x w_J on G/B.

The pairing on G/P_J is one localization sum over W^J:

    <f, g>_J = sum over x in W^J of f_x x(q_J) g_x,   q_J = 1 / x_{Pi/J},

the value at e of Y_{Pi/J} . (f* g*), f* and g* the pullbacks.  W_J permutes
the negative roots outside Sigma_J, so x -> x(q_J) is right-W_J-invariant, and
f* g* is by construction; so the bullet is constant over the fixed points, and
one sum gives it.  Pairings come as whole matrices: each left class is weighted
by x(q_J) once, and each entry is then one dom.dot over the common support.

Parabolic classes are built at x in W^J, one value per coset x W_J.  This is
exact: Y_J = sum over v in W_J of v(q) delta_v, q = 1/x_J, so (Y_J . c)_u = sum
over y in u W_J of c_y y(q) for every class c, which depends on u W_J alone.
Every other class is a weighted sum of these MC_J cells (class_sum).
SMC_J(cell v) at x is D(w0(MC_J(cell w0 v w_J) at w0 x w_J)) f_x t^{-2 dim_v},
with D = dualize, dim_v = N_J - l(v), N_J the number of positive roots outside
Sigma_J and f_x = x((-1)^{N_J} e^{2 rho_J} lambda_J): w0 x w_J represents w0 x
W_J, and f is invariant as W_J permutes those roots.  D and w0 are commuting
ring automorphisms, so sum s_v SMC_J(cell v) at x is f_x D(w0(S at w0 x w_J)),
S the MC sum with weight D(w0(s_v)) t^{2 dim_v} on cell w0 v w_J: one combine,
then one w0-swap, one dual and one product per x.  sum r_w C^J_w is the MC sum
with rho_u = sum r_w t^{l(w)} P^J_{u,w}(t^-2), and sum r_w C~^J_w the
normalizer times the SMC sum with sigma_v = sum r_w t^{N_J - l(w)} eps_w eps_v
Q^J_{w,v}(t^-2), both off the rows of HeckeAlgebra.inversion_rows.  A sum over
all of W^J takes |W^J|^2 products, not |W^J|^3 class by class; at J = () the
classes are those on G/B.

Functions of the fixed point u that are Weyl twists u(f) of one function f are
lifted once and twisted per u with dom.weyl.  A mod-p domain can twist a
computed value by w0 alone (see modp), so only such lifted functions are
twisted by varying elements: x_Pi (pt_w = w(x_Pi)), the coefficients of
generators and of Y_{J/J'}, the Serre monomial, the cotangent and hyperbolic
transfer factors and the root factors of the smoothness criterion.  Products
of lifted root factors go through TwistedRing.root_product.

Every point class, MC and MC_J cell, C_w, smoothness verdict and per-J (or
per-length, or per t-polynomial) lifted scalar is built once per Localization
(see Memo); no weighted sum is held.

One memoized recursion over restrictions builds MC cells and C_w.  A family
(c, mu terms) of _FAMILIES gives classes D_w, s the last letter of w's reduced
word: D_e = pt_e and

    D_w[y] = D_{ws}[y] (y(g_e) + c) + D_{ws}[ys] (ys)(k_s) - sum mu(v, ws) D_v[y],

the sum over v < ws with vs < v and only with mu terms, g_e and g_s the
coefficients of G_s = g_e delta_e + g_s delta_s, the image of tau_s, and c a
polynomial in t: c = 0 without mu terms for MC(cell w), c = t with them for
C_w.  Without mu terms both step scalars are also multiplied by t^{-1}, so
D_w is t^{-l(w)} times that recursion.  Each D_w[y] is one dom.dot, and every
scalar is a twist of a lifted generator coefficient, so a known function (see
modp).

Why: C_w = gamma_w o pt_e, and the right KL recursion
(Kazhdan-Lusztig 1979) gamma_w = gamma_{ws} (tau_s + t) - sum mu(v, ws) gamma_v
holds for the images A_w of gamma_w in Q_W.  (A G_s)[y] = A[y] y(g_e) +
A[ys] (ys)(g_s), C_w[y] = A_w[y] y(x_Pi) and y(x_Pi) = (ys)(x_Pi)
(ys)(s(x_Pi)/x_Pi), so k_s = g_s s(x_Pi)/x_Pi = -g_s e^{-alpha_s} (s
permutes the positive roots other than alpha_s), a product of two lifts.  The
same steps with tau_w = tau_{ws} tau_s for the image of tau_w, each times
t^{-1}, give MC(cell w) = t^{-l(w)} tau_w o pt_e.

Smoothness of X_w is read off MC(X_w), the sum of the memoized MC(cell v)
over v <= w (one combine), after Aluffi-Mihalcea-Schurmann-Su (2019): X_w is
smooth at u <= w when MC(X_w) at u is the product over the positive roots a of
u(1 - t^{-2} e^a) for the tangent weights, u s_a <= w, and u(1 - e^a) for the
others.  This is the older test on the image A of S_w = sum over v <= w of
t^{-l(v)} tau_v, A_u against the product of u((1 - t^{-2} e^a) / (1 - e^a))
over the tangent a: MC(cell v) = t^{-l(v)} tau_v o pt_e and (B o pt_e)_u =
B_u u(x_Pi) for every B, so MC(X_w)_u = A_u u(x_Pi), and x_Pi = prod (1 - e^a)
over a > 0 times the old product is the new one.  u(x_Pi) is not zero, so
the verdict is the same at every u, and no Q_W element is built.

The hyperbolic KL-Schubert class is the psi-transfer of C_w: psi keeps every
coefficient, so its value at u is that of C_w times u(mu^{-l(w)} x^hyp_Pi /
x_Pi).  Exact mode runs the same builders; the direct routes (whole images
acting by odot, Hecke sums of iota-products, the recursion from pt_w0 and
SMC_J cell by cell) are test oracles.
"""

from __future__ import annotations

import random
from functools import partial
from types import MappingProxyType

from .hecke import HeckeAlgebra
from .laurent import LaurentPoly
from .modp import ExactDomain
from .ratfunc import RatFunc
from .rootsystem import Memo, RootSystem, WeylElt, WMap, _mask
from .twisted import QWElt, TwistedRing, combine, dot_by_key, twisted_product
# not called here: perfbench/tracing.py patches psi in each module that names it
from .twisted import psi  # noqa: F401

__all__ = ["CohClass", "Localization"]


_T = LaurentPoly.t_power(1, 1)
_TINV = LaurentPoly.t_power(1, -1)
# family -> (c, mu terms) of the restriction recursion (module docstring)
_FAMILIES = {"MC": (LaurentPoly.const(1, 0), False), "C": (_T, True)}


def _neg(root) -> tuple:
    """The weight of -root."""
    return tuple(-x for x in root.weight)


class CohClass(WMap):
    """Restrictions to fixed points: a sparse total map W -> Q."""

    __slots__ = ()
    _term = "{w!r}: {c}"
    _sep = "; "

    def __repr__(self):
        return f"CohClass<{self.ring.kind}>({self.format()})"


class Localization(Memo):
    """All fixed-point computations for one group, one scalar domain."""

    def __init__(self, system: RootSystem, domain=None, hecke: HeckeAlgebra | None = None):
        super().__init__()
        self.system = system
        self.dom = domain if domain is not None else ExactDomain(system)
        self.hecke = hecke if hecke is not None else HeckeAlgebra(system)
        self.mult = TwistedRing(system, "multiplicative", self.dom)
        self.hyp = TwistedRing(system, "hyperbolic", self.dom)

    def ring(self, kind: str) -> TwistedRing:
        if kind == "multiplicative":
            return self.mult
        if kind == "hyperbolic":
            return self.hyp
        raise ValueError(f"unknown model kind {kind!r}")

    # ---------- the two actions ----------

    def bullet(self, a: QWElt, c: CohClass) -> CohClass:
        """(a . c)_u = sum_v c_{uv} u(p_v), linear over the fraction field: the
        twisted product of c, as the map w -> c_w, and sum_v v^-1(p_v) delta_{v^-1}."""
        if a.ring is not c.ring:
            raise ValueError("elements of different twisted rings")
        weyl = self.dom.weyl
        inverted = {v.inverse(): weyl(v.inverse(), p) for v, p in a.coeffs.items()}
        return CohClass(c.ring, twisted_product(self.dom, c.coeffs, inverted))

    def odot(self, a: QWElt, c: CohClass) -> CohClass:
        """(a o c)_u = sum_v p_v v(c_{v^{-1} u}); not linear over the field."""
        if a.ring is not c.ring:
            raise ValueError("elements of different twisted rings")
        return CohClass(c.ring, twisted_product(self.dom, a.coeffs, c.coeffs))

    # ---------- basic classes ----------

    def point_class(self, w: WeylElt, kind: str = "multiplicative") -> CohClass:
        """pt_w: the single restriction w(x_Pi) at w."""
        return self._once(self._point_class, kind, w)

    def _point_class(self, kind: str, w: WeylElt) -> CohClass:
        self.system.require_element(w)
        return CohClass(self.ring(kind), {w: self.dom.weyl(w, self._once(self._x_pi, kind))})

    def _x_pi(self, kind: str):
        """x_Pi, the product of x_{-a} over the positive roots a, as a known
        function (pt_w twists it by w): a product of lifted factors, since the
        expanded product has |W| terms or more."""
        ring = self.ring(kind)
        x_weight = ring.model.x_weight
        return ring.root_product(lambda a: x_weight(_neg(a)), self.system.positive_roots)

    def _binomial(self, t_exp: int, lam):
        """1 - t^{t_exp} e^{lam}."""
        one = LaurentPoly.const(self.system.rank + 1, 1)
        return one - LaurentPoly.monomial((t_exp,) + tuple(lam), 1)

    def mc_cell(self, w: WeylElt) -> CohClass:
        """Motivic Chern class of the open cell, t^{-l(w)} tau_w o pt_e, by the
        restriction recursion at w."""
        return self._once(self._family_class, "MC", w)

    # ---------- Serre-Grothendieck duality (localization formula) ----------

    def _serre_monomial(self, J):
        """(-1)^{N_J} e^{2 rho_J}, 2 rho_J the sum of Sigma^+ minus Sigma_J^+, lifted."""
        return self.mult.root_product(
            lambda a: RatFunc(LaurentPoly.monomial((0,) + a.weight, -1)),
            self.system.roots_outside(J),
        )

    def serre_dual(self, c: CohClass, J=()) -> CohClass:
        """(D c)_u = (-1)^{N_J} dualize(c_u) * prod e^{u a} over Sigma^+ - Sigma_J^+.

        The signed monomial is lifted once per J and Weyl-twisted to each u.
        """
        mono = self._once(self._serre_monomial, self.system._jkey(J))
        dom = self.dom
        out = {u: dom.dualize(val) * dom.weyl(u, mono) for u, val in c.coeffs.items()}
        return CohClass(c.ring, out)

    # ---------- pairings ----------

    def pairing(self, f: CohClass, g: CohClass):
        """<f, g> on G/B: the 1 x 1 pairing matrix."""
        return self.pairing_matrix([f], [g])[0][0]

    def pairing_matrix(self, left, right, J=()) -> list:
        """[[<f, g>_J for g in right] for f in left], <f, g>_J the sum over x in
        W^J of f_x x(q_J) g_x with q_J = 1/x_{Pi/J}, for classes on G/P_J: maps
        W^J -> Q (ValueError for a class with a point outside W^J; at J = ()
        every point is in W^J).

        The x(q_J) are the coefficients of Y_{Pi/J}, so this is the value at e
        of Y_{Pi/J} . (f* g*), f* and g* the pullbacks, whose value at u is
        sum_{v in W^J} (f* g*)_{uv} (uv)(q_J).  With x -> x(q_J) invariant as
        well, the summand lives on W/W_J and each {uv : v in W^J} is a set of
        coset representatives, so every u gives the same sum.

        The right classes are indexed by fixed point, so each entry is one dot
        over the points both classes live on, in f's order, and an entry with
        no common point is the domain's zero.
        """
        classes = [*left, *right]
        if not classes:
            return []
        ring = classes[0].ring
        if any(c.ring is not ring for c in classes):
            raise ValueError("pairing requires classes in the same model")
        mask, descents = _mask(self.system._jkey(J)), self.system._descents
        if mask and any(descents[x.idx] & mask for c in classes for x in c.coeffs):
            raise ValueError("pairing on G/P_J of a class with a point outside W^J")
        q = ring.pushpull_rel(tuple(range(self.system.rank)), J).coeffs
        dot, zero = self.dom.dot, self.dom.zero
        by_point: dict = {}  # x -> [(column, g_x)] over the right classes
        for col, g in enumerate(right):
            for x, gx in g.coeffs.items():
                by_point.setdefault(x, []).append((col, gx))
        rows = []
        for f in left:
            terms = [([], []) for _ in right]  # f_x x(q_J) and g_x, in f's order
            for x, fx in f.coeffs.items():
                if x in by_point:
                    wfx = fx * q[x]
                    for col, gx in by_point[x]:
                        terms[col][0].append(wfx)
                        terms[col][1].append(gx)
            rows.append([dot(*pair) if pair[0] else zero for pair in terms])
        return rows

    def pairing_normalizer(self, J=()):
        """prod (t - t^-1 e^{-a}) over Sigma^+ minus Sigma_J^+, lifted: t^{N_J} times
        the normalizer, N_J the number of those roots."""
        n = len(self.system.roots_outside(J))
        t_n = self.mult.t_poly(LaurentPoly.t_power(1, n))
        return t_n * self._once(self._normalizer, self.system._jkey(J))

    # ---------- canonical (Kazhdan-Lusztig) classes ----------

    def kl_class_c(self, w: WeylElt) -> CohClass:
        """C_w = gamma_w o pt_e in the multiplicative model."""
        return self._once(self._family_class, "C", w)

    def kl_class_c_tilde(self, w: WeylElt) -> CohClass:
        """C~_w = gamma~_{w^{-1} w_0} . pt_{w_0}: the sum of one weight."""
        return self.class_sum("C~", {w: self.dom.one}, ())

    def _family_class(self, family: str, w: WeylElt) -> CohClass:
        """D_w of one family of _FAMILIES: D_e = pt_e and
        D_w[y] = D_{ws}[y] (y(g_e) + c) + D_{ws}[ys] (ys)(k_s) - sum mu(v, ws) D_v[y],
        one dom.dot per y (module docstring)."""
        _, mu = _FAMILIES[family]
        if w is self.system.identity:  # another group's e goes on to right_step, which refuses it
            return self.point_class(w)
        i, ws = self.system.right_step(w)
        s = self.system.simple_reflection(i)
        triples = []  # (y, a restriction, its scalar)
        for u, x in self._once(self._family_class, family, ws).coeffs.items():
            a, b = self._once(self._step_scalars, family, u, i)
            triples += ((u, x, a), (u * s, x, b))
        if mu:
            for v, m in self.hecke.mu_terms(ws, i):
                c = self.mult.as_scalar(-m)
                d_v = self._once(self._family_class, family, v)
                triples += ((y, x, c) for y, x in d_v.coeffs.items())
        return CohClass(self.mult, dot_by_key(self.dom, triples))

    def _step_scalars(self, family: str, u: WeylElt, i: int) -> tuple:
        """(u(g_e) + c, u(k_s)) for s = s_i, k_s = g_s s(x_Pi)/x_Pi = -g_s e^{-alpha_s},
        each times t^{-1} in a family without mu terms."""
        c, mu = _FAMILIES[family]
        ring = self.mult
        cross = self.dom.weyl(u, self._once(self._k_generator, i))
        diagonal = ring.generator_twist(u, i)[0] + ring.t_poly(c)
        if mu:
            return diagonal, cross
        t_inv = ring.t_poly(_TINV)
        return diagonal * t_inv, cross * t_inv

    def _k_generator(self, i: int):
        """k_s, a product of two lifts and so a known function (see modp)."""
        s = self.system.simple_reflection(i)
        e_minus = LaurentPoly.monomial((0,) + _neg(self.system.simple_roots[i]), -1)
        return self.mult.dl_generator(i).coeffs[s] * self.dom.lift(RatFunc(e_minus))

    # ---------- parabolic classes ----------

    def mc_cell_parabolic(self, u: WeylElt, J) -> CohClass:
        """MC of a cell downstairs: Y_J . MC(cell u) on W^J, one dom.dot per coset."""
        return self._once(self._mc_cell_parabolic, u, self.system._jkey(J))

    def _mc_cell_parabolic(self, u: WeylElt, J) -> CohClass:
        if not J:  # Y_() = delta_e: MC(cell u) itself
            return self.mc_cell(u)
        self.system.require_min_rep(u, J)
        rep, twists = self._once(self._coset_rep, J), self._once(self._q_twists, J)
        triples = ((rep[y], c, twists[y]) for y, c in self.mc_cell(u).coeffs.items())
        return CohClass(self.mult, dot_by_key(self.dom, triples))

    def _coset_rep(self, J) -> dict:
        """{u: the minimal representative x of u W_J} over W."""
        wj = self.system.parabolic_elements(J)
        return {x * v: x for x in self.system.minimal_coset_reps(J) for v in wj}

    def _q_twists(self, J) -> dict:
        """{y: y(q)} over W, q = 1/x_J the coefficient of Y_J at e."""
        q, weyl = self.mult.x_parabolic_inv(J), self.dom.weyl
        return {y: weyl(y, q) for y in self.system.elements}

    def pullback(self, c: CohClass, J) -> CohClass:
        """The class on G/B of c, a class on G/P_J: c_x at every point of x W_J."""
        rep = self._once(self._coset_rep, self.system._jkey(J))
        return CohClass(c.ring, {u: c.coeffs[x] for u, x in rep.items() if x in c.coeffs})

    def kl_class_c_parabolic(self, w: WeylElt, J) -> CohClass:
        """C^J_w = sum over u in W^J, u <= w of t_w P^J_{u,w}(t^-2) MC(cell u)_J,
        on W^J: the sum of one weight."""
        return self.class_sum("C", {w: self.dom.one}, J)

    def class_sum(self, family: str, weights: dict, J) -> CohClass:
        """The sum of weights[w] F_w over w in W^J, on W^J, F_w the class MC_J(cell
        w), SMC_J(cell w), C^J_w or C~^J_w of family "MC", "SMC", "C" or "C~": C
        and C~ are MC and SMC sums with weights read off the P^J and Q^J rows, and
        an SMC sum is one MC sum and one transform per point (module docstring)."""
        system, dom = self.system, self.dom
        jkey = system._jkey(J)
        for w in weights:
            system.require_min_rep(w, jkey)
        lengths, lift = system._lengths, partial(self._once, self._t_lift)
        r = {w.idx: c for w, c in weights.items()}
        if family == "C":  # rho_u = sum_w r_w t^{l(w)} P^J_{u,w}(t^-2)
            p_rows = self.hecke.inversion_rows(jkey)[0]
            r = dot_by_key(dom, (
                (u, lift(p, lengths[w], 1), c)
                for u, row in p_rows.items() for w, c in r.items() if (p := row.get(w))
            ))
        elif family != "MC":
            w0, one, dual, weyl = system.w0, dom.one, dom.dualize, dom.weyl
            n = len(system.roots_outside(jkey))
            if family == "C~":  # sigma_v = sum_w r_w t^{N_J - l(w)} eps_w eps_v Q^J_{w,v}(t^-2)
                q_rows = self.hecke.inversion_rows(jkey)[1]
                r = dot_by_key(dom, (
                    (v, lift(q, n - lengths[w], (-1) ** (lengths[w] + lengths[v])), c)
                    for w, c in r.items() for v, q in q_rows[w].items()
                ))
            flip = self._once(self._flip, jkey)  # D(w0(s_v)) t^{2 dim_v} on the cell w0 v w_J
            r = dot_by_key(dom, (
                (flip[v], lift((1,), 2 * (n - lengths[v]), 1), c if c is one else dual(weyl(w0, c)))
                for v, c in r.items()
            ))
        cells = [(r[x.idx], self.mc_cell_parabolic(x, jkey).coeffs)
                 for x in system.minimal_coset_reps(jkey) if x.idx in r]
        out = combine(dom, cells)
        if family in ("SMC", "C~"):
            factors = self._once(self._smc_factors, jkey)
            out = {x: dual(weyl(w0, m)) * f for x, y, f in factors if (m := out.get(y)) is not None}
            if family == "C~":
                norm = self._once(self._normalizer, jkey)
                out = {x: c * norm for x, c in out.items()}
        return CohClass(self.mult, out)

    def _t_lift(self, coeffs: tuple, lead: int, sign: int):
        """sign * sum over j of coeffs[j] t^{lead - 2j}, lifted."""
        poly = {(lead - 2 * j,): sign * c for j, c in enumerate(coeffs)}
        return self.mult.t_poly(LaurentPoly(1, poly))

    def _flip(self, J) -> dict:
        """{x.idx: (w0 x w_J).idx} over W^J: w0 x w_J is in W^J and represents
        w0 x W_J."""
        system = self.system
        times_wj = system.cayley_column(system.longest_parabolic(J).idx)
        return {x.idx: times_wj[system._w0_left[x.idx]] for x in system.minimal_coset_reps(J)}

    def _smc_factors(self, J) -> list:
        """[(x, w0 x w_J, f_x)] over W^J, f_x = x((-1)^{N_J} e^{2 rho_J} lambda_J), the
        twist of the product of -e^a / (1 - t^-2 e^a) = 1 / (t^-2 - e^{-a}) over
        Sigma^+ minus Sigma_J^+, lifted root by root."""
        system, weyl = self.system, self.dom.weyl
        t2 = LaurentPoly.t_power(system.rank + 1, -2)
        f = self.mult.root_product(
            lambda a: RatFunc(t2 - LaurentPoly.monomial((0,) + _neg(a), 1)).inv(),
            system.roots_outside(J),
        )
        flip, elements = self._once(self._flip, J), system.elements
        return [(x, elements[flip[x.idx]], weyl(x, f)) for x in system.minimal_coset_reps(J)]

    def _normalizer(self, J):
        """prod (1 - t^-2 e^{-a}) over Sigma^+ minus Sigma_J^+, lifted one binomial
        at a time: lifting is a ring homomorphism, so the product of the lifts is
        the lift of the product."""
        return self.mult.root_product(
            lambda a: RatFunc(self._binomial(-2, _neg(a))), self.system.roots_outside(J)
        )

    def pushforward_scalar(self, J):
        """t_{w_J}^{-1} P_J(t^2), the multiplier in the pushforward of C_{w w_J}."""
        wj = self.system.longest_parabolic(J)
        pj = self.system.poincare_polynomial(J)
        poly = LaurentPoly.from_packed(1, {2 * e - wj.length: c for e, c in pj.packed.items()})
        return self.mult.t_poly(poly)

    # ---------- hyperbolic classes ----------

    def kl_schubert(self, w: WeylElt) -> CohClass:
        """mu^{-n} psi(gamma_w) o pt_e in the hyperbolic model, n = l(w); at
        w = x w_J, the pullback of the class of x in W^J on G/P_J.

        psi keeps every coefficient, and (a o q f_e)_u = a_u u(q), so the value
        at u is C_w at u times u(mu^{-n} x^hyp_Pi / x_Pi).
        """
        f = self._once(self._hyp_transfer, w.length)
        weyl = self.dom.weyl
        out = {u: c * weyl(u, f) for u, c in self.kl_class_c(w).coeffs.items()}
        return CohClass(self.hyp, out)

    def _hyp_transfer(self, n: int):
        """mu^{-n} x^hyp_Pi / x_Pi at e, lifted: the product of x^hyp_{-a} / x_{-a}
        = (t^2 + 1)/(t^2 - e^{a}) over the positive roots a, times
        mu^{-n} = t^n / (t^2 + 1)^n."""
        hyp, mult = self.hyp.model.x_weight, self.mult.model.x_weight
        ratio = self.mult.root_product(
            lambda a: hyp(_neg(a)) / mult(_neg(a)), self.system.positive_roots
        )
        return ratio * self.hyp.inv_mu_power(n)

    def is_invariant(self, c: CohClass, J) -> bool:
        """Restrictions constant on left cosets u W_J: c is the pullback of c."""
        return self.pullback(c, J) == c

    def fundamental_class_smooth(self, w: WeylElt) -> CohClass:
        """Restriction-formula class of a smooth Schubert variety (hyperbolic).

        At v <= w the restriction is the product of x_{-a} over positive a
        with s_a v not <= w; at w = x w_J, the pullback of the class of x in W^J.
        """
        system = self.system
        smooth, _ = self.is_smooth(w)
        if not smooth:
            raise ValueError(f"Schubert variety for {w!r} is not smooth")
        out = {}
        reflections = [(a, system.reflection(a)) for a in system.positive_roots]
        for v in system.bruhat_interval(w):
            val = self.dom.one
            for alpha, s_alpha in reflections:
                if not system.bruhat_leq(s_alpha * v, w):
                    val = val * self.hyp.x_root(-alpha)
            out[v] = val
        return CohClass(self.hyp, out)

    # ---------- smoothness criterion ----------

    def is_smooth(self, w: WeylElt):
        """(smooth, u -> verdict at u) from the restrictions of MC(X_w), the sum
        of the cell classes MC(cell v) over v <= w, built once per w."""
        return self._once(self._is_smooth, w)

    def _smoothness_factors(self) -> list:
        """(1 - t^-2 e^a, 1 - e^a) for each positive root a, each lifted; their
        values at the fixed point u are the twists dom.weyl(u, .)."""
        binomial, lift = self._binomial, self.dom.lift
        return [
            (lift(RatFunc(binomial(-2, a.weight))), lift(RatFunc(binomial(0, a.weight))))
            for a in self.system.positive_roots
        ]

    def _is_smooth(self, w: WeylElt):
        """MC(X_w) at u against the product over the positive roots a of
        u(1 - t^-2 e^a) if u s_a <= w, else u(1 - e^a) (module docstring)."""
        system, dom = self.system, self.dom
        one = dom.one
        interval = system.bruhat_interval(w)
        mc = combine(dom, [(one, self.mc_cell(v).coeffs) for v in interval])
        factors = self._once(self._smoothness_factors)
        reflections = [(system.reflection(a), f) for a, f in zip(system.positive_roots, factors)]
        witnesses = {}
        for u in interval:
            # from dom.one, a computed value: a product of two lifted factors
            # at one twist would be a known function, with every orbit residue
            expected = one
            for s_alpha, (tangent, normal) in reflections:
                f = tangent if system.bruhat_leq(u * s_alpha, w) else normal
                expected = expected * dom.weyl(u, f)
            witnesses[u] = mc.get(u, dom.zero) == expected
        return all(witnesses.values()), MappingProxyType(witnesses)

    # ---------- random classes (for involution tests) ----------

    def random_class(self, seed: int) -> CohClass:
        """A multiplicative class with random restrictions at up to 3 fixed points."""
        rng = random.Random(seed)
        arity = self.system.rank + 1
        out = {}
        for w in rng.sample(self.system.elements, min(3, self.system.order)):
            num = {}
            for _ in range(rng.randrange(1, 4)):
                e = tuple(rng.randrange(-2, 3) for _ in range(arity))
                num[e] = rng.randrange(-4, 5) or 1
            den = LaurentPoly.const(arity, 1) - LaurentPoly.monomial(
                (0,) + tuple(rng.randrange(-1, 2) for _ in range(arity - 1)), 1
            )
            if not den:
                den = LaurentPoly.const(arity, 1)
            out[w] = self.mult.as_scalar(RatFunc.from_den_factors(LaurentPoly(arity, num), [den]))
        return CohClass(self.mult, out)
