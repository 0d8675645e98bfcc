"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the production code paths they check:

- subword_leq enumerates subwords of a fixed reduced word (Bruhat order).
- kl_basis_by_bar_solving finds the canonical basis element for w by solving
  the bar-invariance + triangularity conditions as a linear system over
  Laurent polynomials in t, using only bar_tau below, right steps by
  generators on LaurentPoly coefficients (never the mu-recursion).

- tuple_mul, tuple_divide_binomial and long_divide multiply and divide on
  exponent tuples, one tuple built per term, where LaurentPoly works on
  packed int keys: the product term by term, the binomial division chain by
  chain after one refutation walk, and the lex-order long division that
  exact_divide used for every divisor before binomials were divided chain by
  chain.
- map_untabled applies weyl or dualize to a fraction with every factor
  image normalized afresh, where RatFunc looks the images up in one table.
- eval_mod evaluates a fraction at one point mod p term by term, with one
  Fermat inversion of its denominator, where OrbitDomain.lift multiplies
  whole residue vectors and inverts each factor's vector in one batch.
- parse_poly and parse_ratfunc read the canonical text form back, so the
  printers round-trip; decode inverts the Grassmannian matrix encoding, and
  subset_of_partition and one_line_of_partition index a Schubert variety by
  its lattice path, independently of word_of_partition.
- inversions lists the positive roots a group element sends negative;
  act_weight and act_root apply a group element's matrix to a weight and to a
  root.
- kept_points lists the points at which an OrbitScalar keeps its residues,
  from the documented layout of OrbitDomain.points.

It also holds the routes only tests use, as plain functions over the public
objects: hiota on the Hecke algebra, the anti-involutions iota and hat-iota
of the twisted group ring, Bott-Samelson push-pull words, motivic Chern
classes of Schubert varieties, the pointwise product of two classes, the
pairing as a full bullet action and its normalizer as a product of root
factors, the bullet action summed term by term, the smoothness criterion on
the Q_W route (is_smooth_direct: the image of gamma_sum's S_w against each
expected restriction built exactly before it is lifted, where
Localization.is_smooth sums memoized MC cells and builds no Q_W element), the
second canonical basis kl_tilde_basis, the direct routes to the classes that
Localization builds by recursion (the whole image of tau_w or gamma_w acting
on pt_e, and the Hecke sums of iota-products behind C~_w and SMC cells), the
composed routes to the parabolic classes that Localization builds once per
coset (the bullet of Y_J on an MC cell, the translation, Serre dual and twists
behind SMC_J, and the KL sums over full maps on W), the constant class
one_class, scalar_elt, a scalar times delta_e, eps, the sign (-1)^{l(w)},
and smc_cell_parabolic and kl_class_c_tilde_parabolic, the one-weight cases
of Localization.class_sum.

Two routes that Localization ran before it built every SMC_J and C~^J class as
a transform of a weighted sum of MC_J cells are kept as references:
smc_cell_by_cell, SMC_J(cell v) built cell by cell from the w0-translate of
one MC_J cell, and top_point_class, the restriction recursion from pt_{w0}
behind C~_w and SMC(cell v) on G/B.

For the Hecke algebra, which computes on packed ints, it keeps the route on
LaurentPoly coefficients: gamma_sum, the element S_w behind the Q_W route to
smoothness (moved here from HeckeAlgebra); tau_mul, one right step by a
generator; bar_tau and bar, the bar involution; product_by_steps, the product
as a sum of right steps; and kl_table_by_recursion, the right KL recursion
with mu read from its own rows, with kl_rows reading P_{v,w} and mu(v, w) off
gamma_w, and parabolic_tables the P^J and Q^J of one J from those rows.

Two text printers that no verdict reads live here too: qpoly_str for a KL
polynomial's coefficient tuple and render_tiling for a tiling's boxes.
"""

import re
from itertools import combinations
from math import prod
from operator import add, sub
from weakref import WeakKeyDictionary

from klschubert.grassmannian import Partition
from klschubert.laurent import LaurentPoly
from klschubert.hecke import HeckeElt
from klschubert.localization import CohClass
from klschubert.ratfunc import RatFunc, _normalize_factor
from klschubert.twisted import QWElt, combine, psi


def eps(w):
    """The sign (-1)^{l(w)} of a group element."""
    return -1 if w.length % 2 else 1


def kl_class_c_tilde_parabolic(loc, w, J):
    """C~^J_w on W^J: the sum of one weight."""
    return loc.class_sum("C~", {w: loc.dom.one}, J)


def smc_cell_parabolic(loc, v, J):
    """SMC_J(cell v) on W^J: the sum of one weight."""
    return loc.class_sum("SMC", {v: loc.dom.one}, J)


def _serre_lambda(system, J):
    """(-1)^{N_J} e^{2 rho_J} times lambda_J = 1 / prod (1 - t^-2 e^a) over the
    positive roots a outside Sigma_J, as one exact fraction."""
    arity = system.rank + 1
    one = LaurentPoly.const(arity, 1)
    roots = system.roots_outside(J)
    two_rho = tuple(map(sum, zip(*(a.weight for a in roots)))) or (0,) * system.rank
    mono = LaurentPoly.monomial((0,) + two_rho, (-1) ** len(roots))
    dens = [one - LaurentPoly.monomial((-2,) + a.weight, 1) for a in roots]
    return RatFunc.from_den_factors(mono, dens)


def smc_cell_by_cell(loc, v, J):
    """SMC_J(cell v) on W^J built from the one cell MC_J(cell w0 v w_J): at x in
    W^J, that cell at the representative of w0 x W_J, twisted by w0 and
    dualized, times x((-1)^{N_J} e^{2 rho_J} lambda_J) t^{-2 dim}, dim =
    N_J - l(v), the factor lifted as one fraction."""
    system, dom = loc.system, loc.dom
    system.require_min_rep(v, J)
    w0, wj = system.w0, system.longest_parabolic(J)
    mc = loc.mc_cell_parabolic(w0 * v * wj, J).coeffs
    reps = system.minimal_coset_reps(J)
    rep = {x * y: x for x in reps for y in system.parabolic_elements(J)}
    f = dom.lift(_serre_lambda(system, J))
    dim = len(system.roots_outside(J)) - v.length
    t = loc.mult.t_poly(LaurentPoly.t_power(1, -2 * dim))
    out = {}
    for x in reps:
        m = mc.get(rep[w0 * x])
        if m is not None:
            out[x] = dom.dualize(dom.weyl(w0, m)) * dom.weyl(x, f) * t
    return CohClass(loc.mult, out)


# loc -> {(family, w): D_w} of top_point_class
_TOP_POINT = WeakKeyDictionary()


def top_point_class(loc, family, w):
    """D_w of the restriction recursion from pt_{w0}, family "C~" or "SMC":
    with s = s_i the last letter of w and g_e, g_s the coefficients of
    dl_generator(i), D_e = pt_{w0} (times 1 / prod_{a>0} (1 - t^-2 e^{-a}),
    lifted as one fraction, for SMC) and

        D_w[y] = D_{ws}[y] (y(g_e) + c) + D_{ws}[ys] y(g_s) - sum mu(v, ws) D_v[y],

    c = -t^-1 with the mu terms of the right KL recursion for C~, and c = t -
    t^-1 without them, both scalars times t^-1, for SMC.  C~_w is D_{w0 w} of
    C~ and SMC(cell v) is D_{w0 v} of SMC: iota of the images of
    gamma~_{w^-1 w0} and of (tau_{w0 v})^-1 acting on pt_{w0}.  Sums are
    added pairwise, not by dom.dot."""
    memo = _TOP_POINT.setdefault(loc, {})
    hit = memo.get((family, w))
    if hit is not None:
        return hit
    system, ring = loc.system, loc.mult
    if w is system.identity:
        hit = loc.point_class(system.w0)
        if family == "SMC":
            arity = system.rank + 1
            one = LaurentPoly.const(arity, 1)
            dens = [one - LaurentPoly.monomial((-2,) + tuple(-x for x in a.weight), 1)
                    for a in system.positive_roots]
            hit = hit.scale(loc.dom.lift(RatFunc.from_den_factors(one, dens)))
    else:
        i, ws = system.right_step(w)
        s = system.simple_reflection(i)
        t, tinv = LaurentPoly.t_power(1, 1), LaurentPoly.t_power(1, -1)
        c = ring.t_poly(-tinv if family == "C~" else t - tinv)
        step = ring.t_poly(tinv)
        out = {}

        def add(y, val):
            out[y] = out[y] + val if y in out else val

        for u, x in top_point_class(loc, family, ws).coeffs.items():
            a, b = ring.generator_twist(u, i)[0] + c, ring.generator_twist(u * s, i)[1]
            if family == "SMC":
                a, b = a * step, b * step
            add(u, x * a)
            add(u * s, x * b)
        if family == "C~":
            for v, m in loc.hecke.mu_terms(ws, i):
                for y, x in top_point_class(loc, family, v).coeffs.items():
                    add(y, x * ring.as_scalar(-m))
        hit = CohClass(ring, out)
    memo[family, w] = hit
    return hit


def subword_leq(system, u, v):
    """u <= v iff some subword of a fixed reduced word of v is a reduced word of u."""
    word = v.word
    target = u
    for k in range(len(word) + 1):
        if k != u.length:
            continue
        for keep in combinations(range(len(word)), k):
            w = system.from_word(word[i] for i in keep)
            if w is target and w.length == k:
                return True
    return False


def tau_mul(h, i):
    """h tau_i on LaurentPoly coefficients: tau_v tau_s = tau_{vs}, plus
    (t^-1 - t) tau_v where vs < v."""
    ring = h.ring
    system = ring.system
    quad = LaurentPoly.t_power(1, -1) - LaurentPoly.t_power(1, 1)
    out = {}
    for w, p in h.coeffs.items():
        j = system.right_table[w.idx][i]
        ws = system.elements[j]
        out[ws] = out[ws] + p if ws in out else p
        if ws.length < w.length:
            out[w] = out[w] + p * quad if w in out else p * quad
    return HeckeElt(ring, out)


def product_by_steps(a, b):
    """a b as the sum over w of b_w times a tau_{i_1} ... tau_{i_k} along w's
    reduced word."""
    out = HeckeElt(a.ring, {})
    for w, c in b.coeffs.items():
        x = a
        for i in w.word:
            x = tau_mul(x, i)
        out = out + x.scale(c)
    return out


_BAR_TAU = WeakKeyDictionary()


def bar_tau(ring, w):
    """bar(tau_w) = (tau_{w^-1})^-1, memoized along reduced words: with
    b = bar(tau_{ws}), bar(tau_w) = b tau_s^-1 = b tau_s + (t - t^-1) b."""
    memo = _BAR_TAU.setdefault(ring, {})
    hit = memo.get(w)
    if hit is None:
        if w.length == 0:
            hit = ring.one()
        else:
            i, prev = ring.system.right_step(w)
            b = bar_tau(ring, prev)
            t = LaurentPoly.t_power(1, 1)
            hit = tau_mul(b, i) + b.scale(t - t.dualize())
        memo[w] = hit
    return hit


def bar(ring, h):
    """The ring involution with bar(t) = t^-1 and bar(tau_i) = tau_i^-1: the sum
    of dualize(h_w) bar(tau_w)."""
    out = HeckeElt(ring, {})
    for w, c in h.coeffs.items():
        out = out + bar_tau(ring, w).scale(c.dualize())
    return out


def kl_rows(gamma, w):
    """({v: P_{v,w}} as ascending q-coefficient tuples, [(v, mu(v, w))]) read
    off gamma_w: the coefficient of t^{l(w) - l(v) - 2j} at tau_v is that of
    q^j, and mu(v, w) is the coefficient of t when l(w) - l(v) is odd."""
    rows, mus = {}, []
    for v, c in gamma.coeffs.items():
        d = w.length - v.length
        rows[v] = tuple(c.packed.get(d - 2 * j, 0) for j in range(d // 2 + 1))
        while rows[v] and rows[v][-1] == 0:
            rows[v] = rows[v][:-1]
        if d % 2 and c.packed.get(1):
            mus.append((v, c.packed[1]))
    return rows, mus


def kl_table_by_recursion(ring):
    """{w: gamma_w} by gamma_w = gamma_{ws} (tau_s + t) - sum mu(v, ws) gamma_v
    over v s < v, on LaurentPoly coefficients, every gamma_w checked
    bar-invariant by bar."""
    system = ring.system
    t = LaurentPoly.t_power(1, 1)
    gamma = {}
    for w in sorted(system.elements, key=lambda w: (w.length, w.idx)):
        if w.length == 0:
            g = ring.one()
        else:
            i, u = system.right_step(w)
            g = tau_mul(gamma[u], i) + gamma[u].scale(t)
            for v, m in kl_rows(gamma[u], u)[1]:
                if i in system.right_descents(v):
                    g = g + gamma[v].scale(LaurentPoly.const(1, -m))
        assert bar(ring, g) == g, w
        gamma[w] = g
    return gamma


def parabolic_tables(system, rows, J):
    """({(u, w): P^J_{u,w}}, {(u, w): Q^J_{u,w}}) over W^J x W^J, from the rows
    {w: {v: P_{v,w}}}: P^J_{v,w} = P_{v, w w_J} and Q^J_{u,w} the sum over v in
    W_J of eps_v eps_{w_J} P_{w0 w v, w0 u w_J}."""
    w0, wj = system.w0, system.longest_parabolic(J)
    reps = system.minimal_coset_reps(J)
    p_j, q_j = {}, {}
    for u in reps:
        for w in reps:
            p_j[u, w] = rows[w * wj].get(u, ())
            acc = {}
            for x in system.parabolic_elements(J):
                for k, c in enumerate(rows[w0 * u * wj].get(w0 * w * x, ())):
                    acc[k] = acc.get(k, 0) + eps(x) * eps(wj) * c
            top = max((k for k, c in acc.items() if c), default=-1)
            q_j[u, w] = tuple(acc.get(k, 0) for k in range(top + 1))
    return p_j, q_j


def _positive_part(poly):
    """Split p = p_+ - bar(p_+) with p_+ in t Z[t]; returns p_+ or None."""
    pos = {e: c for e, c in poly.terms.items() if e[0] > 0}
    neg = {(-e[0],): -c for e, c in poly.terms.items() if e[0] < 0}
    if poly.terms.get((0,), 0) != 0:
        return None
    if pos != neg:
        return None
    return LaurentPoly(1, pos)


def kl_basis_by_bar_solving(ring, w):
    """The unique bar-invariant element in tau_w + sum_{v<w} t Z[t] tau_v."""
    system = ring.system
    interval = system.bruhat_interval(w)
    coeffs = {w: LaurentPoly.const(1, 1)}
    for x in sorted(interval, key=lambda v: -v.length):
        if x is w:
            continue
        # rhs_x = sum_{v > x} bar(c_v) * [tau_x] bar(tau_v)
        rhs = LaurentPoly(1)
        for v, cv in coeffs.items():
            if v is x:
                continue
            contrib = bar_tau(ring, v).coeffs.get(x)
            if contrib is not None:
                rhs = rhs + cv.dualize() * contrib
        cx = _positive_part(rhs)
        assert cx is not None, f"bar-solving failed at {x} for w={w}"
        if cx.terms:
            coeffs[x] = cx
    return HeckeElt(ring, coeffs)


def hiota(h):
    """Anti-involution of the Hecke algebra fixing t and every tau_i; tau_w -> tau_{w^{-1}}."""
    out = {}
    for w, c in h.coeffs.items():
        wi = w.inverse()
        q = out.get(wi)
        out[wi] = c if q is None else q + c
    return HeckeElt(h.ring, out)


def _inversion_ratio(ring, u, hatted):
    """x_Pi / u(x_Pi), as the product over inversions of u^{-1} of x_{-a}/x_a
    (with the extra factor (t - t^-1 e^{-a})/(t - t^-1 e^{a}) when hatted)."""
    out = ring.dom.one
    arity = ring.model.arity
    t, tinv = LaurentPoly.t_power(arity, 1), LaurentPoly.t_power(arity, -1)
    for alpha in inversions(ring.system, u.inverse()):
        out = out * ring.x_root(-alpha) * ring.as_scalar(ring.model.x_weight_inv(alpha.weight))
        if hatted:
            e_minus = LaurentPoly.monomial((0,) + tuple(-x for x in alpha.weight), 1)
            e_plus = LaurentPoly.monomial((0,) + tuple(alpha.weight), 1)
            out = out * ring.as_scalar(RatFunc.fraction(t - tinv * e_minus, t - tinv * e_plus))
    return out


def _anti_involution(ring, a, hatted):
    out = {}
    for v, p in a.coeffs.items():
        u = v.inverse()
        c = ring.dom.weyl(u, p) * _inversion_ratio(ring, u, hatted)
        acc = out.get(u)
        out[u] = c if acc is None else acc + c
    return QWElt(ring, out)


def qw_iota(ring, a):
    """iota(p delta_v) = v^{-1}(p) (x_Pi / v^{-1}(x_Pi)) delta_{v^{-1}}."""
    return _anti_involution(ring, a, hatted=False)


def qw_hiota(ring, a):
    """The hatted anti-involution of the multiplicative ring: x_Pi becomes hat-x_Pi x_Pi."""
    assert ring.kind == "multiplicative"
    return _anti_involution(ring, a, hatted=True)


def pushpull_word(ring, word):
    """The Bott-Samelson product Y_{i_1} ... Y_{i_k} of simple push-pull operators."""
    out = ring.delta(ring.system.identity)
    for i in word:
        out = ring.qw_mul(out, ring.pushpull_rel((i,), ()))
    return out


def mc_variety(loc, w):
    """Motivic Chern class of the Schubert variety X(w): the sum of its cell classes."""
    out = CohClass(loc.mult, {})
    for v in loc.system.bruhat_interval(w):
        out = out + loc.mc_cell(v)
    return out


def mul_pointwise(f, g):
    """The class f g: the products of the restrictions at the common support."""
    out = {}
    for w, c in f.coeffs.items():
        q = g.coeffs.get(w)
        if q is not None:
            out[w] = c * q
    return CohClass(f.ring, out)


def bullet_direct(loc, a, c):
    """(a . c)_u = sum_v c_{uv} u(p_v), summed term by term over v, then over
    the support of c, where Localization.bullet runs one twisted product."""
    dom = loc.dom
    out = {}
    for v, p in a.coeffs.items():
        vinv = v.inverse()
        for w, q in c.coeffs.items():
            u = w * vinv
            val = q * dom.weyl(u, p)
            acc = out.get(u)
            out[u] = val if acc is None else acc + val
    return CohClass(c.ring, out)


def gamma_sum(h, w):
    """S_w = sum over the Bruhat interval [e, w] of t^{-l(v)} tau_v."""
    return HeckeElt(
        h, {v: LaurentPoly.monomial((-v.length,), 1) for v in h.system.bruhat_interval(w)}
    )


def is_smooth_direct(loc, w):
    """(smooth, {u: verdict at u}) on the Q_W route: the image of S_w at u
    against one exact product of (1 - t^-2 e^{u a}) / (1 - e^{u a}) over the
    positive roots a with u s_a <= w, lifted; Localization.is_smooth compares
    MC(X_w), a sum of MC cells, with twists of lifted binomials instead."""
    system = loc.system
    coeffs = loc.mult.hecke_to_qw(gamma_sum(loc.hecke, w)).coeffs
    arity = system.rank + 1
    one = LaurentPoly.const(arity, 1)
    witnesses = {}
    for u in system.bruhat_interval(w):
        expected = RatFunc.from_int(arity, 1)
        for alpha in system.positive_roots:
            if system.bruhat_leq(u * system.reflection(alpha), w):
                ua = act_weight(u, alpha.weight)
                expected = expected * RatFunc.from_den_factors(
                    one - LaurentPoly.monomial((-2,) + ua, 1),
                    [one - LaurentPoly.monomial((0,) + ua, 1)],
                )
        got = coeffs.get(u, loc.dom.zero)
        witnesses[u] = got == loc.dom.lift(expected)
    return all(witnesses.values()), witnesses


def pairing_by_bullet(loc, f, g, J=()):
    """<f, g>_J as Y_{Pi/J} . (f g): the whole class, asserted constant, and its value."""
    h = mul_pointwise(f, g)
    a = f.ring.pushpull_rel(tuple(range(loc.system.rank)), tuple(J))
    res = loc.bullet(a, h)
    values = [res.coeffs.get(u, loc.dom.zero) for u in loc.system.elements]
    assert all(values[0] == v for v in values[1:]), "Y_{Pi/J} . fg is not constant"
    return values[0]


def mc_cell_direct(loc, w):
    """t^{-l(w)} tau_w o pt_e, with the whole image of tau_w."""
    cls = loc.odot(loc.mult.dl_element(w), loc.point_class(loc.system.identity))
    return cls.scale(loc.mult.t_poly(LaurentPoly.t_power(1, -w.length)))


def kl_tilde_basis(hecke, w):
    """The second canonical basis gamma~_w, from the KL basis with alternating
    signs and t -> t^-1 powers."""
    coeffs = {}
    lw, sw = w.length, eps(w)
    for v in hecke.kl_basis(w).coeffs:
        sign = sw * eps(v)
        p = hecke.kl_polynomial(v, w)
        coeffs[v] = LaurentPoly(1, {(v.length - lw + 2 * j,): sign * c for j, c in enumerate(p)})
    return HeckeElt(hecke, coeffs)


# ring -> {v: product of iota(G_s) along v's reduced word}, built once per ring
_IOTA_PRODUCTS = WeakKeyDictionary()


def on_top_point_direct(loc, h):
    """h . pt_{w0} as the Hecke sum: with a the image of h, iota(a) is the sum
    of h_w iota(image of tau_w) (iota fixes polynomials in t), each
    iota(image of tau_w) the product by qw_mul of iota(G_s) = g_e delta_e +
    s(g_s) delta_s along w^-1's reduced word, g_e and g_s the coefficients of
    dl_generator(s); then w0(x_Pi) w0(iota(a)_u) at w0 u."""
    ring, system, dom = loc.mult, loc.system, loc.dom
    products = _IOTA_PRODUCTS.get(ring)
    if products is None:
        iota_gens = []
        for i in range(system.rank):
            s = system.simple_reflection(i)
            g = ring.dl_generator(i).coeffs
            coeffs = {system.identity: g[system.identity], s: dom.weyl(s, g[s])}
            iota_gens.append(QWElt(ring, coeffs))
        products = _IOTA_PRODUCTS[ring] = {system.identity: ring.delta(system.identity)}
        for v in sorted(system.elements, key=lambda v: v.length)[1:]:
            i, prev = system.right_step(v)
            products[v] = ring.qw_mul(products[prev], iota_gens[i])
    terms = [(ring.t_poly(p), products[w.inverse()].coeffs) for w, p in h.coeffs.items()]
    iota_a = combine(dom, terms)
    w0 = system.w0
    top = loc.point_class(w0).coeffs[w0]
    return CohClass(ring, {w0 * u: top * dom.weyl(w0, c) for u, c in iota_a.items()})


def kl_class_c_tilde_direct(loc, w):
    """C~_w = gamma~_{w^-1 w0} . pt_{w0}, by the Hecke sum."""
    return on_top_point_direct(loc, kl_tilde_basis(loc.hecke, w.inverse() * loc.system.w0))


def smc_cell_direct(loc, v):
    """SMC(cell v) = t^{-l(w0 v)} (tau_{w0 v})^{-1} . pt_{w0} over
    prod_{a>0} (1 - t^-2 e^{-a}), with (tau_{w0 v})^{-1} = bar(tau_{(w0 v)^-1})
    by the Hecke sum and the scalar lifted as one fraction."""
    y = loc.system.w0 * v
    arity = loc.system.rank + 1
    one = LaurentPoly.const(arity, 1)
    dens = [
        one - LaurentPoly.monomial((-2,) + tuple(-x for x in a.weight), 1)
        for a in loc.system.positive_roots
    ]
    scal = loc.dom.lift(RatFunc.from_den_factors(LaurentPoly.t_power(arity, -y.length), dens))
    return on_top_point_direct(loc, bar_tau(loc.hecke, y.inverse())).scale(scal)


def kl_class_c_direct(loc, w):
    """C_w = gamma_w o pt_e, with the whole image of gamma_w."""
    op = loc.mult.hecke_to_qw(loc.hecke.kl_basis(w))
    return loc.odot(op, loc.point_class(loc.system.identity))


def kl_schubert_direct(loc, w):
    """mu^{-l(w)} psi(gamma_w) o pt_e, with the whole image of gamma_w."""
    op = psi(loc.mult.hecke_to_qw(loc.hecke.kl_basis(w)), loc.hyp)
    cls = loc.odot(op, loc.point_class(loc.system.identity, "hyperbolic"))
    return cls.scale(loc.hyp.inv_mu_power(w.length))


def pairing_normalizer_product(loc, J=()):
    """prod (t - t^-1 e^{-a}) over Sigma^+ minus Sigma_J^+, factor by factor, lifted."""
    arity = loc.system.rank + 1
    val = RatFunc.from_int(arity, 1)
    for a in loc.system.roots_outside(J):
        e_minus = LaurentPoly.monomial((-1,) + tuple(-x for x in a.weight), 1)
        val = val * RatFunc(LaurentPoly.t_power(arity, 1) - e_minus)
    return loc.dom.lift(val)


def mc_cell_parabolic_direct(loc, u, J):
    """MC of a cell downstairs as the whole bullet Y_J . MC(cell u), evaluated at
    every fixed point, where Localization makes one dom.dot per coset."""
    loc.system.require_min_rep(u, J)
    return loc.bullet(loc.mult.pushpull_rel(J, ()), loc.mc_cell(u))


def smc_cell_parabolic_direct(loc, v, J):
    """SMC of an opposite cell downstairs by the composed route at every fixed
    point: MC_J(cell w0 v w_J) translated by odot(delta_{w0}), Serre-dualized,
    times the twist of lambda_J, a product of 1/(1 - t^-2 e^a) over the roots
    outside Sigma_J lifted as one fraction, and t^{-2 dim}."""
    system, dom = loc.system, loc.dom
    system.require_min_rep(v, J)
    w0 = system.w0
    mc = mc_cell_parabolic_direct(loc, w0 * v * system.longest_parabolic(J), J)
    dual = loc.serre_dual(loc.odot(loc.mult.delta(w0), mc), J)
    arity = system.rank + 1
    one = LaurentPoly.const(arity, 1)
    dens = [one - LaurentPoly.monomial((-2,) + a.weight, 1) for a in system.roots_outside(J)]
    lam = dom.lift(RatFunc.from_den_factors(one, dens))
    out = CohClass(loc.mult, {x: c * dom.weyl(x, lam) for x, c in dual.coeffs.items()})
    dim = len(system.roots_outside(J)) - v.length
    return out.scale(loc.mult.t_poly(LaurentPoly.t_power(1, -2 * dim)))


def kl_class_c_parabolic_direct(loc, w, J, cells):
    """C^J_w as the sum of t_w P^J_{u,w}(t^-2) MC_J(cell u) over full maps on
    W; cells(u) gives MC_J(cell u)."""
    loc.system.require_min_rep(w, J)
    terms = []
    for u in loc.system.minimal_coset_reps(J):
        if p := loc.hecke.parabolic_kl(u, w, J):
            poly = LaurentPoly(1, {(w.length - 2 * j,): c for j, c in enumerate(p)})
            terms.append((loc.mult.t_poly(poly), cells(u).coeffs))
    return CohClass(loc.mult, combine(loc.dom, terms))


def kl_class_c_tilde_parabolic_direct(loc, w, J, cells):
    """C~^J_w as the sum of eps_w eps_v t^{l(w_J w^-1 w0) - 2j} Q^J_{w,v}
    SMC_J(cell v) over full maps on W, times the normalizer, a product of
    (1 - t^-2 e^{-a}) over the roots outside Sigma_J lifted as one polynomial;
    cells(v) gives SMC_J(cell v)."""
    system = loc.system
    system.require_min_rep(w, J)
    shift = (system.longest_parabolic(J) * w.inverse() * system.w0).length
    terms = []
    for v in system.minimal_coset_reps(J):
        if q := loc.hecke.inverse_parabolic_kl(w, v, J):
            sign = eps(w) * eps(v)
            poly = LaurentPoly(1, {(shift - 2 * j,): sign * c for j, c in enumerate(q)})
            terms.append((loc.mult.t_poly(poly), cells(v).coeffs))
    arity = system.rank + 1
    one = LaurentPoly.const(arity, 1)
    norm = one
    for a in system.roots_outside(J):
        norm = norm * (one - LaurentPoly.monomial((-2,) + tuple(-x for x in a.weight), 1))
    return CohClass(loc.mult, combine(loc.dom, terms)).scale(loc.dom.lift(RatFunc(norm)))


def map_untabled(r, fn):
    """(num, facs) of the automorphism fn applied to the fraction r, each
    factor's image normalized afresh: RatFunc.weyl and dualize without the
    image table."""
    num, bag = fn(r.num), {}
    for f, mult in r.facs:
        sign, mc, canon = _normalize_factor(fn(f))
        if sign < 0 and mult % 2:
            num = -num
        num = num.shift(-mc * mult)
        if not canon.is_one():
            bag[canon] = bag.get(canon, 0) + mult
    out = RatFunc(num, tuple(sorted(bag.items(), key=lambda kv: kv[0].sort_key())))
    return out.num, out.facs


def tuple_mul(a, b):
    """a * b on exponent tuples: one tuple built per pair of terms."""
    assert a.arity == b.arity
    out: dict = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(map(add, ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return LaurentPoly(a.arity, out)


def tuple_divide_binomial(n, d):
    """n / (c1 z^m1 + c0 z^m0) on exponent tuples, else None: the chain of the
    lex-largest term refuted at the root first, then synthetic division along
    every coset of Z (m1 - m0)."""
    terms = n.terms
    if not terms:
        return LaurentPoly(n.arity)
    (m1, c1), (m0, c0) = d.terms.items()
    step = tuple(map(sub, m1, m0))
    sj = next(filter(None, step))
    j = step.index(sj)
    e = max(terms)
    lo = min(x[j] for x in terms)
    if sj > 0:
        down, c_top, c_bot = tuple(map(sub, m0, m1)), c1, c0
    else:
        down, c_top, c_bot = step, c0, c1
    v, last, top_power = terms[e], 0, 1
    for i in range(1, (e[j] - lo) // abs(sj) + 1):
        e = tuple(map(add, e, down))
        top_power *= c_top
        c = terms.get(e)
        if c:
            v = v * (-c_bot) ** (i - last) + c * top_power
            last = i
    if v:
        return None
    chains: dict = {}  # offset -> {k: coefficient at offset + k * step}
    for e, c in terms.items():
        k = e[j] // sj
        chains.setdefault(tuple(x - k * s for x, s in zip(e, step)), {})[k] = c
    if 1 in map(len, chains.values()):
        return None
    quo: dict = {}
    for rep, chain in chains.items():
        lo, hi = min(chain), max(chain)
        e = tuple(x + hi * s for x, s in zip(rep, step))
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
    return LaurentPoly(n.arity, quo)


def long_divide(n, d):
    """n / d if d divides n exactly in the Laurent ring, else None, by long
    division on exponent tuples."""
    assert n.arity == d.arity
    if not d.terms:
        raise ZeroDivisionError("division by zero polynomial")
    if not n.terms:
        return LaurentPoly(n.arity)
    # Strip monomial content so divisibility reduces to the true-polynomial case.
    mc_n = tuple(map(min, zip(*n.terms)))
    mc_d = tuple(map(min, zip(*d.terms)))
    cur = {tuple(map(sub, e, mc_n)): c for e, c in n.terms.items()}
    den = {tuple(map(sub, e, mc_d)): c for e, c in d.terms.items()}
    elead = max(den)
    clead = den[elead]
    quo: dict = {}
    while cur:
        e = max(cur)
        c = cur[e]
        qe = tuple(map(sub, e, elead))
        if any(x < 0 for x in qe):
            return None
        qc, r = divmod(c, clead)
        if r:
            return None
        quo[qe] = qc
        for ed, cd in den.items():
            k = tuple(map(add, qe, ed))
            v = cur.get(k, 0) - qc * cd
            if v:
                cur[k] = v
            elif k in cur:
                del cur[k]
    back = tuple(map(sub, mc_n, mc_d))
    return LaurentPoly(n.arity, {tuple(map(add, e, back)): c for e, c in quo.items()})


def _poly_at(poly, points, p, powers):
    """poly at each point mod p, term by term (not through LaurentPoly.eval_mod):
    powers[k][slot] maps an exponent to that coordinate power at points[k], each
    computed once, and a term is its coefficient times one product of those."""
    terms = poly.terms
    for slot, xs in enumerate(zip(*terms)):
        for x in set(xs):
            for point, tables in zip(points, powers):
                if x not in tables[slot]:
                    tables[slot][x] = pow(point[slot], x, p)
    items = terms.items()
    return [sum(c * prod(map(dict.get, tables, e)) for e, c in items) % p for tables in powers]


def _eval_at(r, points, p, powers, factors):
    """r at each point mod p, the residues of each denominator factor kept in
    factors; ZeroDivisionError where its denominator vanishes."""
    dens = [1] * len(points)
    for f, mult in r.facs:
        vals = factors.get(f)
        if vals is None:
            vals = factors[f] = _poly_at(f, points, p, powers)
        if 0 in vals:
            raise ZeroDivisionError("denominator factor vanishes at point")
        dens = [d * pow(v, mult, p) % p for d, v in zip(dens, vals)]
    num = _poly_at(r.num, points, p, powers)
    return [n * pow(d, p - 2, p) % p for n, d in zip(num, dens)]


def _power_tables(points):
    """Per point, one empty exponent -> power map per coordinate slot."""
    return [[{} for _ in point] for point in points]


def eval_mod(r, point, p):
    """r at one point mod p; ZeroDivisionError where its denominator vanishes."""
    return _eval_at(r, [point], p, _power_tables([point]), {})[0]


_TERM_FACTOR = re.compile(r"^(t|z(\d+))(?:\^(-?\d+))?$")


def parse_poly(text: str, arity: int) -> LaurentPoly:
    """Parse the canonical text form produced by LaurentPoly.format."""
    text = text.strip()
    if text == "0":
        return LaurentPoly(arity)
    # Split on top-level + and - (no parentheses occur inside a polynomial).
    chunks = []
    sign = 1
    buf = ""
    for tok in re.split(r"\s+([+-])\s+", text):
        if tok == "+" or tok == "-":
            chunks.append((sign, buf))
            sign = 1 if tok == "+" else -1
        else:
            buf = tok
    chunks.append((sign, buf))
    out = LaurentPoly(arity)
    for sg, chunk in chunks:
        chunk = chunk.strip()
        if chunk.startswith("-"):
            sg = -sg
            chunk = chunk[1:].strip()
        coeff = sg
        exps = [0] * arity
        for factor in chunk.split("*"):
            factor = factor.strip()
            if re.fullmatch(r"-?\d+", factor):
                coeff *= int(factor)
                continue
            m = _TERM_FACTOR.match(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            slot = 0 if m.group(1) == "t" else int(m.group(2))
            if slot >= arity:
                raise ValueError(f"variable {factor!r} out of range for arity {arity}")
            exps[slot] += int(m.group(3)) if m.group(3) else 1
        out = out + LaurentPoly.monomial(tuple(exps), coeff)
    return out


def parse_ratfunc(text: str, arity: int) -> RatFunc:
    """Parse `(num)/(den)` or a bare polynomial in the canonical grammar."""
    text = text.strip()
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        i = text.index(")/(")
        num = parse_poly(text[1:i], arity)
        den = parse_poly(text[i + 3 : -1], arity)
        return RatFunc.fraction(num, den)
    return RatFunc(parse_poly(text, arity))


def decode(enc, g) -> Partition:
    """Inverse of encode: rebuild the partition from the 2 x m matrix."""
    widths = []
    y = 0
    for ki, ai in zip(enc.k, enc.a):
        x = ki - (y + ai)
        widths.extend([x] * ai)
        y += ai
    return Partition(reversed(widths))


def subset_of_partition(lam, g) -> tuple:
    """I_lambda: labels on the vertical steps of the boundary path."""
    lam.require_fits(g)
    d = g.d
    parts = lam.parts
    out = []
    for height in range(d):  # height = y of the step's bottom endpoint
        row = d - height
        width = parts[row - 1] if row <= len(parts) else 0
        out.append(width + height + 1)
    return tuple(sorted(out))


def one_line_of_partition(lam, g) -> list:
    """The Grassmannian permutation in one-line form: I_lambda, then the rest."""
    subset = subset_of_partition(lam, g)
    rest = [x for x in range(1, g.n + 1) if x not in set(subset)]
    return list(subset) + rest


def act_weight(w, lam) -> tuple:
    """w(lam) in fundamental-weight coordinates: w's matrix times lam."""
    return tuple(sum(x * y for x, y in zip(row, lam)) for row in w.matrix)


def act_root(system, w, root):
    """The root w(root)."""
    image = act_weight(w, root.weight)
    return next(r for r in system.roots if r.weight == image)


def inversions(system, w):
    """{alpha > 0 : w alpha < 0}; its size is l(w)."""
    out = [a for a in system.positive_roots if not act_root(system, w, a).positive]
    assert len(out) == w.length
    return out


def scalar_elt(ring, c):
    """c delta_e in the twisted group ring, c a scalar of its domain."""
    return QWElt(ring, {ring.system.identity: c})


def kept_points(dom) -> list:
    """The points of dom.points at which an OrbitScalar keeps its residues:
    family by family P, inv(P), w0 * P and inv(w0 * P)."""
    order, w0 = dom.system.order, dom.system.w0.idx
    return [
        dom.points[off + j]
        for off in range(0, len(dom.points), 2 * order)
        for j in (0, order, w0, order + w0)
    ]


# dom -> (its kept points, their coordinate powers, denominator factor residues)
_KEPT_TABLES = WeakKeyDictionary()


def eval_kept(dom, r) -> tuple:
    """The exact fraction r at the kept points of dom, as eval_mod evaluates it
    at one point, with the coordinate powers and factor residues kept per
    domain."""
    tables = _KEPT_TABLES.get(dom)
    if tables is None:
        points = kept_points(dom)
        tables = _KEPT_TABLES[dom] = (points, _power_tables(points), {})
    points, powers, factors = tables
    return tuple(_eval_at(r, points, dom.prime, powers, factors))


def one_class(loc, kind):
    """The class restricting to 1 at every fixed point."""
    return CohClass(loc.ring(kind), {w: loc.dom.one for w in loc.system.elements})


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


def render_tiling(tiling) -> str:
    """The boxes of the tiled partition, row by row, each labelled by the
    1-based index of the rectangle that holds it."""
    owner = {}
    for idx, rect in enumerate(tiling.rectangles, start=1):
        for box in rect.boxes():
            owner[box] = idx
    lines = []
    for i, width in enumerate(tiling.lam.parts, start=1):
        lines.append(" ".join(str(owner[(i, j)]) for j in range(1, width + 1)))
    return "\n".join(lines)
