import hashlib
import random

import pytest

from klschubert.hecke import HeckeAlgebra
from klschubert.laurent import LaurentPoly
from klschubert.modp import (
    ExactDomain,
    MisplacedTwist,
    OrbitDomain,
    OrbitScalar,
    ZeroDenominator,
)
from klschubert.ratfunc import FIXED_PRIME, RatFunc
from klschubert.rootsystem import CartanData, RootSystem
from klschubert.twisted import TwistedRing, psi

from oracles import eval_kept, eval_mod


G2 = CartanData(((2, -1), (-3, 2)), "G")
B2 = CartanData(((2, -2), (-1, 2)), "B")
B3 = CartanData(((2, -1, 0), (-1, 2, -2), (0, -1, 2)), "B")
COLUMN_GROUPS = {"A3": CartanData.type_a(3), "B2": B2, "G2": G2, "B3": B3}

# sha256 of repr(dom.points) for OrbitDomain(seed=2024, families=2): however
# the points are built, every residue a seed gives must stay where it is
ORBIT_POINT_DIGESTS = {
    "A3": "cce922888a322ff313cdab15f8e95ca68bb0f579776dbc424bacb8a838344bb9",
    "B2": "ddb5cac37781c1cc043ed944bf62119d32cf9b6ea12aef040db3a43bc433c984",
    "G2": "910fae593576ca3ae57cb0232e5ba1779a3522d1387bcb30e52f32f46e1407fe",
}


def _random_poly(rng, arity=3):
    terms = {
        tuple(rng.randrange(-2, 3) for _ in range(arity)): rng.randrange(1, 5)
        for _ in range(3)
    }
    return RatFunc(LaurentPoly(arity, terms))


def _random_t_binomial_fraction(rng, arity):
    """A random numerator over one to three binomials 1 - t^-2 e^{lam}."""
    one = LaurentPoly.const(arity, 1)
    dens = []
    for _ in range(rng.randrange(1, 4)):
        lam = tuple(rng.randrange(-2, 3) for _ in range(arity - 1))
        dens.append(one - LaurentPoly.monomial((-2,) + lam, 1))
    return RatFunc.from_den_factors(_random_poly(rng, arity).num, dens)


def test_orbit_weyl_action_matches_exact(a2, a3):
    """Twisting a lift is lifting the twist: for polynomials and for fractions
    over the t-binomials that Localization lifts once per J and twists per u."""
    for system in (a2, RootSystem(G2), a3):
        arity = system.rank + 1
        for families in (1, 2):
            dom = OrbitDomain(system, seed=42, families=families)
            rng = random.Random(1)
            for k in range(10):
                if k % 2:
                    f = _random_t_binomial_fraction(rng, arity)
                else:
                    f = _random_poly(rng, arity)
                for w in system.elements:
                    lifted_then_acted = dom.weyl(w, dom.lift(f))
                    acted_then_lifted = dom.lift(f.weyl(w.matrix))
                    label = system.cartan_data.type_label
                    assert lifted_then_acted == acted_then_lifted, (label, families, w)


def test_orbit_dualize_matches_exact(a2):
    for families in (1, 2):
        dom = OrbitDomain(a2, seed=43, families=families)
        rng = random.Random(2)
        for _ in range(10):
            f = _random_poly(rng)
            assert dom.dualize(dom.lift(f)) == dom.lift(f.dualize()), families


def test_family_blocks_are_single_family_domains(a2):
    """Family f of a k-family domain is the one-family domain seeded seed + 101 f:
    block f of every lift's orbit residues, and the 4 kept residues of family f
    of every lift, twist and dualization.  Over all twists w the kept points w P,
    w0 w P and their inverses reach every orbit point."""
    rng = random.Random(3)
    fs = [_random_poly(rng) for _ in range(5)]
    for system in (a2, RootSystem(G2)):
        multi = OrbitDomain(system, seed=5, families=3)
        singles = [OrbitDomain(system, seed=5 + 101 * f) for f in range(3)]
        block = 2 * system.order
        assert len(multi.points) == 3 * block and multi.size == 3 * 4

        def blocks(values, width):
            return [values[f * width : (f + 1) * width] for f in range(3)]

        for f in fs:
            assert blocks(multi.lift(f).full, block) == [d.lift(f).full for d in singles]
            assert blocks(multi.dualize(multi.lift(f)).values, 4) == [
                d.dualize(d.lift(f)).values for d in singles
            ]
            for w in system.elements:
                assert blocks(multi.weyl(w, multi.lift(f)).values, 4) == [
                    d.weyl(w, d.lift(f)).values for d in singles
                ]


def test_every_family_counts_for_equality(a2):
    dom = OrbitDomain(a2, seed=6, families=2)
    block = 4
    one_only_in_family_1 = OrbitScalar(dom, (0,) * block + (1,) * block)
    assert one_only_in_family_1
    assert one_only_in_family_1 != dom.zero
    differ_in_family_1 = OrbitScalar(dom, (1,) * block + (2,) * block)
    assert differ_in_family_1 != dom.one


def test_lift_reports_a_vanishing_denominator(a2):
    dom = OrbitDomain(a2, seed=8, families=2)
    one = LaurentPoly.const(3, 1)
    # z1 - c vanishes only where z1 takes family 1's base value c
    c = dom.points[2 * a2.order][1]
    with pytest.raises(ZeroDenominator):
        dom.lift(RatFunc.fraction(one, LaurentPoly.var(3, 1) - LaurentPoly.const(3, c)))
    with pytest.raises(ZeroDenominator):
        dom.lift(RatFunc.fraction(one, LaurentPoly.const(3, FIXED_PRIME)))


def _random_lift_fraction(rng, arity, t_only):
    """A random numerator with negative exponents over one to four factors
    drawn with repetition from a small pool, and an integer factor."""
    one = LaurentPoly.const(arity, 1)
    t = LaurentPoly.t_power(arity, 1)

    def mono(lo, hi, c=1):
        rest = tuple(0 if t_only else rng.randrange(lo, hi) for _ in range(arity - 1))
        return LaurentPoly.monomial((rng.randrange(lo, hi),) + rest, c)

    pool = [one - mono(-2, 3), t * t + one, t - LaurentPoly.const(arity, 3), one + mono(-1, 2, 2)]
    num = LaurentPoly(arity)
    for _ in range(3):
        num = num + mono(-3, 4, rng.randrange(-5, 6))
    dens = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
    dens.append(LaurentPoly.const(arity, rng.choice((1, 2, 6, 35))))
    return RatFunc.from_den_factors(num, dens)


def _vanishing_at(dom, index):
    """A linear polynomial that vanishes at dom.points[index] and nowhere else."""
    pt = dom.points[index]
    arity = len(pt)
    f = LaurentPoly.const(arity, -sum((i + 1) * x for i, x in enumerate(pt)))
    for i in range(arity):
        f = f + LaurentPoly.var(arity, i) * LaurentPoly.const(arity, i + 1)
    zeros = [j for j, v in enumerate(f.eval_mod(dom._power, dom.prime)) if v == 0]
    assert zeros == [index]
    return f


def test_lift_is_the_pointwise_evaluation(a3):
    """Every lift is the pointwise oracle residue for residue, at every orbit
    point and at the kept points: t-only and mixed fractions, repeated factors,
    an integer factor, negative exponents.  A factor that vanishes at one orbit
    point (kept or not), at one family's t or at one inverted t, and an integer
    factor divisible by p, raise."""
    dom = OrbitDomain(a3, seed=9, families=2)
    p = dom.prime
    rng = random.Random(10)
    fractions = [_random_lift_fraction(rng, 4, k % 2 == 0) for k in range(40)]
    assert any(mult > 1 for f in fractions for _, mult in f.facs)
    integer = [any(len(g.packed) == 1 for g, _ in f.facs) for f in fractions]
    assert any(integer) and any(f.facs and not i for f, i in zip(fractions, integer))
    assert any(min(e[0] for e in f.num.terms) < 0 for f in fractions)
    for f in fractions:
        assert dom.lift(f).full == tuple(eval_mod(f, pt, p) for pt in dom.points)
        assert dom.lift(f).values == eval_kept(dom, f)

    one = LaurentPoly.const(4, 1)
    t = LaurentPoly.t_power(4, 1)
    vanishing = [
        _vanishing_at(dom, 0),
        _vanishing_at(dom, 1),
        _vanishing_at(dom, len(dom.points) - 1),
        t - LaurentPoly.const(4, dom.points[2 * a3.order][0]),  # family 1's t
        t - LaurentPoly.const(4, dom.points[a3.order][0]),  # family 0's inverted t
    ]
    for f in vanishing:
        for r in (RatFunc.fraction(one, f), RatFunc.from_den_factors(t, [one + t * t, f, f])):
            with pytest.raises(ZeroDenominator):
                dom.lift(r)
            with pytest.raises(ZeroDenominator):
                dom.lift(r)
    content_p = RatFunc.from_den_factors(t, [one + t * t, LaurentPoly.const(4, 3 * p)])
    for r in (RatFunc.fraction(one, LaurentPoly.const(4, p)), content_p):
        with pytest.raises(ZeroDenominator):
            dom.lift(r)


@pytest.mark.parametrize("label", sorted(ORBIT_POINT_DIGESTS))
def test_orbit_points_are_pinned(label):
    dom = OrbitDomain(RootSystem(COLUMN_GROUPS[label]), seed=2024, families=2)
    assert hashlib.sha256(repr(dom.points).encode()).hexdigest() == ORBIT_POINT_DIGESTS[label]


@pytest.mark.parametrize("label", sorted(COLUMN_GROUPS))
def test_power_columns_are_the_term_by_term_evaluation(label):
    """Every power column, asked for in a shuffled order, and eval_mod from the
    columns are the oracle's term-by-term residues at every orbit point: the
    zero polynomial, constants, a t-only polynomial, monomials negative in
    every slot, and every single power up to +-12.  Each inverse point is the
    coordinatewise inverse of its partner, t included."""
    system = RootSystem(COLUMN_GROUPS[label])
    arity, order = system.rank + 1, system.order
    rng = random.Random(arity)
    one = LaurentPoly.const(arity, 1)
    t = LaurentPoly.t_power(arity, 1)
    for families in (1, 2):
        dom = OrbitDomain(system, seed=61 + families, families=families)
        p = dom.prime

        def oracle(f):
            return tuple(eval_mod(RatFunc(f), pt, p) for pt in dom.points)

        powers = [(i, x) for i in range(arity) for x in range(-12, 13)]
        rng.shuffle(powers)
        for i, x in powers:
            column = oracle(LaurentPoly.var(arity, i, x))
            assert dom._power(i, x) == column, (families, i, x)
            minus_five = LaurentPoly.var(arity, i, x) * LaurentPoly.const(arity, -5)
            assert minus_five.eval_mod(dom._power, p) == tuple(-5 * v % p for v in column)
        negative = [LaurentPoly.monomial((-1,) * arity, 3)] + [
            LaurentPoly.var(arity, i, -rng.randrange(1, 13))
            * LaurentPoly.const(arity, rng.randrange(2, 9))
            + one
            for i in range(arity)
        ]
        mixed = [
            LaurentPoly(
                arity,
                {
                    tuple(rng.randrange(-12, 13) for _ in range(arity)): rng.randrange(-9, 10)
                    for _ in range(6)
                },
            )
            for _ in range(4)
        ]
        polys = [
            LaurentPoly(arity),
            LaurentPoly.const(arity, 7),
            LaurentPoly.const(arity, -p - 3),
            t * t * t - t * LaurentPoly.const(arity, 2) + LaurentPoly.t_power(arity, -5) - one,
            *negative,
            *mixed,
        ]
        for f in polys:
            assert f.eval_mod(dom._power, p) == oracle(f), (families, f)
        assert LaurentPoly(arity).eval_mod(dom._power, p) == (0,) * len(dom.points)
        assert LaurentPoly.const(arity, 7).eval_mod(dom._power, p) == (7,) * len(dom.points)
        for off in range(0, len(dom.points), 2 * order):
            for j in range(order):
                point, inverse = dom.points[off + j], dom.points[off + order + j]
                assert all(a * b % p == 1 for a, b in zip(point, inverse)), (families, j)


def test_orbit_inv_is_the_pointwise_inverse(a2):
    """The batch inverse is pow(x, p - 2, p) entry by entry, and one zero
    entry anywhere raises."""
    for families in (1, 2):
        dom = OrbitDomain(a2, seed=12, families=families)
        p = dom.prime
        rng = random.Random(families)
        for values in (
            [rng.randrange(1, p) for _ in range(dom.size)],
            [1, p - 1] * (dom.size // 2),
            [p - 1] * dom.size,
        ):
            x = OrbitScalar(dom, tuple(values))
            assert x.inv().values == tuple(pow(v, p - 2, p) for v in values)
        for index in (0, dom.size // 2, dom.size - 1):
            values = [rng.randrange(1, p) for _ in range(dom.size)]
            values[index] = 0
            with pytest.raises(ZeroDenominator):
                OrbitScalar(dom, tuple(values)).inv()


def test_lift_evaluates_each_polynomial_once_per_domain(a3, monkeypatch):
    """A fraction costs one evaluation at all orbit points, from the domain's
    own power columns, for its numerator and for each distinct factor, once
    per domain: an equal fraction built apart costs none, a new numerator over
    the same factors costs only its own, and equal lifts without a denominator
    share one lifted scalar."""
    calls = []
    evaluate = LaurentPoly.eval_mod

    def counted(poly, power, p):
        # bound methods compare equal only with the same instance: dom's own table
        assert power == dom._power
        calls.append(poly)
        return evaluate(poly, power, p)

    monkeypatch.setattr(LaurentPoly, "eval_mod", counted)
    one = LaurentPoly.const(4, 1)
    t = LaurentPoly.t_power(4, 1)
    z1 = LaurentPoly.var(4, 1)

    def build(num):
        return RatFunc.from_den_factors(num, [one - z1, t * t + one, one - z1])

    three = LaurentPoly.const(4, 3)
    num = t * t + z1 * three + LaurentPoly.t_power(4, -1)
    f, g = build(num), build(t * t + z1 * three + LaurentPoly.t_power(4, -1))
    assert f is not g and f.facs[0][1] == 2 and len(f.facs) == 2
    for dom in (OrbitDomain(a3, seed=14, families=2), OrbitDomain(a3, seed=15)):
        calls.clear()
        lifted = dom.lift(f)
        assert calls == [f.num, *(c for c, _ in f.facs)]
        assert dom.lift(g) == lifted
        assert len(calls) == 3
        dom.lift(build(num + one))
        assert len(calls) == 4
        h1, h2 = RatFunc(t * t - one), RatFunc(t * t - one)
        assert dom.lift(h1).full is dom.lift(h2).full
        assert len(calls) == 5


def test_orbit_field_ops(a2):
    dom = OrbitDomain(a2, seed=44)
    one = LaurentPoly.const(3, 1)
    f = RatFunc.fraction(one - LaurentPoly.var(3, 1, 2), one - LaurentPoly.var(3, 1))
    g = RatFunc(one + LaurentPoly.var(3, 1))
    assert dom.lift(f) == dom.lift(g)
    a = dom.lift(RatFunc(LaurentPoly.t_power(3, 1) + LaurentPoly.t_power(3, -1)))
    assert a * a.inv() == dom.one
    assert not a + dom.lift(RatFunc.from_int(3, -1)) * a


def test_a_foreign_operand_is_a_type_error(a2):
    """+ and * take a scalar of the same domain: an int or an exact fraction
    is refused with TypeError, and a scalar of another domain with ValueError."""
    dom = OrbitDomain(a2, seed=44)
    s = dom.lift(RatFunc(LaurentPoly.t_power(3, 1)))
    for op in (
        lambda: s + 1,
        lambda: 1 + s,
        lambda: s - 1,
        lambda: s * 2,
        lambda: 2 * s,
        lambda: s * RatFunc(LaurentPoly.t_power(3, 1)),
    ):
        with pytest.raises(TypeError):
            op()
    other = OrbitDomain(a2, seed=44).one
    for op in (lambda: s + other, lambda: s * other):
        with pytest.raises(ValueError, match="different evaluation domains"):
            op()


def test_weyl_and_dualize_refuse_a_scalar_of_another_domain(a2):
    """weyl and dualize, as dot, + and *, take scalars of their own domain
    only: a lift, or a computed value, of another domain of the same group is
    refused, even for the twist by e."""
    d1, d2 = OrbitDomain(a2, 1), OrbitDomain(a2, 2)
    x = d2.lift(RatFunc(LaurentPoly.t_power(3, 1)))
    for op in (
        lambda: d1.weyl(a2.simple_reflection(0), x),
        lambda: d1.weyl(a2.identity, x),
        lambda: d1.weyl(a2.w0, x + x),
        lambda: d1.dualize(x),
        lambda: d1.dualize(x + x),
    ):
        with pytest.raises(ValueError, match="different evaluation domains"):
            op()


def test_twisted_ring_same_identities_mod_p(a2):
    """The de dicated mod-p domain reproduces exact twisted-ring identities."""
    dom = OrbitDomain(a2, seed=7)
    qm = TwistedRing(a2, "multiplicative", dom)
    qt = TwistedRing(a2, "hyperbolic", dom)
    h = HeckeAlgebra(a2)
    # braid relation for Demazure-Lusztig elements
    lhs = qm.qw_mul(qm.qw_mul(qm.dl_generator(0), qm.dl_generator(1)), qm.dl_generator(0))
    rhs = qm.qw_mul(qm.qw_mul(qm.dl_generator(1), qm.dl_generator(0)), qm.dl_generator(1))
    assert lhs == rhs
    # psi contract on generators
    for i in range(2):
        assert psi(qm.dl_generator(i), qt) == qt.dl_generator(i)
    # relative push-pull factorization
    for J, Jp in [((0, 1), (0,)), ((0, 1), ()), ((1,), ())]:
        got = qt.qw_mul(qt.pushpull_rel(J, Jp), qt.pushpull_rel(Jp, ()))
        assert got == qt.pushpull_rel(J, ())
    # hyperbolic braid inequality survives mod p
    y1, y2 = qt.pushpull_rel((0,), ()), qt.pushpull_rel((1,), ())
    assert qt.qw_mul(qt.qw_mul(y1, y2), y1) != qt.qw_mul(qt.qw_mul(y2, y1), y2)


def test_exact_vs_orbit_gamma_image(a2):
    h = HeckeAlgebra(a2)
    exact = ExactDomain(a2)
    qm_e = TwistedRing(a2, "multiplicative", exact)
    dom = OrbitDomain(a2, seed=99)
    qm_p = TwistedRing(a2, "multiplicative", dom)
    g = h.kl_basis(a2.w0)
    img_exact = qm_e.hecke_to_qw(g)
    img_p = qm_p.hecke_to_qw(g)
    assert set(img_exact.coeffs) == set(img_p.coeffs)
    for w, c in img_exact.coeffs.items():
        assert dom.lift(c) == img_p.coeffs[w], w


def test_orbit_dot_is_the_reduced_sum(a2):
    """dot reduces once; its residues are those of the sum of reduced products,
    for random vectors and for all-(p - 1) vectors, whose products and sums
    grow far past p.  The empty sum is zero."""
    dom = OrbitDomain(a2, seed=31, families=2)
    p = dom.prime
    rng = random.Random(5)

    def scalar(values):
        return OrbitScalar(dom, tuple(values))

    top = scalar([p - 1] * dom.size)
    for n in (1, 2, 7, 40):
        xs = [scalar(rng.randrange(p) for _ in range(dom.size)) for _ in range(n)]
        ys = [scalar(rng.randrange(p) for _ in range(dom.size)) for _ in range(n)]
        for left, right in ((xs, ys), ([top] * n, [top] * n), (xs, [top] * n)):
            expected = left[0] * right[0]
            for x, y in zip(left[1:], right[1:]):
                expected = expected + x * y
            got = dom.dot(left, right)
            assert got.values == expected.values
            assert all(0 <= v < p for v in got.values)
    assert dom.dot([], []) == dom.zero
    other = OrbitDomain(a2, seed=32)
    with pytest.raises(ValueError):
        dom.dot([top], [other.one])


def test_exact_dot_is_the_sequential_sum(a2):
    rng = random.Random(6)
    dom = ExactDomain(a2)
    for n in (1, 2, 5):
        xs = [_random_poly(rng) for _ in range(n)]
        ys = [_random_t_binomial_fraction(rng, 3) for _ in range(n)]
        expected = xs[0] * ys[0]
        for x, y in zip(xs[1:], ys[1:]):
            expected = expected + x * y
        assert dom.dot(xs, ys).format() == expected.format()
    assert not dom.dot([], [])


@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_dot_against_the_domains_one_skips_the_product(a2, mode, monkeypatch):
    """A factor that is the domain's own one is not multiplied: the dot equals
    the dot against a separately lifted 1 and the sum of the products, in a run
    of ones and mixed with other factors, and exactly it runs no RatFunc
    product."""
    rng = random.Random(8)
    dom = ExactDomain(a2) if mode == "exact" else OrbitDomain(a2, seed=33, families=2)
    lifted_one = dom.lift(RatFunc.from_int(3, 1))
    assert lifted_one is not dom.one

    def summed(xs, ys):
        out = dom.zero
        for x, y in zip(xs, ys):
            out = out + x * (lifted_one if y is dom.one else y)
        return out

    for n in (1, 2, 5):
        xs = [dom.lift(_random_t_binomial_fraction(rng, 3)) for _ in range(n)]
        ys = [dom.lift(_random_poly(rng)) if k % 2 else dom.one for k in range(n)]
        ones = [dom.one] * n
        assert dom.dot(xs, ones) == dom.dot(xs, [lifted_one] * n) == summed(xs, ones)
        assert dom.dot(xs, ys) == summed(xs, ys)
    if mode == "exact":
        products = []
        mul = RatFunc.__mul__

        def counted(a, b):
            products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(RatFunc, "__mul__", counted)
        assert dom.dot(xs, [dom.one] * len(xs)) == dom.dot(xs, [lifted_one] * len(xs))
        assert len(products) == len(xs)
        assert dom.dot(xs[:1], [dom.one]) is xs[0]


def test_computed_values_twist_only_by_e_and_w0(a3):
    """weyl of a computed value (a product of differently twisted lifts, a sum,
    an inverse, a dualization or a dot) is itself at e, the swap at w0, and
    raises MisplacedTwist at every other element of A3."""
    dom = OrbitDomain(a3, seed=51, families=2)
    rng = random.Random(51)
    f, g = dom.lift(_random_poly(rng, 4)), dom.lift(_random_t_binomial_fraction(rng, 4))
    f1 = dom.weyl(a3.simple_reflection(0), f)
    computed = [f1 * g, f + g, g.inv(), dom.dualize(f), dom.dot([f, g], [g, f])]
    for c in computed:
        assert c.full is None
        assert dom.weyl(a3.identity, c) is c
        assert dom.weyl(a3.w0, dom.weyl(a3.w0, c)) == c
        for u in a3.elements:
            if u is not a3.identity and u is not a3.w0:
                with pytest.raises(MisplacedTwist):
                    dom.weyl(u, c)


def test_twists_of_a_lift_compose_at_the_kept_points(a3):
    """weyl(v, weyl(u, lift f)) is weyl(v u, lift f), and its residues at every
    kept point are those of the exact twists v(u(f)); a product of two lifts
    twisted alike is known too, and twists like the lift of the product."""
    dom = OrbitDomain(a3, seed=52, families=2)
    rng = random.Random(52)
    f, g = _random_t_binomial_fraction(rng, 4), _random_poly(rng, 4)
    lifted = dom.lift(f)
    for u in a3.elements:
        once = dom.weyl(u, lifted)
        exact = f.weyl(u.matrix)
        assert once.values == eval_kept(dom, exact)
        product = once * dom.weyl(u, dom.lift(g))
        assert product.full is not None
        assert dom.weyl(a3.simple_reflection(1), product) == dom.weyl(
            a3.simple_reflection(1) * u, dom.lift(f * g)
        )
        for v in a3.elements[::5]:
            twice = dom.weyl(v, once)
            assert twice.values == dom.weyl(v * u, lifted).values
            assert twice.values == eval_kept(dom, exact.weyl(v.matrix)), (u, v)


def test_w0_swap_and_dualize_at_the_kept_points(a3):
    """The w0 twist and the dualization of computed values, and the dualization
    of twisted lifts, have the exact images' residues at every kept point."""
    dom = OrbitDomain(a3, seed=53, families=2)
    rng = random.Random(53)
    w0 = a3.w0
    for _ in range(5):
        f, g = _random_poly(rng, 4), _random_t_binomial_fraction(rng, 4)
        exact = f * g + f
        computed = dom.lift(f) * dom.lift(g) + dom.lift(f)
        assert computed.full is None and computed.values == eval_kept(dom, exact)
        assert dom.weyl(w0, computed).values == eval_kept(dom, exact.weyl(w0.matrix))
        assert dom.dualize(computed).values == eval_kept(dom, exact.dualize())
        swapped_dual = dom.weyl(w0, dom.dualize(computed))
        assert swapped_dual.values == eval_kept(dom, exact.dualize().weyl(w0.matrix))
        u = a3.elements[rng.randrange(a3.order)]
        twisted_dual = dom.dualize(dom.weyl(u, dom.lift(g)))
        assert twisted_dual.values == eval_kept(dom, g.weyl(u.matrix).dualize())
