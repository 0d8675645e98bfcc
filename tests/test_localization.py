import hashlib
import random
import re
from itertools import combinations

import pytest

from klschubert.laurent import LaurentPoly
from klschubert.localization import CohClass, Localization
from klschubert.modp import ExactDomain, MisplacedTwist, OrbitDomain
from klschubert.ratfunc import RatFunc
from klschubert.rootsystem import CartanData, RootSystem, WeylElt
from klschubert.twisted import combine, psi

from oracles import (
    bar_tau,
    bullet_direct,
    eval_kept,
    is_smooth_direct,
    kl_class_c_direct,
    kl_class_c_parabolic_direct,
    kl_class_c_tilde_direct,
    kl_class_c_tilde_parabolic,
    kl_class_c_tilde_parabolic_direct,
    kl_schubert_direct,
    mc_cell_direct,
    mc_cell_parabolic_direct,
    mc_variety,
    mul_pointwise,
    one_class,
    pairing_by_bullet,
    pairing_normalizer_product,
    pushpull_word,
    qw_iota,
    smc_cell_by_cell,
    smc_cell_direct,
    smc_cell_parabolic,
    smc_cell_parabolic_direct,
    top_point_class,
)


@pytest.fixture(scope="module")
def loc1(a1):
    return Localization(a1)


@pytest.fixture(scope="module")
def loc2(a2):
    return Localization(a2)


@pytest.fixture(scope="module")
def loc3(a3):
    return Localization(a3)


def lift(loc, num_terms, facs=()):
    arity = loc.system.rank + 1
    return loc.dom.lift(RatFunc.from_den_factors(LaurentPoly(arity, num_terms), list(facs)))


@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_class_builders_refuse_an_element_of_another_group(a2, mode):
    """Every builder keyed by a group element refuses one of another group,
    its e and its w0 included, as the element with the same index would
    otherwise answer; no memo table keeps an entry for it."""
    a3 = RootSystem(CartanData.type_a(3))
    loc = Localization(a3, ExactDomain(a3) if mode == "exact" else OrbitDomain(a3, seed=5))
    builders = {
        "mc_cell": loc.mc_cell,
        "kl_class_c": loc.kl_class_c,
        "kl_schubert": loc.kl_schubert,
        "point_class": loc.point_class,
        "dl_element": loc.mult.dl_element,
        "delta": loc.mult.delta,
        "generator_twist": lambda w: loc.mult.generator_twist(w, 0),
        "smc_cell": lambda w: smc_cell_parabolic(loc, w, ()),
        "kl_class_c_tilde": loc.kl_class_c_tilde,
        "is_smooth": loc.is_smooth,
        "mc_cell_parabolic": lambda w: loc.mc_cell_parabolic(w, ()),
    }
    answered = []
    for foreign in (a2.identity, a2.w0):
        for name, build in builders.items():
            try:
                build(foreign)
            except ValueError as exc:
                assert str(exc) == "elements of a different group", exc
            else:
                answered.append((name, foreign))
    assert answered == []
    memos = (loc._memo, loc.mult._memo, loc.hyp._memo, loc.hecke._memo, a3._memo)
    keys = [key for memo in memos for key in memo]
    assert keys and not [
        key for key in keys if any(isinstance(x, WeylElt) and x.system is not a3 for x in key)
    ]


def test_point_class_a1(loc1, a1):
    pt = loc1.point_class(a1.identity)
    assert set(pt.coeffs) == {a1.identity}
    # x_Pi restricted at e: 1 - e^{alpha_1} (alpha_1 = 2 omega_1 -> z1^2)
    expected = lift(loc1, {(0, 0): 1, (0, 2): -1})
    assert pt.coeffs[a1.identity] == expected


def test_actions_basics(loc2, a2):
    c = loc2.random_class(3)
    e = a2.identity
    assert loc2.bullet(loc2.mult.delta(e), c) == c
    assert loc2.odot(loc2.mult.delta(e), c) == c
    # right translation: (delta_v . c)_u = c_{uv}
    for v in a2.elements:
        shifted = loc2.bullet(loc2.mult.delta(v), c)
        for u in a2.elements:
            lhs = shifted.coeffs.get(u, loc2.dom.zero)
            rhs = c.coeffs.get(u * v, loc2.dom.zero)
            assert lhs == rhs


def test_bullet_linear_odot_not(loc2, a2):
    c = loc2.random_class(7)
    q = lift(loc2, {(0, 1, 0): 1})  # the character z1, not Weyl-invariant
    z = loc2.mult.qw_mul(loc2.mult.delta(a2.simple_reflection(0)), loc2.mult.pushpull_rel((1,), ()))
    lhs = loc2.bullet(z, c.scale(q))
    rhs = loc2.bullet(z, c).scale(q)
    assert lhs == rhs
    lhs_o = loc2.odot(z, c.scale(q))
    rhs_o = loc2.odot(z, c).scale(q)
    assert lhs_o != rhs_o  # witness that the second action is not linear


def test_actions_commute(loc2, a2):
    rng = random.Random(11)
    c = loc2.random_class(1)
    for _ in range(3):
        u = a2.elements[rng.randrange(a2.order)]
        v = a2.elements[rng.randrange(a2.order)]
        a = loc2.mult.qw_mul(loc2.mult.pushpull_rel((rng.randrange(2),), ()), loc2.mult.delta(u))
        b = loc2.mult.qw_mul(loc2.mult.delta(v), loc2.mult.pushpull_rel((rng.randrange(2),), ()))
        assert loc2.bullet(a, loc2.odot(b, c)) == loc2.odot(b, loc2.bullet(a, c))


def test_bullet_pt_e_equals_iota_odot(loc2, a2):
    rng = random.Random(5)
    pt = loc2.point_class(a2.identity)
    for _ in range(4):
        w = a2.elements[rng.randrange(a2.order)]
        z = loc2.mult.qw_mul(loc2.mult.pushpull_rel((rng.randrange(2),), ()), loc2.mult.delta(w))
        assert loc2.bullet(z, pt) == loc2.odot(qw_iota(loc2.mult, z), pt)


def test_odot_delta_translates_points(loc2, a2):
    # delta_v o pt_e = v(x_Pi) f_v = pt_v
    pt_e = loc2.point_class(a2.identity)
    for v in a2.elements:
        assert loc2.odot(loc2.mult.delta(v), pt_e) == loc2.point_class(v)


def test_mc_cell_a1(loc1, a1):
    s1 = a1.simple_reflection(0)
    assert loc1.mc_cell(a1.identity) == loc1.point_class(a1.identity)
    mc = loc1.mc_cell(s1)
    at_e = lift(loc1, {(0, 2): 1, (-2, 2): -1})  # (1 - t^-2) e^{alpha}
    at_s = lift(loc1, {(0, 0): 1, (-2, -2): -1})  # 1 - t^-2 e^{-alpha}
    assert mc.coeffs[a1.identity] == at_e
    assert mc.coeffs[s1] == at_s


def test_mc_variety_a1(loc1, a1):
    mv = mc_variety(loc1, a1.simple_reflection(0))
    at_e = lift(loc1, {(0, 0): 1, (-2, 2): -1})  # 1 - t^-2 e^{alpha}
    assert mv.coeffs[a1.identity] == at_e


def test_mc_variety_support(loc2, a2):
    for w in a2.elements:
        mv = mc_variety(loc2, w)
        for u in a2.elements:
            if not a2.bruhat_leq(u, w):
                assert u not in mv.coeffs


def test_mc_opposite_cell(loc2, a2):
    # the opposite cell of w0 is a point: w0-translating MC(cell e) gives pt_{w0}
    w0 = a2.w0
    assert loc2.odot(loc2.mult.delta(w0), loc2.mc_cell(a2.identity)) == loc2.point_class(w0)
    c = loc2.random_class(9)
    d = loc2.odot(loc2.mult.delta(w0), loc2.odot(loc2.mult.delta(w0), c))
    assert d == c


def test_serre_dual_point_and_involution(loc1, loc2, a1):
    pt = loc1.point_class(a1.identity)
    assert loc1.serre_dual(pt) == pt
    for seed in range(6):
        c = loc2.random_class(seed)
        assert loc2.serre_dual(loc2.serre_dual(c)) == c


def test_serre_dual_fixes_kl_classes_a2(loc2, a2):
    for w in a2.elements:
        cw = loc2.kl_class_c(w)
        assert loc2.serre_dual(cw) == cw


def test_smc_two_routes_agree(loc2, a2):
    for v in a2.elements:
        # the tau^-1 route, by the recursion from pt_{w0}, against the duality
        # route cell by cell and the weighted-sum builder at J = ()
        want = top_point_class(loc2, "SMC", a2.w0 * v)
        assert smc_cell_by_cell(loc2, v, ()) == want
        assert smc_cell_parabolic(loc2, v, ()) == want


def test_smc_top_cell(loc1, a1):
    w0 = a1.w0
    smc = smc_cell_parabolic(loc1, w0, ())
    # pt_{w0} times the normalizer 1 / (1 - t^-2 e^{-alpha}), alpha = 2 omega_1
    norm = lift(loc1, {(0, 0): 1}, [LaurentPoly(2, {(0, 0): 1, (-2, -2): -1})])
    assert smc == loc1.point_class(w0).scale(norm)


def test_orthogonality_a1(loc1, a1):
    for u in a1.elements:
        for v in a1.elements:
            val = loc1.pairing(loc1.mc_cell(u), smc_cell_parabolic(loc1, v, ()))
            expected = loc1.dom.one if u is v else loc1.dom.zero
            assert val == expected


def test_euler_characteristic_of_point(loc1, a1):
    val = loc1.pairing(loc1.point_class(a1.identity), one_class(loc1, "multiplicative"))
    assert val == loc1.dom.one


def test_kl_classes_a2(loc2, a2):
    assert loc2.kl_class_c(a2.identity) == loc2.point_class(a2.identity)
    for w in a2.elements:
        # A2 Schubert varieties are smooth: C_w = t_w MC(X(w))
        lhs = loc2.kl_class_c(w)
        assert lhs == mc_variety(loc2, w).scale(loc2.mult.t_poly(LaurentPoly.t_power(1, w.length)))
        # independent expansions: parabolic KL polynomials at J = (), and the
        # recursion from pt_{w0}
        assert lhs == loc2.kl_class_c_parabolic(w, ())
        assert loc2.kl_class_c_tilde(w) == top_point_class(loc2, "C~", a2.w0 * w)


def test_duality_theorem_a2(loc2, a2):
    for J in [(), (0,), (1,), (0, 1)]:
        assert loc2.pairing_normalizer(J) == pairing_normalizer_product(loc2, J), J
    norm = loc2.pairing_normalizer()
    for w in a2.elements:
        cw = loc2.kl_class_c(w)
        for v in a2.elements:
            val = loc2.pairing(cw, loc2.kl_class_c_tilde(v))
            expected = norm if v is w else loc2.dom.zero
            assert val == expected, (w, v)


def test_pairing_normalizer_lifts_factor_by_factor(a3):
    """The normalizer, lifted one binomial at a time, has the residues of the
    lifted expanded product at every J of A3."""
    loc = Localization(a3, OrbitDomain(a3, seed=23, families=2))
    for mask in range(1 << a3.rank):
        J = tuple(i for i in range(a3.rank) if mask >> i & 1)
        expected = pairing_normalizer_product(loc, J)
        assert loc.pairing_normalizer(J).values == expected.values, J


def test_parabolic_classes_reduce_to_full(loc2, a2):
    for w in a2.elements:
        assert loc2.kl_class_c_parabolic(w, ()) == loc2.kl_class_c(w)
        assert kl_class_c_tilde_parabolic(loc2, w, ()) == top_point_class(loc2, "C~", a2.w0 * w)


def test_parabolic_orthogonality_a2(loc2, a2):
    J = (0,)
    reps = a2.minimal_coset_reps(J)
    for u in reps:
        for v in reps:
            val = loc2.pairing_matrix(
                [loc2.mc_cell_parabolic(u, J)], [smc_cell_parabolic(loc2, v, J)], J
            )[0][0]
            expected = loc2.dom.one if u is v else loc2.dom.zero
            assert val == expected, (u, v)


def test_parabolic_duality_a2(loc2, a2):
    J = (1,)
    reps = a2.minimal_coset_reps(J)
    norm = loc2.pairing_normalizer(J)
    for w in reps:
        for u in reps:
            val = loc2.pairing_matrix(
                [loc2.kl_class_c_parabolic(w, J)], [kl_class_c_tilde_parabolic(loc2, u, J)], J
            )[0][0]
            expected = norm if u is w else loc2.dom.zero
            assert val == expected, (w, u)


PAIRING_GROUPS = {
    "A2": CartanData.type_a(2),
    "A3": CartanData.type_a(3),
    "B2": CartanData(((2, -2), (-1, 2)), "B"),
    "G2": CartanData(((2, -1), (-3, 2)), "G"),
}
PAIRING_CONFIGS = [("A3", "modp"), ("B2", "exact"), ("B2", "modp"), ("G2", "exact"), ("G2", "modp")]


def _pairing_loc(name, mode):
    system = RootSystem(PAIRING_GROUPS[name])
    dom = OrbitDomain(system, seed=17, families=2) if mode == "modp" else None
    return Localization(system, dom)


@pytest.mark.parametrize("name, mode", PAIRING_CONFIGS)
def test_pairing_is_the_bullet_value(name, mode):
    """Each pairing-matrix row equals the constant values of Y_{Pi/J} . (f* g*),
    f* and g* the pullbacks to G/B: random classes at J = (), parabolic cell
    and KL classes at every other proper J."""
    loc = _pairing_loc(name, mode)
    system = loc.system
    one = one_class(loc, "multiplicative")
    groups = []
    for s in range(3):
        f = loc.random_class(s)
        groups.append(((), [f], [loc.random_class(s + 50), one, f]))
    for mask in range(1, (1 << system.rank) - 1):
        J = tuple(i for i in range(system.rank) if mask >> i & 1)
        reps = system.minimal_coset_reps(J)
        pick = [reps[0], reps[-1]]  # e and the longest representative
        mc = [loc.mc_cell_parabolic(u, J) for u in pick]
        smc = [smc_cell_parabolic(loc, u, J) for u in pick]
        cj = [loc.kl_class_c_parabolic(u, J) for u in pick]
        ctj = [kl_class_c_tilde_parabolic(loc, u, J) for u in pick]
        groups += [(J, mc, smc), (J, cj, ctj)]
    nonzero = entries = 0
    for J, left, right in groups:
        matrix = loc.pairing_matrix(left, right, J)
        assert len(matrix) == len(left)
        for f, row in zip(left, matrix):
            pulled = loc.pullback(f, J)
            expected = [pairing_by_bullet(loc, pulled, loc.pullback(g, J), J) for g in right]
            assert len(row) == len(right)
            assert all(v == e for v, e in zip(row, expected)), J
            nonzero += sum(map(bool, row))
            entries += len(row)
    assert nonzero > entries // 4


OUTSIDE = "pairing on G/P_J of a class with a point outside W\\^J"


def _restrict_to_reps(loc, c, J):
    """c restricted to W^J: a class on G/P_J."""
    reps = set(loc.system.minimal_coset_reps(J))
    return CohClass(c.ring, {x: v for x, v in c.coeffs.items() if x in reps})


def _planted(loc, f, i):
    """f plus pt_{s_i}: a class with a point outside W^J for J = (i,)."""
    return f + loc.point_class(loc.system.simple_reflection(i))


@pytest.mark.parametrize("name, mode", PAIRING_CONFIGS)
def test_pairing_refuses_a_product_that_is_not_invariant(name, mode):
    """On G/P_J a class with a point outside W^J is refused on either side,
    its product with 1 not right-W_J-invariant; restricted to W^J it pairs,
    as the bullet of the pullbacks."""
    loc = _pairing_loc(name, mode)
    one = one_class(loc, "multiplicative")
    f = loc.random_class(7)
    for J in [(i,) for i in range(loc.system.rank)]:
        planted, one_j = _planted(loc, f, J[0]), _restrict_to_reps(loc, one, J)
        assert not loc.is_invariant(mul_pointwise(f, one), J)
        assert not loc.is_invariant(mul_pointwise(planted, one), J)
        for left, right in (([planted], [one_j]), ([one_j], [planted])):
            with pytest.raises(ValueError, match=OUTSIDE):
                loc.pairing_matrix(left, right, J)
        f_j = _restrict_to_reps(loc, f, J)
        got = loc.pairing_matrix([f_j], [one_j], J)[0][0]
        assert got == pairing_by_bullet(loc, loc.pullback(f_j, J), one, J)
    # at J = () every class pairs
    assert loc.pairing(f, one) == pairing_by_bullet(loc, f, one)


@pytest.mark.parametrize("name, mode", PAIRING_CONFIGS)
def test_pairing_matrix_checks_every_class(name, mode):
    """A class with a point outside W^J is refused on either side, even
    against the zero class, whose product with it is invariant."""
    loc = _pairing_loc(name, mode)
    zero = CohClass(loc.mult, {})
    f = loc.random_class(7)
    for J in [(i,) for i in range(loc.system.rank)]:
        planted = _planted(loc, f, J[0])
        assert loc.is_invariant(mul_pointwise(planted, zero), J)
        for left, right in (([planted], [zero]), ([zero], [planted]), ([zero], [zero, planted])):
            with pytest.raises(ValueError, match=OUTSIDE):
                loc.pairing_matrix(left, right, J)
        with pytest.raises(ValueError, match=OUTSIDE):
            loc.pairing_matrix([planted], [], J)
        assert not loc.pairing_matrix([zero], [zero], J)[0][0]
    assert not loc.pairing(f, zero)


@pytest.mark.parametrize("name", ["A2", "B2"])
@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_the_pairing_of_two_sums_is_the_weighted_sum_of_the_matrix(name, mode):
    """<sum_a r_a f_a, sum_b s_b g_b>_J, the 1 x 1 pairing that Freivalds'
    check in verify takes, is the sum of r_a s_b M_ab over the pairing matrix
    M of the f_a and g_b, with int weights lifted into the domain: for random
    classes at J = (), summed by combine, and at every other proper J for MC_J
    and SMC_J cells and for C^J and C~^J classes, summed by class_sum."""
    loc = _pairing_loc(name, mode)
    system, dom = loc.system, loc.dom
    rng = random.Random(5)

    def built(classes):
        """The classes and their sum over a list of weights, by combine."""
        maps = [c.coeffs for c in classes]
        return classes, lambda ws: CohClass(loc.mult, combine(dom, zip(ws, maps)))

    def summed(family, keys, J):
        """The classes of keys and their sum over a list of weights."""
        classes = [loc.class_sum(family, {w: dom.one}, J) for w in keys]
        return classes, lambda ws: loc.class_sum(family, dict(zip(keys, ws)), J)

    randoms = [loc.random_class(seed) for seed in (1, 2, 3)]
    pairings = [((), built(randoms[:2]), built(randoms[2:]))]
    for J in [(i,) for i in range(system.rank)]:
        reps = system.minimal_coset_reps(J)
        mc, smc = summed("MC", reps, J), summed("SMC", reps, J)
        pairings += [(J, mc, smc), (J, summed("C", reps[:2], J), summed("C~", reps[1:], J))]
    for J, (left, left_sum), (right, right_sum) in pairings:
        r = [loc.mult.as_scalar(rng.randrange(1, 1000)) for _ in left]
        s = [loc.mult.as_scalar(rng.randrange(1, 1000)) for _ in right]
        expected = dom.zero
        for ra, row in zip(r, loc.pairing_matrix(left, right, J)):
            for sb, val in zip(s, row):
                expected = expected + ra * sb * val
        assert expected and loc.pairing_matrix([left_sum(r)], [right_sum(s)], J) == [[expected]], J


@pytest.mark.parametrize("name, mode", PAIRING_CONFIGS)
def test_pairing_matrix_entries_are_dots_over_the_common_points(name, mode):
    """Each entry is one dot over the points both classes live on, in f's
    order, as the dense loop over f's points makes it; an entry with no common
    point is the domain's zero itself."""
    loc = _pairing_loc(name, mode)
    system = loc.system
    top = system.elements[-1]
    left = [loc.point_class(top), loc.point_class(system.w0), loc.random_class(3)]
    right = [loc.point_class(system.w0), loc.random_class(4), CohClass(loc.mult, {})]
    q = loc.mult.pushpull_rel(tuple(range(system.rank)), ()).coeffs
    empty = 0
    for f, row in zip(left, loc.pairing_matrix(left, right)):
        for g, val in zip(right, row):
            common = [x for x in f.coeffs if x in g.coeffs and x in q]
            if common:
                xs = [f.coeffs[x] * q[x] for x in common]
                assert val == loc.dom.dot(xs, [g.coeffs[x] for x in common])
            else:
                empty += 1
                assert val is loc.dom.zero
    assert empty >= len(left)


def test_pushforward_proposition_a2(loc2, a2):
    for J in [(), (0,), (1,), (0, 1)]:
        wj = a2.longest_parabolic(J)
        scal = loc2.pushforward_scalar(J)
        yj = loc2.mult.pushpull_rel(J, ())
        for w in a2.minimal_coset_reps(J):
            lhs = loc2.bullet(yj, loc2.kl_class_c(w * wj))
            rhs = loc2.pullback(loc2.kl_class_c_parabolic(w, J).scale(scal), J)
            assert lhs == rhs, (J, w)


def test_kl_schubert_a1(loc1, a1):
    s1 = a1.simple_reflection(0)
    kl = loc1.kl_schubert(s1)
    assert kl == one_class(loc1, "hyperbolic")
    assert loc1.kl_schubert(a1.identity) == loc1.point_class(a1.identity, "hyperbolic")


def test_smoothness_conjecture_a2(loc2, a2):
    for w in a2.elements:
        smooth, _ = loc2.is_smooth(w)
        assert smooth
        assert loc2.kl_schubert(w) == loc2.fundamental_class_smooth(w)


def test_fundamental_class_edges(loc2, a2):
    assert loc2.fundamental_class_smooth(a2.w0) == one_class(loc2, "hyperbolic")
    assert loc2.fundamental_class_smooth(a2.identity) == loc2.point_class(
        a2.identity, "hyperbolic"
    )
    s1 = a2.simple_reflection(0)
    cls = loc2.fundamental_class_smooth(s1)
    assert set(cls.coeffs) <= {a2.identity, s1}


@pytest.mark.parametrize("J", [(-1,), (3,)])
def test_is_invariant_refuses_an_index_out_of_range(loc3, a3, J):
    """J is read through _jkey: (-1,) does not wrap around to s_3, under which
    the class is invariant, and (3,) is refused, not an IndexError."""
    cls = loc3.pullback(loc3.mc_cell_parabolic(a3.identity, (2,)), (2,))
    assert loc3.is_invariant(cls, (2,))
    with pytest.raises(ValueError, match="out of range"):
        loc3.is_invariant(cls, J)


def test_is_smooth_a3(loc3, a3):
    w_sing = a3.from_word([1, 0, 2, 1])
    smooth, witnesses = loc3.is_smooth(w_sing)
    assert not smooth
    # the singular locus is the Schubert subvariety of s_2: fixed points e, s_2
    bad = {u for u, ok in witnesses.items() if not ok}
    assert bad == {a3.identity, a3.simple_reflection(1)}
    assert loc3.is_smooth(a3.w0)[0]
    # combinatorial cross-check on a smooth element
    for w in a3.elements:
        if loc3.is_smooth(w)[0]:
            for v in a3.bruhat_interval(w):
                count = sum(
                    1
                    for a in a3.positive_roots
                    if a3.bruhat_leq(a3.reflection(a) * v, w)
                )
                assert count == w.length


def test_bott_samelson_word_dependence(loc2, a2):
    pt_t = loc2.point_class(a2.identity, "hyperbolic")
    pt_m = loc2.point_class(a2.identity)
    y_t_121 = pushpull_word(loc2.hyp, [0, 1, 0])
    y_t_212 = pushpull_word(loc2.hyp, [1, 0, 1])
    assert loc2.odot(y_t_121, pt_t) != loc2.odot(y_t_212, pt_t)
    y_m_121 = pushpull_word(loc2.mult, [0, 1, 0])
    y_m_212 = pushpull_word(loc2.mult, [1, 0, 1])
    assert loc2.odot(y_m_121, pt_m) == loc2.odot(y_m_212, pt_m)


def test_kl_schubert_invariance_smallest_grassmannian(loc2, a2):
    J = (1,)
    for w in a2.minimal_coset_reps(J):
        cls = loc2.kl_schubert(w * a2.longest_parabolic(J))
        assert loc2.is_invariant(cls, J)


RECURSION_GROUPS = {**PAIRING_GROUPS, "B3": CartanData(((2, -1, 0), (-1, 2, -2), (0, -1, 2)), "B")}
RECURSION_CONFIGS = [
    (name, mode) for name in ("A3", "B2", "G2", "B3") for mode in ("exact", "modp")
]


@pytest.mark.parametrize("name, mode", RECURSION_CONFIGS)
def test_class_recursions_match_direct_routes(name, mode):
    """C_w and MC(cell w), built by the restriction recursion, and the
    hyperbolic KL-Schubert class, built from C_w, equal the direct routes: the
    whole image of gamma_w or tau_w acting on pt_e by odot.  C~_w and SMC(cell
    w) are checked against their direct routes with the other references in
    test_smc_and_ct_sums_match_the_reference_routes."""
    system = RootSystem(RECURSION_GROUPS[name])
    dom = OrbitDomain(system, seed=23) if mode == "modp" else None
    loc = Localization(system, dom)
    elements = system.elements
    if (name, mode) == ("B3", "exact"):
        # every 4th element up to s1*s2*s1*s3, the first with a mu term: the
        # direct routes take seconds per longer element in exact B3
        elements = elements[:20:4]
    for w in elements:
        assert loc.kl_class_c(w) == kl_class_c_direct(loc, w), w
        assert loc.mc_cell(w) == mc_cell_direct(loc, w), w
        assert loc.kl_schubert(w) == kl_schubert_direct(loc, w), w


@pytest.mark.parametrize("name, mode", RECURSION_CONFIGS)
def test_smc_and_ct_sums_match_the_reference_routes(name, mode):
    """class_sum's one-weight SMC_J(cell v) and C~^J_w equal the references:
    SMC_J cell by cell, and the KL sums of those cells with Q^J looked up pair
    by pair, at every J (J = () alone at A3); at J = () also the recursion
    from pt_{w0} and the direct routes, C~_w and SMC(cell w) as the Hecke sums
    of iota-products, each a qw_mul product of iota(G_s) formed in the oracle,
    acting on pt_{w0} (B3 exact: every 4th element up to s1*s2*s1*s3, the
    first with a mu term, as those routes take seconds each).  A
    seeded random sum per family and J, its weights Laurent monomials in t and
    the z's that w0 and dualize move, equals the same combination of the
    reference classes: this checks the D(w0(.)) weight transform.  B3 exact
    checks the one-weight classes of every 4th element of each W^J."""
    system = RootSystem(RECURSION_GROUPS[name])
    dom = OrbitDomain(system, seed=37, families=2) if mode == "modp" else None
    loc = Localization(system, dom)
    rng = random.Random(13)
    arity, w0 = system.rank + 1, system.w0
    step = 4 if (name, mode) == ("B3", "exact") else 1
    for J in [()] if name == "A3" else _subsets(system):
        reps = system.minimal_coset_reps(J)
        smc = {v: smc_cell_by_cell(loc, v, J) for v in reps}
        ct = {w: kl_class_c_tilde_parabolic_direct(loc, w, J, smc.get) for w in reps}
        for w in reps[::step]:
            assert smc_cell_parabolic(loc, w, J) == smc[w], (J, w)
            assert kl_class_c_tilde_parabolic(loc, w, J) == ct[w], (J, w)
        if not J:
            for w in reps[:20:4] if step > 1 else reps:
                assert smc[w] == top_point_class(loc, "SMC", w0 * w), w
                assert smc[w] == smc_cell_direct(loc, w), w
                assert ct[w] == top_point_class(loc, "C~", w0 * w), w
                assert ct[w] == kl_class_c_tilde_direct(loc, w), w
        for family, refs in (("SMC", smc), ("C~", ct)):
            weights = {}
            for w in reps:
                exps = [rng.randrange(-2, 3)] + [rng.randrange(-1, 2) for _ in range(arity - 1)]
                mono = LaurentPoly.monomial(tuple(exps), rng.randrange(1, 9))
                weights[w] = loc.mult.as_scalar(RatFunc(mono))
            want = combine(loc.dom, [(c, refs[w].coeffs) for w, c in weights.items()])
            assert loc.class_sum(family, weights, J) == CohClass(loc.mult, want), (family, J)


@pytest.mark.parametrize("name", ["A3", "B2", "G2", "B3"])
def test_classes_are_the_exact_classes_at_the_kept_points(name):
    """Every C_w and MC cell, and every class_sum class of one weight (MC_J,
    SMC_J, C^J_w and C~^J_w at every J, J = () included), built on a 2-family
    domain, holds at each fixed point the residues of the exact class evaluated
    by eval_mod at the kept points: exact mode runs the same builders and is
    their oracle.  B3 takes every 4th element of W and of each W^J."""
    system = RootSystem(RECURSION_GROUPS[name])
    exact = Localization(system)
    loc = Localization(system, OrbitDomain(system, seed=31, families=2), exact.hecke)
    step = 4 if name == "B3" else 1

    def check(got, want, label):
        assert set(got.coeffs) == set(want.coeffs), label
        for u, c in want.coeffs.items():
            assert got.coeffs[u].values == eval_kept(loc.dom, c), (label, u)

    for w in system.elements[::step]:
        for builder in ("kl_class_c", "mc_cell"):
            check(getattr(loc, builder)(w), getattr(exact, builder)(w), (builder, w))
    for r in range(system.rank + 1):
        for J in combinations(range(system.rank), r):
            for w in system.minimal_coset_reps(J)[::step]:
                for family in ("MC", "SMC", "C", "C~"):
                    want = exact.class_sum(family, {w: exact.dom.one}, J)
                    got = loc.class_sum(family, {w: loc.dom.one}, J)
                    check(got, want, (family, J, w))


ACTION_GROUPS = {"A2": CartanData.type_a(2), **PAIRING_GROUPS}
ACTION_CONFIGS = [(name, mode) for name in ACTION_GROUPS for mode in ("exact", "modp")]


def _action_loc(name, mode):
    system = RootSystem(ACTION_GROUPS[name])
    dom = OrbitDomain(system, seed=29, families=2) if mode == "modp" else None
    return Localization(system, dom)


@pytest.mark.parametrize("name, mode", ACTION_CONFIGS)
def test_bullet_is_the_termwise_sum(name, mode):
    """bullet, one twisted product, equals the term-by-term sum at every fixed
    point, in both realizations; exactly, it prints the same classes.  Mod p,
    the computed coefficients of a Hecke image cannot be twisted by the fixed
    points, so both routes refuse that operator."""
    loc = _action_loc(name, mode)
    system = loc.system
    rank = system.rank
    top = system.elements[-1]
    for ring, kind in ((loc.mult, "multiplicative"), (loc.hyp, "hyperbolic")):
        # short operators on every class, long ones on classes at one or two points
        short = [ring.delta(top), ring.dl_generator(0), ring.pushpull_rel((rank - 1,), ())]
        long = [ring.pushpull_rel(tuple(range(rank)), ())]
        points = [loc.point_class(system.w0, kind), loc.point_class(top, kind)]
        wide = [loc.kl_schubert(top)]
        computed = None
        if kind == "multiplicative":
            computed = ring.hecke_to_qw(bar_tau(loc.hecke, top))
            long.append(computed)
            points.append(loc.random_class(5))
            wide = [loc.mc_cell(top)]
        pairs = [(a, c) for a in short for c in points + wide]
        pairs += [(a, c) for a in long for c in points]
        for a, c in pairs:
            if mode == "modp" and a is computed:
                for route in (loc.bullet, lambda a, c: bullet_direct(loc, a, c)):
                    with pytest.raises(MisplacedTwist):
                        route(a, c)
                continue
            got, want = loc.bullet(a, c), bullet_direct(loc, a, c)
            assert got == want  # at every fixed point, whatever the order of the keys
            if mode == "exact":
                assert got.format() == want.format()


@pytest.mark.parametrize("name, mode", [c for c in ACTION_CONFIGS if c[0] != "A2"])
def test_is_smooth_is_the_exact_product_lifted(name, mode):
    """MC(X_w), summed from the memoized cells, against twists of the lifted
    tangent and normal binomials gives the verdict at every fixed point that the
    Q_W route does: the image of S_w against each exact product of
    (1 - t^-2 e^{ua}) / (1 - e^{ua}), lifted; for every w."""
    loc = _action_loc(name, mode)
    for w in loc.system.elements:
        smooth, witnesses = loc.is_smooth(w)
        assert (smooth, dict(witnesses)) == is_smooth_direct(loc, w), w


def _smc_factors_after_a_sum(loc, u, J):
    """The one per-J table of SMC_J factors held after an SMC_J sum at J (SMC_J
    cells themselves are not held)."""
    loc.class_sum("SMC", {u: loc.dom.one}, J)
    (table,) = [value for key, value in loc._memo.items() if key[0] == "_smc_factors"]
    return table


# name -> (first call, second call) on an A3 Localization and a u in
# W^{(0, 2)}: each pair must hand out one object
SHARED = {
    "mc_cell_parabolic": (
        lambda loc, u: loc.mc_cell_parabolic(u, (0, 2)),
        lambda loc, u: loc.mc_cell_parabolic(u, (2, 0)),
    ),
    "_smc_factors": (
        lambda loc, u: _smc_factors_after_a_sum(loc, u, (0, 2)),
        lambda loc, u: _smc_factors_after_a_sum(loc, u, [2, 0, 2]),
    ),
    "pushpull_rel": (
        lambda loc, u: loc.mult.pushpull_rel((0, 2)),
        lambda loc, u: loc.mult.pushpull_rel((2, 0)),
    ),
    "parabolic_elements": (
        lambda loc, u: loc.system.parabolic_elements((0, 2)),
        lambda loc, u: loc.system.parabolic_elements([2, 0, 2]),
    ),
    "roots_outside": (
        lambda loc, u: loc.system.roots_outside((0, 2)),
        lambda loc, u: loc.system.roots_outside((2, 0)),
    ),
    "inversion_rows": (
        lambda loc, u: loc.hecke.inversion_rows((0, 2)),
        lambda loc, u: loc.hecke.inversion_rows([2, 0, 2]),
    ),
    "kl_basis": (lambda loc, u: loc.hecke.kl_basis(u),) * 2,
    "dl_element": (lambda loc, u: loc.mult.dl_element(u),) * 2,
    "generator_twist": (lambda loc, u: loc.mult.generator_twist(u, 1),) * 2,
    "kl_class_c": (
        lambda loc, u: loc.kl_class_c(u),
        lambda loc, u: loc._once(loc._family_class, "C", u),
    ),
    "mc_cell": (
        lambda loc, u: loc.mc_cell(u),
        lambda loc, u: loc._once(loc._family_class, "MC", u),
    ),
}


def test_memoized_classes_are_shared_and_keep_their_J(loc3, a3):
    """A memoized value is built once and handed to every caller, and a J-keyed
    one is shared by every order and multiplicity of J's reflections."""
    u = a3.minimal_coset_reps((0, 2))[-1]
    unshared = [name for name, (one, two) in SHARED.items() if two(loc3, u) is not one(loc3, u)]
    assert unshared == []
    held = [key for key in loc3._memo if key[0] == "_smc_factors"]
    assert held == [("_smc_factors", (0, 2))]


def test_smoothness_verdicts_are_built_once(loc3, a3):
    w = a3.from_word([1, 0, 2, 1])
    verdict = loc3.is_smooth(w)
    assert loc3.is_smooth(w) is verdict
    with pytest.raises(TypeError):
        verdict[1][a3.identity] = True


def test_mc_cell_parabolic_at_the_empty_set_shares_the_cell(loc3, a3):
    for u in a3.elements:
        assert loc3.mc_cell_parabolic(u, ()) is loc3.mc_cell(u)


def _subsets(system):
    return [J for r in range(system.rank + 1) for J in combinations(range(system.rank), r)]


def _assert_constant_on_cosets(system, c, J):
    """Every value of c on x W_J equals (==, not is) its value at x in W^J."""
    for x in system.minimal_coset_reps(J):
        want = c.coeffs.get(x)
        for v in system.parabolic_elements(J):
            assert c.coeffs.get(x * v) == want, (J, x, v)


@pytest.mark.parametrize("name, mode", ACTION_CONFIGS)
def test_parabolic_classes_match_the_composed_routes(name, mode):
    """For every J and every w in W^J, MC_J(cell w), SMC_J(cell w), C^J_w and
    C~^J_w, built once per coset on W^J, equal the composed routes evaluated at
    every fixed point and restricted to W^J: the bullet of Y_J on MC(cell w);
    its w0-translate by odot, Serre-dualized, twisted by lambda_J and scaled by
    t^{-2 dim}; and the KL sums of those over full maps on W.  The routes are
    right-W_J-invariant, so each equals the pullback of the built class."""
    loc = _action_loc(name, mode)
    system = loc.system
    for J in _subsets(system):
        reps = system.minimal_coset_reps(J)
        mc = {u: mc_cell_parabolic_direct(loc, u, J) for u in reps}
        smc = {v: smc_cell_parabolic_direct(loc, v, J) for v in reps}
        for w in reps:
            pairs = {
                "MC": (loc.mc_cell_parabolic(w, J), mc[w]),
                "SMC": (smc_cell_parabolic(loc, w, J), smc[w]),
                "C": (
                    loc.kl_class_c_parabolic(w, J),
                    kl_class_c_parabolic_direct(loc, w, J, mc.get),
                ),
                "C~": (
                    kl_class_c_tilde_parabolic(loc, w, J),
                    kl_class_c_tilde_parabolic_direct(loc, w, J, smc.get),
                ),
            }
            for label, (got, want) in pairs.items():
                assert set(got.coeffs) <= set(reps), (label, J, w)
                assert got == _restrict_to_reps(loc, want, J), (label, J, w)
                pulled = loc.pullback(got, J)
                assert pulled == want, (label, J, w)
                assert loc.is_invariant(pulled, J), (label, J, w)
                _assert_constant_on_cosets(system, pulled, J)
                _assert_constant_on_cosets(system, want, J)


@pytest.mark.parametrize("name, mode", [("A2", "exact"), ("A3", "modp")])
def test_kl_sums_are_the_weighted_sums_of_the_composed_routes(name, mode):
    """class_sum(family, weights, J) with random int weights on all of W^J, at
    every J, pulls back to the sum of weights[w] times the composed route to
    MC_J(cell w), SMC_J(cell w), C^J_w or C~^J_w: the cells, and the KL sums
    over full maps on W of the composed MC_J or SMC_J cells, with P^J and Q^J
    looked up pair by pair."""
    loc = _action_loc(name, mode)
    system, dom = loc.system, loc.dom
    rng = random.Random(11)
    for J in _subsets(system):
        reps = system.minimal_coset_reps(J)
        mc = {u: mc_cell_parabolic_direct(loc, u, J) for u in reps}
        smc = {v: smc_cell_parabolic_direct(loc, v, J) for v in reps}
        routes = (
            ("MC", lambda loc, w, J, cells: cells(w), mc),
            ("SMC", lambda loc, w, J, cells: cells(w), smc),
            ("C", kl_class_c_parabolic_direct, mc),
            ("C~", kl_class_c_tilde_parabolic_direct, smc),
        )
        for family, direct, cells in routes:
            weights = {w: loc.mult.as_scalar(rng.randrange(1, 1000)) for w in reps}
            want = [(c, direct(loc, w, J, cells.get).coeffs) for w, c in weights.items()]
            got = loc.class_sum(family, weights, J)
            assert set(got.coeffs) <= set(reps), (family, J)
            assert loc.pullback(got, J) == CohClass(loc.mult, combine(dom, want)), (family, J)


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_parabolic_builders_refuse_a_non_minimal_representative(name):
    """Each parabolic builder refuses an element outside W^J with the message
    of RootSystem.require_min_rep, before building anything."""
    loc = _action_loc(name, "exact")
    system = loc.system
    builders = (
        loc.mc_cell_parabolic,
        lambda u, J: smc_cell_parabolic(loc, u, J),
        loc.kl_class_c_parabolic,
        lambda u, J: kl_class_c_tilde_parabolic(loc, u, J),
    )
    for J in _subsets(system)[1:]:
        reps = system.minimal_coset_reps(J)
        for u in (u for u in system.elements if u not in reps):
            with pytest.raises(ValueError) as refusal:
                system.require_min_rep(u, J)
            for build in builders:
                with pytest.raises(ValueError, match=re.escape(str(refusal.value))):
                    build(u, J)
    assert not loc._memo.keys() - {("_jkey",)}


@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_a_parabolic_mc_cell_makes_one_dot_per_coset(a3, mode, monkeypatch):
    """At A3, MC_J(cell u) makes at most |W^J| dom.dot calls once the MC cells
    are built, one per coset it meets, not one per fixed point: a count, so it
    holds on any machine."""
    dom = OrbitDomain(a3, seed=43) if mode == "modp" else ExactDomain(a3)
    loc = Localization(a3, dom)
    for u in a3.elements:
        loc.mc_cell(u)
    calls = [0]
    dot = dom.dot

    def counted(xs, ys):
        calls[0] += 1
        return dot(xs, ys)

    monkeypatch.setattr(dom, "dot", counted)
    for J in _subsets(a3)[1:]:
        reps = a3.minimal_coset_reps(J)
        for u in reps:
            calls[0] = 0
            loc.mc_cell_parabolic(u, J)
            assert 0 < calls[0] <= len(reps), (J, u)


# sha256 over the printed exact classes of PRINTED_CLASSES, recorded before
# binomials were divided chain by chain
PRINTED_DIGEST = "68255a4fd5055635c1e643216b61295337efb5510df44481c802b6a9a0ac924e"


def test_printed_classes_are_pinned(loc2, loc3, a2, a3):
    """The exact printed forms of KL, Segre and cell classes: every A2 element,
    and every fourth A3 element."""
    printed = []
    for w in a2.elements:
        c = loc2.kl_class_c(w)
        printed += [
            ("A2", "kl_class_c", w, c),
            ("A2", "kl_class_c_tilde", w, loc2.kl_class_c_tilde(w)),
            ("A2", "smc_cell", w, smc_cell_parabolic(loc2, w, ())),
            ("A2", "mc_cell", w, loc2.mc_cell(w)),
            ("A2", "serre_dual(kl_class_c)", w, loc2.serre_dual(c)),
        ]
    for w in a3.elements[::4]:
        printed += [
            ("A3", "kl_class_c", w, loc3.kl_class_c(w)),
            ("A3", "smc_cell", w, smc_cell_parabolic(loc3, w, ())),
            ("A3", "mc_cell", w, loc3.mc_cell(w)),
        ]
    h = hashlib.sha256()
    for group, name, w, c in printed:
        h.update(f"{group}\t{name}\t{w!r}\t{c.format()}\n".encode())
    assert h.hexdigest() == PRINTED_DIGEST


# sha256 over the printed exact C~_w and SMC cells of every A3 element, recorded
# while both were built as whole Q_W images mapped onto pt_{w0}
PRINTED_A3_TOP_DIGEST = "60044de6d13e167407a90a6e1d86a84b3a282b0015429b305ea936495f0526b6"


def test_printed_a3_classes_from_the_top_point_are_pinned(loc3, a3):
    """The exact printed forms of C~_w and SMC(cell w) for every A3 element: the
    two families whose recursion started at pt_{w0}, now sums of MC cells."""
    h = hashlib.sha256()
    for w in a3.elements:
        for name, family in (("kl_class_c_tilde", "C~"), ("smc_cell", "SMC")):
            c = loc3.class_sum(family, {w: loc3.dom.one}, ())
            h.update(f"A3\t{name}\t{w!r}\t{c.format()}\n".encode())
    assert h.hexdigest() == PRINTED_A3_TOP_DIGEST


# sha256 over the printed exact parabolic KL classes, recorded before their sums
# went through one dom.dot per fixed point
# the builder names each printed class is hashed under, and their families
PRINTED_PARABOLIC_FAMILIES = (("kl_class_c_parabolic", "C"), ("kl_class_c_tilde_parabolic", "C~"))
PRINTED_PARABOLIC_DIGEST = "4c49d3a7c8a9bb54b5528f697f177009be577069759f9d80477cb6d02dce4439"


def test_printed_parabolic_classes_are_pinned(loc2, loc3, a2, a3):
    """C^J_w and C~^J_w printed exactly: every J and every w in W^J at A2, every
    J and every fourth w in W^J at A3."""
    h = hashlib.sha256()
    for group, loc, step in (("A2", loc2, 1), ("A3", loc3, 4)):
        system = loc.system
        subsets = (J for r in range(system.rank + 1) for J in combinations(range(system.rank), r))
        for J in subsets:
            for w in system.minimal_coset_reps(J)[::step]:
                for name, family in PRINTED_PARABOLIC_FAMILIES:
                    c = loc.pullback(loc.class_sum(family, {w: loc.dom.one}, J), J)
                    h.update(f"{group}\t{name}\t{J}\t{w!r}\t{c.format()}\n".encode())
    assert h.hexdigest() == PRINTED_PARABOLIC_DIGEST


# sha256 over the printed exact left sides of pushforward (Y_J . C_{w w_J}) and
# gammapsirel (mu^-n psi(gamma_{J/J'}) Y_{J'}), recorded while twisted
# products still added their terms pairwise
PRINTED_TWISTED_DIGESTS = {
    ("A2", "pushforward"): "aa18b7e21571f63b23ef1657696f272b4cefc8ffd8be2fec4e00b09de512a1b2",
    ("A2", "gammapsirel"): "9de85131e0536da9b79294196fe16d777c8e9826cec7bf595801b2813de11d7f",
    ("A3", "pushforward"): "87054dc365cba08774d0e16e02ecf7e0f1ee07735838058c2ddccb264ae28945",
    ("A3", "gammapsirel"): "6aa7ba3be423d151b223ba73a4030c0d37ecb4501b2233eb5fa0aa6474ae7421",
}


@pytest.mark.parametrize("group, side", sorted(PRINTED_TWISTED_DIGESTS))
def test_printed_twisted_products_are_pinned(loc2, loc3, group, side):
    """The twisted products behind two suites, printed exactly: Y_J . C_{w w_J}
    for every J and every w in W^J, and mu^-n psi(gamma_{J/J'}) Y_{J'} for
    every J' in J, n = l(w_J w_{J'})."""
    loc = {"A2": loc2, "A3": loc3}[group]
    system = loc.system
    subsets = [J for r in range(system.rank + 1) for J in combinations(range(system.rank), r)]
    h = hashlib.sha256()
    for J in subsets:
        if side == "pushforward":
            wj = system.longest_parabolic(J)
            yj = loc.mult.pushpull_rel(J, ())
            for w in system.minimal_coset_reps(J):
                lhs = loc.bullet(yj, loc.kl_class_c(w * wj))
                h.update(f"{J}\t{w!r}\t{lhs.format()}\n".encode())
        else:
            for Jp in (Jp for Jp in subsets if set(Jp) <= set(J)):
                n = system.relative_longest(J, Jp).length
                lhs = psi(loc.mult.hecke_to_qw(loc.hecke.gamma_rel(J, Jp)), loc.hyp)
                lhs = loc.hyp.qw_mul(lhs, loc.hyp.pushpull_rel(Jp, ()))
                lhs = lhs.scale(loc.hyp.inv_mu_power(n))
                h.update(f"{J}\t{Jp}\t{lhs.format()}\n".encode())
    assert h.hexdigest() == PRINTED_TWISTED_DIGESTS[group, side]


@pytest.mark.parametrize("name", ["A3", "B2", "G2"])
def test_k_s_is_g_s_times_the_twist_ratio_of_x_pi(name):
    """k_s, the scalar that carries C_{ws}[ys] to C_w[y], is g_s s(x_Pi)/x_Pi
    computed exactly: s permutes the positive roots other than alpha_s, so the
    ratio is -e^{-alpha_s}."""
    system = RootSystem(RECURSION_GROUPS[name])
    loc = Localization(system)
    x_pi = RatFunc.from_int(system.rank + 1, 1)
    for a in system.positive_roots:
        x_pi = x_pi * loc.mult.model.x_weight(tuple(-x for x in a.weight))
    for i in range(system.rank):
        s = system.simple_reflection(i)
        g_s = loc.mult.dl_generator(i).coeffs[s]
        assert loc._once(loc._k_generator, i) == g_s * x_pi.weyl(s.matrix) / x_pi


def test_objects_mix_only_within_one_localization(a2):
    """Two exact localizations of one group compute equal values, yet their
    classes and ring elements never mix: maps compare unequal and + raises,
    bullet, odot and qw_mul refuse, and psi refuses the other's hyperbolic
    ring."""
    one, two = Localization(a2), Localization(a2)
    c1, c2 = one.mc_cell(a2.w0), two.mc_cell(a2.w0)
    assert c1.coeffs == c2.coeffs
    assert c1 != c2 and not c1 == c2
    with pytest.raises(ValueError):
        c1 + c2
    g1, g2 = one.mult.dl_generator(0), two.mult.dl_generator(0)
    assert g1 != g2
    for action in (one.bullet, one.odot):
        assert action(g1, c1).ring is one.mult
        with pytest.raises(ValueError):
            action(g2, c1)
        with pytest.raises(ValueError):
            action(g1, c2)
    with pytest.raises(ValueError):
        one.mult.qw_mul(g1, g2)
    assert psi(g1, one.hyp) == one.hyp.dl_generator(0)
    with pytest.raises(ValueError):
        psi(g1, two.hyp)
