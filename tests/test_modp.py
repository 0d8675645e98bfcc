import random

from klschubert.hecke import HeckeAlgebra
from klschubert.laurent import LaurentPoly
from klschubert.modp import ExactDomain, OrbitDomain
from klschubert.ratfunc import RatFunc
from klschubert.rootsystem import CartanData, RootSystem
from klschubert.twisted import TwistedRing, psi


def test_orbit_weyl_action_matches_exact(a2):
    g2 = RootSystem(CartanData(((2, -1), (-3, 2)), "G"))
    for system in (a2, g2):
        dom = OrbitDomain(system, seed=42)
        rng = random.Random(1)
        for _ in range(10):
            terms = {
                tuple(rng.randrange(-2, 3) for _ in range(3)): rng.randrange(1, 5)
                for _ in range(3)
            }
            f = RatFunc(LaurentPoly(3, terms))
            for w in system.elements:
                lifted_then_acted = dom.weyl(w, dom.lift(f))
                acted_then_lifted = dom.lift(f.weyl(w.matrix))
                assert lifted_then_acted == acted_then_lifted, (system.cartan_data.type_label, w)


def test_orbit_dualize_matches_exact(a2):
    dom = OrbitDomain(a2, seed=43)
    rng = random.Random(2)
    for _ in range(10):
        terms = {
            (rng.randrange(-2, 3), rng.randrange(-2, 3), rng.randrange(-2, 3)): rng.randrange(1, 5)
            for _ in range(3)
        }
        f = RatFunc(LaurentPoly(3, terms))
        assert dom.dualize(dom.lift(f)) == dom.lift(f.dualize())


def test_orbit_field_ops(a2):
    dom = OrbitDomain(a2, seed=44)
    one = LaurentPoly.const(3, 1)
    f = RatFunc.fraction(one - LaurentPoly.var(3, 1, 2), one - LaurentPoly.var(3, 1))
    g = RatFunc(one + LaurentPoly.var(3, 1))
    assert dom.lift(f) == dom.lift(g)
    a = dom.lift(RatFunc(LaurentPoly.t_power(3, 1) + LaurentPoly.t_power(3, -1)))
    assert a * a.inv() == dom.one
    assert (a - a).is_zero()


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
    y1, y2 = qt.pushpull_simple(0), qt.pushpull_simple(1)
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
