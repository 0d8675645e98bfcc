import random

import pytest

from klschubert.laurent import LaurentPoly, _largest_exponent, _walk_fits
from klschubert.modp import OrbitDomain
from klschubert.ratfunc import FIXED_PRIME, RatFunc
from klschubert.twisted import FglModel
from klschubert.verify import SUITES, RunConfig, run_suite

from oracles import eval_mod, parse_ratfunc

ARITY = 3


def const(c):
    return RatFunc.from_int(ARITY, c)


def z1(exp=1):
    return RatFunc(LaurentPoly.var(ARITY, 1, exp))


def tpow(exp=1):
    return RatFunc(LaurentPoly.t_power(ARITY, exp))


def test_partial_fraction_identity():
    # 1/(1-z) + 1/(1-z^-1) = 1
    one = LaurentPoly.const(ARITY, 1)
    a = RatFunc.fraction(one, one - LaurentPoly.var(ARITY, 1))
    b = RatFunc.fraction(one, one - LaurentPoly.var(ARITY, 1, -1))
    assert a + b == const(1)
    # a sum cancels against its denominator when the operands' denominators differ
    assert (a + b).facs == ()
    # and when they agree: (2-z)/(1-z) - 1/(1-z) = 1
    assert (a + const(1)).facs == a.facs and ((a + const(1)) - a).facs == ()


def test_self_division():
    num = LaurentPoly.t_power(ARITY, 2) - LaurentPoly.var(ARITY, 1)
    den = LaurentPoly.const(ARITY, 1) - LaurentPoly.var(ARITY, 1)
    a = RatFunc.fraction(num, den)
    assert a / a == const(1)


def test_inv_clears_denominator():
    # 1/(t + t^-1) = t/(t^2+1)
    mu = tpow(1) + tpow(-1)
    inv = mu.inv()
    t = LaurentPoly.t_power(ARITY, 1)
    expected = RatFunc.fraction(t, LaurentPoly.t_power(ARITY, 2) + LaurentPoly.const(ARITY, 1))
    assert inv == expected
    assert inv * mu == const(1)


def test_semantic_equality_unreduced():
    one = LaurentPoly.const(ARITY, 1)
    zz = LaurentPoly.var(ARITY, 1)
    a = RatFunc.fraction(one - zz * zz, one - zz)
    b = RatFunc(one + zz)
    assert a == b
    assert not (tpow(1) == tpow(-1))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        const(1) / const(0)


def random_fraction(rng):
    def poly():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(-2, 3) for _ in range(ARITY))
            terms[e] = rng.randrange(-4, 5) or 1
        return LaurentPoly(ARITY, terms)

    den = LaurentPoly(ARITY)
    while not den:
        den = poly()
    return RatFunc.fraction(poly(), den)


def test_modp_agrees_with_exact_on_corpus(a2):
    rng = random.Random(11)
    dom = OrbitDomain(a2, seed=0, families=3)
    agree = 0
    for _ in range(1000):
        a = random_fraction(rng)
        b = random_fraction(rng)
        if rng.random() < 0.4:
            b = a * const(1)  # structurally different, semantically equal path
        exact = a == b
        probabilistic = dom.lift(a) == dom.lift(b)
        if exact:
            # soundness is absolute: modp never contradicts a true equality
            assert probabilistic
        if exact == probabilistic:
            agree += 1
    assert agree == 1000


def test_field_axioms_sampled():
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = (random_fraction(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a - a == const(0)
        if b:
            assert (a / b) * b == a


def test_weyl_multiplicative_on_fractions():
    # A2 matrices: s1, s2 acting on fundamental-weight coordinates
    s1 = ((-1, 1), (0, 1))
    s2 = ((1, 0), (1, -1))
    rng = random.Random(3)

    def frac2():
        def poly():
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                e = (rng.randrange(-2, 3), rng.randrange(-2, 3), rng.randrange(-2, 3))
                terms[e] = rng.randrange(-4, 5) or 2
            return LaurentPoly(3, terms)

        den = LaurentPoly(3)
        while not den:
            den = poly()
        return RatFunc.fraction(poly(), den)

    def mat(m1, m2):
        n = len(m1)
        return tuple(
            tuple(sum(m1[i][k] * m2[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    for _ in range(10):
        f = frac2()
        assert f.weyl(mat(s1, s2)) == f.weyl(s2).weyl(s1)


def test_eq_point_respects_prime_size():
    assert FIXED_PRIME == 2**62 - 57 and FIXED_PRIME.bit_length() == 62
    # residues near p stay reduced: at t = -2, t^2 + t^-2 = 17/4
    val = eval_mod(tpow(2) + tpow(-2), (FIXED_PRIME - 2, 1, 1), FIXED_PRIME)
    assert 0 <= val < FIXED_PRIME and val * 4 % FIXED_PRIME == 17


def test_eval_mod_matches_fraction():
    one = LaurentPoly.const(ARITY, 1)
    zz = LaurentPoly.var(ARITY, 1)
    a = RatFunc.fraction(one - zz * zz, one - zz)
    pt = (5, 7, 11)
    lhs = eval_mod(a, pt, FIXED_PRIME)
    rhs = eval_mod(RatFunc(one + zz), pt, FIXED_PRIME)
    assert lhs == rhs == 8


def test_format_parse_roundtrip():
    rng = random.Random(23)
    for _ in range(50):
        f = random_fraction(rng)
        g = parse_ratfunc(f.format(), ARITY)
        assert f == g


def test_dualize_on_fraction():
    one = LaurentPoly.const(ARITY, 1)
    f = RatFunc(one - LaurentPoly.monomial((-2, 1, 0), 1))
    assert f.dualize() == RatFunc(one - LaurentPoly.monomial((2, -1, 0), 1))


def test_product_cancels_across_operands():
    # (1 - z) * 1/(1 - z^-1) = -z: the left numerator cancels the right factor
    one = LaurentPoly.const(ARITY, 1)
    zz = LaurentPoly.var(ARITY, 1)
    f = RatFunc(one - zz) * RatFunc.fraction(one, one - LaurentPoly.var(ARITY, 1, -1))
    assert f.facs == ()
    assert f == RatFunc(-zz)


def assert_reduced(f):
    for fac, _ in f.facs:
        assert f.num.exact_divide(fac) is None, (f, fac)


def test_random_chains_stay_reduced(a3):
    """Over irreducible factors, cancelling only where a cancellation can
    happen leaves no stored factor dividing the numerator."""
    arity = a3.rank + 1
    one = LaurentPoly.const(arity, 1)
    tinv2 = LaurentPoly.t_power(arity, -2)
    models = FglModel("multiplicative", a3.rank), FglModel("hyperbolic", a3.rank)
    gens, invertible = [], []
    for root in a3.positive_roots:
        for lam in (root.weight, tuple(-x for x in root.weight)):
            binomial = one - tinv2 * LaurentPoly.monomial((0,) + tuple(-x for x in lam), 1)
            simple = [RatFunc(binomial), RatFunc.fraction(one, binomial)]
            simple += [model.x_weight_inv(lam) for model in models]
            simple.append(models[0].x_weight(lam))
            # the hyperbolic x_lam has numerator (t^2 + 1)(1 - e^-lam), whose
            # inverse would store a reducible factor
            gens += simple + [models[1].x_weight(lam)]
            invertible += simple
    rng = random.Random(17)
    for _ in range(40):
        f = rng.choice(gens)
        for _ in range(6):
            op = rng.choice(("add", "sub", "mul", "inv", "weyl", "dualize"))
            if op == "add":
                f = f + rng.choice(gens)
            elif op == "sub":
                g = rng.choice(gens)
                f = (f + g) - g
            elif op == "mul":
                f = f * rng.choice(gens)
            elif op == "inv":
                g = rng.choice(invertible).inv()
                assert_reduced(g)
                f = f * g
            elif op == "weyl":
                f = f.weyl(rng.choice(a3.elements).matrix)
            else:
                f = f.dualize()
            assert_reduced(f)


def _state(f):
    return f.num, f.facs


def test_factor_images_from_the_table_match_the_untabled_route(a2):
    """weyl and dualize give the same stored fraction on a table miss, on a
    table hit and with every factor image normalized afresh, for factors of
    odd and even multiplicity, including images of negative content."""
    from klschubert import ratfunc

    from oracles import map_untabled

    one = LaurentPoly.const(ARITY, 1)
    z_1, z_2 = LaurentPoly.var(ARITY, 1), LaurentPoly.var(ARITY, 2)
    t2 = LaurentPoly.t_power(ARITY, 2)
    num = t2 * z_1 + LaurentPoly.const(ARITY, 3)
    dens = [one - z_1, one - z_2, one - z_2, t2 - z_1 * LaurentPoly.var(ARITY, 2, -1)]
    r = RatFunc.from_den_factors(num, dens)
    assert sorted(m for _, m in r.facs) == [1, 1, 2]
    # each map applies alike to the fraction and to a factor polynomial
    maps = [lambda x, m=w.matrix: x.weyl(m) for w in a2.elements] + [lambda x: x.dualize()]
    flips = set()
    ratfunc._IMAGES.clear()
    for fn in maps:
        expected = map_untabled(r, fn)
        assert _state(fn(r)) == expected  # miss
        assert _state(fn(r)) == expected  # hit
        flips |= {m for f, m in r.facs if ratfunc._normalize_factor(fn(f))[0] < 0}
    assert flips == {1, 2}


def _pairwise(terms, arity):
    out = RatFunc.from_int(arity, 0)
    for r in terms:
        out = out + r
    return out


def _fraction_pool(system):
    """Multiplicative and hyperbolic x_lam, their inverses and quotients of
    root binomials, over the roots of system."""
    arity = system.rank + 1
    one = LaurentPoly.const(arity, 1)
    tinv2 = LaurentPoly.t_power(arity, -2)
    models = FglModel("multiplicative", system.rank), FglModel("hyperbolic", system.rank)
    pool = []
    for root in system.positive_roots:
        for lam in (root.weight, tuple(-x for x in root.weight)):
            e_lam = LaurentPoly.monomial((0,) + lam, 1)
            pool.append(RatFunc.from_den_factors(one - tinv2 * e_lam, [one - e_lam]))
            pool += [model.x_weight(lam) for model in models]
            pool += [model.x_weight_inv(lam) for model in models]
    return pool


def test_sum_is_the_pairwise_sum_stored_alike_in_type_a(a3):
    """Over type-A factors, which are irreducible, the one-reduction sum
    stores exactly what adding left to right stores."""
    arity = a3.rank + 1
    pool = _fraction_pool(a3)
    rng = random.Random(5)
    for size in (2, 3, 5, 8):
        for _ in range(6):
            terms = [rng.choice(pool) * rng.choice(pool) for _ in range(size)]
            got = RatFunc.sum(terms, arity)
            assert _state(got) == _state(_pairwise(terms, arity))
            assert_reduced(got)


@pytest.mark.parametrize("cartan", [((2, -2), (-1, 2)), ((2, -1), (-3, 2))], ids=["B2", "G2"])
def test_sum_equals_the_pairwise_sum_in_b2_and_g2(cartan):
    """Outside type A a root binomial can be reducible, so the stored forms may
    differ; the values agree, including the reducible hyperbolic example whose
    inverse stores (t^2 + 1)(1 - e^{-w1}) as one factor."""
    from klschubert.rootsystem import CartanData, RootSystem

    system = RootSystem(CartanData(cartan))
    arity = system.rank + 1
    pool = _fraction_pool(system)
    x = FglModel("hyperbolic", 2).x_weight((1, 0))
    one = LaurentPoly.const(arity, 1)
    t2p1 = RatFunc(LaurentPoly.t_power(arity, 2) + one)
    pool += [x.inv(), x.inv() * t2p1 * RatFunc(one - LaurentPoly.monomial((0, -1, 0), 1))]
    rng = random.Random(6)
    for size in (2, 3, 5):
        for _ in range(8):
            terms = [rng.choice(pool) * rng.choice(pool) for _ in range(size)]
            assert RatFunc.sum(terms, arity) == _pairwise(terms, arity)


def test_sum_of_one_term_no_term_zeros_and_one_denominator():
    one = LaurentPoly.const(ARITY, 1)
    zz = LaurentPoly.var(ARITY, 1)
    f = RatFunc.fraction(one, one - zz)
    assert RatFunc.sum([f], ARITY) is f
    assert RatFunc.sum([const(0), f, const(0)], ARITY) is f
    for terms in ([], [const(0), const(0)]):
        zero = RatFunc.sum(terms, ARITY)
        assert not zero and zero.facs == ()
    # 1/(1 - z) - z/(1 - z) = 1: one denominator, cancelled once
    g = RatFunc.fraction(-zz, one - zz)
    total = RatFunc.sum([f, g], ARITY)
    assert _state(total) == _state(const(1))
    h = RatFunc.from_den_factors(zz + one, [one - zz]) * const(3) / const(2)
    terms = [f, g, h, h]
    assert _state(RatFunc.sum(terms, ARITY)) == _state(_pairwise(terms, ARITY))


def test_every_factor_and_divisor_on_the_verdict_path_is_a_binomial(monkeypatch):
    """Exact division is by binomials only (see laurent), which holds up only
    because every canonical factor the verdicts build has two terms.  A factor
    of three would stay uncancelled and show as a slowdown, not as a wrong
    verdict, so the premise is pinned here: every suite at A2 exact, and A3
    exact serre and gammapsirel, with the constructor and the division
    watched.  Every stored factor and every divisor has two terms, and every
    division fits the digit range, so none gives up for it.  A constant is a
    one-term factor, so this also pins that no integer is ever stored in a
    denominator on the verdict path."""
    init, divide = RatFunc.__init__, LaurentPoly.exact_divide
    seen = {"factors": 0, "divisions": 0}

    def watched_init(self, num, facs=()):
        assert all(len(f.packed) == 2 for f, _ in facs), facs
        seen["factors"] += len(facs)
        init(self, num, facs)

    def watched_divide(self, d):
        assert len(d.packed) == 2, d
        sj = d._binomial()[6]  # the first nonzero digit of the binomial's step
        assert _walk_fits(
            _largest_exponent(self.packed, self.arity), sj, _largest_exponent(d.packed, d.arity)
        ), (self, d)
        seen["divisions"] += 1
        return divide(self, d)

    monkeypatch.setattr(RatFunc, "__init__", watched_init)
    monkeypatch.setattr(LaurentPoly, "exact_divide", watched_divide)
    grass = {"zelevinsky": {"n": 3, "d": 1}, "grassmann-smoothness": {"n": 3, "d": 1}}
    runs = [(suite, 2, grass.get(suite, {})) for suite in SUITES]
    runs += [("serre", 3, {}), ("gammapsirel", 3, {})]
    for suite, rank, grass in runs:
        cfg = RunConfig(rank=rank, mode="exact", k=2, seed=1, serre_samples=10, **grass)
        assert run_suite(suite, cfg).all_passed(), (suite, rank)
    assert seen["factors"] > 0 and seen["divisions"] > 0, seen


def test_operands_are_ratfuncs():
    """+, -, *, / and == take a RatFunc: an int, on either side, or a
    LaurentPoly is refused, and compares unequal."""
    r = tpow(1)
    p = LaurentPoly.t_power(ARITY, 1)
    for op in (
        lambda: r + 1,
        lambda: 1 - r,
        lambda: r - 1,
        lambda: r * p,
        lambda: 2 / r,
        lambda: r / 2,
        lambda: 3 * r,
    ):
        with pytest.raises(TypeError):
            op()
    assert r != p and const(1) != 1 and r == RatFunc(p)


def test_an_integer_denominator_is_a_factor(a2):
    """The denominator is factors only: an integer left in it is a factor, kept
    by weyl and dualize, compared by cross-multiplication and lifted like any
    other, and there is no separate integer content."""
    one = LaurentPoly.const(ARITY, 1)
    two = LaurentPoly.const(ARITY, 2)
    half = RatFunc.fraction(one, two)
    assert half.facs == ((two, 1),) and half.num == one
    assert half * const(2) == const(1) and half != const(1)
    assert (const(2) * z1()).inv().facs == ((two, 1),)
    assert (const(2) * z1()).inv() * const(2) == z1(-1)
    r = RatFunc.from_den_factors(LaurentPoly.var(ARITY, 2), [two, one - LaurentPoly.var(ARITY, 1)])
    for w in a2.elements:
        assert two in dict(r.weyl(w.matrix).facs)
    assert two in dict(r.dualize().facs)
    assert RatFunc.sum([half, half], ARITY) == const(1)
    dom = OrbitDomain(a2, seed=3, families=2)
    p = dom.prime
    assert dom.lift(half).full == (pow(2, p - 2, p),) * len(dom.points)
    assert RatFunc.__slots__ == ("num", "facs")
    assert not hasattr(half, "dc")
