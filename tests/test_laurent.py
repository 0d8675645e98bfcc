import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klschubert.laurent import LIMIT, LaurentPoly, pack
from klschubert.rootsystem import CartanData, RootSystem

from oracles import long_divide, parse_poly, tuple_divide_binomial, tuple_mul


def t(arity=3, exp=1, c=1):
    return LaurentPoly.t_power(arity, exp) * LaurentPoly.const(arity, c)


def z(i, arity=3, exp=1, c=1):
    return LaurentPoly.var(arity, i, exp) * LaurentPoly.const(arity, c)


def test_monomial_inverse_product():
    assert t(exp=1) * t(exp=-1) == LaurentPoly.const(3, 1)


def test_add_cancels():
    one = LaurentPoly.const(3, 1)
    assert (one - z(1)) + z(1) == one


def test_difference_of_squares():
    lhs = (t() + t(exp=-1)) * (t() - t(exp=-1))
    assert lhs == t(exp=2) - t(exp=-2)


def unpack(key, arity):
    """The exponent tuple of a packed key, through the public decoded view."""
    (e,) = LaurentPoly.from_packed(arity, {key: 1}).terms
    return e


def test_zero_is_empty():
    p = z(1) - z(1)
    assert not p
    assert p.terms == {}


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        LaurentPoly.const(2, 1) + LaurentPoly.const(3, 1)


def test_exact_divide_basic():
    # (1 - z1^2) / (1 - z1) = 1 + z1
    num = LaurentPoly.const(3, 1) - z(1, exp=2)
    den = LaurentPoly.const(3, 1) - z(1)
    q = num.exact_divide(den)
    assert q == LaurentPoly.const(3, 1) + z(1)


def test_exact_divide_laurent_shift():
    # z1^-1 - z1 divided by 1 - z1 gives z1^-1 (1 + z1) = z1^-1 + 1
    num = z(1, exp=-1) - z(1)
    den = LaurentPoly.const(3, 1) - z(1)
    q = num.exact_divide(den)
    assert q is not None
    assert q * den == num


def test_exact_divide_failure():
    num = LaurentPoly.const(3, 1) + z(1)
    den = LaurentPoly.const(3, 1) - z(2)
    assert num.exact_divide(den) is None


# binomials that exercise one feature each of the chain-wise division (t, z1, z2)
NAMED_BINOMIALS = {
    "non-unit leading coefficient, 2 - 3 z1": LaurentPoly(3, {(0, 0, 0): 2, (0, 1, 0): -3}),
    "non-primitive step, 1 - t^2": LaurentPoly(3, {(0, 0, 0): 1, (2, 0, 0): -1}),
    "step in several slots, t^2 - z1^-1 z2": LaurentPoly(3, {(2, 0, 0): 1, (0, -1, 1): -1}),
    "negative exponents, t^-1 z2^-2 + 2 z1^-1": LaurentPoly(3, {(-1, 0, -2): 1, (0, -1, 0): 2}),
}


def _random_poly(rng, arity, n_terms, span=3):
    coeffs = (-3, -2, -1, 1, 2, 3)
    return LaurentPoly(
        arity,
        {
            tuple(rng.randint(-span, span) for _ in range(arity)): rng.choice(coeffs)
            for _ in range(n_terms)
        },
    )


def _random_binomial(rng, arity):
    while True:
        d = _random_poly(rng, arity, 2, span=2)
        if len(d.terms) == 2:
            return d


def _reversed(d):
    """The same binomial with its two terms inserted in the other order, so
    that the divisor's step, and the refutation's walk, change direction."""
    return LaurentPoly(d.arity, dict(reversed(d.terms.items())))


def _chain_count(n, d):
    """The number of cosets of Z (m1 - m0) that the terms of n meet."""
    (m1, _), (m0, _) = d.terms.items()
    step = [x - y for x, y in zip(m1, m0)]
    j = next(i for i, x in enumerate(step) if x)
    return len(
        {tuple(x - (e[j] // step[j]) * s for x, s in zip(e, step)) for e in n.terms}
    )


def test_binomial_division_matches_long_division():
    """Chain-wise division against the long-division oracle, quotient for
    quotient and None for None, over seeded random binomials of arity 1 to 4,
    each in both insertion orders of its two terms."""
    rng = random.Random(20090615)
    cases = list(NAMED_BINOMIALS.items())
    for arity in (1, 2, 3, 4):
        cases += [(f"random arity {arity}", _random_binomial(rng, arity)) for _ in range(40)]
    divisible = 0
    several_chains = 0
    for name, d in cases:
        for _ in range(12):
            g = _random_poly(rng, d.arity, rng.randint(1, 6))
            mono = _random_poly(rng, d.arity, 1)
            n = g * d
            assert n.exact_divide(d) == g, (name, g)
            assert (n + mono).exact_divide(d) is None, (name, g, mono)
            for num in (n, n + mono, g, g + mono):
                assert num.exact_divide(d) == long_divide(num, d), (name, num)
                assert num.exact_divide(_reversed(d)) == long_divide(num, d), (name, num)
                divisible += long_divide(num, d) is not None
                several_chains += _chain_count(num, d) > 1
    assert divisible > len(cases) * 12
    assert several_chains > len(cases) * 12


def _both_orders(d):
    assert list(d.terms) != list(_reversed(d).terms)
    return d, _reversed(d)


def test_binomial_division_examples():
    """Pinned quotients and Nones, each divisor in both insertion orders of its
    terms, agreeing with the long-division oracle."""
    one, t2 = LaurentPoly.const(3, 1), t(exp=2)
    g = one + t() + z(1, exp=-1)
    two_three = LaurentPoly.const(3, 2) - z(1, c=3)
    cases = [
        # 1 - t^2 has the step t^2: the chains of t^0 and t^1 are divided apart
        (g * (one - t2), one - t2, g),
        (one - t(), one - t2, None),
        (one - t2 * t2, one - t2, one + t2),
        # gapped chains: the refutation's walk crosses exponents with no term
        (one - t(exp=6), one - t2, one + t2 + t(exp=4)),
        (one + t(exp=6), one - t2, None),
        (one - z(1, exp=3), one - z(1), one + z(1) + z(1, exp=2)),
        (one + z(1, exp=3), one - z(1), None),
        # 2 - 3 z1 divides 4 - 9 z1^2 (zero at z1 = 2/3) but not 4 + 9 z1^2 or 1 - z1 over Z
        (LaurentPoly.const(3, 4) - z(1, exp=2, c=9), two_three, LaurentPoly.const(3, 2) + z(1, c=3)),
        (LaurentPoly.const(3, 4) + z(1, exp=2, c=9), two_three, None),
        (one - z(1), two_three, None),
        # the top term's chain is the top term alone
        (z(1, exp=2) + z(2), one - z(1), None),
        # the top term -z1 z2 has the chain z2 (1 - z1), which passes the
        # refutation; the chain 1 + z1 is not divisible, so the division decides
        (z(2) * (one - z(1)), one - z(1), z(2)),
        (z(2) * (one - z(1)) + one + z(1), one - z(1), None),
    ]
    for num, den, quo in cases:
        for d in _both_orders(den):
            assert num.exact_divide(d) == quo == long_divide(num, d), (num, d)


def test_exponent_box_is_the_one_min_scan():
    p = LaurentPoly(3, {(1, -2, 0): 3, (0, 4, -1): -1, (1, -3, 5): 2})
    assert p.exponent_box() == ([0, -3, -1], [1, 4, 5])
    assert p.leading() == (pack((1, -2, 0)), 3)
    # the terms that agree with the leading t z1^-2 before slot 1, then before slot 2
    assert [p.lead_floor(j) for j in range(3)] == [0, -3, 0]


def test_weyl_action_a1():
    # s_1 in A1: z1 -> z1^-1
    m = ((-1,),)
    p = LaurentPoly.var(2, 1)
    assert p.weyl(m) == LaurentPoly.var(2, 1, -1)


def test_dualize_involution():
    rng = random.Random(7)
    for _ in range(20):
        terms = {
            (rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4)): rng.randrange(-5, 6)
            for _ in range(5)
        }
        p = LaurentPoly(3, terms)
        assert p.dualize().dualize() == p


@st.composite
def small_polys(draw, arity=3):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(-4, 4)) for _ in range(arity))
        terms[e] = draw(st.integers(-9, 9))
    return LaurentPoly(arity, terms)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys())
@settings(max_examples=100, deadline=None)
def test_format_parse_roundtrip(p):
    assert parse_poly(p.format(), 3) == p


def test_format_examples():
    p = LaurentPoly.const(3, 1) - LaurentPoly.monomial((-2, 1, 0), 1)
    assert p.format() == "1 - t^-2 * z1"
    assert parse_poly("1 - t^-2 * z1", 3) == p
    assert LaurentPoly(3).format() == "0"
    two_t = LaurentPoly.monomial((1, 0, 0), 2)
    assert two_t.format() == "2 * t"


def test_canonical_order_lex_t_first():
    p = t() + z(1) + LaurentPoly.const(3, 5)
    assert p.format() == "t + z1 + 5"


# ---------- packed keys against the tuple oracles ----------

SPAN = 12  # exponents drawn from -SPAN..SPAN, both signs


def _tuple_polys(arity, max_terms=6):
    exps = st.tuples(*[st.integers(-SPAN, SPAN)] * arity)
    return st.dictionaries(exps, st.integers(-9, 9), max_size=max_terms).map(
        lambda terms: LaurentPoly(arity, terms)
    )


@st.composite
def same_arity(draw, count):
    arity = draw(st.integers(1, 7))
    return arity, [draw(_tuple_polys(arity)) for _ in range(count)]


def _tuple_combine(a, b, sign):
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


@given(same_arity(2), st.integers(-5, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_the_tuple_oracle(polys, c, data):
    arity, (a, b) = polys
    assert a * b == tuple_mul(a, b)
    assert (a * b).terms == tuple_mul(a, b).terms
    assert (a + b).terms == _tuple_combine(a, b, 1)
    assert (a - b).terms == _tuple_combine(a, b, -1)
    assert (-a).terms == {e: -k for e, k in a.terms.items()}
    assert (a * LaurentPoly.const(arity, c)).terms == {e: k * c for e, k in a.terms.items() if k * c}
    m = data.draw(st.tuples(*[st.integers(-SPAN, SPAN)] * arity))
    assert a.shift(pack(m)).terms == {tuple(x + y for x, y in zip(e, m)): k for e, k in a.terms.items()}
    assert a.dualize().terms == {tuple(-x for x in e): k for e, k in a.terms.items()}
    wider = data.draw(st.integers(arity, 7))
    slots = data.draw(st.permutations(range(wider)))[:arity]
    embedded = {}
    for e, k in a.terms.items():
        x = [0] * wider
        for i, v in zip(slots, e):
            x[i] = v
        embedded[tuple(x)] = k
    assert a.embed(wider, tuple(slots)).terms == embedded


def _binomials(arity):
    exps = st.tuples(*[st.integers(-3, 3)] * arity)
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))
    return st.tuples(exps, coeffs, exps, coeffs).filter(lambda x: x[0] != x[2]).map(
        lambda x: LaurentPoly(arity, {x[0]: x[1], x[2]: x[3]})
    )


@st.composite
def division_cases(draw):
    arity = draw(st.integers(1, 7))
    d = draw(_binomials(arity))
    g = draw(_tuple_polys(arity, max_terms=5))
    other = draw(_tuple_polys(arity, max_terms=3))
    return d, g, other


@given(division_cases())
@settings(max_examples=150, deadline=None)
def test_exact_divide_matches_the_tuple_oracles(case):
    """A divisor that divides, and sums that its top chain refutes or that
    fail in the chains: the packed quotient, or None, agrees with both tuple
    oracles.  A three-term divisor is not divided: None, though it divides."""
    d, g, other = case
    n = g * d
    assert n.exact_divide(d) == g == tuple_divide_binomial(n, d)
    # a term below every other in slot 0 and off the top chain when the step
    # leaves slot 0 alone: the refutation passes and a one-term chain fails
    low = min((e[0] for e in n.terms), default=0) - 1
    below = n + LaurentPoly.monomial((low,) + (0,) * (d.arity - 1), 5)
    for num in (n + other, below, g, n + other * d + other):
        expected = long_divide(num, d)
        assert num.exact_divide(d) == expected == tuple_divide_binomial(num, d)
    if other.packed:
        e, c = next(iter(other.terms.items()))
        trinomial = d + LaurentPoly.monomial(e, c)
        if len(trinomial.packed) == 3:
            num = g * trinomial
            assert num.exact_divide(trinomial) is None
            assert (num + other).exact_divide(trinomial) is None


SYSTEMS = {
    "A3": RootSystem(CartanData.type_a(3)),
    "B2": RootSystem(CartanData(((2, -2), (-1, 2)), "B")),
    "G2": RootSystem(CartanData(((2, -1), (-3, 2)), "G")),
    "B3": RootSystem(CartanData(((2, -1, 0), (-1, 2, -2), (0, -1, 2)), "B")),
}


@st.composite
def twists(draw):
    system = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    w = system.elements[draw(st.integers(0, system.order - 1))]
    return w.matrix, draw(_tuple_polys(system.rank + 1))


@given(twists())
@settings(max_examples=150, deadline=None)
def test_weyl_and_dualize_match_the_tuple_oracle(case):
    m, p = case
    expected = {}
    for e, c in p.terms.items():
        lam = e[1:]
        expected[(e[0],) + tuple(sum(x * y for x, y in zip(row, lam)) for row in m)] = c
    assert p.weyl(m).terms == expected
    assert p.dualize().terms == {tuple(-x for x in e): c for e, c in p.terms.items()}
    assert p.weyl(m).dualize() == p.dualize().weyl(m)


def _tuple_sort_key(p):
    return (p.arity, tuple(sorted(p.terms.items(), reverse=True)))


@given(same_arity(2))
@settings(max_examples=150, deadline=None)
def test_readers_and_order_match_the_tuple_oracle(polys):
    arity, (a, b) = polys
    for p in (a, b):
        assert parse_poly(p.format(), arity) == p
        if not p.packed:
            continue
        key, c = p.leading()
        lead = unpack(key, arity)
        assert (lead, c) == max(p.terms.items())
        assert p.exponent_box() == (list(map(min, zip(*p.terms))), list(map(max, zip(*p.terms))))
        for j in range(arity):
            agree = [e[j] for e in p.terms if e[:j] == lead[:j]]
            assert p.lead_floor(j) == min(agree)
        assert [unpack(k, arity) for k, _ in p.sort_key()[1]] == sorted(p.terms, reverse=True)
    assert (a.sort_key() < b.sort_key()) == (_tuple_sort_key(a) < _tuple_sort_key(b))
    assert (a.sort_key() == b.sort_key()) == (a == b)


# ---------- the overflow guard, at the boundary ----------


def test_constructors_refuse_an_exponent_at_the_limit():
    assert LaurentPoly.monomial((LIMIT - 1, 1 - LIMIT)).terms == {(LIMIT - 1, 1 - LIMIT): 1}
    for exps in ((LIMIT, 0), (0, -LIMIT)):
        with pytest.raises(OverflowError):
            LaurentPoly.monomial(exps)
    with pytest.raises(OverflowError):
        LaurentPoly.var(2, 1, LIMIT)
    with pytest.raises(OverflowError):
        LaurentPoly.t_power(2, -LIMIT)
    with pytest.raises(OverflowError):
        LaurentPoly.from_packed(1, {LIMIT: 1})
    with pytest.raises(OverflowError):
        LaurentPoly.from_packed(2, {1 << 40: 1})


def test_products_and_shifts_at_the_limit():
    top = LaurentPoly.var(2, 1, LIMIT - 1)
    half = LaurentPoly.var(2, 1, LIMIT // 2)
    assert (top * LaurentPoly.var(2, 1, -1)).terms == {(0, LIMIT - 2): 1}
    assert (top * LaurentPoly.var(2, 1, 1 - LIMIT)).is_one()
    assert (half * LaurentPoly.var(2, 1, LIMIT // 2 - 1)).terms == {(0, LIMIT - 1): 1}
    for factor in (LaurentPoly.var(2, 1), half, LaurentPoly.var(2, 1, LIMIT // 2) + top):
        with pytest.raises(OverflowError):
            top * factor
    with pytest.raises(OverflowError):
        half * half
    assert top.shift(pack((0, -1))).terms == {(0, LIMIT - 2): 1}
    with pytest.raises(OverflowError):
        top.shift(pack((0, 1)))
    with pytest.raises(OverflowError):
        LaurentPoly.t_power(2, 1).shift(pack((LIMIT, 0)))
    assert top.dualize().terms == {(0, 1 - LIMIT): 1}


def test_weyl_at_the_limit():
    s1 = SYSTEMS["A3"].simple_reflection(0).matrix
    # s1 sends z1^a z2^b to z1^-a z2^(a + b)
    ok = LaurentPoly.monomial((0, LIMIT - 2, 1, 0))
    assert ok.weyl(s1).terms == {(0, 2 - LIMIT, LIMIT - 1, 0): 1}
    with pytest.raises(OverflowError):
        LaurentPoly.monomial((0, LIMIT - 1, 1, 0)).weyl(s1)


def test_divisions_near_the_limit():
    """Where the walk and the chain keys fit in the digit range, the quotient
    is exact; where they do not, even after the bounds are recomputed from the
    digits, the result is None ("not divided"): never a wrong quotient, never
    OverflowError."""
    z = lambda x: LaurentPoly.var(2, 1, x)
    one = LaurentPoly.const(2, 1)
    # by 1 - z1 the walk fits while b + (2 b + 1) 2 < B/2 = 2 LIMIT, b the bound
    fits = (2 * LIMIT - 3) // 5
    n = z(fits) - z(fits - 1)
    assert n.exact_divide(one - z(1)) == -z(fits - 1) == long_divide(n, one - z(1))
    n = z(fits + 1) - z(fits)
    assert n.exact_divide(one - z(1)) is None
    assert long_divide(n, one - z(1)) == -z(fits)
    n = z(LIMIT - 1) - z(LIMIT - 2)
    assert n.exact_divide(one - z(1)) is None
    assert (n + one).exact_divide(one - z(1)) is None
    assert n.exact_divide(z(1 - LIMIT) - z(2 - LIMIT)) is None
    # 1 and z1^-17 lie on different chains of 1 - z1^2 z2^(LIMIT/2), but the
    # walk from 1 and the chain keys e - k step would leave the digit range
    # and meet, so the division is not made
    d = LaurentPoly(3, {(0, 0, 0): 1, (0, 2, LIMIT // 2): -1})
    n = LaurentPoly(3, {(0, 0, 0): -1, (0, -17, 0): 1})
    assert n.exact_divide(d) is None is long_divide(n, d)
    g = LaurentPoly(3, {(0, -3, 0): 1, (0, 0, 5): 2})
    assert (g * d).exact_divide(d) is None
    assert long_divide(g * d, d) == g


def test_a_foreign_operand_is_a_type_error():
    """+ and * take a LaurentPoly, and exact_divide divides by one: an int or a
    RatFunc is refused with TypeError, not an AttributeError from inside."""
    from klschubert.ratfunc import RatFunc

    p = t(4)
    for op in (
        lambda: p + 1,
        lambda: 1 + p,
        lambda: p - 1,
        lambda: p * 2,
        lambda: 2 * p,
        lambda: p * RatFunc(p),
        lambda: p.exact_divide(1),
        lambda: p.exact_divide(RatFunc(p)),
    ):
        with pytest.raises(TypeError):
            op()
