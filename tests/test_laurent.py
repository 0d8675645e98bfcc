import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klschubert.laurent import LaurentPoly

from oracles import long_divide, parse_poly


def t(arity=3, exp=1, c=1):
    return LaurentPoly.t_power(arity, exp).scale(c)


def z(i, arity=3, exp=1, c=1):
    return LaurentPoly.var(arity, i, exp).scale(c)


def test_monomial_inverse_product():
    assert t(exp=1) * t(exp=-1) == LaurentPoly.const(3, 1)


def test_add_cancels():
    one = LaurentPoly.const(3, 1)
    assert (one - z(1)) + z(1) == one


def test_difference_of_squares():
    lhs = (t() + t(exp=-1)) * (t() - t(exp=-1))
    assert lhs == t(exp=2) - t(exp=-2)


def test_zero_is_empty():
    p = z(1) - z(1)
    assert p.is_zero()
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
    assert p.exponent_box() == ((1, -2, 0), (0, -3, -1))
    assert p.exponent_box() is p.exponent_box()
    assert p.monomial_content() == (0, -3, -1)
    assert p.leading() == ((1, -2, 0), 3)
    assert LaurentPoly(3).monomial_content() == (0, 0, 0)


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
