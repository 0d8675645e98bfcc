import random

import pytest

from klschubert import hecke
from klschubert.hecke import HeckeAlgebra, balanced_digits
from klschubert.laurent import LaurentPoly
from klschubert.rootsystem import CartanData, RootSystem

from oracles import (
    bar,
    bar_tau,
    eps,
    gamma_sum,
    hiota,
    kl_basis_by_bar_solving,
    kl_rows,
    kl_table_by_recursion,
    kl_tilde_basis,
    parabolic_tables,
    product_by_steps,
    qpoly_str,
    tau_mul,
)

T = LaurentPoly.monomial((1,), 1)
TINV = LaurentPoly.monomial((-1,), 1)
ONE = LaurentPoly.const(1, 1)

GROUPS = {
    "A3": CartanData.type_a(3),
    "B2": CartanData(((2, -2), (-1, 2)), "B"),
    "G2": CartanData(((2, -1), (-3, 2)), "G"),
    "B3": CartanData(((2, -1, 0), (-1, 2, -2), (0, -1, 2)), "B"),
}


@pytest.fixture(scope="module")
def h2(a2):
    return HeckeAlgebra(a2)


@pytest.fixture(scope="module")
def h3(a3):
    return HeckeAlgebra(a3)


def test_tau_mul_basic(h2, a2):
    s1 = a2.simple_reflection(0)
    assert h2.product(h2.one(), h2.tau(s1)) == h2.tau(s1) == tau_mul(h2.one(), 0)
    # quadratic relation: tau_s tau_s = tau_e + (t^-1 - t) tau_s
    sq = h2.product(h2.tau(s1), h2.tau(s1))
    assert sq == h2.one() + h2.tau(s1).scale(TINV - T) == tau_mul(h2.tau(s1), 0)


def test_braid_relation(h2, a2):
    s1, s2 = (h2.tau(a2.simple_reflection(i)) for i in (0, 1))
    lhs = h2.product(h2.product(s1, s2), s1)
    rhs = h2.product(h2.product(s2, s1), s2)
    assert lhs == rhs == h2.tau(a2.w0)


def test_product_inverse(h2, a2):
    s1 = a2.simple_reflection(0)
    assert h2.product(h2.tau(s1), bar_tau(h2, s1.inverse())) == h2.one()
    w = a2.from_word([0, 1])
    assert h2.product(h2.tau(w), bar_tau(h2, w.inverse())) == h2.one()
    assert h2.product(h2.one(), h2.tau(w)) == h2.tau(w)


def test_product_matches_the_product_by_steps():
    """Packed products agree with right steps on LaurentPoly coefficients, in
    every group of GROUPS, for factors with negative, zero and positive
    exponents and larger coefficients."""
    for group in sorted(GROUPS):
        system = RootSystem(GROUPS[group])
        h = HeckeAlgebra(system)
        rng = random.Random(7)

        def random_elt(terms):
            coeffs = {}
            for _ in range(terms):
                w = system.elements[rng.randrange(system.order)]
                exps = {(rng.randrange(-4, 5),): rng.randrange(-40, 41) or 1 for _ in range(3)}
                coeffs[w] = LaurentPoly(1, exps)
            return type(h.one())(h, coeffs)

        for _ in range(6):
            a, b = random_elt(4), random_elt(3)
            assert h.product(a, b) == product_by_steps(a, b), group
        zero = type(h.one())(h, {})
        assert h.product(zero, random_elt(2)) == zero == h.product(random_elt(2), zero)


def test_product_associative():
    for group in sorted(GROUPS):
        system = RootSystem(GROUPS[group])
        h = HeckeAlgebra(system)
        rng = random.Random(2)
        elts = []
        for _ in range(3):
            coeffs = {}
            for _ in range(3):
                w = system.elements[rng.randrange(system.order)]
                coeffs[w] = LaurentPoly(1, {(rng.randrange(-2, 3),): rng.randrange(-3, 4) or 1})
            elts.append(type(h.one())(h, coeffs))
        a, b, c = elts
        assert h.product(h.product(a, b), c) == h.product(a, h.product(b, c)), group


def test_a_product_across_algebras_is_refused(h2, h3, a2, a3):
    """A product reads its algebra's group tables by element index, so it takes
    elements of that one algebra object only, as + does."""
    s3 = h3.tau(a3.simple_reflection(2))
    with pytest.raises(ValueError, match="different Hecke algebras"):
        h2.product(h2.tau(a2.w0), s3)
    with pytest.raises(ValueError, match="different Hecke algebras"):
        h3.product(s3, h2.tau(a2.w0))
    other = HeckeAlgebra(a2)
    with pytest.raises(ValueError, match="different rings"):
        h2.tau(a2.w0) + other.tau(a2.w0)
    with pytest.raises(ValueError, match="different Hecke algebras"):
        h2.product(h2.tau(a2.w0), other.tau(a2.w0))


def test_bar_basics(h2, a2):
    s1 = a2.simple_reflection(0)
    assert bar(h2, h2.one()) == h2.one()
    # bar(tau_s) = tau_s + t - t^-1, from inverting the quadratic relation
    assert bar(h2, h2.tau(s1)) == h2.tau(s1) + h2.one().scale(T - TINV)
    # involution on random elements
    rng = random.Random(5)
    for _ in range(5):
        coeffs = {
            a2.elements[rng.randrange(a2.order)]: LaurentPoly(
                1, {(rng.randrange(-2, 3),): rng.randrange(-3, 4) or 1}
            )
            for _ in range(3)
        }
        h = type(h2.one())(h2, coeffs)
        assert bar(h2, bar(h2, h)) == h


def test_kl_basis_small(h2, a2):
    assert h2.kl_basis(a2.identity) == h2.one()
    s1 = a2.simple_reflection(0)
    assert h2.kl_basis(s1) == h2.tau(s1) + h2.one().scale(T)
    for w in a2.elements:
        g = h2.kl_basis(w)
        assert bar(h2, g) == g


def test_kl_polynomials_a2_trivial(h2, a2):
    for v in a2.elements:
        for w in a2.elements:
            p = h2.kl_polynomial(v, w)
            if a2.bruhat_leq(v, w):
                assert p == (1,)
            else:
                assert p == ()


def test_kl_a3_singular_case(h3, a3):
    w = a3.from_word([1, 0, 2, 1])
    assert w.one_line() == [3, 4, 1, 2]
    s2 = a3.simple_reflection(1)
    assert h3.kl_polynomial(s2, w) == (1, 1)  # 1 + q
    # the classical example: P is 1 + q exactly at v <= s_2, i.e. v in {e, s_2}
    for v in a3.elements:
        if a3.bruhat_leq(v, w) and v is not s2 and v is not a3.identity:
            assert h3.kl_polynomial(v, w) == (1,)
    assert h3.kl_polynomial(a3.identity, w) == (1, 1)
    assert qpoly_str((1, 1)) == "1 + q"


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_kl_table_matches_bar_solving_oracle(group):
    system = RootSystem(GROUPS[group])
    h = HeckeAlgebra(system)
    for w in system.elements:
        assert h.kl_basis(w) == kl_basis_by_bar_solving(h, w), w


@pytest.mark.parametrize("group", ["A3", "B3"])
def test_lazy_kl_rows_match_the_full_table(group):
    # a row is computed exactly when gamma_w is; a fresh algebra answers any
    # pair, in any order, as the fully computed table does, () when v is not <= w
    system = RootSystem(GROUPS[group])
    full = HeckeAlgebra(system)
    full.kl_compute_upto()
    lazy = HeckeAlgebra(system)
    for w in random.Random(11).sample(system.elements, system.order):
        for v in system.elements:
            p = lazy.kl_polynomial(v, w)
            assert p == full.kl_polynomial(v, w), (v, w)
            assert bool(p) == system.bruhat_leq(v, w), (v, w)


def test_kl_inverse_symmetry(h3, a3):
    for v in a3.elements:
        for w in a3.elements:
            assert h3.kl_polynomial(v, w) == h3.kl_polynomial(v.inverse(), w.inverse())


def test_kl_tilde(h2, h3, a2, a3):
    assert kl_tilde_basis(h2, a2.identity) == h2.one()
    s1 = a2.simple_reflection(0)
    assert kl_tilde_basis(h2, s1) == h2.tau(s1) + h2.one().scale(-TINV)
    # triangularity: coefficients below w lie in t^-1 Z[t^-1]
    for w in a3.elements:
        g = kl_tilde_basis(h3, w)
        for v, c in g.coeffs.items():
            if v is w:
                assert c == ONE
            else:
                assert all(e < 0 for (e,) in c.terms)
        assert bar(h3, g) == g


def test_gamma_rel(h3, a3):
    s1 = a3.simple_reflection(0)
    assert h3.gamma_rel((0,), ()) == h3.tau(s1) + h3.one().scale(T)
    # gamma_J = gamma_{J/J'} gamma_{J'} for all chains in A3
    subsets = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    for J in subsets:
        for Jp in subsets:
            if set(Jp) <= set(J):
                lhs = h3.gamma_rel(J, ())
                rhs = h3.product(h3.gamma_rel(J, Jp), h3.gamma_rel(Jp, ()))
                assert lhs == rhs, (J, Jp)
    # gamma_J agrees with the KL basis at w_J
    for J in subsets:
        assert h3.gamma_rel(J, ()) == h3.kl_basis(a3.longest_parabolic(J))


def test_gamma_parabolic_a2_term_count(h2, a2):
    g = h2.gamma_rel((0, 1), ())
    assert len(g.coeffs) == 6
    for v, c in g.coeffs.items():
        assert c == LaurentPoly.monomial((a2.w0.length - v.length,), 1)


def test_gamma_sum(h2, a2):
    assert gamma_sum(h2, a2.identity) == h2.one()
    s1 = a2.simple_reflection(0)
    assert gamma_sum(h2, s1) == h2.one() + h2.tau(s1).scale(TINV)
    # X(w) smooth in A2, so S_w = t^{-l(w)} gamma_w
    for w in a2.elements:
        assert gamma_sum(h2, w) == h2.kl_basis(w).scale(
            LaurentPoly.monomial((-w.length,), 1)
        )


def test_hiota(h3, a3):
    w = a3.from_word([0, 1])
    assert hiota(h3.tau(w)) == h3.tau(a3.from_word([1, 0]))
    for w in a3.elements:
        assert hiota(h3.kl_basis(w)) == h3.kl_basis(w.inverse())
    # anti-homomorphism on a random product
    a, b = h3.kl_basis(a3.from_word([0, 1])), h3.tau(a3.from_word([2]))
    assert hiota(h3.product(a, b)) == h3.product(hiota(b), hiota(a))
    # gamma_J = gamma_{J'} hiota(gamma_{J/J'})
    subsets = [(), (0,), (2,), (0, 1), (0, 2), (0, 1, 2)]
    for J in subsets:
        for Jp in subsets:
            if set(Jp) <= set(J):
                assert h3.gamma_rel(J, ()) == h3.product(
                    h3.gamma_rel(Jp, ()), hiota(h3.gamma_rel(J, Jp))
                )


def test_inverse_kl(h2, h3, a2, a3):
    for w in a2.elements:
        assert h2.inverse_kl(w, w) == (1,)
    for u in a2.elements:
        for w in a2.elements:
            expected = (1,) if a2.bruhat_leq(u, w) else ()
            assert h2.inverse_kl(u, w) == expected
    # inversion formula over all of A3
    for u in a3.elements:
        for v in a3.elements:
            total = {}
            for w in a3.elements:
                q = h3.inverse_kl(u, w)
                p = h3.kl_polynomial(w, v)
                if not q or not p:
                    continue
                sign = eps(u) * eps(w)
                for j1, c1 in enumerate(q):
                    for j2, c2 in enumerate(p):
                        total[j1 + j2] = total.get(j1 + j2, 0) + sign * c1 * c2
            expected = {0: 1} if u is v else {}
            assert {k: v2 for k, v2 in total.items() if v2} == expected


def test_parabolic_kl(h3, a3):
    J = (1,)
    reps = a3.minimal_coset_reps(J)
    wj = a3.longest_parabolic(J)
    for v in reps:
        for w in reps:
            pj = h3.parabolic_kl(v, w, J)
            assert pj == h3.kl_polynomial(v, w * wj)
            # independence of u in W_J
            for u in a3.parabolic_elements(J):
                assert h3.kl_polynomial(v * u, w * wj) == pj
    assert h3.parabolic_kl(a3.identity, a3.identity, ()) == (1,)
    with pytest.raises(ValueError):
        h3.parabolic_kl(a3.longest_parabolic(J), a3.identity, J)


def test_inverse_parabolic_kl(h3, a3):
    for J in [(), (0,), (1,), (0, 2)]:
        reps = a3.minimal_coset_reps(J)
        for w in reps:
            assert h3.inverse_parabolic_kl(w, w, J) == (1,)
        # parabolic inversion formula
        for u in reps:
            for v in reps:
                total = {}
                for w in reps:
                    q = h3.inverse_parabolic_kl(u, w, J)
                    p = h3.parabolic_kl(w, v, J)
                    if not q or not p:
                        continue
                    sign = eps(u) * eps(w)
                    for j1, c1 in enumerate(q):
                        for j2, c2 in enumerate(p):
                            total[j1 + j2] = total.get(j1 + j2, 0) + sign * c1 * c2
                expected = {0: 1} if u is v else {}
                assert {k: c for k, c in total.items() if c} == expected, (J, u, v)


def test_kl_reads_refuse_an_element_of_another_group(h3, a2, a3):
    """The KL reads index their tables by element index, and so does product
    for the terms of tau_w, so an element of another group, even another A3
    object, is refused as product refuses a factor of another algebra, not
    answered with A3 data."""
    e, top = a3.identity, a3.w0
    for x in (a2.w0, a2.identity, RootSystem(CartanData.type_a(3)).w0):
        reads = [
            (h3.tau, x),
            (h3.kl_basis, x),
            (h3.mu_row, x),
            (h3.kl_polynomial, x, top),
            (h3.kl_polynomial, e, x),
            (h3.inverse_kl, x, top),
            (h3.inverse_kl, e, x),
        ]
        for J in [(), (0,)]:
            reads += [
                (h3.parabolic_kl, x, e, J),
                (h3.parabolic_kl, e, x, J),
                (h3.inverse_parabolic_kl, x, e, J),
                (h3.inverse_parabolic_kl, e, x, J),
            ]
        for read, *args in reads:
            with pytest.raises(ValueError, match="different group"):
                read(*args)


def test_gamma_squared_identity(h3, a3):
    # gamma_{w_J}^2 = t_{w_J}^{-1} P_J(t^2) gamma_{w_J}
    for J in [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]:
        g = h3.gamma_rel(J, ())
        wj = a3.longest_parabolic(J)
        pj = a3.poincare_polynomial(J)
        scalar = LaurentPoly(
            1, {(2 * e - wj.length,): c for (e,), c in pj.terms.items()}
        )
        assert h3.product(g, g) == g.scale(scalar)


ORACLE_GROUPS = {
    "A1": CartanData.type_a(1),
    "A2": CartanData.type_a(2),
    "A3": CartanData.type_a(3),
    "A4": CartanData.type_a(4),
    **{name: GROUPS[name] for name in ("B2", "G2", "B3")},
}


def _subsets(n):
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


@pytest.mark.parametrize("group", sorted(ORACLE_GROUPS))
def test_packed_table_matches_the_laurent_recursion(group):
    """Every P_{v,w}, mu row, bar(tau_w), P^J and Q^J (every J) of the packed
    table equals the one the LaurentPoly recursion gives."""
    system = RootSystem(ORACLE_GROUPS[group])
    h = HeckeAlgebra(system)
    h.kl_compute_upto()
    gamma = kl_table_by_recursion(h)
    rows = {}
    for w in system.elements:
        rows[w], mus = kl_rows(gamma[w], w)
        table = {v: h.kl_polynomial(v, w) for v in system.elements}
        assert {v: p for v, p in table.items() if p} == rows[w]
        assert dict(h.mu_row(w)) == dict(mus) and len(h.mu_row(w)) == len(mus)
        assert h.kl_basis(w) == gamma[w]
    top = system.w0.length
    width = hecke._slot_width(top)
    bar_rows = {0: {0: 1 << width * top}}
    for w in system.elements:
        packed = {
            system.elements[v]: LaurentPoly.from_packed(
                1, {e - top: c for e, c in enumerate(balanced_digits(p, width))}
            )
            for v, p in h._walk(bar_rows, w.idx, width, hecke._TAU_INVERSE).items()
        }
        assert type(h.one())(h, packed) == bar_tau(h, w), w
    for J in _subsets(system.rank):
        p_j, q_j = parabolic_tables(system, rows, J)
        reps = system.minimal_coset_reps(J)
        p_rows, q_rows = h.inversion_rows(J)
        # row w holds the P^J_{w,v} of every v: p_j, read by its first element
        assert p_rows == {w.idx: {v.idx: p_j[w, v] for v in reps if p_j[w, v]} for w in reps}
        assert q_rows == {u.idx: {w.idx: q_j[u, w] for w in reps if q_j[u, w]} for u in reps}
        assert all(p for side in (p_rows, q_rows) for row in side.values() for p in row.values())
        for (u, w), p in p_j.items():
            assert h.parabolic_kl(u, w, J) == p, (J, u, w)
            assert h.inverse_parabolic_kl(u, w, J) == q_j[u, w], (J, u, w)


def test_a_dropped_mu_term_is_refused(monkeypatch, a3):
    """Without one mu term the recursion's gamma_w is gamma_w + mu gamma_v.
    That is bar-invariant too, so the packed bar check passes it, and the
    degree bound of P_{v,w} is what refuses it."""
    right = HeckeAlgebra.mu_terms
    dropped = []

    def drop_one(self, w, i):
        terms = right(self, w, i)
        if terms and not dropped:
            dropped.append((w, i))
            return terms[1:]
        return terms

    monkeypatch.setattr(HeckeAlgebra, "mu_terms", drop_one)
    with pytest.raises(AssertionError, match="KL degree bound violated"):
        HeckeAlgebra(a3).kl_compute_upto()
    assert dropped


@pytest.mark.parametrize("step", [(-1, 0), (0, 0), (2, 0)])
def test_a_wrong_recursion_step_fails_the_bar_check(monkeypatch, a3, step):
    """gamma_ws (tau_s - t), gamma_ws tau_s or gamma_ws (tau_s + 2t) in place of
    gamma_ws (tau_s + t): the packed bar check, which runs before the
    structure checks of the row, refuses the first gamma_w it makes."""
    monkeypatch.setattr(hecke, "_TAU_PLUS_T", step)
    with pytest.raises(AssertionError, match="not bar-invariant"):
        HeckeAlgebra(a3).kl_compute_upto()


@pytest.mark.parametrize("width, checked", [(10, True), (4, False)])
def test_slots_below_the_bound_raise_overflow(monkeypatch, a3, width, checked):
    """A slot width below the a priori bound is refused, by the bar check's
    limit or, with no bar check, by the limit on reading gamma_w back, before
    any digit could wrap; a build at the a priori width passes."""
    slot_width = hecke._slot_width
    assert slot_width(a3.w0.length) > width
    monkeypatch.setattr(hecke, "_slot_width", lambda top: width)
    if not checked:
        monkeypatch.setattr(HeckeAlgebra, "_bar_check_plan", lambda self, order: set())
    h = HeckeAlgebra(a3)
    with pytest.raises(OverflowError):
        h.kl_compute_upto()
    monkeypatch.undo()
    widths = []

    def recorded(top):
        widths.append(slot_width(top))
        return widths[-1]

    monkeypatch.setattr(hecke, "_slot_width", recorded)
    full = HeckeAlgebra(a3)
    full.kl_compute_upto()
    assert widths == [slot_width(a3.w0.length)]
    assert all(row is not None for row in full._rows)


@pytest.mark.parametrize("group", ["A3", "B3"])
def test_one_read_builds_the_whole_table_and_keeps_only_its_rows(monkeypatch, group):
    """The first read of any row builds every row, and the algebra then holds
    the rows and mu terms alone; each row is recorded once, whatever order
    the rows are read in."""
    system = RootSystem(GROUPS[group])
    record, recorded = HeckeAlgebra._record_kl_row, []

    def counted(self, w, digits):
        recorded.append(w)
        return record(self, w, digits)

    monkeypatch.setattr(HeckeAlgebra, "_record_kl_row", counted)
    for seed in range(3):
        recorded.clear()
        h = HeckeAlgebra(system)
        order = random.Random(seed).sample(system.elements, system.order)
        h.kl_polynomial(system.identity, order[0])
        assert set(vars(h)) == {"system", "_memo", "_rows", "_mu"}
        assert all(row is not None for row in h._rows) and all(m is not None for m in h._mu)
        for w in order:
            h.mu_row(w)
            h.kl_basis(w)
            h.kl_polynomial(w, system.w0)
        assert sorted(recorded, key=lambda w: w.idx) == system.elements


@pytest.mark.parametrize("group", ["A3", "B3"])
def test_a_build_that_overflows_is_refused_on_every_read(monkeypatch, group):
    """With slots below the bound, the first read raises OverflowError, and a
    second read of a row the failed build never reached raises it again
    instead of returning a partial table."""
    system = RootSystem(GROUPS[group])
    assert hecke._slot_width(system.w0.length) > 10
    monkeypatch.setattr(hecke, "_slot_width", lambda top: 10)
    h = HeckeAlgebra(system)
    with pytest.raises(OverflowError):
        h.kl_polynomial(system.identity, system.identity)
    assert h._rows[system.w0.idx] is None
    with pytest.raises(OverflowError):
        h.kl_polynomial(system.identity, system.w0)
