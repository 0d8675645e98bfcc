import pytest

from klschubert.laurent import LaurentPoly
from klschubert.localization import Localization
from klschubert.rootsystem import CartanData, Root, RootSystem

from oracles import act_root, act_weight, inversions, subword_leq


def test_orders(a1, a2, a3):
    assert a1.order == 2
    assert a2.order == 6
    assert a3.order == 24


def test_longest_element_a2(a2):
    s1, s2 = a2.simple_reflection(0), a2.simple_reflection(1)
    w = s1 * s2 * s1
    assert w.length == 3
    assert w is s2 * s1 * s2
    assert w is a2.w0


def test_inverse(a3):
    for w in a3.elements:
        assert w * w.inverse() is a3.identity
        assert w.inverse().length == w.length


def test_positive_roots(a1, a2, a3):
    assert [r.simple for r in a1.positive_roots] == [(1,)]
    assert sorted(r.simple for r in a2.positive_roots) == [(0, 1), (1, 0), (1, 1)]
    assert len(a3.positive_roots) == 6
    for rs in (a1, a2, a3):
        assert len(rs.positive_roots) == rs.w0.length


def test_reflection(a2):
    a1_root = a2.simple_roots[0]
    assert a2.reflection(a1_root) is a2.simple_reflection(0)
    # alpha_1 + alpha_2 = omega_1 + omega_2
    highest = next(r for r in a2.roots if r.weight == (1, 1))
    s = a2.reflection(highest)
    assert s is a2.from_word([0, 1, 0])
    # s_alpha fixes the orthogonal hyperplane: <lam, alpha^vee> = 0
    lam = (1, -1)
    assert act_weight(s, lam) == lam
    # alpha_1 - alpha_2 is not a root
    with pytest.raises(KeyError, match="not a root"):
        a2.reflection(Root((1, -1), (3, -3)))


def test_reflection_squares_to_identity(a3):
    for root in a3.positive_roots:
        s = a3.reflection(root)
        assert s * s is a3.identity
        assert act_root(a3, s, root) == -root


def test_weyl_action_examples(a2):
    # s_1(omega_1) = omega_1 - alpha_1 = -omega_1 + omega_2
    s1 = a2.simple_reflection(0)
    assert act_weight(s1, (1, 0)) == (-1, 1)
    # s_1 fixes omega_2
    assert act_weight(s1, (0, 1)) == (0, 1)


def test_bruhat_basics(a2):
    s1, s2 = a2.simple_reflection(0), a2.simple_reflection(1)
    for w in a2.elements:
        assert a2.bruhat_leq(a2.identity, w)
    assert a2.bruhat_leq(s1, s1 * s2)
    assert not a2.bruhat_leq(s2, s1)


def test_bruhat_matches_subword_oracle(a3):
    """bruhat_leq and bruhat_interval, read off the lower intervals built by
    right steps, against subwords of a reduced word: in A3 and in the
    non-simply-laced B2, G2 and B3."""
    for rs in [a3] + [RootSystem(GROUPS[name]) for name in NON_A]:
        for v in rs.elements:
            below = {u for u in rs.elements if subword_leq(rs, u, v)}
            for u in rs.elements:
                assert rs.bruhat_leq(u, v) == (u in below), (rs.cartan_data.type_label, u, v)
            want = sorted(below, key=lambda u: (u.length, u.idx))
            assert rs.bruhat_interval(v) == want, (rs.cartan_data.type_label, v)


def test_bruhat_refuses_an_element_of_another_group(a2, a3):
    """Intervals are sets of indices, so an element of another group, even one
    of the same type, is refused rather than read by its index."""
    other = RootSystem(CartanData.type_a(3))
    for u, v in [(a2.identity, a3.w0), (a3.identity, a2.w0), (other.identity, a3.w0)]:
        with pytest.raises(ValueError):
            a3.bruhat_leq(u, v)
    for w in (a2.w0, other.w0):
        with pytest.raises(ValueError, match="different group"):
            a3.bruhat_interval(w)


def test_bruhat_partial_order(a3):
    for u in a3.elements:
        for v in a3.elements:
            if a3.bruhat_leq(u, v) and a3.bruhat_leq(v, u):
                assert u is v
            if a3.bruhat_leq(u, v):
                assert u.length <= v.length


def test_length_complement(a3):
    w0 = a3.w0
    for w in a3.elements:
        assert (w0 * w).length == w0.length - w.length


def test_inversions(a2, a3):
    assert inversions(a3, a3.identity) == []
    assert set(inversions(a3, a3.w0)) == set(a3.positive_roots)
    w = a2.from_word([0, 1])  # s1 s2
    inv = {r.simple for r in inversions(a2, w)}
    assert inv == {(0, 1), (1, 1)}
    # oracle: apply the matrix to every positive root directly
    for rs in (a2, a3):
        by_weight = {r.weight: r for r in rs.roots}
        for w in rs.elements:
            expect = {
                r.weight
                for r in rs.positive_roots
                if not by_weight[act_weight(w, r.weight)].positive
            }
            assert {r.weight for r in inversions(rs, w)} == expect


def test_parabolic_data(a2, a3):
    # J = empty
    assert len(a2.minimal_coset_reps(())) == 6
    assert a2.longest_parabolic(()) is a2.identity
    assert a2.poincare_polynomial(()) == LaurentPoly.const(1, 1)
    # A2, J = {0}
    reps = a2.minimal_coset_reps((0,))
    assert len(reps) == 3
    p = a2.poincare_polynomial((0,))
    assert p == LaurentPoly(1, {(0,): 1, (1,): 1})
    # A3, J = {0, 2}: w_J = s1 s3
    wj = a3.longest_parabolic((0, 2))
    assert wj is a3.from_word([0, 2])
    wrel = a3.relative_longest((0, 1, 2), (0, 2))
    assert wrel in a3.relative_reps((0, 1, 2), (0, 2))
    assert all(
        w.length <= wrel.length for w in a3.relative_reps((0, 1, 2), (0, 2))
    )


def test_coset_reps_oracle(a3):
    _check_coset_reps(a3)


def test_one_line_permutations(a3):
    s2 = a3.simple_reflection(1)
    assert s2.one_line() == [1, 3, 2, 4]
    w = a3.from_word([1, 0, 2, 1])  # s2 s1 s3 s2
    assert w.one_line() == [3, 4, 1, 2]


def test_cartan_validation():
    with pytest.raises(ValueError):
        CartanData(((2, 1), (1, 2)))
    with pytest.raises(ValueError):
        CartanData(((1, 0), (0, 1)))
    # infinite type hits the size cap
    with pytest.raises(ValueError):
        RootSystem(CartanData(((2, -2), (-2, 2))), size_cap=500)


@pytest.mark.parametrize(
    "method, J",
    [("parabolic_elements", (-1,)), ("minimal_coset_reps", (5,)), ("roots_outside", (5,))],
)
def test_a_reflection_index_out_of_range_is_refused(a3, method, J):
    """J is refused, as from_word refuses a word, when it names a simple
    reflection the group does not have."""
    with pytest.raises(ValueError):
        getattr(a3, method)(J)


@pytest.mark.parametrize("i", [-1, 3, 7])
def test_a_simple_reflection_index_out_of_range_is_refused(a3, i):
    """simple_reflection refuses i outside range(rank), as from_word does:
    -1 is not read as the last reflection, 3 raises no IndexError, and
    dl_generator, keyed by i, builds no second copy under a negative index.
    Both name the 0-based index they were given and the range."""
    message = rf"index {i} out of range\(0, 3\)"
    with pytest.raises(ValueError, match=message):
        a3.simple_reflection(i)
    with pytest.raises(ValueError, match=message):
        a3.from_word([0, i])
    with pytest.raises(ValueError, match="out of range"):
        Localization(a3).mult.dl_generator(i)
    assert [a3.simple_reflection(j) for j in range(3)] == [a3.from_word([j]) for j in range(3)]


def test_relative_reps_refuses_an_index_out_of_range(a3):
    """J' is read through _jkey, as J is: (-1,) is refused by its range check,
    not by a negative shift in the descent mask."""
    with pytest.raises(ValueError, match="out of range"):
        a3.relative_reps((-1,), (-1,))
    with pytest.raises(ValueError, match="out of range"):
        a3.relative_reps((3,), (3,))


def test_char_lattice_example(a2):
    # -alpha_1 = -2 omega_1 + omega_2 in A2
    alpha1 = a2.simple_roots[0]
    assert alpha1.weight == (2, -1)


GROUPS = {
    "A3": CartanData.type_a(3),
    "B2": CartanData(((2, -2), (-1, 2)), "B"),
    "G2": CartanData(((2, -1), (-3, 2)), "G"),
    "B3": CartanData(((2, -1, 0), (-1, 2, -2), (0, -1, 2)), "B"),
}
# the a3 fixture tests above already cover A3
NON_A = sorted(set(GROUPS) - {"A3"})


REFLECTION_GROUPS = {
    **GROUPS,
    "C3": CartanData(((2, -1, 0), (-1, 2, -1), (0, -2, 2)), "C"),
    "D4": CartanData(((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)), "D"),
}


@pytest.mark.parametrize("name", sorted(REFLECTION_GROUPS))
def test_enumeration_is_in_length_order(name):
    """Breadth-first enumeration meets the elements by length, so index order
    is (length, index) order, and each parent comes before its child."""
    rs = RootSystem(REFLECTION_GROUPS[name])
    lengths = [w.length for w in rs.elements]
    assert lengths == sorted(lengths)
    for w in rs.elements[1:]:
        i, ws = rs.right_step(w)
        assert ws.idx < w.idx and ws.length == w.length - 1
        assert rs.from_word(w.word) is w and len(w.word) == w.length
        assert w.word[-1] == i


@pytest.mark.parametrize("name", sorted(REFLECTION_GROUPS))
def test_reflections_are_the_reflections_of_their_roots(name):
    """s_alpha, read from the tables, is an involution other than e shared with
    -alpha, sends alpha to -alpha and moves each fundamental weight by an
    integer multiple of alpha: s_alpha(lam) = lam - <lam, alpha^vee> alpha,
    which no other element of W does."""
    rs = RootSystem(REFLECTION_GROUPS[name])
    units = [tuple(int(i == k) for i in range(rs.rank)) for k in range(rs.rank)]
    for root in rs.roots:
        s = rs.reflection(root)
        assert s is not rs.identity and s * s is rs.identity, root
        assert rs.reflection(-root) is s, root
        assert act_root(rs, s, root) == -root, root
        j = next(i for i, x in enumerate(root.weight) if x)
        for omega in units:
            moved = tuple(x - y for x, y in zip(act_weight(s, omega), omega))
            c, rest = divmod(moved[j], root.weight[j])
            assert rest == 0 and moved == tuple(c * x for x in root.weight), (root, omega)


def _subsets(rank):
    return [tuple(i for i in range(rank) if mask >> i & 1) for mask in range(1 << rank)]


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _brute_force_reps(rs, J) -> set:
    """The length-minimal member of every coset w W_J, by enumerating the cosets."""
    wj = rs.parabolic_elements(J)
    cosets = {}
    for w in rs.elements:
        key = frozenset((w * v).idx for v in wj)
        cur = cosets.get(key)
        if cur is None or w.length < cur.length:
            cosets[key] = w
    return set(cosets.values())


def _check_coset_reps(rs):
    reps = {J: _brute_force_reps(rs, J) for J in _subsets(rs.rank)}
    for J, expect in reps.items():
        assert set(rs.minimal_coset_reps(J)) == expect
        for w in rs.elements:
            if w in expect:
                rs.require_min_rep(w, J)
            else:
                with pytest.raises(ValueError):
                    rs.require_min_rep(w, J)
        for Jp, expect_p in reps.items():
            if set(Jp) <= set(J):
                want = [w for w in rs.parabolic_elements(J) if w in expect_p]
                assert rs.relative_reps(J, Jp) == want


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_tables_outside_type_a(name):
    rs = RootSystem(GROUPS[name])
    assert rs.order == {"A3": 24, "B2": 8, "G2": 12, "B3": 48}[name]
    for u in rs.elements:
        assert u * u.inverse() is rs.identity
        for v in rs.elements:
            assert (u * v).matrix == _matmul(u.matrix, v.matrix)
            assert rs.elements[rs.left_table[v.idx][0]] is rs.simple_reflection(0) * v
    for w in rs.elements:
        expect = [
            i for i in range(rs.rank) if (w * rs.simple_reflection(i)).length < w.length
        ]
        assert rs.right_descents(w) == expect


@pytest.mark.parametrize("name", NON_A)
def test_coset_reps_outside_type_a(name):
    _check_coset_reps(RootSystem(GROUPS[name]))


def test_cayley_columns_are_built_on_demand():
    rs = RootSystem(GROUPS["B3"])

    def built():
        return [w for w, col in enumerate(rs._columns) if col is not None]

    assert built() == [0]
    s1, s2 = rs.simple_reflection(0), rs.simple_reflection(1)
    assert (s1 * s2).matrix == _matmul(s1.matrix, s2.matrix)
    assert built() == [0, s2.idx]
    # the column of s1 s2 is built from the column of its BFS parent s1
    w = s1 * s2
    assert rs.cayley_column(w.idx)[rs.w0.idx] == (rs.w0 * w).idx
    assert built() == sorted({0, s1.idx, s2.idx, w.idx})


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_roots_outside(name):
    rs = RootSystem(GROUPS[name])
    for J in _subsets(rs.rank):
        # the roots of Sigma_J: simple-root support inside J
        inside = {r.weight for r in rs.roots if all(i in J for i, x in enumerate(r.simple) if x)}
        expect = [r for r in rs.positive_roots if r.weight not in inside]
        assert rs.roots_outside(J) == expect
        assert rs.roots_outside(tuple(reversed(J))) is rs.roots_outside(J)
        # w_J, shared by every order of J like roots_outside
        wj = max(rs.parabolic_elements(J), key=lambda w: w.length)
        assert rs.longest_parabolic(J) is wj
        assert rs.longest_parabolic(tuple(reversed(J))) is wj
        assert wj.length == len(rs.positive_roots) - len(expect)
