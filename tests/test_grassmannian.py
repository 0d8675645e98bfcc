import random

import pytest

from klschubert.grassmannian import (
    GrassData,
    Partition,
    encode,
    enumerate_tilings,
    label_sets,
    stabilizer_chain,
    v_word,
    word_of_partition,
)

from oracles import decode, one_line_of_partition, render_tiling, subset_of_partition

G10 = GrassData(10, 5)
LAM10 = Partition((5, 5, 3, 2, 2))


def last_tiling(lam, g):
    """The tiling that takes the largest valid corner at every step."""
    return enumerate_tilings(lam, g)[-1]


def element_of_partition(lam, g, system):
    """w_lambda from the row-by-row word, checked reduced."""
    w = system.from_word([i - 1 for i in word_of_partition(lam, g)])
    assert w.length == sum(lam.parts), "factored word is not reduced"
    return w


def perm_of_word(word, n):
    """Compose transpositions (1-based letters), left to right."""
    perm = list(range(1, n + 1))
    for letter in reversed(word):
        a, b = letter, letter + 1
        for k in range(n):
            if perm[k] == a:
                perm[k] = b
            elif perm[k] == b:
                perm[k] = a
    return perm


def inversions(perm):
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


def test_running_example_subset_and_one_line():
    assert subset_of_partition(LAM10, G10) == (3, 4, 6, 9, 10)
    assert one_line_of_partition(LAM10, G10) == [3, 4, 6, 9, 10, 1, 2, 5, 7, 8]


def test_running_example_word():
    word = word_of_partition(LAM10, G10)
    assert word == (2, 1, 3, 2, 5, 4, 3, 8, 7, 6, 5, 4, 9, 8, 7, 6, 5)
    assert perm_of_word(word, 10) == [3, 4, 6, 9, 10, 1, 2, 5, 7, 8]
    assert inversions(perm_of_word(word, 10)) == len(word) == sum(LAM10.parts)


def test_running_example_encoding():
    enc = encode(LAM10, G10)
    assert enc.k == (4, 6, 10)
    assert enc.a == (2, 1, 2)
    assert enc.b == (2, 1, 2)
    assert decode(enc, G10) == LAM10


def test_encode_decode_roundtrip():
    rng = random.Random(3)
    g = GrassData(9, 4)
    for _ in range(50):
        parts = sorted((rng.randrange(0, 6) for _ in range(rng.randrange(0, 5))), reverse=True)
        lam = Partition(parts)
        if not lam.fits(g):
            continue
        assert decode(encode(lam, g), g) == lam


def test_running_example_tiling():
    tiling = last_tiling(LAM10, G10)
    assert [(rect.p, rect.q) for rect in tiling.rectangles] == [(1, 1), (2, 3), (5, 2)]
    assert render_tiling(tiling) == "\n".join(
        ["3 3 2 2 2", "3 3 2 2 2", "3 3 1", "3 3", "3 3"]
    )
    # final rectangle = smooth rectangular diagram
    assert tiling.shapes[-1] == Partition((2, 2, 2, 2, 2))


def test_running_example_label_sets():
    tiling = last_tiling(LAM10, G10)
    ls = label_sets(tiling, G10)
    assert ls.Kp[0] == ls.Jp[0] == set()
    assert ls.K[0] == ls.J[0] == {5}
    assert ls.Kp[1] == ls.Jp[1] == {6, 8, 9}
    assert ls.K[1] == ls.J[1] == {6, 7, 8, 9}
    assert ls.Jp[2] == {1, 2, 3, 4, 6}
    assert ls.J[2] == {1, 2, 3, 4, 5, 6}
    assert ls.Kp[2] == {1, 2, 3, 4, 6, 8, 9}
    assert ls.K[2] == {1, 2, 3, 4, 5, 6, 8, 9}


def test_running_example_stabilizers_and_chain_string():
    tiling = last_tiling(LAM10, G10)
    P, Q = stabilizer_chain(tiling, G10)
    pi = set(range(1, 10))
    assert set(P[0]) == pi - {4, 6}
    assert set(P[1]) == pi - {5}
    assert set(P[2]) == pi - {7}
    assert set(P[3]) == pi - {5}
    assert set(Q[0]) == pi - {4, 5, 6}
    assert set(Q[1]) == pi - {5, 7}
    assert set(Q[2]) == pi - {5, 7}


def test_running_example_v_words():
    tiling = last_tiling(LAM10, G10)
    words = [v_word(r, G10) for r in tiling.rectangles]
    assert words[0] == (5,)
    assert words[1] == (8, 7, 6, 9, 8, 7)
    assert words[2] == (2, 1, 3, 2, 4, 3, 5, 4, 6, 5)
    concat = words[0] + words[1] + words[2]
    assert perm_of_word(concat, 10) == [3, 4, 6, 9, 10, 1, 2, 5, 7, 8]
    assert inversions(perm_of_word(concat, 10)) == len(concat)
    # length of each relative top element is the box count of its rectangle
    assert [len(w) for w in words] == [1, 6, 10]


def test_single_rectangle_and_empty():
    g = GrassData(6, 3)
    tiling = last_tiling(Partition((2, 2)), g)
    assert tiling.r == 1
    assert tiling.rectangles[0].boxes() == Partition((2, 2)).boxes()
    ls = label_sets(tiling, g)
    assert ls.K[0] == ls.J[0]
    empty = last_tiling(Partition(()), g)
    assert empty.r == 0


def test_enumerate_tilings_box_partition():
    g = GrassData(4, 2)
    lam = Partition((2, 1))
    tilings = enumerate_tilings(lam, g)
    assert len(tilings) >= 1
    for t in tilings:
        boxes = set()
        for rect in t.rectangles:
            assert not (boxes & rect.boxes())
            boxes |= rect.boxes()
        assert boxes == lam.boxes()


def test_inclusion_chain_gr36():
    g = GrassData(6, 3)
    pis = [
        Partition(p)
        for p in [(1,), (2,), (2, 1), (2, 2), (3, 1), (3, 2, 1), (3, 3, 3), (2, 2, 2), (3, 3, 1)]
    ]
    for lam in pis:
        for tiling in enumerate_tilings(lam, g):
            ls = label_sets(tiling, g)
            r = tiling.r
            # K_1 = J_1 and K'_1 = J'_1
            assert ls.K[0] == ls.J[0] and ls.Kp[0] == ls.Jp[0]
            for i in range(r):
                assert ls.Kp[i] < ls.K[i]
            for i in range(1, r):
                assert ls.Kp[i - 1] < ls.K[i]
            assert ls.Kp[r - 1] <= set(g.J_labels)


def test_word_of_rectangle_matches_partition_word():
    g = GrassData(7, 3)
    lam = Partition((3, 3))
    tiling = last_tiling(lam, g)
    assert tiling.r == 1
    rect = tiling.rectangles[0]
    assert sorted(v_word(rect, g)) == sorted(word_of_partition(lam, g))
    assert perm_of_word(v_word(rect, g), 7) == perm_of_word(word_of_partition(lam, g), 7)


def test_full_rectangle_is_relative_longest(a3):
    # lambda = full 2x2 rectangle in Gr(2,4): w_lambda is the longest in W^J
    g = GrassData(4, 2)
    lam = Partition((2, 2))
    w = element_of_partition(lam, g, a3)
    J = g.J_indices()
    reps = a3.minimal_coset_reps(J)
    assert w in reps
    assert all(v.length <= w.length for v in reps)
    assert w is a3.relative_longest((0, 1, 2), J)


def test_grassmannian_permutation_properties(a3):
    g = GrassData(4, 2)
    for parts in [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]:
        lam = Partition(parts)
        w = element_of_partition(lam, g, a3)
        assert w.one_line() == one_line_of_partition(lam, g)
        descents = a3.right_descents(w)
        if sum(lam.parts):
            assert descents == [g.d - 1]
        else:
            assert descents == []


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    # a zero inside is no trailing zero: (2, 0, 1) is not weakly decreasing
    for parts in ((2, 0, 1), (0, 1), (3, 0, 0, 2), (2, -1)):
        with pytest.raises(ValueError):
            Partition(parts)
    assert Partition((2, 1, 0, 0)) == Partition((2, 1)) == Partition(x for x in (2, 1, 0))
    assert Partition((0, 0)).parts == ()
    with pytest.raises(ValueError):
        Partition((3,)).require_fits(GrassData(4, 2))
    with pytest.raises(ValueError):
        GrassData(4, 4)
