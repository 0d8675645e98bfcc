"""Grassmannian combinatorics: partitions, lattice-path encodings, tilings.

The Schubert varieties of Gr_d(C^n) = SL_n / P_J, J = Pi - {d}, are indexed
three ways: by a partition in the d x (n-d) rectangle, by the d-subset of
labels on the vertical steps of its boundary lattice path, and by the
Grassmannian permutation with unique descent at d.  Box (i, j) of the
partition occupies the unit square [j-1, j] x [d-i, d-i+1] and a unit
segment at lattice position (x, y) is labelled x + y + 1; simple-root labels
here are 1-based throughout, converted to 0-based indices only when touching
the Weyl group.

A tiling removes maximal rectangles at outer corners (the small-resolution
recipe); each rectangle carries label sets drawn from its sides and from the
boundary of the union of the rectangles removed so far, and a chain of
stabilizer subsets which drives the relative push-pull operator product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "GrassData",
    "Partition",
    "MatrixEncoding",
    "Rectangle",
    "Tiling",
    "encode",
    "word_of_partition",
    "enumerate_tilings",
    "label_sets",
    "stabilizer_chain",
    "v_word",
]


class GrassData:
    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        if not 1 <= d < n:
            raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
        self.n = n
        self.d = d

    @property
    def J_labels(self) -> tuple:
        """Pi minus {d}, as 1-based simple-root labels."""
        return tuple(i for i in range(1, self.n) if i != self.d)

    def J_indices(self) -> tuple:
        """The same subset, 0-based for the root system."""
        return tuple(i - 1 for i in self.J_labels)

    def __repr__(self):
        return f"Gr({self.d},{self.n})"


class Partition:
    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(map(int, parts))
        if any(x < 0 for x in parts):
            raise ValueError("negative part")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        self.parts = parts[: len(parts) - parts.count(0)]  # nonnegative and decreasing: zeros trail

    def fits(self, g: GrassData) -> bool:
        return len(self.parts) <= g.d and (not self.parts or self.parts[0] <= g.n - g.d)

    def require_fits(self, g: GrassData):
        if not self.fits(g):
            raise ValueError(f"{self.parts} does not fit in the {g.d} x {g.n - g.d} rectangle")

    def boxes(self):
        return {(i + 1, j + 1) for i, p in enumerate(self.parts) for j in range(p)}

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


@dataclass(frozen=True)
class MatrixEncoding:
    """The 2 x m matrix (k over a) plus the horizontal run lengths b_0..b_{m-1}."""

    k: tuple
    a: tuple
    b: tuple

    @property
    def m(self) -> int:
        return len(self.k)


def _runs(lam: Partition, g: GrassData):
    """Vertical runs of the boundary path: list of (x, y_bottom, length)."""
    d = g.d
    widths = [0] * (d - len(lam.parts)) + [lam.parts[i] for i in range(len(lam.parts) - 1, -1, -1)]
    # widths[k] is the width of the row at height [k, k+1], bottom to top
    runs = []
    k = 0
    while k < d:
        j = k
        while j + 1 < d and widths[j + 1] == widths[k]:
            j += 1
        runs.append((widths[k], k, j - k + 1))
        k = j + 1
    return runs


def encode(lam: Partition, g: GrassData) -> MatrixEncoding:
    lam.require_fits(g)
    runs = _runs(lam, g)
    k = tuple(x + y0 + length for (x, y0, length) in runs)
    a = tuple(length for (_, _, length) in runs)
    b = []
    prev_x = 0
    for x, _, _ in runs:
        b.append(x - prev_x)
        prev_x = x
    return MatrixEncoding(k, a, tuple(b))


def word_of_partition(lam: Partition, g: GrassData) -> tuple:
    """The row-by-row reduced word: rows bottom to top, right to left, label d+j-i."""
    lam.require_fits(g)
    word = []
    for i in range(len(lam.parts), 0, -1):
        for j in range(lam.parts[i - 1], 0, -1):
            word.append(g.d + j - i)
    return tuple(word)


@dataclass(frozen=True)
class Rectangle:
    i0: int  # top row, 1-based
    j0: int  # left column, 1-based
    p: int  # height
    q: int  # width

    def boxes(self):
        return {
            (self.i0 + di, self.j0 + dj)
            for di in range(self.p)
            for dj in range(self.q)
        }

    def label_c(self, d: int) -> int:
        return d + self.j0 - self.i0 - self.p + 1

    def left_labels(self, d: int) -> tuple:
        c = self.label_c(d)
        return tuple(range(c, c + self.p))

    def top_labels(self, d: int) -> tuple:
        c = self.label_c(d)
        return tuple(range(c + self.p, c + self.p + self.q))


@dataclass
class Tiling:
    lam: Partition
    rectangles: list = field(default_factory=list)
    shapes: list = field(default_factory=list)  # lambda^1 = lam, lambda^2, ...

    @property
    def r(self) -> int:
        return len(self.rectangles)


def _valid_choices(enc: MatrixEncoding, lam: Partition, g: GrassData):
    """Corners i with b_i <= a_i and a_{i+1} <= b_{i+1} (a_0 = b_m = infinity).

    When the path starts with a vertical step (l < d) that first run lies on
    the x = 0 axis below the diagram, so it carries the same infinity
    semantics as a_0; this both rules out i = 0 (its rectangle would be
    empty) and keeps a valid index available at every step.
    """
    m = enc.m
    first_run_on_axis = len(lam.parts) < g.d

    def a(idx):  # 0-based vertical run length, with sentinel semantics
        if idx == 0 and first_run_on_axis:
            return None
        return enc.a[idx]

    out = []
    for i in range(m):
        left = a(i - 1) if i >= 1 else None
        cond_b = left is None or enc.b[i] <= left
        height = a(i)
        cond_a = height is not None and (i + 1 >= m or height <= enc.b[i + 1])
        if cond_b and cond_a:
            out.append(i)
    return out


def _remove_rectangle(lam: Partition, g: GrassData, i: int):
    """Rectangle at outer corner i and the partition left after removing it."""
    enc = encode(lam, g)
    runs = _runs(lam, g)
    x_next, y_bottom, length = runs[i]
    p = enc.a[i]
    q = enc.b[i]
    i0 = g.d - y_bottom - p + 1
    j0 = x_next - q + 1
    rect = Rectangle(i0, j0, p, q)
    new_parts = list(lam.parts) + [0] * (g.d - len(lam.parts))
    for r in range(i0, i0 + p):
        new_parts[r - 1] -= q
        assert new_parts[r - 1] >= 0
    new_lam = Partition(new_parts)
    assert lam.boxes() - rect.boxes() == new_lam.boxes(), "removal left a non-partition"
    return rect, new_lam


def enumerate_tilings(lam: Partition, g: GrassData) -> list:
    """All tilings over all valid choice sequences, each step's choices in
    increasing order; the last takes the largest valid index at every step,
    which reproduces the worked running example."""
    lam.require_fits(g)
    out = []

    def walk(cur: Partition, tiling: Tiling):
        if not cur.parts:
            out.append(tiling)
            return
        enc = encode(cur, g)
        for i in _valid_choices(enc, cur, g):
            rect, nxt = _remove_rectangle(cur, g, i)
            walk(nxt, Tiling(lam, tiling.rectangles + [rect], tiling.shapes + [cur]))

    walk(lam, Tiling(lam))
    return out


# ---------- label sets ----------


@dataclass
class LabelSets:
    J: list
    Jp: list
    K: list
    Kp: list


def label_sets(tiling: Tiling, g: GrassData) -> LabelSets:
    d = g.d
    rects = tiling.rectangles
    C = [set(r.left_labels(d)) for r in rects]
    D = [set(r.top_labels(d)) for r in rects]
    Cp = [c - {max(c)} for c in C]
    Dp = [dd - {max(dd)} for dd in D]
    J = [C[i] | Dp[i] for i in range(len(rects))]
    Jp = [Cp[i] | Dp[i] for i in range(len(rects))]
    K, Kp = [], []
    covered: set = set()
    for i, rect in enumerate(rects):
        covered |= rect.boxes()
        kp: set = set()
        for j in range(i + 1):
            rj = rects[j]
            # left side on the left boundary of rho^i
            if all((r, rj.j0 - 1) not in covered for r in range(rj.i0, rj.i0 + rj.p)):
                kp |= Cp[j]
            # top side on the top boundary of rho^i
            if all((rj.i0 - 1, c) not in covered for c in range(rj.j0, rj.j0 + rj.q)):
                kp |= Dp[j]
        Kp.append(kp)
        K.append(kp | {max(C[i])})
    ls = LabelSets(J, Jp, K, Kp)
    for i in range(len(rects)):
        assert J[i] <= K[i] and Jp[i] <= Kp[i], "label-set inclusions violated"
    return ls


def stabilizer_chain(tiling: Tiling, g: GrassData):
    """P_1..P_{r+1} and Q_1..Q_r as 1-based label subsets of Pi."""
    P = []
    for shape in tiling.shapes:
        enc = encode(shape, g)
        excluded = set(enc.k)
        P.append(tuple(x for x in range(1, g.n) if x not in excluded))
    P.append(g.J_labels)
    Q = [tuple(sorted(set(P[i]) & set(P[i + 1]))) for i in range(len(P) - 1)]
    return P, Q


def v_word(rect: Rectangle, g: GrassData) -> tuple:
    """The Grassmannian word of one rectangle: p descending runs of length q."""
    c = rect.label_c(g.d)
    word = []
    for h in range(rect.p):
        word.extend(range(c + rect.q - 1 + h, c + h - 1, -1))
    return tuple(word)

