"""Finite crystallographic root systems, Weyl groups, Bruhat order, parabolics.

Weights are stored in fundamental-weight coordinates throughout; the simple
root alpha_j is the j-th column of the Cartan matrix, which is the single
source of truth for the Weyl action.  Group elements are identified by their
integer action matrix on these coordinates and interned in the enumerating
RootSystem, so equality is object identity and hashing is by index.

Enumeration is breadth-first from the identity, which makes element indices
and all downstream serialization deterministic and puts W in (length, index)
order.  Each w other than e records its parent ws and last letter s; reduced
words are read off this parent chain, never stored.

Every group-combinatorics decision is read off integer tables built once per
system: the right/left multiplication tables by simple reflections, the
inverse and length arrays, and a right-descent bitmask per element (bit i set
iff l(w s_i) < l(w)).  The Cayley table is kept column by column (column w
holds the index of u*w for every u) and a column is built the first time
something multiplies by w, so a group that is built and then refused by a
size guard never holds |W|^2 entries.  Parabolic subsets J are turned into
the same kind of bitmask, so a minimal coset representative test is one AND.
W_J, w_J and the positive roots outside Sigma_J are built once per J (see
Memo).  Reflections and w0 u come from the same tables: the roots are found
breadth first as s_i(beta), recording s_{s_i beta} = s_i s_beta s_i (Humphreys
1990), and w0 y = (w0 y') s_i for y = y' s_i, y' first in BFS order.

Bruhat order is read off one lower interval [e, w] per element, built once
(see Memo) by right steps: with s the last letter of w's reduced word, s is a
right descent of w and

    [e, w] = [e, ws] union [e, ws] s

(the lifting property: for v <= w with vs > v, v <= ws; for vs < v, vs <= ws;
and v <= ws gives v, vs <= w).  So u <= w is one set membership test, and an
interval is its set in index order, which breadth-first enumeration makes
(length, index) order.
"""

from __future__ import annotations

from collections import deque

from .laurent import LaurentPoly

__all__ = ["CartanData", "Memo", "RootSystem", "WeylElt", "WMap", "Root", "SizeCapExceeded"]

DEFAULT_SIZE_CAP = 50_000


class SizeCapExceeded(ValueError):
    """The enumeration reached the size cap before the group closed."""


class CartanData:
    __slots__ = ("rank", "cartan", "type_label")

    def __init__(self, cartan, type_label: str = ""):
        cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        n = len(cartan)
        for i, row in enumerate(cartan):
            if len(row) != n:
                raise ValueError("Cartan matrix must be square")
            if row[i] != 2:
                raise ValueError("Cartan diagonal entries must be 2")
            for j, x in enumerate(row):
                if i != j and x > 0:
                    raise ValueError("Cartan off-diagonal entries must be <= 0")
        self.rank = n
        self.cartan = cartan
        self.type_label = type_label or f"rank{n}"

    @classmethod
    def type_a(cls, n: int) -> "CartanData":
        """The Cartan matrix of type A_n."""
        rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
        return cls(rows, "A")


class Root:
    """A root, carried in both simple-root and fundamental-weight coordinates."""

    __slots__ = ("simple", "weight", "positive")

    def __init__(self, simple: tuple, weight: tuple):
        self.simple = simple
        self.weight = weight
        self.positive = all(x >= 0 for x in simple)

    def __eq__(self, other):
        return isinstance(other, Root) and self.weight == other.weight

    def __hash__(self):
        return hash(self.weight)

    def __neg__(self):
        return Root(tuple(-x for x in self.simple), tuple(-x for x in self.weight))

    def __repr__(self):
        return f"Root(simple={self.simple})"


class WeylElt:
    __slots__ = ("system", "idx")

    def __init__(self, system: "RootSystem", idx: int):
        self.system = system
        self.idx = idx

    @property
    def matrix(self):
        return self.system._matrices[self.idx]

    @property
    def length(self) -> int:
        return self.system._lengths[self.idx]

    @property
    def word(self) -> tuple:
        """A reduced word (0-based simple reflection indices), read off the parent chain."""
        return tuple(self._letters_last_first())[::-1]

    def _letters_last_first(self):
        """The letters of word, last first: s, then the last letter of ws, ..."""
        parent, last, w = self.system._parent, self.system._last, self.idx
        while w:
            yield last[w]
            w = parent[w]

    def inverse(self) -> "WeylElt":
        return self.system.elements[self.system._inverse[self.idx]]

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        self.system.require_element(other)
        return self.system.product(self, other)

    def __hash__(self):
        return self.idx

    def one_line(self):
        """One-line permutation for type A (None for other types)."""
        if self.system.cartan_data.type_label != "A":
            return None
        perm = list(range(1, self.system.rank + 2))
        for letter in self._letters_last_first():
            a, b = letter + 1, letter + 2
            perm = [b if x == a else a if x == b else x for x in perm]
        return perm

    def __repr__(self):
        names = self.system._names
        name = names.get(self.idx)
        if name is None:
            if self.idx == 0:
                name = "e"
            elif (line := self.one_line()) is not None:
                name = "[" + ",".join(str(x) for x in line) + "]"
            else:
                name = "*".join(f"s{i + 1}" for i in self.word)
            names[self.idx] = name
        return name


class WMap:
    """A finite map w -> coefficient on W, stored sparsely (missing = zero).

    Hecke elements, twisted-group-ring elements and fixed-point classes are
    all such maps.  The coefficients answer for themselves (+, *, ==, truth
    value, format), and scale(c) multiplies by c, a scalar of the map's own
    domain, so a map asks nothing of its ring beyond its identity.  Maps mix
    only within one type and one ring: + with a map of another type (a QWElt
    and a CohClass share a TwistedRing) or an int raises TypeError; a map over
    another ring object, even an equal one, cannot be added and compares
    unequal.
    A subclass prints each term through its template _term, with fields w and
    c, joined by _sep.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: dict):
        self.ring = ring
        self.coeffs = {w: c for w, c in coeffs.items() if c}

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.ring is not other.ring:
            raise ValueError("elements of different rings")
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            q = out.get(w)
            out[w] = c if q is None else q + c
        return type(self)(self.ring, out)

    def scale(self, c):
        return type(self)(self.ring, {w: p * c for w, p in self.coeffs.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    __hash__ = None

    def support(self):
        """The support in (length, index) order, which is index order."""
        return sorted(self.coeffs, key=lambda w: w.idx)

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        term, coeffs = self._term, self.coeffs
        return self._sep.join(term.format(w=w, c=coeffs[w].format()) for w in self.support())


class Memo:
    """Build once: what a RootSystem, HeckeAlgebra, TwistedRing or Localization
    derives from its fixed data (W_J, a Bruhat interval, gamma_w, the image of
    tau_w, Y_{J/J'}, a class, a smoothness verdict, a lifted scalar) is built at
    most once per object, through one memo table keyed by (builder name,
    arguments), and the same object is handed to every caller; so no memoized
    value is changed after it is built.  J-keyed builders take J as RootSystem._jkey gives it, so
    (0, 2), (2, 0) and [2, 0, 2] share one entry.  The table is set in __init__:
    a functools.cached_property would materialize the object's __dict__ and
    slow every attribute read on it.
    """

    def __init__(self):
        self._memo: dict = {}

    def _once(self, build, *args):
        """build(*args), computed once per object and shared by every caller."""
        key = (build.__name__,) + args
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = build(*args)
        return hit


class RootSystem(Memo):
    """Enumerated Weyl group with root data and Bruhat order."""

    def __init__(self, cartan_data: CartanData, size_cap: int = DEFAULT_SIZE_CAP):
        super().__init__()
        self.cartan_data = cartan_data
        self.rank = cartan_data.rank
        n = self.rank
        C = cartan_data.cartan
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        # simple reflection matrices on fundamental-weight coordinates
        self.simple_matrices = []
        for i in range(n):
            rows = []
            for r in range(n):
                row = list(ident[r])
                row[i] -= C[r][i]
                rows.append(tuple(row))
            self.simple_matrices.append(tuple(rows))

        self._matrices = [ident]
        by_matrix = {ident: 0}
        self._lengths = [0]
        # BFS pops indices in the order it assigns them, so row idx of the
        # right multiplication table is complete before idx + 1 is visited.
        self.right_table = []
        parent, last = [0], [0]
        queue = deque([0])
        while queue:
            idx = queue.popleft()
            m = self._matrices[idx]
            row = []
            for i in range(n):
                prod = _matmul(m, self.simple_matrices[i])
                j = by_matrix.get(prod)
                if j is None:
                    j = len(self._matrices)
                    if j >= size_cap:
                        raise SizeCapExceeded(
                            f"Weyl group exceeds the size cap {size_cap}; "
                            "is the Cartan matrix of finite type?"
                        )
                    self._matrices.append(prod)
                    by_matrix[prod] = j
                    self._lengths.append(self._lengths[idx] + 1)
                    parent.append(idx)
                    last.append(i)
                    queue.append(j)
                row.append(j)
            self.right_table.append(tuple(row))
        self.order = len(self._matrices)
        self.elements = [WeylElt(self, i) for i in range(self.order)]
        self.identity = self.elements[0]

        # With w = parent(w) * s_last(w): s_i * w = (s_i * parent(w)) * s_last(w)
        # and w^-1 = s_last(w) * parent(w)^-1.  BFS order puts parent(w) first.
        rt = self.right_table
        self.left_table = [rt[0]]
        self._inverse = [0]
        for w in range(1, self.order):
            p, i = parent[w], last[w]
            self.left_table.append(tuple(rt[x][i] for x in self.left_table[p]))
            self._inverse.append(self.left_table[self._inverse[p]][i])
        self._parent, self._last = parent, last
        self._right_perms = [tuple(row[i] for row in rt) for i in range(n)]
        self._columns = [tuple(range(self.order))] + [None] * (self.order - 1)
        self._descents = [
            sum(1 << i for i in range(n) if self._lengths[row[i]] < length)
            for row, length in zip(self.right_table, self._lengths)
        ]

        self._init_roots(C)
        w0 = max(range(self.order), key=lambda i: self._lengths[i])
        assert self._lengths.count(self._lengths[w0]) == 1, "longest element not unique"
        self.w0 = self.elements[w0]
        self._w0_left = left = [w0]  # w0 y by index y (module docstring)
        for y in range(1, self.order):
            left.append(rt[left[parent[y]]][last[y]])
        self._names = {}  # idx -> printed name, filled by WeylElt.__repr__

    # ---------- roots ----------

    def _init_roots(self, C):
        n = self.rank
        rt, lt = self.right_table, self.left_table
        units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        # root in simple coordinates -> index of its reflection
        seen = {unit: rt[0][i] for i, unit in enumerate(units)}
        queue = deque(units)
        while queue:
            beta = queue.popleft()
            s_beta = seen[beta]
            for i in range(n):
                nb = list(beta)
                nb[i] -= sum(C[i][j] * beta[j] for j in range(n))
                nb = tuple(nb)
                if nb not in seen:
                    seen[nb] = rt[lt[s_beta][i]][i]  # s_i s_beta s_i
                    queue.append(nb)
        self.roots = []
        self._reflections = {}  # root weight -> s_alpha
        for simple, s in sorted(seen.items()):
            weight = tuple(sum(C[r][j] * simple[j] for j in range(n)) for r in range(n))
            self.roots.append(Root(simple, weight))
            self._reflections[weight] = self.elements[s]
        self.positive_roots = [r for r in self.roots if r.positive]
        self.positive_roots.sort(key=lambda r: (sum(r.simple), r.simple))
        # roots and group elements are enumerated independently
        if len(self.positive_roots) != max(self._lengths):
            raise AssertionError("positive root count disagrees with l(w0)")
        by_simple = {r.simple: r for r in self.roots}
        self.simple_roots = [by_simple[unit] for unit in units]

    def reflection(self, root: Root) -> WeylElt:
        """s_alpha as a group element; raises KeyError for a non-root."""
        s = self._reflections.get(root.weight)
        if s is None:
            raise KeyError(f"not a root: {root}")
        return s

    # ---------- group operations ----------

    def product(self, u: WeylElt, v: WeylElt) -> WeylElt:
        col = self._columns[v.idx] or self.cayley_column(v.idx)
        return self.elements[col[u.idx]]

    def cayley_column(self, w: int) -> tuple:
        """Indices of u*w for every index u, built on first use and cached."""
        chain = []
        while self._columns[w] is None:
            chain.append(w)
            w = self._parent[w]
        col = self._columns[w]
        for w in reversed(chain):
            perm = self._right_perms[self._last[w]]
            col = self._columns[w] = tuple([perm[x] for x in col])
        return col

    def simple_reflection(self, i: int) -> WeylElt:
        return self.from_word((i,))

    def right_descents(self, w: WeylElt):
        mask = self._descents[w.idx]
        return [i for i in range(self.rank) if mask >> i & 1]

    def require_element(self, w: WeylElt):
        """Raise ValueError unless w is an element of this group."""
        if w.system is not self:
            raise ValueError("elements of a different group")

    def right_step(self, w: WeylElt):
        """(i, w s_i) for the last letter s_i of w's reduced word; ValueError
        for an element of another group."""
        self.require_element(w)
        return self._last[w.idx], self.elements[self._parent[w.idx]]

    def from_word(self, word) -> WeylElt:
        idx = 0
        for i in word:
            if not 0 <= i < self.rank:
                raise ValueError(f"simple reflection index {i} out of range(0, {self.rank})")
            idx = self.right_table[idx][i]
        return self.elements[idx]

    # ---------- Bruhat order ----------

    def bruhat_leq(self, u: WeylElt, v: WeylElt) -> bool:
        """u <= v: u lies in the lower interval of v."""
        if u.system is not self or v.system is not self:
            raise ValueError("elements of a different group")
        return u.idx in self._once(self._lower_interval, v.idx)

    def bruhat_interval(self, w: WeylElt):
        """All v with v <= w, in (length, index) order."""
        self.require_element(w)
        return [self.elements[i] for i in sorted(self._once(self._lower_interval, w.idx))]

    def _lower_interval(self, w: int) -> frozenset:
        """The indices of [e, w] = [e, ws] union [e, ws] s, s the last letter of
        w's reduced word (module docstring)."""
        if w == 0:
            return frozenset((0,))
        below = self._once(self._lower_interval, self._parent[w])
        times_s = self._right_perms[self._last[w]]
        return below.union([times_s[x] for x in below])

    # ---------- parabolic combinatorics ----------

    def _jkey(self, J) -> tuple:
        """J, a set of simple reflection indices in any order and multiplicity,
        as the sorted tuple of its distinct indices: the one key of every
        J-keyed memo.  ValueError for an index outside range(rank)."""
        key = tuple(sorted(set(J)))
        if key and not (0 <= key[0] and key[-1] < self.rank):
            raise ValueError(f"simple reflection indices {J} out of range(0, {self.rank})")
        return key

    def parabolic_elements(self, J) -> list:
        """Elements of W_J in BFS order, built once per J."""
        return self._once(self._parabolic_elements, self._jkey(J))

    def _parabolic_elements(self, J: tuple) -> list:
        seen = {0}
        order = [0]
        queue = deque([0])
        while queue:
            idx = queue.popleft()
            for i in J:
                j = self.right_table[idx][i]
                if j not in seen:
                    seen.add(j)
                    order.append(j)
                    queue.append(j)
        return [self.elements[i] for i in order]

    def longest_parabolic(self, J) -> WeylElt:
        """w_J, the longest element of W_J: the breadth-first search of
        parabolic_elements meets the elements of W_J by length, w_J last."""
        return self.parabolic_elements(J)[-1]

    def minimal_coset_reps(self, J) -> list:
        """W^J: minimal-length representatives of the left cosets W / W_J."""
        mask = _mask(self._jkey(J))
        return [w for w in self.elements if not self._descents[w.idx] & mask]

    def require_min_rep(self, w: WeylElt, J):
        """Raise ValueError unless w is an element of this group in W^J (no
        right descent in J)."""
        self.require_element(w)
        if self._descents[w.idx] & _mask(self._jkey(J)):
            raise ValueError(f"{w!r} is not a minimal coset representative for J={J}")

    def relative_longest(self, J, Jp) -> WeylElt:
        """w_{J/J'} = w_J w_{J'}, the longest element of W_J intersect W^{J'}."""
        if not set(Jp) <= set(J):
            raise ValueError("J' must be contained in J")
        return self.longest_parabolic(J) * self.longest_parabolic(Jp)

    def relative_reps(self, J, Jp) -> list:
        """W_J intersect W^{J'}: minimal reps of W_J / W_{J'}."""
        if not set(Jp) <= set(J):
            raise ValueError("J' must be contained in J")
        mask = _mask(self._jkey(Jp))
        return [w for w in self.parabolic_elements(J) if not self._descents[w.idx] & mask]

    def roots_outside(self, J) -> list:
        """Positive roots not in Sigma_J, in positive_roots order, found once per J."""
        return self._once(self._roots_outside, self._jkey(J))

    def _roots_outside(self, J: tuple) -> list:
        others = [i for i in range(self.rank) if i not in J]
        return [r for r in self.positive_roots if any(r.simple[i] for i in others)]

    def poincare_polynomial(self, J) -> LaurentPoly:
        """P_J(t) = sum over W_J of t^l(v), as a polynomial in t alone."""
        counts: dict = {}  # an arity-1 key is the exponent of t
        for v in self.parabolic_elements(J):
            counts[v.length] = counts.get(v.length, 0) + 1
        return LaurentPoly.from_packed(1, counts)


def _mask(J) -> int:
    """Bitmask of a set of simple reflection indices."""
    return sum(1 << i for i in set(J))


def _matmul(a, b):
    n = len(a)
    rng = range(n)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in rng) for j in rng) for i in rng
    )
