"""Scalar domains: exact rational functions, or residues at Weyl-orbit points.

Every algebraic pipeline here (twisted group ring products, localization
actions, pairings) uses scalars through one contract:

- a scalar has +, -, *, inv(), ==, is_zero() and format();
- a domain has one, zero, lift (an exact rational function into the
  domain), weyl (the Weyl action), dualize (the t/character inversion) and
  the sum of products dot(xs, ys) = sum x y.

Scalars compare, test and print themselves, so the same pipeline code runs
either exactly or as a Schwartz-Zippel style evaluation mod a fixed 62-bit
prime p.

The mod-p dot multiplies and adds the canonical residues as plain Python
integers and reduces mod p once, at the end of the sum.  Reduction mod p is a
ring homomorphism from the integers, so that one reduction gives the same
canonical residue as reducing after every product and every addition.

A lift is computed once per domain for each distinct fraction, in a table
keyed by its value (numerator, content, factors), so equal fractions built
apart share one residue vector.  Each canonical denominator factor is
evaluated and inverted once per domain, the whole vector by Montgomery's
batch inversion (Math. Comp. 48, 1987): prefix products, one pow of the
last, and a backward pass, so one pow per factor and not one per point.
The lift of num / (dc * prod f^m) is then num times each inv(f), m times,
times dc^-1.  The inverse mod p is unique, so every residue is the one that
pointwise evaluation gives.

The mod-p domain evaluates at k point families.  Family f draws a base point
P_f from ``random.Random(seed + 101 f)`` and holds its full Weyl orbit plus
the coordinatewise-inverted copies, so a residue vector has k blocks of 2|W|
entries.  The Weyl action and duality act block by block as index
permutations: for a point P and the transformed point w*P with
(w*P)_i = P^(w omega_i), one has (w f)(v*P) = f((v w)*P) and
(D f)(v*P) = f(inv(v*P)).

Two scalars are equal only if they agree at every point of every family.
Each family's base coordinates (t included) are uniform on [2, p-2], which is
p-3 values, and the identity point of a family is its base point.  So if lhs
and rhs differ as rational functions and D is the total degree of the cleared
numerator of lhs - rhs, they agree at one family's base point with probability
at most D/(p-3), and a false identity survives all k families with probability
at most (D/(p-3))^k.
"""

from __future__ import annotations

import random
from itertools import accumulate, repeat
from operator import add, itemgetter, mod, mul, neg

from .ratfunc import FIXED_PRIME, RatFunc
from .rootsystem import RootSystem, WeylElt

__all__ = [
    "ExactDomain",
    "OrbitDomain",
    "OrbitScalar",
    "ZeroDenominator",
    "domains_compatible",
]


def domains_compatible(d1, d2) -> bool:
    """Scalars are exchangeable: the same instance, or exact over one group."""
    if d1 is d2:
        return True
    return (
        isinstance(d1, ExactDomain)
        and isinstance(d2, ExactDomain)
        and d1.system is d2.system
    )


class ZeroDenominator(ArithmeticError):
    """A denominator vanished at the evaluation point; resample and retry."""


def _batch_inverse(values: tuple, p: int) -> tuple:
    """The inverse mod p of every entry, from one pow: Montgomery's trick."""
    if not all(values):
        raise ZeroDenominator("inverting a scalar that vanishes at an orbit point")
    prefix = list(accumulate(values, lambda a, b: a * b % p))
    acc = pow(prefix[-1], p - 2, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = acc * prefix[i - 1] % p
        acc = acc * values[i] % p
    out[0] = acc
    return tuple(out)


def _mulmod(xs, ys, p: int) -> tuple:
    return tuple(map(mod, map(mul, xs, ys), repeat(p)))


class ExactDomain:
    """Exact RatFunc scalars for a given root system."""

    kind = "exact"

    def __init__(self, system: RootSystem):
        self.system = system
        self.arity = system.rank + 1
        self.one = RatFunc.from_int(self.arity, 1)
        self.zero = RatFunc.from_int(self.arity, 0)

    def lift(self, r: RatFunc) -> RatFunc:
        return r

    def weyl(self, w: WeylElt, c: RatFunc) -> RatFunc:
        return c if w.idx == 0 else c.weyl(w.matrix)

    def dualize(self, c: RatFunc) -> RatFunc:
        return c.dualize()

    def dot(self, xs, ys) -> RatFunc:
        """sum x y over the pairs of xs and ys, added left to right from the first product."""
        out = None
        for x, y in zip(xs, ys):
            term = x * y
            out = term if out is None else out + term
        return self.zero if out is None else out


class OrbitScalar:
    """A function on the orbit point family, stored as a residue vector."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: "OrbitDomain", values: tuple):
        self.domain = domain
        self.values = values

    def _check(self, other):
        if self.domain is not other.domain:
            raise ValueError("scalars from different evaluation domains")

    def __add__(self, other):
        self._check(other)
        return OrbitScalar(
            self.domain,
            tuple(map(mod, map(add, self.values, other.values), repeat(self.domain.prime))),
        )

    __radd__ = __add__

    def __neg__(self):
        return OrbitScalar(
            self.domain, tuple(map(mod, map(neg, self.values), repeat(self.domain.prime)))
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return OrbitScalar(self.domain, _mulmod(self.values, other.values, self.domain.prime))

    __rmul__ = __mul__

    def inv(self) -> "OrbitScalar":
        return OrbitScalar(self.domain, _batch_inverse(self.values, self.domain.prime))

    def __eq__(self, other):
        if not isinstance(other, OrbitScalar):
            return NotImplemented
        return self.domain is other.domain and self.values == other.values

    __hash__ = None

    def is_zero(self) -> bool:
        return not any(self.values)

    def __repr__(self):
        return f"OrbitScalar({self.values[0]}, ...)"

    format = __repr__


class OrbitDomain:
    """Evaluation of the whole pipeline at the Weyl orbits of k random points.

    Residue vectors are indexed by k blocks of 2|W| points, one block per
    family.  Within a block, the first half holds w * P for each group
    element w (in element order), the second half the coordinatewise inverses
    of those points (t included), which realizes the duality substitution as
    a half swap.
    """

    kind = "modp"

    def __init__(self, system: RootSystem, seed: int, families: int = 1):
        if families < 1:
            raise ValueError("an orbit domain needs at least one point family")
        self.system = system
        self.prime = FIXED_PRIME
        self.points = []
        for f in range(families):
            self.points += self._orbit(random.Random(seed + 101 * f))
        self.size = len(self.points)
        # weyl permutation: value of (w f) at point u*P is f((u w)*P)
        order = system.order
        self._perm = [
            itemgetter(*self._blockwise(col + tuple(uw + order for uw in col)))
            for col in map(system.cayley_column, range(order))
        ]
        self._dual = itemgetter(
            *self._blockwise(tuple(range(order, 2 * order)) + tuple(range(order)))
        )
        self.one = OrbitScalar(self, (1,) * self.size)
        self.zero = OrbitScalar(self, (0,) * self.size)
        self._lift_cache: dict = {}
        self._lift_values: dict = {}  # (num, dc, facs) -> residue vector
        self._factor_inverses: dict = {}  # canonical factor -> its inverse's vector

    def _blockwise(self, perm: tuple) -> tuple:
        """One family block's index permutation, applied to every block."""
        out = perm
        for off in range(len(perm), self.size, len(perm)):
            out += tuple(j + off for j in perm)
        return out

    def _orbit(self, rng: random.Random) -> list:
        """The 2|W| points of one family: w * P in element order, then inverses."""
        n = self.system.rank
        p = self.prime
        base = tuple(rng.randrange(2, p - 1) for _ in range(n + 1))
        t_val = base[0]
        t_inv = pow(t_val, p - 2, p)
        zvals = base[1:]
        zinvs = tuple(pow(z, p - 2, p) for z in zvals)
        points = []
        for w in self.system.elements:
            m = w.matrix
            coords = []
            for i in range(n):
                # z_i evaluates to P^{w(omega_i)}; w(omega_i) is column i of m
                v = 1
                for j in range(n):
                    e = m[j][i]
                    if e:
                        v = v * pow(zvals[j] if e > 0 else zinvs[j], abs(e), p) % p
                coords.append(v)
            points.append((t_val,) + tuple(coords))
        return points + [
            (t_inv,) + tuple(pow(z, p - 2, p) for z in pt[1:]) for pt in points
        ]

    def _values(self, poly) -> tuple:
        p = self.prime
        return tuple(poly.eval_mod(pt, p) for pt in self.points)

    def lift(self, r: RatFunc) -> OrbitScalar:
        """r at every point: num times each factor's inverse vector, once per
        multiplicity, times dc^-1, computed once per distinct value."""
        key = id(r)
        hit = self._lift_cache.get(key)
        if hit is not None and hit[0] is r:
            return hit[1]
        value = (r.num, r.dc, r.facs)
        vals = self._lift_values.get(value)
        if vals is None:
            p = self.prime
            if r.dc % p == 0:
                raise ZeroDenominator("denominator content divisible by p")
            vals = self._values(r.num)
            for f, mult in r.facs:
                inv = self._factor_inverses.get(f)
                if inv is None:
                    inv = self._factor_inverses[f] = _batch_inverse(self._values(f), p)
                for _ in range(mult):
                    vals = _mulmod(vals, inv, p)
            if r.dc != 1:
                vals = _mulmod(vals, repeat(pow(r.dc, p - 2, p)), p)
            self._lift_values[value] = vals
        out = OrbitScalar(self, vals)
        self._lift_cache[key] = (r, out)
        return out

    def weyl(self, w: WeylElt, c: OrbitScalar) -> OrbitScalar:
        if w.idx == 0:
            return c
        return OrbitScalar(self, self._perm[w.idx](c.values))

    def dualize(self, c: OrbitScalar) -> OrbitScalar:
        return OrbitScalar(self, self._dual(c.values))

    def dot(self, xs, ys) -> OrbitScalar:
        """sum x y over the pairs of xs and ys, accumulated as integers and
        reduced mod p once.  A zero sum is the shared zero, so a pairing matrix
        that is mostly zeros holds one zero vector."""
        acc = None
        for x, y in zip(xs, ys):
            if x.domain is not self or y.domain is not self:
                raise ValueError("scalars from different evaluation domains")
            prods = map(mul, x.values, y.values)
            acc = list(prods) if acc is None else list(map(add, acc, prods))
        if acc is None:
            return self.zero
        vals = tuple(map(mod, acc, repeat(self.prime)))
        return OrbitScalar(self, vals) if any(vals) else self.zero
