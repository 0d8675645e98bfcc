"""Scalar domains: exact rational functions, or residues at Weyl-orbit points.

Every algebraic pipeline here (twisted group ring products, localization
actions, pairings) uses scalars through one contract:

- a scalar has +, *, ==, format() and a truth value, which is false exactly
  for zero; the operands of +, * and == are scalars of the same domain, and
  an int or a rational function is lifted first, through the ring's
  as_scalar;
- a domain has one, zero, lift (an exact rational function into the
  domain), weyl (the Weyl action), dualize (the t/character inversion) and
  the sum of products dot(xs, ys) = sum x y, which skips the product by a
  y that is the domain's own one (an identity test, not ==); weyl, dualize
  and dot refuse a scalar of another domain.

Scalars compare, test and print themselves, so the same pipeline code runs
either exactly or as a Schwartz-Zippel style evaluation mod a fixed 62-bit
prime p.

The mod-p dot multiplies and adds the canonical residues as plain Python
integers and reduces mod p once, at the end of the sum.  Reduction mod p is a
ring homomorphism from the integers, so that one reduction gives the same
canonical residue as reducing after every product and every addition.

A lift is computed once per domain for each distinct fraction, in a table
keyed by its value (numerator, factors), so equal fractions built apart
share one residue vector.  Each canonical denominator factor, an integer
one included, is evaluated and inverted once per domain, the whole vector by
Montgomery's batch inversion (Math. Comp. 48, 1987): prefix products, one
pow of the last, and a backward pass, so one pow per factor and not one per
point; a factor that vanishes mod p at some point raises ZeroDenominator.
The lift of num / prod f^m is then num times each inv(f), m times.  The
inverse mod p is unique, so every residue is the one that pointwise
evaluation gives.

A polynomial is evaluated from the domain's power columns: for each (slot i,
exponent x) asked for, once per domain, coordinate i to the power x at every
orbit point.  The first power is read from the points, and each higher one is
the one below it times the first, one pointwise product.  The orbit points
come in inverse pairs (below), and a point's power -x is its inverse's power
x, so a negative power is the column for -x read through one permutation,
which swaps each family's w*P half with its inverse half.  A term is its
coefficient times the product of its slots' columns; the terms are summed as
integers and reduced mod p once, as in dot.  A family's inverse points are
the orbit of its inverted base point, inv(w*P) = w*inv(P), built by the same
small-exponent products from the base coordinates inverted in one batch.

The mod-p domain evaluates at k point families.  Family f draws a base point
P_f from ``random.Random(seed + 101 f)``; its orbit points are w*P_f, with
(w*P)_i = P^(w omega_i), and their coordinatewise inverses, 2|W| points on
which (w f)(v*P) = f((v w)*P) and (D f)(v*P) = f(inv(v*P)).  A scalar holds
its residues at 4 kept points per family, P_f, w0*P_f and their inverses, so
values[0] is the residue at family 0's base point.  A known function (a lift,
a Weyl twist of one, or a product of two at one twist) also holds its
residues at every orbit point and its twist u, so weyl(w, .) gathers the
twist w u's kept residues through one index table per group element.  A
product of lifts is how a known function with a long expanded numerator,
such as x_Pi, is lifted.  Every other scalar is a computed value, with
no other residues: weyl(w0, .) swaps P_f with w0*P_f, weyl(e, .) keeps it,
and any other twist raises MisplacedTwist.  dualize swaps each kept point
with its inverse.  So the pipelines twist by varying group elements only
known functions (see localization).

Two scalars are equal only if they agree at every point of every family.
Each family's base coordinates (t included) are uniform on [2, p-2], which is
p-3 values, and the identity point of a family is its base point.  So if lhs
and rhs differ as rational functions and D is the total degree of the cleared
numerator of lhs - rhs, they agree at one family's base point with probability
at most D/(p-3), and a false identity survives all k families with probability
at most (D/(p-3))^k.

A pairing matrix M is first checked whole against its expected matrix N by
Freivalds' check (see verify): r^T M s = r^T N s for weights r and s from
random_weights, one residue uniform on [1, p-1] per class, the same at every
kept point, drawn from a stream seeded apart from the families'.  At a kept
point where M and N differ, (M - N) s vanishes with probability at most
1/(p-1) and r^T of a nonzero vector with at most 1/(p-1) (Schwartz-Zippel at
degree 1), so the check passes a wrong matrix with probability at most
2/(p-1) at each kept point.  A false pairing case then survives with
probability at most (D/(p-3))^k + 2/(p-1), the second term once per matrix.
It runs on U = sum r_a f_a and V = sum s_b g_b, as <U, V>_J, and the Serre
cases D_J(f_a) = f_a of parabolic-duality run as D_J(U) = U (dualize fixes a
weight): where some D_J(f_a) - f_a is nonzero, sum r_a (D_J(f_a) - f_a)
vanishes with probability at most 1/(p-1), so each Serre check adds 1/(p-1)
per kept point.  The MC/SMC and C/C~ checks at one J draw the same weights,
and the Serre check reuses r; each bound holds whatever the other checks
drew, so the union bound over a case's checks covers it.
"""

from __future__ import annotations

import random
from itertools import accumulate, repeat
from operator import add, itemgetter, mod, mul

from .ratfunc import FIXED_PRIME, RatFunc
from .rootsystem import RootSystem, WeylElt

__all__ = [
    "ExactDomain",
    "MisplacedTwist",
    "OrbitDomain",
    "OrbitScalar",
    "ZeroDenominator",
]


class ZeroDenominator(ArithmeticError):
    """A denominator vanished at the evaluation point; resample and retry."""


class MisplacedTwist(ValueError):
    """A computed value was Weyl-twisted by an element other than e and w0."""


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
        """sum x y over the pairs of xs and ys, as one RatFunc.sum: the products
        over one common denominator, cancelled once (see ratfunc)."""
        one = self.one
        return RatFunc.sum((x if y is one else x * y for x, y in zip(xs, ys)), self.arity)


class OrbitScalar:
    """Residues at the kept points; a known function also has full, its lift
    at every orbit point, and at, its twist of that lift (else both None)."""

    __slots__ = ("domain", "values", "full", "at")

    def __init__(self, domain: "OrbitDomain", values: tuple):
        self.domain = domain
        self.values = values
        self.full = None
        self.at = None

    def _check(self, other):
        if self.domain is not other.domain:
            raise ValueError("scalars from different evaluation domains")

    def __add__(self, other):
        if not isinstance(other, OrbitScalar):
            return NotImplemented
        self._check(other)
        return OrbitScalar(
            self.domain,
            tuple(map(mod, map(add, self.values, other.values), repeat(self.domain.prime))),
        )

    __radd__ = __add__

    def __mul__(self, other):
        """The pointwise product; that of two known functions at one twist is
        known, its orbit residues the products of theirs."""
        if not isinstance(other, OrbitScalar):
            return NotImplemented
        self._check(other)
        p = self.domain.prime
        if self.full is not None and other.full is not None and self.at is other.at:
            return self.domain._known(_mulmod(self.full, other.full, p), self.at)
        return OrbitScalar(self.domain, _mulmod(self.values, other.values, p))

    __rmul__ = __mul__

    def inv(self) -> "OrbitScalar":
        return OrbitScalar(self.domain, _batch_inverse(self.values, self.domain.prime))

    def __eq__(self, other):
        if not isinstance(other, OrbitScalar):
            return NotImplemented
        return self.domain is other.domain and self.values == other.values

    __hash__ = None

    def __bool__(self):
        return any(self.values)

    def __repr__(self):
        return f"OrbitScalar({self.values[0]}, ...)"

    format = __repr__


class OrbitDomain:
    """Evaluation of the whole pipeline at k random point families.

    points holds each family's 2|W| orbit points, family by family: first
    w * P for each group element w (in element order), then the
    coordinatewise inverses of those points (t included).  A lift is
    evaluated at all of them; a scalar keeps the residues at 4 points per
    family, in the order P, inv(P), w0 * P, inv(w0 * P).
    """

    kind = "modp"

    def __init__(self, system: RootSystem, seed: int, families: int = 1):
        if families < 1:
            raise ValueError("an orbit domain needs at least one point family")
        self.system = system
        self.seed = seed
        self.prime = FIXED_PRIME
        self.points = []
        for f in range(families):
            self.points += self._orbit(random.Random(seed + 101 * f))
        self.size = 4 * families
        order = system.order
        offsets = range(0, len(self.points), 2 * order)
        # (slot i, exponent x) -> coordinate i to the power x at every orbit point
        ones = (1,) * len(self.points)
        self._powers = {}
        for i, column in enumerate(zip(*self.points)):
            self._powers[i, 0], self._powers[i, 1] = ones, column
        # each family's w * P half swapped with its inverse half
        self._inverse_half = itemgetter(
            *(f + (j + order) % (2 * order) for f in offsets for j in range(2 * order))
        )
        # the kept residues of the twist u of a known function: family by
        # family, its orbit residues at u * P, inv(u * P), (w0 u) * P, inv(w0 u * P)
        self._kept = []
        for x, y in enumerate(system._w0_left):
            kept = (j + f for f in offsets for j in (x, x + order, y, y + order))
            self._kept.append(itemgetter(*kept))
        block = range(0, self.size, 4)
        self._w0_swap = itemgetter(*(j + f for f in block for j in (2, 3, 0, 1)))
        self._dual = itemgetter(*(j + f for f in block for j in (1, 0, 3, 2)))
        self.one = OrbitScalar(self, (1,) * self.size)
        self.zero = OrbitScalar(self, (0,) * self.size)
        self._lift_cache: dict = {}
        self._lift_values: dict = {}  # (num, facs) -> lifted scalar
        self._factor_inverses: dict = {}  # canonical factor -> its inverse's vector

    def _orbit(self, rng: random.Random) -> list:
        """The 2|W| points of one family: w * P in element order, then inverses."""
        n = self.system.rank
        p = self.prime
        base = tuple(rng.randrange(2, p - 1) for _ in range(n + 1))
        inverted = _batch_inverse(base, p)
        points = []
        # inv(w * P) = w * inv(P): the inverse half is the orbit of the inverted base
        for t, ups, downs in (
            (base[0], base[1:], inverted[1:]),
            (inverted[0], inverted[1:], base[1:]),
        ):
            for w in self.system.elements:
                m = w.matrix
                point = [t]
                for i in range(n):
                    # z_i evaluates to P^{w(omega_i)}; w(omega_i) is column i of m
                    v = 1
                    for j in range(n):
                        e = m[j][i]
                        if e:
                            v = v * pow(ups[j] if e > 0 else downs[j], abs(e), p) % p
                    point.append(v)
                points.append(tuple(point))
        return points

    def _power(self, i: int, x: int) -> tuple:
        """Coordinate i to the power x at every orbit point, computed once per
        domain: a positive power from the highest one held, times the first
        power once per step, a negative one as the power -x at the inverse
        points (module docstring)."""
        out = self._powers.get((i, x))
        if out is None:
            if x < 0:
                out = self._powers[i, x] = self._inverse_half(self._power(i, -x))
            else:
                below = x - 1
                while (i, below) not in self._powers:
                    below -= 1
                out, first = self._powers[i, below], self._powers[i, 1]
                for y in range(below + 1, x + 1):
                    out = self._powers[i, y] = _mulmod(out, first, self.prime)
        return out

    def lift(self, r: RatFunc) -> OrbitScalar:
        """r as a known function: num times each factor's inverse vector, once
        per multiplicity, at every orbit point, computed once per distinct
        value."""
        key = id(r)
        hit = self._lift_cache.get(key)
        if hit is not None and hit[0] is r:
            return hit[1]
        value = (r.num, r.facs)
        out = self._lift_values.get(value)
        if out is None:
            p = self.prime
            vals = r.num.eval_mod(self._power, p)
            for f, mult in r.facs:
                inv = self._factor_inverses.get(f)
                if inv is None:
                    inv = self._factor_inverses[f] = _batch_inverse(f.eval_mod(self._power, p), p)
                for _ in range(mult):
                    vals = _mulmod(vals, inv, p)
            out = self._lift_values[value] = self._known(vals, self.system.identity)
        self._lift_cache[key] = (r, out)
        return out

    def weyl(self, w: WeylElt, c: OrbitScalar) -> OrbitScalar:
        """The twist w(c): gathered from the orbit residues of a known function,
        swapped for a computed value when w is w0; any other twist of a
        computed value raises MisplacedTwist."""
        if c.domain is not self:
            raise ValueError("scalars from different evaluation domains")
        if w.idx == 0 or c is self.one or c is self.zero:
            return c
        if c.full is not None:
            return self._known(c.full, w * c.at)
        if w is self.system.w0:
            return OrbitScalar(self, self._w0_swap(c.values))
        raise MisplacedTwist(f"twist of a computed value by {w!r}, neither e nor w0")

    def _known(self, full: tuple, at: WeylElt) -> OrbitScalar:
        """The twist at of the known function with orbit residues full."""
        out = OrbitScalar(self, self._kept[at.idx](full))
        out.full, out.at = full, at
        return out

    def dualize(self, c: OrbitScalar) -> OrbitScalar:
        if c.domain is not self:
            raise ValueError("scalars from different evaluation domains")
        return OrbitScalar(self, self._dual(c.values))

    def random_weights(self, n: int) -> list:
        """n scalars, each one residue uniform on [1, p - 1] at every kept point,
        drawn by a random.Random seeded from the domain's seed, apart from the
        families' streams: the same n give the same scalars."""
        rng = random.Random(f"weights {self.seed}")
        return [OrbitScalar(self, (rng.randrange(1, self.prime),) * self.size) for _ in range(n)]

    def dot(self, xs, ys) -> OrbitScalar:
        """sum x y over the pairs of xs and ys, accumulated as integers and
        reduced mod p once.  A zero sum is the shared zero, so a pairing matrix
        that is mostly zeros holds one zero vector."""
        acc = None
        for x, y in zip(xs, ys):
            if x.domain is not self or y.domain is not self:
                raise ValueError("scalars from different evaluation domains")
            prods = x.values if y is self.one else map(mul, x.values, y.values)
            acc = list(prods) if acc is None else list(map(add, acc, prods))
        if acc is None:
            return self.zero
        vals = tuple(map(mod, acc, repeat(self.prime)))
        return OrbitScalar(self, vals) if any(vals) else self.zero
