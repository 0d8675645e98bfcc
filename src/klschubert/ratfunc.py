"""Exact rational functions over the Laurent ring.

A RatFunc is a fraction num/den of multivariate Laurent polynomials.  The
denominator is stored in factored form only, as a multiset of canonical
polynomial factors (no monomial content, positive leading coefficient), such
as 1 - e^{-a}, t^2 - e^{-a} or 1 - t^{-2} e^{a}.  Every denominator the
paper inverts is such a polynomial, never an integer; an integer left in a
denominator is just a factor, such as the constant 2, and 1/2 is the
numerator 1 over it.  No multivariate GCD is ever run, and no integer
content is divided out; factors are cancelled where a cancellation can
happen, by ``_cancel``:

- ``from_den_factors`` and ``inv``: the numerator against the new factors;
- ``sum``, and ``+`` as its two-term case: all the terms over one common
  denominator (the union of the factors at their largest multiplicity),
  cancelled once, not after every addition;
- ``*``: each numerator against the other operand's factors only, the rule
  for products of reduced fractions (Henrici 1956; Knuth, TAOCP 2, 4.5.1).

A cancellation is a trial ``LaurentPoly.exact_divide``, by binomials only, as
every factor built from root factors and normalizers is; a factor of one
term (an integer) or of three or more is kept, so its fraction stays
correct, only unreduced.  The operands of +, -, *, / and == are RatFuncs
(make an int one by ``from_int``).

Monomials are packed int keys (see ``laurent``): a factor's monomial content
is one key, and stripping it from the factor, or moving it onto the
numerator, subtracts that key from every key of the polynomial.

``weyl`` and ``dualize`` do not cancel: they are ring automorphisms that map
canonical factors to canonical factors up to units, so a fraction with no
cancellable factor keeps none.  Over irreducible binomial factors the stored
fraction is therefore reduced; otherwise it may not be, and equality is
semantic, by cross-multiplication, either way.  The normalized image of a
canonical factor under a Weyl matrix, or under dualize, is computed once per
process, in the table ``_IMAGES``; numerators are mapped on every call.

The orbit-point domain in ``modp`` evaluates a fraction modulo the fixed
published 62-bit prime ``FIXED_PRIME``: the numerator and each canonical
factor through ``LaurentPoly.eval_mod``, which reads the domain's table of
power columns (each coordinate to each exponent at every orbit point), each
factor's residue vector, an integer factor's included, inverted in one batch.
``modp`` states the Schwartz-Zippel bound.
"""

from __future__ import annotations

from operator import sub

from .laurent import LaurentPoly, pack

__all__ = ["RatFunc", "FIXED_PRIME"]

# Largest 62-bit prime, 2^62 - 57.
FIXED_PRIME = 4611686018427387847


# Weyl matrix, or "dualize" -> {canonical factor: _normalize_factor of its image}
_IMAGES: dict = {}


def _normalize_factor(f: LaurentPoly):
    """Split f = sign * monomial * canon with canon canonical.

    canon has componentwise-minimal exponents 0 and a positive leading
    coefficient; its integer content stays, so a constant is its own canon.
    Returns (sign, the monomial's key, canon), sign being 1 or -1.
    """
    if not f.packed:
        raise ZeroDivisionError("zero polynomial in a denominator")
    lo, hi = f.exponent_box()
    mc = pack(lo)
    sign = -1 if f.leading()[1] < 0 else 1
    # stripping the monomial subtracts one key from every key, keeping lex order
    canon = LaurentPoly._make(
        f.arity, {e - mc: sign * c for e, c in f.packed.items()}, max(map(sub, hi, lo))
    )
    return sign, mc, canon


def _times(num: LaurentPoly, pairs) -> LaurentPoly:
    """num * prod f^mult over the (f, mult) pairs."""
    for f, mult in pairs:
        for _ in range(mult):
            num = num * f
    return num


def _cancel(num: LaurentPoly, facs: tuple):
    """Divide num by each factor as often as it goes: (quotient, factors left).
    A canonical factor is no unit, so it divides no monomial."""
    if not num.packed:
        return num, ()
    if len(num.packed) == 1:
        return num, facs
    kept = []
    for f, mult in facs:
        while mult:
            q = num.exact_divide(f)
            if q is None:
                break
            num, mult = q, mult - 1
        if mult:
            kept.append((f, mult))
    return num, tuple(kept)


class RatFunc:
    """num / prod factor^mult, with factors canonical and sorted."""

    __slots__ = ("num", "facs")

    def __init__(self, num: LaurentPoly, facs: tuple = ()):
        self.num = num
        self.facs = facs if num.packed else ()

    # ---------- constructors ----------

    @classmethod
    def from_int(cls, arity: int, c: int) -> "RatFunc":
        return cls(LaurentPoly.const(arity, c))

    @classmethod
    def from_den_factors(cls, num: LaurentPoly, factors) -> "RatFunc":
        """num divided by a product of polynomial factors (each may repeat)."""
        bag: dict = {}
        for f in factors:
            sign, mc, canon = _normalize_factor(f)
            num = num.shift(-mc)
            if sign < 0:
                num = -num
            if not canon.is_one():
                key = canon.sort_key()
                if key in bag:
                    bag[key] = (canon, bag[key][1] + 1)
                else:
                    bag[key] = (canon, 1)
        return cls(*_cancel(num, tuple(bag[k] for k in sorted(bag))))

    @classmethod
    def fraction(cls, num: LaurentPoly, den: LaurentPoly) -> "RatFunc":
        return cls.from_den_factors(num, [den])

    # ---------- views ----------

    @property
    def arity(self) -> int:
        return self.num.arity

    def __bool__(self):
        return bool(self.num.packed)

    # ---------- arithmetic ----------

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc.sum((self, other), self.arity)

    @classmethod
    def sum(cls, terms, arity: int) -> "RatFunc":
        """The sum of the fractions in terms (zero for none), over one common
        denominator: the union of their factors, each at its largest
        multiplicity.  The numerator is cancelled against it once, not after
        every addition."""
        terms = [r for r in terms if r.num.packed]
        if len(terms) <= 1:
            return terms[0] if terms else cls.from_int(arity, 0)
        union: dict = {}
        for r in terms:
            for f, mult in r.facs:
                if union.get(f, 0) < mult:
                    union[f] = mult
        nums = []
        for r in terms:
            own = dict(r.facs)
            missing = ((f, mult - own.get(f, 0)) for f, mult in union.items())
            nums.append(_times(r.num, missing))
        facs = tuple(sorted(union.items(), key=lambda kv: kv[0].sort_key()))
        return cls(*_cancel(sum(nums[1:], nums[0]), facs))

    def __neg__(self):
        return RatFunc(-self.num, self.facs)

    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        # both operands are reduced, so a factor can only cancel across them
        num_a, kept_b = _cancel(self.num, other.facs)
        num_b, kept_a = _cancel(other.num, self.facs)
        bag = dict(kept_a)
        for f, mult in kept_b:
            bag[f] = bag.get(f, 0) + mult
        facs = tuple(sorted(bag.items(), key=lambda kv: kv[0].sort_key()))
        return RatFunc(num_a * num_b, facs)

    def inv(self) -> "RatFunc":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        sign, mc, canon = _normalize_factor(self.num)
        num = _times(LaurentPoly.const(self.arity, sign).shift(-mc), self.facs)
        return RatFunc(*_cancel(num, () if canon.is_one() else ((canon, 1),)))

    def __truediv__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self * other.inv()

    # ---------- semantic equality ----------

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.num.arity != other.num.arity:
            return False
        if self.facs == other.facs:
            return self.num == other.num
        # cancel shared factors before cross-multiplying
        a, b = dict(self.facs), dict(other.facs)
        for f in list(a):
            if f in b:
                m = min(a[f], b[f])
                a[f] -= m
                b[f] -= m
        return _times(self.num, b.items()) == _times(other.num, a.items())

    __hash__ = None  # semantic equality classes are not hashable

    # ---------- substitutions ----------

    def _map(self, fn, tag) -> "RatFunc":
        # no cancellation: fn is a ring automorphism, so no image factor divides the image num
        num = fn(self.num)
        images = _IMAGES.setdefault(tag, {})
        bag: dict = {}
        for f, mult in self.facs:
            hit = images.get(f)
            if hit is None:
                hit = images[f] = _normalize_factor(fn(f))
            sign, mc, canon = hit
            if sign < 0 and mult % 2:
                num = -num
            for _ in range(mult):
                num = num.shift(-mc)
            if not canon.is_one():
                bag[canon] = bag.get(canon, 0) + mult
        facs = tuple(sorted(bag.items(), key=lambda kv: kv[0].sort_key()))
        return RatFunc(num, facs)

    def weyl(self, matrix) -> "RatFunc":
        return self._map(lambda p: p.weyl(matrix), matrix)

    def dualize(self) -> "RatFunc":
        return self._map(LaurentPoly.dualize, "dualize")

    # ---------- printing ----------

    def format(self) -> str:
        den = _times(LaurentPoly.const(self.arity, 1), self.facs)
        return f"({self.num.format()})/({den.format()})"

    def __repr__(self):
        return f"RatFunc{self.format()}"

