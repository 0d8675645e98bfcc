"""Multivariate Laurent polynomials with arbitrary-precision integer coefficients.

The variables are t, z1, ..., zn; an exponent vector has arity = n + 1 slots,
slot 0 holding the exponent of t and slot i the exponent of z_i.  Here z_i
stands for the character of the i-th fundamental weight, so a weight written
in fundamental-weight coordinates maps to the monomial prod z_i^{lambda_i}.

Packed exponents (Monagan and Pearce, CASC 2007).  A monomial is one int, its
key: the exponent vector read as the digits of a number in base
B = 2^SLOT_BITS, slot 0 the most significant,

    key(e) = sum_i e_i B^(arity - 1 - i),   every |e_i| < B/2.

That is the offset-digit number with digits e_i + B/2, minus a constant bias
(the number whose digits are all B/2).  The lower slots together weigh less
than one unit of any slot above them, so:

- int order on keys is lex order on exponent vectors (t first), which is the
  canonical monomial order: max, sorting, leading, sort_key and format keep
  their meaning;
- key(e + f) = key(e) + key(f): a product of monomials, or a shift, is one
  addition, and dualize (e -> -e) negates every key;
- slot i reads as ((key + bias) >> SLOT_BITS (arity - 1 - i)) & (B - 1),
  minus B/2: a shift and a mask;
- the Weyl action is linear on the z slots: key + sum_j lambda_j (col_j -
  unit_j), over the columns of M that are not unit columns, with col_j the
  packed column j of M.

Terms are a dict ``packed`` from key to nonzero int; the zero polynomial is
the empty dict.  ``terms`` is a tuple-keyed view, decoded afresh on each read
for the readers that want exponent tuples (eval_mod, the tests): with B =
2^16, each slot of key + bias is a 16-bit field, so struct decodes every key
at once.

Evaluation mod p.  eval_mod evaluates at every point of a domain at once,
from the domain's power columns: power(i, x) is the residues of slot i's
variable to the power x at all the points, which the domain computes once
(see ``modp``), so no term costs a pow.  A term is its coefficient times the
pointwise product of the columns of its nonzero slots, and the terms are
summed as integers and reduced mod p once, at the end.  Instances are immutable by convention: no method changes the terms
after construction (a cached bound may only be tightened).

The guard.  A key is exact only while every digit stays below B/2 in absolute
value.  Every stored polynomial keeps its exponents below LIMIT = B/4, the safe
half-width, so the sum or difference of two stored keys never carries out of
a digit.  Each polynomial carries ``bound``, an upper bound on its largest
|exponent|: a product adds its operands' bounds, a sum takes their max, a
shift adds the shift's and a quotient the divisor's; weyl multiplies it by
the matrix's largest absolute row sum, a product that must stay below B/2.
A bound that reaches LIMIT is recomputed from the digits, and a polynomial
whose exponents do reach LIMIT raises OverflowError: no key wraps silently.

Exact division is by binomials only: exact_divide gives None ("not divided")
for a divisor of one term or of three or more, and RatFunc keeps such a
factor unreduced (every factor it builds is a binomial, see ``ratfunc``).
Division by a binomial d = z^m0 (c1 y + c0), y = z^(m1 - m0), is one
linear pass: the ring is free over Z[y^+-1] on one monomial per coset of
Z (m1 - m0), so the terms split into chains, each divided synthetically from
the top down.  A term e with k = e_j // s_j, for the first nonzero slot j of
the step s = m1 - m0 (which need not be primitive, as in 1 - t^2), lies on
the chain keyed by e - k s, one int multiply and subtract.  No chain is
one-sided: one chain's non-integer coefficient or remainder proves that d
does not divide; a quotient needs every chain.

Most trial divisions fail, so one chain is tested before any is divided (a
monomial f fails that test, its chain having one term; RatFunc never asks,
since no canonical factor divides a monomial).  Let w = +-(m1 - m0),
the sign that makes w lex-positive (as an int: w > 0), u = z^w, and
d = z^m (c_top u + c_bot).  If d divides f, every chain of f is a monomial
times a Laurent polynomial in u that c_top u + c_bot divides, so it has at
least two terms and vanishes at u = -c_bot / c_top.  Take the chain of the
lex-largest key e of f: no term of f lies above e, so the chain is all of e,
e - w, e - 2w, ..., one int subtraction a step, while slot j stays at or
above its least value among the terms that agree with e before slot j (w is
zero there).  Those terms are the keys from the least key with e's prefix
up, so one int filter finds the least of them, and its slot j reads by shift
and mask, cached per slot.  With a_i the coefficient at e - i w and l the
last i with a_i != 0, the chain's value at the root, cleared of
denominators, is sum_i a_i (-c_bot)^(l - i) c_top^i: integer arithmetic, no
evaluation mod p.  A nonzero value (a one-term chain gives a_0) proves that
d does not divide f; a zero proves nothing, and the chain-wise division
decides.  The walk and the chain keys stay inside the
digit range whenever bound(f) + (2 bound(f) // |s_j| + 1) 2 bound(d) < B/2;
where the bounds miss that, they are recomputed from the digits, and where
the exponents themselves miss it, exact_divide gives None.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mod, mul
from struct import Struct

__all__ = ["LIMIT", "LaurentPoly", "SLOT_BITS", "pack"]

SLOT_BITS = 16  # so a slot is a 16-bit field: whole keys decode through struct
_MASK = (1 << SLOT_BITS) - 1
_HALF = 1 << (SLOT_BITS - 1)  # every digit of a key lies strictly between -_HALF and _HALF
LIMIT = _HALF >> 1  # the safe half-width: every stored exponent lies strictly between -LIMIT and LIMIT

_LAYOUTS: dict = {}  # arity -> (bias, shift of each slot, unpacker of the slots as fields)


def _layout(arity: int):
    hit = _LAYOUTS.get(arity)
    if hit is None:
        shifts = tuple(SLOT_BITS * (arity - 1 - i) for i in range(arity))
        bias = sum(_HALF << s for s in shifts)
        hit = _LAYOUTS[arity] = (bias, shifts, Struct(f">{arity}h").unpack)
    return hit


def pack(exps) -> int:
    """The key of an exponent vector (each |exponent| below B/2)."""
    key = 0
    for x in exps:
        key = (key << SLOT_BITS) + x
    return key


def _exponents(keys, arity: int):
    """The exponent tuple of each key.  Flipping the top bit of every slot of
    key + bias (bias is those bits) leaves each exponent in its slot as a
    big-endian signed 16-bit field, so struct reads the whole tuple at once."""
    bias, _, fields = _layout(arity)
    flipped = [(k + bias) ^ bias for k in keys]
    return map(fields, map(int.to_bytes, flipped, repeat(2 * arity), repeat("big")))


def _spans(keys, arity: int):
    """Per-slot (minima, maxima) of the exponents of nonempty keys."""
    slots = list(zip(*_exponents(keys, arity)))
    return list(map(min, slots)), list(map(max, slots))


def _largest_exponent(keys, arity: int) -> int:
    if not keys:
        return 0
    lo, hi = _spans(keys, arity)
    return max(max(hi), -min(lo))


def _walk_fits(bound: int, sj: int, divisor_bound: int) -> bool:
    """Whether the refutation walk and every chain key stay inside the digit
    range, for a dividend and a binomial divisor with these bounds whose step
    has the first nonzero digit sj (module docstring)."""
    return bound + (2 * bound // abs(sj) + 1) * 2 * divisor_bound < _HALF


def _overflow(bound: int) -> OverflowError:
    return OverflowError(f"exponent {bound} reaches the packing limit {LIMIT}")


def _arity_mismatch(a: "LaurentPoly", b: "LaurentPoly") -> ValueError:
    return ValueError(f"arity mismatch: {a.arity} vs {b.arity}")


_WEYL_PLANS: dict = {}  # matrix -> (largest absolute row sum, ((slot shift, col - unit), ...))


def _weyl_plan(matrix):
    plan = _WEYL_PLANS.get(matrix)
    if plan is None:
        n = len(matrix)
        shifts = _layout(n + 1)[1]
        moves = []
        for j in range(n):
            col = sum(matrix[i][j] << shifts[i + 1] for i in range(n))
            unit = 1 << shifts[j + 1]
            if col != unit:
                moves.append((shifts[j + 1], col - unit))
        norm = max(sum(map(abs, row)) for row in matrix)
        plan = _WEYL_PLANS[matrix] = (norm, tuple(moves))
    return plan


class LaurentPoly:
    __slots__ = ("arity", "packed", "bound", "_key", "_hash", "_lead", "_floors", "_plan")

    def __init__(self, arity: int, terms: dict | None = None):
        """The polynomial with the given {exponent tuple: coefficient} terms."""
        packed = {}
        bound = 0
        if terms:
            for e, c in terms.items():
                if c:
                    if len(e) != arity:
                        raise ValueError(f"exponent {e} does not have arity {arity}")
                    bound = max(bound, *map(abs, e))
                    packed[pack(e)] = c
        if bound >= LIMIT:
            raise _overflow(bound)
        self.arity = arity
        self.packed = packed
        self.bound = bound
        self._key = self._hash = self._lead = self._floors = self._plan = None

    @classmethod
    def _make(cls, arity: int, packed: dict, bound: int) -> "LaurentPoly":
        """A polynomial on keys that the caller vouches for: no zero
        coefficient, every digit strictly between -B/2 and B/2, and bound at
        least the largest |exponent|.  The zero filter and the packing are
        skipped; a bound that reaches LIMIT is recomputed from the digits."""
        if bound >= LIMIT:
            bound = _largest_exponent(packed, arity)
            if bound >= LIMIT:
                raise _overflow(bound)
        self = object.__new__(cls)
        self.arity = arity
        self.packed = packed
        self.bound = bound
        self._key = self._hash = self._lead = self._floors = self._plan = None
        return self

    def _tighten(self) -> int:
        """Replace the bound by the largest |exponent| itself, and return it."""
        self.bound = _largest_exponent(self.packed, self.arity)
        return self.bound

    # ---------- constructors ----------

    @classmethod
    def from_packed(cls, arity: int, packed: dict) -> "LaurentPoly":
        """The polynomial with the given {key: coefficient} terms; an arity-1
        key is the exponent of t itself.  Every int is the key of one exponent
        vector in the packing's range, and decoding refuses the others."""
        packed = {e: c for e, c in packed.items() if c}
        return cls._make(arity, packed, _largest_exponent(packed, arity))

    @classmethod
    def const(cls, arity: int, c: int) -> "LaurentPoly":
        return cls._make(arity, {0: c} if c else {}, 0)

    @classmethod
    def monomial(cls, exps: tuple, c: int = 1) -> "LaurentPoly":
        return cls(len(exps), {tuple(exps): c})

    @classmethod
    def var(cls, arity: int, slot: int, exp: int = 1) -> "LaurentPoly":
        if abs(exp) >= LIMIT:
            raise _overflow(abs(exp))
        return cls._make(arity, {exp << _layout(arity)[1][slot]: 1}, abs(exp))

    @classmethod
    def t_power(cls, arity: int, exp: int) -> "LaurentPoly":
        return cls.var(arity, 0, exp)

    # ---------- basic queries ----------

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient}, decoded afresh on every read."""
        return dict(zip(_exponents(self.packed, self.arity), self.packed.values()))

    def is_one(self) -> bool:
        return len(self.packed) == 1 and self.packed.get(0) == 1

    def sort_key(self):
        """Canonical hashable key: terms sorted by descending monomial order."""
        if self._key is None:
            self._key = (self.arity, tuple(sorted(self.packed.items(), reverse=True)))
        return self._key

    def leading(self):
        """(key, coefficient) of the lex-largest monomial of a nonzero polynomial."""
        e = self._lead
        if e is None:
            e = self._lead = max(self.packed)
        return e, self.packed[e]

    def lead_floor(self, slot: int) -> int:
        """The least exponent in one slot among the terms that agree with the
        lex-largest term in every slot before it, cached per slot: the walk
        bound of the binomial refutation.  Those terms are the keys from the
        least key with that prefix up, so one int filter finds the least, and
        its slot reads by shift and mask."""
        floors = self._floors
        if floors is None:
            floors = self._floors = [None] * self.arity
        m = floors[slot]
        if m is None:
            bias, shifts, _ = _layout(self.arity)
            cut = shifts[slot] + SLOT_BITS  # the bits of the slots before this one
            prefix = (((self.leading()[0] + bias) >> cut) << cut) - bias
            least = min(filter(prefix.__le__, self.packed))
            m = floors[slot] = (((least + bias) >> shifts[slot]) & _MASK) - _HALF
        return m

    def exponent_box(self):
        """(minima, maxima): the least and the greatest exponent in each slot
        of a nonzero polynomial, in one scan of its keys."""
        return _spans(self.packed, self.arity)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.arity == other.arity and self.packed == other.packed

    def __hash__(self):
        """Cached: factors key the image table and the factor dicts of ``ratfunc``."""
        h = self._hash
        if h is None:
            h = self._hash = hash(self.sort_key())
        return h

    def __bool__(self):
        return bool(self.packed)

    # ---------- ring operations ----------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.arity != other.arity:
            raise _arity_mismatch(self, other)
        if not other.packed:
            return self
        if not self.packed:
            return other
        out = dict(self.packed)
        get = out.get
        for e, c in other.packed.items():
            out[e] = get(e, 0) + c
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return LaurentPoly._make(self.arity, out, max(self.bound, other.bound))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make(self.arity, {e: -c for e, c in self.packed.items()}, self.bound)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.arity != other.arity:
            raise _arity_mismatch(self, other)
        a, b = self.packed, other.packed
        if not a or not b:
            return LaurentPoly._make(self.arity, {}, 0)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((ea, ca),) = a.items()
            out = {ea + eb: ca * cb for eb, cb in b.items()}
        else:
            out = {}
            get = out.get
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = ea + eb
                    out[e] = get(e, 0) + ca * cb
            if 0 in out.values():
                out = {e: c for e, c in out.items() if c}
        return LaurentPoly._make(self.arity, out, self.bound + other.bound)

    def shift(self, m: int) -> "LaurentPoly":
        """Multiply by the monomial with key m (each |exponent| below LIMIT)."""
        if not m:
            return self
        mb = _largest_exponent((m,), self.arity)
        if mb >= LIMIT:
            raise _overflow(mb)
        return LaurentPoly._make(
            self.arity, {e + m: c for e, c in self.packed.items()}, self.bound + mb
        )

    # ---------- division ----------

    def exact_divide(self, d: "LaurentPoly"):
        """self / d if the binomial d divides self exactly in the Laurent ring:
        synthetic division along each chain, once the chain of the lex-largest
        term has failed to refute it (module docstring).  None ("not divided")
        otherwise, for a d of other than two terms, and where the walk would
        leave the digit range."""
        if not isinstance(d, LaurentPoly):
            raise TypeError(f"exact_divide by a {type(d).__name__}, not a LaurentPoly")
        if self.arity != d.arity:
            raise _arity_mismatch(self, d)
        if not d.packed:
            raise ZeroDivisionError("division by zero polynomial")
        if len(d.packed) != 2:
            return None
        if not self.packed:
            return LaurentPoly._make(self.arity, {}, 0)
        terms = self.packed
        m0, c0, c1, step, j, s, sj, down, c_top, c_bot = d._binomial()
        if not _walk_fits(self.bound, sj, d.bound) and not _walk_fits(
            self._tighten(), sj, d._tighten()
        ):
            return None
        # Refute first (module docstring): walk the chain of the lex-largest
        # term down slot j and evaluate it at the root of c_top u + c_bot; a
        # chain of one term is refuted by its own nonzero coefficient.
        bias = _layout(self.arity)[0]
        e, v = self.leading()
        ej = (((e + bias) >> s) & _MASK) - _HALF
        last, top_power = 0, 1
        for i in range(1, (ej - self.lead_floor(j)) // abs(sj) + 1):
            e += down
            top_power *= c_top
            c = terms.get(e)
            if c:
                v = v * (-c_bot) ** (i - last) + c * top_power
                last = i
        if v:
            return None
        chains: dict = {}  # e - k * step -> {k: coefficient at e}
        for e, c in terms.items():
            k = ((((e + bias) >> s) & _MASK) - _HALF) // sj
            chains.setdefault(e - k * step, {})[k] = c
        if 1 in map(len, chains.values()):
            return None
        quo: dict = {}
        for rep, chain in chains.items():
            # (c1 y + c0) sum q_k y^k has a_k = c1 q_{k-1} + c0 q_k: solve top down
            lo, hi = min(chain), max(chain)
            e = rep + hi * step - m0
            q = 0
            for k in range(hi, lo, -1):
                q, r = divmod(chain.get(k, 0) - c0 * q, c1)
                if r:
                    return None
                e -= step
                if q:
                    quo[e] = q
            if chain[lo] != c0 * q:
                return None
        return LaurentPoly._make(self.arity, quo, self.bound + d.bound)

    def _binomial(self):
        """The division data of a binomial c1 z^m1 + c0 z^m0, computed once:
        (m0, c0, c1, the step m1 - m0, its first nonzero slot j with that
        slot's shift and digit s_j, and -w, c_top and c_bot of the walk)."""
        if self._plan is None:
            (m1, c1), (m0, c0) = self.packed.items()
            bias, shifts, _ = _layout(self.arity)
            step = m1 - m0
            for j, s in enumerate(shifts):
                sj = (((step + bias) >> s) & _MASK) - _HALF
                if sj:
                    break
            if step > 0:
                down, c_top, c_bot = -step, c1, c0
            else:
                down, c_top, c_bot = step, c0, c1
            self._plan = (m0, c0, c1, step, j, s, sj, down, c_top, c_bot)
        return self._plan

    # ---------- substitutions ----------

    def weyl(self, matrix) -> "LaurentPoly":
        """Apply a Weyl group element to the characters: z^lam -> z^(M lam), t fixed.

        matrix is an n x n tuple-of-tuples acting on fundamental-weight
        coordinates (column vectors).
        """
        norm, moves = _weyl_plan(matrix)
        if not moves:
            return self
        if self.bound * norm >= _HALF and self._tighten() * norm >= _HALF:
            raise _overflow(self.bound * norm)
        bias = _layout(self.arity)[0]
        out = {}
        for e, c in self.packed.items():
            b = e + bias
            for s, delta in moves:
                e += (((b >> s) & _MASK) - _HALF) * delta
            out[e] = c  # M is invertible: no two terms meet
        return LaurentPoly._make(self.arity, out, self.bound * norm)

    def dualize(self) -> "LaurentPoly":
        """Substitution t -> t^-1 and z_i -> z_i^-1: every key negated."""
        return LaurentPoly._make(self.arity, {-e: c for e, c in self.packed.items()}, self.bound)

    def embed(self, arity: int, slots: tuple) -> "LaurentPoly":
        """Re-embed into a ring of the given arity, slot i -> slots[i]."""
        to = [_layout(arity)[1][i] for i in slots]
        out = {}
        for e, c in zip(_exponents(self.packed, self.arity), self.packed.values()):
            out[sum(x << t for x, t in zip(e, to))] = c
        return LaurentPoly._make(arity, out, self.bound)

    # ---------- evaluation ----------

    def eval_mod(self, power, p: int) -> tuple:
        """The residues mod p at every point of an evaluation domain, from its
        power columns: power(i, x) is slot i's variable to the power x at each
        point, and power(0, 0) is all ones, which sizes the result.  Each term
        is its coefficient times the product of its nonzero slots' columns;
        the terms are summed as integers and reduced mod p once.  The zero
        polynomial gives zeros, a constant c gives c mod p at every point."""
        acc = [0] * len(power(0, 0))
        for e, c in self.terms.items():
            vals = repeat(c)
            for i, x in enumerate(e):
                if x:
                    vals = map(mul, vals, power(i, x))
            acc = list(map(add, acc, vals))
        return tuple(map(mod, acc, repeat(p)))

    # ---------- text form ----------

    def format(self) -> str:
        """Canonical text form: terms in descending monomial order.

        Each term prints as `c * t^a * z1^b1 * ...`, omitting factors with
        zero exponent, `^1` on single powers, and `c *` when c is 1 and at
        least one variable factor is present.
        """
        if not self.packed:
            return "0"
        names = ["t"] + [f"z{i}" for i in range(1, self.arity)]
        parts = []
        keys = sorted(self.packed, reverse=True)
        for k, e in zip(keys, _exponents(keys, self.arity)):
            c = self.packed[k]
            factors = []
            for name, x in zip(names, e):
                if x == 1:
                    factors.append(name)
                elif x != 0:
                    factors.append(f"{name}^{x}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(" * ".join(factors))
            elif c == -1:
                parts.append("-" + " * ".join(factors))
            else:
                parts.append(f"{c} * " + " * ".join(factors))
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return f"LaurentPoly({self.format()})"
