"""Named verification suites over one group: every suite re-derives a theorem
case by case and run_suite collects the cases into a deterministic report.

A suite is a generator of CaseResults.  Every case that is an equality goes
through one check, _case(case_id, lhs, rhs): lhs == rhs, the scalars' own
equality for scalars and, coefficient by coefficient, for classes and
operators, with both sides printed as the witness on failure.  The few
verdicts that are not an equality (an inequality, a mismatch, a
combinatorial check) are yielded as CaseResults directly, and so are the
inversion cases of a u whose sums all hold, which are compared at once as one
packed int (see _inversion_cases), and, mod p, the cases of a pairing matrix
that passes Freivalds' check: the two sides are families of
Localization.class_sum, and one random sum of each is paired (see
_pairing_cases).  A row or matrix that fails its check is read entry by
entry, so every failing case keeps its own witness.

Suites run either exactly or in modp mode; the latter evaluates the whole
computation in one orbit domain holding k Weyl-orbit point families drawn
from the run seed, and each scalar holds its residues at 4 points of each
family: the base point P, w0 P and their inverses.  Scalars are equal only if
they agree at every one of them, so a case passes only if it passes at every
family; a failing modp case prints the residue at family 0's base point as
its witness.  Exact mode is the oracle for modp mode: a true identity can
never fail modp, so any modp failure is a real failure.  Exact mode builds
every pairing entry, so each of its verdicts is checked entry by entry.

The group is enumerated under the suite's size guard (``comb_guard`` for
zelevinsky, ``hecke_guard`` for every other suite), so an oversized run is
refused with ``GuardRefusal`` before the whole group is built.

Reports are plain data with a stable JSON form: no timing inside, so equal
configurations give byte-identical output.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .grassmannian import (
    GrassData,
    Partition,
    enumerate_tilings,
    label_sets,
    stabilizer_chain,
    v_word,
    word_of_partition,
)
from .hecke import HeckeAlgebra, balanced_digits
from .laurent import LaurentPoly
from .localization import CohClass, Localization
from .modp import ExactDomain, OrbitDomain
from .ratfunc import RatFunc
from .rootsystem import CartanData, RootSystem, SizeCapExceeded
from .twisted import psi

__all__ = ["RunConfig", "CaseResult", "VerificationReport", "run_suite", "SUITES", "GuardRefusal"]


class GuardRefusal(RuntimeError):
    """The requested suite exceeds the configured size guards."""


@dataclass(frozen=True)
class RunConfig:
    type_label: str = "A"
    rank: int | None = None
    n: int | None = None
    d: int | None = None
    mode: str = "exact"
    k: int = 3
    seed: int = 0
    hecke_guard: int = 720
    comb_guard: int = 5040
    serre_samples: int = 100

    def __post_init__(self):
        """Refuse a bad type, rank, mode, k, serre_samples or d: the config is
        frozen, so it is checked once, when it is made."""
        self.cartan()
        if self.d is not None and (self.n is None or not 1 <= self.d < self.n):
            raise ValueError(f"d = {self.d} needs n with 1 <= d < n, got n = {self.n}")
        if self.mode not in ("exact", "modp"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.k < 1:
            raise ValueError(f"k = {self.k} is below 1; mod p needs at least one point family")
        if self.serre_samples < 0:
            raise ValueError(f"serre_samples = {self.serre_samples} is below 0")

    def cartan(self) -> CartanData:
        """A_{n-1} when n is set, else A_rank (A2 when neither is); every other
        type, a rank other than n - 1 and a rank below 1 are refused."""
        if self.type_label != "A":
            raise ValueError(f"RunConfig builds type A only, not type {self.type_label!r}")
        if self.n is None:
            rank = 2 if self.rank is None else self.rank
        elif self.rank in (None, self.n - 1):
            rank = self.n - 1
        else:
            raise ValueError(
                f"rank {self.rank} conflicts with n = {self.n}; A_(n-1) has rank n - 1"
            )
        if rank < 1:
            raise ValueError(f"rank {rank} is below 1; A_rank needs rank >= 1 (n >= 2)")
        return CartanData.type_a(rank)

    def grass(self) -> GrassData:
        if self.d is None:
            raise ValueError("this suite needs --n and --d")
        return GrassData(self.n, self.d)

    def params_dict(self) -> dict:
        cartan = self.cartan()
        out = {"type": cartan.type_label, "rank": cartan.rank}
        if self.n is not None:
            out["n"] = self.n
        if self.d is not None:
            out["d"] = self.d
        return out


@dataclass(slots=True)
class CaseResult:
    case_id: str
    ok: bool
    witness: str | None = None


@dataclass
class VerificationReport:
    suite: str
    params: dict
    mode: str
    seed: int
    cases: list = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.ok)

    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json(self) -> str:
        """The report as compact JSON with sorted keys, format_version 1: the
        bytes json.dumps(sort_keys=True, separators=(",", ":")) gives for the
        report as one dict, built from a string fragment per case, not a dict."""
        dump = json.dumps
        cases = ",".join(
            f'{{"id":{dump(c.case_id)},"pass":{"true" if c.ok else "false"}'
            + ("}" if c.witness is None else f',"witness":{dump(c.witness)}}}')
            for c in self.cases
        )
        params = json.dumps(self.params, sort_keys=True, separators=(",", ":"))
        return (
            f'{{"cases":[{cases}],"failed":{self.failed},"format_version":1,'
            f'"mode":{dump(self.mode)},"params":{params},"passed":{self.passed},'
            f'"seed":{dump(self.seed)},"suite":{dump(self.suite)}}}'
        )


# characters of each side that a failing case's witness keeps: an exact
# witness prints whole classes, 68 000 characters a side at A3
WITNESS_CHARS = 200


def _witness(lhs, rhs) -> str:
    def fmt(x):
        text = x.format() if isinstance(x, (RatFunc, CohClass)) else repr(x)
        if len(text) <= WITNESS_CHARS:
            return text
        return f"{text[:WITNESS_CHARS]}... [{len(text)} chars]"

    return f"lhs={fmt(lhs)} rhs={fmt(rhs)}"


def _case(case_id: str, lhs, rhs, witness: str | None = None) -> CaseResult:
    """The case "lhs == rhs" for scalars, classes, operators or exact values;
    on failure the given witness, else both sides printed."""
    ok = lhs == rhs
    return CaseResult(case_id, ok, None if ok else witness or _witness(lhs, rhs))


def _pairing_cases(loc, case_id, keys, families, diag, J, serre_id=None):
    """The cases "<F_a, G_b>_J = diag if a is b else 0" for every a, then b, in
    keys (all of W^J), then with serre_id "D_J(F_a) = F_a", named from the keys
    printed once; F and G are the two families of Localization.class_sum, so a
    side sums its classes over any weights, and F_a is the sum of one.  Mod p,
    U = sum r_a F_a and V = sum s_b G_b for random r and s (Freivalds 1977) are
    checked first: <U, V>_J against diag times the sum of r_a s_a, and D_J(U)
    against U; a check that holds passes its cases.  Else, and in exact mode,
    each case goes through _case with its witness."""
    dom, one = loc.dom, loc.dom.one
    left, right = (functools.partial(loc.class_sum, family, J=J) for family in families)
    names = [repr(a) for a in keys]
    paired = served = False
    if dom.kind == "modp":
        weights = dom.random_weights(2 * len(keys))
        r, s = weights[: len(keys)], weights[len(keys) :]
        u, v = left(dict(zip(keys, r))), right(dict(zip(keys, s)))
        paired = loc.pairing_matrix([u], [v], J)[0][0] == diag * dom.dot(r, s)
        served = serre_id is None or loc.serre_dual(u, J) == u
    fs = [] if paired and served else [left({a: one}) for a in keys]
    if paired:
        yield from (CaseResult(case_id(na, nb), True) for na in names for nb in names)
    else:
        matrix = loc.pairing_matrix(fs, [right({b: one}) for b in keys], J)
        for a, na, row in zip(keys, names, matrix):
            for b, nb, val in zip(keys, names, row):
                yield _case(case_id(na, nb), val, diag if a is b else dom.zero)
    if serre_id is None:
        return
    if served:
        yield from (CaseResult(serre_id(na), True) for na in names)
    else:
        yield from (_case(serre_id(na), loc.serre_dual(f, J), f) for na, f in zip(names, fs))


def _inversion_cases(prefix: str, elements: list, q_rows: dict, p_rows: dict):
    """The cases "sum over w of eps_u eps_w Q_{u,w} P_{w,v} = delta_uv" for every
    u, then every v, in elements, from the rows of HeckeAlgebra.inversion_rows:
    Q_{u,w} = q_rows[u.idx][w.idx] and P_{w,v} = p_rows[w.idx][v.idx], q-polynomials
    as ascending coefficient tuples, absent where zero.  "{prefix} u={u!r} v={v!r}"
    names each case, each element printed once per call.  The sums run on packed
    ints (Kronecker substitution, as in hecke), each distinct polynomial packed
    once: row w packs its P_{w,v} into one int, times eps_w, q^j of the i-th v
    at slot S i + j with S slots a block, so sum_w Q_{u,w} eps_w row_w packs
    the sums of every v at once and is compared, as one int, with the packing
    of eps_u delta_u; each sign is read from the parity of a length.  The slot
    width is taken from the values themselves: every coefficient of every sum
    is at most the largest sum, over the w with a nonzero row, of the
    |coefficients| of Q_{u,w}, times the largest |coefficient| of a P_{w,v},
    so the ints are equal exactly when every sum is right.  Only a u with a
    wrong sum reads its sums back, as {q-power: coefficient} in ascending order
    with zeros dropped, and checks each through _case.  The support comes from
    the values, not from Bruhat order, so a wrong nonzero value anywhere still
    breaks a case."""
    lengths = elements[0].system._lengths
    rows = {w: row for w, row in p_rows.items() if row}
    qs = [{w: q for w, q in q_rows[u.idx].items() if w in rows} for u in elements]
    p_polys = {p for row in rows.values() for p in row.values()}
    masses = {q: sum(map(abs, q)) for qu in qs for q in qu.values()}
    slots = max(map(len, p_polys), default=1) + max(map(len, masses), default=1) - 1
    pmax = max((abs(c) for p in p_polys for c in p), default=0)
    qmass = max((sum(map(masses.__getitem__, qu.values())) for qu in qs), default=0)
    width = (qmass * pmax + 1).bit_length() + 1
    block = width * slots
    packs = {p: sum(c << width * j for j, c in enumerate(p)) for p in p_polys | masses.keys()}
    pos = {v.idx: i for i, v in enumerate(elements)}
    packed = {}
    for w, row in rows.items():
        total = sum(packs[p] << block * pos[v] for v, p in row.items())
        packed[w] = -total if lengths[w] & 1 else total
    names = [repr(v) for v in elements]
    for n, (u, qu) in enumerate(zip(elements, qs)):
        total = sum(packs[q] * packed[w] for w, q in qu.items())
        if lengths[u.idx] & 1:
            total = -total
        row_id = f"{prefix} u={names[n]} v="
        if total == 1 << block * n:
            for name in names:
                yield CaseResult(row_id + name, True)
            continue
        digits = balanced_digits(total, width)
        for i, v in enumerate(elements):
            acc = {j: c for j, c in enumerate(digits[slots * i : slots * (i + 1)]) if c}
            yield _case(row_id + names[i], acc, {0: 1} if u is v else {})


# ---------- context ----------


class _Context:
    """The group, its Hecke algebra and one localization over the run's domain.

    The group is enumerated under the suite's size guard, so an oversized run
    is refused before the whole group is built.  The localization and its
    scalar domain are built on first use: suites that never touch a scalar
    (inversion, and zelevinsky beyond ``hecke_guard``) never pay for them.
    """

    def __init__(self, cfg: RunConfig, suite: str, guard: int):
        self.cfg = cfg
        try:
            self.system = RootSystem(cfg.cartan(), size_cap=guard)
        except SizeCapExceeded as exc:
            raise GuardRefusal(f"suite {suite}: |W| exceeds the size guard {guard}") from exc
        self.hecke = HeckeAlgebra(self.system)

    @functools.cached_property
    def loc(self) -> Localization:
        if self.cfg.mode == "exact":
            dom = ExactDomain(self.system)
        else:
            dom = OrbitDomain(self.system, self.cfg.seed * 1000003, self.cfg.k)
        return Localization(self.system, dom, self.hecke)


# ---------- individual suites ----------


def suite_braid(ctx: _Context):
    system = ctx.system
    C = system.cartan_data.cartan
    n = system.rank
    qm, qt = ctx.loc.mult, ctx.loc.hyp

    def braid_order(i, j):
        return {0: 2, 1: 3, 2: 4, 3: 6}[C[i][j] * C[j][i]]

    tinv_minus_t = RatFunc(LaurentPoly.t_power(n + 1, -1) - LaurentPoly.t_power(n + 1, 1))
    for i in range(n):
        g = qm.dl_generator(i)
        lhs = qm.qw_mul(g, g)
        rhs = g.scale(qm.as_scalar(tinv_minus_t)) + qm.delta(system.identity)
        yield _case(f"quadratic tau_{i + 1}", lhs, rhs, "quadratic relation failed")
    for i in range(n):
        for j in range(i + 1, n):
            m = braid_order(i, j)
            a, b = qm.delta(system.identity), qm.delta(system.identity)
            for step in range(m):
                a = qm.qw_mul(a, qm.dl_generator(i if step % 2 == 0 else j))
                b = qm.qw_mul(b, qm.dl_generator(j if step % 2 == 0 else i))
            witness = f"braid relation of order {m} failed"
            yield _case(f"braid tau_{i + 1} tau_{j + 1}", a, b, witness)
    # hyperbolic push-pull operators are word-dependent: witness an inequality
    for i in range(n):
        for j in range(i + 1, n):
            if braid_order(i, j) != 3:
                continue
            y1, y2 = qt.pushpull_rel((i,), ()), qt.pushpull_rel((j,), ())
            lhs = qt.times_pushpull(qt.times_pushpull(y1, (j,), ()), (i,), ())
            rhs = qt.times_pushpull(qt.times_pushpull(y2, (i,), ()), (j,), ())
            differ = lhs != rhs
            witness = None if differ else "hyperbolic Y-products unexpectedly agree"
            yield CaseResult(f"hyperbolic braid inequality Y_{i + 1} Y_{j + 1}", differ, witness)


def suite_duality(ctx: _Context):
    loc = ctx.loc
    yield from _pairing_cases(
        loc, lambda w, v: f"<C[{w}], Ct[{v}]>", ctx.system.elements, ("C", "C~"),
        loc.pairing_normalizer(), (),
    )


def suite_orthogonality(ctx: _Context):
    loc = ctx.loc
    yield from _pairing_cases(
        loc, lambda u, v: f"<MC[{u}], SMC[{v}]>", ctx.system.elements, ("MC", "SMC"),
        loc.dom.one, (),
    )


def suite_serre(ctx: _Context):
    system = ctx.system
    loc = ctx.loc
    for w in system.elements:
        cw = loc.kl_class_c(w)
        yield _case(f"D(C[{w!r}]) = C[{w!r}]", loc.serre_dual(cw), cw)
    for s in range(ctx.cfg.serre_samples):
        c = loc.random_class(ctx.cfg.seed * 7919 + s)
        yield _case(
            f"D^2 = id sample {s}",
            loc.serre_dual(loc.serre_dual(c)),
            c,
            f"duality involution failed on sample {s}",
        )


def suite_psi(ctx: _Context):
    system = ctx.system
    loc = ctx.loc
    for i in range(system.rank):
        yield _case(
            f"psi(tau_{i + 1}) = mu Y_{i + 1} - t",
            psi(loc.mult.dl_generator(i), loc.hyp),
            loc.hyp.dl_generator(i),  # mu Y_i - t by construction
            "transfer of the Hecke generator failed",
        )
    # g sends the hyperbolic x to the multiplicative one (exact fractions)
    hyp_model = loc.hyp.model
    mult_model = loc.mult.model
    weights = [r.weight for r in system.simple_roots]
    weights += [
        tuple(1 if j == i else 0 for j in range(system.rank)) for i in range(system.rank)
    ]
    names = [f"alpha_{i + 1}" for i in range(system.rank)] + [
        f"omega_{i + 1}" for i in range(system.rank)
    ]
    for name, lam in zip(names, weights):
        yield _case(
            f"g(x^t) = 1 - e^-lambda at {name}",
            hyp_model.fgl_morphism_g(hyp_model.x_weight(lam)),
            mult_model.x_weight(lam),
        )
    # psi of (1 - t^-2 e^a)/(1 - e^a) is t^-1 mu / x^t_{-a} (exact fractions)
    arity = system.rank + 1
    for idx, alpha in enumerate(system.positive_roots):
        e_a = LaurentPoly.monomial((0,) + alpha.weight, 1)
        one = LaurentPoly.const(arity, 1)
        lhs = RatFunc.from_den_factors(one - LaurentPoly.t_power(arity, -2) * e_a, [one - e_a])
        tinv_mu = RatFunc(LaurentPoly.const(arity, 1) + LaurentPoly.t_power(arity, -2))
        rhs = tinv_mu * hyp_model.x_weight_inv(tuple(-x for x in alpha.weight))
        yield _case(f"psi smoothness factor at positive root {idx}", lhs, rhs)


def _jtxt(J) -> str:
    """A subset of simple reflections as 1-based labels, "-" when empty."""
    return ",".join(str(x + 1) for x in J) or "-"


def _zero_based(labels) -> tuple:
    """1-based simple-root labels as sorted 0-based indices."""
    return tuple(x - 1 for x in sorted(labels))


def _subsets(n):
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


def suite_gammapsirel(ctx: _Context):
    system = ctx.system
    loc = ctx.loc
    for J in _subsets(system.rank):
        for Jp in _subsets(system.rank):
            if not set(Jp) <= set(J):
                continue
            top = system.relative_longest(J, Jp).length
            lhs = psi(loc.mult.hecke_to_qw(ctx.hecke.gamma_rel(J, Jp)), loc.hyp)
            lhs = loc.hyp.times_pushpull(lhs, Jp, ())
            lhs = lhs.scale(loc.hyp.inv_mu_power(top))
            yield _case(
                f"gamma transfer J={{{_jtxt(J)}}} J'={{{_jtxt(Jp)}}}",
                lhs,
                loc.hyp.pushpull_rel(J, ()),
                "transfer of the relative basis element failed",
            )


def suite_inversion(ctx: _Context):
    system = ctx.system
    h = ctx.hecke
    p_rows, q_rows = h.inversion_rows(())
    yield from _inversion_cases("inversion", system.elements, q_rows, p_rows)
    for J in _subsets(system.rank):
        p_rows, q_rows = h.inversion_rows(J)
        yield from _inversion_cases(
            f"parabolic inversion J={{{_jtxt(J)}}}", system.minimal_coset_reps(J), q_rows, p_rows
        )


def suite_smoothness(ctx: _Context):
    system = ctx.system
    h = ctx.hecke
    loc = ctx.loc
    for w in system.elements:
        case_id = f"smoothness/fundamental class w={w!r}"
        smooth, _ = loc.is_smooth(w)
        trivial_kl = all(h.kl_polynomial(v, w) == (1,) for v in system.bruhat_interval(w))
        if smooth != trivial_kl:
            witness = f"smoothness criterion ({smooth}) disagrees with trivial KL ({trivial_kl})"
            yield CaseResult(case_id, False, witness)
        elif not smooth:
            yield CaseResult(case_id, True)
        else:
            yield _case(case_id, loc.kl_schubert(w), loc.fundamental_class_smooth(w))


def suite_parabolic_duality(ctx: _Context):
    cfg = ctx.cfg
    system = ctx.system
    loc = ctx.loc
    if cfg.d is not None:
        Js = [cfg.grass().J_indices()]
    else:
        Js = [J for J in _subsets(system.rank) if len(J) < system.rank]
    for J in Js:
        reps = system.minimal_coset_reps(J)
        tag = f"J={{{_jtxt(J)}}} "
        yield from _pairing_cases(
            loc, lambda u, v: f"{tag}<MC[{u}], SMC[{v}]>_J", reps, ("MC", "SMC"), loc.dom.one, J
        )
        yield from _pairing_cases(
            loc, lambda w, u: f"{tag}<C^J[{w}], Ct^J[{u}]>_J", reps, ("C", "C~"),
            loc.pairing_normalizer(J), J, serre_id=lambda w: f"{tag}D_J(C^J[{w}]) = C^J[{w}]",
        )


def suite_pushforward(ctx: _Context):
    system = ctx.system
    loc = ctx.loc
    for J in _subsets(system.rank):
        jtxt = _jtxt(J)
        wj = system.longest_parabolic(J)
        yj, scalar = loc.mult.pushpull_rel(J, ()), loc.pushforward_scalar(J)
        for w in system.minimal_coset_reps(J):
            lhs = loc.bullet(yj, loc.kl_class_c(w * wj))
            rhs = loc.pullback(loc.kl_class_c_parabolic(w, J).scale(scalar), J)
            yield _case(f"pushforward J={{{jtxt}}} w={w!r}", lhs, rhs)


def suite_grassmann_smoothness(ctx: _Context):
    """Parabolic smoothness transfer on one Grassmannian."""
    g = ctx.cfg.grass()
    system = ctx.system
    loc = ctx.loc
    J = g.J_indices()
    wj = system.longest_parabolic(J)
    for w in system.minimal_coset_reps(J):
        case_id = f"Grassmann smoothness w={w!r}"
        target = w * wj
        smooth, _ = loc.is_smooth(target)
        if not smooth:
            yield CaseResult(case_id, True)
            continue
        lhs = loc.kl_schubert(target)
        if not loc.is_invariant(lhs, J):
            witness = "canonical class is not invariant under the parabolic subgroup"
            yield CaseResult(case_id, False, witness)
            continue
        yield _case(case_id, lhs, loc.fundamental_class_smooth(target))


def suite_zelevinsky(ctx: _Context):
    cfg = ctx.cfg
    g = cfg.grass()
    system = ctx.system
    algebra_ok = system.order <= cfg.hecke_guard
    h = ctx.hecke
    J = g.J_indices()
    lambdas = _partitions_in_box(g.d, g.n - g.d)
    for lam in lambdas:
        lam_txt = ",".join(str(x) for x in lam.parts) or "empty"
        tilings = enumerate_tilings(lam, g)
        w_lam = system.from_word([x - 1 for x in word_of_partition(lam, g)])
        target = w_lam * system.longest_parabolic(J)
        if algebra_ok:
            gamma_target = h.kl_basis(target)
            basis, class_witness = _transferred_basis(ctx, target)
        shared = 0
        for t_idx, tiling in enumerate(tilings):
            tag = f"lambda=({lam_txt}) tiling#{t_idx}"
            ls = label_sets(tiling, g)
            subsets = [_rect_subsets(ls, i) for i in range(tiling.r)]
            # reduced-word refactoring: concatenated rectangle words = w_lambda
            concat = []
            for rect in tiling.rectangles:
                concat.extend(v_word(rect, g))
            wcat = system.from_word([x - 1 for x in concat])
            ok = wcat is w_lam and len(concat) == w_lam.length
            yield CaseResult(f"{tag} refactored reduced word", ok)
            # relative longest elements and their lengths
            ok = True
            witness = None
            for i, rect in enumerate(tiling.rectangles):
                Ji, Jpi, Ki, Kpi = subsets[i]
                wk = system.relative_longest(Ki, Kpi)
                wjrel = system.relative_longest(Ji, Jpi)
                vi = system.from_word([x - 1 for x in v_word(rect, g)])
                if not (wk is vi and wjrel is vi and wk.length == rect.p * rect.q):
                    ok = False
                    witness = f"rectangle {i}: relative longest mismatch"
                    break
            yield CaseResult(f"{tag} relative longest elements", ok, witness)
            if not algebra_ok:
                continue
            # Theorem: factorizations of the canonical basis element
            prod_j = h.one()
            prod_k = h.one()
            rel_agree = True
            for Ji, Jpi, Ki, Kpi in subsets:
                gJ = h.gamma_rel(Ji, Jpi)
                gK = h.gamma_rel(Ki, Kpi)
                rel_agree = rel_agree and gJ == gK
                prod_j = h.product(prod_j, gJ)
                prod_k = h.product(prod_k, gK)
            yield CaseResult(f"{tag} relative gamma agreement", rel_agree)
            gamma_j = h.product(prod_j, h.gamma_rel(J, ()))
            gamma_k = h.product(prod_k, h.gamma_rel(J, ()))
            ok = gamma_j == gamma_target and gamma_k == gamma_target
            yield CaseResult(f"{tag} canonical basis factorization", ok)
            witness = _zelevinsky_operators(ctx, g, tiling, subsets, basis) or class_witness
            ok = witness is None
            yield CaseResult(f"{tag} operator and class identities", ok, witness)
            shared += ok
        if algebra_ok and len(tilings) > 1:
            # all tilings landed on the same class (they all matched kl_schubert)
            ok = shared == len(tilings)
            yield CaseResult(f"lambda=({lam_txt}) all {len(tilings)} tilings share one class", ok)


def _transferred_basis(ctx: _Context, target) -> tuple:
    """(basis, witness or None): basis = mu^{-l(target)} psi(image of
    gamma_target), the transferred canonical basis element, and a witness
    unless its class, its odot on pt_e^hyp, is kl_schubert(target)."""
    loc = ctx.loc
    hyp = loc.hyp
    basis = psi(loc.mult.hecke_to_qw(ctx.hecke.kl_basis(target)), hyp)
    basis = basis.scale(hyp.inv_mu_power(target.length))
    cls = loc.odot(basis, loc.point_class(ctx.system.identity, "hyperbolic"))
    if cls != loc.kl_schubert(target):
        return basis, "resolution class differs from the canonical class"
    return basis, None


def _zelevinsky_operators(ctx: _Context, g, tiling, subsets, basis) -> str | None:
    """Push-pull and operator identities of one tiling, against the transferred
    basis element; a witness on failure."""
    hyp = ctx.loc.hyp
    J = g.J_indices()
    P, Q = stabilizer_chain(tiling, g)
    pq = [(_zero_based(P[i]), _zero_based(Q[i])) for i in range(tiling.r)]
    # push-pull equalities for each rectangle
    for i, (Ji, Jpi, Ki, Kpi) in enumerate(subsets):
        yj = hyp.pushpull_rel(Ji, Jpi)
        yk = hyp.pushpull_rel(Ki, Kpi)
        yp = hyp.pushpull_rel(*pq[i])
        if not (yj == yk and yk == yp):
            return f"push-pull equalities failed at rectangle {i}"
    # operator factorization of the transferred basis element
    op = hyp.delta(ctx.system.identity)
    for Pi, Qi in pq:
        op = hyp.times_pushpull(op, Pi, Qi)
    op = hyp.times_pushpull(op, J, ())
    if basis != op:
        return "operator factorization failed"
    return None


def _rect_subsets(ls, i) -> tuple:
    """(J_i, J'_i, K_i, K'_i) of rectangle i, as 0-based index tuples."""
    return tuple(_zero_based(s[i]) for s in (ls.J, ls.Jp, ls.K, ls.Kp))


def _partitions_in_box(rows, cols):
    parts = combinations_with_replacement(range(cols, -1, -1), rows)
    return sorted(map(Partition, parts), key=lambda p: (sum(p.parts), p.parts))


SUITES = {
    "braid": suite_braid,
    "duality": suite_duality,
    "parabolic-duality": suite_parabolic_duality,
    "serre": suite_serre,
    "smoothness": suite_smoothness,
    "psi": suite_psi,
    "gammapsirel": suite_gammapsirel,
    "orthogonality": suite_orthogonality,
    "zelevinsky": suite_zelevinsky,
    "inversion": suite_inversion,
    "pushforward": suite_pushforward,
    "grassmann-smoothness": suite_grassmann_smoothness,
}


def run_suite(name: str, cfg: RunConfig) -> VerificationReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    guard = cfg.comb_guard if name == "zelevinsky" else cfg.hecke_guard
    ctx = _Context(cfg, name, guard)
    return VerificationReport(
        suite=name,
        params=cfg.params_dict(),
        mode=cfg.mode,
        seed=cfg.seed,
        cases=list(SUITES[name](ctx)),
    )
