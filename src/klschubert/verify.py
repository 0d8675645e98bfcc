"""Named verification suites over one group: every suite re-derives a theorem
as a list of machine-checked cases and returns a deterministic report.

Suites run either exactly or in modp mode; the latter evaluates the whole
computation at k Weyl-orbit point families drawn from the run seed, and a
case passes only if it passes at every point family.  Exact mode is the
oracle for modp mode: a true identity can never fail modp, so any modp
failure is a real failure.

Reports are plain data with a stable JSON form: no timing inside, so equal
configurations give byte-identical output.  The wall-clock time of a run is
kept on ``VerificationReport.elapsed``, outside the JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .grassmannian import (
    GrassData,
    Partition,
    enumerate_tilings,
    label_sets,
    stabilizer_chain,
    v_word,
    word_of_partition,
)
from .hecke import HeckeAlgebra
from .laurent import LaurentPoly
from .localization import Localization
from .modp import ExactDomain, OrbitDomain
from .ratfunc import RatFunc
from .rootsystem import CartanData, RootSystem
from .twisted import psi

__all__ = ["RunConfig", "CaseResult", "VerificationReport", "run_suite", "SUITES", "GuardRefusal"]


class GuardRefusal(RuntimeError):
    """The requested suite exceeds the configured size guards."""


@dataclass
class RunConfig:
    type_label: str = "A"
    rank: int = 2
    n: int | None = None
    d: int | None = None
    mode: str = "exact"
    k: int = 3
    seed: int = 0
    cache_dir: str | None = None
    hecke_guard: int = 720
    comb_guard: int = 5040
    serre_samples: int = 100

    def cartan(self) -> CartanData:
        if self.n is not None:
            return CartanData.type_a(self.n - 1)
        if self.type_label != "A":
            raise ValueError("only type A has a built-in constructor; pass a Cartan matrix")
        return CartanData.type_a(self.rank)

    def grass(self) -> GrassData:
        if self.n is None or self.d is None:
            raise ValueError("this suite needs --n and --d")
        return GrassData(self.n, self.d)

    def params_dict(self) -> dict:
        out = {"type": self.type_label, "rank": self.rank}
        if self.n is not None:
            out["n"] = self.n
        if self.d is not None:
            out["d"] = self.d
        return out


@dataclass
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
    elapsed: float = 0.0

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.ok)

    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json(self) -> str:
        payload = {
            "format_version": 1,
            "suite": self.suite,
            "params": self.params,
            "mode": self.mode,
            "seed": self.seed,
            "passed": self.passed,
            "failed": self.failed,
            "cases": [
                {"id": c.case_id, "pass": c.ok}
                | ({"witness": c.witness} if c.witness is not None else {})
                for c in self.cases
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _scalar_witness(lhs, rhs) -> str:
    def fmt(x):
        return x.format() if isinstance(x, RatFunc) else repr(x)

    return f"lhs={fmt(lhs)} rhs={fmt(rhs)}"


def _class_witness(lhs, rhs) -> str:
    return f"lhs={lhs.format()} rhs={rhs.format()}"


# ---------- contexts ----------


class _Context:
    """One localization per evaluation domain (1 exact or k orbit points)."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.system = RootSystem(cfg.cartan())
        self.hecke = HeckeAlgebra(self.system, cfg.cache_dir)
        if cfg.mode == "exact":
            domains = [ExactDomain(self.system)]
        elif cfg.mode == "modp":
            if cfg.k < 1:
                raise ValueError("modp mode needs k >= 1")
            domains = [
                OrbitDomain(self.system, seed=cfg.seed * 1000003 + i * 101) for i in range(cfg.k)
            ]
        else:
            raise ValueError(f"unknown mode {cfg.mode!r}")
        self.locs = [Localization(self.system, d, self.hecke) for d in domains]

    def guard_hecke(self, suite: str):
        if self.system.order > self.cfg.hecke_guard:
            raise GuardRefusal(
                f"suite {suite}: |W| = {self.system.order} exceeds the Hecke guard "
                f"{self.cfg.hecke_guard}"
            )


def _check_all(locs, case_fn):
    """Run one case against every domain; pass iff all pass."""
    for loc in locs:
        ok, witness = case_fn(loc)
        if not ok:
            return False, witness
    return True, None


# ---------- individual suites ----------


def suite_braid(ctx: _Context) -> list:
    ctx.guard_hecke("braid")
    cases = []
    system = ctx.system
    C = system.cartan_data.cartan
    n = system.rank

    def braid_order(i, j):
        return {0: 2, 1: 3, 2: 4, 3: 6}[C[i][j] * C[j][i]]

    for i in range(n):

        def quad(loc, i=i):
            qm = loc.mult
            g = qm.dl_generator(i)
            tinv_minus_t = RatFunc(
                LaurentPoly.t_power(n + 1, -1) - LaurentPoly.t_power(n + 1, 1)
            )
            lhs = qm.qw_mul(g, g)
            rhs = g.scale(qm.as_scalar(tinv_minus_t)) + qm.delta(system.identity)
            return lhs == rhs, None if lhs == rhs else "quadratic relation failed"

        ok, witness = _check_all(ctx.locs, quad)
        cases.append(CaseResult(f"quadratic tau_{i + 1}", ok, witness))
    for i in range(n):
        for j in range(i + 1, n):
            m = braid_order(i, j)

            def braid(loc, i=i, j=j, m=m):
                qm = loc.mult
                a, b = qm.delta(system.identity), qm.delta(system.identity)
                for step in range(m):
                    a = qm.qw_mul(a, qm.dl_generator(i if step % 2 == 0 else j))
                    b = qm.qw_mul(b, qm.dl_generator(j if step % 2 == 0 else i))
                eqls = a == b
                return eqls, None if eqls else f"braid relation of order {m} failed"

            ok, witness = _check_all(ctx.locs, braid)
            cases.append(CaseResult(f"braid tau_{i + 1} tau_{j + 1}", ok, witness))
    # hyperbolic push-pull operators are word-dependent: witness an inequality
    for i in range(n):
        for j in range(i + 1, n):
            if braid_order(i, j) != 3:
                continue

            def hyp_braid_fails(loc, i=i, j=j):
                qt = loc.hyp
                y1, y2 = qt.pushpull_simple(i), qt.pushpull_simple(j)
                lhs = qt.qw_mul(qt.qw_mul(y1, y2), y1)
                rhs = qt.qw_mul(qt.qw_mul(y2, y1), y2)
                differ = lhs != rhs
                return differ, None if differ else "hyperbolic Y-products unexpectedly agree"

            ok, witness = _check_all(ctx.locs, hyp_braid_fails)
            cases.append(CaseResult(f"hyperbolic braid inequality Y_{i + 1} Y_{j + 1}", ok, witness))
    return cases


def suite_duality(ctx: _Context) -> list:
    ctx.guard_hecke("duality")
    system = ctx.system
    cases = []
    per_loc = []
    for loc in ctx.locs:
        norm = loc.pairing_normalizer()
        cw = {w: loc.kl_class_c(w) for w in system.elements}
        ct = {v: loc.kl_class_c_tilde(v) for v in system.elements}
        per_loc.append((loc, norm, cw, ct))
    for w in system.elements:
        for v in system.elements:

            def case(bundle, w=w, v=v):
                loc, norm, cw, ct = bundle
                val = loc.pairing(cw[w], ct[v])
                expected = norm if w is v else loc.dom.zero
                ok = loc.dom.eq(val, expected)
                return ok, None if ok else _scalar_witness(val, expected)

            ok, witness = _check_all(per_loc, case)
            cases.append(CaseResult(f"<C[{w!r}], Ct[{v!r}]>", ok, witness))
    return cases


def suite_orthogonality(ctx: _Context) -> list:
    ctx.guard_hecke("orthogonality")
    system = ctx.system
    cases = []
    per_loc = []
    for loc in ctx.locs:
        mc = {u: loc.mc_cell(u) for u in system.elements}
        smc = {v: loc.smc_cell(v) for v in system.elements}
        per_loc.append((loc, mc, smc))
    for u in system.elements:
        for v in system.elements:

            def case(bundle, u=u, v=v):
                loc, mc, smc = bundle
                val = loc.pairing(mc[u], smc[v])
                expected = loc.dom.one if u is v else loc.dom.zero
                ok = loc.dom.eq(val, expected)
                return ok, None if ok else _scalar_witness(val, expected)

            ok, witness = _check_all(per_loc, case)
            cases.append(CaseResult(f"<MC[{u!r}], SMC[{v!r}]>", ok, witness))
    return cases


def suite_serre(ctx: _Context) -> list:
    ctx.guard_hecke("serre")
    system = ctx.system
    cases = []
    for w in system.elements:

        def case(loc, w=w):
            cw = loc.kl_class_c(w)
            dual = loc.serre_dual(cw)
            ok = dual == cw
            return ok, None if ok else _class_witness(dual, cw)

        ok, witness = _check_all(ctx.locs, case)
        cases.append(CaseResult(f"D(C[{w!r}]) = C[{w!r}]", ok, witness))
    for s in range(ctx.cfg.serre_samples):

        def involution(loc, s=s):
            c = loc.random_class(ctx.cfg.seed * 7919 + s)
            ok = loc.serre_dual(loc.serre_dual(c)) == c
            return ok, None if ok else f"duality involution failed on sample {s}"

        ok, witness = _check_all(ctx.locs, involution)
        cases.append(CaseResult(f"D^2 = id sample {s}", ok, witness))
    return cases


def suite_psi(ctx: _Context) -> list:
    ctx.guard_hecke("psi")
    system = ctx.system
    cases = []
    for i in range(system.rank):

        def gen_case(loc, i=i):
            lhs = psi(loc.mult.dl_generator(i), loc.hyp)
            rhs = loc.hyp.dl_generator(i)  # mu Y_i - t by construction
            ok = lhs == rhs
            return ok, None if ok else "transfer of the Hecke generator failed"

        ok, witness = _check_all(ctx.locs, gen_case)
        cases.append(CaseResult(f"psi(tau_{i + 1}) = mu Y_{i + 1} - t", ok, witness))
    # g sends the hyperbolic x to the multiplicative one (exact fractions)
    hyp_model = ctx.locs[0].hyp.model
    mult_model = ctx.locs[0].mult.model
    weights = [r.weight for r in system.simple_roots]
    weights += [
        tuple(1 if j == i else 0 for j in range(system.rank)) for i in range(system.rank)
    ]
    names = [f"alpha_{i + 1}" for i in range(system.rank)] + [
        f"omega_{i + 1}" for i in range(system.rank)
    ]
    for name, lam in zip(names, weights):
        lhs = hyp_model.fgl_morphism_g(hyp_model.x_weight(lam))
        rhs = mult_model.x_weight(lam)
        ok = lhs == rhs
        cases.append(
            CaseResult(
                f"g(x^t) = 1 - e^-lambda at {name}",
                ok,
                None if ok else f"lhs={lhs.format()} rhs={rhs.format()}",
            )
        )
    # psi of (1 - t^-2 e^a)/(1 - e^a) is t^-1 mu / x^t_{-a} (exact fractions)
    arity = system.rank + 1
    for idx, alpha in enumerate(system.positive_roots):
        e_a = LaurentPoly.monomial((0,) + alpha.weight, 1)
        one = LaurentPoly.const(arity, 1)
        lhs = RatFunc.from_den_factors(one - LaurentPoly.t_power(arity, -2) * e_a, [one - e_a])
        tinv_mu = RatFunc(LaurentPoly.const(arity, 1) + LaurentPoly.t_power(arity, -2))
        rhs = tinv_mu * hyp_model.x_weight_inv(tuple(-x for x in alpha.weight))
        ok = lhs == rhs
        cases.append(
            CaseResult(
                f"psi smoothness factor at positive root {idx}",
                ok,
                None if ok else f"lhs={lhs.format()} rhs={rhs.format()}",
            )
        )
    return cases


def _jtxt(J) -> str:
    """A subset of simple reflections as 1-based labels, "-" when empty."""
    return ",".join(str(x + 1) for x in J) or "-"


def _zero_based(labels) -> tuple:
    """1-based simple-root labels as sorted 0-based indices."""
    return tuple(x - 1 for x in sorted(labels))


def _subsets(n):
    out = []
    for mask in range(1 << n):
        out.append(tuple(i for i in range(n) if mask >> i & 1))
    return out


def suite_gammapsirel(ctx: _Context) -> list:
    ctx.guard_hecke("gammapsirel")
    system = ctx.system
    cases = []
    for J in _subsets(system.rank):
        for Jp in _subsets(system.rank):
            if not set(Jp) <= set(J):
                continue

            def case(loc, J=J, Jp=Jp):
                top = system.relative_longest(J, Jp).length
                lhs = psi(loc.mult.hecke_to_qw(ctx.hecke.gamma_rel(J, Jp)), loc.hyp)
                lhs = loc.hyp.qw_mul(lhs, loc.hyp.pushpull_rel(Jp, ()))
                lhs = lhs.scale(loc.hyp.inv_mu_power(top))
                rhs = loc.hyp.pushpull_rel(J, ())
                ok = lhs == rhs
                return ok, None if ok else "transfer of the relative basis element failed"

            ok, witness = _check_all(ctx.locs, case)
            cases.append(
                CaseResult(f"gamma transfer J={{{_jtxt(J)}}} J'={{{_jtxt(Jp)}}}", ok, witness)
            )
    return cases


def suite_inversion(ctx: _Context) -> list:
    ctx.guard_hecke("inversion")
    system = ctx.system
    h = ctx.hecke
    cases = []

    def convolve(q, p, sign, acc):
        for j1, c1 in enumerate(q):
            for j2, c2 in enumerate(p):
                acc[j1 + j2] = acc.get(j1 + j2, 0) + sign * c1 * c2

    h.kl_compute_upto(system.w0.length)
    for u in system.elements:
        for v in system.elements:
            acc: dict = {}
            for w in system.elements:
                q = h.inverse_kl(u, w)
                p = h.kl_polynomial(w, v)
                if q and p:
                    convolve(q, p, u.sign * w.sign, acc)
            acc = {k: c for k, c in acc.items() if c}
            expected = {0: 1} if u is v else {}
            ok = acc == expected
            cases.append(
                CaseResult(
                    f"inversion u={u!r} v={v!r}",
                    ok,
                    None if ok else f"lhs={acc} rhs={expected}",
                )
            )
    for J in _subsets(system.rank):
        reps = system.minimal_coset_reps(J)
        for u in reps:
            for v in reps:
                acc = {}
                for w in reps:
                    q = h.inverse_parabolic_kl(u, w, J)
                    p = h.parabolic_kl(w, v, J)
                    if q and p:
                        convolve(q, p, u.sign * w.sign, acc)
                acc = {k: c for k, c in acc.items() if c}
                expected = {0: 1} if u is v else {}
                ok = acc == expected
                cases.append(
                    CaseResult(
                        f"parabolic inversion J={{{_jtxt(J)}}} u={u!r} v={v!r}",
                        ok,
                        None if ok else f"lhs={acc} rhs={expected}",
                    )
                )
    return cases


def suite_smoothness(ctx: _Context) -> list:
    ctx.guard_hecke("smoothness")
    system = ctx.system
    h = ctx.hecke
    cases = []
    h.kl_compute_upto(system.w0.length)
    for w in system.elements:

        def case(loc, w=w):
            smooth, _ = loc.is_smooth(w)
            trivial_kl = all(
                h.kl_polynomial(v, w) == (1,) for v in system.bruhat_interval(w)
            )
            if smooth != trivial_kl:
                return False, (
                    f"smoothness criterion ({smooth}) disagrees with trivial KL ({trivial_kl})"
                )
            if not smooth:
                return True, None
            lhs = loc.kl_schubert(w)
            rhs = loc.fundamental_class_smooth(w)
            ok = lhs == rhs
            return ok, None if ok else _class_witness(lhs, rhs)

        ok, witness = _check_all(ctx.locs, case)
        cases.append(CaseResult(f"smoothness/fundamental class w={w!r}", ok, witness))
    return cases


def suite_parabolic_duality(ctx: _Context) -> list:
    ctx.guard_hecke("parabolic-duality")
    cfg = ctx.cfg
    system = ctx.system
    if cfg.n is not None and cfg.d is not None:
        Js = [ctx.cfg.grass().J_indices()]
    else:
        Js = [J for J in _subsets(system.rank) if len(J) < system.rank]
    cases = []
    for J in Js:
        reps = system.minimal_coset_reps(J)
        jtxt = _jtxt(J)
        per_loc = []
        for loc in ctx.locs:
            norm = loc.pairing_normalizer(J)
            mc = {u: loc.mc_cell_parabolic(u, J) for u in reps}
            smc = {v: loc.smc_cell_parabolic(v, J) for v in reps}
            cj = {w: loc.kl_class_c_parabolic(w, J) for w in reps}
            ctj = {w: loc.kl_class_c_tilde_parabolic(w, J) for w in reps}
            per_loc.append((loc, norm, mc, smc, cj, ctj))
        for u in reps:
            for v in reps:

                def ortho(bundle, u=u, v=v, J=J):
                    loc, _, mc, smc, _, _ = bundle
                    val = loc.pairing(mc[u], smc[v], J)
                    expected = loc.dom.one if u is v else loc.dom.zero
                    ok = loc.dom.eq(val, expected)
                    return ok, None if ok else _scalar_witness(val, expected)

                ok, witness = _check_all(per_loc, ortho)
                cases.append(
                    CaseResult(f"J={{{jtxt}}} <MC[{u!r}], SMC[{v!r}]>_J", ok, witness)
                )
        for w in reps:
            for u in reps:

                def dual(bundle, w=w, u=u, J=J):
                    loc, norm, _, _, cj, ctj = bundle
                    val = loc.pairing(cj[w], ctj[u], J)
                    expected = norm if w is u else loc.dom.zero
                    ok = loc.dom.eq(val, expected)
                    return ok, None if ok else _scalar_witness(val, expected)

                ok, witness = _check_all(per_loc, dual)
                cases.append(
                    CaseResult(f"J={{{jtxt}}} <C^J[{w!r}], Ct^J[{u!r}]>_J", ok, witness)
                )
        # Serre duality downstairs
        for w in reps:

            def serre_j(bundle, w=w, J=J):
                loc = bundle[0]
                cj = bundle[4][w]
                dual = loc.serre_dual(cj, J)
                ok = dual == cj
                return ok, None if ok else _class_witness(dual, cj)

            ok, witness = _check_all(per_loc, serre_j)
            cases.append(CaseResult(f"J={{{jtxt}}} D_J(C^J[{w!r}]) = C^J[{w!r}]", ok, witness))
    return cases


def suite_pushforward(ctx: _Context) -> list:
    ctx.guard_hecke("pushforward")
    system = ctx.system
    cases = []
    for J in _subsets(system.rank):
        jtxt = _jtxt(J)
        wj = system.longest_parabolic(J)
        for w in system.minimal_coset_reps(J):

            def case(loc, w=w, J=J, wj=wj):
                yj = loc.mult.pushpull_rel(J, ())
                lhs = loc.bullet(yj, loc.kl_class_c(w * wj))
                rhs = loc.kl_class_c_parabolic(w, J).scale(loc.pushforward_scalar(J))
                ok = lhs == rhs
                return ok, None if ok else _class_witness(lhs, rhs)

            ok, witness = _check_all(ctx.locs, case)
            cases.append(CaseResult(f"pushforward J={{{jtxt}}} w={w!r}", ok, witness))
    return cases


def suite_grassmann_smoothness(ctx: _Context) -> list:
    """Parabolic smoothness transfer on one Grassmannian."""
    ctx.guard_hecke("grassmann-smoothness")
    g = ctx.cfg.grass()
    system = ctx.system
    J = g.J_indices()
    wj = system.longest_parabolic(J)
    cases = []
    for w in system.minimal_coset_reps(J):
        target = w * wj

        def case(loc, w=w, target=target, J=J):
            smooth, _ = loc.is_smooth(target)
            if not smooth:
                return True, None
            lhs = loc.kl_schubert(w, J)
            if not loc.is_invariant(lhs, J):
                return False, "canonical class is not invariant under the parabolic subgroup"
            rhs = loc.fundamental_class_smooth(w, J)
            ok = lhs == rhs
            return ok, None if ok else _class_witness(lhs, rhs)

        ok, witness = _check_all(ctx.locs, case)
        cases.append(CaseResult(f"Grassmann smoothness w={w!r}", ok, witness))
    return cases


def suite_zelevinsky(ctx: _Context) -> list:
    cfg = ctx.cfg
    g = cfg.grass()
    system = ctx.system
    if system.order > cfg.comb_guard:
        raise GuardRefusal(
            f"suite zelevinsky: |W| = {system.order} exceeds the combinatorics guard"
        )
    algebra_ok = system.order <= cfg.hecke_guard
    h = ctx.hecke
    J = g.J_indices()
    cases = []
    lambdas = _partitions_in_box(g.d, g.n - g.d)
    for lam in lambdas:
        lam_txt = ",".join(str(x) for x in lam.parts) or "empty"
        tilings = enumerate_tilings(lam, g)
        w_lam = system.from_word([x - 1 for x in word_of_partition(lam, g)])
        target = w_lam * system.longest_parabolic(J)
        classes = []
        for t_idx, tiling in enumerate(tilings):
            tag = f"lambda=({lam_txt}) tiling#{t_idx}"
            ls = label_sets(tiling, g)
            P, Q = stabilizer_chain(tiling, g)
            # reduced-word refactoring: concatenated rectangle words = w_lambda
            concat = []
            for rect in tiling.rectangles:
                concat.extend(v_word(rect, g))
            wcat = system.from_word([x - 1 for x in concat])
            ok = wcat is w_lam and len(concat) == w_lam.length
            cases.append(CaseResult(f"{tag} refactored reduced word", ok, None))
            # relative longest elements and their lengths
            ok = True
            witness = None
            for i, rect in enumerate(tiling.rectangles):
                Ji, Jpi, Ki, Kpi = _rect_subsets(ls, i)
                wk = system.relative_longest(Ki, Kpi)
                wjrel = system.relative_longest(Ji, Jpi)
                vi = system.from_word([x - 1 for x in v_word(rect, g)])
                if not (wk is vi and wjrel is vi and wk.length == rect.p * rect.q):
                    ok = False
                    witness = f"rectangle {i}: relative longest mismatch"
                    break
            cases.append(CaseResult(f"{tag} relative longest elements", ok, witness))
            if not algebra_ok:
                continue
            # Theorem: factorizations of the canonical basis element
            gamma_target = h.kl_basis(target)
            prod_j = h.one()
            prod_k = h.one()
            rel_agree = True
            for i in range(tiling.r):
                Ji, Jpi, Ki, Kpi = _rect_subsets(ls, i)
                gJ = h.gamma_rel(Ji, Jpi)
                gK = h.gamma_rel(Ki, Kpi)
                rel_agree = rel_agree and gJ == gK
                prod_j = h.product(prod_j, gJ)
                prod_k = h.product(prod_k, gK)
            cases.append(CaseResult(f"{tag} relative gamma agreement", rel_agree, None))
            gamma_j = h.product(prod_j, h.gamma_parabolic(J))
            gamma_k = h.product(prod_k, h.gamma_parabolic(J))
            ok = gamma_j == gamma_target and gamma_k == gamma_target
            cases.append(CaseResult(f"{tag} canonical basis factorization", ok, None))

            def qw_case(loc, tiling=tiling, ls=ls, P=P, Q=Q, w_lam=w_lam, target=target):
                # push-pull equalities for each rectangle
                for i in range(tiling.r):
                    Ji, Jpi, Ki, Kpi = _rect_subsets(ls, i)
                    Pi, Qi = _zero_based(P[i]), _zero_based(Q[i])
                    yj = loc.hyp.pushpull_rel(Ji, Jpi)
                    yk = loc.hyp.pushpull_rel(Ki, Kpi)
                    yp = loc.hyp.pushpull_rel(Pi, Qi)
                    if not (yj == yk and yk == yp):
                        return False, f"push-pull equalities failed at rectangle {i}"
                # operator factorization of the transferred basis element
                op = loc.hyp.delta(system.identity)
                for i in range(tiling.r):
                    op = loc.hyp.qw_mul(
                        op, loc.hyp.pushpull_rel(_zero_based(P[i]), _zero_based(Q[i]))
                    )
                op = loc.hyp.qw_mul(op, loc.hyp.pushpull_rel(J, ()))
                lhs = psi(loc.mult.hecke_to_qw(h.kl_basis(target)), loc.hyp)
                lhs = lhs.scale(loc.hyp.inv_mu_power(target.length))
                if lhs != op:
                    return False, "operator factorization failed"
                cls = loc.odot(op, loc.point_class(system.identity, "hyperbolic"))
                if cls != loc.kl_schubert(w_lam, J):
                    return False, "resolution class differs from the canonical class"
                return True, None

            ok, witness = _check_all(ctx.locs, qw_case)
            cases.append(CaseResult(f"{tag} operator and class identities", ok, witness))
            if ok:
                classes.append(t_idx)
        if algebra_ok and len(tilings) > 1:
            # all tilings landed on the same class (they all matched kl_schubert)
            ok = len(classes) == len(tilings)
            cases.append(
                CaseResult(
                    f"lambda=({lam_txt}) all {len(tilings)} tilings share one class", ok, None
                )
            )
    return cases


def _rect_subsets(ls, i) -> tuple:
    """(J_i, J'_i, K_i, K'_i) of rectangle i, as 0-based index tuples."""
    return tuple(_zero_based(s[i]) for s in (ls.J, ls.Jp, ls.K, ls.Kp))


def _partitions_in_box(rows, cols):
    out = []

    def rec(prefix, row, maxw):
        if row == rows:
            out.append(Partition(tuple(x for x in prefix if x)))
            return
        for w in range(maxw, -1, -1):
            rec(prefix + [w], row + 1, w)

    rec([], 0, cols)
    uniq = {p.parts: p for p in out}
    return [uniq[k] for k in sorted(uniq, key=lambda t: (sum(t), t))]


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
    import time

    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    start = time.monotonic()
    ctx = _Context(cfg)
    cases = SUITES[name](ctx)
    report = VerificationReport(
        suite=name,
        params=cfg.params_dict(),
        mode=cfg.mode,
        seed=cfg.seed,
        cases=cases,
        elapsed=time.monotonic() - start,
    )
    return report
