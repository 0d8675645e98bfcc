"""Golden tests for run_suite: every suite at A2, exactly and mod p."""

import dataclasses
import functools
import hashlib
import json
import re

import pytest

from klschubert import verify
from klschubert.hecke import HeckeAlgebra
from klschubert.localization import CohClass, Localization
from klschubert.rootsystem import CartanData, RootSystem, WeylElt
from klschubert.twisted import TwistedRing
from klschubert.verify import SUITES, WITNESS_CHARS, GuardRefusal, RunConfig, run_suite

from oracles import eps, kl_class_c_tilde_parabolic, product_by_steps, smc_cell_parabolic

# suite -> number of cases at A2 (G(1, 3) for the Grassmannian suites)
CASES = {
    "braid": 4,
    "duality": 36,
    "parabolic-duality": 120,
    "serre": 16,
    "smoothness": 6,
    "psi": 9,
    "gammapsirel": 9,
    "orthogonality": 36,
    "zelevinsky": 15,
    "inversion": 91,
    "pushforward": 13,
    "grassmann-smoothness": 3,
}
GRASSMANNIAN = {"zelevinsky", "grassmann-smoothness"}
# sha256 over every (suite, case id, verdict) line, suites in SUITES order
DIGEST = "580678a8b5aa2b186577ca6189743281806ae5a6b7a6dd230e185125859d307e"


def _config(suite, mode):
    grass = {"n": 3, "d": 1} if suite in GRASSMANNIAN else {}
    return RunConfig(rank=2, mode=mode, k=2, seed=1, serre_samples=10, **grass)


@pytest.fixture(scope="module")
def reports():
    return {
        (suite, mode): run_suite(suite, _config(suite, mode))
        for suite in SUITES
        for mode in ("exact", "modp")
    }


def test_every_suite_is_pinned():
    assert set(CASES) == set(SUITES)


@pytest.mark.parametrize("suite", sorted(CASES))
def test_suite_verdicts(reports, suite):
    exact, modp = reports[suite, "exact"], reports[suite, "modp"]
    for report in (exact, modp):
        assert len(report.cases) == CASES[suite]
        assert report.all_passed(), [c.case_id for c in report.cases if not c.ok]
    assert [(c.case_id, c.ok) for c in exact.cases] == [(c.case_id, c.ok) for c in modp.cases]


@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_case_ids_are_pinned(reports, mode):
    h = hashlib.sha256()
    for suite in SUITES:
        for c in reports[suite, mode].cases:
            h.update(f"{suite}\t{c.case_id}\t{int(c.ok)}\n".encode())
    assert h.hexdigest() == DIGEST


@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_reports_are_byte_identical_on_rerun(reports, mode):
    for suite in SUITES:
        again = run_suite(suite, _config(suite, mode))
        assert again.to_json() == reports[suite, mode].to_json(), suite


# The pairing suites at A3 mod p; the digest is the modp-a3 one of perfbench/workloads.py.
A3_PAIRING_CASES = {"duality": 576, "orthogonality": 576, "parabolic-duality": 2226}
A3_PAIRING_DIGEST = "ac87d83ceb3fcb0ba0e4054d9be66c40d02c79704d14b12778f295f04995fdaf"


@pytest.fixture(scope="module")
def a3_pairing_reports():
    return {
        suite: run_suite(suite, RunConfig(rank=3, mode="modp", k=2, seed=1))
        for suite in A3_PAIRING_CASES
    }


def test_a3_pairing_suites_mod_p(a3_pairing_reports):
    h = hashlib.sha256()
    for suite, count in A3_PAIRING_CASES.items():
        report = a3_pairing_reports[suite]
        assert len(report.cases) == count
        assert report.all_passed(), [c.case_id for c in report.cases if not c.ok]
        for c in report.cases:
            h.update(f"{suite}\t{c.case_id}\t{int(c.ok)}\n".encode())
    assert h.hexdigest() == A3_PAIRING_DIGEST


# duality and orthogonality at A3, exactly; recorded before pairings came as matrices
A3_EXACT_PAIRING_DIGEST = "e3fecd01f974b043b8752ada02c1f24157c8e287c22b0b8ce6b4a36342e5eafb"


def test_a3_exact_pairing_suites_agree_with_mod_p(a3_pairing_reports):
    """The exact run is the oracle of the mod-p one: the same case ids, in the
    same order, with the same verdicts."""
    h = hashlib.sha256()
    for suite in ("duality", "orthogonality"):
        report = run_suite(suite, RunConfig(rank=3, mode="exact", k=2, seed=1))
        assert report.all_passed(), [c.case_id for c in report.cases if not c.ok]
        modp = a3_pairing_reports[suite]
        assert [(c.case_id, c.ok) for c in report.cases] == [
            (c.case_id, c.ok) for c in modp.cases
        ]
        for c in report.cases:
            h.update(f"{suite}\t{c.case_id}\t{int(c.ok)}\n".encode())
    assert h.hexdigest() == A3_EXACT_PAIRING_DIGEST


# The exact suites at A3; the digest is the exact-a3 one of perfbench/workloads.py.
A3_EXACT_CASES = {"serre": 34, "gammapsirel": 27, "grassmann-smoothness": 6}
A3_EXACT_DIGEST = "22a9fd1523ec2139c56e7354bf57a4f91b384ec110d4834efc9764ce262c8c18"


def test_a3_exact_suites():
    h = hashlib.sha256()
    for suite, count in A3_EXACT_CASES.items():
        grass = {"n": 4, "d": 2} if suite in GRASSMANNIAN else {}
        cfg = RunConfig(rank=3, mode="exact", k=2, seed=1, serre_samples=10, **grass)
        report = run_suite(suite, cfg)
        assert len(report.cases) == count
        assert report.all_passed(), [c.case_id for c in report.cases if not c.ok]
        for c in report.cases:
            h.update(f"{suite}\t{c.case_id}\t{int(c.ok)}\n".encode())
    assert h.hexdigest() == A3_EXACT_DIGEST


# The suites not pinned at A3 above, mod p; recorded before suites yielded
# their cases
A3_MODP_CASES = {
    "braid": 8,
    "psi": 15,
    "serre": 34,
    "gammapsirel": 27,
    "smoothness": 24,
    "pushforward": 75,
    "grassmann-smoothness": 6,
    "zelevinsky": 36,
}
A3_MODP_DIGEST = "341c71e9e4c68b223cac8d85fead536a4b1262419897ea2447bb44e226a2c649"


def _a3_config(suite, mode):
    grass = {"n": 4, "d": 2} if suite in GRASSMANNIAN else {}
    return RunConfig(rank=3, mode=mode, k=2, seed=1, serre_samples=10, **grass)


@pytest.fixture(scope="module")
def a3_modp_reports():
    return {suite: run_suite(suite, _a3_config(suite, "modp")) for suite in A3_MODP_CASES}


def test_a3_modp_suites(a3_modp_reports):
    h = hashlib.sha256()
    for suite, count in A3_MODP_CASES.items():
        report = a3_modp_reports[suite]
        assert len(report.cases) == count
        assert report.all_passed(), [c.case_id for c in report.cases if not c.ok]
        for c in report.cases:
            h.update(f"{suite}\t{c.case_id}\t{int(c.ok)}\n".encode())
    assert h.hexdigest() == A3_MODP_DIGEST


# sha256 of to_json() of A4 mod-p duality and orthogonality (k=2, seed 1),
# recorded while every scalar still held its residues at every orbit point
A4_MODP_DIGESTS = {
    "duality": "1d98e244f8813e634f00353202033e05d0aaf409ff2096b70ecc62524900c133",
    "orthogonality": "fb44f0fd1c9ab81d2e1556c0d2e3349b9aa4460c1d48ceeeb90e0903e4d3022e",
}


@pytest.mark.parametrize("suite", sorted(A4_MODP_DIGESTS))
def test_a4_modp_pairing_reports_are_pinned(suite):
    report = run_suite(suite, RunConfig(rank=4, mode="modp", k=2, seed=1, serre_samples=10))
    assert len(report.cases) == 120**2 and report.all_passed()
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == A4_MODP_DIGESTS[suite]


# (case count, sha256 of to_json()) of A4 mod-p gammapsirel (k=2, seed 1),
# recorded while Y_{J'} was multiplied on by the generic twisted product
A4_MODP_GAMMAPSIREL = (81, "cb7ee6472b35d2b461396c3a1a92a1249a50ee7c4da7e6fdca75d1e3bf1d8b86")


def test_a4_modp_gammapsirel_report_is_pinned():
    count, digest = A4_MODP_GAMMAPSIREL
    report = run_suite("gammapsirel", RunConfig(rank=4, mode="modp", k=2, seed=1, serre_samples=10))
    assert len(report.cases) == count and report.all_passed()
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


# suite -> (case count, sha256 of to_json()) of A4 mod-p parabolic-duality and
# pushforward (k=2, seed 1), recorded while every parabolic class was a bullet
# of Y_J evaluated at every fixed point
A4_MODP_PARABOLIC_DIGESTS = {
    "parabolic-duality": (
        66440,
        "ab39fcb6f9d8c379d6bd43f69b2d720e5265f974aca40adcd7d73dd01fba8cd3",
    ),
    "pushforward": (541, "5c3ac01afa20d5e3b17ab3dc7c599edf59d4d0c64fcbbc4e3b7d32bbdd822177"),
}


@pytest.mark.parametrize("suite", sorted(A4_MODP_PARABOLIC_DIGESTS))
def test_a4_modp_parabolic_reports_are_pinned(suite):
    count, digest = A4_MODP_PARABOLIC_DIGESTS[suite]
    report = run_suite(suite, RunConfig(rank=4, mode="modp", k=2, seed=1, serre_samples=10))
    assert len(report.cases) == count and report.all_passed()
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


# (suite, grid, case count, sha256 of to_json()) mod p (k=2, seed 1), recorded
# while reflections were built from coroots, w0 u was formed by products and
# the hyperbolic classes of G/P_J took J
CLASS_MODP_DIGESTS = [
    (
        "zelevinsky",
        {"n": 5, "d": 2},
        62,
        "3daca7d33820e00c09cbd8e1c2cd12434b43810bf4d535be2fcba3dee47eb015",
    ),
    (
        "grassmann-smoothness",
        {"n": 5, "d": 2},
        10,
        "385d10c12b914022570dc0bc764f925770f9293a8ce3549d6acc061014ab99ac",
    ),
    (
        "smoothness",
        {"rank": 4},
        120,
        "5dbfd4ecef6cdf6f39257a1b3a827a02278f9356c8a4a79997255aca171bf488",
    ),
]


@pytest.mark.parametrize(
    "suite, grid, count, digest", CLASS_MODP_DIGESTS, ids=[c[0] for c in CLASS_MODP_DIGESTS]
)
def test_smoothness_and_zelevinsky_reports_are_pinned(suite, grid, count, digest):
    report = run_suite(suite, RunConfig(mode="modp", k=2, seed=1, **grid))
    assert len(report.cases) == count and report.all_passed()
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_parabolic_duality_on_one_grassmannian_runs_its_parabolic_alone(mode):
    """With d set, parabolic-duality runs the J of G(d, n) only: J = {1,3} for
    G(2, 4), not every proper subset of the simple reflections."""
    report = run_suite("parabolic-duality", RunConfig(n=4, d=2, mode=mode, k=2, seed=1))
    assert len(report.cases) == 78 and report.all_passed()
    assert all(c.case_id.startswith("J={1,3} ") for c in report.cases)


@pytest.mark.parametrize("suite", ["smoothness", "grassmann-smoothness"])
def test_a3_exact_smoothness_agrees_with_mod_p(a3_modp_reports, suite):
    exact = run_suite(suite, _a3_config(suite, "exact"))
    modp = a3_modp_reports[suite]
    assert [(c.case_id, c.ok, c.witness) for c in exact.cases] == [
        (c.case_id, c.ok, c.witness) for c in modp.cases
    ]


def test_a_failing_mod_p_pairing_case_prints_its_residues(monkeypatch, a2):
    """With the normalizer taken as 1, A2 mod-p duality fails exactly the
    diagonal cases, each witnessed by the first residue of either side."""
    monkeypatch.setattr(Localization, "pairing_normalizer", lambda self, J=(): self.dom.one)
    report = run_suite("duality", _config("duality", "modp"))
    failing = [c for c in report.cases if not c.ok]
    assert [c.case_id for c in failing] == [f"<C[{w!r}], Ct[{w!r}]>" for w in a2.elements]
    assert failing[0].case_id == "<C[e], Ct[e]>"
    assert failing[0].witness == (
        "lhs=OrbitScalar(2766721086702844936, ...) rhs=OrbitScalar(1, ...)"
    )
    assert all(c.witness is None for c in report.cases if c.ok)


def _corrupt(monkeypatch, name, hit):
    """Localization.name with one restriction of the class it returns for the
    arguments hit(self, *args) accepts raised by one: the restriction at the
    class's first point."""
    build = getattr(Localization, name)

    def corrupted(self, *args):
        c = build(self, *args)
        if not hit(self, *args):
            return c
        x = next(iter(c.coeffs))
        return CohClass(c.ring, {**c.coeffs, x: c.coeffs[x] + self.dom.one})

    monkeypatch.setattr(Localization, name, corrupted)


def _corrupt_sum(monkeypatch, family, target, jkey):
    """Localization.class_sum with every sum of family at jkey that weighs target
    moved by that weight at one point, the first of target's class: a wrong
    class of target, linear in its weight as the sums need, so every sum that
    holds it is wrong by the same term."""
    build = Localization.class_sum

    def corrupted(self, fam, weights, J):
        c = build(self, fam, weights, J)
        hit = [(w, v) for w, v in weights.items() if w.idx == target.idx]
        if fam != family or self.system._jkey(J) != jkey or not hit:
            return c
        (w, v), zero = hit[0], self.dom.zero
        x = next(iter(build(self, fam, {w: self.dom.one}, J).coeffs))
        return CohClass(c.ring, {**c.coeffs, x: c.coeffs.get(x, zero) + v})

    monkeypatch.setattr(Localization, "class_sum", corrupted)


def _failures_by_matrix(loc, case_id, left, right, diag, J=()):
    """(case id, witness) of every failing case of one pairing, read entry by
    entry off pairing_matrix."""
    zero = loc.dom.zero
    matrix = loc.pairing_matrix(list(left.values()), list(right.values()), J)
    out = []
    for a, row in zip(left, matrix):
        for b, val in zip(right, row):
            expected = diag if a is b else zero
            if val != expected:
                out.append((case_id(a, b), verify._witness(val, expected)))
    return out


def _failures(report):
    return [(c.case_id, c.witness) for c in report.cases if not c.ok]


def test_a_corrupted_ct_fails_the_duality_cases_the_matrix_fails(monkeypatch, a3):
    """With one restriction of one C~_v wrong, in every sum by its weight, A3
    mod-p duality fails the check of the sums and then exactly the cases,
    with the witnesses, that the entries of a direct pairing matrix fail."""
    target = a3.elements[len(a3.elements) // 2]
    _corrupt_sum(monkeypatch, "C~", target, ())
    cfg = RunConfig(rank=3, mode="modp", k=2, seed=1)
    report = run_suite("duality", cfg)
    loc = verify._Context(cfg, "duality", cfg.hecke_guard).loc
    system = loc.system
    cw = {w: loc.kl_class_c(w) for w in system.elements}
    ct = {v: loc.kl_class_c_tilde(v) for v in system.elements}
    case_id = lambda w, v: f"<C[{w!r}], Ct[{v!r}]>"  # noqa: E731
    expected = _failures_by_matrix(loc, case_id, cw, ct, loc.pairing_normalizer())
    assert expected and all(f"Ct[{target!r}]" in i for i, _ in expected)
    assert len(report.cases) == A3_PAIRING_CASES["duality"]
    assert _failures(report) == expected


def test_a_corrupted_smc_j_fails_the_parabolic_cases_the_matrices_fail(monkeypatch, a3):
    """With one restriction of one SMC_J cell wrong, at J = {1}, in every SMC_J
    sum by its weight, A3 mod-p parabolic-duality fails exactly the cases,
    with the witnesses, that the entries of direct pairing matrices fail, at
    that J alone; the C~^J sums read MC_J cells, not SMC_J cells, so the C^J
    pairing and its Serre cases all pass."""
    J = (0,)
    target = a3.minimal_coset_reps(J)[3]
    _corrupt_sum(monkeypatch, "SMC", target, J)
    cfg = RunConfig(rank=3, mode="modp", k=2, seed=1)
    report = run_suite("parabolic-duality", cfg)
    loc = verify._Context(cfg, "parabolic-duality", cfg.hecke_guard).loc
    reps = loc.system.minimal_coset_reps(J)
    tag = "J={1} "
    mc = {u: loc.mc_cell_parabolic(u, J) for u in reps}
    smc = {v: smc_cell_parabolic(loc, v, J) for v in reps}
    cj = {w: loc.kl_class_c_parabolic(w, J) for w in reps}
    ctj = {w: kl_class_c_tilde_parabolic(loc, w, J) for w in reps}
    expected = _failures_by_matrix(
        loc, lambda u, v: f"{tag}<MC[{u!r}], SMC[{v!r}]>_J", mc, smc, loc.dom.one, J
    )
    assert expected and all(f"SMC[{target!r}]" in i for i, _ in expected)
    assert not _failures_by_matrix(
        loc, lambda w, u: f"{tag}<C^J[{w!r}], Ct^J[{u!r}]>_J", cj, ctj, loc.pairing_normalizer(J), J
    )
    assert all(loc.serre_dual(c, J) == c for c in cj.values())
    assert len(report.cases) == A3_PAIRING_CASES["parabolic-duality"]
    assert _failures(report) == expected


def test_a_corrupted_mc_j_fails_the_cases_the_single_classes_fail(monkeypatch, a3):
    """With one restriction of one MC_J cell wrong, at J = {1}, A3 mod-p
    parabolic-duality fails exactly the cases, with the witnesses, that the
    single classes fail, at that J alone: the entries of direct pairing
    matrices, and D_J(C^J_w) = C^J_w for each w.  The cell enters the C^J
    sums, and the SMC_J cells that read it, so every check fails."""
    J = (0,)
    target = a3.minimal_coset_reps(J)[2]
    _corrupt(
        monkeypatch,
        "mc_cell_parabolic",
        lambda self, u, jj: u.idx == target.idx and self.system._jkey(jj) == J,
    )
    cfg = RunConfig(rank=3, mode="modp", k=2, seed=1)
    report = run_suite("parabolic-duality", cfg)
    loc = verify._Context(cfg, "parabolic-duality", cfg.hecke_guard).loc
    reps = loc.system.minimal_coset_reps(J)
    tag = "J={1} "
    mc = {u: loc.mc_cell_parabolic(u, J) for u in reps}
    smc = {v: smc_cell_parabolic(loc, v, J) for v in reps}
    cj = {w: loc.kl_class_c_parabolic(w, J) for w in reps}
    ctj = {w: kl_class_c_tilde_parabolic(loc, w, J) for w in reps}
    cells = _failures_by_matrix(
        loc, lambda u, v: f"{tag}<MC[{u!r}], SMC[{v!r}]>_J", mc, smc, loc.dom.one, J
    )
    sums = _failures_by_matrix(
        loc, lambda w, u: f"{tag}<C^J[{w!r}], Ct^J[{u!r}]>_J", cj, ctj, loc.pairing_normalizer(J), J
    )
    serre = []
    for w, c in cj.items():
        dual = loc.serre_dual(c, J)
        if dual != c:
            serre.append((f"{tag}D_J(C^J[{w!r}]) = C^J[{w!r}]", verify._witness(dual, c)))
    assert cells and sums and serre
    assert len(report.cases) == A3_PAIRING_CASES["parabolic-duality"]
    assert _failures(report) == cells + sums + serre


@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_pairing_matrices_are_built_only_where_the_check_fails(monkeypatch, mode):
    """Passing mod-p pairing suites pair one sum a side, 1 x 1 per matrix, and
    build no single class: class_sum runs once a side and matrix, on every
    weight.  Exact mode builds each matrix, one per pairing, from classes of
    one weight."""
    calls, sums = [], []
    pairing_matrix, class_sum = Localization.pairing_matrix, Localization.class_sum

    def counted(self, left, right, J=()):
        calls.append((len(left), len(right)))
        return pairing_matrix(self, left, right, J)

    def counted_sum(self, family, weights, J):
        sums.append(len(weights))
        return class_sum(self, family, weights, J)

    monkeypatch.setattr(Localization, "pairing_matrix", counted)
    monkeypatch.setattr(Localization, "class_sum", counted_sum)
    # duality and orthogonality pair once; parabolic-duality twice per J of A2
    for suite, matrices in (("duality", 1), ("orthogonality", 1), ("parabolic-duality", 6)):
        calls.clear()
        sums.clear()
        report = run_suite(suite, _config(suite, mode))
        assert report.all_passed() and len(report.cases) == CASES[suite]
        assert len(calls) == matrices, suite
        if mode == "modp":
            assert set(calls) == {(1, 1)}, suite
            assert len(sums) == 2 * matrices, suite
            assert 1 not in sums, suite
        else:
            assert set(sums) == {1}, suite


@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_a_smoothness_verdict_against_trivial_kl_fails_its_case(monkeypatch, mode):
    """With the verdict of w0 flipped, smoothness disagrees with the trivial KL
    polynomials of A2 at w0 alone, and that case fails with both verdicts."""
    is_smooth = Localization.is_smooth

    def flipped(self, w):
        smooth, verdicts = is_smooth(self, w)
        return (not smooth if w is self.system.w0 else smooth), verdicts

    monkeypatch.setattr(Localization, "is_smooth", flipped)
    report = run_suite("smoothness", _config("smoothness", mode))
    assert len(report.cases) == CASES["smoothness"]
    assert [(c.case_id, c.witness) for c in report.cases if not c.ok] == [
        (
            "smoothness/fundamental class w=[3,2,1]",
            "smoothness criterion (False) disagrees with trivial KL (True)",
        )
    ]


@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_a_spurious_parabolic_kl_entry_fails_its_pushforward_case(monkeypatch, mode):
    """C^J_w reads its support from the P^J rows alone: P^J_{u,e} = 1 planted
    at J = {1} in the inversion row of the longest u in W^J, which is not
    below e, enters C^J_e, and the pushforward case of (J, e) fails, no
    other."""
    rows = HeckeAlgebra._inversion_rows

    def planted(self, J):
        p_rows, q_rows = rows(self, J)
        if J == (0,):
            u = self.system.minimal_coset_reps(J)[-1]
            p_rows[u.idx] = {**p_rows[u.idx], self.system.identity.idx: (1,)}
        return p_rows, q_rows

    monkeypatch.setattr(HeckeAlgebra, "_inversion_rows", planted)
    report = run_suite("pushforward", _config("pushforward", mode))
    assert len(report.cases) == CASES["pushforward"]
    assert [c.case_id for c in report.cases if not c.ok] == ["pushforward J={1} w=e"]


@pytest.mark.parametrize("mode", ["exact", "modp"])
@pytest.mark.parametrize("suite", ["smoothness", "grassmann-smoothness"])
def test_smoothness_builds_no_qw_element(monkeypatch, suite, mode):
    """The A3 smoothness suites read MC(X_w) off the memoized cell classes:
    with the image of tau_w refused, every case still runs and passes."""

    def refused(self, *args):
        raise AssertionError("smoothness built an element of the twisted group ring")

    monkeypatch.setattr(TwistedRing, "dl_element", refused)
    monkeypatch.setattr(TwistedRing, "hecke_to_qw", refused)
    report = run_suite(suite, _a3_config(suite, mode))
    assert len(report.cases) == A3_MODP_CASES[suite]
    assert report.all_passed(), [c.case_id for c in report.cases if not c.ok]


@pytest.mark.parametrize("mode", ["exact", "modp"])
@pytest.mark.parametrize("suite", ["gammapsirel", "braid", "zelevinsky"])
def test_hyperbolic_pushpull_products_take_the_closed_form(monkeypatch, suite, mode):
    """Every right product by a push-pull element Y_{J/J'} in the hyperbolic
    ring goes through times_pushpull: with the generic hyperbolic product
    refused, every A3 case still runs and passes."""
    qw_mul = TwistedRing.qw_mul

    def refused(self, a, b):
        if self.kind == "hyperbolic":
            raise AssertionError("a generic product in the hyperbolic ring")
        return qw_mul(self, a, b)

    monkeypatch.setattr(TwistedRing, "qw_mul", refused)
    report = run_suite(suite, _a3_config(suite, mode))
    assert len(report.cases) == A3_MODP_CASES[suite]
    assert report.all_passed(), [c.case_id for c in report.cases if not c.ok]


def test_products_read_no_reduced_word(monkeypatch, a3):
    """Hecke products build a tau_w by right steps along the parent chain:
    with WeylElt.word refused, zelevinsky runs and passes every case, and a
    product equals the one the word-walking oracle gave before."""
    h = HeckeAlgebra(a3)
    a, b = (h.kl_basis(a3.elements[i]) for i in (7, a3.order - 3))
    expected = product_by_steps(a, b)

    def refused(w):
        raise AssertionError("a reduced word was read")

    monkeypatch.setattr(WeylElt, "word", property(refused))
    for mode in ("exact", "modp"):
        report = run_suite("zelevinsky", _a3_config("zelevinsky", mode))
        assert len(report.cases) == A3_MODP_CASES["zelevinsky"]
        assert report.all_passed(), [c.case_id for c in report.cases if not c.ok]
    assert h.product(a, b) == expected


def test_smoothness_verdicts_are_built_once_per_element(monkeypatch):
    """grassmann-smoothness asks for the verdict of each w w_J for its case and
    again, when smooth, for the fundamental class; each verdict is built once."""
    built = []
    build = Localization._is_smooth

    def counted(self, w):
        built.append(w)
        return build(self, w)

    monkeypatch.setattr(Localization, "_is_smooth", counted)
    cfg = RunConfig(rank=3, mode="exact", k=2, seed=1, serre_samples=10, n=4, d=2)
    report = run_suite("grassmann-smoothness", cfg)
    assert len(report.cases) == 6 and report.all_passed()
    assert len(built) == len(set(built)) == 6


def test_each_t_polynomial_is_lifted_once_per_ring(monkeypatch):
    """Over the suites of one modp-a3 benchmark pass, every TwistedRing lifts
    each distinct polynomial in t once, however often it is asked for: a
    count, so it holds on any machine."""
    asked, built = [0], []
    ask, build = TwistedRing.t_poly, TwistedRing._t_poly

    def counted_ask(self, p):
        asked[0] += 1
        return ask(self, p)

    def _t_poly(self, p):
        built.append((self, p.sort_key()))  # holds the ring, so ids stay unique
        return build(self, p)

    monkeypatch.setattr(TwistedRing, "t_poly", counted_ask)
    monkeypatch.setattr(TwistedRing, "_t_poly", _t_poly)
    for suite in ("duality", "orthogonality", "parabolic-duality"):
        report = run_suite(suite, _a3_config(suite, "modp"))
        assert report.all_passed()
    keys = [(id(ring), key) for ring, key in built]
    assert len(keys) == len(set(keys))
    assert asked[0] > 2 * len(keys)


def _doubled(loc, c, J=()):
    """A wrong serre_dual: twice the class."""
    return c.scale(loc.mult.as_scalar(2))


def test_a_failing_exact_class_case_gets_a_bounded_witness(monkeypatch, a2):
    """An exact witness prints whole classes: each side keeps its first
    WITNESS_CHARS characters and records its full length."""
    monkeypatch.setattr(Localization, "serre_dual", _doubled)
    report = run_suite("serre", RunConfig(rank=2, mode="exact", serre_samples=0))
    loc = Localization(a2)
    cut = re.compile(r"lhs=(.*)\.\.\. \[(\d+) chars\] rhs=(.*)\.\.\. \[(\d+) chars\]")
    assert [c.case_id for c in report.cases] == [f"D(C[{w!r}]) = C[{w!r}]" for w in a2.elements]
    cut_cases = 0
    for w, case in zip(a2.elements, report.cases):
        lhs = loc.kl_class_c(w).scale(loc.mult.as_scalar(2)).format()
        rhs = loc.kl_class_c(w).format()
        assert not case.ok
        assert len(case.witness) < 2 * WITNESS_CHARS + 50
        if len(rhs) <= WITNESS_CHARS:
            assert case.witness == f"lhs={lhs} rhs={rhs}"
        else:
            kept_lhs, n_lhs, kept_rhs, n_rhs = cut.fullmatch(case.witness).groups()
            assert (kept_lhs, int(n_lhs)) == (lhs[:WITNESS_CHARS], len(lhs))
            assert (kept_rhs, int(n_rhs)) == (rhs[:WITNESS_CHARS], len(rhs))
            cut_cases += 1
    assert cut_cases == 5


def _json_by_dumps(report) -> str:
    """The report's JSON as one json.dumps of its whole payload, a dict per case."""
    payload = {
        "format_version": 1,
        "suite": report.suite,
        "params": report.params,
        "mode": report.mode,
        "seed": report.seed,
        "passed": report.passed,
        "failed": report.failed,
        "cases": [
            {"id": c.case_id, "pass": c.ok} | ({} if c.witness is None else {"witness": c.witness})
            for c in report.cases
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_to_json_gives_the_bytes_of_one_json_dumps(monkeypatch):
    """to_json writes each case as a string fragment; the bytes are those of
    json.dumps over the whole payload, for witnesses, ids with quotes,
    backslashes and non-ASCII characters, passing cases with a witness,
    failing ones without, no cases at all, and params with n and d."""
    cases = [
        verify.CaseResult("plain", True),
        verify.CaseResult('quote " and backslash \\ in an id', False, 'lhs="a" rhs=\\b'),
        verify.CaseResult(
            "non-ASCII \u03c8 \u00b7 \u03b3_{J/J'} u=[2,1,3]", False, "lhs=\u03c8\n\trhs=\U0001d4ac"
        ),
        verify.CaseResult("passing with a witness", True, "kept"),
        verify.CaseResult("", False),
    ]
    for params in ({"type": "A", "rank": 3}, {"type": "A", "rank": 3, "n": 4, "d": 2}):
        for subset in (cases, []):
            report = verify.VerificationReport("zelevinsky", params, "modp", 7, subset)
            assert report.to_json() == _json_by_dumps(report)
    grassmann = run_suite("grassmann-smoothness", RunConfig(n=4, d=2, k=2, seed=1))
    monkeypatch.setattr(Localization, "serre_dual", _doubled)
    failing = run_suite("serre", RunConfig(rank=2, mode="exact", serre_samples=0))
    assert failing.failed and grassmann.params["d"] == 2
    for report in (failing, grassmann):
        assert report.to_json() == _json_by_dumps(report)


# sha256 of the inversion report's to_json() at A3 and A4, as the term-by-term
# sum over all of W (and W^J) gave it
INVERSION_DIGESTS = {
    3: "3f6e501547c332c13470e8b5df23c656f2bf37cd3e5bde762139afde0e842ca7",
    4: "68cd43333e512a4ecc88a0641ad0c480a4b5acd2165b1ed10c0cd62acd9028de",
}


def _inversion_report(rank):
    cfg = RunConfig(type_label="A", rank=rank, mode="exact", k=2, seed=1, serre_samples=10)
    return run_suite("inversion", cfg)


@pytest.mark.parametrize("rank", sorted(INVERSION_DIGESTS))
def test_inversion_reports_are_pinned(rank):
    report = _inversion_report(rank)
    assert report.all_passed()
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == INVERSION_DIGESTS[rank]


def _inversion_blocks(system, h):
    """(id prefix, elements, Q, P) for the ordinary sum and each parabolic J,
    with Q and P read from the rows of h.inversion_rows."""
    named = [("inversion", ())] + [
        (f"parabolic inversion J={{{verify._jtxt(J)}}}", J) for J in verify._subsets(system.rank)
    ]
    blocks = []
    for prefix, J in named:
        p_rows, q_rows = h.inversion_rows(J)
        blocks.append(
            (
                prefix,
                system.minimal_coset_reps(J),
                lambda u, w, q_rows=q_rows: q_rows[u.idx].get(w.idx, ()),
                lambda w, v, p_rows=p_rows: p_rows[w.idx].get(v.idx, ()),
            )
        )
    return blocks


def _inversion_failures_by_full_sums(rank) -> set:
    """Ids of the inversion cases whose sum over every w, zero terms and all,
    is not delta_uv, read from a fresh HeckeAlgebra as it stands."""
    system = RootSystem(CartanData.type_a(rank))
    h = HeckeAlgebra(system)
    failing = set()
    for prefix, elements, q_of, p_of in _inversion_blocks(system, h):
        for u in elements:
            for v in elements:
                total = {}
                for w in elements:
                    sign = eps(u) * eps(w)
                    for j1, c1 in enumerate(q_of(u, w)):
                        for j2, c2 in enumerate(p_of(w, v)):
                            total[j1 + j2] = total.get(j1 + j2, 0) + sign * c1 * c2
                if {j: c for j, c in total.items() if c} != ({0: 1} if u is v else {}):
                    failing.add(f"{prefix} u={u!r} v={v!r}")
    return failing


def _by_index(args) -> tuple:
    """Arguments with each element as its index, the same in every RootSystem
    of one type."""
    return tuple(getattr(a, "idx", a) for a in args)


def _plant_in_rows(monkeypatch, edits):
    """Make every HeckeAlgebra build its inversion rows with change(value) in
    place of the value at each (J, side, a, b, change) of edits: entry b of
    row a of the P^J rows (side 0) or the Q^J rows (side 1), by index."""
    right = HeckeAlgebra._inversion_rows

    @functools.wraps(right)
    def planted(self, J):
        rows = right(self, J)
        for key, side, a, b, change in edits:
            if key == J:
                row = rows[side][a.idx] = dict(rows[side][a.idx])
                row[b.idx] = change(row.get(b.idx, ()))
        return rows

    monkeypatch.setattr(HeckeAlgebra, "_inversion_rows", planted)


def _raise_top_coefficient(p):
    return p[:-1] + (p[-1] + 1,)


def test_inversion_fails_exactly_the_cases_a_wrong_value_reaches(monkeypatch, a3):
    """One wrong KL value in the rows the suite reads, off the support of the
    sums (Q_{u,w} = 1 with u not below w) or on it (one coefficient of a
    nonzero P_{w,v} raised), fails exactly the cases whose full sum it
    changes, and only those."""
    h = HeckeAlgebra(a3)
    els, top = a3.elements, a3.w0
    J = (0,)
    reps = a3.minimal_coset_reps(J)
    s1, s2 = a3.simple_reflection(0), a3.simple_reflection(1)
    w1, v1 = a3.from_word([1]), a3.from_word([1, 0, 2, 1])  # P_{w1,v1} = 1 + q
    ju0, jw0 = reps[2], reps[1]  # same length, so ju0 is not below jw0
    jw1, jv1 = reps[1], reps[-1]
    assert not a3.bruhat_leq(s1, s2) and not a3.bruhat_leq(ju0, jw0)
    assert h.kl_polynomial(w1, v1) == (1, 1) and h.parabolic_kl(jw1, jv1, J)
    ordinary, parabolic = "inversion", "parabolic inversion J={1}"
    patches = [
        (
            "Q_{s1,s2}",
            [((), 1, s1, s2, lambda p: (1,))],
            ordinary,
            {(s1, v) for v in els if h.kl_polynomial(s2, v)},
        ),
        (
            "P_{w1,v1}",
            # P_{w1,v1} is also Q_{w0 v1, w0 w1}, so it sits in a Q row too
            [
                ((), 0, w1, v1, _raise_top_coefficient),
                ((), 1, top * v1, top * w1, _raise_top_coefficient),
            ],
            ordinary,
            {(u, v1) for u in els if h.inverse_kl(u, w1)}
            | {(top * v1, v) for v in els if h.kl_polynomial(top * w1, v)},
        ),
        (
            "Q^J_{ju0,jw0}",
            [(J, 1, ju0, jw0, lambda p: (1,))],
            parabolic,
            {(ju0, v) for v in reps if h.parabolic_kl(jw0, v, J)},
        ),
        (
            "P^J_{jw1,jv1}",
            [(J, 0, jw1, jv1, _raise_top_coefficient)],
            parabolic,
            {(u, jv1) for u in reps if h.inverse_parabolic_kl(u, jw1, J)},
        ),
    ]
    for value, edits, block, reached in patches:
        with monkeypatch.context() as m:
            _plant_in_rows(m, edits)
            failing = {c.case_id for c in _inversion_report(3).cases if not c.ok}
            assert failing == _inversion_failures_by_full_sums(3), value
        in_block = {c for c in failing if c.startswith(f"{block} u=")}
        assert in_block == {f"{block} u={u!r} v={v!r}" for u, v in reached}, value
        if block == parabolic:
            # nothing else reads a parabolic value
            assert failing == in_block, value


def test_inversion_looks_each_kl_value_up_once(monkeypatch):
    """A3 inversion makes no per-pair KL call: it reads every value from the
    inversion rows, and builds the rows of each J once, so each value is
    looked up once per J.  A count, so it holds on any machine."""
    calls = dict.fromkeys(("inverse_kl", "kl_polynomial", "inverse_parabolic_kl", "parabolic_kl"), 0)
    for name in calls:
        method = getattr(HeckeAlgebra, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(HeckeAlgebra, name, counted)
    builds = []
    right = HeckeAlgebra._inversion_rows

    @functools.wraps(right)
    def counted_build(self, J):
        builds.append(J)
        return right(self, J)

    monkeypatch.setattr(HeckeAlgebra, "_inversion_rows", counted_build)
    report = _inversion_report(3)
    assert len(report.cases) == 1653 and report.all_passed()
    assert calls == dict.fromkeys(calls, 0)
    assert sorted(builds) == sorted(verify._subsets(3))


def test_hecke_guard_refuses_a_suite():
    with pytest.raises(GuardRefusal):
        run_suite("duality", RunConfig(rank=2, hecke_guard=5))
    # the refusal comes while the group is enumerated: all of A7 is never built
    with pytest.raises(GuardRefusal):
        run_suite("braid", RunConfig(rank=7))


def test_comb_guard_refuses_zelevinsky():
    with pytest.raises(GuardRefusal):
        run_suite("zelevinsky", RunConfig(n=3, d=1, comb_guard=5))


def test_zelevinsky_without_the_algebra_runs_only_combinatorics():
    report = run_suite("zelevinsky", RunConfig(n=3, d=1, hecke_guard=5))
    assert len(report.cases) == 6 and report.all_passed()
    assert all(
        c.case_id.endswith(("refactored reduced word", "relative longest elements"))
        for c in report.cases
    )


def test_suites_without_scalars_build_no_scalar_domain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the orbit domain was built")

    monkeypatch.setattr(verify, "OrbitDomain", refuse)
    report = run_suite("zelevinsky", RunConfig(n=3, d=1, mode="modp", hecke_guard=5))
    assert len(report.cases) == 6 and report.all_passed()


def test_report_names_the_group_that_ran():
    report = run_suite("braid", RunConfig(n=4))
    assert report.params == {"type": "A", "rank": 3, "n": 4}
    assert "quadratic tau_3" in [c.case_id for c in report.cases]
    with pytest.raises(ValueError, match="RunConfig builds type A only, not type 'B'"):
        run_suite("braid", RunConfig(type_label="B", n=4))


def test_a_rank_that_conflicts_with_n_is_refused():
    with pytest.raises(ValueError, match="rank 5 conflicts with n = 4"):
        run_suite("braid", RunConfig(rank=5, n=4))
    assert RunConfig(rank=3, n=4).params_dict() == {"type": "A", "rank": 3, "n": 4}
    assert RunConfig().params_dict() == {"type": "A", "rank": 2}


@pytest.mark.parametrize("kwargs", [{"rank": 0}, {"rank": -1}, {"n": 1}])
def test_a_rank_below_one_is_refused(kwargs):
    """A rank below 1 is refused when the config is made, and a made config is
    frozen, so no suite runs on the trivial group."""
    with pytest.raises(ValueError, match="below 1"):
        RunConfig(**kwargs)
    cfg = RunConfig()
    for key, value in kwargs.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, key, value)
    assert (cfg.rank, cfg.n) == (None, None)


@pytest.mark.parametrize(
    "field, value, mode, message",
    [
        ("serre_samples", -3, "exact", "serre_samples = -3 is below 0"),
        ("k", 0, "modp", "k = 0 is below 1"),
        ("mode", "padic", "exact", "unknown mode 'padic'"),
    ],
)
def test_a_config_changed_after_construction_is_refused(field, value, mode, message):
    """A config is frozen: setting a field to a bad value after construction
    raises, and leaves the config as it was made; made with that value, the
    config is refused."""
    cfg = RunConfig(rank=3, mode=mode, serre_samples=0)
    before = dataclasses.astuple(cfg)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, value)
    assert dataclasses.astuple(cfg) == before
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(cfg, **{field: value})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"k": 0}, "k = 0 is below 1"),
        ({"k": -2, "mode": "exact"}, "k = -2 is below 1"),
        ({"serre_samples": -1}, "serre_samples = -1 is below 0"),
        ({"serre_samples": -3, "mode": "exact"}, "serre_samples = -3 is below 0"),
    ],
)
def test_no_point_families_or_negative_samples_are_refused(kwargs, message):
    """k < 1 and serre_samples < 0 are refused when the config is made, before
    any group or KL table is built; serre_samples = 0 stays a valid run."""
    with pytest.raises(ValueError, match=message):
        RunConfig(**{"rank": 2, "mode": "modp", **kwargs})
    assert RunConfig(rank=2, k=1, serre_samples=0).serre_samples == 0


@pytest.mark.parametrize(
    "kwargs", [{"rank": 2, "d": 1}, {"n": 3, "d": 7}, {"n": 3, "d": 3}, {"n": 3, "d": 0}]
)
def test_a_grassmannian_d_without_n_or_out_of_range_is_refused(kwargs):
    """d needs n and 1 <= d < n when the config is made, and a made config is
    frozen, so no report names a Grassmannian the run did not use."""
    with pytest.raises(ValueError, match=f"d = {kwargs['d']} needs n with 1 <= d < n"):
        RunConfig(**kwargs)
    cfg = RunConfig(n=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.d = kwargs["d"]
    assert cfg.d is None
    assert RunConfig(n=3, d=2).grass().J_indices() == (0,)


@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_parabolic_suites_scan_no_class_for_invariance(monkeypatch, mode):
    """Classes on G/P_J live at W^J, so neither A3 parabolic suite tests a
    class for right-W_J-invariance, and every case passes."""

    def refused(self, c, J):
        raise AssertionError("is_invariant called")

    monkeypatch.setattr(Localization, "is_invariant", refused)
    for suite in ("parabolic-duality", "pushforward"):
        report = run_suite(suite, _a3_config(suite, mode))
        assert report.cases and report.all_passed(), suite
