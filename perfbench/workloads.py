"""The benchmark's workloads: which suites run, with which settings, and the
verdict each must reach.

Every workload is type A with k=2 orbit points and 10 Serre samples, the
settings of the ROADMAP baseline table.  The seed reaches the program only as
``RunConfig.seed``; the recorded verdicts hold for every seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from klschubert.hecke import HeckeAlgebra
from klschubert.localization import Localization
from klschubert.modp import ExactDomain, OrbitDomain
from klschubert.rootsystem import CartanData, RootSystem
from klschubert.verify import RunConfig

K = 2
SERRE_SAMPLES = 10


@dataclass(frozen=True)
class Workload:
    rank: int
    mode: str
    # (suite, Grassmannian d or None); a suite with d runs on G(d, rank + 1)
    suites: tuple
    cases: dict  # suite -> expected case count
    digest: str  # verdict_digest() of the expected (case id, verdict) pairs


WORKLOADS = {
    # Exact scalar path: RatFunc construction and its trial division.
    "exact-a3": Workload(
        rank=3,
        mode="exact",
        suites=(("serre", None), ("gammapsirel", None), ("grassmann-smoothness", 2)),
        cases={"serre": 34, "gammapsirel": 27, "grassmann-smoothness": 6},
        digest="22a9fd1523ec2139c56e7354bf57a4f91b384ec110d4834efc9764ce262c8c18",
    ),
    # Pairing theorems at orbit points: lift, OrbitScalar arithmetic, weyl.
    "modp-a3": Workload(
        rank=3,
        mode="modp",
        suites=(("duality", None), ("orthogonality", None), ("parabolic-duality", None)),
        cases={"duality": 576, "orthogonality": 576, "parabolic-duality": 2226},
        digest="ac87d83ceb3fcb0ba0e4054d9be66c40d02c79704d14b12778f295f04995fdaf",
    ),
    # Pure KL and group combinatorics; never touches scalars.
    "kl-a3": Workload(
        rank=3,
        mode="exact",
        suites=(("inversion", None),),
        cases={"inversion": 1653},
        digest="097c4e4d0763cb47570d00d7bf3dd086708a78d345d2cb1a4e0027aa6423e481",
    ),
}


def suite_configs(w: Workload, seed: int, rank: int | None = None, mode: str | None = None):
    """[(suite, RunConfig)] for one pass over the workload."""
    rank = w.rank if rank is None else rank
    out = []
    for suite, d in w.suites:
        grass = {} if d is None else {"n": rank + 1, "d": d}
        cfg = RunConfig(
            type_label="A",
            rank=rank,
            mode=w.mode if mode is None else mode,
            k=K,
            seed=seed,
            serre_samples=SERRE_SAMPLES,
            **grass,
        )
        out.append((suite, cfg))
    return out


def build_context(w: Workload, seed: int) -> list:
    """The group context a suite builds, from the public constructors.

    Orbit-point seeds follow the ones ``run_suite`` draws for the same seed.
    """
    system = RootSystem(CartanData.type_a(w.rank))
    hecke = HeckeAlgebra(system)
    if w.mode == "exact":
        domains = [ExactDomain(system)]
    else:
        domains = [OrbitDomain(system, seed=seed * 1000003 + i * 101) for i in range(K)]
    return [Localization(system, d, hecke) for d in domains]


def verdict_digest(reports) -> str:
    """sha256 over the (suite, case id, verdict) triples, in report order."""
    h = hashlib.sha256()
    for report in reports:
        for case in report.cases:
            h.update(f"{report.suite}\t{case.case_id}\t{int(case.ok)}\n".encode())
    return h.hexdigest()
