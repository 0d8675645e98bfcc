"""One A5 gate of CI: run a suite at A5 (k=2, seed 1) and check that every case
passes, the number of cases and the sha256 of the report's JSON.

    PYTHONPATH=src python tests/a5_gate.py <suite>

pytest does not collect this file (its name does not start with test_).
"""

import hashlib
import sys

from klschubert.verify import RunConfig, run_suite

# suite -> (RunConfig fields beside rank=5, k=2, seed=1; passing cases; report sha256)
GATES = {
    "inversion": (
        {"mode": "exact"},
        1970123,
        "d958eec678e09b2cc6542f55072e945fc101bf0d0a636fcb85dd5b985456ed28",
    ),
    "serre": (
        {"mode": "modp", "serre_samples": 10},
        730,
        "d5c36b1b839cabb09c2839db38d5ab6075ead00715c03fb6f476686949082483",
    ),
    "duality": (
        {"mode": "modp"},
        518400,
        "18649d305834d6cd0c1b0910d6bddde37e6105dd91243a015b8b805dd17970a0",
    ),
    "orthogonality": (
        {"mode": "modp"},
        518400,
        "1a9ccaa82d1e0fbc28ff7f02d8f714b19b6ab9689d94a0e57c6da1b689d1fbe3",
    ),
    "parabolic-duality": (
        {"mode": "modp"},
        2908126,
        "8d56e34a3754a3aaa06855fe1a2a783df93ed4b5aee7908d057b54439c355a20",
    ),
    "pushforward": (
        {"mode": "modp"},
        4683,
        "1669c35ce1d95c41c6ddefb1d1135de4104938c787fa0912c19c108da62216a6",
    ),
}


def main(suite: str) -> None:
    fields, passed, digest = GATES[suite]
    report = run_suite(suite, RunConfig(rank=5, k=2, seed=1, **fields))
    if (report.passed, report.failed) != (passed, 0):
        sys.exit(f"{suite}: {report.passed} passed, {report.failed} failed; want {passed}, 0")
    got = hashlib.sha256(report.to_json().encode()).hexdigest()
    if got != digest:
        sys.exit(f"{suite}: report sha256 {got}, want {digest}")
    print(f"{suite}: {passed} passed, digest {digest[:16]}...")


if __name__ == "__main__":
    main(sys.argv[1])
