"""Tests of the benchmark itself: the verdict gate, the tracer and the output
contract.  Run with ``python3 -m pytest -q perfbench``; they take about 12 s.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from klschubert.laurent import LaurentPoly  # noqa: E402
from klschubert.localization import Localization  # noqa: E402
from klschubert.modp import OrbitDomain  # noqa: E402
from klschubert.ratfunc import RatFunc  # noqa: E402
from klschubert.rootsystem import CartanData, RootSystem  # noqa: E402
from klschubert.verify import CaseResult  # noqa: E402

KL = workloads.WORKLOADS["kl-a3"]
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def kl_pass():
    return run.run_verdict(KL, 0)


def _args(trace=0, seconds=0.0):
    return run.argparse.Namespace(workload="kl-a3", seed=5, seconds=seconds, trace=trace)


def test_seed_verdict_passes_gate(kl_pass):
    attempted, failed, problems = run.gate(KL, kl_pass)
    assert (attempted, failed, problems) == (1653, 0, [])


def test_changed_verdict_fails_gate(kl_pass):
    report = kl_pass.reports["inversion"]
    cases = list(report.cases)
    cases[7] = replace(cases[7], ok=False, witness="flipped")
    bad = replace(kl_pass, reports={"inversion": replace(report, cases=cases)})
    _, failed, problems = run.gate(KL, bad)
    assert failed == 1
    assert any("1 of 1653 cases failed" in p for p in problems)
    assert any("verdict digest" in p for p in problems)


def test_changed_case_count_fails_gate(kl_pass):
    report = kl_pass.reports["inversion"]
    extra = report.cases + [CaseResult("inversion extra", True)]
    bad = replace(kl_pass, reports={"inversion": replace(report, cases=extra)})
    _, failed, problems = run.gate(KL, bad)
    assert failed == 0
    assert any("1654 cases, expected 1653" in p for p in problems)


def test_raising_suite_fails_run(monkeypatch, capsys):
    def boom(name, cfg):
        raise RuntimeError("suite exploded")

    monkeypatch.setattr(run, "run_suite", boom)
    assert run.main(["--workload", "kl-a3", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1653
    assert result["metrics"] == {}


def test_non_identical_rerun_fails_run(monkeypatch):
    calls = []
    real = run.run_suite

    def drifting(name, cfg):
        report = real(name, cfg)
        calls.append(name)
        if len(calls) > 1:
            report.cases[0] = replace(report.cases[0], witness="drift")
        return report

    monkeypatch.setattr(run, "run_suite", drifting)
    result = run.measure(_args(seconds=1.5))
    assert len(calls) > 1
    assert result["correct"] is False
    assert any("not byte-identical" in p for p in result["problems"])


def test_time_cap_fails_the_running_suite(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.3)
    result = run.measure(_args(seconds=5))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1653
    assert any("time cap" in p for p in result["problems"])


def test_untraced_run_reports_end_to_end_metrics():
    result = run.measure(_args())
    assert result["correct"] and result["failed"] == 0
    names = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run.measure(_args(trace=1))
    assert result["correct"], result["problems"]
    names = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["hecke.inverse_parabolic_kl.calls"] > 0 and m["rootsystem.product.calls"] > 0
    assert m["verify.inversion.s"] > 0 and m["verify.serre.s"] == 0.0
    assert m["verify.cases"] == 1653 and m["trace.overhead_ratio"] > 1
    dump = json.loads((tmp_path / ".perfbench" / "trace-kl-a3-seed5.json").read_text())
    assert dump["spans_kept"] == min(tracing.SPAN_CAP, dump["spans_total"])


def _patched_attributes() -> dict:
    return {
        (id(obj), attr): vars(obj)[attr]
        for _, owner, attrs, _ in tracing.TARGETS
        for obj in (owner if isinstance(owner, tuple) else (owner,))
        for attr in attrs
    }


def test_instrument_restores_originals_and_self_time_is_bounded():
    before = _patched_attributes()
    tracer = tracing.Tracer(span_cap=50)
    with tracing.instrument(tracer):
        run.run_verdict(KL, 0)
    assert _patched_attributes() == before
    assert len(tracer.spans) == 50
    for calls, total, self_s, _ in tracer.totals().values():
        assert 0 <= self_s <= total + 1e-9
        assert calls or total == 0
    # a span's id is taken when it opens, so a parent's id is always smaller
    assert all(parent < sid for sid, _, _, _, parent in tracer.spans)


def test_lift_hit_ratio_mirrors_the_domain_cache():
    system = RootSystem(CartanData.type_a(2))
    t = LaurentPoly.t_power(3, 1)
    r = RatFunc.fraction(t, t * t + LaurentPoly.const(3, 1))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        domains = [OrbitDomain(system, seed=s) for s in (1, 2)]
        for d in domains:
            loc = Localization(system, d)
            loc.pairing(loc.kl_class_c(system.w0), loc.kl_class_c_tilde(system.w0))
            d.lift(r)
            d.lift(r)
    calls, _, _, hits = tracer.totals()["modp.lift"]
    assert calls > hits >= 2
    assert calls - hits == sum(len(d._lift_cache) for d in domains)


def test_speed_meter_subtracts_probes_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedMeter(time.monotonic() + 60, run.TimeCap) as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            pass
        t1 = time.perf_counter()
    inside = [d for end, d in meter.probes if t0 <= end <= t1]
    assert len(inside) >= 3
    assert meter.own(t0, t1) == pytest.approx(t1 - t0 - sum(inside))
    assert meter.factor([(t0, t1)]) > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_check_passes():
    assert run.self_check() == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = BENCH["command"] + ["--workload", "kl-a3", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
