"""Verdict benchmark for klschubert.

Run from the repository root:

    python3 perfbench/run.py --workload exact-a3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

One run builds the workload's group context SETUP_REPS times (setup_s is the
median), then reaches the workload's verdict through ``run_suite`` again and
again, in this one process and thread, until --seconds have passed (at least
once).  Each pass is one closed-loop request from a single caller.  Every pass
goes through the verdict gate: each suite's case count, every case passing,
the recorded digest of the (case id, verdict) pairs, and byte-identical
``to_json()`` reports between passes of the same seed.  Every time reported
is rescaled to a reference CPU speed measured alongside (see calibrate.py).

With --trace 1 the untraced passes are followed by one pass with every layer
instrumented (see tracing.py); it must reproduce the untraced reports byte for
byte.  The raw spans go to .perfbench/.

The last line of stdout is the result object; the exit code is 0 only when
every verdict was right.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from klschubert.verify import run_suite  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The whole process must end within 180 s; the time cap fails what is left.
DEADLINE_S = 165.0
SETUP_REPS = 25
# Room left for the traced pass, in multiples of one untraced pass.
TRACE_RESERVE = 4.0
TRACE_DIR = ".perfbench"
ALL_SUITES = list(dict.fromkeys(s for w in workloads.WORKLOADS.values() for s, _ in w.suites))


class TimeCap(Exception):
    """The run reached DEADLINE_S."""

    def __init__(self):
        super().__init__(f"benchmark time cap of {DEADLINE_S:.0f} s reached")


@dataclasses.dataclass
class Verdict:
    """One pass over a workload's suites."""

    reports: dict  # suite -> VerificationReport, for suites that returned
    errors: dict  # suite -> error text, for suites that raised or never ran
    intervals: dict  # suite -> (start, end) perf_counter stamps
    rss_mb: float  # the process's peak resident memory at the end of the pass

    @property
    def wall_s(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.intervals.values())

    def jsons(self) -> list:
        return [r.to_json() for r in self.reports.values()]


def run_verdict(w: workloads.Workload, seed: int) -> Verdict:
    reports, errors, intervals = {}, {}, {}
    capped = None
    for suite, cfg in workloads.suite_configs(w, seed):
        if capped:
            errors[suite] = f"not run: {capped}"
            continue
        t0 = time.perf_counter()
        try:
            reports[suite] = run_suite(suite, cfg)
        except TimeCap as exc:
            capped = errors[suite] = str(exc)
        except Exception as exc:  # a suite that raises fails all of its cases
            traceback.print_exc(file=sys.stderr)
            errors[suite] = f"{type(exc).__name__}: {exc}"
        intervals[suite] = (t0, time.perf_counter())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return Verdict(reports, errors, intervals, rss_mb)


def gate(w: workloads.Workload, v: Verdict) -> tuple:
    """(cases attempted, cases failed, problems) of one pass."""
    attempted = failed = 0
    problems = []
    for suite, _ in w.suites:
        expected = w.cases[suite]
        if suite in v.errors:
            attempted += expected
            failed += expected
            problems.append(f"{suite}: {v.errors[suite]}")
            continue
        report = v.reports[suite]
        attempted += len(report.cases)
        failed += report.failed
        if len(report.cases) != expected:
            problems.append(f"{suite}: {len(report.cases)} cases, expected {expected}")
        if report.failed:
            problems.append(f"{suite}: {report.failed} of {len(report.cases)} cases failed")
    if not v.errors:
        digest = workloads.verdict_digest(v.reports.values())
        if digest != w.digest:
            problems.append(f"verdict digest {digest} differs from the recorded {w.digest}")
    return attempted, failed, problems


def _loop(w, seed, seconds, deadline, reserve) -> list:
    """Untraced passes until `seconds` have passed, leaving `reserve` passes of room."""
    passes = []
    start = time.monotonic()
    while True:
        v = run_verdict(w, seed)
        passes.append(v)
        now = time.monotonic()
        if v.errors or now - start >= seconds or now + v.wall_s * (1 + reserve) > deadline:
            return passes


def pass_times(meter: calibrate.SpeedMeter, passes: list) -> list:
    """Each pass's time, rescaled by one speed factor for the stretch they cover."""
    f = meter.factor([s for v in passes for s in v.intervals.values()])
    return [sum(meter.own(*s) for s in v.intervals.values()) * f for v in passes]


def layer_metrics(tracer, meter, passes: list, traced: Verdict) -> dict:
    totals = tracer.totals()
    traced_s = pass_times(meter, [traced])[0]
    # self times include the probes that ran inside them; rescale like the pass
    scale = traced_s / traced.wall_s
    out = {}
    for name, _, _, kinds in tracing.TARGETS:
        calls, _, self_s, hits = totals[name]
        if "calls" in kinds:
            out[f"{name}.calls"] = (calls, "count")
        if "self_s" in kinds:
            out[f"{name}.self_s"] = (self_s * scale, "s")
        if "hit_ratio" in kinds:
            out[f"{name}.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    f = meter.factor([s for v in passes for s in v.intervals.values()])
    for suite in ALL_SUITES:
        times = [meter.own(*v.intervals[suite]) * f for v in passes if suite in v.intervals]
        out[f"verify.{suite}.s"] = (statistics.median(times) if times else 0.0, "s")
    out["verify.cases"] = (sum(len(r.cases) for r in passes[0].reports.values()), "count")
    untraced_s = statistics.median(pass_times(meter, passes))
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args, w) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "configs": [
            {"suite": suite, **dataclasses.asdict(cfg)}
            for suite, cfg in workloads.suite_configs(w, args.seed)
        ],
    }


def measure(args) -> dict:
    w = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    problems, setup, passes, traced = [], [], [], None
    tracer = tracing.Tracer()
    with calibrate.SpeedMeter(deadline, TimeCap) as meter:
        try:
            for _ in range(0 if args.trace else SETUP_REPS):
                t0 = time.perf_counter()
                workloads.build_context(w, args.seed)
                setup.append((t0, time.perf_counter()))
            reserve = TRACE_RESERVE if args.trace else 0
            passes = _loop(w, args.seed, args.seconds, deadline, reserve)
            if args.trace and not passes[-1].errors:
                with tracing.instrument(tracer):
                    traced = run_verdict(w, args.seed)
        except TimeCap as exc:
            problems.append(str(exc))

    attempted = failed = 0
    checked = passes + ([traced] if traced else [])
    for v in checked:
        a, f, p = gate(w, v)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
    for i, v in enumerate(checked[1:], 1):
        if not v.errors and v.jsons() != checked[0].jsons():
            problems.append(f"pass {i} report is not byte-identical to pass 0")

    metrics = {}
    if not problems:
        if args.trace:
            metrics = layer_metrics(tracer, meter, passes, traced)
            os.makedirs(TRACE_DIR, exist_ok=True)
            path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            with open(path, "w") as fh:
                json.dump({"meta": run_metadata(args, w), **tracer.span_dump()}, fh)
        else:
            build_s = statistics.median(meter.own(*s) for s in setup)
            metrics = {
                "verdict_s": (statistics.median(pass_times(meter, passes)), "s"),
                "setup_s": (build_s * meter.factor(setup), "s"),
                "peak_rss_mb": (passes[0].rss_mb, "MB"),
            }
    return {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def self_check() -> list:
    """exact-a3 and modp-a3 suites at A2 in both modes agree; A2 inversion passes."""
    problems = []
    for name in ("exact-a3", "modp-a3"):
        w = workloads.WORKLOADS[name]
        verdicts = {}
        for mode in ("exact", "modp"):
            for suite, cfg in workloads.suite_configs(w, 0, rank=2, mode=mode):
                report = run_suite(suite, cfg)
                if report.failed:
                    problems.append(f"A2 {mode} {suite}: {report.failed} cases failed")
                verdicts.setdefault(suite, {})[mode] = [(c.case_id, c.ok) for c in report.cases]
        for suite, by_mode in verdicts.items():
            if by_mode["exact"] != by_mode["modp"]:
                problems.append(f"A2 {suite}: exact and modp verdicts differ")
    (suite, cfg), = workloads.suite_configs(workloads.WORKLOADS["kl-a3"], 0, rank=2)
    report = run_suite(suite, cfg)
    if report.failed or not report.cases:
        problems.append(f"A2 {suite}: {report.failed} of {len(report.cases)} cases failed")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true", help="fast A2 smoke run, then exit")
    args = ap.parse_args(argv)
    if args.self_check:
        t0 = time.perf_counter()
        problems = self_check()
        print(json.dumps({"self_check": not problems, "problems": problems,
                          "seconds": time.perf_counter() - t0}))
        return 0 if not problems else 1
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 0:
        ap.error("--seconds must not be negative")
    w = workloads.WORKLOADS[args.workload]
    print(json.dumps({"meta": run_metadata(args, w)}))
    result = measure(args)
    for p in dict.fromkeys(result.pop("problems")):
        print(f"verdict gate: {p}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
