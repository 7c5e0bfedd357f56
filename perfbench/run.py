"""bvcalc benchmark: time-to-verdict on three workloads, with a layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ym-su2-n4 --seed 20240808 --seconds 30 --trace 0

With ``--trace 0`` the workload's case list is run in rounds until the next
round would end after ``--seconds`` of wall time, and the end-to-end metrics
are printed, corrected to a reference host speed (see ``speed.py``).  With
``--trace 1`` one untraced round and one traced round are run and the
per-layer metrics are printed.  Either way every verdict is checked against its expected value; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything runs in this one
process, with no threads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 6  # before the rounds, and again after them

# Layers each workload is predicted to call (calls > 0), and the layers it is
# predicted to bypass (calls == 0).  A miss is reported, not counted as a
# failed verdict: it flags a stale prediction or a broken wrapper.
TRACE_EXPECT = {
    "ym-su2-n4": {
        "called": ("coeff.mul", "coeff.add", "algebra._from_raw",
                   "algebra.make_attach", "jetcalc.channel_partial_left",
                   "jetcalc.euler_channelled", "jetcalc.total_derivative",
                   "jetcalc.euler_left", "jetcalc.collapse",
                   "cohomology.functional_equal", "cohomology._ClassBasis.expand",
                   "bv.schouten_density", "bv.laplacian_density"),
        "bypassed": ("jetcalc.canonicalize_channels", "jetcalc.euler_right"),
    },
    "identity-suites": {
        "called": ("coeff.mul", "coeff.add", "algebra._from_raw",
                   "algebra.make_attach", "jetcalc.channel_partial_left",
                   "jetcalc.euler_channelled", "jetcalc.euler_right",
                   "jetcalc.total_derivative", "jetcalc.euler_left",
                   "jetcalc.collapse", "jetcalc.canonicalize_channels",
                   "cohomology.functional_equal", "cohomology._ClassBasis.expand",
                   "bv.schouten_density", "bv.laplacian_density"),
        "bypassed": (),
    },
    "nested-brackets": {
        "called": ("coeff.mul", "coeff.add", "algebra._from_raw",
                   "algebra.make_attach", "jetcalc.channel_partial_left",
                   "jetcalc.euler_channelled", "jetcalc.canonicalize_channels",
                   "cohomology.functional_equal", "bv.schouten_density"),
        "bypassed": ("jetcalc.euler_right", "jetcalc.total_derivative",
                     "jetcalc.euler_left", "jetcalc.collapse"),
    },
}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=20240808)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Round:
    def __init__(self, wall, raw_wall, latencies, outcomes, spans):
        self.wall = wall            # on the round's clock
        self.raw_wall = raw_wall    # plain wall seconds
        self.latencies = latencies  # per case, in case order
        self.outcomes = outcomes    # (label, None or reason) per verdict
        self.spans = spans

    @property
    def failures(self):
        return [(label, why) for label, why in self.outcomes if why is not None]


def run_round(cases, checks, clock) -> Round:
    from workloads import Spans

    spans = Spans()
    latencies, outcomes = [], []
    raw0 = time.perf_counter()
    t0 = clock()
    for case in cases:
        c0 = clock()
        try:
            why = case.run(spans)
        except Exception as exc:  # a raise is a wrong verdict; keep going
            why = f"raised {type(exc).__name__}: {exc}"
        dt = clock() - c0
        if case.span:
            spans.add(case.span, dt)
        latencies.append(dt)
        outcomes.append((case.label, why))
    wall = clock() - t0
    raw_wall = time.perf_counter() - raw0
    for label, check in checks:
        outcomes.append((label, check()))
    return Round(wall, raw_wall, latencies, outcomes, spans.seconds)


def tail(values):
    """Value at the highest percentile with at least ten cases beyond it,
    with that percentile and the case count; the maximum below 11 cases."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(rounds, setup_times, factor):
    per_case = [statistics.median(r.latencies[i] for r in rounds)
                for i in range(len(rounds[0].latencies))]
    tail_s, pct, n = tail(per_case)
    metrics = {
        "setup_s": (factor * statistics.median(setup_times), "s"),
        "verdict_s": (factor * statistics.median(r.wall for r in rounds), "s"),
        "case_p50_s": (factor * statistics.median(per_case), "s"),
        "case_tail_s": (factor * tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print("round wall s: " + " ".join(f"{r.raw_wall:.3f}" for r in rounds)
          + "; less probes: " + " ".join(f"{r.wall:.3f}" for r in rounds)
          + f"; times x {factor:.4f}")
    print(f"rounds: {len(rounds)} x {n} cases; case_tail_s is p{pct:.1f} "
          f"of {n} cases ({min(10, n - 1)} beyond it)")
    return metrics


def per_layer(workload, plain, traced, tracer):
    from workloads import SUITES, YM_STEPS

    metrics = {k: (v, _unit(k)) for k, v in tracer.metrics().items()}
    for suite in SUITES:
        name = f"cli.run_suite.{suite}.s"
        metrics[name] = (plain.spans.get(f"cli.run_suite.{suite}", 0.0), "s")
    for step in YM_STEPS:
        metrics[f"ym.{step}.s"] = (plain.spans.get(f"ym.{step}", 0.0), "s")
    overhead = traced.raw_wall / plain.raw_wall
    metrics["trace.overhead"] = (overhead, "ratio")
    print(f"tracing overhead: traced verdict_s {traced.raw_wall:.3f} s / untraced "
          f"{plain.raw_wall:.3f} s = {overhead:.3f}")

    problems = [f"binding not wrapped: {b}" for b in tracer.missing_bindings()]
    expect = TRACE_EXPECT[workload]
    for layer in expect["called"]:
        if not metrics[f"{layer}.calls"][0]:
            problems.append(f"{layer}: predicted calls, recorded none")
    for layer in expect["bypassed"]:
        if metrics[f"{layer}.calls"][0]:
            problems.append(f"{layer}: predicted no calls, recorded "
                            f"{metrics[f'{layer}.calls'][0]}")
    for line in problems or ["all predictions met"]:
        print(f"trace check: {line}")
    return metrics


def _unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in ("s", "self_s"):
        return "s"
    if stat == "int_share":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    if not (SRC / "bvcalc" / "__init__.py").is_file():
        print(f"perfbench: no bvcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    from layers import Tracer
    from speed import REF_PROBE_S, SpeedProbe
    from workloads import WORKLOADS, SeededCoefficients, load_bvcalc

    args = parse_args(argv)
    build = WORKLOADS[args.workload]
    print(f"env: python {platform.python_version()}, git {git_revision()}, "
          f"nproc {os.cpu_count()}, {platform.machine()}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")

    def set_up(clock, repeats):
        times = []
        for _ in range(repeats):
            t0 = clock()
            lib = load_bvcalc()
            seeds = SeededCoefficients(lib, args.seed)
            with seeds:
                cases, checks = build(lib, seeds)
            times.append(clock() - t0)
        return lib, seeds, cases, checks, times

    if args.trace:
        lib, seeds, cases, checks, _ = set_up(time.perf_counter, 1)
        with seeds:
            plain = run_round(cases, checks, time.perf_counter)
            with Tracer(lib) as tracer:
                traced = run_round(cases, checks, time.perf_counter)
        rounds = [plain, traced]
        if [why for _, why in plain.outcomes] != [why for _, why in traced.outcomes]:
            traced.outcomes.append(("traced verdicts", "differ from untraced"))
        metrics = per_layer(args.workload, plain, traced, tracer)
    else:
        with SpeedProbe() as speed:
            # set-ups before and after the rounds sample the host at both ends
            lib, seeds, cases, checks, setup_times = set_up(speed.clock, SETUP_REPEATS)
            rounds = []
            start = time.perf_counter()
            with seeds:
                while True:
                    rounds.append(run_round(cases, checks, speed.clock))
                    if time.perf_counter() - start + rounds[-1].raw_wall > args.seconds:
                        break
            setup_times += set_up(speed.clock, SETUP_REPEATS)[4]
        factor = speed.factor()
        print(f"host speed: probe median {REF_PROBE_S / factor * 1e3:.4f} ms over "
              f"{len(speed.samples)} samples, reference {REF_PROBE_S * 1e3:.4f} ms")
        metrics = end_to_end(rounds, setup_times, factor)

    attempted = sum(len(r.outcomes) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    print(f"failed_frac: {len(failures) / attempted:.4f} "
          f"({len(failures)} of {attempted} verdicts)")
    for label, why in failures[:20]:
        print(f"FAILED {label}: {why}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
