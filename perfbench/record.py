"""Record a set of benchmark runs and summarise them.

    python3 perfbench/record.py --workloads ym-su2-n4 nested-brackets \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 --out perfbench/results/run.json

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, and
writes every run's metrics plus, per end-to-end metric, the median, the
quartiles and the spread (inter-quartile distance over the median).  With
``--traced-seed N`` it also makes two traced runs on seed N per workload and
checks that their per-layer counts are identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer stats that must repeat exactly between two traced runs.
COUNT_STATS = ("calls", "mono_out", "int_share", "labels_max", "rows_max")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--traced-seed", type=int)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    out = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            r = run_once(workload, seed, args.seconds, 0)
            ok &= r["correct"]
            runs.append({"seed": seed, "correct": r["correct"],
                         "attempted": r["attempted"], "failed": r["failed"],
                         "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                         "log": r["log"]})
            print(workload, seed, {k: round(v["value"], 4) for k, v in r["metrics"].items()},
                  flush=True)
        entry = {"runs": runs}
        if len(runs) >= 2:
            entry["summary"] = {k: summarise([r["metrics"][k] for r in runs])
                                for k in runs[0]["metrics"]}
            for k, s in entry["summary"].items():
                print(f"  {workload} {k}: median {s['median']:.4f} spread {s['spread']:.3f}")
        if args.traced_seed is not None:
            traced = [run_once(workload, args.traced_seed, args.seconds, 1)
                      for _ in range(2)]
            counts = [{k: v["value"] for k, v in t["metrics"].items()
                       if k.rsplit(".", 1)[1] in COUNT_STATS} for t in traced]
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            ok &= not diff and all(t["correct"] for t in traced)
            entry["traced"] = {
                "seed": args.traced_seed,
                "counts_identical": not diff,
                "differing": diff,
                "metrics": {k: v["value"] for k, v in traced[0]["metrics"].items()},
                "log": traced[0]["log"],
            }
            print(f"  {workload} traced counts identical: {not diff} {diff}", flush=True)
        out["workloads"][workload] = entry

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
