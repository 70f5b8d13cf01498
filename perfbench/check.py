#!/usr/bin/env python3
"""The benchmark's own checks, run from the root of a checkout.

    python3 perfbench/check.py spread [--workloads a,b] [--seeds 1-10] [--out DIR]
        Run every workload once per seed (tracing off), keep each result
        under DIR (default perfbench/out/spread), and print for every
        end-to-end metric its median and its spread: the distance between
        the first and third quartile (statistics.quantiles, n=4) as a share
        of the median, next to the metric's bound. Exits 1 when a run
        fails or reports wrong answers.

    python3 perfbench/check.py counts [--workloads a,b] [--seed N]
        Run each workload's traced run twice on one seed and require every
        count-type per-layer metric to repeat exactly. Exits 1 otherwise.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The per-layer metrics that are counts of work, which must repeat
# exactly across traced runs of one seed.
COUNTS = [
    "reform.generated_cqs",
    "reform.output_cqs",
    "reform.axiom_applications",
    "reform.arms_kept",
    "core.estimate_calls",
    "core.covers_explored",
    "rdbms.sql_bytes",
    "rdbms.rows_out",
    "rdbms.work_units",
]


def run(workload, seed, trace, seconds):
    """One benchmark run; returns (parsed last line, full result record)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = BENCH / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, record


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def cmd_spread(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in seed_list(args.seeds):
            result, record = run(workload, seed, 0, args.seconds)
            shutil.copy(record, out_dir / record.name)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} statements failed")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        print(f"\n{workload}: {len(seed_list(args.seeds))} runs")
        for metric in SPEC["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 2:
                print(f"  {metric['name']:<16} missing")
                ok = False
                continue
            med, sp = spread(vals)
            flag = "" if sp <= metric["bound"] / 3 else ("  above bound/3" if sp <= metric["bound"] else "  ABOVE BOUND")
            print(f"  {metric['name']:<16} median {med:>12.5g} {metric['unit']:<7} spread {sp:6.1%}"
                  f"  bound {metric['bound']:.0%}{flag}")
        print(flush=True)
    return 0 if ok else 1


def cmd_counts(args):
    ok = True
    for workload in args.workloads:
        first, _ = run(workload, args.seed, 1, 1)
        second, _ = run(workload, args.seed, 1, 1)
        for name in COUNTS:
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            same = a is not None and a == b
            ok &= same
            print(f"{workload:<13} {name:<28} {a!s:>14} {b!s:>14}  {'ok' if same else 'DIFFERS'}")
        ok &= first["correct"] and second["correct"]
    print("counts repeat exactly" if ok else "FAILED: a count did not repeat, or a traced run was not correct")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--out", default=str(BENCH / "out" / "spread"))
    p = sub.add_parser("counts")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    args.workloads = args.workloads.split(",")
    return cmd_spread(args) if args.cmd == "spread" else cmd_counts(args)


if __name__ == "__main__":
    sys.exit(main())
