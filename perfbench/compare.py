#!/usr/bin/env python3
"""Compare two sets of perfbench results (e.g. a parent and a change).

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files as written to perfbench/out/results/
(`<workload>-seed<N>-trace<T>.json`), e.g. collected with
`check.py spread --out DIR`. Runs are paired by workload, seed and trace
flag. The comparison is refused (exit 2) when a pair's run records differ
in anything but the commit, the source digest and the reference origin:
machine (nproc), fact count, layout, backend, flush policy, run length and
so on must match.

For every end-to-end metric and workload it prints both medians and
quartile spreads, the change, and a verdict against the metric's bound in
BENCHMARK.json: `worse` when the new median is worse by more than the
bound, `unresolved` when the base spread is wider than the bound, `ok`
otherwise. Exits 1 when any metric is `worse`.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Fields that may differ between compared runs: which commit was built,
# and where the reference answers came from (any source checks the same
# answers).
VARYING = {"git_commit", "source_digest", "reference"}


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        rec = doc["record"]
        runs[(rec["workload"], rec["seed"], rec["trace"])] = doc
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    base, new = load(argv[1]), load(argv[2])
    keys = sorted(set(base) & set(new))
    if not keys:
        print("no runs in common (paired by workload, seed and trace flag)")
        return 2
    for key in keys:
        a = {k: v for k, v in base[key]["record"].items() if k not in VARYING}
        b = {k: v for k, v in new[key]["record"].items() if k not in VARYING}
        if a != b:
            diff = {k: (a.get(k), b.get(k)) for k in set(a) | set(b) if a.get(k) != b.get(k)}
            print(f"refusing to compare {key}: run records differ: {diff}")
            return 2
    worse = False
    for workload in sorted({k[0] for k in keys if k[2] == 0}):
        seeds = [k for k in keys if k[0] == workload and k[2] == 0]
        commits = (base[seeds[0]]["record"]["git_commit"], new[seeds[0]]["record"]["git_commit"])
        print(f"{workload}: {len(seeds)} paired runs, {commits[0][:12]} -> {commits[1][:12]}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            va = [base[k]["result"]["metrics"][name]["value"] for k in seeds]
            vb = [new[k]["result"]["metrics"][name]["value"] for k in seeds]
            qa, qb = quartiles(va), quartiles(vb)
            change = qb[1] / qa[1] - 1 if qa[1] else float("inf")
            base_spread = (qa[2] - qa[0]) / qa[1] if qa[1] else float("inf")
            loss = change if metric["better"] == "lower" else -change
            if loss > metric["bound"]:
                verdict = "worse"
                worse = True
            elif base_spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:<16} {qa[1]:>12.5g} -> {qb[1]:>12.5g} {metric['unit']:<7} {change:+7.1%}"
                  f"  (spread {base_spread:5.1%} / {(qb[2] - qb[0]) / qb[1] if qb[1] else 0:5.1%},"
                  f" bound {metric['bound']:.0%})  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
