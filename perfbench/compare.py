#!/usr/bin/env python3
"""Parent-vs-change comparison on the repository benchmark.

    python3 perfbench/compare.py --parent <checkout> --change <checkout> \
        [--workloads train_dense,serve_open_loop] [--pairs 10] \
        [--seeds 1,2,3] [--seconds 20] [--out compare.json]

Runs this checkout's benchmark code against the src/ of both checkouts
(run.py --repo), so both sides are measured with identical benchmark code
and settings. Each pair runs the two sides on the same seed, alternating
which goes first. Per workload and end-to-end metric it reports each side's
median and quartiles, the change's win fraction over the pairs (ties count
for neither side), and a verdict:

  gain        the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's run-to-run spread (quartile distance over median)
              exceeds the bound, and not every change run beats every
              parent run
  no worse    otherwise

A claim must also hold on a seed not used while writing the change: rerun
with --seeds set to the holdout seed named in perfbench/README.md.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(repo, workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--repo", str(repo)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change, wins, pairs):
    lower = metric["better"] == "lower"
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    worse = (c_med - p_med) if lower else (p_med - c_med)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    beats_all = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if wins >= 0.9 * pairs and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain"
    if p_med and worse / abs(p_med) > metric["bound"]:
        return "regression"
    if spread > metric["bound"] and not beats_all:
        return "unresolved"
    return "no worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {}
    failed = False
    for workload in args.workloads.split(","):
        runs[workload] = []
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, args.seconds)
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"{'ok' if pair[side] else 'FAILED'}", file=sys.stderr)
            runs[workload].append(pair)

    header = (f"{'workload':16s} {'metric':18s} {'parent med [q1, q3]':>32s} "
              f"{'change med [q1, q3]':>32s} {'delta':>8s} {'wins':>6s}  verdict")
    print(header)
    for workload, pairs in runs.items():
        ok = [p for p in pairs if p["parent"] and p["change"]]
        if len(ok) < len(pairs):
            failed = True
            print(f"{workload:16s} {len(pairs) - len(ok)} of {len(pairs)} pairs "
                  f"had a failed run")
        if not ok:
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            parent = [p["parent"][name] for p in ok]
            change = [p["change"][name] for p in ok]
            lower = metric["better"] == "lower"
            wins = sum(1 for p, c in zip(parent, change)
                       if (c < p if lower else c > p))
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            delta = (c_med - p_med) / p_med if p_med else 0.0
            print(f"{workload:16s} {name:18s} "
                  f"{p_med:12.4g} [{p_q1:8.4g}, {p_q3:8.4g}] "
                  f"{c_med:12.4g} [{c_q1:8.4g}, {c_q3:8.4g}] "
                  f"{100 * delta:+7.2f}% {wins:>2d}/{len(ok):<3d}  "
                  f"{verdict(metric, parent, change, wins, len(ok))}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
