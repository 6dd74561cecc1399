#!/usr/bin/env python3
"""Repository benchmark: one workload, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--repo <dir>]

Builds the perfbench binary (the stronghold library plus the benchmark code in
perfbench/src) into .bench_build/ of this checkout on first use (one
build directory per library source), runs the workload,
checks that it reported exactly the metrics BENCHMARK.json lists for the mode
(end_to_end with --trace 0, per_layer with --trace 1), and prints the result
JSON as the last line of stdout. --repo selects the checkout whose src/ is
benchmarked (default: the one holding this script); compare.py uses it to
run identical benchmark code against two commits.

Exit codes: 0 ok, 1 a correctness check failed, 2 bad arguments, 3 build
failed, 4 the metric set does not match BENCHMARK.json, 5 timeout.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(repo):
    src = repo / "src"
    if not (src / "CMakeLists.txt").is_file():
        fail(3, f"no library sources at {src}")
    # Every build lives in this checkout, one directory per library source.
    name = "cmake" if repo == CHECKOUT else \
        "cmake-" + hashlib.sha1(str(repo).encode()).hexdigest()[:12]
    build_dir = CHECKOUT / ".bench_build" / name
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo", f"-DSH_REPO_SRC={src}"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                tail = Path(log_path).read_text().splitlines()[-20:]
                fail(3, "build failed:\n" + "\n".join(tail))
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--repo", type=Path, default=CHECKOUT)
    args = ap.parse_args()
    repo = args.repo.resolve()

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(2, f"unknown workload {args.workload!r}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    binary = build(repo)
    out_dir = CHECKOUT / ".bench_build" / "run"
    out_dir.mkdir(parents=True, exist_ok=True)
    # Engine knobs (SH_WINDOW_DTYPE, SH_OPT_TIER, SH_TRACE, ...) would
    # override the workloads' configurations.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SH_")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(5, f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(proc.stdout, end="")
        fail(1, f"no result line (exit code {proc.returncode})")
    print("\n".join(lines[:-1]))

    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if proc.returncode == 0 and got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected)
                       if got[k] != expected[k])
        fail(4, f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"unexpected {extra}, unit mismatch {units}")
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
