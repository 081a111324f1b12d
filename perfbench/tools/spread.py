#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and metric this prints the median of the runs and the
distance between the first and third quartile as a share of the median (the
steadiness measure the bounds in BENCHMARK.json are set against). Raw result
lines are appended to --out as JSON, one per run, tagged with workload and seed.

    python3 perfbench/tools/spread.py --workloads trace-io --seeds 1-5
    python3 perfbench/tools/spread.py --seeds 1-10 --out runs.jsonl

Workloads are interleaved seed by seed, so slow drift of the host's speed is
shared among them instead of landing on one. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    failures = 0
    for seed in seed_list(args.seeds):
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            started = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            host = next((json.loads(l[len("# host "):]) for l in lines if l.startswith("# host ")),
                        None)
            if not result["correct"]:
                failures += 1
            print(f"{w:15} seed {seed:3} {took:6.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if args.trace == "0"), flush=True)
            for k, v in result["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace,
                                        "run_s": round(took, 1), "host": host,
                                        "result": result}) + "\n")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{'workload':15} {'metric':28} {'median':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for k, vs in values[w].items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = f"{(q3 - q1) / med:7.3f}"
            else:
                spread = "    n/a"
            print(f"{w:15} {k:28} {med:12.6g} {spread} {bounds.get(k, ''):>6}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
