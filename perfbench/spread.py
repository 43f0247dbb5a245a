#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload hit-storm --seeds 1-10 [--trace 0]

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound in
BENCHMARK.json.  --markdown appends the table to a file.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", default="0")
    parser.add_argument("--markdown")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        began = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - began
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: wall={wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()),
              flush=True)
        if not result["correct"]:
            for line in out.stderr.splitlines():
                if line.startswith("CHECK FAILED"):
                    print("  " + line)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    rows = [f"| metric | median | IQR / median | bound | runs |",
            "|---|---|---|---|---|"]
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        rows.append(f"| {name} | {med:.6g} | {spread:.4f} | "
                    f"{bound if bound is not None else '-'} | {len(vals)} |")
    table = "\n".join(rows)
    print(table)
    if args.markdown:
        with open(args.markdown, "a") as md:
            md.write(f"\n### {args.workload}, trace {args.trace}, seeds "
                     f"{args.seeds[0]}-{args.seeds[-1]}\n\n{table}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
