"""Steadiness self-check and all-workload summary of the csop benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 0] [--workloads a,b]
                                [--seconds S] [--trace 0|1] [--out FILE]

Runs `run.py` on each workload `--runs` times, one run at a time, with seeds
first-seed, first-seed + 1, ...  (seed 0 is the default seed; every other
one is a seed the benchmark was not tuned on).  For every end-to-end metric
it prints the median with its unit and the run-to-run spread: the distance
between the first and third quartile of the runs, as a share of their
median.  It exits 1 when any run fails an operation, or when a spread other
than that of `setup_s` exceeds a third of the metric's bound in
BENCHMARK.json.  `--out` writes every run's result, environment and output
digests, with the medians and spreads, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-1])
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("environment", "digests"):
            record[key] = json.loads(rest)
    record["seed"] = seed
    return record


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to measure a spread")

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    report = {"run_seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            run = one_run(workload, args.first_seed + k, args.seconds, args.trace)
            runs.append(run)
            if run["failed"] or not run["correct"]:
                ok = False
                print(f"{workload} seed {run['seed']}: {run['failed']} of {run['attempted']} operations failed")
        summary = {}
        print(f"{workload} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        for metric in metrics:
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            row = {"median": median, "unit": metric["unit"], "values": values}
            line = f"  {name:<52} {median:>14.6g} {metric['unit']:<6}"
            if "bound" in metric:
                row["spread"] = spread(values) if median else 0.0
                row["bound"] = metric["bound"]
                steady = name == "setup_s" or row["spread"] <= metric["bound"] / 3.0
                ok = ok and steady
                line += f" spread {row['spread']:.4f} (bound {metric['bound']}){'' if steady else '  TOO WIDE'}"
            print(line)
            summary[name] = row
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
