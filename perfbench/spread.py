"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload demo --seeds 1-10 --seconds 20 --trace 0

Runs perfbench/run.py for each seed, one run after another, and prints per
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the interquartile range as a share of the median. The last line is the same
summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=HERE.parent,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "iqr_frac": spread,
                         "unit": units[name], "runs": len(vals)}
        print(f"{name:<38} median {median:12.6g} {units[name]:<6} "
              f"q1 {q1:.6g} q3 {q3:.6g} iqr/median {spread:.4f}")
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "seeds": args.seeds, "failed_checks": failed,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
