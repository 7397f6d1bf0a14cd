"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload sketch-k4 --seeds 1-10 --seconds 15

Each run is `run.py` in its own process, one after another.  For every metric
the summary gives the median of the runs, the quartiles as
`statistics.quantiles(values, n=4)` computes them, and the spread: the
distance between the quartiles as a share of the median.  End-to-end metrics
are compared with their bound in BENCHMARK.json.  Prints one JSON object.
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
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        runs.append({"seed": seed, "exit": proc.returncode,
                     "correct": result and result["correct"]})
        if result is None:
            print(proc.stderr, file=sys.stderr)
            continue
        runs[-1]["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
        for name, value in runs[-1]["metrics"].items():
            values.setdefault(name, []).append(value)
    summary = {}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("inf")
        row = {"median": med, "q1": q1, "q3": q3, "spread": round(spread, 4)}
        if name in bounds:
            row["bound"] = bounds[name]
            row["within_third"] = spread < bounds[name] / 3
        summary[name] = row
    print(json.dumps({"workload": args.workload, "runs": runs, "metrics": summary}, indent=1))
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
