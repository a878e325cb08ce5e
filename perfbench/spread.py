"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload zipf-fleet --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints per metric the median and
the interquartile range as a share of the median next to the metric's bound
(a spread above a third of its bound is flagged).  Below each time metric it
gives the spread of the same metric in wall time, from the summary lines.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric.get("bound") for metric in benchmark["end_to_end"]}
    values = {}
    walls = {}
    wall_line = re.compile(r": (\S+) = \S+ \S+ \(n=\d+, wall ([0-9.]+)\)$")
    for seed in args.seeds:
        command = benchmark["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds or benchmark["run_seconds"]), "--trace", str(args.trace),
        ]
        started = perf_counter()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        elapsed = perf_counter() - started
        if completed.returncode != 0:
            print(completed.stdout, completed.stderr, sep="\n", file=sys.stderr)
            print(f"seed {seed}: exit {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {elapsed:.1f} s, attempted {result['attempted']}, failed {result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in completed.stdout.splitlines():
            found = wall_line.search(line)
            if found:
                walls.setdefault(found.group(1), []).append(float(found.group(2)))

    for name, series in values.items():
        middle = median(series)
        share = spread(series) if len(series) > 1 and middle else 0.0
        bound = bounds.get(name)
        flag = " !" if bound is not None and share > bound / 3 else ""
        print(f"{name:32s} median {middle:12.4f}  spread {share:7.3f}  bound {bound}{flag}")
        print("    " + " ".join(f"{value:.4g}" for value in series))
        if len(walls.get(name, ())) > 1:
            print(f"    wall: median {median(walls[name]):.4f}  spread {spread(walls[name]):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
