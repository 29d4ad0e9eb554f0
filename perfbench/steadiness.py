"""Run one workload under several seeds and print each metric's steadiness.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload fl-edge --seeds 1-10 --seconds 30

Runs ``perfbench/run.py`` once per seed, one after another, and prints for
every metric the median over the runs and the spread: the distance between
the first and third quartile as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchstats import median, quartile_spread

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict = {}
    for seed in parse_seeds(args.seeds):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        output = subprocess.run(command, check=True, capture_output=True, text=True).stdout
        result = json.loads(output.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) >= 2 else float("nan")
        print(f"{name:36s} median {median(series):14.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
