"""Run one benchmark workload and print its metrics as the last stdout line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload codec-stream --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes an untraced and a traced pass over the same steps and reports the
per-layer metrics, writing the spans to ``.perfbench-traces/``.  The line
before the result carries the host block and per-run notes.  The program is
imported from the checkout's ``src/``; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program
    from it, refusing any other installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    from host import host_block
    from workloads import END_TO_END, PER_LAYER, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; available: {', '.join(WORKLOADS)}"
        )
    trace_path = ROOT / ".perfbench-traces" / f"{args.workload}-seed{args.seed}.json"
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), trace_path)

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": unit} for name, unit in wanted.items()
    }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_block(),
        "notes": outcome.notes,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": bool(outcome.correct and finite),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
