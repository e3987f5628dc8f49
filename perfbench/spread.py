"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workload build --seeds 0-9 [--trace 0]

Runs ``perfbench/run.py`` sequentially (one run at a time, so runs do not
compete for cores) and prints, per metric, the median, the quartiles and
the spread (quartile distance ÷ median, from
``statistics.quantiles(values, n=4)``) as one JSON object.  This is how
``perfbench/baseline.json`` was produced.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0")
    args = p.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    walls = []
    for seed in args.seeds:
        t = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        walls.append(time.perf_counter() - t)
        if out.returncode != 0:
            print(out.stdout, out.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: {walls[-1]:.1f} s", file=sys.stderr)

    summary = {}
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        summary[name] = {
            "unit": units[name], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": vs,
        }
    print(json.dumps({
        "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
        "trace": args.trace, "run_wall_s": walls, "metrics": summary,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
