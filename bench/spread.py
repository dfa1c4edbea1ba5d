"""Run a workload once per seed and summarise each metric across the runs.

    python3 bench/spread.py --workloads compress,report,adversary \
        --seeds 1-10 [--out FILE.json]

Each run is its own untraced ``bench/run.py`` process, one after another,
measuring ``run_seconds`` from BENCHMARK.json.  For every
metric the summary gives the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, (Q3 - Q1) / median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="N or N-M")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        names = results[0]["metrics"]
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
            "metrics": {m: {"unit": names[m]["unit"],
                            **summarise([r["metrics"][m]["value"] for r in results])} for m in names},
        }
        print(f"\n{workload}: correct={summary[workload]['correct']} "
              f"failed share={summary[workload]['failed_share']}")
        for m, s in summary[workload]["metrics"].items():
            print(f"  {m:24s} {s['median']:14.6g} {s['unit']:10s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
