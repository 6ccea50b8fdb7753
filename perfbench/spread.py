"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads fit_auto --seeds 1-10 --seconds 20

Runs ``run.py`` once per (workload, seed), one process at a time, and prints
per metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
distance between the quartiles as a share of the median.  The table is also
written to ``.perfbench_out/spread_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+",
                   default=["mc_table1", "fit_auto", "cli_files"])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    table = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds, args.trace)
                for s in args.seeds]
        metrics = {name: spread([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        table[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        print(f"{workload}: correct={table[workload]['correct']} "
              f"attempted={table[workload]['attempted']} "
              f"failed={table[workload]['failed']}")
        for name, s in metrics.items():
            print(f"  {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  iqr/median {s['iqr_share']:.4f}")
    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread_trace{args.trace}.json").write_text(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
