"""Run one benchmark workload against the stefa sources of this checkout.

    python3 perfbench/run.py --workload fit_auto --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics; with ``--trace 1`` the run wraps the
public functions of the package in spans and reports the per-module metrics
instead.  Results and traces are also written under ``.perfbench_out/``, and
input files live under ``.perfbench_tmp/`` while the run lasts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up runs this many times per run and reports the median
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "ops_per_min": "1/min",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tensor.mode_product_s": "s",
    "tensor.mode_product_calls": "count",
    "tensor.mode_product_gflop": "GFLOP",
    "tensor.mode_product_gb": "GB",
    "tensor.matricize_s": "s",
    "tensor.matricize_calls": "count",
    "tensor.svd_s": "s",
    "tensor.svd_calls": "count",
    "tensor.read_tns_s": "s",
    "tensor.write_tns_s": "s",
    "tensor.tns_mb": "MB",
    "sieve.build_design_s": "s",
    "sieve.projector_apply_s": "s",
    "sieve.projector_apply_calls": "count",
    "estimator.estimate_ranks_s": "s",
    "estimator.ipsvd_init_s": "s",
    "estimator.ipsvd_iterate_s": "s",
    "estimator.ipsvd_sweeps": "count",
    "estimator.estimate_core_s": "s",
    "estimator.calibrate_s": "s",
    "estimator.estimate_loadings_s": "s",
    "estimator.hooi_s": "s",
    "estimator.hooi_sweeps": "count",
    "estimator.hooi_converged_share": "1",
    "estimator.save_fit_s": "s",
    "estimator.load_fit_s": "s",
    "prediction.predict_stefa_s": "s",
    "prediction.kernel_weights_s": "s",
    "simlab.generate_s": "s",
    "simlab.loss_s": "s",
    "simlab.run_experiment_s": "s",
    "cli.fit_s": "s",
    "cli.predict_s": "s",
    "cli_fit_s": "s",
    "cli_predict_s": "s",
    "ipsvd_sin_theta": "1",
    "hooi_sin_theta": "1",
    "pred_rel_err": "1",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("mc_table1", "fit_auto", "cli_files"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_operations(workload, seconds, tracer=None) -> dict:
    """Closed loop, one caller: whole rounds until ``seconds`` have passed and
    the operations that the accuracy figures average have run."""
    times, extras, accuracy = [], defaultdict(list), []
    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + seconds
    round_index = 0
    while (round_index == 0 or attempted < workload.accuracy_ops
           or time.perf_counter() < deadline):
        for item in workload.round_items(round_index):
            attempted += 1
            if tracer is not None:
                tracer.active = True
            try:
                start = time.perf_counter()
                out, extra = workload.operation(item)
                elapsed = time.perf_counter() - start
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
            try:
                figures = workload.check(item, out)
            except Exception as exc:     # CheckFailed, or outputs the check
                failed += 1              # could not even evaluate
                correct = False
                print(f"check failed ({workload.name}, {item}): "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            times.append(elapsed)
            accuracy.append(figures)
            for key, value in extra.items():
                extras[key].append(value)
        round_index += 1
    return {"times": times, "extras": extras,
            "accuracy": accuracy[:workload.accuracy_ops],
            "attempted": attempted, "failed": failed, "correct": correct}


def _accuracy_means(accuracy) -> dict:
    keys = {k for row in accuracy for k in row}
    return {k: statistics.fmean(row[k] for row in accuracy) for k in keys}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stefa" / "__init__.py").is_file():
        print(f"error: no stefa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import tracing
    import workloads                    # imports numpy, scipy and stefa
    import_s = time.perf_counter() - start

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed)
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(tmp, ignore_errors=True)
            (tmp / "warm").mkdir(parents=True)
            start = time.perf_counter()
            workload.setup(str(tmp))
            # warm-up: one operation of the workload's toy instance
            toy = cls.toy(args.seed)
            toy.setup(str(tmp / "warm"))
            toy.operation(toy.round_items(0)[0])
            setup_times.append(time.perf_counter() - start)
            del toy
        if tracer is not None:
            tracer.install()
        run = run_operations(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    times = run["times"]
    extras = {k: statistics.median(v) for k, v in run["extras"].items()}
    if args.trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(tracing.layer_metrics(tracer.spans, run["attempted"]))
        values.update(_accuracy_means(run["accuracy"]))
        values.update(extras)
        units = PER_LAYER
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "op_s": statistics.median(times) if times else 0.0,
            "ops_per_min": 60.0 * len(times) / sum(times) if times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           * 1024 / 1e6,
        }
        units = END_TO_END
    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, blas_threads=threads,
                  op_times_s=times, setup_times_s=setup_times, import_s=import_s)
    if tracer is not None:
        record["spans_per_op"] = {
            name: {k: v / run["attempted"] for k, v in row.items()}
            for name, row in tracing.summarize(tracer.spans).items()}
        record["spans"] = [[s.name, s.parent, s.start, s.end]
                           for s in tracer.spans]
    (out_dir / f"{stem}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
