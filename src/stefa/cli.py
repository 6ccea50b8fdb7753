"""Command-line front end: fit, ranks, predict, simulate.

Exit codes: 0 success, 2 bad arguments or unreadable inputs (any
``ValueError`` or ``OSError``, printed as ``error: message``), 3 numeric
failures raised by the estimator.  Modes are 1-based on the command line.
Every command writes a run manifest (resolved options, input digests, seed,
timings, version) into its output directory (``ranks`` only with ``--out``);
the seed is null but for ``simulate``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .estimator import (EstimationError, _check_iteration_controls,
                        _check_k_max, estimate_ranks, fit_stefa, load_fit,
                        save_fit)
from .prediction import KernelSpec, predict_stefa, predict_vanilla
from .sieve import BasisSpec, build_design, read_covariates_csv
from .tensor import read_tns, write_tns
from .simlab import run_experiment

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args, inputs, timings) -> None:
    options = {k: v for k, v in vars(args).items() if k != "func"}
    os.makedirs(args.out, exist_ok=True)
    manifest = {
        "command": args.command,
        "options": options,
        "input_digests": {p: _sha256(p) for p in inputs},
        "seed": options.get("seed"),
        "timings_seconds": timings,
        "version": __version__,
    }
    with open(os.path.join(args.out, "run_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def _parse_basis(text) -> BasisSpec:
    family, *degree = text.split(":")
    try:
        if len(degree) > 1:
            raise ValueError("expected family or family:degree")
        return BasisSpec(family=family, degree=int(degree[0]) if degree else 4)
    except ValueError as exc:
        raise ValueError(f"bad --basis {text!r}: {exc}") from None


def _parse_covariate_args(args_list, order) -> list:
    """Parse repeated ``m:file.csv`` options (1-based modes) into a per-mode list."""
    paths = [None] * order
    for item in args_list or []:
        mode_s, _, path = item.partition(":")
        try:
            mode = int(mode_s)
        except ValueError:
            raise ValueError(f"bad --covariates {item!r}: expected m:file.csv") from None
        if not 1 <= mode <= order:
            raise ValueError(f"bad --covariates {item!r}: mode {mode} not in "
                             f"[1, {order}]")
        if paths[mode - 1] is not None:
            raise ValueError(f"bad --covariates {item!r}: mode {mode} given twice")
        paths[mode - 1] = path
    return paths


def _read_inputs(args):
    """``(Y, designs, inputs)`` of ``fit`` and ``ranks``: the ``--tensor``
    array, one sieve design per mode (None for a mode without
    ``--covariates``) and the paths of the files read."""
    spec = _parse_basis(args.basis)
    Y = read_tns(args.tensor)
    cov_paths = _parse_covariate_args(args.covariates, Y.ndim)
    designs = []
    for m, path in enumerate(cov_paths):
        if path is None:
            designs.append(None)
            continue
        X, _ = read_covariates_csv(path)
        if X.shape[0] != Y.shape[m]:
            raise ValueError(f"covariates for mode {m + 1} have {X.shape[0]} "
                             f"rows, tensor extent is {Y.shape[m]}")
        try:
            designs.append(build_design(X, spec))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return Y, designs, [args.tensor] + [p for p in cov_paths if p]


def _parse_ranks(text):
    if text == "auto":
        return None
    # fit_stefa checks the count and the range of the ranks
    try:
        return tuple(int(r) for r in text.split(","))
    except ValueError:
        raise ValueError(f"bad --ranks {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands: each checks its options, does its work, prints its line and
# returns (inputs, timings) for the run manifest that main writes

def cmd_fit(args):
    _check_iteration_controls(args.max_iter, args.tol)
    ranks = _parse_ranks(args.ranks)
    Y, designs, inputs = _read_inputs(args)
    fit = fit_stefa(Y, designs, ranks=ranks, max_iter=args.max_iter,
                    tol=args.tol)
    save_fit(fit, designs, args.out)
    print(f"fit written to {args.out}; ranks {','.join(map(str, fit.ranks))}; "
          f"{fit.iterations_used} iterations"
          + ("" if fit.converged else " (not converged)"))
    return inputs, fit.diagnostics["timings"]


def cmd_ranks(args):
    _check_k_max(args.kmax)
    Y, designs, inputs = _read_inputs(args)
    ranks, profiles = estimate_ranks(Y, designs, k_max=args.kmax,
                                     return_profile=True)
    print(" ".join(str(r) for r in ranks))
    print("mode,k,ratio")
    for m, prof in enumerate(profiles):
        for k, ratio in enumerate(prof, start=1):
            print(f"{m + 1},{k},{ratio:.12g}")
    return inputs, {}


def cmd_predict(args):
    try:
        bandwidth = "auto" if args.bandwidth == "auto" else float(args.bandwidth)
        spec = KernelSpec(family=args.kernel, bandwidth=bandwidth)
    except ValueError as exc:
        raise ValueError(f"bad --bandwidth {args.bandwidth!r}: {exc}") from None
    fit, designs = load_fit(args.fit)
    if not 1 <= args.mode <= fit.order:
        raise ValueError(f"--mode {args.mode} not in [1, {fit.order}]")
    X_new, _ = read_covariates_csv(args.new_covariates)
    mode = args.mode - 1
    if args.method == "stefa":
        pred = predict_stefa(fit, designs, X_new, spec, mode=mode)
    elif designs[mode] is None:
        raise EstimationError("vanilla prediction requires covariate mode "
                              f"(mode {args.mode} has none)")
    else:
        pred = predict_vanilla(fit, designs[mode].covariates, X_new, spec,
                               mode=mode)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "prediction.tns")
    write_tns(out_path, pred)
    print(f"prediction written to {out_path}")
    return [args.new_covariates], {}


def cmd_simulate(args):
    if args.threads != 1:
        raise ValueError(f"--threads must be 1, got {args.threads}: "
                         "replications run one after another")
    run_experiment(args.protocol, reps=args.reps, seed=args.seed,
                   out_dir=args.out, cells=args.cells)
    print(f"results written to {os.path.join(args.out, 'results.csv')}")
    return [], {}


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stefa",
        description="Covariate-assisted tensor factor analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = argparse.ArgumentParser(add_help=False)    # see _read_inputs
    inputs.add_argument("--tensor", required=True)
    inputs.add_argument("--covariates", action="append", metavar="m:file.csv",
                        help="per-mode covariate CSV, 1-based mode; repeatable")
    inputs.add_argument("--basis", default="legendre:4",
                        help="sieve basis as family:degree")

    p_fit = sub.add_parser("fit", parents=[inputs],
                           help="fit the factor model to a tensor")
    p_fit.add_argument("--ranks", default="auto",
                       help="comma-separated per-mode ranks, or 'auto'")
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--max-iter", type=int, default=50)
    p_fit.add_argument("--tol", type=float, default=1e-8)
    p_fit.set_defaults(func=cmd_fit)

    p_ranks = sub.add_parser("ranks", parents=[inputs],
                             help="estimate per-mode ranks")
    p_ranks.add_argument("--kmax", type=int, default=None)
    p_ranks.add_argument("--out", default=None)
    p_ranks.set_defaults(func=cmd_ranks)

    p_pred = sub.add_parser("predict", help="predict slices for new covariates")
    p_pred.add_argument("--fit", required=True, help="fit directory")
    p_pred.add_argument("--new-covariates", required=True)
    p_pred.add_argument("--method", choices=("stefa", "vanilla"), default="stefa")
    p_pred.add_argument("--kernel", choices=("gaussian", "epanechnikov"),
                        default="gaussian")
    p_pred.add_argument("--bandwidth", default="auto")
    p_pred.add_argument("--mode", type=int, default=1, help="1-based mode")
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="run a named experiment grid")
    p_sim.add_argument("--protocol", required=True)
    p_sim.add_argument("--reps", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; only 1 is valid")
    p_sim.add_argument("--cells", action="append", metavar="LABEL",
                       help="restrict to named grid cells; repeatable")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    start = time.perf_counter()
    try:
        inputs, timings = args.func(args)
        if args.out:    # only stefa ranks may omit --out
            _write_manifest(args, inputs,
                            dict(timings, total=time.perf_counter() - start))
        return EXIT_OK
    # LinAlgError is a ValueError, but it is a numeric failure, not bad usage
    except (EstimationError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
