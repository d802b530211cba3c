"""Command-line interface.

Subcommands: generate | fit | path | rs-solve | estimate | experiment.
Every subcommand prints a machine-readable JSON summary to stdout and
writes its artifacts to --output, in standard JSON.  Exit codes: 0
success, 1 usage error, 2 numerical failure (no converged result).
"""

import argparse
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .experiment import (PAPER_SCALE, ExperimentConfig, _read_json,
                         run_experiment, write_json, write_table_csv)
from .observables import (EstimationError, estimate_from_amp,
                          estimate_from_cd, true_overlaps)
from .prox import ElasticNetPenalty, check_path_order
from .rs import OrderParameters, solve_rs_path
from .solvers import FitResult, SolverConfig, reg_path, _SOLVERS, _read_field
from .survival import SurvivalDataset
from .synthgen import GeneratorSpec, SignalSpec, generate_dataset


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _emit(summary):
    write_json(sys.stdout, summary)
    sys.stdout.write("\n")


def _given(args, *names):
    # the flags set on the command line; an unset flag with default
    # SUPPRESS leaves no attribute, so the library's default applies
    return {name: getattr(args, name) for name in names if name in args}


def _gen_spec(args):
    return GeneratorSpec(**_given(args, "phi0", "rho0", "tau1", "tau2", "zeta"))


def _gen_flags(sub):
    for name in ("--phi0", "--rho0", "--tau1", "--tau2"):
        sub.add_argument(name, type=float, default=argparse.SUPPRESS)


def _solver_flags(sub):
    sub.add_argument("--solver", choices=sorted(_SOLVERS), default="cd")
    sub.add_argument("--l1-ratio", type=float, default=0.75)
    sub.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    sub.add_argument("--max-epochs", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--damping", type=float, default=argparse.SUPPRESS)


def _solver_cfg(args):
    return SolverConfig(**_given(args, "tol", "max_epochs", "damping"))


def _penalty(alpha, l1_ratio):
    if l1_ratio <= 0:
        raise ValueError("--l1-ratio must be positive (alpha = rho * l1_ratio)")
    return ElasticNetPenalty.from_strength(alpha / l1_ratio, l1_ratio)


def _penalty_grid(args):
    # --alpha-grid at one --l1-ratio, held to reg_path's order rule
    try:
        alphas = [float(a) for a in args.alpha_grid.split(",")]
    except ValueError:
        raise ValueError("--alpha-grid must be comma-separated numbers, "
                         f"not {args.alpha_grid!r}") from None
    pens = [_penalty(a, args.l1_ratio) for a in alphas]
    try:
        check_path_order(pens)
    except ValueError:
        raise ValueError("--alpha-grid must decrease in strength "
                         "alpha / l1_ratio") from None
    return alphas, pens


def _check_output(path):
    # a path that cannot be written fails before the work: opened for
    # appending, an existing file stays as it is, and a new one is removed
    new = not os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if new:
        os.remove(path)


def _cmd_generate(args):
    sig = SignalSpec(p=args.p, nu=args.nu, theta0=args.theta0, seed=args.seed)
    gen = _gen_spec(args)
    data, beta0 = generate_dataset(sig, gen, seed=args.seed)
    out = Path(args.output)
    data.to_csv(out)
    sidecar = out.with_suffix(".json")
    with open(sidecar, "w", encoding="utf-8") as fh:
        write_json(fh, {
            "signal": {**asdict(sig), "s": sig.s},
            "generator": asdict(gen),
            "beta0": list(map(float, beta0)),
        })
    _emit({"command": "generate", "csv": str(out), "sidecar": str(sidecar),
           "n": data.n, "p": data.p,
           "event_fraction": float(data.events.mean())})
    return 0


def _cmd_fit(args):
    data = SurvivalDataset.from_csv(args.input)
    pen = _penalty(args.alpha, args.l1_ratio)
    _check_output(args.output)
    fit = _SOLVERS[args.solver](data, pen, cfg=_solver_cfg(args))
    with open(args.output, "w", encoding="utf-8") as fh:
        write_json(fh, fit.to_record(pen))
    _emit({"command": "fit", "solver": args.solver, "output": args.output,
           "converged": fit.converged,
           "stop_reason": fit.diagnostics["stop_reason"],
           "epochs": fit.epochs, "final_err": fit.final_err,
           "nnz": None if fit.hazard is None
           else int(np.count_nonzero(fit.beta_hat))})
    return 0 if fit.converged else 2


def _cmd_path(args):
    data = SurvivalDataset.from_csv(args.input)
    alphas, pens = _penalty_grid(args)
    _check_output(args.output)
    fits = reg_path(data, pens, args.solver, cfg=_solver_cfg(args))
    with open(args.output, "w", encoding="utf-8") as fh:
        write_json(fh, [fit.to_record(pen) for fit, pen in zip(fits, pens)])
    _emit({"command": "path", "solver": args.solver, "output": args.output,
           "alphas": alphas,
           "converged": [fit.converged for fit in fits]})
    return 0 if any(fit.converged for fit in fits) else 2


def _cmd_rs_solve(args):
    alphas, pens = _penalty_grid(args)
    _check_output(args.output)
    points = solve_rs_path(pens, args.nu, args.theta0, args.zeta,
                           _gen_spec(args), **_given(args, "n_pop", "seed"))
    names = OrderParameters.NAMES
    rows = [{"alpha": alpha, "converged": int(point is not None),
             **{f: np.nan if point is None else getattr(point[0], f)
                for f in names}}
            for alpha, point in zip(alphas, points)]
    write_table_csv(args.output, ["alpha", *names, "converged"], rows)
    n_ok = sum(1 for point in points if point is not None)
    _emit({"command": "rs-solve", "output": args.output, "alphas": alphas,
           "converged_points": n_ok,
           "iterations": [None if point is None
                          else point[0].diagnostics["iterations"]
                          for point in points]})
    return 0 if n_ok else 2


def _cmd_estimate(args):
    data = SurvivalDataset.from_csv(args.data)
    fit, pen = FitResult.from_record(_read_json(args.fit), args.fit)
    sidecar = Path(args.sidecar or Path(args.data).with_suffix(".json"))
    # a sidecar named on the command line must exist; the default may not
    beta0 = (_read_field(sidecar, "beta0", _read_json(sidecar), np.ndarray)
             if args.sidecar or sidecar.exists() else None)
    for where, key, arr in ((args.fit, "beta_hat", fit.beta_hat),
                            (sidecar, "beta0", beta0)):
        if arr is not None and len(arr) != data.p:
            raise ValueError(f"{where}: {key} has length {len(arr)}, but "
                             f"{args.data} has p = {data.p}")
    zeta = data.p / data.n
    out = {"zeta": zeta, "estimates": {}}
    summary = {"command": "estimate", "output": args.output, "routes": []}

    def record(name, est):
        out["estimates"][name] = {
            **{f: getattr(est, f) for f in est.NAMES},
            "v_hat_alt": est.v_hat_alt,
            "w_valid": est.w_valid, "v_valid": est.v_valid,
            "diagnostics": est.diagnostics}
        summary["routes"].append(name)

    errors = {}
    if fit.tau is not None and fit.tau_hat is not None:
        try:
            record("amp", estimate_from_amp(data, fit, zeta))
        except EstimationError as exc:
            errors["amp"] = str(exc)
    try:
        record("cd", estimate_from_cd(data, fit, pen, zeta))
    except EstimationError as exc:
        errors["cd"] = str(exc)
    out["errors"] = errors

    if beta0 is not None:
        w_n, v_n = true_overlaps(fit.beta_hat, beta0)
        out["true_overlaps"] = {"w": w_n, "v": v_n}
    with open(args.output, "w", encoding="utf-8") as fh:
        write_json(fh, out)
    summary["errors"] = errors
    _emit(summary)
    return 0 if out["estimates"] else 2


def _cmd_experiment(args):
    cfg = (ExperimentConfig.from_json(args.config) if args.config
           else ExperimentConfig())
    if args.paper_scale:
        # the preset's fields replace the config's, every other field stays
        cfg = replace(cfg, **PAPER_SCALE)
    if args.output:
        cfg = replace(cfg, output_dir=args.output)
    report = run_experiment(cfg, workers=args.workers)
    _emit({"command": "experiment", "output_dir": cfg.output_dir,
           "grid_points": len(cfg.pen_grid),
           "repetitions": cfg.repetitions,
           "failures": len(report["failures"]),
           "workers": report["timing"]["workers"],
           "wall_s": report["timing"]["wall_s"]})
    # a result: a solved RS point or a converged fit of any solver
    keys = ["rs_converged"] + [f"{s}_n_converged" for s in cfg.solvers]
    return 0 if any(row[k] for row in report["rows"] for k in keys) else 2


def build_parser():
    parser = _Parser(prog="coxfield")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--zeta", type=float, default=argparse.SUPPRESS)
    gen.add_argument("--nu", type=float, required=True)
    gen.add_argument("--theta0", type=float, default=1.0)
    gen.add_argument("--seed", type=int, required=True)
    _gen_flags(gen)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=_cmd_generate)

    fit = sub.add_parser("fit", help="fit one penalized Cox model")
    fit.add_argument("--input", required=True)
    fit.add_argument("--alpha", type=float, required=True)
    _solver_flags(fit)
    fit.add_argument("--output", required=True)
    fit.set_defaults(func=_cmd_fit)

    path = sub.add_parser("path", help="fit a warm-started penalty path")
    path.add_argument("--input", required=True)
    path.add_argument("--alpha-grid", required=True,
                      help="comma-separated decreasing alphas")
    _solver_flags(path)
    path.add_argument("--output", required=True)
    path.set_defaults(func=_cmd_path)

    rs = sub.add_parser("rs-solve", help="solve the RS equations on a grid")
    rs.add_argument("--zeta", type=float, required=True)
    rs.add_argument("--nu", type=float, required=True)
    rs.add_argument("--theta0", type=float, default=1.0)
    rs.add_argument("--alpha-grid", required=True)
    rs.add_argument("--l1-ratio", type=float, default=0.75)
    rs.add_argument("--pop-size", type=int, dest="n_pop", default=argparse.SUPPRESS)
    rs.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    _gen_flags(rs)
    rs.add_argument("--output", required=True)
    rs.set_defaults(func=_cmd_rs_solve)

    est = sub.add_parser("estimate",
                         help="estimate order parameters from a fit")
    est.add_argument("--fit", required=True, help="fit JSON from `fit`")
    est.add_argument("--data", required=True, help="dataset CSV")
    est.add_argument("--sidecar", default=None,
                     help="generation sidecar JSON (for true overlaps)")
    est.add_argument("--output", required=True)
    est.set_defaults(func=_cmd_estimate)

    exp = sub.add_parser("experiment", help="run a repetition experiment")
    exp.add_argument("--config", default=None, help="config JSON")
    exp.add_argument("--paper-scale", action="store_true",
                     help="paper-scale preset: " + ", ".join(
                         f"{k} = {v}" for k, v in PAPER_SCALE.items()))
    exp.add_argument("--output", default=None, help="output directory")
    exp.add_argument("--workers", type=int, default=None,
                     help="worker processes for the repetitions and the RS "
                          "path (default: the usable CPUs, at most "
                          "repetitions + 1; 1 runs in this process)")
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
