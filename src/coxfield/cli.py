"""Command-line interface.

Subcommands: generate | fit | path | rs-solve | estimate | experiment.
Every subcommand prints a machine-readable JSON summary to stdout and
writes its artifacts to --output.  Exit codes: 0 success, 1 usage error,
2 numerical failure.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .experiment import PAPER_SCALE, ExperimentConfig, run_experiment
from .observables import (EstimationError, estimate_from_amp,
                          estimate_from_cd, true_overlaps)
from .prox import ElasticNetPenalty
from .rs import RsInconsistencyError, RsNonConvergenceError, solve_rs_path
from .solvers import FitDivergedError, FitResult, SolverConfig, reg_path, _SOLVERS
from .survival import StepHazard, SurvivalDataset
from .synthgen import GeneratorSpec, SignalSpec, generate_dataset


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _emit(summary):
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _gen_flags(sub):
    sub.add_argument("--phi0", type=float, default=-np.log(2.0))
    sub.add_argument("--rho0", type=float, default=2.0)
    sub.add_argument("--tau1", type=float, default=1.0)
    sub.add_argument("--tau2", type=float, default=2.0)


def _solver_flags(sub):
    sub.add_argument("--solver", choices=sorted(_SOLVERS), default="cd")
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--l1-ratio", type=float, default=0.75)
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--max-epochs", type=int, default=None)
    sub.add_argument("--damping", type=float, default=0.5)


def _penalty(alpha, l1_ratio):
    if l1_ratio <= 0:
        raise ValueError("--l1-ratio must be positive (alpha = rho * l1_ratio)")
    return ElasticNetPenalty.from_strength(alpha / l1_ratio, l1_ratio)


def _fit_record(fit, pen):
    rec = {
        "penalty": {"alpha": pen.alpha, "eta": pen.eta,
                    "rho": pen.rho, "l1_ratio": pen.l1_ratio},
        "beta_hat": None if fit.beta_hat is None else list(map(float, fit.beta_hat)),
        "hazard": None if fit.hazard is None else {
            "knots": list(map(float, fit.hazard.knots)),
            "jumps": list(map(float, fit.hazard.jumps))},
        "tau": fit.tau,
        "tau_hat": fit.tau_hat,
        "diagnostics": {"converged": fit.converged, "epochs": fit.epochs,
                        "final_err": fit.final_err, **fit.diagnostics},
    }
    return rec


def _load_fit(path):
    with open(path, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    hazard = StepHazard(np.array(rec["hazard"]["knots"]),
                        np.array(rec["hazard"]["jumps"]))
    pen = ElasticNetPenalty(**rec["penalty"])
    fit = FitResult(beta_hat=np.array(rec["beta_hat"]), hazard=hazard,
                    converged=rec["diagnostics"]["converged"],
                    epochs=rec["diagnostics"]["epochs"],
                    final_err=rec["diagnostics"]["final_err"],
                    tau=rec.get("tau"), tau_hat=rec.get("tau_hat"))
    return fit, pen


def _cmd_generate(args):
    sig = SignalSpec(p=args.p, nu=args.nu, theta0=args.theta0, seed=args.seed)
    gen = GeneratorSpec(phi0=args.phi0, rho0=args.rho0, tau1=args.tau1,
                        tau2=args.tau2, zeta=args.zeta)
    data, beta0 = generate_dataset(sig, gen, seed=args.seed)
    out = Path(args.output)
    data.to_csv(out)
    sidecar = out.with_suffix(".json")
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({
            "signal": {"p": sig.p, "nu": sig.nu, "theta0": sig.theta0,
                       "seed": sig.seed, "s": sig.s},
            "generator": {"phi0": gen.phi0, "rho0": gen.rho0, "tau1": gen.tau1,
                          "tau2": gen.tau2, "zeta": gen.zeta},
            "beta0": list(map(float, beta0)),
        }, fh, indent=1)
    _emit({"command": "generate", "csv": str(out), "sidecar": str(sidecar),
           "n": data.n, "p": data.p,
           "event_fraction": float(data.events.mean())})
    return 0


def _cmd_fit(args):
    data = SurvivalDataset.from_csv(args.input)
    pen = _penalty(args.alpha, args.l1_ratio)
    cfg = SolverConfig(tol=args.tol, max_epochs=args.max_epochs,
                       damping=args.damping)
    fit = _SOLVERS[args.solver](data, pen, cfg=cfg)
    rec = _fit_record(fit, pen)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)
    _emit({"command": "fit", "solver": args.solver, "output": args.output,
           "converged": fit.converged, "epochs": fit.epochs,
           "final_err": fit.final_err,
           "nnz": int(np.count_nonzero(fit.beta_hat))})
    return 0 if fit.converged else 2


def _cmd_path(args):
    data = SurvivalDataset.from_csv(args.input)
    alphas = [float(a) for a in args.alpha_grid.split(",")]
    pens = [_penalty(a, args.l1_ratio) for a in alphas]
    cfg = SolverConfig(tol=args.tol, max_epochs=args.max_epochs,
                       damping=args.damping)
    fits = reg_path(data, pens, args.solver, cfg=cfg)
    records = [_fit_record(fit, pen) for fit, pen in zip(fits, pens)]
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
    _emit({"command": "path", "solver": args.solver, "output": args.output,
           "alphas": alphas,
           "converged": [fit.converged for fit in fits]})
    return 0 if any(fit.converged for fit in fits) else 2


def _cmd_rs_solve(args):
    alphas = [float(a) for a in args.alpha_grid.split(",")]
    pens = [_penalty(a, args.l1_ratio) for a in alphas]
    gen = GeneratorSpec(phi0=args.phi0, rho0=args.rho0, tau1=args.tau1,
                        tau2=args.tau2, zeta=args.zeta)
    points = solve_rs_path(pens, args.nu, args.theta0, args.zeta, gen,
                           n_pop=args.pop_size, seed=args.seed)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha,w,v,tau,w_hat,v_hat,tau_hat,converged\n")
        for alpha, point in zip(alphas, points):
            if point is None:
                fh.write(f"{alpha!r},nan,nan,nan,nan,nan,nan,0\n")
            else:
                vals = ",".join(repr(float(x)) for x in point[0].as_array())
                fh.write(f"{alpha!r},{vals},1\n")
    n_ok = sum(1 for point in points if point is not None)
    _emit({"command": "rs-solve", "output": args.output, "alphas": alphas,
           "converged_points": n_ok,
           "iterations": [None if point is None
                          else point[0].diagnostics["iterations"]
                          for point in points]})
    return 0 if n_ok else 2


def _cmd_estimate(args):
    data = SurvivalDataset.from_csv(args.data)
    fit, pen = _load_fit(args.fit)
    zeta = data.p / data.n
    out = {"zeta": zeta, "estimates": {}}
    summary = {"command": "estimate", "output": args.output, "routes": []}

    def record(name, est):
        out["estimates"][name] = {
            "w": est.w, "v": est.v, "tau": est.tau, "w_hat": est.w_hat,
            "v_hat": est.v_hat, "tau_hat": est.tau_hat,
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

    sidecar = Path(args.data).with_suffix(".json")
    if args.sidecar:
        sidecar = Path(args.sidecar)
    if sidecar.exists():
        with open(sidecar, "r", encoding="utf-8") as fh:
            beta0 = np.array(json.load(fh)["beta0"])
        w_n, v_n = true_overlaps(fit.beta_hat, beta0)
        out["true_overlaps"] = {"w": w_n, "v": v_n}
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    summary["errors"] = errors
    _emit(summary)
    return 0 if out["estimates"] else 2


def _cmd_experiment(args):
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig()
    if args.paper_scale:
        # the preset's fields replace the config's, every other field stays
        cfg = replace(cfg, **PAPER_SCALE)
    if args.output:
        cfg.output_dir = args.output
    report = run_experiment(cfg)
    _emit({"command": "experiment", "output_dir": cfg.output_dir,
           "grid_points": len(cfg.pen_grid),
           "repetitions": cfg.repetitions,
           "failures": len(report["failures"])})
    return 0


def build_parser():
    parser = _Parser(prog="coxfield")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--zeta", type=float, default=2.0)
    gen.add_argument("--nu", type=float, required=True)
    gen.add_argument("--theta0", type=float, default=1.0)
    gen.add_argument("--seed", type=int, required=True)
    _gen_flags(gen)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=_cmd_generate)

    fit = sub.add_parser("fit", help="fit one penalized Cox model")
    fit.add_argument("--input", required=True)
    _solver_flags(fit)
    fit.add_argument("--output", required=True)
    fit.set_defaults(func=_cmd_fit)

    path = sub.add_parser("path", help="fit a warm-started penalty path")
    path.add_argument("--input", required=True)
    path.add_argument("--solver", choices=sorted(_SOLVERS), default="cd")
    path.add_argument("--alpha-grid", required=True,
                      help="comma-separated decreasing alphas")
    path.add_argument("--l1-ratio", type=float, default=0.75)
    path.add_argument("--tol", type=float, default=1e-8)
    path.add_argument("--max-epochs", type=int, default=None)
    path.add_argument("--damping", type=float, default=0.5)
    path.add_argument("--output", required=True)
    path.set_defaults(func=_cmd_path)

    rs = sub.add_parser("rs-solve", help="solve the RS equations on a grid")
    rs.add_argument("--zeta", type=float, required=True)
    rs.add_argument("--nu", type=float, required=True)
    rs.add_argument("--theta0", type=float, default=1.0)
    rs.add_argument("--alpha-grid", required=True)
    rs.add_argument("--l1-ratio", type=float, default=0.75)
    rs.add_argument("--pop-size", type=int, default=5000)
    rs.add_argument("--seed", type=int, default=0)
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
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (FitDivergedError, EstimationError, RsInconsistencyError,
            RsNonConvergenceError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
