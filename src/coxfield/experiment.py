"""Experiment harness: seeded repetitions over a regularization path,
RS reference solutions, data-only estimates, generalization metrics,
and aggregated CSV emission.

Repetition r uses seed base_seed + r, split into independent streams for
the signal, the training set and the held-out test set; aggregation is an
ordered reduction over repetition index, so identical configs produce
byte-identical outputs.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .observables import (EstimationError, estimate_from_amp,
                          estimate_from_cd, true_overlaps)
from .prox import ElasticNetPenalty
from .rs import solve_rs_path
from .solvers import SolverConfig, reg_path
from .survival import harrell_c, rscv_c_index
from .synthgen import GeneratorSpec, SignalSpec, generate_dataset

_EST_FIELDS = ("w", "v", "tau", "w_hat", "v_hat", "tau_hat")
# the fields `ExperimentConfig.paper_scale` sets
PAPER_SCALE = {"p": 2000, "repetitions": 20, "nu": 0.005}


@dataclass
class ExperimentConfig:
    """Configuration for a full repetition experiment.

    pen_grid is a list of (alpha, l1_ratio) pairs sorted by decreasing
    alpha at fixed l1_ratio; solver is "amp", "cd" or "both"; pop_size is
    the RS population size.  Desk-scale defaults (p=500, 10 repetitions,
    pop_size 5000) run in minutes; the paper-scale variant (p=2000, 20
    repetitions) is available through `paper_scale`.
    """

    zeta: float = 2.0
    p: int = 500
    nu: float = 0.02
    theta0: float = 1.0
    gen: GeneratorSpec = None
    pen_grid: list = field(default_factory=lambda: [
        (a, 0.75) for a in (0.60, 0.45, 0.34, 0.26, 0.20, 0.15, 0.11)])
    solver: str = "both"
    repetitions: int = 10
    base_seed: int = 0
    pop_size: int = 5000
    output_dir: str = "coxfield-out"
    solver_cfg: SolverConfig | None = None
    rs_tol: float = 1e-6
    keep_raw: bool = False

    def __post_init__(self):
        if self.gen is None:
            self.gen = GeneratorSpec(zeta=self.zeta)
        elif self.gen.zeta != self.zeta:
            raise ValueError("gen.zeta must match the config zeta")
        if int(round(self.p / self.zeta)) < 10:
            raise ValueError("need n = round(p / zeta) >= 10")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.solver not in ("amp", "cd", "both"):
            raise ValueError("solver must be amp, cd or both")
        alphas = [a for a, _ in self.pen_grid]
        if any(b > a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("pen_grid must be sorted by decreasing alpha")

    @property
    def n(self):
        return int(round(self.p / self.zeta))

    @property
    def solvers(self):
        return ("amp", "cd") if self.solver == "both" else (self.solver,)

    @property
    def penalties(self):
        if any(l1 <= 0 for _, l1 in self.pen_grid):
            raise ValueError("pen_grid entries need l1_ratio > 0; drive "
                             "ridge-only fits through the library API")
        return [ElasticNetPenalty.from_strength(a / l1, l1)
                for a, l1 in self.pen_grid]

    @staticmethod
    def paper_scale(**overrides):
        """Paper-scale preset: p = 2000, 20 repetitions, nu = 0.005
        (`PAPER_SCALE`); `overrides` win over the preset."""
        return ExperimentConfig(**{**PAPER_SCALE, **overrides})

    @staticmethod
    def from_json(path):
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        gen_raw = raw.pop("gen", None)
        if gen_raw is not None:
            gen_raw.setdefault("zeta", raw.get("zeta", 2.0))
            raw["gen"] = GeneratorSpec(**gen_raw)
        if "pen_grid" in raw:
            raw["pen_grid"] = [tuple(pair) for pair in raw["pen_grid"]]
        if "solver_cfg" in raw and raw["solver_cfg"] is not None:
            raw["solver_cfg"] = SolverConfig(**raw["solver_cfg"])
        return ExperimentConfig(**raw)

    def to_jsonable(self):
        out = {k: getattr(self, k) for k in
               ("zeta", "p", "nu", "theta0", "solver", "repetitions",
                "base_seed", "pop_size", "output_dir", "rs_tol", "keep_raw")}
        out["gen"] = {k: getattr(self.gen, k) for k in
                      ("phi0", "rho0", "tau1", "tau2", "zeta")}
        out["pen_grid"] = [list(pair) for pair in self.pen_grid]
        if self.solver_cfg is not None:
            out["solver_cfg"] = {"tol": self.solver_cfg.tol,
                                 "max_epochs": self.solver_cfg.max_epochs,
                                 "damping": self.solver_cfg.damping}
        return out


def _rep_seeds(base_seed, r):
    state = np.random.SeedSequence(base_seed + r).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def _run_repetition(cfg, r):
    """All per-repetition work; returns one record per (grid point, solver)."""
    train_seed, test_seed = _rep_seeds(cfg.base_seed, r)
    sig = SignalSpec(p=cfg.p, nu=cfg.nu, theta0=cfg.theta0,
                     seed=cfg.base_seed + r)
    train, beta0 = generate_dataset(sig, cfg.gen, seed=train_seed)
    test, _ = generate_dataset(sig, cfg.gen, seed=test_seed)
    pens = cfg.penalties
    records = {}
    failures = []
    for solver in cfg.solvers:
        fits = reg_path(train, pens, solver, cfg=cfg.solver_cfg)
        for i, (pen, fit) in enumerate(zip(pens, fits)):
            rec = {"converged": bool(fit.converged)}
            if fit.converged:
                est = None
                try:
                    est = (estimate_from_amp(train, fit, cfg.zeta)
                           if solver == "amp"
                           else estimate_from_cd(train, fit, pen, cfg.zeta))
                    rec["estimate"] = est
                except EstimationError as exc:
                    failures.append((r, i, solver, f"estimate: {exc}"))
                w_true, v_true = true_overlaps(fit.beta_hat, beta0)
                rec["true_w"], rec["true_v"] = w_true, v_true
                tau_star = fit.tau if solver == "amp" else (
                    est.tau if est is not None else None)
                if tau_star is not None:
                    try:
                        rec["rscv"] = rscv_c_index(train, fit.beta_hat,
                                                   fit.hazard, tau_star)
                    except ValueError as exc:
                        failures.append((r, i, solver, f"rscv: {exc}"))
                try:
                    rec["test_c"] = harrell_c(test.times, test.events,
                                              test.design @ fit.beta_hat)
                except ValueError as exc:
                    failures.append((r, i, solver, f"test_c: {exc}"))
            else:
                failures.append((r, i, solver, "solver did not converge"))
            records[(i, solver)] = rec
    return records, failures


def _mean_sd(values):
    arr = np.array([v for v in values if v is not None and np.isfinite(v)])
    if arr.size == 0:
        return np.nan, np.nan
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


def run_experiment(cfg):
    """Run the full experiment and return the aggregated report.

    Per repetition: generate data, fit along the penalty grid with warm
    starts, compute data-only estimates, true overlaps, RSCV and held-out
    concordance (test set of equal size); the RS equations are solved once
    per grid point.  Per-point failures are recorded in the report and the
    run continues.  Writes table.csv and report.json to cfg.output_dir.
    """
    rep_out = [_run_repetition(cfg, r) for r in range(cfg.repetitions)]

    rs_points = solve_rs_path(cfg.penalties, cfg.nu, cfg.theta0, cfg.zeta,
                              cfg.gen, n_pop=cfg.pop_size, seed=cfg.base_seed,
                              tol=cfg.rs_tol)

    columns = ["alpha", "l1_ratio", "rs_converged"]
    columns += [f"rs_{f}" for f in _EST_FIELDS]
    for solver in cfg.solvers:
        columns.append(f"{solver}_n_converged")
        for f in _EST_FIELDS:
            columns += [f"{solver}_est_{f}_mean", f"{solver}_est_{f}_sd"]
        for f in ("true_w", "true_v", "rscv", "test_c"):
            columns += [f"{solver}_{f}_mean", f"{solver}_{f}_sd"]

    rows = []
    for i, (alpha, l1) in enumerate(cfg.pen_grid):
        row = {"alpha": alpha, "l1_ratio": l1}
        rs = rs_points[i]
        row["rs_converged"] = int(rs is not None)
        for j, f in enumerate(_EST_FIELDS):
            row[f"rs_{f}"] = rs[0].as_array()[j] if rs is not None else np.nan
        for solver in cfg.solvers:
            recs = [out[0].get((i, solver), {}) for out in rep_out]
            row[f"{solver}_n_converged"] = sum(
                1 for rec in recs if rec.get("converged"))
            ests = [rec.get("estimate") for rec in recs]
            for j, f in enumerate(_EST_FIELDS):
                vals = [e.as_array()[j] for e in ests if e is not None]
                m, s = _mean_sd(vals)
                row[f"{solver}_est_{f}_mean"] = m
                row[f"{solver}_est_{f}_sd"] = s
            for f in ("true_w", "true_v", "rscv", "test_c"):
                m, s = _mean_sd([rec.get(f) for rec in recs])
                row[f"{solver}_{f}_mean"] = m
                row[f"{solver}_{f}_sd"] = s
        rows.append(row)

    failures = [f for out in rep_out for f in out[1]]
    report = {
        "config": cfg.to_jsonable(),
        "columns": columns,
        "rows": rows,
        "failures": [{"repetition": r, "grid_index": i, "solver": s,
                      "reason": msg} for r, i, s, msg in failures],
    }
    if cfg.keep_raw:
        raw = []
        for i in range(len(cfg.pen_grid)):
            point = {}
            for solver in cfg.solvers:
                recs = [out[0].get((i, solver), {}) for out in rep_out]
                point[solver] = [{
                    "converged": rec.get("converged", False),
                    "estimate": (rec["estimate"].as_array().tolist()
                                 if rec.get("estimate") is not None else None),
                    "true_w": rec.get("true_w"), "true_v": rec.get("true_v"),
                    "rscv": rec.get("rscv"), "test_c": rec.get("test_c"),
                } for rec in recs]
            raw.append(point)
        report["raw"] = raw
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table_csv(out_dir / "table.csv", columns, rows)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=_json_default)
    return report


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_table_csv(path, columns, rows):
    """Write the aggregated table with a fixed column order.

    Floats are rendered with repr (shortest round-trip), so equal inputs
    give byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for c in columns:
                val = row[c]
                cells.append(repr(float(val)) if isinstance(val, float)
                             else str(val))
            fh.write(",".join(cells) + "\n")
