"""The three benchmark workloads, driven through coxfield's public API.

Each workload has full-size and tiny parameters (the tiny ones feed the
smoke test) and four steps:

- ``prepare(params, seed, root)`` builds the inputs (set-up, untimed);
- ``run(inputs, k)`` is one timed unit of work;
- ``collect(inputs, out, paused)`` gathers what the checks need, after the
  timer; ``paused(t0, t1)`` gives the calibration time spent inside a
  timed window, which any time the workload reports excludes;
- ``check(params, outs, ref)`` compares the collected outputs of every
  unit with the recorded reference and returns ``[(name, ok, detail)]``.

``ops(out)`` counts the unit's operations the way failed_frac counts them
(fits, RS points, estimates, RSCV and test concordance), and
``record(params, out)`` turns one unit's output into reference data
(an ``"arrays"`` entry, if any, is stored beside the JSON as .npz).
"""

import hashlib
import importlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

cx = importlib.import_module("coxfield")

L1_RATIO = 0.75
ZETA = 2.0
THETA0 = 1.0
MAX_EPOCHS = 800
SOLVERS = ("amp", "cd")
RS_FIELDS = ("w", "v", "tau", "w_hat", "v_hat", "tau_hat")


def acceptance_grid(hi, lo, npts=10):
    """The acceptance tests' grid: round(geomspace(hi, lo, 10), 6)."""
    return [round(float(a), 6) for a in np.geomspace(hi, lo, npts)]


def penalties(alphas):
    return [cx.ElasticNetPenalty.from_strength(a / L1_RATIO, L1_RATIO)
            for a in alphas]


def rel_l2(a, b):
    """||a - b|| / ||b||, with 0 when both vectors vanish."""
    num = float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
    den = float(np.linalg.norm(b))
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return num / den


@dataclass
class Ops:
    """Operation counts of one unit: attempted, and failures by reason."""

    attempted: int = 0
    failures: dict = None

    def __post_init__(self):
        self.failures = {} if self.failures is None else self.failures

    def add(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failures[reason] = self.failures.get(reason, 0) + 1

    @property
    def failed(self):
        return sum(self.failures.values())


class RsPath:
    """One solve_rs_path call over the head of the p=1000 acceptance grid."""

    name = "rs_path"
    full = {"alphas": acceptance_grid(0.36, 0.18)[:3], "nu": 0.01,
            "n_pop": 5000, "pop_seed": 2024}
    tiny = {"alphas": acceptance_grid(0.36, 0.18)[:2], "nu": 0.01,
            "n_pop": 1000, "pop_seed": 2024}

    @staticmethod
    def prepare(params, seed, root):
        # the population seed belongs to the configuration: the references
        # hold for it, and the work itself varies by ~15% across populations
        return {"params": params, "pens": penalties(params["alphas"]),
                "gen": cx.GeneratorSpec(zeta=ZETA)}

    @staticmethod
    def run(inp, k):
        p = inp["params"]
        return cx.solve_rs_path(inp["pens"], p["nu"], THETA0, ZETA, inp["gen"],
                                n_pop=p["n_pop"], seed=p["pop_seed"])

    @staticmethod
    def collect(inp, out, paused=None):
        return {"points": [None if r is None else r[0].as_array() for r in out],
                "lams": [None if r is None else r[1] for r in out]}

    @staticmethod
    def ops(out):
        ops = Ops()
        for pt in out["points"]:
            ops.add(pt is not None, "rs point not solved")
        return ops

    @staticmethod
    def record(params, out):
        return {"points": [None if pt is None else pt.tolist()
                           for pt in out["points"]]}

    @staticmethod
    def check(params, outs, ref, tol_ref=1e-4, tol_residual=1e-5):
        checks = []
        ref_pts = ref["points"]
        for k, out in enumerate(outs):
            pts = out["points"]
            solved = all(pt is not None for pt in pts) and len(pts) == len(ref_pts)
            checks.append((f"unit{k}.all_points_solved", solved,
                           f"{sum(pt is not None for pt in pts)}/{len(ref_pts)}"))
            if not solved:
                continue
            diff = max(float(np.max(np.abs(pt - np.asarray(r))))
                       for pt, r in zip(pts, ref_pts))
            checks.append((f"unit{k}.scalars_match_reference", diff <= tol_ref,
                           f"max |diff| {diff:.3e} (tol {tol_ref:g})"))
        first = outs[0]
        if all(pt is not None for pt in first["points"]):
            pop = cx.sample_population(cx.GeneratorSpec(zeta=ZETA), THETA0,
                                       params["n_pop"], seed=params["pop_seed"])
            worst = 0.0
            for pen, pt, lam in zip(penalties(params["alphas"]), first["points"],
                                    first["lams"]):
                op = cx.OrderParameters.from_array(pt)
                prop = cx.rs_rhs_enet(op, pop, lam, pen, params["nu"], ZETA)
                worst = max(worst, float(np.max(np.abs(prop.as_array() - pt))))
            checks.append(("rs_rhs_residual", worst <= tol_residual,
                           f"max scalar move {worst:.3e} (tol {tol_residual:g})"))
        return checks


class FitPath:
    """Repetition 0 of the p=500 acceptance experiment, without the RS part:
    AMP and CD paths, then estimates, true overlaps, RSCV and test C."""

    name = "fit_path"
    full = {"p": 500, "nu": 0.02, "alphas": acceptance_grid(0.42, 0.13),
            "base_seed": 2024}
    tiny = {"p": 60, "nu": 0.05, "alphas": acceptance_grid(0.42, 0.13)[:3],
            "base_seed": 2024}

    @staticmethod
    def prepare(params, seed, root):
        """Build train/test data as run_experiment does for repetition 0.

        The benchmark seed permutes the order of the observations: the fit
        problem, and so the reference solution, is unchanged.
        """
        base = params["base_seed"]
        train_seed, test_seed = np.random.SeedSequence(base).generate_state(
            2, dtype=np.uint64)
        gen = cx.GeneratorSpec(zeta=ZETA)
        sig = cx.SignalSpec(p=params["p"], nu=params["nu"], theta0=THETA0, seed=base)
        train, beta0 = cx.generate_dataset(sig, gen, seed=int(train_seed))
        test, _ = cx.generate_dataset(sig, gen, seed=int(test_seed))
        if seed is not None:
            rng = np.random.default_rng([seed, base])
            train, test = (_permute_rows(d, rng.permutation(d.n))
                           for d in (train, test))
        return {"params": params, "train": train, "test": test, "beta0": beta0,
                "pens": penalties(params["alphas"]),
                "cfg": cx.SolverConfig(max_epochs=MAX_EPOCHS)}

    @staticmethod
    def run(inp, k):
        train, test, pens = inp["train"], inp["test"], inp["pens"]
        out = {"fits": {}, "records": [], "path_window": {}}
        for solver in SOLVERS:
            t0 = perf_counter()
            fits = cx.reg_path(train, pens, solver, cfg=inp["cfg"])
            out["path_window"][solver] = (t0, perf_counter())
            out["fits"][solver] = fits
            for i, (pen, fit) in enumerate(zip(pens, fits)):
                rec = {"solver": solver, "point": i, "converged": bool(fit.converged)}
                out["records"].append(rec)
                if not fit.converged:
                    continue
                est = None
                try:
                    est = (cx.estimate_from_amp(train, fit, ZETA) if solver == "amp"
                           else cx.estimate_from_cd(train, fit, pen, ZETA))
                    rec["estimate_valid"] = bool(est.w_valid and est.v_valid)
                except cx.EstimationError:
                    rec["estimate_valid"] = False
                rec["true"] = cx.true_overlaps(fit.beta_hat, inp["beta0"])
                tau_star = fit.tau if solver == "amp" else (
                    est.tau if est is not None else None)
                if tau_star is not None:
                    try:
                        rec["rscv"] = cx.rscv_c_index(train, fit.beta_hat,
                                                      fit.hazard, tau_star)
                    except ValueError:
                        rec["rscv"] = None
                try:
                    rec["test_c"] = cx.harrell_c(test.times, test.events,
                                                 test.design @ fit.beta_hat)
                except ValueError:
                    rec["test_c"] = None
        return out

    @staticmethod
    def collect(inp, out, paused=None):
        path_s = {s: (t1 - t0) - (paused(t0, t1) if paused else 0.0)
                  for s, (t0, t1) in out["path_window"].items()}
        return {"records": out["records"], "path_s": path_s,
                "beta": {s: [f.beta_hat if f.converged else None for f in fits]
                         for s, fits in out["fits"].items()}}

    @staticmethod
    def ops(out):
        ops = Ops()
        for rec in out["records"]:
            ops.add(rec["converged"], f"{rec['solver']} fit did not converge")
            if not rec["converged"]:
                continue
            ops.add(rec["estimate_valid"], "invalid or failed estimate")
            if "rscv" in rec:
                ops.add(rec["rscv"] is not None, "rscv ValueError")
            ops.add(rec["test_c"] is not None, "test C ValueError")
        return ops

    @staticmethod
    def record(params, out):
        beta, have = [], []
        for i in range(len(params["alphas"])):
            b = out["beta"]["cd"][i]
            if b is None:
                b = out["beta"]["amp"][i]
            have.append(b is not None)
            beta.append(b if b is not None else np.zeros(params["p"]))
        converged = {s: [b is not None for b in out["beta"][s]] for s in SOLVERS}
        return {"converged": converged,
                "arrays": {"beta": np.array(beta), "have": np.array(have)}}

    @staticmethod
    def check(params, outs, ref, tol=1e-4):
        checks = []
        ref_beta, ref_have = ref["arrays"]["beta"], ref["arrays"]["have"]
        for k, out in enumerate(outs):
            beta = out["beta"]
            lost = [(s, i) for s in SOLVERS
                    for i, was in enumerate(ref["converged"][s])
                    if was and beta[s][i] is None]
            checks.append((f"unit{k}.reference_points_converge", not lost,
                           f"lost {lost}" if lost else "all reference points converge"))
            worst_ref = max([rel_l2(b, ref_beta[i]) for s in SOLVERS
                             for i, b in enumerate(beta[s])
                             if b is not None and ref_have[i]], default=0.0)
            checks.append((f"unit{k}.beta_matches_reference", worst_ref <= tol,
                           f"max rel L2 {worst_ref:.3e} (tol {tol:g})"))
            shared = [rel_l2(a, c) for a, c in zip(beta["amp"], beta["cd"])
                      if a is not None and c is not None]
            worst = max(shared, default=0.0)
            checks.append((f"unit{k}.amp_cd_agree", worst <= tol,
                           f"max rel L2 {worst:.3e} at {len(shared)} points (tol {tol:g})"))
        return checks


class Experiment:
    """One run_experiment call: repetitions, RS at a small population,
    aggregation and the table.csv / report.json writes."""

    name = "experiment"
    full = {"p": 200, "nu": 0.02, "alphas": acceptance_grid(0.42, 0.13)[:3],
            "repetitions": 3, "pop_size": 1000, "base_seed": 2024}
    tiny = {"p": 40, "nu": 0.05, "alphas": acceptance_grid(0.42, 0.13)[:2],
            "repetitions": 2, "pop_size": 200, "base_seed": 2024}

    @staticmethod
    def prepare(params, seed, root):
        return {"params": params, "out_root": Path(root) / ".perfbench_out" / "experiment"}

    @staticmethod
    def config(inp, k):
        p = inp["params"]
        return cx.ExperimentConfig(
            zeta=ZETA, p=p["p"], nu=p["nu"], theta0=THETA0,
            pen_grid=[(a, L1_RATIO) for a in p["alphas"]], solver="both",
            repetitions=p["repetitions"], base_seed=p["base_seed"],
            pop_size=p["pop_size"], output_dir=str(inp["out_root"] / f"unit{k}"),
            solver_cfg=cx.SolverConfig(max_epochs=MAX_EPOCHS), keep_raw=True)

    @classmethod
    def run(cls, inp, k):
        cfg = cls.config(inp, k)
        shutil.rmtree(cfg.output_dir, ignore_errors=True)
        return cx.run_experiment(cfg), Path(cfg.output_dir)

    @staticmethod
    def collect(inp, out, paused=None):
        report, out_dir = out
        table = (out_dir / "table.csv").read_bytes()
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"report": report, "table": table}

    @staticmethod
    def ops(out):
        ops = Ops()
        report = out["report"]
        for row in report["rows"]:
            ops.add(bool(row["rs_converged"]), "rs point not solved")
        failed_extra = {}
        for fail in report["failures"]:
            reason = fail["reason"].split(":")[0]
            failed_extra[reason] = failed_extra.get(reason, 0) + 1
        fits = converged = invalid = rscv_tried = 0
        for point in report["raw"]:
            for solver, recs in point.items():
                for rec in recs:
                    fits += 1
                    if not rec["converged"]:
                        continue
                    converged += 1
                    est = rec["estimate"]
                    if est is not None and not np.all(np.isfinite(est[:2])):
                        invalid += 1
                    if solver == "amp" or est is not None:
                        rscv_tried += 1
        ops.attempted += fits + 2 * converged + rscv_tried
        ops.failures.update({k: v for k, v in failed_extra.items()})
        if invalid:
            ops.failures["invalid estimate"] = invalid
        return ops

    @staticmethod
    def _rs_columns(table):
        lines = table.decode("utf-8").strip().split("\n")
        header = lines[0].split(",")
        cols = [header.index(f"rs_{f}") for f in RS_FIELDS]
        conv = header.index("rs_converged")
        rows = [line.split(",") for line in lines[1:]]
        return [[float(r[c]) for c in cols] if r[conv] == "1" else None
                for r in rows]

    @classmethod
    def record(cls, params, out):
        return {"rs": cls._rs_columns(out["table"]), "raw": out["report"]["raw"],
                "table_sha256": hashlib.sha256(out["table"]).hexdigest()}

    @staticmethod
    def _fit_deviation(raw, ref_raw):
        """Fits the reference converged that no longer converge, and the
        largest deviation of estimates, true overlaps, RSCV and test C at
        fits converged in both, relative to max(1, |reference|); a value
        missing or NaN on one side only counts as infinite."""
        lost, worst, compared = [], 0.0, 0
        for i, (point, ref_point) in enumerate(zip(raw, ref_raw)):
            for solver, ref_recs in ref_point.items():
                for r, (rec, ref_rec) in enumerate(zip(point[solver], ref_recs)):
                    if not ref_rec["converged"]:
                        continue
                    if not rec["converged"]:
                        lost.append((i, solver, r))
                        continue
                    compared += 1
                    for key in ("estimate", "true_w", "true_v", "rscv", "test_c"):
                        a, b = rec[key], ref_rec[key]
                        if a is None or b is None:
                            worst = max(worst, 0.0 if a is b else np.inf)
                            continue
                        a = np.atleast_1d(np.asarray(a, float))
                        b = np.atleast_1d(np.asarray(b, float))
                        if not np.array_equal(np.isnan(a), np.isnan(b)):
                            worst = np.inf
                            continue
                        ok = ~np.isnan(b)
                        dev = np.abs(a[ok] - b[ok]) / np.maximum(1.0, np.abs(b[ok]))
                        worst = max(worst, float(dev.max(initial=0.0)))
        return lost, worst, compared

    @classmethod
    def check(cls, params, outs, ref, tol=1e-4):
        checks = []
        digests = sorted({hashlib.sha256(o["table"]).hexdigest() for o in outs})
        checks.append(("table_identical_across_units", len(digests) == 1,
                       f"{len(digests)} distinct table.csv digest(s) over {len(outs)} units"))
        for k, out in enumerate(outs):
            rs = cls._rs_columns(out["table"])
            same = (len(rs) == len(ref["rs"])
                    and all((a is None) == (b is None) for a, b in zip(rs, ref["rs"])))
            checks.append((f"unit{k}.rs_points_as_reference", same,
                           f"solved {sum(r is not None for r in rs)}/{len(rs)}"))
            if not same:
                continue
            diff = max([float(np.max(np.abs(np.subtract(a, b))))
                        for a, b in zip(rs, ref["rs"]) if a is not None], default=0.0)
            checks.append((f"unit{k}.rs_columns_match_reference", diff <= tol,
                           f"max |diff| {diff:.3e} (tol {tol:g})"))
        for k, out in enumerate(outs):
            lost, worst, compared = cls._fit_deviation(out["report"]["raw"], ref["raw"])
            checks.append((f"unit{k}.reference_fits_converge", not lost,
                           f"lost {lost}" if lost else "all reference fits converge"))
            checks.append((f"unit{k}.fits_match_reference", worst <= tol,
                           f"max relative deviation {worst:.3e} over {compared} fits "
                           f"(tol {tol:g})"))
        if ref.get("same_sources"):
            # byte identity across runs: only at the sources it was recorded at
            checks.append(("table_matches_recorded", digests == [ref["table_sha256"]],
                           f"table.csv digests {digests}, recorded {ref['table_sha256']}"))
        return checks


WORKLOADS = {w.name: w for w in (RsPath, FitPath, Experiment)}


def _permute_rows(data, order):
    return cx.SurvivalDataset(data.times[order], data.events[order],
                              data.design[order])
