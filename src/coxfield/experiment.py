"""Experiment harness: seeded repetitions over a regularization path,
RS reference solutions, data-only estimates, generalization metrics,
and aggregated CSV emission.

Repetition r uses seed base_seed + r, split into independent streams for
the signal, the training set and the held-out test set; aggregation is an
ordered reduction over repetition index, so identical configs produce
byte-identical outputs, whether the repetitions and the RS path run in
this process or in forked worker processes.
"""

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from time import perf_counter

import numpy as np

from .observables import (EstimationError, estimate_from_amp,
                          estimate_from_cd, true_overlaps)
from .prox import ElasticNetPenalty, check_fields, check_path_order
from .rs import OrderParameters, solve_rs_path
from .solvers import SolverConfig, reg_path
from .survival import harrell_c, rscv_c_index
from .synthgen import GeneratorSpec, SignalSpec, generate_dataset

_FIT_FIELDS = ("true_w", "true_v", "rscv", "test_c")
# the paper-scale preset: dataclasses.replace(cfg, **PAPER_SCALE)
PAPER_SCALE = {"p": 2000, "repetitions": 20, "nu": 0.005}


@dataclass
class ExperimentConfig:
    """Configuration for a full repetition experiment.

    pen_grid is a non-empty list of (alpha, l1_ratio) pairs, l1_ratio in
    (0, 1], sorted by decreasing strength alpha / l1_ratio; solver is "amp",
    "cd" or "both"; pop_size is the RS population size.  Each field is
    checked when the config is built (`prox.check_fields`, then its range).
    Desk-scale defaults (p=500, 10 repetitions, pop_size 5000) run in
    minutes; the paper-scale variant is `replace(cfg, **PAPER_SCALE)`.
    """

    zeta: float = 2.0
    p: int = 500
    nu: float = 0.02
    theta0: float = 1.0
    gen: GeneratorSpec | None = None
    pen_grid: list[tuple[float, float]] = field(default_factory=lambda: [
        (a, 0.75) for a in (0.60, 0.45, 0.34, 0.26, 0.20, 0.15, 0.11)])
    solver: str = "both"
    repetitions: int = 10
    base_seed: int = 0
    pop_size: int = 5000
    output_dir: str = "coxfield-out"
    solver_cfg: SolverConfig | None = None
    keep_raw: bool = False

    def __post_init__(self):
        check_fields(self)
        self.pen_grid = [tuple(pair) for pair in self.pen_grid]
        if self.gen is None:
            self.gen = GeneratorSpec(zeta=self.zeta)
        elif self.gen.zeta != self.zeta:
            raise ValueError("gen.zeta must match the config zeta")
        if int(round(self.p / self.zeta)) < 10:
            raise ValueError("need n = round(p / zeta) >= 10")
        for name, low in (("repetitions", 1), ("pop_size", 100),
                          ("base_seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        # the signal's own checks of nu and theta0, before any task runs
        SignalSpec(self.p, self.nu, self.theta0, seed=self.base_seed)
        if self.solver not in ("amp", "cd", "both"):
            raise ValueError("solver must be amp, cd or both")
        if not self.pen_grid:
            raise ValueError("pen_grid must not be empty")
        if any(not 0.0 < l1 <= 1.0 for _, l1 in self.pen_grid):
            raise ValueError("pen_grid l1_ratio must lie in (0, 1]; drive "
                             "ridge-only fits through the library API")
        check_path_order(self.penalties)

    @property
    def solvers(self):
        return ("amp", "cd") if self.solver == "both" else (self.solver,)

    @property
    def penalties(self):
        return [ElasticNetPenalty.from_strength(a / l1, l1)
                for a, l1 in self.pen_grid]

    @staticmethod
    def from_json(path):
        """Read a config written by `to_jsonable`; an unknown or bad key, also
        in gen or solver_cfg, raises ValueError naming the file and the key."""
        raw = _read_json(path)
        try:
            raw = _known_keys(ExperimentConfig, raw, "config")
            if raw.get("gen") is not None:
                gen = _known_keys(GeneratorSpec, raw["gen"], "gen")
                raw["gen"] = GeneratorSpec(
                    **{"zeta": raw.get("zeta", ExperimentConfig.zeta), **gen})
            if raw.get("solver_cfg") is not None:
                raw["solver_cfg"] = SolverConfig(
                    **_known_keys(SolverConfig, raw["solver_cfg"], "solver_cfg"))
            return ExperimentConfig(**raw)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def to_jsonable(self):
        return asdict(self)


def _known_keys(cls, raw, where):
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    return raw


def _rep_seeds(base_seed, r):
    state = np.random.SeedSequence(base_seed + r).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def _rel_l2(a, b):
    """||a - b|| relative to the larger of ||a|| and ||b||; 0 where a == b."""
    diff = np.linalg.norm(a - b)
    return float(diff / max(np.linalg.norm(a), np.linalg.norm(b))) if diff else 0.0


def _fit_counts(solver, diag):
    # what the fit did, as counts: AMP's holds (its "frozen" entries) and
    # damping cuts, CD's Newton steps; None where a fit reports none
    if solver == "amp":
        return {key: len(diag[src]) if src in diag else None
                for key, src in (("holds", "frozen"),
                                 ("damping_cuts", "damping_cuts"))}
    return {key: diag.get(key)
            for key in ("newton_tried", "newton_kept", "cg_iterations")}


def _run_repetition(cfg, r):
    """All per-repetition work: per solver, one record per grid point, and
    the failures with their reasons, in solver then grid order; and the
    seconds of its stages: data generation, and per solver the path and
    the work after the fits.  With both solvers, CD starts each point at
    AMP's fit where AMP converged (see `run_experiment`)."""
    t0 = perf_counter()
    train_seed, test_seed = _rep_seeds(cfg.base_seed, r)
    sig = SignalSpec(p=cfg.p, nu=cfg.nu, theta0=cfg.theta0,
                     seed=cfg.base_seed + r)
    train, beta0 = generate_dataset(sig, cfg.gen, seed=train_seed)
    test, _ = generate_dataset(sig, cfg.gen, seed=test_seed)
    zeta = train.p / train.n  # the data's own: n = round(p / cfg.zeta)
    stages = {"generate_s": perf_counter() - t0, "path_s": {}, "post_fit_s": {}}
    pens = cfg.penalties
    records = {}
    failures = []

    def fail(i, solver, reason, **extra):
        failures.append({"repetition": r, "grid_index": i, "solver": solver,
                         "reason": reason, **extra})

    # CD after AMP starts at AMP's converged fits
    inits = [None] * len(pens)
    for solver in cfg.solvers:
        t0 = perf_counter()
        fits = reg_path(train, pens, solver, cfg=cfg.solver_cfg, inits=inits)
        t1 = perf_counter()
        if solver == "amp":
            inits = [fit if fit.converged else None for fit in fits]
        stages["path_s"][solver] = t1 - t0
        records[solver] = []
        for i, (pen, fit) in enumerate(zip(pens, fits)):
            rec = dict.fromkeys(("converged", "epochs", "stop_reason",
                                 "kkt_residual", "estimate") + _FIT_FIELDS)
            rec["converged"] = bool(fit.converged)
            rec["epochs"] = fit.epochs
            rec["stop_reason"] = fit.diagnostics["stop_reason"]
            rec["kkt_residual"] = fit.diagnostics.get("kkt_residual")
            rec.update(_fit_counts(solver, fit.diagnostics))
            if solver == "cd":
                start = fit.diagnostics["start"]
                rec["start"] = "amp" if start == "given" else start
                rec["amp_rel_l2"] = (
                    _rel_l2(fit.beta_hat, inits[i].beta_hat)
                    if start == "given" and fit.converged else None)
            records[solver].append(rec)
            if not fit.converged:
                fail(i, solver, "solver did not converge",
                     stop_reason=fit.diagnostics["stop_reason"])
                continue
            est = None
            try:
                est = (estimate_from_amp(train, fit, zeta)
                       if solver == "amp"
                       else estimate_from_cd(train, fit, pen, zeta))
                rec["estimate"] = est.as_array().tolist()
                if not (est.w_valid and est.v_valid):
                    fail(i, solver, f"invalid estimate: w_valid={est.w_valid}, "
                                    f"v_valid={est.v_valid}; "
                                    f"{est.failing_step()}")
            except EstimationError as exc:
                fail(i, solver, f"estimate: {exc}")
            rec["true_w"], rec["true_v"] = true_overlaps(fit.beta_hat, beta0)
            tau_star = est.tau if est is not None else fit.tau
            if tau_star is not None:
                try:
                    rec["rscv"] = rscv_c_index(train, fit.beta_hat,
                                               fit.hazard, tau_star)
                except ValueError as exc:
                    fail(i, solver, f"rscv: {exc}")
            try:
                rec["test_c"] = harrell_c(test.times, test.events,
                                          test.design @ fit.beta_hat)
            except ValueError as exc:
                fail(i, solver, f"test_c: {exc}")
        stages["post_fit_s"][solver] = perf_counter() - t1
    return records, failures, stages


def _solve_rs_path(cfg):
    """The RS reference solution at every grid point, on one population."""
    return solve_rs_path(cfg.penalties, cfg.nu, cfg.theta0, cfg.zeta,
                         cfg.gen, n_pop=cfg.pop_size, seed=cfg.base_seed)


def _timed(fn, *args):
    t0 = perf_counter()
    return fn(*args), perf_counter() - t0


def _openblas_threads():
    """The (get_num_threads, set_num_threads) entries of every OpenBLAS
    loaded into this process (numpy bundles one, scipy another when
    imported), or None where none is found or one lacks either entry."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None

    def entry(lib, verb, restype, argtypes):
        names = (f"{prefix}openblas_{verb}_num_threads{suffix}"
                 for prefix in ("", "scipy_") for suffix in ("", "64_", "_64"))
        fn = next((getattr(lib, name) for name in names
                   if hasattr(lib, name)), None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
        return fn

    pairs = [(entry(lib, "get", ctypes.c_int, []),
              entry(lib, "set", None, [ctypes.c_int])) for lib in libs]
    if not pairs or any(None in pair for pair in pairs):
        return None
    return pairs


def _run_tasks(tasks, workers):
    """Run each (fn, *args) of `tasks` and return, in task order, the
    (result, seconds) pairs and the number of worker processes used.

    Every task runs on one BLAS thread, so no result depends on the
    worker count: more than one worker runs them in a pool of forked
    processes that inherit that thread, one worker in this process.
    Without fork or os.sched_getaffinity they run in this process, and
    without a way to pin the loaded BLAS there too, on its own threads.
    """
    import os
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        workers = 1
    elif workers is None:
        workers = len(os.sched_getaffinity(0))
    workers = min(workers, len(tasks))
    blas = _openblas_threads()
    if blas is None:
        blas, workers = [], 1
    # the workers fill the cores, so each runs one BLAS thread, inherited
    # from this process: set_num_threads in a fresh fork would start the
    # BLAS thread pool (numpy 2.4.6, OpenBLAS 0.3.31), and its idle threads
    # slowed a BLAS-bound worker by up to 2x on two cores
    counts = [get() for get, _ in blas]
    for _, set_threads in blas:
        set_threads(1)
    try:
        if workers == 1:
            return [_timed(*task) for task in tasks], 1
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # numpy 2 imports numpy.random on first use, some 20 ms: once here,
        # not again in every forked worker that generates a dataset
        import numpy.random  # noqa: F401
        # fork, not the platform default: spawn and forkserver workers
        # import numpy and coxfield again, about 0.2 s each.  OpenBLAS
        # stops its own threads before a fork, and from Python 3.11 on the
        # pool forks every worker before it starts a thread of its own
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"))
        try:
            futures = [pool.submit(_timed, *task) for task in tasks]
            return [future.result() for future in futures], workers
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        for (_, set_threads), count in zip(blas, counts):
            set_threads(count)


def _mean_sd(values):
    """Mean, sd and count of the finite values; None and NaN are left out."""
    arr = np.array([v for v in values if v is not None and np.isfinite(v)])
    if arr.size == 0:
        return np.nan, np.nan, 0
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd, arr.size


def _aggregate(alpha, l1, rs, point):
    """One table row from the RS point and the per-fit records of one grid
    point, and the number of values behind each `_mean` column."""
    row = {"alpha": alpha, "l1_ratio": l1, "rs_converged": int(rs is not None)}
    row.update({f"rs_{f}": np.nan if rs is None else getattr(rs[0], f)
                for f in OrderParameters.NAMES})
    counts = {}
    for solver, recs in point.items():
        row[f"{solver}_n_converged"] = sum(rec["converged"] for rec in recs)
        ests = [rec["estimate"] for rec in recs if rec["estimate"] is not None]
        values = {f"est_{f}": [est[j] for est in ests]
                  for j, f in enumerate(OrderParameters.NAMES)}
        values.update({f: [rec[f] for rec in recs] for f in _FIT_FIELDS})
        for name, vals in values.items():
            col = f"{solver}_{name}"
            row[f"{col}_mean"], row[f"{col}_sd"], counts[f"{col}_mean"] = \
                _mean_sd(vals)
    return row, counts


def run_experiment(cfg, workers=None):
    """Run the full experiment and return the aggregated report.

    Per repetition: generate data, fit along the penalty grid with warm
    starts, compute data-only estimates, true overlaps, RSCV and held-out
    concordance (test set of equal size); the RS equations are solved once
    per grid point.  Per-point failures are recorded in the report and the
    run continues.  The per-fit records, grouped by grid point and solver
    in repetition order, give the table rows and, with keep_raw, the
    report's "raw"; "counts" holds the number of values behind each mean.
    Each record holds the fit's "epochs", "stop_reason" and
    "kkt_residual", and counts of what it did: an AMP record "holds" (the
    entries of diagnostics["frozen"]) and "damping_cuts", a CD record
    "newton_tried", "newton_kept" and "cg_iterations" (each None where
    the fit reports none: a diverged fit, or data without events).  A CD
    record adds its "start" (the start `reg_path` chose: "amp" for a given
    one, "previous" or "cold") and "amp_rel_l2", the relative L2 distance
    between the CD and AMP coefficients (None unless both converged).
    Checks `workers`, then makes cfg.output_dir, before any task runs;
    writes table.csv and report.json there.

    With solver "both", AMP runs first and CD certifies its fits: each CD
    fit starts at AMP's fit where that converged, and at the previous CD
    fit elsewhere.  CD tries no Newton predictor from a start whose KKT
    residual is within tol, as that of AMP's converged fits typically is,
    so a certification is typically one sweep.  CD's stop rule is
    unchanged, so the CD columns are those of a CD path within the
    convergence tolerance, and the AMP and RS columns those of a run
    without CD; "path_s" for CD then times a certification, not a CD
    path.

    The repetitions and the RS path are independent tasks, each run on
    one BLAS thread.  `workers` (default: the CPUs this process may run
    on) forked processes run them, at most one per task; the results are
    gathered in repetition order, so every output but "timing" is
    byte-identical for any worker count and BLAS thread setting.
    workers=1 runs them in this process, and so does any count where
    fork, os.sched_getaffinity or a way to pin the loaded BLAS (OpenBLAS
    only) is missing, in that last case on the caller's BLAS threads.
    "timing" holds the worker count used; per repetition, measured inside
    its task, its seconds ("repetition_s"), those of its data generation
    ("generate_s") and, per solver, of its path ("path_s") and of the
    estimates, true overlaps, RSCV and test C after it ("post_fit_s");
    the RS path's seconds; and the wall seconds of the call up to the
    report write.
    """
    t0 = perf_counter()
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(_run_repetition, cfg, r) for r in range(cfg.repetitions)]
    results, workers = _run_tasks(tasks + [(_solve_rs_path, cfg)], workers)
    *rep_runs, (rs_points, rs_s) = results
    reps = [rep for rep, _ in rep_runs]
    raw = [{solver: [records[solver][i] for records, _, _ in reps]
            for solver in cfg.solvers} for i in range(len(cfg.pen_grid))]
    rows, counts = zip(*(_aggregate(alpha, l1, rs, point) for (alpha, l1), rs,
                         point in zip(cfg.pen_grid, rs_points, raw)))
    report = {
        "config": cfg.to_jsonable(),
        "columns": list(rows[0]),
        "rows": list(rows),
        "counts": list(counts),
        "failures": [f for _, fails, _ in reps for f in fails],
    }
    if cfg.keep_raw:
        report["raw"] = raw
    write_table_csv(out_dir / "table.csv", report["columns"], rows)
    stages = [stage for _, _, stage in reps]
    report["timing"] = {
        "workers": workers,
        "repetition_s": [s for _, s in rep_runs],
        "generate_s": [stage["generate_s"] for stage in stages],
        **{key: {solver: [stage[key][solver] for stage in stages]
                 for solver in cfg.solvers} for key in ("path_s", "post_fit_s")},
        "rs_s": rs_s, "wall_s": perf_counter() - t0}
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        write_json(fh, report)
    return report


def _plain(obj):
    # obj with numpy scalars as Python values and NaN, +-inf as None
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    obj = obj.item() if isinstance(obj, np.generic) else obj
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def _read_json(path):
    # the JSON value in the file at path, or ValueError naming the file
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None


def write_json(fh, obj):
    """Dump obj to the open text file fh as standard JSON, indented by
    one: numpy scalars become Python values, NaN and +-inf null."""
    json.dump(_plain(obj), fh, indent=1, allow_nan=False)


def write_table_csv(path, columns, rows):
    """Write the aggregated table with a fixed column order.

    Floats are rendered with repr (shortest round-trip), so equal inputs
    give byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = (row[c] for c in columns)
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in cells) + "\n")
