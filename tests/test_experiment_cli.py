import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

from coxfield import cli, experiment
from coxfield.cli import main
from coxfield.experiment import ExperimentConfig, run_experiment, write_json
from coxfield.observables import EstimationError, estimate_from_amp
from coxfield.prox import ElasticNetPenalty
from coxfield.rs import OrderParameters
from coxfield.solvers import FitResult, SolverConfig, fit_cd, reg_path
from coxfield.survival import StepHazard, SurvivalDataset
from coxfield.synthgen import GeneratorSpec, SignalSpec, generate_dataset


# every JSON file and stdout summary the program writes is read through
# this: standard JSON, with no NaN or Infinity token
def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def _tiny_config(tmp_path, **overrides):
    kwargs = dict(zeta=2.0, p=60, nu=0.1, theta0=1.0,
                  pen_grid=[(0.5, 0.75), (0.35, 0.75)], solver="both",
                  repetitions=2, base_seed=3, pop_size=400,
                  output_dir=str(tmp_path / "out"))
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# config values out of range, and the name each error message carries
_BAD_VALUES = [({"pop_size": 99}, "pop_size"), ({"base_seed": -1}, "base_seed"),
               ({"nu": 0.0}, "nu"), ({"nu": 1.5}, "nu"),
               ({"theta0": 0.0}, "theta0"), ({"theta0": float("nan")}, "theta0")]


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        _tiny_config(tmp_path, repetitions=0)
    with pytest.raises(ValueError):
        _tiny_config(tmp_path, solver="nope")
    with pytest.raises(ValueError):
        _tiny_config(tmp_path, pen_grid=[(0.1, 0.75), (0.5, 0.75)])
    with pytest.raises(ValueError):
        _tiny_config(tmp_path, p=10)  # n < 10
    # the grid is checked at construction, before anything runs
    for grid in ([], [(0.5, 0.0)], [(0.5, -0.2)], [(0.5, 1.5)]):
        with pytest.raises(ValueError, match="pen_grid"):
            _tiny_config(tmp_path, pen_grid=grid)
    assert _tiny_config(tmp_path, pen_grid=[(0.5, 1.0)]).penalties[0].eta == 0.0
    # so are the RS population, the seeds and the signal, which would
    # otherwise fail only inside the tasks
    for bad, match in _BAD_VALUES:
        with pytest.raises(ValueError, match=match):
            _tiny_config(tmp_path, **bad)
    # a float or bool count or seed used to pass, and run_experiment then
    # failed with a TypeError inside its tasks
    for name in ("p", "repetitions", "pop_size", "base_seed"):
        for bad in (60.5, True):
            with pytest.raises(ValueError, match=f"{name} must be an int"):
                _tiny_config(tmp_path, **{name: bad})
    # a generator for another aspect ratio than the config's
    with pytest.raises(ValueError, match="gen.zeta must match"):
        ExperimentConfig(zeta=2.0, gen=GeneratorSpec(zeta=3.0))
    # a value of the wrong type fails when the config is built in Python,
    # as in JSON, naming the field: not inside the tasks, nor after
    # table.csv is written
    for name, bad in (("zeta", "2"), ("keep_raw", "no"),
                      ("solver_cfg", {"tol": 1e-6}), ("gen", {"zeta": 2.0}),
                      ("pen_grid", [("0.5", 0.75)]), ("pen_grid", [(0.5,)]),
                      ("output_dir", tmp_path / "out")):
        with pytest.raises(ValueError, match=f"'{name}'"):
            _tiny_config(tmp_path, **{name: bad})
    # a JSON pair, a list, is stored as the tuple a Python grid holds
    assert (_tiny_config(tmp_path, pen_grid=[[0.5, 0.75]])
            == _tiny_config(tmp_path, pen_grid=[(0.5, 0.75)]))


def test_grid_order_is_the_path_rule(tmp_path, capsys):
    # the config accepts a grid iff reg_path would: decreasing strength
    # alpha / l1_ratio, not decreasing alpha.  rho 0.5 then 0.8 fails at
    # construction and as a config file, before the output directory exists
    with pytest.raises(ValueError, match="pen_grid"):
        _tiny_config(tmp_path, pen_grid=[(0.5, 1.0), (0.4, 0.5)])
    cfg_path = tmp_path / "rising.json"
    cfg_path.write_text(json.dumps({"pen_grid": [[0.5, 1.0], [0.4, 0.5]]}))
    rc = main(["experiment", "--config", str(cfg_path), "--workers", "1",
               "--output", str(tmp_path / "rising")])
    assert rc == 1
    assert "pen_grid" in capsys.readouterr().err
    assert not (tmp_path / "rising").exists()
    # rho 0.6 then 0.4, with alpha rising, runs
    cfg = _tiny_config(tmp_path, pen_grid=[(0.3, 0.5), (0.4, 1.0)],
                       repetitions=1)
    report = run_experiment(cfg, workers=1)
    assert (tmp_path / "out" / "table.csv").exists()
    assert report["timing"]["workers"] == 1


def test_run_experiment_table_and_determinism(tmp_path):
    cfg = _tiny_config(tmp_path)
    report = run_experiment(cfg)
    assert len(report["rows"]) == 2
    row = report["rows"][0]
    for col in ("alpha", "rs_w", "amp_est_w_mean", "cd_est_w_mean",
                "amp_true_w_mean", "amp_rscv_mean", "amp_test_c_mean",
                "cd_test_c_sd"):
        assert col in row
    table1 = (tmp_path / "out" / "table.csv").read_bytes()
    cfg2 = _tiny_config(tmp_path, output_dir=str(tmp_path / "out2"))
    run_experiment(cfg2)
    table2 = (tmp_path / "out2" / "table.csv").read_bytes()
    assert table1 == table2
    header = table1.decode().splitlines()[0].split(",")
    assert header == report["columns"]


def test_experiment_config_json_roundtrip(tmp_path):
    cfg = _tiny_config(tmp_path, gen=GeneratorSpec(phi0=0.3, zeta=2.0),
                       solver_cfg=SolverConfig(tol=1e-7, max_epochs=50),
                       keep_raw=True)
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_jsonable(), fh)
    assert ExperimentConfig.from_json(path) == cfg


def test_report_json_takes_numpy_scalars(tmp_path):
    # a config built in Python may hold numpy integers, which json cannot
    # write without the report's default hook
    cfg = _tiny_config(tmp_path, p=np.int64(60), repetitions=np.int64(2),
                       solver="cd", pen_grid=[(0.5, 0.75)])
    run_experiment(cfg, workers=1)
    report = _strict_json((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["p"] == 60
    assert report["config"]["repetitions"] == 2


@pytest.mark.parametrize("where", ["top", "gen", "solver_cfg"])
def test_experiment_config_rejects_unknown_keys(tmp_path, where):
    raw = _tiny_config(tmp_path, solver_cfg=SolverConfig()).to_jsonable()
    (raw if where == "top" else raw[where])["bogus_key"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="bogus_key"):
        ExperimentConfig.from_json(path)


def test_cli_experiment_misspelled_key(tmp_path, capsys):
    # a usage error (exit 1) naming the file and the key, not a TypeError
    # traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"repetitons": 3}))
    assert main(["experiment", "--config", str(path)]) == 1
    assert (f"error: {path}: unknown config key(s): repetitons"
            in capsys.readouterr().err)
    path.write_text(json.dumps({"gen": [2.0]}))
    assert main(["experiment", "--config", str(path)]) == 1
    assert "gen must be a JSON object" in capsys.readouterr().err
    # a file that is no JSON at all is named with the decoder's message
    path.write_text("repetitions = 3\n")
    assert main(["experiment", "--config", str(path)]) == 1
    assert f"error: {path}: not JSON (Expecting value" in capsys.readouterr().err


def test_run_experiment_failures_match_records(tmp_path):
    # every unconverged fit has exactly one failure at its place, listed
    # by repetition, then solver, then grid point; the means it leaves
    # out show in the counts
    cfg = _tiny_config(tmp_path, solver_cfg=SolverConfig(max_epochs=3),
                       pen_grid=[(0.5, 0.75), (0.35, 0.75), (0.25, 0.75)],
                       repetitions=3, keep_raw=True)
    report = run_experiment(cfg)
    unconverged = [(r, i, solver)
                   for i, point in enumerate(report["raw"])
                   for solver, recs in point.items()
                   for r, rec in enumerate(recs) if not rec["converged"]]
    assert unconverged
    failed = [(f["repetition"], f["grid_index"], f["solver"])
              for f in report["failures"]
              if f["reason"] == "solver did not converge"]
    assert sorted(failed) == sorted(unconverged)
    assert all(f["stop_reason"] == "max_epochs" for f in report["failures"]
               if f["reason"] == "solver did not converge")
    assert len(set(failed)) == len(failed)
    order = [(r, cfg.solvers.index(solver), i) for r, i, solver in
             ((f["repetition"], f["grid_index"], f["solver"])
              for f in report["failures"])]
    assert order == sorted(order)
    for (r, i, solver) in unconverged:
        rec = dict(report["raw"][i][solver][r])
        # a finished fit is certified whether or not it converged
        assert rec.pop("kkt_residual") > 0.0
        assert rec.pop("epochs") == 3 and rec.pop("stop_reason") == "max_epochs"
        counts = (("holds", "damping_cuts") if solver == "amp"
                  else ("newton_tried", "newton_kept", "cg_iterations"))
        assert all(isinstance(rec.pop(key), int) for key in counts)
        if solver == "cd":
            # AMP converged nowhere, so CD starts cold, then warm
            assert rec.pop("start") == ("previous" if i else "cold")
            assert rec.pop("amp_rel_l2") is None
        assert rec == {"converged": False, "estimate": None, "true_w": None,
                       "true_v": None, "rscv": None, "test_c": None}
    for row, count, point in zip(report["rows"], report["counts"],
                                 report["raw"]):
        for solver, recs in point.items():
            n_conv = sum(rec["converged"] for rec in recs)
            assert row[f"{solver}_n_converged"] == n_conv
            assert count[f"{solver}_test_c_mean"] == n_conv


def test_both_solvers_certify_amp_fits_with_cd(tmp_path):
    # with both solvers, CD starts at AMP's fit where AMP converged and at
    # its own previous fit elsewhere (30 epochs stop AMP at some points, not
    # CD); the AMP columns are those of an AMP run, the CD fits those of a
    # CD run within the tolerance, and the RS columns unchanged
    kwargs = dict(pen_grid=[(0.5, 0.75), (0.35, 0.75), (0.225, 0.75)],
                  repetitions=3, base_seed=0, pop_size=200, keep_raw=True,
                  solver_cfg=SolverConfig(max_epochs=30))
    both = run_experiment(_tiny_config(tmp_path, **kwargs), workers=1)
    alone = {solver: run_experiment(_tiny_config(
        tmp_path, solver=solver, output_dir=str(tmp_path / solver), **kwargs),
        workers=1) for solver in ("amp", "cd")}

    def columns(report, solver):
        return json.dumps([{k: v for k, v in row.items() if k.startswith(solver)}
                           for row in report["rows"]])

    for prefix in ("amp", "rs"):
        assert columns(both, prefix) == columns(alone["amp"], prefix)
    starts = []
    for i, point in enumerate(both["raw"]):
        # JSON text, so NaN entries compare equal
        assert json.dumps(point["amp"]) == json.dumps(alone["amp"]["raw"][i]["amp"])
        for amp, cd, ref in zip(point["amp"], point["cd"],
                                alone["cd"]["raw"][i]["cd"]):
            start = "amp" if amp["converged"] else "previous" if i else "cold"
            starts.append(start)
            assert cd["start"] == start
            assert ref["start"] == ("previous" if i else "cold")
            assert cd["converged"] and ref["converged"]
            assert ref["amp_rel_l2"] is None
            # each record counts what its fit did
            assert all(isinstance(amp[key], int) and amp[key] >= 0
                       for key in ("holds", "damping_cuts"))
            for rec in (cd, ref):
                assert 0 <= rec["newton_kept"] <= rec["newton_tried"]
                assert rec["cg_iterations"] >= 0
            if start == "amp":
                # a certification: fewer sweeps than CD's own warm start,
                # and no Newton step
                assert cd["epochs"] < ref["epochs"]
                assert cd["newton_tried"] == 0
                assert 0.0 <= cd["amp_rel_l2"] <= 1e-6
            else:
                assert cd["amp_rel_l2"] is None
            for key in ("true_w", "true_v"):
                assert abs(cd[key] - ref[key]) <= 1e-6 * abs(ref[key])
    assert set(starts) == {"amp", "previous", "cold"}


def test_report_counts_the_values_behind_each_mean(tmp_path):
    cfg = _tiny_config(tmp_path, keep_raw=True,
                       pen_grid=[(5.0, 0.75), (2.0, 0.75), (0.3, 0.75)])
    report = run_experiment(cfg)
    assert len(report["counts"]) == len(report["rows"])
    mean_cols = [c for c in report["columns"] if c.endswith("_mean")]
    dropped = 0
    for row, count, point in zip(report["rows"], report["counts"],
                                 report["raw"]):
        assert list(count) == mean_cols
        for solver, recs in point.items():
            ests = [rec["estimate"] for rec in recs
                    if rec["estimate"] is not None]
            for j, f in enumerate(("w", "v", "tau", "w_hat", "v_hat",
                                   "tau_hat")):
                vals = [est[j] for est in ests if np.isfinite(est[j])]
                assert count[f"{solver}_est_{f}_mean"] == len(vals)
                dropped += len(recs) - len(vals)
                if vals:
                    assert row[f"{solver}_est_{f}_mean"] == np.mean(vals)
                else:
                    assert np.isnan(row[f"{solver}_est_{f}_mean"])
            for f in ("true_w", "true_v", "rscv", "test_c"):
                vals = [rec[f] for rec in recs if rec[f] is not None]
                assert count[f"{solver}_{f}_mean"] == len(vals)
    # the strong penalties give null fits: invalid AMP estimates (NaN)
    # and no CD estimate at all, which the counts record
    assert dropped > 0
    on_disk = _strict_json((tmp_path / "out" / "report.json").read_text())
    assert on_disk["counts"] == report["counts"]
    # a mean over no values and an undefined estimate are null on disk
    want = json.loads(json.dumps({key: report[key] for key in ("rows", "raw")})
                      .replace("NaN", "null"))
    assert {key: on_disk[key] for key in ("rows", "raw")} == want
    assert None in on_disk["rows"][0].values()


def test_estimates_use_the_data_aspect_ratio(tmp_path):
    # p = 61 at zeta 2 gives n = round(30.5) = 30: the estimates, sums over
    # the data, take its own p / n = 61/30, not the config's 2
    cfg = _tiny_config(tmp_path, p=61, solver="amp", repetitions=1,
                       pen_grid=[(0.2, 0.75)], keep_raw=True)
    report = run_experiment(cfg, workers=1)
    train_seed, _ = experiment._rep_seeds(cfg.base_seed, 0)
    sig = SignalSpec(p=61, nu=cfg.nu, theta0=cfg.theta0, seed=cfg.base_seed)
    train, _ = generate_dataset(sig, cfg.gen, seed=train_seed)
    assert (train.p, train.n) == (61, 30)
    (fit,) = reg_path(train, cfg.penalties, "amp", cfg=cfg.solver_cfg)
    want = estimate_from_amp(train, fit, 61 / 30).as_array().tolist()
    assert np.all(np.isfinite(want))
    assert report["raw"][0]["amp"][0]["estimate"] == want
    assert estimate_from_amp(train, fit, 2.0).as_array().tolist() != want


def test_failures_list_invalid_estimates(tmp_path):
    # the strong penalties give null AMP fits whose (w, v) estimates are
    # invalid: one failure each, after the fit's place in the order.  The
    # null CD fits have no estimate at all (tau_hat is undefined), and so,
    # lacking tau, no RSCV: one failure each with the estimator's reason
    cfg = _tiny_config(tmp_path, keep_raw=True,
                       pen_grid=[(5.0, 0.75), (2.0, 0.75), (0.3, 0.75)])
    report = run_experiment(cfg)
    invalid = sorted((r, i, solver)
                     for i, point in enumerate(report["raw"])
                     for solver, recs in point.items()
                     for r, rec in enumerate(recs)
                     if rec["estimate"] is not None
                     and not np.all(np.isfinite(rec["estimate"][:2])))
    assert invalid
    listed = sorted((f["repetition"], f["grid_index"], f["solver"])
                    for f in report["failures"]
                    if f["reason"].startswith("invalid estimate: "))
    assert listed == invalid
    undefined = sorted((r, i) for i, point in enumerate(report["raw"])
                       for r, rec in enumerate(point["cd"])
                       if rec["converged"] and rec["estimate"] is None)
    assert undefined
    assert all(report["raw"][i]["cd"][r]["rscv"] is None
               for r, i in undefined)
    listed = sorted((f["repetition"], f["grid_index"])
                    for f in report["failures"]
                    if f["reason"] == "estimate: null model: tau_hat undefined")
    assert listed == undefined
    order = [(f["repetition"], cfg.solvers.index(f["solver"]), f["grid_index"])
             for f in report["failures"]]
    assert order == sorted(order)


@pytest.mark.parametrize("name, error, field", [
    ("estimate_from_amp", EstimationError, "estimate"),
    ("rscv_c_index", ValueError, "rscv"), ("harrell_c", ValueError, "test_c")])
def test_failures_carry_the_stage_that_raised(tmp_path, monkeypatch, name,
                                              error, field):
    # the first AMP fit's estimate, RSCV or test C raises: the run goes on,
    # lists one failure whose reason starts with the stage, leaves that
    # record's field None and its mean one value short; all else unchanged
    cfg = _tiny_config(tmp_path, keep_raw=True)
    base = run_experiment(cfg, workers=1)
    real, calls = getattr(experiment, name), []

    def first_raises(*args):
        calls.append(args)
        if len(calls) == 1:
            raise error("injected")
        return real(*args)

    monkeypatch.setattr(experiment, name, first_raises)
    report = run_experiment(cfg, workers=1)
    assert report["failures"] == [
        {"repetition": 0, "grid_index": 0, "solver": "amp",
         "reason": f"{field}: injected"}] + base["failures"]
    hit, was = report["raw"][0]["amp"][0], base["raw"][0]["amp"][0]
    assert hit[field] is None and was[field] is not None
    changed = {field}
    if field == "estimate":
        # without the estimate, RSCV takes the fit's own tau
        assert hit["rscv"] is not None
        changed.add("rscv")
    assert {k: v for k, v in hit.items() if k not in changed} == {
        k: v for k, v in was.items() if k not in changed}
    report["raw"][0]["amp"][0] = was
    assert json.dumps(report["raw"]) == json.dumps(base["raw"])
    short = ([f"amp_est_{f}_mean" for f in OrderParameters.NAMES]
             if field == "estimate" else [f"amp_{field}_mean"])
    assert report["counts"][0] == {
        key: n - (key in short) for key, n in base["counts"][0].items()}
    assert report["counts"][1:] == base["counts"][1:]


@pytest.mark.parametrize("bad, key", [
    ({"p": "500"}, "p"), ({"nu": "0.1"}, "nu"), ({"keep_raw": "yes"}, "keep_raw"),
    ({"repetitions": True}, "repetitions"),
    ({"solver_cfg": {"max_epochs": 2.5}}, "max_epochs"),
    ({"gen": {"phi0": "x"}}, "phi0"), ({"pen_grid": [["0.5", 0.75]]}, "pen_grid"),
    ({"p": int("9" * 400)}, "p")])
def test_cli_experiment_rejects_wrong_value_types(tmp_path, capsys, bad, key):
    # a usage error (exit 1) naming the file and the key, not a traceback;
    # a 400-digit p is shortened, not echoed in full
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad))
    assert main(["experiment", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"'{key}'" in err and f"error: {path}: " in err
    assert len(err) < 300


def test_experiment_config_int_loads_as_float(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"zeta": 2, "nu": 1, "gen": {"tau1": 1},
                                "solver_cfg": {"tol": 1, "max_epochs": None}}))
    cfg = ExperimentConfig.from_json(path)
    assert (cfg.zeta, cfg.nu, cfg.gen.tau1, cfg.solver_cfg.tol) == (2, 1, 1, 1)


def test_experiment_elbow_shape(tmp_path):
    # held-out concordance peaks at an interior penalty strength
    alphas = [round(a, 6) for a in np.geomspace(1.8, 0.12, 8)]
    cfg = _tiny_config(tmp_path, p=400, nu=0.01,
                       pen_grid=[(a, 0.75) for a in alphas],
                       solver="amp", repetitions=3, base_seed=5,
                       output_dir=str(tmp_path / "elbow"))
    from coxfield.solvers import SolverConfig
    cfg.solver_cfg = SolverConfig(max_epochs=2000)
    report = run_experiment(cfg)
    test_c = [row["amp_test_c_mean"] for row in report["rows"]]
    finite = [c for c in test_c if np.isfinite(c)]
    peak = int(np.nanargmax(test_c))
    assert len(finite) >= 6
    assert 0 < peak < len(test_c) - 1


def _pooled(workers):
    """The worker count run_experiment reports for an explicit request:
    one where this platform cannot fork a pool with one BLAS thread each."""
    can_pool = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and experiment._openblas_threads() is not None)
    return workers if can_pool else 1


def _worker_blas_threads():
    return [get() for get, _ in experiment._openblas_threads()]


_SAME_KEYS = ("columns", "rows", "counts", "failures", "raw")


@pytest.mark.parametrize("overrides", [
    {}, {"keep_raw": True},
    # one epoch: no fit of this config converges; with its Newton steps
    # chained, a CD fit of it converges at 2 epochs
    {"keep_raw": True, "solver_cfg": SolverConfig(max_epochs=1)},
    # large enough that numpy's matrix products split over BLAS threads
    {"keep_raw": True, "p": 1000, "repetitions": 1, "solver": "amp",
     "pen_grid": [(0.36, 0.75), (0.3, 0.75)], "pop_size": 200}],
    ids=["tiny", "keep_raw", "unconverged", "p1000"])
def test_worker_counts_give_identical_outputs(tmp_path, overrides):
    # 1, 2 and more workers than tasks (the repetitions and the RS path):
    # the same table.csv bytes and the same report but for its timing
    outs = {}
    for workers in (1, 2, 7):
        cfg = _tiny_config(tmp_path, output_dir=str(tmp_path / f"w{workers}"),
                           **overrides)
        report = run_experiment(cfg, workers=workers)
        assert report["timing"]["workers"] == _pooled(
            min(workers, cfg.repetitions + 1))
        table = (tmp_path / f"w{workers}" / "table.csv").read_bytes()
        # JSON text, so NaN cells compare equal
        outs[workers] = table, json.dumps({k: report.get(k) for k in _SAME_KEYS})
    assert outs[1] == outs[2] == outs[7]
    if "solver_cfg" in overrides:
        raw = json.loads(outs[1][1])["raw"]
        assert not any(rec["converged"] for point in raw
                       for recs in point.values() for rec in recs)


def test_one_worker_runs_in_process(tmp_path, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("workers=1 must not build a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    report = run_experiment(_tiny_config(tmp_path), workers=1)
    assert report["timing"]["workers"] == 1
    if _pooled(2) == 2:
        # the patch is in effect: two workers do build a pool, and the
        # failed attempt leaves this process's BLAS threads as they were
        before = _worker_blas_threads()
        with pytest.raises(AssertionError, match="process pool"):
            run_experiment(_tiny_config(tmp_path), workers=2)
        assert _worker_blas_threads() == before


@pytest.mark.parametrize("missing", ["openblas", "sched_getaffinity"])
def test_fallbacks_run_in_process(tmp_path, monkeypatch, missing):
    # without a way to pin the loaded BLAS (no OpenBLAS), or without
    # os.sched_getaffinity (macOS, Windows), two workers run the tasks in
    # this process and write the one-worker table
    import concurrent.futures

    run_experiment(_tiny_config(tmp_path, output_dir=str(tmp_path / "one")),
                   workers=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("the fallback must not build a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    if missing == "openblas":
        monkeypatch.setattr(experiment, "_openblas_threads", lambda: None)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    report = run_experiment(
        _tiny_config(tmp_path, output_dir=str(tmp_path / "two")), workers=2)
    assert report["timing"]["workers"] == 1
    assert ((tmp_path / "two" / "table.csv").read_bytes()
            == (tmp_path / "one" / "table.csv").read_bytes())


# in a fresh process: `import coxfield` leaves numpy.random unloaded, and
# the pool is built only once it is loaded, so no forked worker loads it
_POOL_SEES_NUMPY_RANDOM = """
import concurrent.futures, sys
from coxfield import cli, experiment
assert "numpy.random" not in sys.modules
seen = []

def no_pool(*args, **kwargs):
    seen.append("numpy.random" in sys.modules)
    raise RuntimeError("no pool")

concurrent.futures.ProcessPoolExecutor = no_pool
try:
    experiment._run_tasks([(abs, -1), (abs, -2)], 2)
except RuntimeError:
    pass
assert seen == [True], seen
"""


def test_pool_is_built_after_numpy_random_loads():
    if _pooled(2) != 2:
        pytest.skip("this platform runs the tasks without a pool")
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _POOL_SEES_NUMPY_RANDOM],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_default_workers_capped_at_tasks(tmp_path, monkeypatch):
    # the default is the CPUs this process may run on, at most one worker
    # per task: the repetitions and the RS path
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    report = run_experiment(_tiny_config(tmp_path))
    timing = report["timing"]
    assert timing["workers"] == _pooled(3)
    assert len(timing["repetition_s"]) == 2
    assert all(s > 0.0 for s in timing["repetition_s"])
    assert 0.0 < timing["rs_s"] and 0.0 < timing["wall_s"]
    on_disk = _strict_json((tmp_path / "out" / "report.json").read_text())
    assert on_disk["timing"] == timing


@pytest.mark.parametrize("workers", [1, 2])
def test_report_times_repetition_stages(tmp_path, workers):
    # the stages inside each repetition, measured in its task: data
    # generation, and per solver the path and the work after the fits
    report = run_experiment(_tiny_config(tmp_path), workers=workers)
    timing = report["timing"]
    reps = len(timing["repetition_s"])
    assert len(timing["generate_s"]) == reps
    for key in ("path_s", "post_fit_s"):
        assert sorted(timing[key]) == ["amp", "cd"]
        assert all(len(secs) == reps for secs in timing[key].values())
    for r, total in enumerate(timing["repetition_s"]):
        stages = [timing["generate_s"][r]] + [
            timing[key][solver][r] for key in ("path_s", "post_fit_s")
            for solver in ("amp", "cd")]
        assert all(s >= 0.0 for s in stages)
        assert sum(stages) <= total
    on_disk = _strict_json((tmp_path / "out" / "report.json").read_text())
    assert on_disk["timing"] == timing


def test_workers_run_one_blas_thread():
    # each task runs on one BLAS thread, in this process or inherited by a
    # worker, and this process gets its thread counts back afterwards
    if _pooled(2) == 1:
        return
    before = _worker_blas_threads()
    for workers in (1, 2):
        results, used = experiment._run_tasks(
            [(_worker_blas_threads,)] * 3, workers)
        assert used == workers
        assert [threads for threads, _ in results] == [[1] * len(before)] * 3
        assert _worker_blas_threads() == before


@pytest.mark.parametrize("workers", [0, -2])
def test_bad_worker_counts_are_usage_errors(tmp_path, capsys, workers):
    cfg = _tiny_config(tmp_path)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_experiment(cfg, workers=workers)
    assert not (tmp_path / "out").exists()
    # the CLI takes the library's check: exit 1 with its message
    assert main(["experiment", "--workers", str(workers),
                 "--output", str(tmp_path / "cli")]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


def test_output_dir_is_made_before_any_task(tmp_path, monkeypatch):
    # an output path that cannot be a directory fails before any work
    def no_task(cfg, r):
        raise AssertionError("a task ran before the output directory")

    monkeypatch.setattr(experiment, "_run_repetition", no_task)
    taken = tmp_path / "taken"
    taken.write_text("a file")
    with pytest.raises(FileExistsError):
        run_experiment(_tiny_config(tmp_path, output_dir=str(taken)),
                       workers=1)
    assert taken.read_text() == "a file"


def test_cli_generate_fit_estimate_roundtrip(tmp_path, capsys):
    data_csv = tmp_path / "d.csv"
    rc = main(["generate", "--p", "240", "--zeta", "2", "--nu", "0.05",
               "--seed", "5", "--output", str(data_csv)])
    assert rc == 0
    summary = _strict_json(capsys.readouterr().out)
    assert summary["n"] == 120 and summary["p"] == 240
    assert (tmp_path / "d.json").exists()

    fit_json = tmp_path / "fit.json"
    rc = main(["fit", "--input", str(data_csv), "--solver", "amp",
               "--alpha", "0.4", "--l1-ratio", "0.75",
               "--output", str(fit_json)])
    assert rc == 0
    fit_summary = _strict_json(capsys.readouterr().out)
    assert fit_summary["converged"]
    rec = _strict_json(fit_json.read_text())
    assert {"beta_hat", "hazard", "tau", "tau_hat", "diagnostics"} <= set(rec)
    assert rec["diagnostics"]["stop_reason"] == "tol"
    assert rec["diagnostics"]["seconds"] > 0.0
    assert len(rec["hazard"]["knots"]) == len(rec["hazard"]["jumps"])

    est_json = tmp_path / "est.json"
    rc = main(["estimate", "--fit", str(fit_json), "--data", str(data_csv),
               "--output", str(est_json)])
    assert rc == 0
    est = _strict_json(est_json.read_text())
    assert set(est["estimates"]) == {"amp", "cd"}
    assert "true_overlaps" in est           # sidecar picked up implicitly
    amp_est = est["estimates"]["amp"]
    assert amp_est["w_valid"] and amp_est["v_valid"]
    # each route's record starts with the six scalars in the type's order
    for rec in est["estimates"].values():
        assert tuple(rec) == (*OrderParameters.NAMES, "v_hat_alt", "w_valid",
                              "v_valid", "diagnostics")


def test_cli_estimate_on_an_unconverged_fit(tmp_path, capsys):
    # the fit file of a stopped fit is written; neither route estimates
    # from it, and each names why
    data_csv = tmp_path / "d.csv"
    main(["generate", "--p", "100", "--nu", "0.05", "--seed", "6",
          "--output", str(data_csv)])
    fit_json = tmp_path / "fit.json"
    rc = main(["fit", "--input", str(data_csv), "--solver", "amp",
               "--alpha", "0.4", "--max-epochs", "1",
               "--output", str(fit_json)])
    assert rc == 2
    capsys.readouterr()
    est_json = tmp_path / "est.json"
    rc = main(["estimate", "--fit", str(fit_json), "--data", str(data_csv),
               "--output", str(est_json)])
    assert rc == 2
    errors = {"amp": "AMP fit did not converge",
              "cd": "CD fit did not converge"}
    assert _strict_json(capsys.readouterr().out)["errors"] == errors
    est = _strict_json(est_json.read_text())
    assert est["estimates"] == {} and est["errors"] == errors


def test_cli_estimate_of_a_null_fit_is_standard_json(tmp_path, capsys):
    # a null AMP fit leaves w and v undefined: null in est.json, not NaN
    data_csv = tmp_path / "d.csv"
    main(["generate", "--p", "100", "--nu", "0.05", "--seed", "6",
          "--output", str(data_csv)])
    capsys.readouterr()
    fit_json = tmp_path / "fit.json"
    assert main(["fit", "--input", str(data_csv), "--solver", "amp",
                 "--alpha", "5.0", "--output", str(fit_json)]) == 0
    assert _strict_json(capsys.readouterr().out)["nnz"] == 0
    est_json = tmp_path / "est.json"
    assert main(["estimate", "--fit", str(fit_json), "--data", str(data_csv),
                 "--output", str(est_json)]) == 0
    _strict_json(capsys.readouterr().out)
    amp = _strict_json(est_json.read_text())["estimates"]["amp"]
    assert amp["w"] is None and amp["v"] is None
    assert not amp["w_valid"] and not amp["v_valid"]


def test_cli_path_and_rs_solve(tmp_path, capsys):
    data_csv = tmp_path / "d.csv"
    main(["generate", "--p", "100", "--zeta", "2", "--nu", "0.05",
          "--seed", "6", "--output", str(data_csv)])
    capsys.readouterr()
    out = tmp_path / "path.json"
    rc = main(["path", "--input", str(data_csv), "--solver", "cd",
               "--alpha-grid", "0.5,0.4,0.3", "--max-epochs", "300",
               "--output", str(out)])
    assert rc == 0
    records = _strict_json(out.read_text())
    assert len(records) == 3
    assert all(r["diagnostics"]["stop_reason"] == "tol" for r in records)
    assert all(0.0 < r["diagnostics"]["kkt_residual"] <= 1e-6 for r in records)
    # each path starts cold, then from its previous fit
    amp_out = tmp_path / "path_amp.json"
    assert main(["path", "--input", str(data_csv), "--solver", "amp",
                 "--alpha-grid", "0.5,0.4,0.3", "--output", str(amp_out)]) == 0
    for path_json in (out, amp_out):
        assert [r["diagnostics"]["start"]
                for r in _strict_json(path_json.read_text())] == [
            "cold", "previous", "previous"]
    # above the float32 size rule (n p = 80000), every point of either
    # solver's path converges, float32 products included
    big_csv = tmp_path / "big.csv"
    assert main(["generate", "--p", "400", "--nu", "0.05", "--seed", "6",
                 "--output", str(big_csv)]) == 0
    for solver in ("amp", "cd"):
        big_out = tmp_path / f"big_{solver}.json"
        assert main(["path", "--input", str(big_csv), "--solver", solver,
                     "--alpha-grid", "0.5,0.4,0.3",
                     "--output", str(big_out)]) == 0
        assert all(r["diagnostics"]["converged"]
                   for r in _strict_json(big_out.read_text()))
    capsys.readouterr()

    # every point converges at pop 800, from the default seed and from 2
    rs_csv = tmp_path / "rs.csv"
    for seed in ([], ["--seed", "2"]):
        rc = main(["rs-solve", "--zeta", "2", "--nu", "0.05", "--alpha-grid",
                   "0.5,0.4", "--pop-size", "800", *seed,
                   "--output", str(rs_csv)])
        assert rc == 0
        summary = _strict_json(capsys.readouterr().out)
        lines = rs_csv.read_text().splitlines()
        assert lines[0] == "alpha,w,v,tau,w_hat,v_hat,tau_hat,converged"
        assert len(lines) == 3
        assert all(line.endswith(",1") for line in lines[1:])
        assert summary["converged_points"] == 2
        assert all(it >= 1 for it in summary["iterations"])


def test_cli_path_reports_amp_freezes(tmp_path, capsys):
    # the path JSON carries each AMP fit's freeze events; on these data the
    # last point holds one coordinate on one side of the threshold
    data_csv = tmp_path / "d.csv"
    main(["generate", "--p", "100", "--nu", "0.05", "--seed", "8",
          "--output", str(data_csv)])
    capsys.readouterr()
    out = tmp_path / "path.json"
    rc = main(["path", "--input", str(data_csv), "--solver", "amp",
               "--alpha-grid", "0.5,0.4,0.3", "--output", str(out)])
    assert rc == 0
    records = _strict_json(out.read_text())
    assert all(r["diagnostics"]["stop_reason"] == "tol" for r in records)
    frozen = [r["diagnostics"]["frozen"] for r in records]
    assert frozen[:2] == [[], []]
    [(epoch, k, side)] = frozen[2]
    assert 0 < epoch < records[2]["diagnostics"]["epochs"]
    assert 0 <= k < 100 and side in (-1, 1)


@pytest.mark.parametrize("command", ["path", "rs-solve"])
def test_cli_alpha_grid_must_decrease(tmp_path, capsys, command):
    # both subcommands hold --alpha-grid to reg_path's order rule, name
    # the flag, exit 1 and write nothing
    data_csv = tmp_path / "d.csv"
    main(["generate", "--p", "40", "--nu", "0.1", "--seed", "6",
          "--output", str(data_csv)])
    capsys.readouterr()
    out = tmp_path / "out"
    head = {"path": ["path", "--input", str(data_csv)],
            "rs-solve": ["rs-solve", "--zeta", "2", "--nu", "0.05",
                         "--pop-size", "400"]}[command]
    rc = main(head + ["--alpha-grid", "0.3,0.5", "--output", str(out)])
    assert rc == 1
    assert ("--alpha-grid must decrease in strength alpha / l1_ratio"
            in capsys.readouterr().err)
    assert not out.exists()


# rs-solve's CSV, byte for byte: floats in repr, and a failed point (nu
# 0.02 fails from the default start at pop 600, seed 4) is a row of nan
# with converged 0; the converged rows' last digits follow the rounding of
# the Gaussian tail
RS_SOLVE_CSV = {
    ("0.02", "0.5,0.4,0.3", "4"):
        "alpha,w,v,tau,w_hat,v_hat,tau_hat,converged\n"
        "0.5,nan,nan,nan,nan,nan,nan,0\n"
        "0.4,nan,nan,nan,nan,nan,nan,0\n"
        "0.3,nan,nan,nan,nan,nan,nan,0\n",
    ("0.1", "0.5,0.2,0.05", "2"):
        "alpha,w,v,tau,w_hat,v_hat,tau_hat,converged\n"
        "0.5,0.2189634176885246,0.4106356591688956,0.7243902121571563,"
        "0.9805217065069287,2.4398449699977176,6.003671157370819,1\n"
        "0.2,0.49756200057853534,1.0745611882148949,3.325557419954354,"
        "1.3095656479006008,3.35023327343659,11.398582074189445,1\n"
        "0.05,nan,nan,nan,nan,nan,nan,0\n",
}


@pytest.mark.parametrize("nu, grid, seed", sorted(RS_SOLVE_CSV))
def test_rs_solve_csv_bytes(tmp_path, capsys, nu, grid, seed):
    out = tmp_path / "rs.csv"
    main(["rs-solve", "--zeta", "2", "--nu", nu, "--alpha-grid", grid,
          "--pop-size", "600", "--seed", seed, "--output", str(out)])
    capsys.readouterr()
    assert out.read_bytes() == RS_SOLVE_CSV[nu, grid, seed].encode()


def test_cli_experiment_subcommand(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, output_dir=str(tmp_path / "expdir"))
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg.to_jsonable(), fh)
    rc = main(["experiment", "--config", str(cfg_path), "--workers", "1"])
    assert rc == 0
    summary = _strict_json(capsys.readouterr().out)
    assert summary["grid_points"] == 2
    assert summary["workers"] == 1 and summary["wall_s"] > 0.0
    assert (tmp_path / "expdir" / "table.csv").exists()
    # the config report.json records reloads to the one given
    report = _strict_json((tmp_path / "expdir" / "report.json").read_text())
    reloaded = tmp_path / "reloaded.json"
    reloaded.write_text(json.dumps(report["config"]))
    assert ExperimentConfig.from_json(reloaded) == cfg


def test_cli_experiment_paper_scale(tmp_path, capsys, monkeypatch):
    # the preset replaces p, repetitions and nu and keeps every other
    # field, with and without --config; the experiment itself is not run
    seen = []

    def fake_run(cfg, workers=None):
        seen.append(cfg)
        return {"failures": [], "timing": {"workers": 1, "wall_s": 0.0}}

    monkeypatch.setattr("coxfield.cli.run_experiment", fake_run)
    out = str(tmp_path / "paper")
    assert main(["experiment", "--paper-scale", "--output", out]) == 0
    assert seen[-1] == ExperimentConfig(p=2000, repetitions=20, nu=0.005,
                                        output_dir=out)
    capsys.readouterr()

    cfg = _tiny_config(tmp_path, solver_cfg=SolverConfig(max_epochs=50))
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg.to_jsonable(), fh)
    assert main(["experiment", "--config", str(cfg_path), "--paper-scale",
                 "--output", out]) == 0
    want = cfg.to_jsonable()
    want.update(p=2000, repetitions=20, nu=0.005, output_dir=out)
    assert seen[-1].to_jsonable() == want
    assert _strict_json(capsys.readouterr().out)["repetitions"] == 20


def test_cli_exit_codes(tmp_path, capsys):
    # usage error: unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--bogus", "1"])
    assert exc.value.code == 1
    # usage error: missing file
    rc = main(["fit", "--input", str(tmp_path / "missing.csv"),
               "--solver", "cd", "--alpha", "0.4",
               "--output", str(tmp_path / "f.json")])
    assert rc == 1
    capsys.readouterr()
    # usage error naming the file: a CSV whose header is not the schema,
    # is wider than its rows, or holds a non-number
    for lines, match in (
            (["t,e,x1,x2", "1.0,1,0.1,0.2"], "expected header"),
            (["time,event,x1,x2,x3", "1.0,1,0.1,0.2", "2.0,0,0.3,0.4"],
             "row width does not match header"),
            (["time,event,x1,x2", "1.0,1,0.1,abc"],
             "could not convert string 'abc' to float64")):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        rc = main(["fit", "--input", str(bad_csv), "--alpha", "0.4",
                   "--output", str(tmp_path / "f.json")])
        assert rc == 1
        assert f"error: {bad_csv}: {match}" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()
    # usage error: a zeta that leaves no sample, before anything is written
    rc = main(["generate", "--p", "1", "--zeta", "3", "--nu", "1", "--seed",
               "0", "--output", str(tmp_path / "g.csv")])
    assert rc == 1
    assert "zeta too large" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()
    # usage error: a worker count that is no integer
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--workers", "abc"])
    assert exc.value.code == 1
    capsys.readouterr()
    # usage error: a config value out of range, before anything runs
    for bad, match in _BAD_VALUES:
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        rc = main(["experiment", "--config", str(cfg_path),
                   "--output", str(tmp_path / "bad")])
        assert rc == 1
        assert match in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()
    # numerical failure: estimation undefined on an all-censored dataset
    data_csv = tmp_path / "cens.csv"
    import warnings
    rng = np.random.default_rng(0)
    SurvivalDataset(rng.uniform(0.5, 1.0, 30), np.zeros(30),
                    rng.normal(0, 0.3, (30, 10))).to_csv(data_csv)
    # usage error: a penalty that no fit can take, on a readable dataset,
    # or an --alpha-grid entry that is no number, named with the flag
    fit_on = ["--input", str(data_csv)]
    for argv, match in (
            (["fit", *fit_on, "--alpha", "nan"], "penalty weights must be"),
            (["fit", *fit_on, "--alpha", "0.4", "--l1-ratio", "0"],
             "--l1-ratio must be positive"),
            (["path", *fit_on, "--alpha-grid", "nan,0.3"],
             "penalty weights must be"),
            *(([*head, "--alpha-grid", grid], "--alpha-grid must be "
               f"comma-separated numbers, not '{grid}'")
              for head in (["path", *fit_on],
                           ["rs-solve", "--zeta", "2", "--nu", "0.1"])
              for grid in ("0.5,,0.3", "0.5,abc"))):
        rc = main([*argv, "--output", str(tmp_path / "bad_fit.json")])
        assert rc == 1
        assert match in capsys.readouterr().err
        assert not (tmp_path / "bad_fit.json").exists()
    fit_json = tmp_path / "cens_fit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["fit", "--input", str(data_csv), "--solver", "cd",
                   "--alpha", "0.4", "--output", str(fit_json)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["estimate", "--fit", str(fit_json), "--data", str(data_csv),
               "--output", str(tmp_path / "e.json")])
    assert rc == 2
    capsys.readouterr()
    # usage error: an RS signal outside the prior's range, before any solve
    for flag, value, match in (("--nu", "1.5", "nu must lie in (0, 1]"),
                               ("--nu", "nan", "nu must lie in (0, 1]"),
                               ("--nu", "0", "nu must lie in (0, 1]"),
                               ("--theta0", "-1", "theta0 must be finite"),
                               ("--theta0", "inf", "theta0 must be finite"),
                               ("--theta0", "nan", "theta0 must be finite")):
        argv = {"--nu": "0.1", "--theta0": "1.0", flag: value}
        rc = main(["rs-solve", "--zeta", "2", "--alpha-grid", "0.5",
                   "--pop-size", "200", "--output", str(tmp_path / "rs.csv"),
                   *[x for item in argv.items() for x in item]])
        assert rc == 1
        assert match in capsys.readouterr().err
        assert not (tmp_path / "rs.csv").exists()
    # usage error: an output path that cannot be written, a directory
    # where a file goes or a file where the experiment's directory goes
    d_csv = tmp_path / "d.csv"
    assert main(["generate", "--p", "60", "--nu", "0.1", "--seed", "6",
                 "--output", str(d_csv)]) == 0
    a_dir, a_file = tmp_path / "a_dir", tmp_path / "a_file"
    a_dir.mkdir()
    a_file.write_text("taken")
    cfg_path = tmp_path / "one_rep.json"
    cfg_path.write_text(json.dumps({"p": 60, "nu": 0.1, "repetitions": 1,
                                    "pen_grid": [[0.5, 0.75]],
                                    "pop_size": 400}))
    for argv, out in (
            (["fit", "--input", str(d_csv), "--alpha", "0.4"], a_dir),
            (["rs-solve", "--zeta", "2", "--nu", "0.1", "--alpha-grid",
              "0.5", "--pop-size", "400"], a_dir),
            (["experiment", "--config", str(cfg_path), "--workers", "1"],
             a_file)):
        capsys.readouterr()
        rc = main([*argv, "--output", str(out)])
        assert rc == 1
        out_text, err = capsys.readouterr()
        assert err.startswith("error: ") and str(out) in err
        assert out_text == ""
    assert a_file.read_text() == "taken" and not any(a_dir.iterdir())


def test_cli_output_is_checked_before_the_work(tmp_path, capsys, monkeypatch):
    # fit, path and rs-solve check that --output can be written before
    # they solve anything: with a directory there, the solver is never
    # called.  A path that can be written is left as it was found
    d_csv = tmp_path / "d.csv"
    assert main(["generate", "--p", "60", "--nu", "0.1", "--seed", "6",
                 "--output", str(d_csv)]) == 0
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()

    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before the output was checked")

    monkeypatch.setitem(cli._SOLVERS, "cd", no_work)
    monkeypatch.setattr(cli, "reg_path", no_work)
    monkeypatch.setattr(cli, "solve_rs_path", no_work)
    for argv in (["fit", "--input", str(d_csv), "--alpha", "0.4"],
                 ["path", "--input", str(d_csv), "--alpha-grid", "0.5,0.4"],
                 ["rs-solve", "--zeta", "2", "--nu", "0.1", "--alpha-grid",
                  "0.5", "--pop-size", "400"]):
        capsys.readouterr()
        assert main([*argv, "--output", str(a_dir)]) == 1
        out_text, err = capsys.readouterr()
        assert err.startswith("error: ") and str(a_dir) in err
        assert out_text == ""
        with pytest.raises(AssertionError, match="the work ran"):
            main([*argv, "--output", str(tmp_path / "new.json")])
        assert not (tmp_path / "new.json").exists()
    assert not any(a_dir.iterdir())


def test_cli_fit_divergence_is_a_numerical_failure(tmp_path, capsys):
    # undamped AMP diverges at this point: exit 2, and the record a
    # diverged path point gets, with null beta_hat, hazard and final_err
    data_csv = tmp_path / "d.csv"
    main(["generate", "--p", "60", "--nu", "0.1", "--seed", "36",
          "--output", str(data_csv)])
    capsys.readouterr()
    fit_json = tmp_path / "f.json"
    rc = main(["fit", "--input", str(data_csv), "--solver", "amp",
               "--alpha", "0.5", "--damping", "1.0", "--output", str(fit_json)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err == ""
    summary = _strict_json(out)
    assert summary["stop_reason"] == "diverged" and summary["epochs"] == 194
    assert summary["final_err"] is None and summary["nnz"] is None
    rec = _strict_json(fit_json.read_text())
    assert rec["beta_hat"] is None and rec["hazard"] is None
    assert rec["diagnostics"]["final_err"] is None
    assert rec["diagnostics"]["stop_reason"] == "diverged"
    assert rec["diagnostics"]["error"].startswith(
        "non-finite hazard at epoch 194; ")


def _flaky_cd(monkeypatch, bad_alpha):
    # CD that diverges at one penalty only
    from coxfield import solvers

    def fit(data, pen, init=None, cfg=None):
        if pen.alpha == bad_alpha:
            return solvers._diverged(data.p, 2, perf_counter(), beta=np.nan)
        return fit_cd(data, pen, init=init, cfg=cfg)

    monkeypatch.setitem(solvers._SOLVERS, "cd", fit)


def test_cli_path_writes_null_for_a_diverged_point(tmp_path, capsys,
                                                   monkeypatch):
    data_csv = tmp_path / "d.csv"
    main(["generate", "--p", "100", "--nu", "0.05", "--seed", "6",
          "--output", str(data_csv)])
    _flaky_cd(monkeypatch, 0.3)
    out = tmp_path / "path.json"
    rc = main(["path", "--input", str(data_csv), "--alpha-grid", "0.5,0.3",
               "--output", str(out)])
    assert rc == 0
    capsys.readouterr()
    good, bad = _strict_json(out.read_text())
    assert bad["beta_hat"] is None and bad["hazard"] is None
    assert bad["diagnostics"]["final_err"] is None
    assert bad["diagnostics"]["stop_reason"] == "diverged"
    # the converged point's record is that of a plain fit
    data = SurvivalDataset.from_csv(data_csv)
    pen = ElasticNetPenalty.from_strength(0.5 / 0.75, 0.75)
    want = fit_cd(data, pen).to_record(pen)
    for rec in (good, want):
        del rec["diagnostics"]["seconds"]
    assert good["diagnostics"].pop("start") == "cold"
    assert good == json.loads(json.dumps(want))


def test_cli_estimate_needs_one_fit_record(tmp_path, capsys, monkeypatch):
    # a path list, a diverged record, a record whose penalty is not the
    # four weights, or four weights that disagree, a number read back that
    # is not finite, or an integer beyond float range, or a file that is no
    # JSON, is a usage error naming the file, not a traceback, a failed
    # estimate or a null
    data_csv = tmp_path / "d.csv"
    main(["generate", "--p", "100", "--nu", "0.05", "--seed", "6",
          "--output", str(data_csv)])
    path_json = tmp_path / "path.json"
    main(["path", "--input", str(data_csv), "--alpha-grid", "0.5,0.4",
          "--output", str(path_json)])
    _flaky_cd(monkeypatch, 0.4)
    diverged_json = tmp_path / "diverged.json"
    main(["path", "--input", str(data_csv), "--alpha-grid", "0.4",
          "--output", str(diverged_json)])
    diverged_json.write_text(json.dumps(_strict_json(
        diverged_json.read_text())[0]))
    cases = [(path_json, "single record from `coxfield fit`"),
             (diverged_json, "single record from `coxfield fit`")]
    for i, penalty in enumerate(({"alpha": 0.3}, [1, 2])):
        bad_json = tmp_path / f"pen{i}.json"
        bad_json.write_text(json.dumps(
            {**_strict_json(path_json.read_text())[0], "penalty": penalty}))
        cases.append((bad_json, "penalty must be an object with keys "
                                "alpha, eta, rho, l1_ratio"))
    # where the latest risk sets underflow the hazard's levels are +inf: the
    # first one's jump is +inf (null on disk), the repeated one's 0
    pen = ElasticNetPenalty.from_strength(0.5 / 0.75, 0.75)
    fit = fit_cd(SurvivalDataset.from_csv(data_csv), pen)
    values = fit.hazard.values.copy()
    values[-2:] = np.inf
    rec = replace(fit, hazard=StepHazard(fit.hazard.knots,
                                         values)).to_record(pen)
    assert rec["hazard"]["jumps"][-2:] == [np.inf, 0.0]
    null_json, inf_json = tmp_path / "null.json", tmp_path / "inf.json"
    with open(null_json, "w", encoding="utf-8") as fh:
        write_json(fh, rec)
    assert _strict_json(null_json.read_text())["hazard"]["jumps"][-2:] == [
        None, 0.0]
    inf_json.write_text(json.dumps(rec))  # the Infinity token json reads
    for bad_json in (null_json, inf_json):
        cases.append((bad_json, f"{bad_json}: hazard jumps must be a list of "
                                "finite numbers"))
    # a fit of another dataset: beta_hat of another length than the data's
    # p, and so a sidecar whose beta0 is of another length
    first = _strict_json(path_json.read_text())[0]
    good_json, short_json = tmp_path / "good.json", tmp_path / "short.json"
    good_json.write_text(json.dumps(first))
    short_json.write_text(json.dumps({**first,
                                      "beta_hat": first["beta_hat"][:-1]}))
    cases.append((short_json, f"{short_json}: beta_hat has length 99, but "
                              f"{data_csv} has p = 100"))
    # beta_hat with a null (NaN once read), +-Infinity or an integer past
    # float range in it, and tau or tau_hat of an AMP record that is a
    # string, not finite or such an integer
    amp_json = tmp_path / "amp.json"
    assert main(["fit", "--input", str(data_csv), "--solver", "amp",
                 "--alpha", "0.5", "--output", str(amp_json)]) == 0
    amp = _strict_json(amp_json.read_text())
    huge = int("9" * 400)
    bad = [(first, "beta_hat", first["beta_hat"][:-1] + [value],
            "a list of finite numbers")
           for value in (None, np.inf, -np.inf, huge)]
    bad += [(amp, key, value, "a finite number") for key in ("tau", "tau_hat")
            for value in ("1.0e0x", np.inf, [amp[key]], huge)]
    # an AMP record whose eta was edited, so that (alpha, eta) and (rho,
    # l1_ratio) disagree
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps({**amp, "penalty": {**amp["penalty"],
                                                     "eta": 5.0}}))
    cases.append((edited, f"{edited}: penalty must be an object with keys "
                          "alpha, eta, rho, l1_ratio"))
    # a fit record, or a sidecar, that is no JSON
    text = tmp_path / "text.json"
    text.write_text("beta_hat = 0\n")
    cases.append((text, f"{text}: not JSON"))
    for i, (rec, key, value, kind) in enumerate(bad):
        bad_json = tmp_path / f"bad{i}.json"
        bad_json.write_text(json.dumps({**rec, key: value}))
        cases.append((bad_json, f"{bad_json}: {key} must be {kind}"))
    # a record of the wrong shape: null diagnostics, a list as the hazard,
    # a string as converged (truthy, so it once passed as a converged fit)
    # or among the hazard's jumps
    diag, hazard = first["diagnostics"], first["hazard"]
    shapes = [({**first, "diagnostics": None}, "diagnostics must be an object"),
              ({**first, "hazard": [hazard]}, "hazard must be an object"),
              ({**first, "diagnostics": {**diag, "converged": "false"}},
               "converged must be true or false"),
              ({**first, "hazard": {**hazard, "jumps": ["0.1x"]}},
               "hazard jumps must be a list of finite numbers")]
    # a missing key; epochs or final_err a string; a bool as tau (a bool is
    # no number); a scalar knots and jumps pair, lists of two lengths, or
    # finite jumps whose sum overflows
    shapes += [({k: v for k, v in first.items() if k != key},
                f"{key} must be {kind}") for key, kind in (
        ("beta_hat", "a list of finite numbers"),
        ("penalty", "an object with keys alpha, eta, rho, l1_ratio"))]
    shapes += [({**first, "hazard": {"knots": hazard["knots"]}},
                "hazard jumps must be a list of finite numbers"),
               ({**first, "diagnostics": {**diag, "epochs": "x"}},
                "epochs must be an integer"),
               ({**first, "diagnostics": {**diag, "final_err": "x"}},
                "final_err must be a finite number"),
               ({**amp, "tau": True}, "tau must be a finite number or null"),
               ({**first, "hazard": {"knots": 1.0, "jumps": 1.0}},
                "hazard knots must be a list of finite numbers"),
               ({**first, "hazard": {**hazard, "jumps": hazard["jumps"][1:]}},
                "hazard must be a StepHazard: knots and values must be 1-d"),
               ({**first, "hazard": {**hazard, "jumps": hazard["jumps"][:-2]
                                     + [1.7e308, 1.7e308]}},
                "hazard must be an object of knots and finite-sum jumps")]
    for i, (rec, message) in enumerate(shapes):
        bad_json = tmp_path / f"shape{i}.json"
        bad_json.write_text(json.dumps(rec))
        cases.append((bad_json, f"{bad_json}: {message}"))
    # a sidecar whose beta0 is of another length, or holds a null
    side = _strict_json((tmp_path / "d.json").read_text())
    short_side = tmp_path / "short_side.json"
    short_side.write_text(json.dumps({**side, "beta0": side["beta0"][:-1]}))
    null_side = tmp_path / "null_side.json"
    null_side.write_text(json.dumps({**side,
                                     "beta0": [None] + side["beta0"][1:]}))
    # a sidecar that is no object, or has no beta0
    list_side, no_beta0 = tmp_path / "list_side.json", tmp_path / "no_beta0.json"
    list_side.write_text(json.dumps([side]))
    no_beta0.write_text(json.dumps({k: v for k, v in side.items()
                                    if k != "beta0"}))
    # a sidecar named on the command line that does not exist
    no_side = tmp_path / "no_side.json"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit_json, match in cases:
            rc = main(["estimate", "--fit", str(fit_json), "--data",
                       str(data_csv), "--output", str(tmp_path / "e.json")])
            assert rc == 1
            assert match in capsys.readouterr().err
        for side_json, match in (
                (short_side, f"{short_side}: beta0 has length 99, but "
                             f"{data_csv} has p = 100"),
                *((bad, f"{bad}: beta0 must be a list of finite numbers")
                  for bad in (null_side, list_side, no_beta0)),
                (text, f"{text}: not JSON"),
                (no_side, f"No such file or directory: '{no_side}'")):
            rc = main(["estimate", "--fit", str(good_json), "--data",
                       str(data_csv), "--sidecar", str(side_json),
                       "--output", str(tmp_path / "e.json")])
            assert rc == 1
            assert match in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()
    # the AMP record itself reads back, and estimates on both routes
    assert main(["estimate", "--fit", str(amp_json), "--data", str(data_csv),
                 "--output", str(tmp_path / "e.json")]) == 0
    assert _strict_json(capsys.readouterr().out)["routes"] == ["amp", "cd"]


def test_cli_defaults_are_the_library_defaults(tmp_path, capsys):
    from dataclasses import asdict

    from coxfield.rs import solve_rs_path

    data_csv = tmp_path / "d.csv"
    assert main(["generate", "--p", "80", "--nu", "0.05", "--seed", "4",
                 "--output", str(data_csv)]) == 0
    sidecar = _strict_json((tmp_path / "d.json").read_text())
    assert sidecar["generator"] == asdict(GeneratorSpec(zeta=2.0))

    fit_json = tmp_path / "fit.json"
    assert main(["fit", "--input", str(data_csv), "--alpha", "0.4",
                 "--output", str(fit_json)]) == 0
    back, pen = FitResult.from_record(_strict_json(fit_json.read_text()),
                                      fit_json)
    want = fit_cd(SurvivalDataset.from_csv(data_csv), pen)
    assert np.array_equal(back.beta_hat, want.beta_hat)
    assert np.array_equal(back.hazard.values, want.hazard.values)
    assert back.epochs == want.epochs

    rs_csv = tmp_path / "rs.csv"
    assert main(["rs-solve", "--zeta", "2", "--nu", "0.05", "--alpha-grid",
                 "0.5", "--output", str(rs_csv)]) == 0
    capsys.readouterr()
    pen = ElasticNetPenalty.from_strength(0.5 / 0.75, 0.75)
    (point,) = solve_rs_path([pen], 0.05, 1.0, 2.0, GeneratorSpec(zeta=2.0))
    row = rs_csv.read_text().splitlines()[1].split(",")
    assert [float(x) for x in row[1:7]] == point[0].as_array().tolist()


def test_cli_rejects_non_finite_covariate(tmp_path, capsys):
    # a NaN in the design is a usage error (exit 1), not a solver failure
    rng = np.random.default_rng(1)
    data_csv = tmp_path / "nan.csv"
    SurvivalDataset(rng.uniform(0.5, 1.5, 30), np.ones(30),
                    rng.normal(0, 0.3, (30, 4))).to_csv(data_csv)
    lines = data_csv.read_text().splitlines()
    row = lines[5].split(",")
    row[3] = "nan"
    lines[5] = ",".join(row)
    data_csv.write_text("\n".join(lines) + "\n")
    for solver in ("amp", "cd"):
        rc = main(["fit", "--input", str(data_csv), "--solver", solver,
                   "--alpha", "0.4", "--output", str(tmp_path / "f.json")])
        assert rc == 1
        assert "design must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["amp", "cd"])
def test_fit_record_roundtrip_keeps_hazard(tmp_path, solver):
    # the JSON stores the hazard's jumps; loading sums them back to the
    # fitted values bit for bit
    sig = SignalSpec(p=120, nu=0.05, theta0=1.0, seed=8)
    data, _ = generate_dataset(sig, GeneratorSpec(zeta=2.0), seed=8)
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.45, 0.35, 0.3)]
    for pen, fit in zip(pens, reg_path(data, pens, solver)):
        path = tmp_path / f"{solver}.json"
        path.write_text(json.dumps(fit.to_record(pen)))
        back, back_pen = FitResult.from_record(json.loads(path.read_text()),
                                               path)
        assert back_pen == pen
        assert np.array_equal(back.beta_hat, fit.beta_hat)
        assert np.array_equal(back.hazard.knots, fit.hazard.knots)
        assert np.array_equal(back.hazard.values, fit.hazard.values)
        # the record carries the fit's diagnostics, CD's screen count too
        diag = json.loads(path.read_text())["diagnostics"]
        assert diag["stop_reason"] == fit.diagnostics["stop_reason"]
        if solver == "cd":
            assert diag["screened_coordinates"] == fit.diagnostics[
                "screened_coordinates"] > 0


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "coxfield.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "rs-solve" in proc.stdout
