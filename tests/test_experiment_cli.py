import json
import os
import subprocess
import sys

import numpy as np
import pytest

from coxfield import experiment
from coxfield.cli import _fit_record, _load_fit, main
from coxfield.experiment import ExperimentConfig, run_experiment
from coxfield.prox import ElasticNetPenalty
from coxfield.solvers import SolverConfig, reg_path
from coxfield.survival import SurvivalDataset
from coxfield.synthgen import GeneratorSpec, SignalSpec, generate_dataset


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
               ({"theta0": 0.0}, "theta0")]


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


@pytest.mark.parametrize("where", ["top", "gen", "solver_cfg"])
def test_experiment_config_rejects_unknown_keys(tmp_path, where):
    raw = _tiny_config(tmp_path, solver_cfg=SolverConfig()).to_jsonable()
    (raw if where == "top" else raw[where])["bogus_key"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="bogus_key"):
        ExperimentConfig.from_json(path)


def test_cli_experiment_misspelled_key(tmp_path, capsys):
    # a usage error (exit 1) naming the key, not a TypeError traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"repetitons": 3}))
    assert main(["experiment", "--config", str(path)]) == 1
    assert "repetitons" in capsys.readouterr().err
    path.write_text(json.dumps({"gen": [2.0]}))
    assert main(["experiment", "--config", str(path)]) == 1
    assert "gen must be a JSON object" in capsys.readouterr().err


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
        rec = report["raw"][i][solver][r]
        assert rec == {"converged": False, "estimate": None, "true_w": None,
                       "true_v": None, "rscv": None, "test_c": None}
    for row, count, point in zip(report["rows"], report["counts"],
                                 report["raw"]):
        for solver, recs in point.items():
            n_conv = sum(rec["converged"] for rec in recs)
            assert row[f"{solver}_n_converged"] == n_conv
            assert count[f"{solver}_test_c_mean"] == n_conv


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
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk["counts"] == report["counts"]


def test_failures_list_invalid_estimates(tmp_path):
    # the strong penalties give null AMP fits whose (w, v) estimates are
    # invalid: one failure each, after the fit's place in the order
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
    order = [(f["repetition"], cfg.solvers.index(f["solver"]), f["grid_index"])
             for f in report["failures"]]
    assert order == sorted(order)


@pytest.mark.parametrize("bad, key", [
    ({"p": "500"}, "p"), ({"nu": "0.1"}, "nu"), ({"keep_raw": "yes"}, "keep_raw"),
    ({"repetitions": True}, "repetitions"),
    ({"solver_cfg": {"max_epochs": 2.5}}, "max_epochs"),
    ({"gen": {"phi0": "x"}}, "phi0"), ({"pen_grid": [["0.5", 0.75]]}, "pen_grid")])
def test_cli_experiment_rejects_wrong_value_types(tmp_path, capsys, bad, key):
    # a usage error (exit 1) naming the key, not a traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad))
    assert main(["experiment", "--config", str(path)]) == 1
    assert f"'{key}'" in capsys.readouterr().err


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
    {"keep_raw": True, "solver_cfg": SolverConfig(max_epochs=3)},
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
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
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
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
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
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--workers", str(workers),
              "--output", str(tmp_path / "cli")])
    assert exc.value.code == 1
    assert "--workers: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


def test_cli_generate_fit_estimate_roundtrip(tmp_path, capsys):
    data_csv = tmp_path / "d.csv"
    rc = main(["generate", "--p", "240", "--zeta", "2", "--nu", "0.05",
               "--seed", "5", "--output", str(data_csv)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n"] == 120 and summary["p"] == 240
    assert (tmp_path / "d.json").exists()

    fit_json = tmp_path / "fit.json"
    rc = main(["fit", "--input", str(data_csv), "--solver", "amp",
               "--alpha", "0.4", "--l1-ratio", "0.75",
               "--output", str(fit_json)])
    assert rc == 0
    fit_summary = json.loads(capsys.readouterr().out)
    assert fit_summary["converged"]
    rec = json.loads(fit_json.read_text())
    assert {"beta_hat", "hazard", "tau", "tau_hat", "diagnostics"} <= set(rec)
    assert rec["diagnostics"]["stop_reason"] == "tol"
    assert rec["diagnostics"]["seconds"] > 0.0
    assert len(rec["hazard"]["knots"]) == len(rec["hazard"]["jumps"])

    est_json = tmp_path / "est.json"
    rc = main(["estimate", "--fit", str(fit_json), "--data", str(data_csv),
               "--output", str(est_json)])
    assert rc == 0
    est = json.loads(est_json.read_text())
    assert set(est["estimates"]) == {"amp", "cd"}
    assert "true_overlaps" in est           # sidecar picked up implicitly
    amp_est = est["estimates"]["amp"]
    assert amp_est["w_valid"] and amp_est["v_valid"]


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
    records = json.loads(out.read_text())
    assert len(records) == 3
    assert all(r["diagnostics"]["stop_reason"] == "tol" for r in records)
    capsys.readouterr()

    rs_csv = tmp_path / "rs.csv"
    rc = main(["rs-solve", "--zeta", "2", "--nu", "0.05", "--alpha-grid",
               "0.5,0.4", "--pop-size", "800", "--seed", "2",
               "--output", str(rs_csv)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    lines = rs_csv.read_text().splitlines()
    assert lines[0] == "alpha,w,v,tau,w_hat,v_hat,tau_hat,converged"
    assert len(lines) == 3
    converged = [line.endswith(",1") for line in lines[1:]]
    assert [it is not None for it in summary["iterations"]] == converged
    assert all(it >= 1 for it in summary["iterations"] if it is not None)


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
        "0.5,0.21896341768852456,0.41063565916889555,0.7243902121571562,"
        "0.9805217065069283,2.439844969997716,6.003671157370818,1\n"
        "0.2,0.4975620005785353,1.0745611882148949,3.325557419954354,"
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
    summary = json.loads(capsys.readouterr().out)
    assert summary["grid_points"] == 2
    assert summary["workers"] == 1 and summary["wall_s"] > 0.0
    assert (tmp_path / "expdir" / "table.csv").exists()
    assert (tmp_path / "expdir" / "report.json").exists()


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
    assert json.loads(capsys.readouterr().out)["repetitions"] == 20


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


def test_cli_fit_divergence_is_a_numerical_failure(tmp_path, capsys,
                                                   monkeypatch):
    # a solver that diverges gives exit 2 and writes no fit file
    from coxfield import solvers

    def diverge(*args, **kwargs):
        raise solvers.FitDivergedError("non-finite iterate")

    monkeypatch.setitem(solvers._SOLVERS, "cd", diverge)
    rng = np.random.default_rng(2)
    data_csv = tmp_path / "d.csv"
    SurvivalDataset(rng.uniform(0.5, 1.5, 30), np.ones(30),
                    rng.normal(0, 0.3, (30, 4))).to_csv(data_csv)
    fit_json = tmp_path / "f.json"
    rc = main(["fit", "--input", str(data_csv), "--solver", "cd",
               "--alpha", "0.4", "--output", str(fit_json)])
    assert rc == 2
    assert "numerical failure:" in capsys.readouterr().err
    assert not fit_json.exists()


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
        path.write_text(json.dumps(_fit_record(fit, pen)))
        back, back_pen = _load_fit(path)
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
