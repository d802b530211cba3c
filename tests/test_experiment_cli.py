import json
import subprocess
import sys

import numpy as np
import pytest

from coxfield.cli import main
from coxfield.experiment import ExperimentConfig, run_experiment
from coxfield.solvers import SolverConfig


def _tiny_config(tmp_path, **overrides):
    kwargs = dict(zeta=2.0, p=60, nu=0.1, theta0=1.0,
                  pen_grid=[(0.5, 0.75), (0.35, 0.75)], solver="both",
                  repetitions=2, base_seed=3, pop_size=400,
                  output_dir=str(tmp_path / "out"))
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        _tiny_config(tmp_path, repetitions=0)
    with pytest.raises(ValueError):
        _tiny_config(tmp_path, solver="nope")
    with pytest.raises(ValueError):
        _tiny_config(tmp_path, pen_grid=[(0.1, 0.75), (0.5, 0.75)])
    with pytest.raises(ValueError):
        _tiny_config(tmp_path, p=10)  # n < 10
    cfg = ExperimentConfig.paper_scale(output_dir=str(tmp_path))
    assert cfg.p == 2000 and cfg.repetitions == 20


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
    cfg = _tiny_config(tmp_path)
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_jsonable(), fh)
    back = ExperimentConfig.from_json(path)
    assert back.pen_grid == cfg.pen_grid
    assert back.gen == cfg.gen
    assert back.pop_size == cfg.pop_size


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


def test_cli_experiment_subcommand(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, output_dir=str(tmp_path / "expdir"))
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg.to_jsonable(), fh)
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["grid_points"] == 2
    assert (tmp_path / "expdir" / "table.csv").exists()
    assert (tmp_path / "expdir" / "report.json").exists()


def test_cli_experiment_paper_scale(tmp_path, capsys, monkeypatch):
    # the preset replaces p, repetitions and nu and keeps every other
    # field, with and without --config; the experiment itself is not run
    seen = []

    def fake_run(cfg):
        seen.append(cfg)
        return {"failures": []}

    monkeypatch.setattr("coxfield.cli.run_experiment", fake_run)
    out = str(tmp_path / "paper")
    assert main(["experiment", "--paper-scale", "--output", out]) == 0
    assert seen[-1] == ExperimentConfig(p=2000, repetitions=20, nu=0.005,
                                        output_dir=out)
    assert seen[-1] == ExperimentConfig.paper_scale(output_dir=out)
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
    # numerical failure: estimation undefined on an all-censored dataset
    data_csv = tmp_path / "cens.csv"
    import warnings
    from coxfield.survival import SurvivalDataset
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


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "coxfield.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "rs-solve" in proc.stdout
