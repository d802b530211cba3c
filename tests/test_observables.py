import subprocess
import sys

import numpy as np
import pytest

from coxfield import observables
from coxfield.observables import (EstimationError, estimate_from_amp,
                                  estimate_from_cd, estimate_tau_cd,
                                  true_overlaps)
from coxfield.prox import ElasticNetPenalty
from coxfield.solvers import FitResult, SolverConfig, fit_amp, fit_cd
from coxfield.survival import StepHazard, SurvivalDataset
from coxfield.synthgen import GeneratorSpec, SignalSpec, generate_dataset
from oracles import field_residual_moments, local_field

PEN = ElasticNetPenalty.from_strength(0.3 / 0.75, 0.75)


def _fit_pair(p=300, seed=1, nu=0.02):
    data, beta0 = generate_dataset(SignalSpec(p=p, nu=nu, theta0=1.0, seed=seed),
                                   GeneratorSpec(zeta=2.0), seed=seed)
    fa = fit_amp(data, PEN)
    fc = fit_cd(data, PEN, cfg=SolverConfig(max_epochs=400))
    return data, beta0, fa, fc


def test_true_overlaps_trivials():
    beta0 = np.array([3.0, 0.0, -4.0, 0.0])      # theta0 = ||b0||/sqrt(p) = 2.5
    w, v = true_overlaps(beta0, beta0)
    assert w == pytest.approx(2.5, rel=1e-15)
    assert v == 0.0
    w2, v2 = true_overlaps(2.0 * beta0, beta0)
    assert w2 == pytest.approx(5.0, rel=1e-15)
    assert v2 == 0.0
    orth = np.array([0.0, 1.0, 0.0, -2.0])
    w3, v3 = true_overlaps(orth, beta0)
    assert w3 == 0.0
    assert v3 == pytest.approx(np.linalg.norm(orth) / 2.0, rel=1e-15)
    with pytest.raises(ValueError):
        true_overlaps(beta0, np.zeros(4))


def test_true_overlaps_pythagoras():
    rng = np.random.default_rng(2)
    for _ in range(50):
        beta0 = rng.normal(size=20)
        beta = rng.normal(size=20)
        w, v = true_overlaps(beta, beta0)
        assert w * w + v * v == pytest.approx(beta @ beta / 20.0, rel=1e-12)


def test_local_field_trivials():
    rng = np.random.default_rng(3)
    data = SurvivalDataset(rng.uniform(0.5, 2, 15), np.zeros(15),
                           rng.normal(0, 0.3, (15, 4)))
    beta = rng.normal(size=4)
    empty = StepHazard(np.empty(0), np.empty(0))
    assert np.allclose(local_field(data, beta, empty, 2.0), beta)
    data_ev = SurvivalDataset(data.times, np.ones(15), data.design)
    hz = StepHazard(np.array([0.1]), np.array([0.7]))
    assert np.allclose(local_field(data_ev, beta, hz, 0.0), beta)


def _assert_w_hat_is_field_moment(psi, est):
    # w_hat^2 = ||psi||^2 / p - v_hat^2 wherever the estimate leaves it
    # unclipped, with psi formed by the oracle rather than the estimator
    if est.w_hat > 0.0:
        moment = np.sum(psi ** 2) / psi.size
        assert moment - est.v_hat ** 2 == pytest.approx(
            est.w_hat ** 2, rel=1e-9, abs=1e-12 * moment)


def test_estimate_from_amp_internal_identity():
    data, beta0, fa, _ = _fit_pair()
    est = estimate_from_amp(data, fa, 2.0)
    assert est.w_hat > 0.0
    _assert_w_hat_is_field_moment(
        local_field(data, fa.beta_hat, fa.hazard, fa.tau_hat), est)
    assert est.provenance == "amp"
    assert est.w_valid and est.v_valid
    assert est.failing_step() is None
    assert est.w ** 2 + est.v ** 2 == pytest.approx(est.diagnostics["A"],
                                                    rel=1e-12)
    # the curvature-based variant is a different estimator (the score/
    # information identity only holds at the truth); same order suffices
    assert np.isfinite(est.v_hat_alt) and est.v_hat_alt > 0
    assert 0.2 <= est.v_hat_alt / est.v_hat <= 5.0


def test_estimate_is_an_order_parameters():
    # one type carries the six scalars of the RS solution and of the
    # estimate; the estimate adds its route and v_hat_alt, and reads its
    # validity from NaN
    import dataclasses

    from coxfield.observables import OrderParameterEstimate
    from coxfield.rs import OrderParameters

    data, _, fa, _ = _fit_pair(p=120, seed=4)
    est = estimate_from_amp(data, fa, 2.0)
    assert isinstance(est, OrderParameters)
    assert est.as_array().tolist() == [getattr(est, f)
                                       for f in OrderParameters.NAMES]
    assert set(OrderParameterEstimate.__annotations__) == {"provenance",
                                                           "v_hat_alt"}
    assert "as_array" not in vars(OrderParameterEstimate)
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.w = 0.0
    six = dict(zip(OrderParameters.NAMES, est.as_array()))
    for w, v, valid in ((1.0, np.nan, (True, False)),
                        (np.nan, np.nan, (False, False)),
                        (0.0, 2.0, (True, True))):
        other = OrderParameterEstimate(**{**six, "w": w, "v": v},
                                       provenance="cd")
        assert (other.w_valid, other.v_valid) == valid


def test_estimate_requires_amp_scalars_and_convergence():
    data, _, fa, fc = _fit_pair(p=120, seed=4)
    with pytest.raises(EstimationError):
        estimate_from_amp(data, fc, 2.0)     # CD fit has no tau
    bad = FitResult(beta_hat=fa.beta_hat, hazard=fa.hazard, converged=False,
                    epochs=1, final_err=1.0, xi=fa.xi, tau=fa.tau,
                    tau_hat=fa.tau_hat)
    with pytest.raises(EstimationError):
        estimate_from_amp(data, bad, 2.0)


def test_estimate_tau_cd_constant_curvature_oracle():
    # zero design makes g_ddot identically Lambda(T) = c; the scalar
    # equation collapses to a quadratic solved independently here
    n, p, c, zeta = 50, 10, 0.8, 0.2
    rng = np.random.default_rng(5)
    data = SurvivalDataset(rng.uniform(1.0, 2.0, n), np.ones(n),
                           np.zeros((n, p)))
    beta = np.zeros(p)
    beta[:3] = [0.5, -0.2, 0.1]
    hz = StepHazard(np.array([0.5]), np.array([c]))
    fit = FitResult(beta_hat=beta, hazard=hz, converged=True, epochs=1,
                    final_err=0.0)
    k = 3 / p
    pen = ElasticNetPenalty.from_strength(0.4, 0.5)
    roots = np.roots([zeta * pen.eta * c,
                      zeta * pen.eta + c - zeta * k * c,
                      -zeta * k])
    algebraic = [r for r in roots if 0 < r.real < k / pen.eta and abs(r.imag) < 1e-12]
    assert len(algebraic) == 1
    tau_n, tau_hat_n = estimate_tau_cd(data, fit, pen, zeta)
    assert tau_n == pytest.approx(float(algebraic[0].real), rel=1e-10)
    assert tau_hat_n == pytest.approx(tau_n / (k - pen.eta * tau_n), rel=1e-12)


def test_estimate_tau_cd_scalar_equation_residuals():
    data, _, _, fc = _fit_pair(p=200, seed=6)
    tau_n, tau_hat_n = estimate_tau_cd(data, fc, PEN, 2.0)
    beta = fc.beta_hat
    k = np.count_nonzero(beta) / data.p
    lp = data.design @ beta
    gdd = fc.hazard.evaluate(data.times) * np.exp(lp)
    r1 = tau_n / tau_hat_n - k / (1.0 + PEN.eta * tau_hat_n)
    assert abs(r1) <= 1e-8
    r2 = 2.0 * tau_n / tau_hat_n - np.mean(tau_n * gdd / (1.0 + tau_n * gdd))
    assert abs(r2) <= 1e-8


def test_estimate_tau_cd_lasso_bracket_and_errors(monkeypatch):
    data, _, _, fc = _fit_pair(p=200, seed=7)
    lasso = ElasticNetPenalty.from_strength(0.35, 1.0)
    fl = fit_cd(data, lasso, cfg=SolverConfig(max_epochs=400))
    assert fl.converged
    k = np.count_nonzero(fl.beta_hat) / data.p
    assert 2.0 * k < 1.0          # root exists for the lasso only if so
    tau_n, tau_hat_n = estimate_tau_cd(data, fl, lasso, 2.0)
    assert tau_n > 0 and tau_hat_n > 0

    # null model
    null_fit = FitResult(beta_hat=np.zeros(data.p), hazard=fl.hazard,
                         converged=True, epochs=1, final_err=0.0)
    with pytest.raises(EstimationError, match="null model"):
        estimate_tau_cd(data, null_fit, lasso, 2.0)

    # no sign change: make zeta * k exceed the curvature supremum (= 1)
    dense = FitResult(beta_hat=np.ones(data.p), hazard=fl.hazard,
                      converged=True, epochs=1, final_err=0.0)
    with pytest.raises(EstimationError, match="no sign change"):
        estimate_tau_cd(data, dense, lasso, zeta=2.0)

    # Newton steps cut short of the root
    monkeypatch.setattr(observables, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(EstimationError, match="did not settle in 1 steps"):
        estimate_tau_cd(data, fl, lasso, 2.0)


@pytest.mark.parametrize("p, seed, l1_ratio", [(200, 6, 0.75), (200, 7, 1.0),
                                               (300, 12, 0.5)])
def test_estimate_tau_cd_matches_brentq(p, seed, l1_ratio):
    # the Newton root against scipy's bracketed root-finder on the same
    # scalar equation, elastic net and lasso
    from scipy.optimize import brentq
    data, _ = generate_dataset(SignalSpec(p=p, nu=0.02, theta0=1.0, seed=seed),
                               GeneratorSpec(zeta=2.0), seed=seed)
    pen = ElasticNetPenalty.from_strength(0.3 / l1_ratio, l1_ratio)
    fit = fit_cd(data, pen, cfg=SolverConfig(max_epochs=400))
    assert fit.converged
    k = np.count_nonzero(fit.beta_hat) / data.p
    gdd = fit.hazard.evaluate(data.times) * np.exp(data.design @ fit.beta_hat)

    def f(t):
        return 2.0 * (k - pen.eta * t) - np.mean(t * gdd / (1.0 + t * gdd))

    hi = k / pen.eta if pen.eta > 0 else 1.0
    while f(hi) > 0.0:
        hi *= 2.0
    want = brentq(f, 0.0, hi, xtol=1e-14, rtol=8.9e-16)
    tau_n, tau_hat_n = estimate_tau_cd(data, fit, pen, 2.0)
    assert tau_n == pytest.approx(want, rel=1e-12)
    assert tau_hat_n == tau_n / (k - pen.eta * tau_n)


def test_estimate_from_cd_imports_no_scipy_optimize(tmp_path):
    # coxfield runs on numpy alone: a fresh interpreter that fits with both
    # solvers, estimates from both fits, solves an RS path, runs a tiny
    # experiment and rs-solve has loaded no scipy module at all
    code = (
        "import contextlib, io, sys\n"
        "from coxfield import cli\n"
        "from coxfield.experiment import ExperimentConfig, run_experiment\n"
        "from coxfield.observables import estimate_from_amp, estimate_from_cd\n"
        "from coxfield.prox import ElasticNetPenalty\n"
        "from coxfield.rs import solve_rs_path\n"
        "from coxfield.solvers import fit_amp, fit_cd\n"
        "from coxfield.synthgen import GeneratorSpec, SignalSpec, generate_dataset\n"
        "out = sys.argv[1]\n"
        "gen = GeneratorSpec(zeta=2.0)\n"
        "sig = SignalSpec(p=120, nu=0.05, theta0=1.0, seed=3)\n"
        "data, _ = generate_dataset(sig, gen, seed=3)\n"
        "pen = ElasticNetPenalty.from_strength(0.4, 0.75)\n"
        "amp = estimate_from_amp(data, fit_amp(data, pen), 2.0)\n"
        "cd = estimate_from_cd(data, fit_cd(data, pen), pen, 2.0)\n"
        "rs = solve_rs_path([pen], 0.1, 1.0, 2.0, gen, n_pop=600, seed=2)\n"
        "cfg = ExperimentConfig(p=60, nu=0.1, pen_grid=[(0.5, 0.75)],\n"
        "                       repetitions=1, pop_size=400,\n"
        "                       output_dir=out + '/exp')\n"
        "run_experiment(cfg, workers=1)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['rs-solve', '--zeta', '2', '--nu', '0.1', '--seed',\n"
        "                   '2', '--alpha-grid', '0.5', '--pop-size', '600',\n"
        "                   '--output', out + '/rs.csv'])\n"
        "print(amp.tau > 0, cd.tau > 0, rs[0] is not None, rc,\n"
        "      [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True", "0", "[]"]
    assert (tmp_path / "exp" / "table.csv").exists()


def test_estimate_from_cd_propagates_null_model():
    data, _, _, fc = _fit_pair(p=120, seed=8)
    null_fit = FitResult(beta_hat=np.zeros(data.p), hazard=fc.hazard,
                         converged=True, epochs=1, final_err=0.0)
    with pytest.raises(EstimationError):
        estimate_from_cd(data, null_fit, PEN, 2.0)
    unconv = FitResult(beta_hat=fc.beta_hat, hazard=fc.hazard,
                       converged=False, epochs=1, final_err=1.0)
    with pytest.raises(EstimationError):
        estimate_from_cd(data, unconv, PEN, 2.0)


def test_all_censored_estimation_error():
    rng = np.random.default_rng(9)
    data = SurvivalDataset(rng.uniform(0.5, 2, 30), np.zeros(30),
                           rng.normal(0, 0.2, (30, 10)))
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_amp(data, PEN)
    with pytest.raises(EstimationError, match="all-censored"):
        estimate_from_amp(data, fit, zeta=10.0 / 30.0)


def test_amp_and_cd_estimates_agree_on_shared_data():
    data, beta0, fa, fc = _fit_pair(p=400, seed=10)
    assert fa.converged and fc.converged
    ea = estimate_from_amp(data, fa, 2.0)
    ec = estimate_from_cd(data, fc, PEN, 2.0)
    assert np.allclose(ea.as_array(), ec.as_array(), rtol=2e-2)
    w_true, v_true = true_overlaps(fa.beta_hat, beta0)
    assert ea.w == pytest.approx(w_true, abs=0.35)
    assert ea.v == pytest.approx(v_true, abs=0.35)


def test_field_residual_gaussianity_at_scale():
    data, beta0, fa, _ = _fit_pair(p=2000, seed=11, nu=0.005)
    assert fa.converged
    est = estimate_from_amp(data, fa, 2.0)
    psi = local_field(data, fa.beta_hat, fa.hazard, fa.tau_hat)
    _assert_w_hat_is_field_moment(psi, est)
    skew, ex_kurt = field_residual_moments(psi, beta0, 1.0, est.w_hat)
    assert abs(skew) <= 0.2
    assert abs(ex_kurt) <= 0.5
