import numpy as np
import pytest

from coxfield.prox import ElasticNetPenalty, prox_g
from coxfield.solvers import (FitDivergedError, SolverConfig, fit_amp, fit_cd,
                              reg_path)
from coxfield.survival import SurvivalDataset, nelson_aalen
from coxfield.synthgen import GeneratorSpec, SignalSpec, generate_dataset
from oracles import ppl_gradient, prox_gradient_minimizer


def _instance(p, zeta, nu, seed, theta0=1.0):
    sig = SignalSpec(p=p, nu=nu, theta0=theta0, seed=seed)
    return generate_dataset(sig, GeneratorSpec(zeta=zeta), seed=seed)


def _all_censored(n=20, p=6, seed=0):
    rng = np.random.default_rng(seed)
    return SurvivalDataset(rng.uniform(0.5, 1.5, n), np.zeros(n),
                           rng.normal(0, 0.3, (n, p)))


PEN = ElasticNetPenalty.from_strength(0.3, 0.75)


def test_all_censored_fixed_point():
    data = _all_censored()
    with pytest.warns(UserWarning):
        ra = fit_amp(data, PEN)
    with pytest.warns(UserWarning):
        rc = fit_cd(data, PEN)
    for res in (ra, rc):
        assert res.converged and res.epochs <= 2
        assert np.array_equal(res.beta_hat, np.zeros(data.p))
        assert res.hazard.knots.size == 0


def test_tiny_instances_match_oracle():
    # heavy damping: at p = 2 the active-set average is discrete and the
    # default 0.5 can cycle when a coordinate sits at the threshold
    cfg = SolverConfig(damping=0.1, max_epochs=20000)
    for seed in range(1, 5):
        data, _ = _instance(p=2, zeta=1.0 / 15.0, nu=0.5, seed=seed)
        assert data.n == 30
        pen = ElasticNetPenalty.from_strength(0.08, 0.75)
        oracle = prox_gradient_minimizer(data, pen)
        for fit in (fit_amp, fit_cd):
            res = fit(data, pen, cfg=cfg)
            assert res.converged
            assert np.max(np.abs(res.beta_hat - oracle)) <= 1e-6


def test_cd_kkt_residual():
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    res = fit_cd(data, PEN)
    assert res.converged
    grad = ppl_gradient(data, res.beta_hat)
    beta = res.beta_hat
    nz = beta != 0
    assert np.max(np.abs(grad[nz] + PEN.eta * beta[nz]
                         + PEN.alpha * np.sign(beta[nz]))) <= 1e-6
    if np.any(~nz):
        assert np.max(np.abs(grad[~nz])) <= PEN.alpha + 1e-6


def test_amp_fixed_point_identity():
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=4)
    res = fit_amp(data, PEN)
    assert res.converged
    lamT = res.hazard.evaluate(data.times)
    lhs = prox_g(res.xi, lamT, data.events, res.tau)
    assert np.max(np.abs(lhs - data.design @ res.beta_hat)) <= 10 * 1e-8


def test_solvers_deterministic():
    data, _ = _instance(p=60, zeta=2.0, nu=0.1, seed=5)
    for fit in (fit_amp, fit_cd):
        a = fit(data, PEN)
        b = fit(data, PEN)
        assert np.array_equal(a.beta_hat, b.beta_hat)
        assert a.epochs == b.epochs and a.final_err == b.final_err


def test_amp_cd_agreement_moderate():
    data, _ = _instance(p=300, zeta=2.0, nu=0.02, seed=6)
    ra = fit_amp(data, PEN)
    rc = fit_cd(data, PEN, cfg=SolverConfig(max_epochs=400))
    assert ra.converged and rc.converged
    rel = np.linalg.norm(ra.beta_hat - rc.beta_hat) / np.linalg.norm(rc.beta_hat)
    assert rel <= 1e-4
    assert np.array_equal(ra.beta_hat != 0, rc.beta_hat != 0)


def test_cd_full_shrinkage():
    data, _ = _instance(p=40, zeta=2.0, nu=0.1, seed=7)
    big = ElasticNetPenalty.from_strength(50.0, 0.75)
    res = fit_cd(data, big)
    assert res.converged
    assert np.array_equal(res.beta_hat, np.zeros(40))


def test_reg_path_single_point_equals_direct():
    data, _ = _instance(p=60, zeta=2.0, nu=0.1, seed=8)
    direct = fit_cd(data, PEN)
    path = reg_path(data, [PEN], "cd")
    assert np.array_equal(path[0].beta_hat, direct.beta_hat)


def test_reg_path_requires_decreasing_strength():
    data, _ = _instance(p=30, zeta=2.0, nu=0.1, seed=9)
    pens = [ElasticNetPenalty.from_strength(r, 0.75) for r in (0.1, 0.5)]
    with pytest.raises(ValueError):
        reg_path(data, pens, "cd")
    with pytest.raises(ValueError):
        reg_path(data, [PEN], "bogus")


def test_reg_path_support_growth():
    data, _ = _instance(p=200, zeta=2.0, nu=0.02, seed=10)
    alphas = np.geomspace(0.8, 0.15, 7)
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75) for a in alphas]
    fits = reg_path(data, pens, "cd", cfg=SolverConfig(max_epochs=500))
    sizes = [np.count_nonzero(f.beta_hat) for f in fits if f.converged]
    assert len(sizes) >= 5
    grow = sum(1 for a, b in zip(sizes, sizes[1:]) if b >= a)
    assert grow >= (len(sizes) - 1) / 2


def test_weak_regularization_flags_not_hangs():
    # past the existence threshold the estimate diverges; the path must
    # carry a non-convergence flag (or a recorded divergence), not loop
    data, _ = _instance(p=120, zeta=3.0, nu=0.05, seed=11)
    pens = [ElasticNetPenalty.from_strength(r, 0.75) for r in (0.05, 1e-4)]
    cfg = SolverConfig(max_epochs=250)
    for solver in ("amp", "cd"):
        fits = reg_path(data, pens, solver, cfg=cfg)
        assert not fits[-1].converged


def test_amp_warm_start_uses_init():
    data, _ = _instance(p=80, zeta=2.0, nu=0.05, seed=12)
    cold = fit_amp(data, PEN)
    warm = fit_amp(data, PEN, init=cold)
    assert warm.converged
    assert warm.epochs <= cold.epochs
    assert np.linalg.norm(warm.beta_hat - cold.beta_hat) <= 1e-6


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=1.5)


def test_solver_config_max_epochs():
    # zero used to fall through to the per-solver default
    for bad in (0, -1):
        with pytest.raises(ValueError):
            SolverConfig(max_epochs=bad)
    data, _ = _instance(p=80, zeta=2.0, nu=0.05, seed=12)
    cfg = SolverConfig(max_epochs=1)
    for fit in (fit_amp(data, PEN, cfg=cfg), fit_cd(data, PEN, cfg=cfg)):
        assert fit.epochs == 1 and not fit.converged
