import numpy as np
import pytest

from coxfield.synthgen import (GeneratorSpec, SignalSpec,
                               _sample_times_given_eta, generate_dataset,
                               sample_design, sample_observations,
                               sample_signal)


def test_signal_norm_constraint():
    for seed in range(4):
        spec = SignalSpec(p=500, nu=0.1, theta0=1.3, seed=seed)
        beta0 = sample_signal(spec)
        assert beta0 @ beta0 / spec.p == pytest.approx(1.3 ** 2, rel=1e-12)


def test_signal_dense_case():
    spec = SignalSpec(p=64, nu=1.0, theta0=0.7, seed=1)
    beta0 = sample_signal(spec)
    assert np.count_nonzero(beta0) == 64
    assert beta0 @ beta0 / 64 == pytest.approx(0.49, rel=1e-12)


def test_signal_paper_sparsity_count():
    spec = SignalSpec(p=2000, nu=0.005, theta0=1.0, seed=3)
    assert spec.s == 10
    assert np.count_nonzero(sample_signal(spec)) == 10


def test_signal_determinism_and_validation():
    spec = SignalSpec(p=100, nu=0.2, theta0=1.0, seed=11)
    assert np.array_equal(sample_signal(spec), sample_signal(spec))
    with pytest.raises(ValueError):
        SignalSpec(p=100, nu=0.0, theta0=1.0, seed=0)
    with pytest.raises(ValueError):
        SignalSpec(p=100, nu=1.2, theta0=1.0, seed=0)
    for bad in ({"nu": np.nan}, {"theta0": np.nan}, {"theta0": np.inf}):
        with pytest.raises(ValueError):
            SignalSpec(**{"p": 100, "nu": 0.2, "theta0": 1.0, "seed": 0, **bad})
    with pytest.raises(ValueError, match="p must be positive"):
        SignalSpec(p=0, nu=0.2, theta0=1.0, seed=0)
    for bad in (60.5, True):
        with pytest.raises(ValueError, match="p must be an int"):
            SignalSpec(p=bad, nu=0.2, theta0=1.0, seed=0)
    for name, bad in (("seed", 1.5), ("nu", "0.1")):
        with pytest.raises(ValueError, match=f"'{name}'"):
            SignalSpec(**{"p": 100, "nu": 0.2, "theta0": 1.0, "seed": 0,
                          name: bad})


def test_design_moments_and_determinism():
    n, p = 1000, 1000
    X = sample_design(n, p, seed=4)
    sigma_mean = (1.0 / np.sqrt(p)) / np.sqrt(n * p)
    assert abs(X.mean()) <= 4.0 * sigma_mean
    assert X.var() == pytest.approx(1.0 / p, rel=0.05)
    assert np.array_equal(X, sample_design(n, p, seed=4))


def test_observation_bounds_and_determinism():
    gen = GeneratorSpec()
    X = sample_design(300, 60, seed=5)
    beta0 = sample_signal(SignalSpec(p=60, nu=0.2, theta0=1.0, seed=5))
    t1, d1 = sample_observations(X, beta0, gen, seed=6)
    t2, d2 = sample_observations(X, beta0, gen, seed=6)
    assert np.array_equal(t1, t2) and np.array_equal(d1, d2)
    assert np.all(t1 <= gen.tau2)
    assert np.all(t1 > 0)
    assert set(np.unique(d1)) <= {0.0, 1.0}


def test_degenerate_linear_predictor_all_censored():
    gen = GeneratorSpec()
    eta = np.full(200, -745.0)  # exp(-eta) overflows; latent times explode
    rng = np.random.default_rng(0)
    t, d = _sample_times_given_eta(eta, gen, rng)
    assert np.all(d == 0.0)
    assert np.all((gen.tau1 <= t) & (t <= gen.tau2))


def test_survival_inversion_closed_form():
    # phi0 = 0, rho0 = 1, eta = 0: S0(t) = 1/(1+t)
    gen = GeneratorSpec(phi0=0.0, rho0=1.0, tau1=50.0, tau2=100.0)
    rng = np.random.default_rng(21)
    n = 100_000
    t, d = _sample_times_given_eta(np.zeros(n), gen, rng)
    for point in (0.5, 1.0):
        s_true = 1.0 / (1.0 + point)
        s_emp = np.mean(t > point)
        sigma = np.sqrt(s_true * (1 - s_true) / n)
        assert abs(s_emp - s_true) <= 3.0 * sigma


def test_inversion_ks_statistic():
    gen = GeneratorSpec(tau1=50.0, tau2=100.0)  # censoring essentially off
    eta = 0.4
    n = 100_000
    rng = np.random.default_rng(22)
    t, d = _sample_times_given_eta(np.full(n, eta), gen, rng)
    cdf = 1.0 - np.exp(-gen.cumulative_hazard(np.sort(t)) * np.exp(eta))
    grid = (np.arange(1, n + 1)) / n
    ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1.0 / n))))
    assert ks <= 1.63 / np.sqrt(n)


def test_generate_dataset_shapes_and_censoring():
    sig = SignalSpec(p=200, nu=0.05, theta0=1.0, seed=7)
    gen = GeneratorSpec(zeta=2.0)
    data, beta0 = generate_dataset(sig, gen, seed=7)
    assert (data.n, data.p) == (100, 200)
    assert beta0.shape == (200,)
    frac = data.events.mean()
    assert 0.0 < frac < 1.0
    data2, beta0b = generate_dataset(sig, gen, seed=7)
    assert np.array_equal(data.times, data2.times)
    assert np.array_equal(beta0, beta0b)


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(tau1=2.0, tau2=1.0)
    with pytest.raises(ValueError):
        GeneratorSpec(rho0=-1.0)
    for bad in ({"rho0": np.nan}, {"rho0": np.inf}, {"phi0": np.nan},
                {"phi0": -np.inf}, {"tau1": np.nan}, {"tau2": np.inf},
                {"zeta": np.nan}):
        with pytest.raises(ValueError):
            GeneratorSpec(**bad)
    for name, bad in (("phi0", "x"), ("tau1", None)):
        with pytest.raises(ValueError, match=f"'{name}'"):
            GeneratorSpec(**{name: bad})
    gen = GeneratorSpec()
    ts = np.linspace(0.0, 5.0, 101)
    lam = gen.cumulative_hazard(ts)
    assert lam[0] == 0.0
    assert np.all(np.diff(lam) >= 0)
