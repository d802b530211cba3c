import numpy as np
import pytest

from coxfield.prox import (ElasticNetPenalty, cox_prox_bundle, cox_w, g_dot,
                           log_tau_lam, moreau_ddot_w, moreau_dot_g,
                           prox_enet, prox_enet_dot, prox_g)
from oracles import envelope_g, golden_prox_g, moreau_ddot_g

OMEGA = 0.5671432904097838


def _curvature(u, lam, delta, tau):
    # the envelope curvature as fit_amp forms it, from the Lambert factor
    return moreau_ddot_w(cox_w(u, tau * delta, log_tau_lam(lam, tau)), tau)


def test_g_and_derivatives_trivials():
    assert g_dot(0.0, 1.0, 1.0) == 0.0
    assert g_dot(1.0, 1.0, 0.0) == pytest.approx(np.e, rel=1e-15)


def test_prox_g_trivials():
    for u, tau in [(0.0, 1.0), (-2.5, 0.3), (4.0, 7.0)]:
        assert prox_g(u, 0.0, 0.0, tau) == u
    assert prox_g(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_prox_g_golden_section_oracle():
    # frozen: prox_g(0, 1, 0, 1) = -Omega; golden section resolves the
    # minimizer location only to ~sqrt(eps), hence the 1e-6 comparisons
    assert golden_prox_g(0.0, 1.0, 0.0, 1.0) == pytest.approx(-OMEGA, abs=1e-7)
    assert prox_g(0.0, 1.0, 0.0, 1.0) == pytest.approx(-OMEGA, abs=1e-13)
    rng = np.random.default_rng(42)
    for _ in range(25):
        u = rng.normal(0, 2)
        lam = rng.uniform(0, 4)
        delta = float(rng.integers(0, 2))
        tau = rng.uniform(0.05, 5)
        assert prox_g(u, lam, delta, tau) == pytest.approx(
            golden_prox_g(u, lam, delta, tau), abs=2e-6)


def test_prox_g_stationarity_bulk():
    rng = np.random.default_rng(7)
    n = 10_000
    u = rng.normal(0, 3, n)
    lam = rng.uniform(0, 5, n)
    delta = rng.integers(0, 2, n).astype(float)
    tau = rng.uniform(1e-3, 10, n)
    z = prox_g(u, lam, delta, tau)
    resid = np.abs((z - u) / tau + g_dot(z, lam, delta))
    assert resid.max() <= 1e-10


def test_prox_maps_nonexpansive():
    rng = np.random.default_rng(12)
    pen = ElasticNetPenalty.from_weights(0.7, 0.4)
    for _ in range(500):
        u1, u2 = rng.normal(0, 4, 2)
        lam = rng.uniform(0, 3)
        delta = float(rng.integers(0, 2))
        tau = rng.uniform(0.05, 4)
        d_prox = abs(prox_g(u1, lam, delta, tau) - prox_g(u2, lam, delta, tau))
        assert d_prox <= abs(u1 - u2) * (1 + 1e-12) + 1e-15
        d_enet = abs(prox_enet(u1, tau, pen) - prox_enet(u2, tau, pen))
        assert d_enet <= abs(u1 - u2) * (1 + 1e-12) + 1e-15


def test_moreau_trivials():
    assert moreau_dot_g(1.3, 0.0, 0.0, 2.0) == 0.0
    assert _curvature(1.3, 0.0, 0.0, 2.0) == 0.0
    assert moreau_dot_g(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert _curvature(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)
    # frozen: envelope finite differences at (0, 1, 0, 1)
    assert moreau_dot_g(0.0, 1.0, 0.0, 1.0) == pytest.approx(OMEGA, abs=1e-13)
    assert _curvature(0.0, 1.0, 0.0, 1.0) == pytest.approx(
        OMEGA / (1.0 + OMEGA), abs=1e-13)


def test_moreau_dot_matches_envelope_finite_difference():
    rng = np.random.default_rng(3)
    h = 1e-4
    for _ in range(20):
        u = rng.normal(0, 2)
        lam = rng.uniform(0.1, 3)
        delta = float(rng.integers(0, 2))
        tau = rng.uniform(0.2, 3)
        fd = (envelope_g(u + h, lam, delta, tau)
              - envelope_g(u - h, lam, delta, tau)) / (2 * h)
        val = moreau_dot_g(u, lam, delta, tau)
        assert val == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_moreau_ddot_matches_gradient_finite_difference():
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(20):
        u = rng.normal(0, 2)
        lam = rng.uniform(0.1, 3)
        delta = float(rng.integers(0, 2))
        tau = rng.uniform(0.2, 3)
        fd = (moreau_dot_g(u + h, lam, delta, tau)
              - moreau_dot_g(u - h, lam, delta, tau)) / (2 * h)
        val = _curvature(u, lam, delta, tau)
        assert val == pytest.approx(fd, rel=1e-5, abs=1e-9)
        assert 0.0 <= val < 1.0 / tau


def test_bundle_consistency():
    rng = np.random.default_rng(5)
    u = rng.normal(0, 2, 100)
    lam = rng.uniform(0, 3, 100)
    delta = rng.integers(0, 2, 100).astype(float)
    tau = 0.7
    z, md, mdd = cox_prox_bundle(u, lam, delta, tau)
    assert np.allclose(z, prox_g(u, lam, delta, tau), rtol=1e-15, atol=0)
    assert np.allclose(md, moreau_dot_g(u, lam, delta, tau), rtol=1e-15, atol=0)
    assert np.allclose(mdd, moreau_ddot_g(u, lam, delta, tau), rtol=1e-15, atol=0)


def test_prox_g_overflow_guard():
    # arguments far past exp overflow must degrade gracefully
    z = prox_g(800.0, 2.0, 1.0, 3.0)
    assert np.isfinite(z)
    assert abs((z - 800.0) / 3.0 + g_dot(z, 2.0, 1.0)) <= 1e-6


def test_penalty_roundtrip_and_validation():
    pen = ElasticNetPenalty.from_strength(0.1, 0.3)
    assert pen.rho == 0.1 and pen.l1_ratio == 0.3
    assert pen.alpha == 0.1 * 0.3 and pen.eta == 0.1 * (1 - 0.3)
    pen2 = ElasticNetPenalty.from_weights(0.25, 0.5)
    assert pen2.alpha == 0.25 and pen2.eta == 0.5
    with pytest.raises(ValueError):
        ElasticNetPenalty.from_weights(-0.1, 0.0)
    with pytest.raises(ValueError):
        ElasticNetPenalty.from_strength(1.0, 1.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ElasticNetPenalty.from_weights(bad, 0.0)
        with pytest.raises(ValueError):
            ElasticNetPenalty.from_weights(0.1, bad)
        with pytest.raises(ValueError):
            ElasticNetPenalty.from_strength(bad, 0.75)
    with pytest.raises(ValueError):
        ElasticNetPenalty.from_strength(1.0, np.nan)
    with pytest.raises(ValueError, match="'alpha'"):
        ElasticNetPenalty(alpha="0.3", eta=0.1, rho=0.4, l1_ratio=0.75)
    # the two pairs must agree, to 1e-12 rho: eta 5.0 is not rho (1 -
    # l1_ratio), nor is an alpha 1e-11 rho off, while the constructors'
    # pairs pass
    for alpha, eta in ((0.3, 5.0), (0.3 + 4e-12, 0.1)):
        with pytest.raises(ValueError, match="rho"):
            ElasticNetPenalty(alpha=alpha, eta=eta, rho=0.4, l1_ratio=0.75)
    ElasticNetPenalty(alpha=0.3 + 1e-13, eta=0.1, rho=0.4, l1_ratio=0.75)


def test_prox_enet_values():
    pen = ElasticNetPenalty.from_weights(1.0, 1.0)
    assert prox_enet(3.0, 1.0, pen) == 1.0
    assert prox_enet_dot(3.0, 1.0, pen) == 0.5
    lasso = ElasticNetPenalty.from_weights(1.0, 0.0)
    assert prox_enet(0.5, 1.0, lasso) == 0.0
    assert prox_enet_dot(0.5, 1.0, lasso) == 0.0
    mixed = ElasticNetPenalty.from_weights(1.0, 0.5)
    assert prox_enet(-4.0, 2.0, mixed) == -1.0
    assert prox_enet_dot(-4.0, 2.0, mixed) == 0.5


def test_prox_enet_dot_kink_is_zero():
    pen = ElasticNetPenalty.from_weights(1.0, 0.0)
    assert prox_enet_dot(1.0, 1.0, pen) == 0.0
    assert prox_enet_dot(-1.0, 1.0, pen) == 0.0
    assert prox_enet_dot(1.0 + 1e-12, 1.0, pen) == 1.0
