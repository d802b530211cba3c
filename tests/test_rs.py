import numpy as np
import pytest
from scipy.integrate import quad

from coxfield import rs
from coxfield.prox import ElasticNetPenalty, prox_enet, prox_enet_dot, prox_g
from coxfield.rs import (OrderParameters, RsInconsistencyError,
                         RsNonConvergenceError, enet_prior_moments,
                         rs_rhs_enet, sample_population, sample_prior,
                         solve_lambda, solve_rs, solve_rs_path)
from coxfield.scalar import std_normal_pdf
from coxfield.survival import nelson_aalen
from coxfield.synthgen import GeneratorSpec
from oracles import rs_residuals_general

GEN = GeneratorSpec(zeta=2.0)
PEN = ElasticNetPenalty.from_strength(0.3 / 0.75, 0.75)


def test_population_independence_at_zero_signal():
    pop = sample_population(GEN, theta0=1e-12, n_pop=20000, seed=0)
    corr = np.corrcoef(pop.z0, pop.t)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(pop.size)


def test_population_basics():
    pop = sample_population(GEN, theta0=1.0, n_pop=2000, seed=1)
    frac = pop.delta.mean()
    assert 0.0 < frac < 1.0
    pop2 = sample_population(GEN, theta0=1.0, n_pop=2000, seed=1)
    assert np.array_equal(pop.t, pop2.t)
    with pytest.raises(ValueError):
        sample_population(GEN, 1.0, 50, seed=0)
    import inspect
    assert inspect.signature(sample_population).parameters["n_pop"].default == 5000


def test_solve_lambda_monotone_and_nonnegative():
    pop = sample_population(GEN, 1.0, 3000, seed=2)
    lam = solve_lambda(pop, w=0.5, v=0.6, tau=1.2)
    assert np.all(lam.jumps >= 0)
    assert np.all(np.diff(lam.evaluate(np.sort(pop.t))) >= 0)
    assert lam.evaluate(0.0) == 0.0


def test_solve_lambda_small_tau_reduces_to_nelson_aalen():
    pop = sample_population(GEN, 1.0, 2000, seed=3)
    lam = solve_lambda(pop, w=0.0, v=0.0, tau=1e-9)
    hz = nelson_aalen(pop.t, pop.delta, np.zeros(pop.size))
    assert np.max(np.abs(lam.evaluate(pop.t) - hz.evaluate(pop.t))) <= 1e-6


def _hazard_oracle_gap(pop, w, v, tau, lam):
    # independent re-evaluation of both hazard equations by direct sums
    u = w * pop.z0 + v * pop.q
    xi = prox_g(u, lam.evaluate(pop.t), pop.delta, tau)
    theta = pop.t[None, :] >= pop.t[:, None]        # Theta(t_j - t_i)
    s_at = (np.exp(xi)[None, :] * theta).mean(axis=1)
    lam_direct = ((pop.t[:, None] >= pop.t[None, :])
                  * pop.delta[None, :] / s_at[None, :]).mean(axis=1)
    return np.max(np.abs(lam_direct - lam.evaluate(pop.t)))


def test_solve_lambda_self_consistency_oracle():
    pop = sample_population(GEN, 1.0, 600, seed=4)
    w, v, tau = 0.4, 0.5, 1.1
    lam = solve_lambda(pop, w, v, tau)
    assert _hazard_oracle_gap(pop, w, v, tau, lam) <= 1e-8


def _quad_moments(w_hat, v_hat, tau_hat, pen, nu):
    # mixture of 1-D integrals against the two conditional field widths
    a = pen.alpha * tau_hat
    shrink = 1.0 + pen.eta * tau_hat
    sig1 = np.sqrt(v_hat ** 2 + w_hat ** 2 / nu)

    def moments(sig):
        st = lambda x: np.sign(x) * max(abs(x) - a, 0.0) / shrink
        dens = lambda x: std_normal_pdf(x / sig) / sig
        act = quad(lambda x: dens(x), a, np.inf)[0] \
            + quad(lambda x: dens(x), -np.inf, -a)[0]
        sec = quad(lambda x: st(x) ** 2 * dens(x), a, np.inf)[0] \
            + quad(lambda x: st(x) ** 2 * dens(x), -np.inf, -a)[0]
        return act, sec

    act1, sec1 = moments(sig1)
    act0, sec0 = moments(v_hat)
    active = (nu * act1 + (1 - nu) * act0) / shrink
    second = nu * sec1 + (1 - nu) * sec0
    # overlap via Stein on the active component:
    # E[beta0 phi] / theta0 = w_hat / nu * nu * E[st'] / shrink
    overlap = w_hat * act1 / shrink
    return overlap, active, second


def test_prior_moments_match_quadrature():
    cases = [
        (1.1, 2.5, 7.0, PEN, 0.005),
        (0.3, 0.8, 1.5, ElasticNetPenalty.from_strength(0.8, 1.0), 0.1),
        (2.0, 1.2, 3.0, ElasticNetPenalty.from_strength(0.5, 0.4), 0.5),
    ]
    for w_hat, v_hat, tau_hat, pen, nu in cases:
        got = enet_prior_moments(w_hat, v_hat, tau_hat, pen, nu)
        want = _quad_moments(w_hat, v_hat, tau_hat, pen, nu)
        for g_val, w_val in zip(got, want):
            assert g_val == pytest.approx(w_val, abs=1e-8, rel=1e-8)


def test_stein_identity():
    rng_m = 400000
    w_hat, v_hat, tau_hat, nu = 1.0, 2.0, 5.0, 0.02
    beta0, z = sample_prior(nu, 1.0, rng_m, seed=6)
    field = w_hat * beta0 + v_hat * z
    phi = prox_enet(field, tau_hat, PEN)
    dot = prox_enet_dot(field, tau_hat, PEN)
    lhs = np.mean(z * phi)
    rhs = v_hat * np.mean(dot)
    sigma = np.std(z * phi - v_hat * dot) / np.sqrt(rng_m)
    assert abs(lhs - rhs) <= 3.0 * sigma


def test_rhs_shrinkage_limits():
    pop = sample_population(GEN, 1.0, 1500, seed=7)
    op = OrderParameters(w=0.5, v=0.6, tau=1.0, w_hat=1.0, v_hat=1.0,
                         tau_hat=1.0)
    lam = solve_lambda(pop, op.w, op.v, op.tau)
    huge = ElasticNetPenalty.from_strength(1e9, 1.0)
    prop = rs_rhs_enet(op, pop, lam, huge, nu=0.05, zeta=2.0)
    assert prop.w == 0.0 and prop.tau == 0.0
    free = ElasticNetPenalty.from_weights(0.0, 0.0)
    prop2 = rs_rhs_enet(op, pop, lam, free, nu=0.05, zeta=2.0)
    assert prop2.w == pytest.approx(op.w_hat, rel=1e-12)
    assert prop2.tau == pytest.approx(op.tau_hat, rel=1e-12)


def test_rhs_error_paths(monkeypatch):
    pop = sample_population(GEN, 1.0, 1500, seed=8)
    op = OrderParameters(w=0.5, v=0.6, tau=1.0, w_hat=1.0, v_hat=0.0,
                         tau_hat=1.0)
    lam = solve_lambda(pop, op.w, op.v, op.tau)
    with pytest.raises(RsInconsistencyError):
        rs_rhs_enet(op, pop, lam, PEN, nu=0.05, zeta=2.0)
    # prior moments whose second moment is below the squared overlap
    # propose a negative v^2: solve_rs names it, and the path drops the point
    monkeypatch.setattr(rs, "enet_prior_moments", lambda *args: (1.0, 0.5, 0.5))
    with pytest.raises(RsInconsistencyError, match="negative proposed v\\^2"):
        solve_rs(PEN, nu=0.05, zeta=2.0, pop=pop)
    assert solve_rs_path([PEN], nu=0.05, theta0=1.0, zeta=2.0, gen=GEN,
                         n_pop=400) == [None]


def test_solve_rs_residual_bootstrap():
    # solve on a large population; residuals re-evaluated on fresh
    # populations and prior draws must sit inside 3 resampling sigmas
    op, lam = solve_rs(PEN, nu=0.02, zeta=2.0,
                       pop=sample_population(GEN, 1.0, 20000, seed=9))
    n_fresh, m_prior = 3000, 120000
    residuals = []
    for k in range(5):
        pop_k = sample_population(GEN, 1.0, n_fresh, seed=100 + k)
        b0, z = sample_prior(0.02, 1.0, m_prior, seed=200 + k)
        residuals.append(rs_residuals_general(op, pop_k, b0, z, PEN,
                                              zeta=2.0))
    residuals = np.array(residuals)
    sigma = residuals.std(axis=0, ddof=1)
    assert np.all(np.abs(residuals) <= 3.0 * sigma + 1e-12)


def test_solve_rs_seed_agreement():
    ops = [solve_rs(PEN, nu=0.02, zeta=2.0,
                    pop=sample_population(GEN, 1.0, 5000, seed=s))[0].as_array()
           for s in range(4)]
    ops = np.array(ops)
    spread = ops.std(axis=0, ddof=1)
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.all(np.abs(ops[i] - ops[j]) <= 3.0 * np.sqrt(2.0) * spread)


def test_solve_rs_order_independence():
    pop = sample_population(GEN, 1.0, 4000, seed=10)
    rng = np.random.default_rng(0)
    perm = rng.permutation(pop.size)
    from coxfield.rs import RsPopulation
    shuffled = RsPopulation(z0=pop.z0[perm], q=pop.q[perm],
                            delta=pop.delta[perm], t=pop.t[perm],
                            theta0=pop.theta0)
    op1, _ = solve_rs(PEN, 0.02, 2.0, pop)
    op2, _ = solve_rs(PEN, 0.02, 2.0, shuffled)
    assert np.max(np.abs(op1.as_array() - op2.as_array())) <= 1e-5


def test_solve_rs_path_warm_starts():
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.5, 0.4, 0.3)]
    points = solve_rs_path(pens, nu=0.02, theta0=1.0, zeta=2.0, gen=GEN,
                           n_pop=4000, seed=11)
    assert all(pt is not None for pt in points)
    ws = [pt[0].w for pt in points]
    assert ws == sorted(ws)  # weaker penalty -> larger signal recovery here


def test_solve_rs_path_requires_decreasing_strength(monkeypatch):
    # reg_path's order rule, on the RS path too
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75) for a in (0.3, 0.5)]
    with pytest.raises(ValueError, match="decreasing strength"):
        solve_rs_path(pens, nu=0.05, theta0=1.0, zeta=2.0, gen=GEN, n_pop=400)
    # and reg_path's rule on inits: one per point, checked before any work
    def no_work(*args, **kwargs):
        raise AssertionError("population drawn before the inits check")

    monkeypatch.setattr(rs, "sample_population", no_work)
    op = OrderParameters(0.5, 0.5, 1.0, 0.5, 0.5, 1.0)
    for inits in ([op], [op, None, None]):
        with pytest.raises(ValueError, match=f"inits has {len(inits)} entries"):
            solve_rs_path(pens[::-1], nu=0.05, theta0=1.0, zeta=2.0, gen=GEN,
                          n_pop=800, inits=inits)


def test_solve_rs_returns_a_verified_fixed_point():
    # the returned hazard solves the hazard equations at the returned
    # scalars, and one more RHS evaluation barely moves the scalars;
    # solve_lambda, the same loop with the scalars held, meets it there
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.5, 0.4, 0.3)]
    n_pop, seed = 800, 2
    points = solve_rs_path(pens, nu=0.02, theta0=1.0, zeta=2.0, gen=GEN,
                           n_pop=n_pop, seed=seed)
    pop = sample_population(GEN, 1.0, n_pop, seed=seed)
    single = solve_rs(pens[0], nu=0.02, zeta=2.0, pop=pop)
    assert all(pt is not None for pt in points)
    assert np.array_equal(single[0].as_array(), points[0][0].as_array())
    for pen, (op, lam) in zip(pens, points):
        assert _hazard_oracle_gap(pop, op.w, op.v, op.tau, lam) <= 1e-8
        held = solve_lambda(pop, op.w, op.v, op.tau)
        assert np.array_equal(held.knots, lam.knots)
        assert np.max(np.abs(held.values - lam.values)) <= 1e-7
        prop = rs_rhs_enet(op, pop, lam, pen, nu=0.02, zeta=2.0)
        assert np.max(np.abs(prop.as_array() - op.as_array())) <= 1e-5
        diag = op.diagnostics
        assert diag["iterations"] >= 1 and diag["seconds"] >= 0.0
        assert diag["hazard_residual"] <= 1e-8
        assert diag["scalar_residual"] <= 1e-6


def test_solve_rs_nonconvergence_reports_residuals(monkeypatch):
    pop = sample_population(GEN, 1.0, 500, seed=13)
    monkeypatch.setattr(rs, "_MAX_ITER", 3)
    with pytest.raises(RsNonConvergenceError) as exc:
        solve_rs(PEN, nu=0.02, zeta=2.0, pop=pop)
    err = exc.value
    assert err.iterations == 3
    assert err.hazard_residual > 0.0 and err.scalar_residual > 1e-6
    assert "after 3 iterations" in str(err)
    monkeypatch.setattr(rs, "_MAX_ITER", 2)
    with pytest.raises(RsNonConvergenceError) as exc:
        solve_lambda(pop, 0.4, 0.5, 1.1)
    assert exc.value.iterations == 2 and exc.value.scalar_residual == 0.0
    with pytest.raises(ValueError):
        solve_rs(PEN, nu=0.02, zeta=2.0, pop=pop,
                 init=OrderParameters(0.5, 0.5, 0.0, 0.5, 0.5, 1.0))


@pytest.mark.parametrize("name", ["w", "v", "tau", "w_hat", "v_hat", "tau_hat"])
def test_solve_rs_rejects_nonfinite_init(name):
    # ValueError before the loop; a NaN used to run all _MAX_ITER steps and
    # end in RsNonConvergenceError with NaN residuals
    pop = sample_population(GEN, 1.0, 500, seed=13)
    start = dict(w=0.5, v=0.5, tau=1.0, w_hat=0.5, v_hat=0.5, tau_hat=1.0)
    for bad in (np.nan, np.inf):
        init = OrderParameters(**{**start, name: bad})
        with pytest.raises(ValueError, match="finite"):
            solve_rs(PEN, nu=0.02, zeta=2.0, pop=pop, init=init)


@pytest.mark.parametrize("args", [(np.nan, 0.5, 1.1), (0.4, np.nan, 1.1),
                                  (0.4, 0.5, np.nan), (0.4, 0.5, np.inf),
                                  (0.4, 0.5, -1.0)])
def test_solve_lambda_rejects_nonfinite_or_nonpositive_tau(args):
    pop = sample_population(GEN, 1.0, 500, seed=13)
    with pytest.raises(ValueError, match="finite"):
        solve_lambda(pop, *args)


def test_order_parameters_diagnostics_stay_out_of_comparisons():
    a = OrderParameters(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    b = OrderParameters.from_array(a.as_array(),
                                   diagnostics={"iterations": 7})
    assert a == b and a.diagnostics == {}
    assert a.as_array().shape == (6,)
