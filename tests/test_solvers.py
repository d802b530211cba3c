import numpy as np
import pytest

from coxfield import solvers
from coxfield.prox import ElasticNetPenalty, prox_g
from coxfield.solvers import (FitDivergedError, FitResult, SolverConfig,
                              fit_amp, fit_cd, reg_path)
from coxfield.survival import SurvivalDataset, nelson_aalen
from coxfield.synthgen import GeneratorSpec, SignalSpec, generate_dataset
from oracles import (ppl_gradient, prox_gradient_minimizer, reference_amp,
                     reference_cd)


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
        assert res.diagnostics["stop_reason"] == "all_censored"
        assert res.diagnostics["seconds"] >= 0.0


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
    assert res.diagnostics["stop_reason"] == "tol"
    assert res.diagnostics["seconds"] > 0.0
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
    assert res.diagnostics["stop_reason"] == "tol"
    assert res.diagnostics["seconds"] > 0.0
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


def test_cd_skips_a_zero_column():
    # an all-zero column has zero curvature: its coordinate is skipped in
    # every epoch and stays at zero, and the other coefficients are those
    # of the fit without that column
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    k = 7
    design = data.design.copy()
    design[:, k] = 0.0
    with_zero = fit_cd(SurvivalDataset(data.times, data.events, design), PEN)
    without = fit_cd(SurvivalDataset(data.times, data.events,
                                     np.delete(design, k, axis=1)), PEN)
    assert with_zero.converged and without.converged
    assert np.count_nonzero(without.beta_hat) > 0
    assert with_zero.diagnostics["skipped_coordinates"] == with_zero.epochs
    assert with_zero.beta_hat[k] == 0.0
    assert np.max(np.abs(np.delete(with_zero.beta_hat, k)
                         - without.beta_hat)) <= 1e-12


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
        assert fit.diagnostics["stop_reason"] == "max_epochs"


def test_reg_path_records_divergence(monkeypatch):
    data, _ = _instance(p=30, zeta=2.0, nu=0.1, seed=9)

    def diverge(data, pen, init=None, cfg=None):
        raise FitDivergedError("non-finite beta at epoch 3")

    monkeypatch.setitem(solvers._SOLVERS, "cd", diverge)
    (res,) = reg_path(data, [PEN], "cd")
    assert not res.converged and res.hazard is None
    assert res.diagnostics == {"stop_reason": "diverged",
                               "error": "non-finite beta at epoch 3"}


@pytest.mark.parametrize("fit, scale", [(fit_cd, 1e3), (fit_amp, 1e6)])
def test_divergence_names_the_field(fit, scale):
    # a far-off start overflows the at-risk weights; only err is tested
    # each epoch, the message still names the first non-finite field
    data, _ = _instance(p=60, zeta=2.0, nu=0.1, seed=5)
    init = FitResult(beta_hat=np.full(data.p, scale), hazard=fit_cd(data, PEN).hazard,
                     converged=True, epochs=1, final_err=0.0)
    with np.errstate(all="ignore"), pytest.raises(
            FitDivergedError, match=r"^non-finite beta at epoch \d+; the penalty"):
        fit(data, PEN, init=init)


def _with_tied_times(data):
    # one decimal: most event times are shared by several subjects
    return SurvivalDataset(np.round(data.times, 1) + 0.1, data.events,
                           data.design)


@pytest.mark.parametrize("solver, reference", [("cd", reference_cd),
                                               ("amp", reference_amp)])
def test_solvers_reproduce_reference_loops(solver, reference, monkeypatch):
    # the solvers sort the times once per fit and run the CD sweep on
    # floats; the reference loops call nelson_aalen every epoch and
    # prox_enet per coordinate.  nelson_aalen runs on the solvers' own
    # risk-set kernel, so on untied and tied times alike the arithmetic
    # is the same, bit for bit (AMP's hazard is the one at its final
    # proximal points).  CD runs its plain sweeps, without extrapolation;
    # these AMP fits never stall.
    if solver == "cd":
        monkeypatch.setattr(solvers, "CD_ANDERSON_K", 0)
    data, _ = _instance(p=80, zeta=2.0, nu=0.05, seed=13)
    tied = _with_tied_times(data)
    assert np.unique(tied.times).size < tied.n // 2
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.42, 0.37, 0.32)]
    for d in (data, tied):
        init = None
        for pen, fit in zip(pens, reg_path(d, pens, solver)):
            ref = reference(d, pen, init=init)
            init = ref
            assert fit.converged and ref.converged
            assert fit.epochs == ref.epochs
            assert np.array_equal(fit.hazard.knots, ref.hazard.knots)
            pairs = [(fit.beta_hat, ref.beta_hat),
                     (fit.hazard.values, ref.hazard.values),
                     (fit.final_err, ref.final_err)]
            if solver == "amp":
                pairs += [(fit.xi, ref.xi), (fit.tau, ref.tau),
                          (fit.tau_hat, ref.tau_hat)]
            for got, want in pairs:
                assert np.array_equal(got, want)


def _start_score(data, beta):
    # the score of CD's first epoch at beta, as `reference_cd` forms it
    lp = data.design @ beta
    lamT = nelson_aalen(data.times, data.events, lp).evaluate(data.times)
    return data.design.T @ (lamT * np.exp(lp) - data.events)


def _screening_instance(seed):
    """A small CD problem that stresses the screen: its data, penalty and
    warm start.  Tied times when seed % 3 == 1, an all-zero column when
    seed % 4 == 2.

    Even seeds start cold, with alpha within 1e-12 alpha of the
    first-epoch |score| of one coordinate, the largest when seed % 8 == 0
    (no coordinate moves before it).  Odd seeds run a lasso from a
    perturbed solution, with x_1 = x_0 and columns 2 to at most 30 equal
    to +-(1 + j 2^-52) x_0 (|j| <= 4), their coefficients at zero.  The
    start splits the x_0 coefficient of a solution at a weaker penalty
    between x_0 and x_1, x_0's with the wrong sign, and alpha exceeds
    their score by a factor 1 + 1e-3.  The sweep then moves coefficients
    0 and 1 by nearly opposite amounts, so r nearly cancels: S's rounding
    error relative to Q is some 1e6 u, the Cauchy-Schwarz bound is tight
    for every zero copy, and each one's update lands on the threshold up
    to rounding.
    """
    rng = np.random.default_rng([17, seed])
    p = int(rng.integers(20, 121))
    zeta = float(rng.uniform(0.5, 3.0))
    data, _ = _instance(p=p, zeta=zeta, nu=0.1, seed=100 + seed)
    times = np.round(data.times, 1) + 0.1 if seed % 3 == 1 else data.times
    design = data.design.copy()
    copies = min(30, p // 2) if seed % 2 else 0
    if copies:
        top = np.argmax(np.abs(_start_score(data, np.zeros(p))))
        design[:, [0, top]] = design[:, [top, 0]]
        design[:, 1] = design[:, 0]
        for k in range(2, copies + 1):
            scale = rng.choice([-1.0, 1.0]) * (1.0 + int(rng.integers(-4, 5)) * 2.0**-52)
            design[:, k] = design[:, 0] * scale
    if seed % 4 == 2:
        design[:, rng.integers(copies + 1, p)] = 0.0
    data = SurvivalDataset(times, data.events, design)
    score = np.abs(_start_score(data, np.zeros(p)))
    k = np.argsort(score)[::-1][0 if seed % 8 == 0 else rng.integers(1, 8)]
    if not copies:
        alpha = score[k] * (1.0 + rng.choice([-0.5e-12, 0.0, 0.5e-12]))
        eta = alpha / float(rng.uniform(0.5, 1.0)) - alpha
        return data, ElasticNetPenalty.from_weights(alpha, eta), None
    weak = ElasticNetPenalty.from_weights(score[k] * rng.uniform(0.3, 0.6), 0.0)
    solution = reference_cd(data, weak).beta_hat
    beta = np.where(solution != 0, solution + rng.normal(0.0, 1e-3, p), 0.0)
    beta[:copies + 1] = 0.0
    z = solution[0]
    split = np.sign(z) * (abs(z) + 1.0)
    beta[0], beta[1] = z - split, split
    alpha = abs(_start_score(data, beta)[0]) * (1.0 + 1e-3)
    init = FitResult(beta_hat=beta, hazard=None, converged=True, epochs=1,
                     final_err=0.0)
    return data, ElasticNetPenalty.from_weights(alpha, 0.0), init


@pytest.mark.parametrize("seed", range(32))
def test_cd_screening_is_exact(seed, monkeypatch):
    # the screen skips a zero coordinate only where the update would give
    # a zero: the plain sweep equals the reference loop, which has no
    # screen, bit for bit
    monkeypatch.setattr(solvers, "CD_ANDERSON_K", 0)
    data, pen, init = _screening_instance(seed)
    fit = fit_cd(data, pen, init=init)
    ref = reference_cd(data, pen, init=init)
    assert fit.epochs == ref.epochs
    assert np.array_equal(fit.beta_hat, ref.beta_hat)
    assert np.array_equal(fit.hazard.knots, ref.hazard.knots)
    assert np.array_equal(fit.hazard.values, ref.hazard.values)
    assert fit.final_err == ref.final_err
    if np.count_nonzero(fit.beta_hat) <= data.p // 2:
        assert fit.diagnostics["screened_coordinates"] > 0


def test_accelerated_cd_matches_plain_cd(monkeypatch):
    # the extrapolation changes the iteration, not its fixed point
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    fast = fit_cd(data, PEN)
    monkeypatch.setattr(solvers, "CD_ANDERSON_K", 0)
    plain = fit_cd(data, PEN)
    assert fast.converged and plain.converged
    assert fast.diagnostics["extrapolations_kept"] > 0
    assert plain.diagnostics["extrapolations_tried"] == 0
    assert fast.epochs <= plain.epochs
    assert np.max(np.abs(fast.beta_hat - plain.beta_hat)) <= 1e-6
    assert np.array_equal(fast.hazard.knots, plain.hazard.knots)
    assert np.max(np.abs(fast.hazard.values - plain.hazard.values)) <= 1e-6
    grad = ppl_gradient(data, fast.beta_hat)
    beta = fast.beta_hat
    nz = beta != 0
    assert np.max(np.abs(grad[nz] + PEN.eta * beta[nz]
                         + PEN.alpha * np.sign(beta[nz]))) <= 1e-6
    assert np.max(np.abs(grad[~nz]), initial=0.0) <= PEN.alpha + 1e-6


def test_cd_extrapolation_is_guarded(monkeypatch):
    # an extrapolated point is kept only where it lowers the penalized
    # partial likelihood, and none is tried after the last epoch, so the
    # coefficients returned are a sweep's
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    short = SolverConfig(max_epochs=solvers.CD_ANDERSON_K)
    with monkeypatch.context() as m:
        m.setattr(solvers, "CD_ANDERSON_K", 0)
        plain = fit_cd(data, PEN)
        plain_short = fit_cd(data, PEN, cfg=short)
    monkeypatch.setattr(solvers, "_anderson_mix", lambda it: it[-1] + 10.0)
    worse = fit_cd(data, PEN)
    assert worse.diagnostics["extrapolations_tried"] > 0
    assert worse.diagnostics["extrapolations_kept"] == 0
    assert worse.epochs == plain.epochs
    assert np.array_equal(worse.beta_hat, plain.beta_hat)
    monkeypatch.setattr(solvers, "_anderson_mix", lambda it: plain.beta_hat)
    better = fit_cd(data, PEN)
    assert better.diagnostics["extrapolations_kept"] >= 1
    assert better.epochs < plain.epochs
    last = fit_cd(data, PEN, cfg=short)
    assert last.diagnostics["extrapolations_tried"] == 0
    assert np.array_equal(last.beta_hat, plain_short.beta_hat)


def test_amp_stall_stops_early():
    # at damping 0.5, 0.3 or 0.2 this AMP fit stays at err ~1e-2 for 3000
    # epochs; each stall halves the damping until the floor stops it
    data, _ = _instance(p=60, zeta=2.0, nu=0.1, seed=5)
    res = fit_amp(data, PEN)
    diag = res.diagnostics
    assert not res.converged and diag["stop_reason"] == "stalled"
    assert res.epochs <= 4 * solvers.AMP_STALL_WINDOW
    assert len(diag["err_history"]) == res.epochs
    assert diag["err_history"][-1] == res.final_err
    cuts = diag["damping_cuts"]
    assert [d for _, d in cuts] == [0.25, 0.125]
    starts = [1] + [e for e, _ in cuts]
    assert all(b - a >= solvers.AMP_STALL_WINDOW
               for a, b in zip(starts, starts[1:] + [res.epochs]))


def test_amp_recovers_after_damping_cut():
    # repetition 0 of the p=500 acceptance experiment, grid point 7: at
    # damping 0.5 AMP stays at err ~2.6e-3; after one cut it converges
    # to the CD fit
    train_seed, _ = np.random.SeedSequence(2024).generate_state(2, dtype=np.uint64)
    sig = SignalSpec(p=500, nu=0.02, theta0=1.0, seed=2024)
    data, _ = generate_dataset(sig, GeneratorSpec(zeta=2.0), seed=int(train_seed))
    alphas = [round(float(a), 6) for a in np.geomspace(0.42, 0.13, 10)][:8]
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75) for a in alphas]
    amp = reg_path(data, pens, "amp")[-1]
    assert amp.converged and amp.diagnostics["stop_reason"] == "tol"
    assert len(amp.diagnostics["damping_cuts"]) >= 1
    assert len(amp.diagnostics["err_history"]) == amp.epochs
    cd = reg_path(data, pens, "cd")[-1]
    assert cd.converged
    rel = np.linalg.norm(amp.beta_hat - cd.beta_hat) / np.linalg.norm(cd.beta_hat)
    assert rel <= 1e-4
