import math
import re
import warnings
from time import perf_counter

import numpy as np
import pytest

from coxfield import solvers, survival
from coxfield.prox import ElasticNetPenalty, prox_g
from coxfield.solvers import FitResult, SolverConfig, fit_amp, fit_cd, reg_path
from coxfield.survival import (RiskSets, SurvivalDataset, nelson_aalen,
                               penalized_partial_likelihood)
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


def test_reg_path_requires_decreasing_strength(monkeypatch):
    data, _ = _instance(p=30, zeta=2.0, nu=0.1, seed=9)
    pens = [ElasticNetPenalty.from_strength(r, 0.75) for r in (0.1, 0.5)]
    with pytest.raises(ValueError):
        reg_path(data, pens, "cd")
    with pytest.raises(ValueError):
        reg_path(data, [PEN], "bogus")
    # one start per point, checked before any fit
    def no_fit(*args, **kwargs):
        raise AssertionError("fit before the inits check")

    monkeypatch.setitem(solvers._SOLVERS, "cd", no_fit)
    for inits in ([None], [None, None, None]):
        with pytest.raises(ValueError, match=f"inits has {len(inits)} entries"):
            reg_path(data, pens[::-1], "cd", inits=inits)


def test_reg_path_inits_override_the_warm_start(monkeypatch):
    # inits[i] replaces the warm start where it is not None, and None falls
    # back to the previous fit; CD started at AMP's fits reaches the fits
    # of a CD path within the tolerance
    data, _ = _instance(p=80, zeta=2.0, nu=0.05, seed=12)
    pens = [ElasticNetPenalty.from_strength(r, 0.75) for r in (0.8, 0.6, 0.4)]
    cold = reg_path(data, pens, "cd")
    amp = reg_path(data, pens, "amp")
    assert all(fit.converged for fit in cold + amp)
    starts = []

    def recording(data, pen, init=None, cfg=None):
        starts.append(init)
        return fit_cd(data, pen, init=init, cfg=cfg)

    monkeypatch.setitem(solvers._SOLVERS, "cd", recording)
    fits = reg_path(data, pens, "cd", inits=[amp[0], None, amp[2]])
    assert starts[0] is amp[0] and starts[1] is fits[0] and starts[2] is amp[2]
    for fit, ref in zip(fits, cold):
        assert fit.converged
        assert (np.linalg.norm(fit.beta_hat - ref.beta_hat)
                <= 1e-6 * np.linalg.norm(ref.beta_hat))


@pytest.mark.parametrize("solver", ["amp", "cd"])
def test_reg_path_skips_a_given_fit_without_hazard(solver, monkeypatch):
    # a diverged inits[i] is no start: the point starts from the previous
    # fit instead of failing on the missing hazard (AMP) or blaming the
    # penalty for the start's non-finite beta (CD)
    data, _ = _instance(p=60, zeta=2.0, nu=0.1, seed=36)
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75) for a in (0.6, 0.5)]
    diverged = fit_amp(data, pens[1], cfg=SolverConfig(damping=1.0))
    assert diverged.diagnostics["stop_reason"] == "diverged"
    fit = solvers._SOLVERS[solver]
    starts = []

    def recording(data, pen, init=None, cfg=None):
        starts.append(init)
        return fit(data, pen, init=init, cfg=cfg)

    monkeypatch.setitem(solvers._SOLVERS, solver, recording)
    fits = reg_path(data, pens, solver, inits=[None, diverged])
    assert starts[0] is None and starts[1] is fits[0]
    assert [f.diagnostics["start"] for f in fits] == ["cold", "previous"]
    assert all(f.converged for f in fits)


def test_reg_path_labels_each_start(monkeypatch):
    # diagnostics["start"] names the start reg_path chose: "cold" while no
    # fit has a hazard, "previous" after one (past a diverged point), and
    # "given" for an inits entry with a hazard
    data, _ = _instance(p=30, zeta=2.0, nu=0.1, seed=9)
    pens = [ElasticNetPenalty.from_strength(r, 0.75)
            for r in (0.8, 0.6, 0.4, 0.3)]
    given = fit_cd(data, pens[3])
    starts = []

    def flaky(data, pen, init=None, cfg=None):
        starts.append(init)
        if pen is pens[1]:
            return solvers._diverged(data.p, 3, perf_counter(), beta=np.nan)
        return fit_cd(data, pen, init=init, cfg=cfg)

    monkeypatch.setitem(solvers._SOLVERS, "cd", flaky)
    fits = reg_path(data, pens, "cd", inits=[None, None, None, given])
    assert ([f.diagnostics["start"] for f in fits]
            == ["cold", "previous", "previous", "given"])
    assert starts[0] is None and starts[1] is fits[0]
    assert starts[2] is fits[0] and starts[3] is given
    starts.clear()
    fits = reg_path(data, pens[1:3], "cd")
    assert [f.diagnostics["start"] for f in fits] == ["cold", "cold"]
    assert starts == [None, None]


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
    # a cold start is the start from the origin's fit: beta 0 and the
    # Nelson-Aalen hazard at X beta = 0, no xi, tau or tau_hat; bit for
    # bit below the float32 size rule
    for p, seed in ((60, 5), (80, 12), (120, 3)):
        data, _ = _instance(p=p, zeta=2.0, nu=0.05, seed=seed)
        assert data.n * data.p <= solvers.F32_MIN_SIZE
        cold = fit_amp(data, PEN)
        origin = FitResult(
            beta_hat=np.zeros(p), converged=False, epochs=0, final_err=np.inf,
            hazard=nelson_aalen(data.times, data.events, np.zeros(data.n)))
        same = fit_amp(data, PEN, init=origin)
        for key in ("beta_hat", "xi", "tau", "tau_hat", "epochs", "final_err"):
            assert np.array_equal(getattr(same, key), getattr(cold, key)), key
        assert np.array_equal(same.hazard.values, cold.hazard.values)
        assert (same.diagnostics["err_history"]
                == cold.diagnostics["err_history"])
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
    for bad in ({"tol": np.nan}, {"tol": np.inf}, {"max_epochs": np.nan},
                {"damping": np.nan}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    # max_epochs=2.5 used to pass, and CD then ran 3 epochs
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="max_epochs must be an int"):
            SolverConfig(max_epochs=bad)
    assert SolverConfig(max_epochs=np.int64(3)).max_epochs == 3
    for name, bad in (("tol", "1e-6"), ("damping", None)):
        with pytest.raises(ValueError, match=f"'{name}'"):
            SolverConfig(**{name: bad})


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
    # a diverged point is recorded as returned, and the next point starts
    # from the last fit with a hazard
    data, _ = _instance(p=30, zeta=2.0, nu=0.1, seed=9)
    pens = [ElasticNetPenalty.from_strength(r, 0.75) for r in (0.8, 0.6, 0.4)]
    inits = []

    def flaky(data, pen, init=None, cfg=None):
        inits.append(init)
        if pen is pens[1]:
            return solvers._diverged(data.p, 3, perf_counter(), beta=np.nan)
        return fit_cd(data, pen, init=init, cfg=cfg)

    monkeypatch.setitem(solvers._SOLVERS, "cd", flaky)
    fits = reg_path(data, pens, "cd")
    res = fits[1]
    assert not res.converged and res.hazard is None and res.epochs == 3
    assert np.isnan(res.beta_hat).all() and math.isnan(res.final_err)
    diagnostics = dict(res.diagnostics)
    assert diagnostics.pop("seconds") >= 0.0
    assert diagnostics.pop("start") == "previous"
    assert diagnostics == {
        "stop_reason": "diverged",
        "error": "non-finite beta at epoch 3; the penalty is likely too weak "
                 "for a minimizer to exist"}
    assert inits == [None, fits[0], fits[0]] and fits[2].converged


@pytest.mark.parametrize("fit, scale", [(fit_cd, 1e3), (fit_amp, 1e6)])
def test_divergence_names_the_field(fit, scale):
    # a far-off start overflows the at-risk weights, and no warning leaves
    # the fit; only err is tested each epoch, the message still names the
    # first non-finite field in the epoch's update order: CD's beta, AMP's
    # hazard (refreshed first)
    data, _ = _instance(p=60, zeta=2.0, nu=0.1, seed=5)
    init = FitResult(beta_hat=np.full(data.p, scale), hazard=fit_cd(data, PEN).hazard,
                     converged=True, epochs=1, final_err=0.0)
    name = "beta" if fit is fit_cd else "hazard"
    res = fit(data, PEN, init=init)
    assert res.diagnostics["stop_reason"] == "diverged"
    assert re.match(rf"^non-finite {name} at epoch {res.epochs}; the penalty",
                    res.diagnostics["error"])


def test_divergence_names_its_likely_cause():
    # with eta > 0 the loss is strictly convex and has a minimizer: at zeta
    # 16 undamped AMP diverges where CD and AMP at the default damping
    # converge, so its message names the damping, and only at eta = 0 does
    # it doubt that a minimizer exists, for CD from a far start too
    sig = SignalSpec(p=800, nu=0.1, theta0=1.0, seed=1)
    data, _ = generate_dataset(sig, GeneratorSpec(zeta=16.0), seed=1)
    for l1_ratio, cause in ((0.75, "has a minimizer (eta > 0)"),
                            (1.0, "is likely too weak for a minimizer to "
                                  "exist")):
        pen = ElasticNetPenalty.from_strength(0.5 / l1_ratio, l1_ratio)
        res = fit_amp(data, pen, cfg=SolverConfig(damping=1.0))
        assert res.diagnostics["error"] == (
            f"non-finite xi at epoch 3; the penalty {cause}; try a damping "
            "below 1.0")
        cd = fit_cd(data, pen)
        assert cd.converged and cd.epochs == 2
        assert cd.diagnostics["kkt_residual"] < 1e-10
        assert fit_amp(data, pen).converged
    data, _ = _instance(p=60, zeta=2.0, nu=0.1, seed=5)
    init = FitResult(beta_hat=np.full(data.p, 1e3),
                     hazard=fit_cd(data, PEN).hazard, converged=True,
                     epochs=1, final_err=0.0)
    res = fit_cd(data, PEN, init=init)
    assert res.diagnostics["error"] == (
        f"non-finite beta at epoch {res.epochs}; the penalty has a minimizer "
        "(eta > 0)")


def test_amp_err_overflow_is_not_divergence():
    # undamped, the two strongest points' hazards grow past 1e154 two
    # epochs before they overflow: their squares overflow, yet err, their
    # hypot, stays finite until an iterate is not, and the fit names it.  No
    # floating-point warning leaves a fit; the path goes on cold
    sig = SignalSpec(p=60, nu=0.1, theta0=1.0, seed=36)
    data, _ = generate_dataset(sig, GeneratorSpec(zeta=2.0), seed=36)
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.5, 0.4, 0.3, 0.22, 0.16)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fits = reg_path(data, pens, "amp", cfg=SolverConfig(damping=1.0))
    for fit, epoch in zip(fits[:2], (194, 205)):
        assert fit.diagnostics["stop_reason"] == "diverged"
        assert fit.diagnostics["error"].startswith(
            f"non-finite hazard at epoch {epoch};")
    assert [f.epochs for f in fits[2:]] == [286, 337, 194]
    assert all(f.converged for f in fits[2:])


def _plain_sweeps(m):
    """Make CD run its plain sweeps, through the monkeypatch m: every Newton
    proposal is the iterate itself, which the guard rejects, as its KKT
    residual equals the iterate's rather than falling below it.  Neither
    the iterate nor a sweep changes, so a fit is bit for bit the sweeps
    alone; it still counts the proposals as tried."""
    m.setattr(solvers, "_newton_step",
              lambda X, hess, beta, grad, pen: (beta.copy(), 0))


def _with_tied_times(data):
    # one decimal: most event times are shared by several subjects
    return SurvivalDataset(np.round(data.times, 1) + 0.1, data.events,
                           data.design)


def _with_earliest_censored(data):
    # the hazard is 0 up to the first event, so log(tau Lambda) = -inf at
    # the earliest time, where the Lambert factor takes its guarded path
    events = data.events.copy()
    events[np.argmin(data.times)] = 0.0
    return SurvivalDataset(data.times, events, data.design)


@pytest.mark.parametrize("solver, reference", [("cd", reference_cd),
                                               ("amp", reference_amp)])
def test_solvers_reproduce_reference_loops(solver, reference, monkeypatch):
    # the solvers sort the times once per dataset and run the CD sweep on
    # floats; the reference loops call nelson_aalen every epoch and
    # prox_enet per coordinate.  nelson_aalen runs on the solvers' own
    # risk-set kernel, so on untied and tied times, and with the earliest
    # time censored (Lambda = 0 there), the arithmetic is the same, bit
    # for bit (AMP's hazard is the one at its final proximal points).  CD
    # runs its plain sweeps, without Newton steps; these AMP fits never
    # stall, and both sides run at the default damping.
    if solver == "cd":
        _plain_sweeps(monkeypatch)
    ref_kw = {"d": SolverConfig().damping} if solver == "amp" else {}
    data, _ = _instance(p=80, zeta=2.0, nu=0.05, seed=13)
    tied = _with_tied_times(data)
    assert np.unique(tied.times).size < tied.n // 2
    censored_first = _with_earliest_censored(data)
    assert censored_first.risk_sets.hazard(np.zeros(data.n)).min() == 0.0
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.42, 0.37, 0.32)]
    for d in (data, tied, censored_first):
        init = None
        for pen, fit in zip(pens, reg_path(d, pens, solver)):
            ref = reference(d, pen, init=init, **ref_kw)
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


@pytest.mark.parametrize("solver", ["amp", "cd"])
def test_one_sort_per_dataset(solver, monkeypatch):
    # a path's fits, and the losses taken after them, share the dataset's
    # risk sets: the times are sorted once, and the hazards share knots
    data, _ = _instance(p=60, zeta=2.0, nu=0.05, seed=5)
    built = 0
    init = survival.RiskSets.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(survival.RiskSets, "__init__", counted)
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.42, 0.37, 0.32)]
    fits = reg_path(data, pens, solver)
    penalized_partial_likelihood(data, fits[-1].beta_hat, pens[-1])
    assert built == 1
    assert all(f.hazard.knots is fits[0].hazard.knots for f in fits)


def _start_score(data, beta):
    # the score of CD's first epoch at beta, as `reference_cd` forms it
    lp = data.design @ beta
    lamT = nelson_aalen(data.times, data.events, lp).evaluate(data.times)
    return data.design.T @ (lamT * np.exp(lp) - data.events)


def _screening_instance(seed):
    """A small CD problem that stresses the sweep: its data, penalty and
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
    0 and 1 by nearly opposite amounts, so r nearly cancels, and each zero
    copy's update lands on the threshold up to rounding: a zero update
    skipped on any inexact test would show.
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
    # stress cases for the sweep: coordinates held at zero by rounding,
    # ties, copies and a zero column; the plain sweep equals the reference
    # loop bit for bit
    _plain_sweeps(monkeypatch)
    data, pen, init = _screening_instance(seed)
    fit = fit_cd(data, pen, init=init)
    ref = reference_cd(data, pen, init=init)
    assert fit.epochs == ref.epochs
    assert np.array_equal(fit.beta_hat, ref.beta_hat)
    assert np.array_equal(fit.hazard.knots, ref.hazard.knots)
    assert np.array_equal(fit.hazard.values, ref.hazard.values)
    assert fit.final_err == ref.final_err


def test_accelerated_cd_matches_plain_cd(monkeypatch):
    # the Newton step changes the iteration, not its fixed point
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    fast = fit_cd(data, PEN)
    _plain_sweeps(monkeypatch)
    plain = fit_cd(data, PEN)
    assert fast.converged and plain.converged
    assert fast.diagnostics["newton_kept"] > 0
    assert fast.diagnostics["cg_iterations"] > 0
    assert plain.diagnostics["newton_kept"] == 0
    assert plain.diagnostics["cg_iterations"] == 0
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


def test_cd_newton_step_is_guarded(monkeypatch):
    # a Newton candidate is kept only where it lowers the KKT residual
    # without raising the penalized partial likelihood, and none is tried
    # after the last epoch, so the coefficients returned are a sweep's;
    # an overflowing candidate is rejected without a warning.  The
    # iterate itself, as _plain_sweeps proposes it, is tried and never
    # kept, at no CG cost, and leaves the plain sweeps of reference_cd
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    short = SolverConfig(max_epochs=1)
    with monkeypatch.context() as m:
        _plain_sweeps(m)
        plain = fit_cd(data, PEN)
        plain_short = fit_cd(data, PEN, cfg=short)
    assert plain.converged
    assert plain.diagnostics["newton_tried"] > 0
    assert plain.diagnostics["newton_kept"] == 0
    assert plain.diagnostics["cg_iterations"] == 0
    ref = reference_cd(data, PEN)
    assert plain.epochs == ref.epochs
    assert np.array_equal(plain.beta_hat, ref.beta_hat)
    assert np.array_equal(plain.hazard.knots, ref.hazard.knots)
    assert np.array_equal(plain.hazard.values, ref.hazard.values)
    assert plain.final_err == ref.final_err
    for shift in (10.0, 1e3):
        monkeypatch.setattr(solvers, "_newton_step",
                            lambda X, hess, beta, *_: (beta + shift, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            worse = fit_cd(data, PEN)
        assert worse.diagnostics["newton_tried"] > 0
        assert worse.diagnostics["newton_kept"] == 0
        assert worse.epochs == plain.epochs
        assert np.array_equal(worse.beta_hat, plain.beta_hat)
        assert np.array_equal(worse.hazard.values, plain.hazard.values)
        assert worse.final_err == plain.final_err
    monkeypatch.setattr(solvers, "_newton_step",
                        lambda *_: (plain.beta_hat.copy(), 0))
    better = fit_cd(data, PEN)
    assert better.diagnostics["newton_kept"] >= 1
    assert better.epochs < plain.epochs
    last = fit_cd(data, PEN, cfg=short)
    assert last.diagnostics["newton_tried"] == 0
    assert np.array_equal(last.beta_hat, plain_short.beta_hat)


def test_cd_newton_step_stops_at_zero_curvature():
    # conjugate gradients stop at a direction without positive curvature:
    # under the lasso, a zero Hessian gives none, and neither does a NaN
    # one; the first iteration breaks, without a warning, and the
    # candidate is beta itself
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    lasso = ElasticNetPenalty.from_strength(0.3, 1.0)
    rng = np.random.default_rng(0)
    beta = np.where(rng.random(data.p) < 0.2, rng.normal(size=data.p), 0.0)
    grad = rng.normal(size=data.p)
    for fill in (0.0, np.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cand, its = solvers._newton_step(
                data.design.T, lambda u: np.full_like(u, fill), beta, grad,
                lasso)
        assert its == 1
        assert np.array_equal(cand, beta)


def test_cd_predictor_at_each_warm_start(monkeypatch):
    # a warm start from a nonzero beta tries a Newton step before its
    # first sweep, a predictor along the path; a cold fit first tries one
    # after its first sweep.  Every point keeps the plain sweeps' fixed
    # point
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.5, 0.4, 0.3, 0.22, 0.16)]
    first, warm = reg_path(data, pens[:2], "cd", cfg=SolverConfig(max_epochs=1))
    assert np.any(first.beta_hat) and first.diagnostics["newton_tried"] == 0
    assert warm.diagnostics["newton_tried"] == 1
    for max_epochs, tried in ((1, 0), (2, 1)):
        cold = fit_cd(data, pens[1], cfg=SolverConfig(max_epochs=max_epochs))
        assert cold.epochs == max_epochs
        assert cold.diagnostics["newton_tried"] == tried
    fast = reg_path(data, pens, "cd")
    with monkeypatch.context() as m:
        _plain_sweeps(m)
        plain = reg_path(data, pens, "cd")
    assert sum(f.diagnostics["newton_kept"] for f in fast[1:]) >= len(pens) - 1
    for f, pl in zip(fast, plain):
        assert f.converged and pl.converged
        rel = np.linalg.norm(f.beta_hat - pl.beta_hat) / np.linalg.norm(pl.beta_hat)
        assert rel <= 1e-7


def test_cd_newton_step_before_every_sweep():
    # on a warm path where every candidate is kept, each sweep but the
    # first has a Newton step before it, and the first one too where the
    # predictor runs
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.5, 0.4, 0.3, 0.22, 0.16)]
    for fit in reg_path(data, pens, "cd"):
        diag = fit.diagnostics
        assert fit.converged and diag["newton_kept"] == diag["newton_tried"]
        assert diag["newton_tried"] >= fit.epochs - 1


def test_cd_newton_steps_chain_while_the_support_holds(monkeypatch):
    # a kept step that keeps the support and gains well over its CG
    # tolerance is followed at once by another, without a sweep between:
    # some fit takes more Newton steps than sweeps.  Every step is kept,
    # and each fit keeps the plain sweeps' fixed point
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.5, 0.4, 0.3, 0.22, 0.16)]
    fast = reg_path(data, pens, "cd")
    with monkeypatch.context() as m:
        _plain_sweeps(m)
        plain = reg_path(data, pens, "cd")
    assert any(f.diagnostics["newton_tried"] > f.epochs for f in fast)
    for f, pl in zip(fast, plain):
        assert f.converged and pl.converged
        assert f.diagnostics["newton_kept"] == f.diagnostics["newton_tried"]
        rel = np.linalg.norm(f.beta_hat - pl.beta_hat) / np.linalg.norm(pl.beta_hat)
        assert rel <= 1e-7


def test_cd_forms_each_loss_once(monkeypatch):
    # a kept candidate is the next iterate with its loss: where Newton
    # steps chain, the guard forms fewer than two penalized losses per
    # step tried, and never a second at one iterate
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.5, 0.4, 0.3, 0.22, 0.16)]
    seen = []
    loss = RiskSets.penalized_loss

    def counted(self, lin_pred, beta, pen):
        seen.append(beta)
        return loss(self, lin_pred, beta, pen)
    monkeypatch.setattr(RiskSets, "penalized_loss", counted)
    fits = reg_path(data, pens, "cd")
    tried = sum(f.diagnostics["newton_tried"] for f in fits)
    assert any(f.diagnostics["newton_tried"] > f.epochs for f in fits)
    assert tried <= len(seen) < 2 * tried
    assert len({id(beta) for beta in seen}) == len(seen)


@pytest.mark.parametrize("fit", [fit_amp, fit_cd])
def test_a_diverged_start_is_rejected(fit):
    # a diverged fit (NaN beta_hat, no hazard) is no start: the solver
    # says so, instead of failing on the hazard or blaming the penalty
    data, _ = generate_dataset(SignalSpec(p=60, nu=0.1, theta0=1.0, seed=36),
                               GeneratorSpec(zeta=2.0), seed=36)
    pen = ElasticNetPenalty.from_strength(0.5 / 0.75, 0.75)
    diverged = fit_amp(data, pen, cfg=SolverConfig(damping=1.0))
    assert diverged.diagnostics["stop_reason"] == "diverged"
    with pytest.raises(ValueError, match="start init has a non-finite beta_hat"):
        fit(data, pen, init=diverged)
    # a finite beta without a hazard starts CD, not AMP
    bare = FitResult(beta_hat=np.zeros(data.p), hazard=None, converged=True,
                     epochs=1, final_err=0.0)
    if fit is fit_amp:
        with pytest.raises(ValueError, match="start init has no hazard"):
            fit(data, pen, init=bare)
    else:
        assert fit(data, pen, init=bare).converged
    # a fit of another dataset is no start: its p coefficients must be
    # the data's, and for AMP its field xi, when present, has length n.
    # CD reads only beta, so it starts from a fit with the same p
    start = FitResult(beta_hat=np.zeros(data.p), converged=True, epochs=1,
                      final_err=0.0, xi=np.zeros(data.n),
                      hazard=nelson_aalen(data.times, data.events, np.zeros(data.n)))
    wider, _ = generate_dataset(SignalSpec(p=80, nu=0.1, theta0=1.0, seed=36),
                                GeneratorSpec(zeta=2.0), seed=36)
    with pytest.raises(ValueError, match=r"start init's beta_hat has shape \(60,\), not \(80,\)"):
        fit(wider, pen, init=start)
    fewer = SurvivalDataset(data.times[:-5], data.events[:-5], data.design[:-5])
    if fit is fit_amp:
        with pytest.raises(ValueError, match=r"start init's xi has shape \(30,\), not \(25,\)"):
            fit(fewer, pen, init=start)
    else:
        assert fit(fewer, pen, init=start).converged


def _plain_and_newton(data, pen, monkeypatch):
    cfg = SolverConfig(max_epochs=5000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = fit_cd(data, pen, cfg=cfg)
        with monkeypatch.context() as m:
            _plain_sweeps(m)
            plain = fit_cd(data, pen, cfg=cfg)
    return fast, plain


def _check_same_minimum(data, pen, fast, plain):
    # the minimizer need not be unique: compare the penalized loss and
    # the KKT residual, not beta
    assert fast.converged and plain.converged
    loss_fast = penalized_partial_likelihood(data, fast.beta_hat, pen)
    loss_plain = penalized_partial_likelihood(data, plain.beta_hat, pen)
    assert abs(loss_fast - loss_plain) <= 1e-10 * abs(loss_plain)
    assert fast.diagnostics["kkt_residual"] <= 1e-6
    assert plain.diagnostics["kkt_residual"] <= 1e-6


def test_cd_newton_lasso_support_exceeds_events(monkeypatch):
    # a lasso whose support outnumbers the events: H_AA is singular, and
    # the guard keeps the Newton steps safe
    data, _ = _instance(p=120, zeta=2.0, nu=0.3, seed=20)
    pen = ElasticNetPenalty.from_weights(0.12, 0.0)
    fast, plain = _plain_and_newton(data, pen, monkeypatch)
    assert np.count_nonzero(fast.beta_hat) > data.events.sum()
    assert fast.diagnostics["newton_kept"] > 0
    assert fast.epochs < plain.epochs
    _check_same_minimum(data, pen, fast, plain)


def test_cd_newton_duplicated_and_negated_columns(monkeypatch):
    # exact copies and negated copies of columns make X_A' H X_A singular
    # and the elastic-net minimizer split between the copies
    data, _ = _instance(p=80, zeta=2.0, nu=0.1, seed=21)
    design = data.design.copy()
    design[:, 40:50] = design[:, :10]
    design[:, 50:60] = -design[:, :10]
    data = SurvivalDataset(data.times, data.events, design)
    for pen in (PEN, ElasticNetPenalty.from_weights(0.1, 0.0)):
        fast, plain = _plain_and_newton(data, pen, monkeypatch)
        _check_same_minimum(data, pen, fast, plain)


def test_kkt_residual_certifies_both_solvers():
    # diagnostics["kkt_residual"] is the largest subgradient violation at
    # the returned beta, as the oracle gradient gives it
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    for fit in (fit_amp, fit_cd):
        res = fit(data, PEN)
        assert res.converged
        grad = ppl_gradient(data, res.beta_hat) + PEN.eta * res.beta_hat
        beta = res.beta_hat
        nz = beta != 0
        want = max(np.max(np.abs(grad[nz] + PEN.alpha * np.sign(beta[nz])),
                          initial=0.0),
                   np.max(np.abs(grad[~nz]) - PEN.alpha, initial=0.0))
        got = res.diagnostics["kkt_residual"]
        assert abs(got - want) <= 1e-12 * want
        assert 0.0 < got <= 1e-6


def test_kkt_residual_is_at_the_returned_beta():
    # each solver certifies with the gradient it has at beta_hat, bit for
    # bit that of a fresh Breslow pass there: warm, cold, unconverged and
    # no-event fits
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    cens = _all_censored()
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.5, 0.3, 0.16)]
    for solver, fit in solvers._SOLVERS.items():
        cases = [(data, pen, res) for pen, res in
                 zip(pens, reg_path(data, pens, solver))]
        cases.append((data, PEN, fit(data, PEN, cfg=SolverConfig(max_epochs=3))))
        with pytest.warns(UserWarning, match="no events"):
            cases.append((cens, PEN, fit(cens, PEN)))
        for d, pen, res in cases:
            fresh = solvers._Iterate(d.design, d.events,
                                     RiskSets(d.times, d.events), pen,
                                     res.beta_hat)
            assert res.diagnostics["kkt_residual"] == fresh.kkt


def test_cd_certifies_a_converged_amp_fit_in_one_sweep():
    # a start that is a KKT point to tol gets no Newton predictor: CD from
    # AMP's converged fit of the same penalty stops after one sweep
    data, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    for a in (0.5, 0.3):
        pen = ElasticNetPenalty.from_strength(a / 0.75, 0.75)
        amp = fit_amp(data, pen)
        assert amp.converged
        cert = fit_cd(data, pen, init=amp)
        assert cert.converged and cert.epochs == 1
        assert cert.diagnostics["newton_tried"] == 0


def test_amp_stall_stops_early(monkeypatch):
    # at damping 0.5, 0.3 or 0.2 this AMP fit, without its flip finder,
    # stays at err ~1e-2 for 3000 epochs; each stall halves the damping
    # until the floor stops it (with the finder it holds one coordinate
    # and converges)
    monkeypatch.setattr(solvers, "_flipping", lambda recent, alpha, free:
                        (np.zeros(0, dtype=int), np.zeros(0, dtype=int)))
    data, _ = _instance(p=60, zeta=2.0, nu=0.1, seed=5)
    res = fit_amp(data, PEN, cfg=SolverConfig(damping=0.5))
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


def test_damping_cut_rescues_stall_with_nothing_left_to_hold(monkeypatch):
    # the last point stalls after coordinate 37 has been frozen and then
    # switched, so it can no longer be held and the flip finder has nothing
    # new: the damping cut alone lets the fit converge, to the CD fit
    sig = SignalSpec(p=100, nu=0.05, theta0=1.0, seed=28)
    data, _ = generate_dataset(sig, GeneratorSpec(zeta=2.0), seed=28)
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.5, 0.4, 0.3, 0.22, 0.16)]
    amp = reg_path(data, pens, "amp")[-1]
    diag = amp.diagnostics
    assert amp.converged and diag["stop_reason"] == "tol"
    assert amp.epochs == 144 and diag["damping_cuts"] == [[143, 0.425]]
    assert [s for _, k, s in diag["frozen"] if k == 37] == [1, -1]
    # the switch restarts the stall window, which the cut closes
    switched = max(e for e, k, _ in diag["frozen"] if k == 37)
    assert diag["damping_cuts"][0][0] == switched + solvers.AMP_STALL_WINDOW
    assert diag["kkt_residual"] <= 1e-8
    cd = reg_path(data, pens, "cd")[-1]
    assert cd.converged
    rel = np.linalg.norm(amp.beta_hat - cd.beta_hat) / np.linalg.norm(cd.beta_hat)
    assert rel <= 1e-7
    # no cut allowed: the same point ends where the cut fired
    monkeypatch.setattr(solvers, "AMP_DAMPING_FLOOR", 1.0)
    held = reg_path(data, pens, "amp")[-1]
    assert not held.converged and held.diagnostics["stop_reason"] == "stalled"
    assert held.epochs == 143 and held.diagnostics["damping_cuts"] == []


def test_amp_recovers_after_damping_cut():
    # repetition 0 of the p=500 acceptance experiment, grid point 7: AMP
    # stalls at err ~2.6e-3 while one coordinate flips at the threshold;
    # holding its side in tau's divergence, it converges to the CD fit
    train_seed, _ = np.random.SeedSequence(2024).generate_state(2, dtype=np.uint64)
    sig = SignalSpec(p=500, nu=0.02, theta0=1.0, seed=2024)
    data, _ = generate_dataset(sig, GeneratorSpec(zeta=2.0), seed=int(train_seed))
    alphas = [round(float(a), 6) for a in np.geomspace(0.42, 0.13, 10)][:8]
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75) for a in alphas]
    amp = reg_path(data, pens, "amp")[-1]
    assert amp.converged and amp.diagnostics["stop_reason"] == "tol"
    assert len(amp.diagnostics["frozen"]) >= 1
    assert len(amp.diagnostics["err_history"]) == amp.epochs
    cd = reg_path(data, pens, "cd")[-1]
    assert cd.converged
    rel = np.linalg.norm(amp.beta_hat - cd.beta_hat) / np.linalg.norm(cd.beta_hat)
    assert rel <= 1e-4


def _fit_path_point_1():
    # repetition 0 of the p=500 acceptance experiment and the first two
    # points of its grid (the benchmark's fit_path data)
    train_seed, _ = np.random.SeedSequence(2024).generate_state(2, dtype=np.uint64)
    sig = SignalSpec(p=500, nu=0.02, theta0=1.0, seed=2024)
    data, _ = generate_dataset(sig, GeneratorSpec(zeta=2.0), seed=int(train_seed))
    alphas = [round(float(a), 6) for a in np.geomspace(0.42, 0.13, 10)][:2]
    return data, [ElasticNetPenalty.from_strength(a / 0.75, 0.75) for a in alphas]


def test_amp_freeze_resolves_threshold_cycle():
    # grid point 1 used to end "stalled" at every damping: one coordinate
    # crossed the threshold every epoch.  Held on one side in tau's
    # divergence, it converges to the CD fit without a damping cut, and
    # the fit is a fixed point of the unheld iteration: a warm restart,
    # holding nothing, stops at tol after one epoch
    data, pens = _fit_path_point_1()
    amp = reg_path(data, pens, "amp")[-1]
    diag = amp.diagnostics
    assert amp.converged and diag["stop_reason"] == "tol"
    assert diag["damping_cuts"] == []
    [(epoch, k, side)] = diag["frozen"]
    assert 0 < epoch < amp.epochs and side in (-1, 1)
    cd = reg_path(data, pens, "cd")[-1]
    assert cd.converged
    rel = np.linalg.norm(amp.beta_hat - cd.beta_hat) / np.linalg.norm(cd.beta_hat)
    assert rel <= 1e-4
    again = fit_amp(data, pens[1], init=amp)
    assert again.epochs == 1 and again.diagnostics["stop_reason"] == "tol"
    assert again.diagnostics["frozen"] == []


def test_amp_holds_a_flat_cycle_before_the_stall_window():
    # point 1's err goes flat in a threshold 2-cycle long before a stall
    # window ends: the flip finder holds the cycling coordinate then, and
    # the fit converges within one stall window
    data, pens = _fit_path_point_1()
    amp = reg_path(data, pens, "amp")[-1]
    diag = amp.diagnostics
    [(epoch, k, side)] = diag["frozen"]
    assert epoch < solvers.AMP_STALL_WINDOW
    assert solvers._flat(diag["err_history"][epoch - solvers.AMP_FLIP_WINDOW:epoch])
    assert amp.converged and diag["stop_reason"] == "tol"
    assert amp.epochs <= solvers.AMP_STALL_WINDOW and diag["damping_cuts"] == []


def test_amp_freeze_switches_a_wrong_side(monkeypatch):
    # a first side that the converged point contradicts is switched once
    # (a second entry for the coordinate, with the other sign), and the fit
    # reaches the one it reaches from the right side
    data, pens = _fit_path_point_1()
    right = reg_path(data, pens, "amp")[-1]
    flipping = solvers._flipping

    def wrong_side(*args):
        new, side = flipping(*args)
        return new, -side

    monkeypatch.setattr(solvers, "_flipping", wrong_side)
    amp = reg_path(data, pens, "amp")[-1]
    assert amp.converged and amp.diagnostics["stop_reason"] == "tol"
    [(e1, k1, s1)] = right.diagnostics["frozen"]
    [(e2, k2, s2), (e3, k3, s3)] = amp.diagnostics["frozen"]
    assert (e2, k2, s2) == (e1, k1, -s1)
    assert e3 > e2 and (k3, s3) == (k1, s1)
    rel = np.linalg.norm(amp.beta_hat - right.beta_hat) / np.linalg.norm(right.beta_hat)
    assert rel <= 1e-6


def test_amp_without_stalls_is_the_plain_loop():
    # at the former default damping 0.5 a fit that never stalls holds
    # nothing, and is bit for bit the plain AMP loop at that damping
    data, _ = _instance(p=80, zeta=2.0, nu=0.05, seed=13)
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75) for a in (0.42, 0.37)]
    init = None
    for pen, fit in zip(pens, reg_path(data, pens, "amp", cfg=SolverConfig(damping=0.5))):
        ref = reference_amp(data, pen, init=init, d=0.5)
        init = ref
        assert fit.converged and fit.epochs == ref.epochs
        assert fit.diagnostics["frozen"] == fit.diagnostics["damping_cuts"] == []
        for got, want in [(fit.beta_hat, ref.beta_hat), (fit.xi, ref.xi),
                          (fit.tau, ref.tau), (fit.tau_hat, ref.tau_hat),
                          (fit.hazard.values, ref.hazard.values)]:
            assert np.array_equal(got, want)


def test_steady_amp_fit_holds_nothing():
    # heavily damped, this fit takes some 400 epochs with err falling
    # steadily: it never goes flat, holds nothing, and is bit for bit the
    # plain AMP loop
    data, _ = _instance(p=80, zeta=2.0, nu=0.05, seed=13)
    fit = fit_amp(data, PEN, cfg=SolverConfig(damping=0.1))
    ref = reference_amp(data, PEN, d=0.1)
    assert fit.converged and fit.epochs == ref.epochs > 400
    errs = fit.diagnostics["err_history"]
    assert not any(solvers._flat(errs[i - solvers.AMP_FLIP_WINDOW:i])
                   for i in range(solvers.AMP_FLIP_WINDOW, len(errs) + 1))
    assert fit.diagnostics["frozen"] == fit.diagnostics["damping_cuts"] == []
    for got, want in [(fit.beta_hat, ref.beta_hat), (fit.xi, ref.xi),
                      (fit.tau, ref.tau), (fit.tau_hat, ref.tau_hat),
                      (fit.hazard.values, ref.hazard.values)]:
        assert np.array_equal(got, want)


def _above_size_rule():
    data, _ = _instance(p=300, zeta=2.0, nu=0.05, seed=13)
    assert data.n * data.p > solvers.F32_MIN_SIZE
    return data


def test_float32_products_keep_the_float64_fixed_points(monkeypatch):
    # above the size rule AMP's early epochs and CD's Newton CG form their
    # products with the design in float32, without a floating-point
    # warning.  Every point converges, as do the float64 reference loops,
    # to the same coefficients within the tolerance: each side stops at a
    # step below tol = 1e-8, and these paths contract fast (at most 40
    # epochs to tol), so betas agree well inside 10 tol relative L2, the
    # bound of the Newton tests above.  Measured: 1.6e-10 for AMP, 1.7e-9
    # for CD (its reference runs plain sweeps, which stop elsewhere
    # within tol); against the solvers with the size rule raised, 1.6e-10
    # and 2.5e-13.  Below the rule the Newton step gets the float64 view
    # of X', data.design.T: no copy of the design
    data = _above_size_rule()
    pens = [ElasticNetPenalty.from_strength(a / 0.75, 0.75)
            for a in (0.42, 0.37, 0.32)]
    seen = set()
    step = solvers._newton_step

    def spied(X, *args):
        seen.add((X.dtype, X.base is small.design))
        return step(X, *args)
    monkeypatch.setattr(solvers, "_newton_step", spied)
    small, _ = _instance(p=120, zeta=2.0, nu=0.05, seed=3)
    assert small.n * small.p <= solvers.F32_MIN_SIZE
    assert all(fit.converged for fit in reg_path(small, pens, "cd"))
    assert seen == {(np.dtype(np.float64), True)}
    seen.clear()
    for solver, reference, ref_kw in (
            ("amp", reference_amp, {"d": SolverConfig().damping}),
            ("cd", reference_cd, {})):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fits = reg_path(data, pens, solver)
        init = None
        for pen, fit in zip(pens, fits):
            ref = reference(data, pen, init=init, **ref_kw)
            init = ref
            assert fit.converged and ref.converged
            rel = (np.linalg.norm(fit.beta_hat - ref.beta_hat)
                   / np.linalg.norm(ref.beta_hat))
            assert 0.0 < rel <= 10 * SolverConfig().tol
    assert seen == {(np.dtype(np.float32), False)}


def test_float32_amp_restart_and_divergence():
    # a warm start's first epoch runs in float64: restarted at its own
    # converged fit, AMP stops after that epoch.  An undamped fit whose
    # err grows, and so whose epochs run in float32, is still reported as
    # diverged, naming the field, with no floating-point warning
    data = _above_size_rule()
    fit = fit_amp(data, PEN)
    again = fit_amp(data, PEN, init=fit)
    assert fit.converged and again.converged and again.epochs == 1
    sig = SignalSpec(p=520, nu=0.1, theta0=1.0, seed=3)
    wide, _ = generate_dataset(sig, GeneratorSpec(zeta=8.0), seed=3)
    assert wide.n * wide.p > solvers.F32_MIN_SIZE
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        diverged = fit_amp(wide, ElasticNetPenalty.from_strength(0.2 / 0.75, 0.75),
                           cfg=SolverConfig(damping=1.0))
    assert diverged.diagnostics["stop_reason"] == "diverged"
    assert re.match(r"^non-finite \w+ at epoch \d+; the penalty",
                    diverged.diagnostics["error"])
