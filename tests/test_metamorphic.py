"""Metamorphic checks across the pipeline.

Cox's partial likelihood sees the times only through their order, and the
samples and the covariates as sets (Cox, JRSS-B 34, 1972).  So each stage
gives the same output on data whose times take a strictly increasing
transform, whose samples are permuted, or whose columns are permuted (beta
permuted to match): bit for bit under the transform, where the arithmetic
is the same, and to rounding under the permutations, where sums change
order.  CD's sweep visits the columns in index order, so a column
permutation changes its iteration and leaves its fit within the solver's
tolerance only.
"""

import functools

import numpy as np
import pytest

from coxfield.observables import estimate_from_amp, estimate_from_cd
from coxfield.prox import ElasticNetPenalty
from coxfield.rs import RsPopulation, sample_population, solve_rs
from coxfield.solvers import fit_amp, fit_cd
from coxfield.survival import SurvivalDataset, harrell_c, rscv_c_index
from coxfield.synthgen import GeneratorSpec, SignalSpec, generate_dataset

GEN = GeneratorSpec(zeta=2.0)
PEN = ElasticNetPenalty.from_strength(0.3 / 0.75, 0.75)
SOLVERS = {"amp": fit_amp, "cd": fit_cd}
VARIANTS = ("time", "samples", "columns")


def _monotone(t):
    return t ** 3 + 5.0 * t


@functools.cache
def _problem(variant):
    """The train and test data of one p=200 problem in a variant (None:
    as drawn), and the map that takes a coefficient vector to it."""
    sig = SignalSpec(p=200, nu=0.05, theta0=1.0, seed=3)
    data = [generate_dataset(sig, GEN, seed=seed)[0] for seed in (3, 4)]
    rng = np.random.default_rng(3)
    rows, cols = rng.permutation(data[0].n), rng.permutation(data[0].p)
    change, beta_map = {
        None: (lambda d: d, lambda b: b),
        "time": (lambda d: SurvivalDataset(_monotone(d.times), d.events,
                                           d.design), lambda b: b),
        "samples": (lambda d: SurvivalDataset(d.times[rows], d.events[rows],
                                              d.design[rows]), lambda b: b),
        "columns": (lambda d: SurvivalDataset(d.times, d.events,
                                              d.design[:, cols]),
                    lambda b: b[cols]),
    }[variant]
    return [change(d) for d in data], beta_map


@functools.cache
def _fit(variant, solver):
    (train, _), _ = _problem(variant)
    fit = SOLVERS[solver](train, PEN)
    assert fit.converged
    return fit


def _tolerance(variant, solver):
    # bit for bit under the transform; CD's sweep order moves with the
    # columns, within its tolerance
    if variant == "time":
        return 0.0
    return 1e-8 if (variant, solver) == ("columns", "cd") else 1e-12


def _assert_close(got, want, rel):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if rel == 0.0:
        assert np.array_equal(got, want)
    else:
        assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_fits_are_invariant(variant, solver):
    base, fit = _fit(None, solver), _fit(variant, solver)
    _, beta_map = _problem(variant)
    rel = _tolerance(variant, solver)
    _assert_close(fit.beta_hat, beta_map(base.beta_hat), rel)
    _assert_close(fit.hazard.values, base.hazard.values, rel)
    knots = base.hazard.knots
    assert np.array_equal(fit.hazard.knots,
                          _monotone(knots) if variant == "time" else knots)
    if variant == "time":
        assert fit.epochs == base.epochs
        assert fit.final_err == base.final_err


def _estimate(variant, route):
    (train, _), _ = _problem(variant)
    fit, zeta = _fit(variant, route), train.p / train.n
    return (estimate_from_amp(train, fit, zeta) if route == "amp"
            else estimate_from_cd(train, fit, PEN, zeta))


@pytest.mark.parametrize("route", ["amp", "cd"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_estimates_are_invariant(variant, route):
    base, est = _estimate(None, route), _estimate(variant, route)
    rel = _tolerance(variant, route)
    _assert_close(est.as_array(), base.as_array(), rel)
    _assert_close(est.v_hat_alt, base.v_hat_alt, rel)


def _concordances(variant, solver):
    # RSCV at the fit's tau (AMP's own, CD's estimated) and test C
    (train, test), _ = _problem(variant)
    fit = _fit(variant, solver)
    tau = fit.tau if solver == "amp" else _estimate(variant, "cd").tau
    return [rscv_c_index(train, fit.beta_hat, fit.hazard, tau),
            harrell_c(test.times, test.events, test.design @ fit.beta_hat)]


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_concordances_are_invariant(variant, solver):
    _assert_close(_concordances(variant, solver), _concordances(None, solver),
                  _tolerance(variant, solver))


@pytest.mark.parametrize("transform", [_monotone, np.log])
def test_solve_rs_is_invariant_to_a_time_transform(transform):
    pop = sample_population(GEN, 1.0, 2000, seed=4)
    moved = RsPopulation(z0=pop.z0, q=pop.q, delta=pop.delta,
                         t=transform(pop.t), theta0=pop.theta0)
    (op, lam), (op_t, lam_t) = (solve_rs(PEN, 0.05, 2.0, p) for p in (pop, moved))
    assert np.array_equal(op_t.as_array(), op.as_array())
    assert op_t.diagnostics["iterations"] == op.diagnostics["iterations"]
    assert np.array_equal(lam_t.values, lam.values)
    assert np.array_equal(lam_t.knots, transform(lam.knots))
