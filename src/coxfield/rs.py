"""Replica-symmetric theory solver.

Solves the six coupled RS equations for the order parameters
(w, v, tau, w_hat, v_hat, tau_hat) of the regularized Cox model, with the
functional cumulative-hazard fixed point evaluated over a Monte Carlo
population of tuples (Delta, T, Z0, Q).  The prior-side expectations use
elastic-net closed forms (Gaussian tail/density); the data-side
expectations are population averages.
"""

from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import ClassVar

import numpy as np

from .prox import check_path_order, prox_g
from .scalar import std_normal_pdf, std_normal_tail
from .survival import RiskSets
from .synthgen import SignalSpec, _sample_times_given_eta

# the RS loop's sup-norm bounds on the undamped hazard residual and scalar
# change, its step limit, and the weight of the new iterate in each step
_HAZARD_TOL = 1e-8
_SCALAR_TOL = 1e-6
_MAX_ITER = 500
_DAMPING = 0.5


class RsInconsistencyError(RuntimeError):
    """The RS right-hand side left the admissible region."""


class RsNonConvergenceError(RuntimeError):
    """The RS fixed-point loop ran out of iterations; carries their number
    and the last undamped hazard and scalar residuals."""

    def __init__(self, iterations, hazard_residual, scalar_residual):
        super().__init__(f"RS fixed point did not converge after {iterations} "
                         f"iterations (hazard residual {hazard_residual:.3e}, "
                         f"scalar residual {scalar_residual:.3e})")
        self.iterations = iterations
        self.hazard_residual = hazard_residual
        self.scalar_residual = scalar_residual


@dataclass(frozen=True)
class OrderParameters:
    """The six RS scalars, in the order of `NAMES`: the RS solution of
    `solve_rs`, or a data-only estimate (`OrderParameterEstimate`).
    `diagnostics` (what the solve or estimate did) stays out of
    comparisons."""

    NAMES: ClassVar[tuple] = ("w", "v", "tau", "w_hat", "v_hat", "tau_hat")
    w: float
    v: float
    tau: float
    w_hat: float
    v_hat: float
    tau_hat: float
    diagnostics: dict = field(default_factory=dict, compare=False, repr=False)

    def as_array(self):
        return np.array([getattr(self, name) for name in self.NAMES])

    @classmethod
    def from_array(cls, a, **rest):
        """`a` holds the six scalars in NAMES order; `rest` the other fields."""
        return cls(*map(float, a), **rest)


@dataclass(frozen=True)
class RsPopulation:
    """Monte Carlo population (Z0, Q, Delta, T) with (Delta, T) | Z0 drawn
    from the survival generator at linear predictor theta0 * Z0, in any
    order (`sample_population` draws it in time order)."""

    z0: np.ndarray
    q: np.ndarray
    delta: np.ndarray
    t: np.ndarray
    theta0: float

    @property
    def size(self):
        return self.t.shape[0]

    @cached_property
    def risk_sets(self):
        """The population's risk sets, shared by every solve on it (so the
        hazards of one population share their knots)."""
        return RiskSets(self.t, self.delta)


def sample_population(gen, theta0, n_pop=5000, seed=0):
    """Draw an i.i.d. RS population of size n_pop (at least 100), in
    ascending time order."""
    if n_pop < 100:
        raise ValueError("population size must be at least 100")
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal(n_pop)
    q = rng.standard_normal(n_pop)
    t, delta = _sample_times_given_eta(theta0 * z0, gen, rng)
    order = np.argsort(t, kind="stable")
    return RsPopulation(z0=z0[order], q=q[order], delta=delta[order],
                        t=t[order], theta0=theta0)


def _fixed_point(pop, x, scalar_map):
    # the one damped loop over the state (scalars x = (w, v, tau, ...),
    # hazard at pop.t), from the Nelson-Aalen hazard at the raw field;
    # scalar_map(x, u, xi) proposes the scalars.  Returns (x, StepHazard,
    # iterations, hazard and scalar residuals) at the first iterate that
    # meets both tolerances.  The start check is written so NaN fails it.
    if not (np.all(np.isfinite(x)) and x[2] > 0):
        raise ValueError("the start (w, v, tau, ...) must be finite, "
                         "with tau positive")
    risk = pop.risk_sets
    lam = risk.hazard(x[0] * pop.z0 + x[1] * pop.q)
    haz_res = scal_res = np.inf
    for it in range(1, _MAX_ITER + 1):
        u = x[0] * pop.z0 + x[1] * pop.q
        xi = prox_g(u, lam, pop.delta, x[2])
        lam_new = risk.hazard(xi)
        prop = scalar_map(x, u, xi)
        haz_res = float(np.max(np.abs(lam_new - lam)))
        scal_res = float(np.max(np.abs(prop - x)))
        if haz_res <= _HAZARD_TOL and scal_res <= _SCALAR_TOL:
            return x, risk.step_hazard(lam), it, haz_res, scal_res
        x = (1.0 - _DAMPING) * x + _DAMPING * prop
        lam = (1.0 - _DAMPING) * lam + _DAMPING * lam_new
    raise RsNonConvergenceError(_MAX_ITER, haz_res, scal_res)


def solve_lambda(pop, w, v, tau):
    """Solve the self-consistent cumulative-hazard equations at (w, v, tau).

    The `solve_rs` loop with the scalars held: the damped hazard map
    S(t_i) = mean_j Theta(t_j - t_i) e^{xi_j}, Lambda(t_i) = mean_j
    Theta(t_i - t_j) delta_j / S(t_j) (the Nelson-Aalen estimator at
    linear predictors xi) at xi = prox_g(w Z0 + v Q, Lambda, Delta, tau).
    Returns the first iterate whose undamped residual is at most
    _HAZARD_TOL, as a StepHazard.  perfbench traces it; ROADMAP item 3
    deletes it once item 1 drops that tracer site.
    """
    return _fixed_point(pop, np.array([w, v, tau], dtype=float),
                        lambda x, u, xi: x)[1]


def enet_prior_moments(w_hat, v_hat, tau_hat, pen, nu):
    """Closed-form Gaussian expectations over the elastic-net prox.

    For the Gauss-Bernoulli signal prior, returns
    (E[beta0 phi]/theta0, E[prox'], E[phi^2]) where
    phi = prox_enet(w_hat*beta0/theta0 + v_hat*Z, tau_hat).
    """
    if v_hat <= 0:
        raise RsInconsistencyError("v_hat must be positive for the prior moments")
    a = pen.alpha * tau_hat
    shrink = 1.0 + pen.eta * tau_hat
    sigma1 = np.sqrt(v_hat ** 2 + w_hat ** 2 / nu)
    chi0 = a / v_hat
    chi1 = a / sigma1
    tail0, tail1 = std_normal_tail(chi0), std_normal_tail(chi1)
    pdf0, pdf1 = std_normal_pdf(chi0), std_normal_pdf(chi1)
    overlap = 2.0 * w_hat * tail1 / shrink
    active = 2.0 * (nu * tail1 + (1.0 - nu) * tail0)
    second = 2.0 * (nu * ((sigma1 ** 2 + a ** 2) * tail1 - sigma1 * a * pdf1)
                    + (1.0 - nu) * ((v_hat ** 2 + a ** 2) * tail0 - v_hat * a * pdf0)) \
        / shrink ** 2
    return overlap, active / shrink, second


def rs_rhs_enet(op, pop, lam, pen, nu, zeta):
    """Evaluate the right-hand sides of the six RS equations.

    Prior side (from w_hat, v_hat, tau_hat, in closed form): proposed
    w, tau, and v via the second moment of phi.  Data side (population
    averages of xi at the current w, v, tau and the StepHazard `lam`):
    proposed w_hat, tau_hat, v_hat.  Pure function of its inputs.  The
    joint loop of `solve_rs` calls `_rhs_from_xi` on the xi it already
    has; this entry point serves perfbench's rs_path check and tracer.

    Raises
    ------
    RsInconsistencyError
        If v_hat = 0, the proposed squared v is negative, or the
        tau_hat denominator v - E[Q xi] is not positive.
    """
    u = op.w * pop.z0 + op.v * pop.q
    xi = prox_g(u, lam.evaluate(pop.t), pop.delta, op.tau)
    return OrderParameters.from_array(
        _rhs_from_xi(op.as_array(), pop, u, xi, pen, nu, zeta))


def _rhs_from_xi(x, pop, u, xi, pen, nu, zeta):
    # the six right-hand sides, as an array, at the scalars x given the
    # proximal points xi of the field u = w Z0 + v Q, both in pop's order
    w, v, tau, w_hat, v_hat, tau_hat = map(float, x)
    e_z0xi = np.mean(pop.z0 * xi)
    e_qxi = np.mean(pop.q * xi)
    e_sq = np.mean((xi - u) ** 2)

    w_hat_new = w - (tau_hat / (zeta * tau)) * (w - e_z0xi)
    denom = v - e_qxi
    if denom <= 0:
        raise RsInconsistencyError("nonpositive tau_hat denominator v - E[Q xi]")
    tau_hat_new = zeta * tau * v / denom
    v_hat_new = (tau_hat / tau) * np.sqrt(e_sq / zeta)

    overlap, active, second = enet_prior_moments(w_hat, v_hat, tau_hat, pen, nu)
    disc = second - overlap ** 2
    if disc < 0:
        raise RsInconsistencyError("RS inconsistency: negative proposed v^2")
    return np.array([overlap, np.sqrt(disc), tau_hat * active,
                     w_hat_new, v_hat_new, tau_hat_new])


# the default start, in NAMES order; w and w_hat are scaled by theta0
_DEFAULT_INIT = np.array([0.5, 0.5, 1.0, 0.5, 0.5, 1.0])


def solve_rs(pen, nu, zeta, pop, init=None):
    """Solve the six RS equations and the hazard equations jointly.

    The one damped fixed-point loop over (order parameters, hazard):
    each step takes the hazard map and the six right-hand sides from one
    xi = prox_g(w Z0 + v Q, Lambda, Delta, tau) and damps both.  Returns
    the first iterate whose undamped hazard residual is at most
    _HAZARD_TOL = 1e-8 and scalar change at most _SCALAR_TOL = 1e-6
    (sup-norms); at most _MAX_ITER = 500 steps.
    `pop` (from `sample_population`) fixes theta0; reuse it and its risk
    sets across calls for common random numbers along a path.

    Returns (OrderParameters, StepHazard); the order parameters'
    `diagnostics` hold the joint `iterations`, the final
    `hazard_residual` and `scalar_residual`, and `seconds`.
    """
    start = perf_counter()
    x = (init.as_array() if init is not None
         else _DEFAULT_INIT * (pop.theta0, 1.0, 1.0, pop.theta0, 1.0, 1.0))
    x, lam, it, haz_res, scal_res = _fixed_point(
        pop, x, lambda x, u, xi: _rhs_from_xi(x, pop, u, xi, pen, nu, zeta))
    return OrderParameters.from_array(x, diagnostics={
        "iterations": it, "hazard_residual": haz_res,
        "scalar_residual": scal_res, "seconds": perf_counter() - start}), lam


def solve_rs_path(pens, nu, theta0, zeta, gen, n_pop=5000, seed=0,
                  inits=None):
    """Solve the RS equations along a penalty grid with warm starts.

    The grid must pass `prox.check_path_order`, nu must lie in (0, 1]
    and theta0 be finite and positive (ValueError).  One population is
    drawn once and reused at every grid point.  Points that fail
    (non-convergence or RS inconsistency) are returned as None.
    `inits` optionally supplies a per-point starting OrderParameters (e.g.
    a previously solved path on another population), one entry per point
    (ValueError otherwise); where it is None or its entry is, the point
    starts from the previous point's solution.
    """
    check_path_order(pens, inits)
    # the signal's own checks of nu and theta0
    SignalSpec(1, nu, theta0, seed=seed)
    pop = sample_population(gen, theta0, n_pop, seed)
    results = []
    init = None
    for i, pen in enumerate(pens):
        start = inits[i] if inits is not None and inits[i] is not None else init
        try:
            op, lam = solve_rs(pen, nu, zeta, pop, init=start)
        except (RsInconsistencyError, RsNonConvergenceError):
            results.append(None)
        else:
            init = op
            results.append((op, lam))
    return results


def sample_prior(nu, theta0, n_draws, seed):
    """i.i.d. draws from the Gauss-Bernoulli signal prior and N(0,1)."""
    rng = np.random.default_rng(seed)
    beta0 = np.where(rng.uniform(size=n_draws) < nu,
                     rng.normal(0.0, theta0 / np.sqrt(nu), size=n_draws), 0.0)
    z = rng.standard_normal(n_draws)
    return beta0, z

