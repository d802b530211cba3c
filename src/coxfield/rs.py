"""Replica-symmetric theory solver.

Solves the six coupled RS equations for the order parameters
(w, v, tau, w_hat, v_hat, tau_hat) of the regularized Cox model, with the
functional cumulative-hazard fixed point evaluated over a Monte Carlo
population of tuples (Delta, T, Z0, Q).  The prior-side expectations use
elastic-net closed forms (Gaussian tail/density); the data-side
expectations are population averages.
"""

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .prox import prox_enet, prox_g
from .scalar import std_normal_pdf, std_normal_tail
from .survival import SortedRiskSets
from .synthgen import _sample_times_given_eta

# sup-norm bound on the undamped hazard-map residual at a returned hazard
_HAZARD_TOL = 1e-8


class RsInconsistencyError(RuntimeError):
    """The RS right-hand side left the admissible region."""


class RsNonConvergenceError(RuntimeError):
    """A fixed-point loop ran out of iterations; carries their number and
    the last undamped hazard and (joint loop only) scalar residuals."""

    def __init__(self, message, iterations, hazard_residual,
                 scalar_residual=None):
        scalar = ("" if scalar_residual is None
                  else f", scalar residual {scalar_residual:.3e}")
        super().__init__(f"{message} after {iterations} iterations "
                         f"(hazard residual {hazard_residual:.3e}{scalar})")
        self.iterations = iterations
        self.hazard_residual = hazard_residual
        self.scalar_residual = scalar_residual


@dataclass
class OrderParameters:
    """The six RS scalars, with `solve_rs` diagnostics kept out of
    comparisons."""

    w: float
    v: float
    tau: float
    w_hat: float
    v_hat: float
    tau_hat: float
    diagnostics: dict = field(default_factory=dict, compare=False, repr=False)

    def as_array(self):
        return np.array([self.w, self.v, self.tau,
                         self.w_hat, self.v_hat, self.tau_hat])

    @staticmethod
    def from_array(a):
        return OrderParameters(*map(float, a))


@dataclass(frozen=True)
class RsPopulation:
    """Monte Carlo population (Z0, Q, Delta, T) with (Delta, T) | Z0 drawn
    from the survival generator at linear predictor theta0 * Z0."""

    z0: np.ndarray
    q: np.ndarray
    delta: np.ndarray
    t: np.ndarray
    theta0: float

    @property
    def size(self):
        return self.t.shape[0]

    def _sorted(self):
        # (this population in ascending time order, its risk sets), cached
        cached = getattr(self, "_sorted_cache", None)
        if cached is None:
            order = np.argsort(self.t, kind="stable")
            srt = RsPopulation(self.z0[order], self.q[order],
                               self.delta[order], self.t[order], self.theta0)
            cached = (srt, SortedRiskSets(srt.t, srt.delta))
            object.__setattr__(self, "_sorted_cache", cached)
        return cached


def sample_population(gen, theta0, n_pop=5000, seed=0):
    """Draw an i.i.d. RS population of size n_pop (at least 100)."""
    if n_pop < 100:
        raise ValueError("population size must be at least 100")
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal(n_pop)
    q = rng.standard_normal(n_pop)
    t, delta = _sample_times_given_eta(theta0 * z0, gen, rng)
    return RsPopulation(z0=z0, q=q, delta=delta, t=t, theta0=theta0)


def solve_lambda(pop, w, v, tau, damping=0.5, tol=_HAZARD_TOL, max_iter=500):
    """Solve the self-consistent cumulative-hazard equations at (w, v, tau).

    The hazard half of the `solve_rs` loop with the scalars held fixed:
    damped iteration of the hazard map S(t_i) = mean_j Theta(t_j - t_i)
    e^{xi_j}, Lambda(t_i) = mean_j Theta(t_i - t_j) delta_j / S(t_j) (the
    Nelson-Aalen estimator at linear predictors xi) at xi = prox_g(w Z0
    + v Q, Lambda, Delta, tau), started from its value at the raw field.
    Stops when the sup-norm of the *undamped* map residual falls below
    tol and returns that iterate as a StepHazard, so it satisfies the
    first hazard equation to that accuracy.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    sp, risk = pop._sorted()
    u = w * sp.z0 + v * sp.q
    lam = risk.hazard(u)
    residual = np.inf
    for _ in range(max_iter):
        lam_new = risk.hazard(prox_g(u, lam, sp.delta, tau))
        residual = np.max(np.abs(lam_new - lam))
        if residual <= tol:
            return risk.step_hazard(lam)
        lam = (1.0 - damping) * lam + damping * lam_new
    raise RsNonConvergenceError("hazard fixed point did not converge",
                                max_iter, residual)


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
    averages of xi at the current w, v, tau and the hazard `lam`, any
    callable cumulative hazard such as a StepHazard): proposed w_hat,
    tau_hat, v_hat.  Pure function of its inputs.

    Raises
    ------
    RsInconsistencyError
        If v_hat = 0, the proposed squared v is negative, or the
        tau_hat denominator v - E[Q xi] is not positive.
    """
    u = op.w * pop.z0 + op.v * pop.q
    xi = prox_g(u, lam(pop.t), pop.delta, op.tau)
    return _rhs_from_xi(op, pop, u, xi, pen, nu, zeta)


def _rhs_from_xi(op, pop, u, xi, pen, nu, zeta):
    # the six right-hand sides given the proximal points xi of the field
    # u = w Z0 + v Q, both in the order of `pop`
    e_z0xi = np.mean(pop.z0 * xi)
    e_qxi = np.mean(pop.q * xi)
    e_sq = np.mean((xi - u) ** 2)

    w_hat_new = op.w - (op.tau_hat / (zeta * op.tau)) * (op.w - e_z0xi)
    denom = op.v - e_qxi
    if denom <= 0:
        raise RsInconsistencyError("nonpositive tau_hat denominator v - E[Q xi]")
    tau_hat_new = zeta * op.tau * op.v / denom
    v_hat_new = (op.tau_hat / op.tau) * np.sqrt(e_sq / zeta)

    overlap, active, second = enet_prior_moments(op.w_hat, op.v_hat, op.tau_hat,
                                                 pen, nu)
    w_new = overlap
    tau_new = op.tau_hat * active
    disc = second - w_new ** 2
    if disc < 0:
        raise RsInconsistencyError("RS inconsistency: negative proposed v^2")
    return OrderParameters(w=w_new, v=float(np.sqrt(disc)), tau=tau_new,
                           w_hat=float(w_hat_new), v_hat=float(v_hat_new),
                           tau_hat=float(tau_hat_new))


# (w, v, tau, w_hat, v_hat, tau_hat); w and w_hat are scaled by theta0
_DEFAULT_INIT = np.array([0.5, 0.5, 1.0, 0.5, 0.5, 1.0])


def solve_rs(pen, nu, theta0, zeta, gen, n_pop=5000, seed=0, damping=0.5,
             tol=1e-6, max_iter=500, init=None, pop=None):
    """Solve the six RS equations and the hazard equations jointly.

    One damped fixed-point loop over (order parameters, hazard) on the
    time-sorted population: each step computes xi = prox_g(w Z0 + v Q,
    Lambda, Delta, tau) once, applies the hazard map to it once, takes
    the six right-hand sides from the same xi, and damps scalars and
    hazard together.  Stops when the undamped hazard residual is at most
    1e-8 and the undamped scalar change at most `tol` (sup-norms), and
    returns that verified iterate; `max_iter` counts joint steps.  Pass
    `pop` to reuse one population across calls (common random numbers
    along a regularization path).

    Returns (OrderParameters, StepHazard); the order parameters'
    `diagnostics` hold the joint `iterations`, the final
    `hazard_residual` and `scalar_residual`, and `seconds`.
    """
    start = perf_counter()
    if pop is None:
        pop = sample_population(gen, theta0, n_pop, seed)
    x = (init.as_array() if init is not None
         else _DEFAULT_INIT * (theta0, 1.0, 1.0, theta0, 1.0, 1.0))
    if x[2] <= 0:
        raise ValueError("tau must be positive")
    sp, risk = pop._sorted()
    # tau-free start: the population Nelson-Aalen hazard at the raw field
    lam = risk.hazard(x[0] * sp.z0 + x[1] * sp.q)
    haz_res = scal_res = np.inf
    for it in range(1, max_iter + 1):
        op = OrderParameters.from_array(x)
        u = op.w * sp.z0 + op.v * sp.q
        xi = prox_g(u, lam, sp.delta, op.tau)
        lam_new = risk.hazard(xi)
        prop = _rhs_from_xi(op, sp, u, xi, pen, nu, zeta).as_array()
        haz_res = float(np.max(np.abs(lam_new - lam)))
        scal_res = float(np.max(np.abs(prop - x)))
        if haz_res <= _HAZARD_TOL and scal_res <= tol:
            op.diagnostics = {"iterations": it, "hazard_residual": haz_res,
                              "scalar_residual": scal_res,
                              "seconds": perf_counter() - start}
            return op, risk.step_hazard(lam)
        x = (1.0 - damping) * x + damping * prop
        lam = (1.0 - damping) * lam + damping * lam_new
    raise RsNonConvergenceError("RS fixed point did not converge", max_iter,
                                haz_res, scal_res)


def solve_rs_path(pens, nu, theta0, zeta, gen, n_pop=5000, seed=0,
                  damping=0.5, tol=1e-6, max_iter=500, inits=None):
    """Solve the RS equations along a penalty grid with warm starts.

    One population is drawn once and reused at every grid point.  Points
    that fail (non-convergence or RS inconsistency) are returned as None.
    `inits` optionally supplies a per-point starting OrderParameters
    (e.g. a previously solved path on another population); otherwise each
    point starts from the previous point's solution.
    """
    pop = sample_population(gen, theta0, n_pop, seed)
    results = []
    init = None
    for i, pen in enumerate(pens):
        start = init
        if inits is not None and inits[i] is not None:
            start = inits[i]
        try:
            op, lam = solve_rs(pen, nu, theta0, zeta, gen, seed=seed,
                               damping=damping, tol=tol, max_iter=max_iter,
                               init=start, pop=pop)
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


def rs_residuals_general(op, pop, beta0_draws, z_draws, pen, theta0, zeta,
                         lam=None):
    """Monte Carlo residuals of the six RS equations in their general form.

    Uses phi = prox_enet(w_hat*beta0/theta0 + v_hat*Z, tau_hat) on the
    prior side (no closed forms), and the population on the data side;
    cross-validates the closed-form solution path.  Returns an array of
    six residuals ordered (rs1, ..., rs6).
    """
    phi = prox_enet(op.w_hat * beta0_draws / theta0 + op.v_hat * z_draws,
                    op.tau_hat, pen)
    if lam is None:
        lam = solve_lambda(pop, op.w, op.v, op.tau)
    u = op.w * pop.z0 + op.v * pop.q
    xi = prox_g(u, lam.evaluate(pop.t), pop.delta, op.tau)
    r = np.empty(6)
    r[0] = op.w - np.mean(beta0_draws * phi) / theta0
    r[1] = op.v_hat * op.tau / op.tau_hat - np.mean(z_draws * phi)
    r[2] = (op.w ** 2 + op.v ** 2) - np.mean(phi ** 2)
    r[3] = op.w_hat - (op.w - (op.tau_hat / (zeta * op.tau))
                       * (op.w - np.mean(pop.z0 * xi)))
    r[4] = op.v * (1.0 - zeta * op.tau / op.tau_hat) - np.mean(pop.q * xi)
    r[5] = zeta * op.v_hat ** 2 - (op.tau_hat / op.tau) ** 2 * np.mean((xi - u) ** 2)
    return r
