"""Independent oracles used by the test suite.

Nothing here touches the solver internals: the proximal-gradient
minimizer drives the penalized partial likelihood through its raw
definition, scalar proxima are found by golden-section search, and
envelopes by bounded 1-D minimization.  The reference AMP and CD loops
are the solvers' iterations written plainly, with a `nelson_aalen`
estimate every epoch and `prox_enet` for every elastic-net step.

The rest restate quantities from their definitions, apart from the
forms the package computes them in: the envelope curvature from g'' at
the proximal point, not from the Lambert factor; the local field and
the moments of its residual; and the six RS equations in their general
Monte Carlo form, with no closed-form prior moments.  `CumsumRiskSets`
is the risk-set kernel in its first form (cumulative sums over reversed
views, levels through a concatenate), which pins the package's kernel
bit for bit where the reference loops, running on it, would move along.
"""

import math

import numpy as np
from scipy.optimize import minimize_scalar

from coxfield.prox import (ElasticNetPenalty, cox_prox_bundle, prox_enet,
                           prox_enet_dot, prox_g)
from coxfield.rs import solve_lambda
from coxfield.solvers import FitResult
from coxfield.survival import (StepHazard, nelson_aalen,
                               penalized_partial_likelihood)

_NO_PEN = ElasticNetPenalty.from_weights(0.0, 0.0)


class CumsumRiskSets:
    """`coxfield.survival.RiskSets` as first written: each tail sum a
    np.cumsum over a reversed view of the sorted weights, reversed back,
    and each level a np.cumsum behind a concatenated leading zero."""

    def __init__(self, times, events):
        times = np.asarray(times, dtype=float)
        self._is_event = np.asarray(events) == 1.0
        self._order = np.argsort(times, kind="stable")
        inverse = np.empty_like(self._order)
        inverse[self._order] = np.arange(self._order.size)
        self._times = times[self._order]
        self._event_idx = np.flatnonzero(self._is_event[self._order])
        first = np.searchsorted(self._times, self._times, side="left")
        last = np.searchsorted(self._times, self._times, side="right")
        self._first = first[inverse]
        self._event_first = first[self._event_idx]
        self._upto = np.searchsorted(self._event_idx, last)[inverse]

    def _tail_sums(self, weights):
        return np.cumsum(weights[self._order][::-1])[::-1]

    def _levels(self, steps):
        return np.concatenate(([0.0], np.cumsum(steps)))[self._upto]

    def _steps(self, e):
        return 1.0 / self._tail_sums(e)[self._event_first]

    def risk_sums(self, weights):
        return self._tail_sums(weights)[self._first]

    def penalized_loss(self, lin_pred, beta, pen):
        with np.errstate(over="ignore"):
            risk = self.risk_sums(np.exp(lin_pred))
        ev = self._is_event
        with np.errstate(divide="ignore"):
            loss = np.sum(np.log(risk[ev] / risk.size) - lin_pred[ev])
        return loss + pen.alpha * np.sum(np.abs(beta)) \
            + 0.5 * pen.eta * np.sum(beta * beta)

    def hazard(self, lin_pred):
        return self._levels(self._steps(np.exp(lin_pred)))

    def breslow(self, lin_pred):
        e = np.exp(lin_pred)
        steps = self._steps(e)
        lam = self._levels(steps)
        w = lam * e
        steps2 = steps * steps

        def hessian(u):
            return w * u - e * self._levels(
                self._tail_sums(e * u)[self._event_first] * steps2)
        return lam, w, hessian

    def step_hazard(self, levels):
        ev = self._event_idx
        knots, pos = np.unique(self._times[ev], return_index=True)
        return StepHazard(knots, levels[self._order[ev[pos]]])


def bisect_lambert(x, lo=-1.0, hi=800.0, iters=200):
    """Solve w * exp(w) = x by bisection on [-1, hi]."""
    f = lambda w: w * np.exp(w) - x
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_prox_g(u, lam, delta, tau, width=60.0):
    """Minimize (z-u)^2/(2 tau) + lam e^z - delta z by golden-section."""
    obj = lambda z: (z - u) ** 2 / (2.0 * tau) + lam * np.exp(z) - delta * z
    res = minimize_scalar(obj, bracket=(u + tau * delta - width, u + tau * delta + 1.0),
                          method="golden", options={"xtol": 1e-13})
    return res.x


def envelope_g(u, lam, delta, tau, width=60.0):
    """Moreau envelope value of the Cox loss by bounded minimization."""
    obj = lambda z: (z - u) ** 2 / (2.0 * tau) + lam * np.exp(z) - delta * z
    res = minimize_scalar(obj, bounds=(u + tau * delta - width, u + tau * delta + 1.0),
                          method="bounded", options={"xatol": 1e-12})
    return obj(res.x)


def moreau_ddot_g(u, lam, delta, tau):
    """Second derivative in u of the Moreau envelope of the Cox loss,
    g''(z) / (1 + tau g''(z)) at the proximal point z, g''(z) = lam e^z."""
    gdd = lam * np.exp(prox_g(u, lam, delta, tau))
    return gdd / (1.0 + tau * gdd)


def local_field(data, beta, hazard, tau_hat):
    """The local field psi = beta - tau_hat X' g'(X beta, Lambda(T), Delta)."""
    beta = np.asarray(beta, dtype=float)
    lp = data.design @ beta
    return beta - tau_hat * (data.design.T @ (hazard.evaluate(data.times)
                                              * np.exp(lp) - data.events))


def field_residual_moments(psi, beta0, theta0, w_hat):
    """Skewness and excess kurtosis of the standardized residual
    psi - w_hat * beta0 / theta0 (zero for a Gaussian field)."""
    resid = np.asarray(psi, dtype=float) - w_hat * np.asarray(beta0, dtype=float) / theta0
    resid = (resid - resid.mean()) / resid.std()
    return float(np.mean(resid ** 3)), float(np.mean(resid ** 4) - 3.0)


def rs_residuals_general(op, pop, beta0_draws, z_draws, pen, zeta, lam=None):
    """Monte Carlo residuals of the six RS equations in their general form.

    Uses phi = prox_enet(w_hat*beta0/theta0 + v_hat*Z, tau_hat) on the
    prior side (no closed forms), and the population on the data side,
    at the hazard `lam` (default: `solve_lambda` at (w, v, tau)).
    Returns an array of six residuals ordered (rs1, ..., rs6).
    """
    phi = prox_enet(op.w_hat * beta0_draws / pop.theta0 + op.v_hat * z_draws,
                    op.tau_hat, pen)
    if lam is None:
        lam = solve_lambda(pop, op.w, op.v, op.tau)
    u = op.w * pop.z0 + op.v * pop.q
    xi = prox_g(u, lam.evaluate(pop.t), pop.delta, op.tau)
    r = np.empty(6)
    r[0] = op.w - np.mean(beta0_draws * phi) / pop.theta0
    r[1] = op.v_hat * op.tau / op.tau_hat - np.mean(z_draws * phi)
    r[2] = (op.w ** 2 + op.v ** 2) - np.mean(phi ** 2)
    r[3] = op.w_hat - (op.w - (op.tau_hat / (zeta * op.tau))
                       * (op.w - np.mean(pop.z0 * xi)))
    r[4] = op.v * (1.0 - zeta * op.tau / op.tau_hat) - np.mean(pop.q * xi)
    r[5] = zeta * op.v_hat ** 2 - (op.tau_hat / op.tau) ** 2 * np.mean((xi - u) ** 2)
    return r


def ppl_gradient(data, beta):
    """Gradient of the unpenalized partial likelihood (profile identity)."""
    lp = data.design @ beta
    hz = nelson_aalen(data.times, data.events, lp)
    return data.design.T @ (hz.evaluate(data.times) * np.exp(lp) - data.events)


def harrell_c_loop(times, events, scores):
    """Harrell concordance, one event at a time against all later times."""
    num, den = 0.0, 0
    for i in np.flatnonzero(events == 1.0):
        later = times > times[i]
        den += int(np.count_nonzero(later))
        sj = scores[later]
        num += np.count_nonzero(scores[i] > sj) + 0.5 * np.count_nonzero(scores[i] == sj)
    return num / den


def prox_gradient_minimizer(data, pen, tol=1e-12, max_iter=200000):
    """Proximal-gradient minimizer of the penalized partial likelihood.

    Backtracking line search on the smooth part; independent of both
    production solvers.
    """
    beta = np.zeros(data.p)
    step = 1.0
    loss = penalized_partial_likelihood(data, beta, _NO_PEN)
    for _ in range(max_iter):
        grad = ppl_gradient(data, beta)
        while True:
            cand = prox_enet(beta - step * grad, step, pen)
            cand_loss = penalized_partial_likelihood(data, cand, _NO_PEN)
            diff = cand - beta
            if cand_loss <= loss + grad @ diff + diff @ diff / (2 * step) + 1e-15:
                break
            step *= 0.5
        if np.max(np.abs(cand - beta)) < tol:
            return cand
        beta, loss = cand, cand_loss
        step *= 1.25
    return beta


def reference_cd(data, pen, init=None, tol=1e-8, max_epochs=100):
    """Coordinate descent with `nelson_aalen` every epoch and `prox_enet`
    per coordinate: one linearization, one full cycle in index order."""
    X, T, D = data.design, data.times, data.events
    beta = np.zeros(data.p) if init is None else np.array(init.beta_hat)
    hazard = nelson_aalen(T, D, X @ beta)
    lamT = hazard.evaluate(T)
    for epoch in range(1, max_epochs + 1):
        wdiag = lamT * np.exp(X @ beta)
        score = X.T @ (wdiag - D)
        curv = (X * X).T @ wdiag
        phi = beta.copy()
        r = np.zeros(data.n)
        for k in range(data.p):
            if curv[k] <= 0.0:
                continue
            xk = X[:, k]
            new = prox_enet((xk @ r + curv[k] * phi[k] - score[k]) / curv[k],
                            1.0 / curv[k], pen)
            if new != phi[k]:
                r -= wdiag * xk * (new - phi[k])
                phi[k] = new
        hazard = nelson_aalen(T, D, X @ phi)
        lamT_new = hazard.evaluate(T)
        err = math.hypot(np.max(np.abs(phi - beta)),
                         np.max(np.abs(lamT_new - lamT)))
        beta, lamT = phi, lamT_new
        if err < tol:
            break
    return FitResult(beta_hat=beta, hazard=hazard, converged=err < tol,
                     epochs=epoch, final_err=float(err))


def reference_amp(data, pen, init=None, tol=1e-8, max_epochs=1000, d=0.5):
    """COX-AMP with `nelson_aalen` at the proximal points every epoch."""
    X, T, D = data.design, data.times, data.events
    zeta = data.p / data.n
    if init is None:
        beta, xi, tau, tau_hat = np.zeros(data.p), np.zeros(data.n), 1.0, 1.0
        lamT = nelson_aalen(T, D, np.zeros(data.n)).evaluate(T)
    else:
        beta, xi, tau, tau_hat = init.beta_hat, init.xi, init.tau, init.tau_hat
        lamT = init.hazard.evaluate(T)
    for epoch in range(1, max_epochs + 1):
        hazard = nelson_aalen(T, D, prox_g(xi, lamT, D, tau))
        lamT_new = hazard.evaluate(T)
        dlam = np.max(np.abs(lamT_new - lamT))
        lamT = lamT_new
        _, mdot, _ = cox_prox_bundle(xi, lamT, D, tau)
        xi_new = (1 - d) * xi + d * (X @ beta + tau * mdot)
        dxi = np.max(np.abs(xi_new - xi))
        xi = xi_new
        _, mdot, mddot = cox_prox_bundle(xi, lamT, D, tau)
        tau_hat_new = (1 - d) * tau_hat + d * (zeta / np.mean(mddot))
        dtau_hat = tau_hat_new - tau_hat
        tau_hat = tau_hat_new
        psi = beta - tau_hat * (X.T @ mdot)
        beta_new = (1 - d) * beta + d * prox_enet(psi, tau_hat, pen)
        dbeta = np.max(np.abs(beta_new - beta))
        beta = beta_new
        tau_new = (1 - d) * tau + d * (tau_hat * np.mean(prox_enet_dot(psi, tau_hat, pen)))
        dtau = tau_new - tau
        tau = tau_new
        err = math.hypot(dlam, dxi, dtau_hat, dbeta, dtau)
        if err < tol:
            break
    _, mdot, _ = cox_prox_bundle(xi, lamT, D, tau)
    beta = prox_enet(beta - tau_hat * (X.T @ mdot), tau_hat, pen)
    return FitResult(beta_hat=beta, hazard=hazard, converged=err < tol,
                     epochs=epoch, final_err=float(err), xi=xi, tau=tau,
                     tau_hat=tau_hat)
