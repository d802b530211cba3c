"""Estimation of the RS order parameters from data alone.

Given a fitted model (coefficients and hazard), the six order parameters
are recovered without knowledge of the data-generating process: the AMP
route uses the solver's own step sizes (tau, tau_hat); the CD route first
infers them from two scalar equations (active-set fraction and curvature
average) and then runs the same chain.  Ground-truth overlaps are provided
for validation on synthetic data.
"""

from dataclasses import dataclass, field

import numpy as np


class EstimationError(ValueError):
    """Order-parameter estimation is undefined for this input."""


@dataclass(frozen=True)
class OrderParameterEstimate:
    """Data-only estimates of the six RS order parameters.

    `provenance` records which route produced them ("amp" or "cd");
    `w_valid` / `v_valid` flag the two derived overlaps, which can be
    undefined when the local-field signal part vanishes or the quadratic
    identity turns negative.  `v_hat_alt` is the curvature-based variant
    of the noise estimate (the mean-second-derivative form); the primary
    `v_hat` uses the squared-gradient form.
    """

    w: float
    v: float
    tau: float
    w_hat: float
    v_hat: float
    tau_hat: float
    provenance: str
    w_valid: bool = True
    v_valid: bool = True
    v_hat_alt: float = np.nan
    diagnostics: dict = field(default_factory=dict)

    def as_array(self):
        return np.array([self.w, self.v, self.tau,
                         self.w_hat, self.v_hat, self.tau_hat])


def local_field(data, beta_hat, hazard, tau, tau_hat):
    """The AMP local field psi = beta - tau_hat * X' g_dot(X beta, L(T), D).

    At an AMP fixed point the Moreau gradient at (xi, tau) equals
    g_dot(X beta), so tau enters only through that identification; under
    the RS theory psi is Gaussian around w_hat * beta0 / theta0 with
    standard deviation v_hat.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    lp = data.design @ beta_hat
    gd = hazard.evaluate(data.times) * np.exp(lp) - data.events
    return beta_hat - tau_hat * (data.design.T @ gd)


def _estimate_chain(data, beta_hat, hazard, tau, tau_hat, zeta, provenance):
    if not np.any(data.events == 1.0):
        raise EstimationError("all-censored data: order parameters undefined")
    beta_hat = np.asarray(beta_hat, dtype=float)
    n, p = data.n, data.p
    lp = data.design @ beta_hat
    lamT = hazard.evaluate(data.times)
    gd = lamT * np.exp(lp) - data.events
    gdd = lamT * np.exp(lp)

    v_hat_sq = tau_hat ** 2 * np.mean(gd ** 2) / zeta
    v_hat_alt = float(np.sqrt(tau_hat ** 2 * np.mean(gdd) / zeta))
    psi = beta_hat - tau_hat * (data.design.T @ gd)
    w_hat = float(np.sqrt(max(0.0, np.sum(psi ** 2) / p - v_hat_sq)))

    a_moment = np.sum((lp + tau * gd) ** 2) / n
    b_moment = 0.5 * np.sum(lp ** 2) / n \
        - 0.5 * zeta * v_hat_sq * tau ** 2 / tau_hat ** 2 \
        - 0.5 * a_moment * (1.0 - 2.0 * zeta * tau / tau_hat)

    w_valid, v_valid = True, True
    if w_hat > 0.0:
        w = b_moment * tau_hat / (w_hat * zeta * tau)
    elif b_moment == 0.0:
        w = 0.0
    else:
        w, w_valid = np.nan, False
    disc = a_moment - (w ** 2 if w_valid else np.nan)
    if w_valid and disc >= 0.0:
        v = float(np.sqrt(disc))
    else:
        v, v_valid = np.nan, False
    return OrderParameterEstimate(
        w=float(w), v=v, tau=float(tau), w_hat=w_hat,
        v_hat=float(np.sqrt(v_hat_sq)), tau_hat=float(tau_hat),
        provenance=provenance, w_valid=w_valid, v_valid=v_valid,
        v_hat_alt=v_hat_alt,
        diagnostics={"A": float(a_moment), "B": float(b_moment)})


def estimate_from_amp(data, fit, zeta):
    """Estimate all six order parameters from a converged AMP fit.

    Chain: v_hat from the mean squared loss gradient, w_hat from the
    local-field second moment, then (w, v) from the two quadratic
    identities linking ||X beta||, ||X beta + tau g_dot|| and the scalars.
    """
    if fit.tau is None or fit.tau_hat is None:
        raise EstimationError("fit carries no (tau, tau_hat); use the CD route")
    if not fit.converged:
        raise EstimationError("AMP fit did not converge")
    return _estimate_chain(data, fit.beta_hat, fit.hazard, fit.tau,
                           fit.tau_hat, zeta, "amp")


def estimate_tau_cd(data, fit, pen, zeta):
    """Infer (tau_n, tau_hat_n) from a CD fit via the two scalar equations.

    With k the active-set fraction ||beta||_0 / p, solves
    zeta (k - eta tau) = < tau g_ddot / (1 + tau g_ddot) > for tau by a
    bracketed root-finder (the bracket is (0, k/eta) when eta > 0), then
    tau_hat = tau / (k - eta tau).

    Raises
    ------
    EstimationError
        For the null model (k = 0) or when no sign change brackets a root.
    """
    beta_hat = np.asarray(fit.beta_hat, dtype=float)
    k = np.count_nonzero(beta_hat) / data.p
    if k == 0.0:
        raise EstimationError("null model: tau_hat undefined")
    lp = data.design @ beta_hat
    gdd = fit.hazard.evaluate(data.times) * np.exp(lp)

    def f(t):
        return zeta * (k - pen.eta * t) - np.mean(t * gdd / (1.0 + t * gdd))

    if pen.eta > 0:
        hi = k / pen.eta
        if f(hi) >= 0.0:
            raise EstimationError("no sign change for tau on (0, k/eta); "
                                  f"f({hi:.3e}) = {f(hi):.3e}")
    else:
        hi = 1.0
        while f(hi) > 0.0:
            hi *= 2.0
            if hi > 1e12:
                raise EstimationError(
                    "no sign change for tau: zeta * k = "
                    f"{zeta * k:.3f} exceeds the curvature-average supremum")
    # imported here: scipy.optimize adds ~20 MB to every process that
    # imports coxfield, and only this estimator needs it
    from scipy.optimize import brentq
    tau_n = brentq(f, 0.0, hi, xtol=1e-12, rtol=8.9e-16)
    tau_hat_n = tau_n / (k - pen.eta * tau_n)
    return float(tau_n), float(tau_hat_n)


def estimate_from_cd(data, fit, pen, zeta):
    """Estimate all six order parameters from a converged CD fit."""
    if not fit.converged:
        raise EstimationError("CD fit did not converge")
    tau_n, tau_hat_n = estimate_tau_cd(data, fit, pen, zeta)
    return _estimate_chain(data, fit.beta_hat, fit.hazard, tau_n, tau_hat_n,
                           zeta, "cd")


def true_overlaps(beta_hat, beta0):
    """Ground-truth overlaps (w_n, v_n) of the estimate with the signal.

    w_n = beta0'beta / (sqrt(p) ||beta0||), v_n^2 = ||beta||^2/p - w_n^2.
    Validation-only: requires the true signal.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    norm0 = np.linalg.norm(beta0)
    if norm0 == 0.0:
        raise ValueError("true signal is identically zero")
    p = beta0.shape[0]
    w_n = float(beta0 @ beta_hat / (np.sqrt(p) * norm0))
    v_sq = beta_hat @ beta_hat / p - w_n ** 2
    return w_n, float(np.sqrt(max(0.0, v_sq)))


def field_residual_moments(psi, beta0, theta0, w_hat):
    """Skewness and excess kurtosis of the standardized local-field residual.

    Used as a Gaussianity diagnostic of psi - w_hat * beta0 / theta0 in
    validation mode.
    """
    resid = np.asarray(psi, dtype=float) - w_hat * np.asarray(beta0, dtype=float) / theta0
    resid = (resid - resid.mean()) / resid.std()
    return float(np.mean(resid ** 3)), float(np.mean(resid ** 4) - 3.0)
