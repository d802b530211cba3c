"""Estimation of the RS order parameters from data alone.

Given a fitted model (coefficients and hazard), the six order parameters
are recovered without knowledge of the data-generating process: the AMP
route uses the solver's own step sizes (tau, tau_hat); the CD route first
infers them from two scalar equations (active-set fraction and curvature
average) and then runs the same chain.  Ground-truth overlaps are provided
for validation on synthetic data.
"""

from dataclasses import dataclass

import numpy as np

from .rs import OrderParameters

# bound on the Newton steps of estimate_tau_cd; from tau = 0 they settle
# in under 20 on every fit seen
_NEWTON_MAX_ITER = 100


class EstimationError(ValueError):
    """Order-parameter estimation is undefined for this input."""


@dataclass(frozen=True, kw_only=True)
class OrderParameterEstimate(OrderParameters):
    """Data-only estimates of the six RS order parameters, from the route
    named by `provenance` ("amp" or "cd").

    w and v are NaN where undefined (the local-field signal part vanishes,
    or the quadratic identity turns negative); `w_valid` / `v_valid` say
    whether they are defined.  `v_hat_alt` is the curvature-based variant
    of the noise estimate (the mean-second-derivative form); the primary
    `v_hat` uses the squared-gradient form.  `diagnostics` holds the
    moments A and B of the two (w, v) identities.
    """

    provenance: str
    v_hat_alt: float = np.nan

    @property
    def w_valid(self):
        return not np.isnan(self.w)

    @property
    def v_valid(self):
        return not np.isnan(self.v)


def _cox_gradients(data, beta_hat, hazard):
    # linear predictor lp, curvature g_ddot = Lambda(T) e^lp and gradient
    # g_dot = g_ddot - Delta of the Cox loss at the fit
    lp = data.design @ beta_hat
    gdd = hazard.evaluate(data.times) * np.exp(lp)
    return lp, gdd, gdd - data.events


def _estimate_chain(data, beta_hat, hazard, tau, tau_hat, zeta, provenance):
    if not np.any(data.events == 1.0):
        raise EstimationError("all-censored data: order parameters undefined")
    beta_hat = np.asarray(beta_hat, dtype=float)
    n, p = data.n, data.p
    lp, gdd, gd = _cox_gradients(data, beta_hat, hazard)

    v_hat_sq = tau_hat ** 2 * np.mean(gd ** 2) / zeta
    v_hat_alt = float(np.sqrt(tau_hat ** 2 * np.mean(gdd) / zeta))
    # the local field of AMP's beta update; under the RS theory it is
    # Gaussian around w_hat * beta0 / theta0 with standard deviation v_hat
    psi = beta_hat - tau_hat * (data.design.T @ gd)
    w_hat = float(np.sqrt(max(0.0, np.sum(psi ** 2) / p - v_hat_sq)))

    a_moment = np.sum((lp + tau * gd) ** 2) / n
    b_moment = 0.5 * np.sum(lp ** 2) / n \
        - 0.5 * zeta * v_hat_sq * tau ** 2 / tau_hat ** 2 \
        - 0.5 * a_moment * (1.0 - 2.0 * zeta * tau / tau_hat)

    # NaN marks an undefined overlap, and v is undefined wherever w is
    if w_hat > 0.0:
        w = b_moment * tau_hat / (w_hat * zeta * tau)
    else:
        w = 0.0 if b_moment == 0.0 else np.nan
    disc = a_moment - w ** 2
    v = float(np.sqrt(disc)) if disc >= 0.0 else np.nan
    return OrderParameterEstimate(
        w=float(w), v=v, tau=float(tau), w_hat=w_hat,
        v_hat=float(np.sqrt(v_hat_sq)), tau_hat=float(tau_hat),
        provenance=provenance, v_hat_alt=v_hat_alt,
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
    f(tau) = zeta (k - eta tau) - < tau g_ddot / (1 + tau g_ddot) > = 0,
    then tau_hat = tau / (k - eta tau).  f is convex and decreasing with
    f(0) > 0 on (0, k/eta) (on t > 0 for the lasso), so a root exists iff
    f is negative at the right end, and Newton steps from tau = 0 rise to
    it without overshoot.

    Raises
    ------
    EstimationError
        For the null model (k = 0), when f has no root, or when the
        Newton steps do not settle.
    """
    beta_hat = np.asarray(fit.beta_hat, dtype=float)
    k = np.count_nonzero(beta_hat) / data.p
    if k == 0.0:
        raise EstimationError("null model: tau_hat undefined")
    _, gdd, _ = _cox_gradients(data, beta_hat, fit.hazard)

    def f(t):
        return zeta * (k - pen.eta * t) - np.mean(t * gdd / (1.0 + t * gdd))

    # the lasso's end is t -> inf, where the curvature average -> P(gdd > 0)
    end = f(k / pen.eta) if pen.eta > 0 else zeta * k - np.mean(gdd > 0.0)
    if end >= 0.0:
        raise EstimationError("no sign change for tau: f = "
                              f"{end:.3e} >= 0 at the end of its domain")
    tau_n = 0.0
    for _ in range(_NEWTON_MAX_ITER):
        denom = 1.0 + tau_n * gdd
        slope = -zeta * pen.eta - np.mean(gdd / denom ** 2)
        step = -f(tau_n) / slope
        tau_n += step
        if abs(step) <= 1e-12 + 8.9e-16 * tau_n:
            break
    else:
        raise EstimationError(f"Newton iteration for tau did not settle in "
                              f"{_NEWTON_MAX_ITER} steps (last step {step:.3e})")
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

