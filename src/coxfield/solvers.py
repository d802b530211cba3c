"""The two fitting algorithms for the penalized Cox partial likelihood:
an approximate-message-passing solver alternated with Nelson-Aalen hazard
updates, and coordinate-wise descent, plus warm-started regularization paths.

Both minimize

    sum_i Delta_i [ log((1/n) sum_j Theta(T_j-T_i) e^{x_j'b}) - x_i'b ]
    + alpha ||b||_1 + (eta/2) ||b||_2^2 ,

and agree at convergence; the AMP solver additionally carries the scalar
step sizes (tau, tau_hat) needed for order-parameter estimation.
"""

from dataclasses import dataclass, field

import numpy as np

from .prox import cox_prox_bundle, prox_enet, prox_enet_dot, prox_g
from .survival import nelson_aalen

AMP_MAX_EPOCHS = 1000
CD_MAX_EPOCHS = 100


class FitDivergedError(RuntimeError):
    """A solver iterate became non-finite."""


def _all_censored_result(data, with_amp_state):
    # no events: the loss is identically zero, the penalized minimizer is
    # the origin and the hazard vanishes; this is an exact fixed point of
    # both iterations
    hazard = nelson_aalen(data.times, data.events, np.zeros(data.n))
    kwargs = {}
    if with_amp_state:
        kwargs = {"xi": np.zeros(data.n), "tau": 1.0, "tau_hat": 1.0}
    return FitResult(beta_hat=np.zeros(data.p), hazard=hazard, converged=True,
                     epochs=1, final_err=0.0,
                     diagnostics={"all_censored": True}, **kwargs)


@dataclass
class SolverConfig:
    """Common solver knobs.

    max_epochs = None picks the per-solver default (1000 for AMP, 100
    for CD); damping is the weight on the proposed iterate in the AMP
    updates (1.0 disables damping, CD ignores it).
    """

    tol: float = 1e-8
    max_epochs: int | None = None
    damping: float = 0.5

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1 (None: default)")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass
class FitResult:
    """Solver output: coefficients, fitted hazard, convergence diagnostics.

    xi, tau, tau_hat are populated by the AMP solver only.
    """

    beta_hat: np.ndarray
    hazard: object
    converged: bool
    epochs: int
    final_err: float
    xi: np.ndarray | None = None
    tau: float | None = None
    tau_hat: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _check_finite(epoch, **fields):
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise FitDivergedError(
                f"non-finite {name} at epoch {epoch}; the penalty is likely "
                "too weak for a minimizer to exist")


def fit_amp(data, pen, init=None, cfg=None):
    """Approximate-message-passing solver for the penalized Cox model.

    One epoch updates, in order: the Nelson-Aalen hazard at the proximal
    points of the previous field, the field xi, the step size tau_hat, the
    coefficients through the elastic-net prox, and the step size tau; the
    error is the square root of the summed squared sup-norm deltas.
    Damping `cfg.damping` is applied to the (xi, beta, tau, tau_hat)
    updates.  May legitimately fail to converge at weak regularization;
    this is reported through `converged`, while non-finite iterates raise
    FitDivergedError.

    Parameters
    ----------
    data : SurvivalDataset
    pen : ElasticNetPenalty with rho > 0
    init : FitResult, optional
        Warm start (beta_hat, and xi/tau/tau_hat when present).
    cfg : SolverConfig, optional
    """
    cfg = cfg or SolverConfig()
    max_epochs = AMP_MAX_EPOCHS if cfg.max_epochs is None else cfg.max_epochs
    d = cfg.damping
    X, T, D = data.design, data.times, data.events
    n, p = data.n, data.p
    zeta = p / n

    if not np.any(D == 1.0):
        return _all_censored_result(data, with_amp_state=True)

    if init is not None:
        beta = np.array(init.beta_hat, dtype=float)
        xi = np.array(init.xi, dtype=float) if init.xi is not None else X @ beta
        tau = float(init.tau) if init.tau is not None else 1.0
        tau_hat = float(init.tau_hat) if init.tau_hat is not None else 1.0
        hazard = init.hazard
    else:
        beta = np.zeros(p)
        xi = np.zeros(n)
        tau = tau_hat = 1.0
        hazard = nelson_aalen(T, D, np.zeros(n))
    lamT = hazard.evaluate(T)

    converged = False
    err = np.inf
    epoch = 0
    while epoch < max_epochs:
        epoch += 1
        # hazard refresh at the proximal points of the current field
        lin = prox_g(xi, lamT, D, tau)
        hazard = nelson_aalen(T, D, lin)
        lamT_new = hazard.evaluate(T)
        err2 = np.max(np.abs(lamT_new - lamT)) ** 2
        lamT = lamT_new

        # field update (Onsager-corrected) under the refreshed hazard
        _, mdot, _ = cox_prox_bundle(xi, lamT, D, tau)
        xi_new = (1 - d) * xi + d * (X @ beta + tau * mdot)
        err2 += np.max(np.abs(xi_new - xi)) ** 2
        xi = xi_new

        _, mdot, mddot = cox_prox_bundle(xi, lamT, D, tau)
        tau_hat_new = (1 - d) * tau_hat + d * (zeta / np.mean(mddot))
        err2 += (tau_hat_new - tau_hat) ** 2
        tau_hat = tau_hat_new

        psi = beta - tau_hat * (X.T @ mdot)
        beta_new = (1 - d) * beta + d * prox_enet(psi, tau_hat, pen)
        err2 += np.max(np.abs(beta_new - beta)) ** 2
        beta = beta_new

        tau_new = (1 - d) * tau + d * (tau_hat * np.mean(prox_enet_dot(psi, tau_hat, pen)))
        err2 += (tau_new - tau) ** 2
        tau = tau_new

        err = np.sqrt(err2)
        _check_finite(epoch, beta=beta, xi=xi, tau=tau, tau_hat=tau_hat, err=err)
        if err < cfg.tol:
            converged = True
            break

    # one undamped prox application so the reported coefficients carry the
    # exact zeros of the soft threshold (the damped iterate only reaches
    # them in the limit); moves beta by O(err)
    _, mdot, _ = cox_prox_bundle(xi, lamT, D, tau)
    beta = prox_enet(beta - tau_hat * (X.T @ mdot), tau_hat, pen)

    return FitResult(beta_hat=beta, hazard=hazard, converged=converged,
                     epochs=epoch, final_err=float(err), xi=xi,
                     tau=float(tau), tau_hat=float(tau_hat))


def fit_cd(data, pen, init=None, cfg=None):
    """Coordinate-wise descent for the penalized Cox model.

    Each outer epoch linearizes the profile loss at the current iterate
    (score and curvature with weights Lambda(T_i) e^{x_i'b}), runs one
    full cycle of coordinate proximal updates in fixed index order, then
    refreshes the hazard with the Nelson-Aalen estimator.  Only the
    curvature diagonal and per-coordinate row actions are ever formed.

    Coordinates with zero curvature are skipped (counted in
    diagnostics["skipped_coordinates"]).
    """
    cfg = cfg or SolverConfig()
    max_epochs = CD_MAX_EPOCHS if cfg.max_epochs is None else cfg.max_epochs
    X, T, D = data.design, data.times, data.events
    n, p = data.n, data.p

    if not np.any(D == 1.0):
        return _all_censored_result(data, with_amp_state=False)

    beta = np.array(init.beta_hat, dtype=float) if init is not None else np.zeros(p)
    hazard = nelson_aalen(T, D, X @ beta)
    lamT = hazard.evaluate(T)
    X2 = X * X

    converged = False
    err = np.inf
    epoch = 0
    skipped = 0
    while epoch < max_epochs:
        epoch += 1
        lp = X @ beta
        wdiag = lamT * np.exp(lp)
        score = X.T @ (wdiag - D)
        curv = X2.T @ wdiag
        phi = beta.copy()
        # r tracks wdiag * (X beta - X phi); starts at zero
        r = np.zeros(n)
        for k in range(p):
            mkk = curv[k]
            if mkk <= 0.0:
                skipped += 1
                continue
            xk = X[:, k]
            psi_k = (xk @ r + mkk * phi[k] - score[k]) / mkk
            new = prox_enet(psi_k, 1.0 / mkk, pen)
            if new != phi[k]:
                r -= wdiag * xk * (new - phi[k])
                phi[k] = new
        beta_new = phi
        hazard = nelson_aalen(T, D, X @ beta_new)
        lamT_new = hazard.evaluate(T)
        err = np.sqrt(np.max(np.abs(beta_new - beta)) ** 2
                      + np.max(np.abs(lamT_new - lamT)) ** 2)
        beta, lamT = beta_new, lamT_new
        _check_finite(epoch, beta=beta, err=err)
        if err < cfg.tol:
            converged = True
            break

    return FitResult(beta_hat=beta, hazard=hazard, converged=converged,
                     epochs=epoch, final_err=float(err),
                     diagnostics={"skipped_coordinates": skipped})


_SOLVERS = {"amp": fit_amp, "cd": fit_cd}


def reg_path(data, pen_grid, solver, cfg=None):
    """Fit along a regularization path with warm starts.

    The grid must be sorted by decreasing strength (rho, or alpha at
    fixed l1_ratio).  Each point starts from the previous point's result;
    a point that diverges is recorded as a non-converged FitResult with
    its error message in diagnostics, and the path continues from the
    last finite iterate.
    """
    if solver not in _SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    strengths = [pen.rho for pen in pen_grid]
    if any(b > a for a, b in zip(strengths, strengths[1:])):
        raise ValueError("pen_grid must be sorted by decreasing strength")
    fit = _SOLVERS[solver]
    results = []
    init = None
    for pen in pen_grid:
        try:
            res = fit(data, pen, init=init, cfg=cfg)
        except FitDivergedError as exc:
            res = FitResult(beta_hat=np.full(data.p, np.nan), hazard=None,
                            converged=False, epochs=0, final_err=np.nan,
                            diagnostics={"error": str(exc)})
        else:
            init = res
        results.append(res)
    return results
