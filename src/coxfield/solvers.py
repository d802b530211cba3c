"""The two fitting algorithms for the penalized Cox partial likelihood:
an approximate-message-passing solver alternated with Nelson-Aalen hazard
updates, and coordinate-wise descent, plus warm-started regularization paths.

Both minimize

    sum_i Delta_i [ log((1/n) sum_j Theta(T_j-T_i) e^{x_j'b}) - x_i'b ]
    + alpha ||b||_1 + (eta/2) ||b||_2^2 ,

and agree at convergence; the AMP solver additionally carries the scalar
step sizes (tau, tau_hat) needed for order-parameter estimation.
"""

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# cox_prox_bundle and prox_g are unused here but stay bound: perfbench's
# tracer wraps them as names of this module
from .prox import (cox_prox_bundle, cox_w, log_tau_lam, moreau_ddot_w,
                   moreau_dot_g, moreau_dot_w, prox_enet, prox_enet_dot,
                   prox_g, prox_g_w)
from .survival import RiskSets, nelson_aalen

AMP_MAX_EPOCHS = 1000
# AMP stall handling: a stall is an err that has not fallen to
# AMP_STALL_DROP times its value AMP_STALL_WINDOW epochs before; each stall
# multiplies the damping by AMP_DAMPING_CUT, and a stall that would take it
# below AMP_DAMPING_FLOOR ends the fit as "stalled"
AMP_STALL_WINDOW = 50
AMP_STALL_DROP = 0.5
AMP_DAMPING_CUT = 0.5
AMP_DAMPING_FLOOR = 0.1
CD_MAX_EPOCHS = 100
# CD extrapolates from its last CD_ANDERSON_K + 1 iterates every
# CD_ANDERSON_K epochs (0 runs the plain sweeps)
CD_ANDERSON_K = 5


class FitDivergedError(RuntimeError):
    """A solver iterate became non-finite."""


def _all_censored_result(data, with_amp_state, t0):
    # no events: the loss is identically zero, the penalized minimizer is
    # the origin and the hazard vanishes; this is an exact fixed point of
    # both iterations
    hazard = nelson_aalen(data.times, data.events, np.zeros(data.n))
    kwargs = {}
    if with_amp_state:
        kwargs = {"xi": np.zeros(data.n), "tau": 1.0, "tau_hat": 1.0}
    return FitResult(beta_hat=np.zeros(data.p), hazard=hazard, converged=True,
                     epochs=1, final_err=0.0,
                     diagnostics={"stop_reason": "all_censored",
                                  "seconds": perf_counter() - t0}, **kwargs)


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

    xi, tau, tau_hat are populated by the AMP solver only.  diagnostics
    holds "stop_reason" ("tol", "max_epochs", "stalled" (AMP) or
    "all_censored"; "diverged" with the "error" message on a diverged
    `reg_path` point) and the wall time "seconds" of the fit.  AMP adds
    "err_history" (err after each epoch) and "damping_cuts" ([epoch,
    damping] after each cut); CD adds "skipped_coordinates" (visits to a
    zero-curvature coordinate), "screened_coordinates" (visits the screen
    skipped), "extrapolations_tried" and "extrapolations_kept".
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


def _stop_diagnostics(stop_reason, t0):
    return {"stop_reason": stop_reason, "seconds": perf_counter() - t0}


def _anderson_mix(iterates):
    """Anderson extrapolation of the iterates x_0, ..., x_K of a fixed-point
    map: sum_i c_i x_i over x_1, ..., x_K with the weights c (sum c = 1)
    that minimize ||U c||, U the differences x_i - x_{i-1}.  None when the
    weights are not finite."""
    x = np.array(iterates)
    u = np.diff(x, axis=0)
    try:
        z = np.linalg.solve(u @ u.T, np.ones(len(u)))
    except np.linalg.LinAlgError:
        return None
    c = z / np.sum(z)
    return c @ x[1:] if np.all(np.isfinite(c)) else None


def fit_amp(data, pen, init=None, cfg=None):
    """Approximate-message-passing solver for the penalized Cox model.

    One epoch updates, in order: the Nelson-Aalen hazard at the proximal
    points of the previous field, the field xi, the step size tau_hat, the
    coefficients through the elastic-net prox, and the step size tau; the
    error is the square root of the summed squared sup-norm deltas.
    Damping `cfg.damping` is applied to the (xi, beta, tau, tau_hat)
    updates.  When err has not halved over AMP_STALL_WINDOW epochs the
    damping is halved (diagnostics["damping_cuts"]); a stall that would
    take it below AMP_DAMPING_FLOOR stops the fit with stop_reason
    "stalled".  Fits that never stall are unaffected.  diagnostics
    ["err_history"] holds err after each epoch.  May legitimately fail to
    converge at weak regularization; this is reported through
    `converged`, while non-finite iterates raise FitDivergedError.

    Parameters
    ----------
    data : SurvivalDataset
    pen : ElasticNetPenalty with rho > 0
    init : FitResult, optional
        Warm start (beta_hat, and xi/tau/tau_hat when present).
    cfg : SolverConfig, optional
    """
    t0 = perf_counter()
    cfg = cfg or SolverConfig()
    max_epochs = AMP_MAX_EPOCHS if cfg.max_epochs is None else cfg.max_epochs
    d = cfg.damping
    X, T, D = data.design, data.times, data.events
    n, p = data.n, data.p
    zeta = p / n

    if not np.any(D == 1.0):
        return _all_censored_result(data, with_amp_state=True, t0=t0)

    # the times are sorted once, for every epoch and the returned hazard
    rs = RiskSets(T, D)
    if init is not None:
        beta = np.array(init.beta_hat, dtype=float)
        xi = np.array(init.xi, dtype=float) if init.xi is not None else X @ beta
        tau = float(init.tau) if init.tau is not None else 1.0
        tau_hat = float(init.tau_hat) if init.tau_hat is not None else 1.0
        lamT = init.hazard.evaluate(T)
    else:
        beta = np.zeros(p)
        xi = np.zeros(n)
        tau = tau_hat = 1.0
        lamT = rs.hazard(np.zeros(n))

    stop_reason = "max_epochs"
    err = np.inf
    err_history = []
    damping_cuts = []
    # stalls are judged against the errs from this epoch on
    window_start = 1
    epoch = 0
    while epoch < max_epochs:
        epoch += 1
        # the epoch's three Cox-prox evaluations share tau*Delta, the last
        # two also log(tau*Lambda); each forms only the outputs it uses
        tau_delta = tau * D
        # hazard refresh at the proximal points of the current field
        lin = prox_g_w(xi, tau_delta, cox_w(xi, tau_delta, log_tau_lam(lamT, tau)))
        lamT_new = rs.hazard(lin)
        err2 = np.max(np.abs(lamT_new - lamT)) ** 2
        lamT = lamT_new

        # field update (Onsager-corrected) under the refreshed hazard
        log_tl = log_tau_lam(lamT, tau)
        mdot = moreau_dot_w(cox_w(xi, tau_delta, log_tl), D, tau)
        xi_new = (1 - d) * xi + d * (X @ beta + tau * mdot)
        err2 += np.max(np.abs(xi_new - xi)) ** 2
        xi = xi_new

        w = cox_w(xi, tau_delta, log_tl)
        mdot = moreau_dot_w(w, D, tau)
        # np.add.reduce(x) / x.size is np.mean(x), without its overhead
        tau_hat_new = (1 - d) * tau_hat + d * (
            zeta / (np.add.reduce(moreau_ddot_w(w, tau)) / n))
        err2 += (tau_hat_new - tau_hat) ** 2
        tau_hat = tau_hat_new

        psi = beta - tau_hat * (X.T @ mdot)
        beta_new = (1 - d) * beta + d * prox_enet(psi, tau_hat, pen)
        err2 += np.max(np.abs(beta_new - beta)) ** 2
        beta = beta_new

        tau_new = (1 - d) * tau + d * (
            tau_hat * (np.add.reduce(prox_enet_dot(psi, tau_hat, pen)) / p))
        err2 += (tau_new - tau) ** 2
        tau = tau_new

        err = np.sqrt(err2)
        err_history.append(float(err))
        # from finite iterates, a non-finite new one makes err non-finite
        if not np.isfinite(err):
            _check_finite(epoch, beta=beta, xi=xi, tau=tau, tau_hat=tau_hat, err=err)
        if err < cfg.tol:
            stop_reason = "tol"
            break
        if (epoch - window_start >= AMP_STALL_WINDOW and err > AMP_STALL_DROP
                * err_history[epoch - 1 - AMP_STALL_WINDOW]):
            if d * AMP_DAMPING_CUT < AMP_DAMPING_FLOOR:
                stop_reason = "stalled"
                break
            d *= AMP_DAMPING_CUT
            damping_cuts.append([epoch, d])
            window_start = epoch

    # one undamped prox application so the reported coefficients carry the
    # exact zeros of the soft threshold (the damped iterate only reaches
    # them in the limit); moves beta by O(err)
    mdot = moreau_dot_g(xi, lamT, D, tau)
    beta = prox_enet(beta - tau_hat * (X.T @ mdot), tau_hat, pen)

    return FitResult(beta_hat=beta, hazard=rs.step_hazard(lamT),
                     converged=stop_reason == "tol", epochs=epoch,
                     final_err=float(err), xi=xi, tau=float(tau),
                     tau_hat=float(tau_hat),
                     diagnostics={"err_history": err_history,
                                  "damping_cuts": damping_cuts,
                                  **_stop_diagnostics(stop_reason, t0)})


def fit_cd(data, pen, init=None, cfg=None):
    """Coordinate-wise descent for the penalized Cox model.

    Each outer epoch linearizes the profile loss at the current iterate
    (score and curvature with weights Lambda(T_i) e^{x_i'b}), runs one
    full cycle of coordinate proximal updates in fixed index order, then
    refreshes the hazard with the Nelson-Aalen estimator.  Only the
    curvature diagonal and per-coordinate row actions are ever formed.

    One epoch is a map on the coefficients.  Every CD_ANDERSON_K epochs
    the last CD_ANDERSON_K + 1 iterates are Anderson-extrapolated, and the
    extrapolated point replaces the iterate only where it lowers the
    penalized partial likelihood (diagnostics["extrapolations_tried"] and
    ["extrapolations_kept"]); the fixed point, and so the fit within the
    tolerance, is that of the plain sweeps, and the coefficients returned
    are those of a sweep.  Coordinates with zero curvature are skipped
    (counted in diagnostics["skipped_coordinates"]), and so is a zero
    coordinate whose update a Cauchy-Schwarz bound shows to be zero
    (diagnostics["screened_coordinates"]): the screen is exact, every
    fit is bit for bit that of the sweep without it.
    """
    t0 = perf_counter()
    cfg = cfg or SolverConfig()
    max_epochs = CD_MAX_EPOCHS if cfg.max_epochs is None else cfg.max_epochs
    X, T, D = data.design, data.times, data.events
    n, p = data.n, data.p
    alpha, eta = pen.alpha, pen.eta

    if not np.any(D == 1.0):
        return _all_censored_result(data, with_amp_state=False, t0=t0)

    # the times are sorted once, for every epoch and the returned hazard
    rs = RiskSets(T, D)
    beta = np.array(init.beta_hat, dtype=float) if init is not None else np.zeros(p)
    lp = X @ beta
    lamT = rs.hazard(lp)
    X2 = X * X
    cols = [X[:, k] for k in range(p)]
    # the screen's relative slack on S; see the screen below
    slack = (n + 8) * (p + 1) * 2.0**-51 if (n + 8) * (p + 1) <= 2**33 else math.inf

    stop_reason = "max_epochs"
    err = np.inf
    epoch = 0
    skipped = screened = 0
    # the iterates since the last extrapolation, the start included
    iterates = [beta]
    tried = kept = 0
    while epoch < max_epochs:
        epoch += 1
        wdiag = lamT * np.exp(lp)
        # the sweep runs on Python floats: numpy scalar arithmetic would
        # dominate it
        score = (X.T @ (wdiag - D)).tolist()
        curv = (X2.T @ wdiag).tolist()
        phi = beta.tolist()
        # r tracks wdiag * (X beta - X phi); starts at zero.  S tracks its
        # squared norm sum_i r_i^2 / wdiag_i, A the sum of |terms| of S
        r = np.zeros(n)
        S = A = 0.0
        for k in range(p):
            mkk = curv[k]
            if mkk <= 0.0:
                skipped += 1
                continue
            tauhat = 1.0 / mkk
            thresh = alpha * tauhat
            phik = phi[k]
            # Screen: skip a zero coordinate whose update is provably zero,
            # before its dot product; the plain update would leave phi and
            # r as they are.  By Cauchy-Schwarz in the wdiag inner product,
            # |x_k . r| <= sqrt(m Q), with m = sum_i wdiag_i x_ik^2 and
            # Q = sum_i r_i^2 / wdiag_i (r_i = 0 where wdiag_i = 0).  In the
            # standard model of rounding, without underflow (Higham,
            # "Accuracy and Stability of Numerical Algorithms", 2002,
            # ch. 2-3), with u = 2^-53 and g_j = j u / (1 - j u):
            # - dot: in any summation order, |dot - x_k . r| <= g_n
            #   sum_i |x_ik r_i| <= g_n sqrt(m Q), and |mkk - m| <= g_(n+1) m;
            # - S: exactly, an update takes delta wdiag x_k from r and adds
            #   t1 - t2 = delta^2 mkk - 2 delta dot to Q.  With the roundings
            #   of r, dot, mkk, t1, t2, S and A, and |S| <= A, it turns
            #   Q <= S + l A into Q <= S + l' A with l' <= (1 + (n + 7) u) l
            #   + (2n + 12) u.  From l = 0 at the sweep's start, l <= 2 (n + 6)
            #   p u (1 + 2^-19) while (n + 8)(p + 1) u <= 2^-20; slack, twice
            #   that and more, also covers g_n, g_(n+1) and the roundings of
            #   bound and sqrt, so sqrt(bound) >= |dot| (and bound >= 0; the
            #   check keeps sqrt defined outside the model).  A design with
            #   (n + 8)(p + 1) > 2^33 gets no screen: slack is inf and bound
            #   inf or NaN;
            # - divisions: with phik = 0 the update forms psi_k =
            #   fl(fl(dot - score[k]) / mkk), and rounding is monotone, so
            #   |psi_k| <= fl(fl(sqrt(bound) + |score[k]|) / mkk) < thresh:
            #   psi_k is finite and the update takes the zero branch, a
            #   signed zero equal to phik.  NaN fails every comparison.
            if phik == 0.0:
                bound = mkk * (S + slack * A)
                if bound >= 0.0 and (abs(score[k]) + math.sqrt(bound)) / mkk < thresh:
                    screened += 1
                    continue
            xk = cols[k]
            dot = float(xk @ r)
            psi_k = (dot + mkk * phik - score[k]) / mkk
            # prox_enet(psi_k, tauhat, pen), the same operations on floats
            if psi_k > thresh:
                new = (psi_k - thresh) / (1.0 + eta * tauhat)
            elif psi_k < -thresh:
                new = (psi_k + thresh) / (1.0 + eta * tauhat)
            else:
                # a signed zero, or NaN that the divergence check reports
                new = psi_k * 0.0
            if new != phik:
                delta = new - phik
                r -= wdiag * xk * delta
                t1 = delta * delta * mkk
                t2 = 2.0 * delta * dot
                S += t1 - t2
                A += t1 + abs(t2)
                phi[k] = new
        beta_new = np.array(phi)
        lp = X @ beta_new
        lamT_new = rs.hazard(lp)
        err = np.sqrt(np.max(np.abs(beta_new - beta)) ** 2
                      + np.max(np.abs(lamT_new - lamT)) ** 2)
        beta, lamT = beta_new, lamT_new
        if not np.isfinite(err):
            _check_finite(epoch, beta=beta, err=err)
        if err < cfg.tol:
            stop_reason = "tol"
            break
        if not CD_ANDERSON_K or epoch == max_epochs:
            continue
        iterates.append(beta)
        if len(iterates) > CD_ANDERSON_K:
            tried += 1
            acc = _anderson_mix(iterates)
            if acc is not None:
                lp_acc = X @ acc
                if (rs.penalized_loss(lp_acc, acc, pen)
                        < rs.penalized_loss(lp, beta, pen)):
                    kept += 1
                    beta, lp = acc, lp_acc
                    lamT = rs.hazard(lp)
            iterates = [beta]

    return FitResult(beta_hat=beta, hazard=rs.step_hazard(lamT),
                     converged=stop_reason == "tol", epochs=epoch,
                     final_err=float(err),
                     diagnostics={"skipped_coordinates": skipped,
                                  "screened_coordinates": screened,
                                  "extrapolations_tried": tried,
                                  "extrapolations_kept": kept,
                                  **_stop_diagnostics(stop_reason, t0)})


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
                            diagnostics={"stop_reason": "diverged",
                                         "error": str(exc)})
        else:
            init = res
        results.append(res)
    return results
