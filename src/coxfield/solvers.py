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
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# cox_prox_bundle and prox_g are unused here but stay bound: perfbench's
# tracer wraps them as names of this module
from .prox import (check_path_order, cox_prox_bundle, cox_w, moreau_ddot_w,
                   moreau_dot_g, moreau_dot_w, prox_enet, prox_enet_dot,
                   prox_g, prox_g_w)
from .survival import check_ints, nelson_aalen

AMP_MAX_EPOCHS = 1000
# AMP stall handling: a stall is an err that has not fallen to
# AMP_STALL_DROP times its value AMP_STALL_WINDOW epochs before; each stall
# multiplies the damping by AMP_DAMPING_CUT, and a stall that would take it
# below AMP_DAMPING_FLOOR ends the fit as "stalled"
AMP_STALL_WINDOW = 50
AMP_STALL_DROP = 0.5
AMP_DAMPING_CUT = 0.5
AMP_DAMPING_FLOOR = 0.1
# a stall first holds the coordinates whose threshold activity changed at
# least twice over the last AMP_FLIP_WINDOW epochs (see fit_amp); errs that
# stay within AMP_FLAT_REL of each other over those epochs may hold them too
AMP_FLIP_WINDOW = 10
AMP_FLAT_REL = 1e-3
CD_MAX_EPOCHS = 100
# the conjugate gradients of CD's Newton step (see fit_cd) stop at
# relative residual CD_CG_TOL or after CD_CG_MAX_ITER products
CD_CG_TOL = 1e-4
CD_CG_MAX_ITER = 50


@dataclass
class SolverConfig:
    """Common solver knobs.

    max_epochs = None picks the per-solver default (1000 for AMP, 100
    for CD); damping is the weight on the proposed iterate in the AMP
    updates (1.0 disables damping, CD ignores it).  The default 0.85 is
    light: AMP meets a threshold 2-cycle by holding the flipping
    coordinates (see `fit_amp`), not by heavier damping.
    """

    tol: float = 1e-8
    max_epochs: int | None = None
    damping: float = 0.85

    def __post_init__(self):
        # the checks are written so that NaN fails them
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if self.max_epochs is not None:
            check_ints(self, "max_epochs")
            if self.max_epochs < 1:
                raise ValueError("max_epochs must be at least 1 (None: default)")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass
class FitResult:
    """Solver output: coefficients, fitted hazard, convergence diagnostics.

    xi, tau, tau_hat are populated by the AMP solver only.  diagnostics
    holds "stop_reason" ("tol", "max_epochs", "stalled" (AMP),
    "all_censored" or "diverged": NaN beta_hat and final_err, no hazard,
    AMP scalars or "kkt_residual", and an "error" naming the first
    non-finite field and the epoch), "kkt_residual" (the largest
    subgradient violation of the penalized loss at beta_hat, a
    certificate and no stop rule) and the wall time "seconds" of the fit.
    AMP adds "err_history" (err after each epoch), "damping_cuts"
    ([epoch, damping] after each cut) and "frozen" ([epoch, index, side]
    for each coordinate held in tau's divergence term, side +1 active or
    -1 inactive; a later entry for the same index records a switch to
    the other side, or with side 0 its release); CD adds
    "skipped_coordinates" (visits to a zero-curvature coordinate),
    "screened_coordinates" (visits the screen skipped), "newton_tried",
    "newton_kept" and "cg_iterations" (summed over the Newton steps).
    A fit from `reg_path` also holds "start" ("given", "previous" or
    "cold"), the start that the path chose for it.
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


def _diverged(p, epoch, t0, **fields):
    # every fit whose err turned non-finite; fields in update order, err last
    name = next(k for k, v in fields.items() if not np.all(np.isfinite(v)))
    error = (f"non-finite {name} at epoch {epoch}; the penalty is likely "
             "too weak for a minimizer to exist")
    return FitResult(beta_hat=np.full(p, np.nan), hazard=None,
                     converged=False, epochs=epoch, final_err=np.nan,
                     diagnostics={"stop_reason": "diverged", "error": error,
                                  "seconds": perf_counter() - t0})


def _check_start(init, data, amp):
    # a start is a fit of data's p finite coefficients, for AMP with a
    # hazard and, where it has one, a field of length n; a diverged fit
    # has neither finite coefficients nor a hazard
    if init is None:
        return
    for name, value, size in (("beta_hat", init.beta_hat, data.p),
                              ("xi", init.xi if amp else None, data.n)):
        if value is not None and np.shape(value) != (size,):
            raise ValueError(f"the start init's {name} has shape "
                             f"{np.shape(value)}, not ({size},); a fit of "
                             "another dataset is no start")
    if not np.all(np.isfinite(init.beta_hat)):
        raise ValueError("the start init has a non-finite beta_hat; a "
                         "diverged fit is no start")
    if amp and init.hazard is None:
        raise ValueError("the start init has no hazard; AMP starts from a "
                         "fit with one")


def _err(*norms):
    """The fits' err: the square root of the summed squares of the
    sup-norm deltas, summed in the order given.  Where a square overflows
    but every norm is finite, the sum is taken over the norms divided by
    the largest, so err is finite whenever every norm is."""
    err2 = 0.0
    for x in norms:
        err2 += x ** 2
    if math.isfinite(err2) or not all(map(math.isfinite, norms)):
        return math.sqrt(err2)
    top = max(map(abs, norms))
    return top * math.sqrt(sum((x / top) ** 2 for x in norms))


def _fit_result(pen, beta, grad, hazard, epochs, err, stop_reason, t0,
                diagnostics, **amp_state):
    # every finished fit: converged iff it stopped on tol or had no events
    # (the origin with a vanishing hazard is then an exact fixed point of
    # both iterations); the KKT residual at beta (grad: the loss gradient
    # the solver formed there), stop reason and wall time follow the
    # solver's keys
    return FitResult(beta_hat=beta, hazard=hazard,
                     converged=stop_reason in ("tol", "all_censored"),
                     epochs=epochs, final_err=float(err), **amp_state,
                     diagnostics={**diagnostics, "stop_reason": stop_reason,
                                  "kkt_residual": _kkt_residual(grad, beta, pen),
                                  "seconds": perf_counter() - t0})


def _breslow(X, D, rs, lp):
    """At linear predictor lp: the Nelson-Aalen hazard Lambda(T) at each
    time, the weights w = Lambda(T) e^lp, the gradient X'(w - Delta) of
    the partial likelihood with the hazard profiled out, and its
    Hessian-vector product in linear-predictor space
    (`RiskSets.breslow`)."""
    lamT, w, hess = rs.breslow(lp)
    return lamT, w, X.T @ (w - D), hess


def _kkt_residual(grad, beta, pen):
    """The largest violation of the subgradient optimality conditions of
    the penalized loss at beta, grad the gradient of the unpenalized loss:
    |grad_k + eta beta_k + alpha sign(beta_k)| where beta_k != 0, and
    max(|grad_k| - alpha, 0) where beta_k = 0.  NaN where grad is."""
    g = grad + pen.eta * beta
    viol = np.where(beta != 0, np.abs(g + pen.alpha * np.sign(beta)),
                    np.maximum(np.abs(g) - pen.alpha, 0.0))
    return float(np.max(viol, initial=0.0))


def _newton_step(X, hess, beta, grad, pen):
    """The Newton step of the penalized loss on the support A of beta with
    its signs fixed: conjugate gradients on (X_A' H X_A + eta I) s =
    grad_A + alpha sign(beta_A) + eta beta_A, with hess the product u -> H u
    by the Hessian of the loss at X beta (from `_breslow`, as grad); a
    coordinate of beta_A - s whose sign flips is set to zero.  Returns the
    candidate and the CG iterations."""
    A = np.flatnonzero(beta)
    sign = np.sign(beta[A])
    XA = X[:, A]
    r = grad[A] + pen.alpha * sign + pen.eta * beta[A]
    s = np.zeros(A.size)
    d = r.copy()
    rr = r @ r
    stop = CD_CG_TOL**2 * rr
    it = 0
    while it < CD_CG_MAX_ITER and rr > stop:
        it += 1
        q = XA.T @ hess(XA @ d) + pen.eta * d
        dq = d @ q
        if not dq > 0.0:
            break
        step = rr / dq
        s += step * d
        r -= step * q
        rr, rr_old = r @ r, rr
        d = r + (rr / rr_old) * d
    new = beta[A] - s
    cand = beta.copy()
    cand[A] = np.where(np.sign(new) == sign, new, 0.0)
    return cand, it


def _flipping(recent, alpha, free):
    """The free coordinates whose activity |psi_k| > alpha tau_hat changed
    at least twice over the (|psi|, tau_hat) pairs in recent, and the side
    of each: the sign (+1, or -1 for <= 0) of its mean margin
    |psi_k| - alpha tau_hat over the last two, one period of a 2-cycle."""
    margin = np.array([abs_psi - alpha * th for abs_psi, th in recent])
    active = margin > 0.0
    flips = np.count_nonzero(active[1:] != active[:-1], axis=0)
    new = np.flatnonzero((flips >= 2) & free)
    return new, np.where(margin[-2:, new].sum(axis=0) > 0.0, 1, -1)


def _flat(errs):
    """Whether errs lie within a relative AMP_FLAT_REL of each other."""
    return max(errs) - min(errs) <= AMP_FLAT_REL * max(errs)


def fit_amp(data, pen, init=None, cfg=None):
    """Approximate-message-passing solver for the penalized Cox model.

    One epoch updates, in order: the Nelson-Aalen hazard at the proximal
    points of the previous field, the field xi, the step size tau_hat, the
    coefficients through the elastic-net prox, and the step size tau; the
    error is the square root of the summed squared sup-norm deltas.
    Damping `cfg.damping` is applied to the (xi, beta, tau, tau_hat)
    updates.  When err has not halved over AMP_STALL_WINDOW epochs (a
    stall), or is flat (its last AMP_FLIP_WINDOW values lie within a
    relative AMP_FLAT_REL of each other, as in a 2-cycle long before the
    stall window ends), the fit holds each flipping coordinate
    (`_flipping`: a threshold 2-cycle, which makes tau's divergence term
    jump every epoch whatever the damping) on one side in that term, and
    restarts the stall window; the beta prox keeps the true threshold.  At
    err < tol it stops only if every held side is the coordinate's true
    activity, so the last update is the unheld one and a converged fit is
    a fixed point of plain AMP to tol; a contradicted side is switched
    once, then released, and the window restarts.  A stall, not a flat
    err, with no coordinate to hold halves the damping
    (diagnostics["damping_cuts"]); one that would take it below
    AMP_DAMPING_FLOOR stops the fit with stop_reason "stalled".  Fits
    whose err neither stalls nor goes flat are the plain AMP loop, bit for
    bit.  diagnostics["err_history"] holds err after each epoch,
    diagnostics["frozen"] the holds.  May legitimately fail to converge or
    diverge at weak regularization; both are reported through `converged`
    and stop_reason.  The times are sorted once per dataset
    (`SurvivalDataset.risk_sets`): every epoch's hazard, every fit of the
    dataset and the returned hazard share that one sort.

    Parameters
    ----------
    data : SurvivalDataset
    pen : ElasticNetPenalty with rho > 0
    init : FitResult, optional
        Warm start (beta_hat and hazard, and xi/tau/tau_hat when present).
        A start with a non-finite beta_hat or no hazard, such as a fit
        that diverged, or a fit of another dataset (beta_hat not of length
        p, or xi not of length n), raises ValueError.
    cfg : SolverConfig, optional
    """
    t0 = perf_counter()
    _check_start(init, data, amp=True)
    cfg = cfg or SolverConfig()
    max_epochs = AMP_MAX_EPOCHS if cfg.max_epochs is None else cfg.max_epochs
    d = cfg.damping
    X, T, D = data.design, data.times, data.events
    n, p = data.n, data.p
    zeta = p / n

    if not np.any(D == 1.0):
        return _fit_result(pen, np.zeros(p), np.zeros(p),
                           nelson_aalen(T, D, np.zeros(n)), 1, 0.0,
                           "all_censored", t0, {}, xi=np.zeros(n), tau=1.0,
                           tau_hat=1.0)
    rs = data.risk_sets
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
    # the last epochs' (|psi|, tau_hat), read when a stall fires
    recent = deque(maxlen=AMP_FLIP_WINDOW)
    # tau's divergence term holds coordinate k active (side +1) or inactive
    # (-1) while side[k] != 0; holds[k] counts its freeze, switch and
    # release, and only a coordinate with none may be frozen
    side = np.zeros(p, dtype=int)
    holds = np.zeros(p, dtype=int)
    held = np.flatnonzero(side)
    frozen = []
    # stalls are judged against the errs from this epoch on
    window_start = 1
    epoch = 0
    # floating-point warnings stay silent: from finite iterates a
    # non-finite one makes err non-finite, which ends the fit as diverged,
    # naming it.  Under them log(tau*Lambda) is formed as `log_tau_lam`
    # forms it: -inf where Lambda = 0, so that W0 = 0 there exactly
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while epoch < max_epochs:
            epoch += 1
            # the epoch's three Cox-prox evaluations share tau*Delta, the last
            # two also log(tau*Lambda); each forms only the outputs it uses
            tau_delta = tau * D
            # hazard refresh at the proximal points of the current field
            lin = prox_g_w(xi, tau_delta, cox_w(xi, tau_delta, np.log(tau * lamT)))
            lamT_new = rs.hazard(lin)
            # np.maximum.reduce is np.max without its wrapper's overhead
            dlam = np.maximum.reduce(np.abs(lamT_new - lamT))
            lamT = lamT_new

            # field update (Onsager-corrected) under the refreshed hazard
            log_tl = np.log(tau * lamT)
            mdot = moreau_dot_w(cox_w(xi, tau_delta, log_tl), D, tau)
            xi_new = (1 - d) * xi + d * (X @ beta + tau * mdot)
            dxi = np.maximum.reduce(np.abs(xi_new - xi))
            xi = xi_new

            w = cox_w(xi, tau_delta, log_tl)
            mdot = moreau_dot_w(w, D, tau)
            # np.add.reduce(x) / x.size is np.mean(x), without its overhead
            tau_hat_new = (1 - d) * tau_hat + d * (
                zeta / (np.add.reduce(moreau_ddot_w(w, tau)) / n))
            dtau_hat = tau_hat_new - tau_hat
            tau_hat = tau_hat_new

            psi = beta - tau_hat * (X.T @ mdot)
            # |psi| serves the prox, its derivative and the holds
            abs_psi = np.abs(psi)
            recent.append((abs_psi, tau_hat))
            beta_new = (1 - d) * beta + d * prox_enet(psi, tau_hat, pen, abs_psi)
            dbeta = np.maximum.reduce(np.abs(beta_new - beta))
            beta = beta_new

            # beta keeps the true threshold; only the divergence holds sides
            dot = prox_enet_dot(psi, tau_hat, pen, abs_psi)
            if held.size:
                dot[held] = (side[held] > 0) / (1.0 + pen.eta * tau_hat)
            tau_new = (1 - d) * tau + d * (tau_hat * (np.add.reduce(dot) / p))
            dtau = tau_new - tau
            tau = tau_new

            err = _err(dlam, dxi, dtau_hat, dbeta, dtau)
            err_history.append(err)
            if not math.isfinite(err):
                return _diverged(p, epoch, t0, hazard=lamT, xi=xi,
                                 tau_hat=tau_hat, beta=beta, tau=tau, err=err)
            if err < cfg.tol:
                # converged only where every held side is the true one, so the
                # last update is the unheld one; a contradicted side is
                # switched once, then released for good
                wrong = held[(abs_psi[held] > pen.alpha * tau_hat)
                             != (side[held] > 0)]
                if not wrong.size:
                    stop_reason = "tol"
                    break
                side[wrong] = np.where(holds[wrong] == 1, -side[wrong], 0)
                holds[wrong] += 1
                frozen += [[epoch, int(k), int(side[k])] for k in wrong]
                held = np.flatnonzero(side)
                window_start = epoch
                continue
            stalled = (epoch - window_start >= AMP_STALL_WINDOW and err
                       > AMP_STALL_DROP * err_history[epoch - 1 - AMP_STALL_WINDOW])
            if stalled or (epoch - window_start >= AMP_FLIP_WINDOW
                           and _flat(err_history[-AMP_FLIP_WINDOW:])):
                new, new_side = _flipping(recent, pen.alpha, holds == 0)
                if new.size:
                    side[new] = new_side
                    holds[new] = 1
                    frozen += [[epoch, int(k), int(s)] for k, s in zip(new, new_side)]
                    held = np.flatnonzero(side)
                    window_start = epoch
                elif stalled:
                    if d * AMP_DAMPING_CUT < AMP_DAMPING_FLOOR:
                        stop_reason = "stalled"
                        break
                    d *= AMP_DAMPING_CUT
                    damping_cuts.append([epoch, d])
                    window_start = epoch

        # one undamped prox application so the reported coefficients carry
        # the exact zeros of the soft threshold (the damped iterate only
        # reaches them in the limit); moves beta by O(err).  The
        # certificate's gradient is taken there
        mdot = moreau_dot_g(xi, lamT, D, tau)
        beta = prox_enet(beta - tau_hat * (X.T @ mdot), tau_hat, pen)
        grad = _breslow(X, D, rs, X @ beta)[2]

    return _fit_result(pen, beta, grad, rs.step_hazard(lamT), epoch, err,
                       stop_reason, t0,
                       {"err_history": err_history,
                        "damping_cuts": damping_cuts, "frozen": frozen},
                       xi=xi, tau=float(tau), tau_hat=float(tau_hat))


def fit_cd(data, pen, init=None, cfg=None):
    """Coordinate-wise descent for the penalized Cox model.

    Each outer epoch linearizes the profile loss at the current iterate
    (score and curvature with weights Lambda(T_i) e^{x_i'b}), runs one
    full cycle of coordinate proximal updates in fixed index order, then
    refreshes the hazard with the Nelson-Aalen estimator.  Only the
    curvature diagonal and per-coordinate row actions are ever formed.

    The Newton schedule: a guarded Newton step on the support of the
    coefficients (`_newton_step`, conjugate gradients on Hessian-vector
    products) proposes a candidate before every sweep but the first.
    Before the first sweep only a warm start from a nonzero beta whose
    KKT residual (see `FitResult`) exceeds tol tries one, a predictor
    along the regularization path (Park & Hastie, JRSS-B 69, 2007); a
    start that is a KKT point to tol, such as a converged fit of the same
    penalty, gets none.  A candidate replaces the iterate only where its
    KKT residual is below the iterate's and its penalized partial
    likelihood is not above the iterate's by more than 1e-12 relative
    (diagnostics["newton_tried"], ["newton_kept"] and ["cg_iterations"]).
    Each rejected candidate doubles the number of sweeps to the next
    Newton step; a kept one resets it to one.  A fit converges only when
    a plain sweep moves less than tol: the fixed point, and so the fit
    within the tolerance, is that of the plain sweeps, and the
    coefficients returned are those of a sweep.  Newton steps are not
    counted as epochs.  Coordinates with zero curvature are skipped
    (counted in diagnostics["skipped_coordinates"]), and so is a zero
    coordinate whose update a Cauchy-Schwarz bound shows to be zero
    (diagnostics["screened_coordinates"]): the screen is exact, every
    sweep is bit for bit that without it.  A non-finite iterate ends the
    fit as diverged (see `FitResult`).  A warm start `init` needs a
    finite beta_hat of length p, else ValueError; its hazard is not read.
    The times are sorted once per dataset (`SurvivalDataset.risk_sets`),
    for every hazard, gradient and Hessian product of every fit of it.
    """
    t0 = perf_counter()
    _check_start(init, data, amp=False)
    cfg = cfg or SolverConfig()
    max_epochs = CD_MAX_EPOCHS if cfg.max_epochs is None else cfg.max_epochs
    X, T, D = data.design, data.times, data.events
    n, p = data.n, data.p
    alpha, eta = pen.alpha, pen.eta

    if not np.any(D == 1.0):
        return _fit_result(pen, np.zeros(p), np.zeros(p),
                           nelson_aalen(T, D, np.zeros(n)), 1, 0.0,
                           "all_censored", t0, {})
    rs = data.risk_sets
    beta = np.array(init.beta_hat, dtype=float) if init is not None else np.zeros(p)
    lp = X @ beta
    lamT, wdiag, grad, hess = _breslow(X, D, rs, lp)
    X2 = X * X
    cols = list(X.T)
    # the r update's product, formed in place
    buf = np.empty(n)
    # the screen's relative slack on S; see the screen below
    slack = (n + 8) * (p + 1) * 2.0**-51 if (n + 8) * (p + 1) <= 2**33 else math.inf

    stop_reason = "max_epochs"
    err = np.inf
    epoch = 0
    skipped = screened = 0
    tried = kept = cg_iterations = 0
    # the Newton schedule of the docstring; from the previous point's
    # optimum the step's right-hand side is the change in penalty
    newton_gap = 1
    next_newton = 0 if beta.any() and _kkt_residual(grad, beta, pen) > cfg.tol else 1
    while epoch < max_epochs:
        if epoch >= next_newton:
            # the guarded Newton step: a kept candidate carries its own
            # weights and gradient into the next sweep
            tried += 1
            cand, its = _newton_step(X, hess, beta, grad, pen)
            cg_iterations += its
            moved = np.flatnonzero(cand != beta)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                lp_c = lp + X[:, moved] @ (cand[moved] - beta[moved])
                lamT_c, wdiag_c, grad_c = _breslow(X, D, rs, lp_c)[:3]
                loss, loss_c = (rs.penalized_loss(lp, beta, pen),
                                rs.penalized_loss(lp_c, cand, pen))
            # the KKT residual decides, as the loss alone would tie on
            # rounding near the optimum; the loss may not rise beyond rounding
            if (_kkt_residual(grad_c, cand, pen) < _kkt_residual(grad, beta, pen)
                    and loss_c <= loss + 1e-12 * abs(loss)):
                kept += 1
                beta, lp, lamT, wdiag, grad = cand, lp_c, lamT_c, wdiag_c, grad_c
                newton_gap = 1
            else:
                newton_gap *= 2
            next_newton = epoch + newton_gap
        epoch += 1
        # the sweep runs on Python floats: numpy scalar arithmetic would
        # dominate it
        score = grad.tolist()
        mkks = X2.T @ wdiag
        # each coordinate's step 1/mkk, threshold and shrink, the divisions
        # and products of the per-coordinate prox on floats, as vectors
        # (a zero curvature's inf and NaN are never read)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            tauhats = 1.0 / mkks
            threshs = (alpha * tauhats).tolist()
            shrinks = (1.0 + eta * tauhats).tolist()
        curv = mkks.tolist()
        phi = beta.tolist()
        # r tracks wdiag * (X beta - X phi); starts at zero.  S tracks its
        # squared norm sum_i r_i^2 / wdiag_i, A the sum of |terms| of S,
        # SA the screen's S + slack A (NaN where slack is inf and A = 0)
        r = np.zeros(n)
        S = A = 0.0
        SA = S + slack * A
        for k in range(p):
            mkk = curv[k]
            if mkk <= 0.0:
                skipped += 1
                continue
            thresh = threshs[k]
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
                bound = mkk * SA
                if bound >= 0.0 and (abs(score[k]) + math.sqrt(bound)) / mkk < thresh:
                    screened += 1
                    continue
            xk = cols[k]
            # the ddot of xk @ r, without the matmul dispatch
            dot = float(xk.dot(r))
            psi_k = (dot + mkk * phik - score[k]) / mkk
            # prox_enet(psi_k, 1 / mkk, pen), the same operations on floats
            if psi_k > thresh:
                new = (psi_k - thresh) / shrinks[k]
            elif psi_k < -thresh:
                new = (psi_k + thresh) / shrinks[k]
            else:
                # a signed zero, or NaN that the divergence check reports
                new = psi_k * 0.0
            if new != phik:
                delta = new - phik
                np.multiply(wdiag, xk, out=buf)
                buf *= delta
                r -= buf
                t1 = delta * delta * mkk
                t2 = 2.0 * delta * dot
                S += t1 - t2
                A += t1 + abs(t2)
                SA = S + slack * A
                phi[k] = new
        beta_new = np.array(phi)
        lp = X @ beta_new
        lamT_new, wdiag, grad, hess = _breslow(X, D, rs, lp)
        err = _err(np.maximum.reduce(np.abs(beta_new - beta)),
                   np.maximum.reduce(np.abs(lamT_new - lamT)))
        beta, lamT = beta_new, lamT_new
        if not math.isfinite(err):
            return _diverged(p, epoch, t0, beta=beta, err=err)
        if err < cfg.tol:
            stop_reason = "tol"
            break

    # grad is the last sweep's, at the returned beta
    return _fit_result(pen, beta, grad, rs.step_hazard(lamT), epoch, err,
                       stop_reason, t0,
                       {"skipped_coordinates": skipped,
                        "screened_coordinates": screened,
                        "newton_tried": tried, "newton_kept": kept,
                        "cg_iterations": cg_iterations})


_SOLVERS = {"amp": fit_amp, "cd": fit_cd}


def reg_path(data, pen_grid, solver, cfg=None, inits=None):
    """Fit along a regularization path with warm starts.

    The grid and `inits` must pass `check_path_order`.  Only a fit with a
    hazard is a start, so none that diverged (stop reason "diverged", see
    `FitResult`): point i starts from inits[i] (a FitResult) where inits
    is given and that entry is one, otherwise from the last result that
    is one, otherwise cold.  diagnostics["start"] records which:
    "given", "previous" or "cold".
    """
    if solver not in _SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    check_path_order(pen_grid, inits)
    fit = _SOLVERS[solver]
    results = []
    previous = None
    for pen, given in zip(pen_grid, inits or [None] * len(pen_grid)):
        if getattr(given, "hazard", None) is not None:
            start, init = "given", given
        elif previous is not None:
            start, init = "previous", previous
        else:
            start, init = "cold", None
        res = fit(data, pen, init=init, cfg=cfg)
        res.diagnostics["start"] = start
        if res.hazard is not None:
            previous = res
        results.append(res)
    return results
