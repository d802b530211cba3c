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
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from time import perf_counter

import numpy as np

# cox_prox_bundle and prox_g are unused here but stay bound: perfbench's
# tracer wraps them as names of this module
from .prox import (ElasticNetPenalty, _holds, check_fields, check_path_order,
                   cox_prox_bundle, cox_w, moreau_ddot_w, moreau_dot_g,
                   moreau_dot_w, prox_enet, prox_enet_dot, prox_g, prox_g_w)
from .survival import StepHazard, nelson_aalen

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
CD_CG_TOL = 1e-3
CD_CG_MAX_ITER = 50
# The float32 rule: above F32_MIN_SIZE = n p the products that tolerate
# float32 run on a float32 layout of X' (`_product_layout`).  X @ b and
# X' @ m together, float64 against float32 with the casts (best of 7, one
# BLAS thread, a 2-core Xeon): 2.1 against 2.8 us at n p = 3200, 5.3-6.9
# against 4.7-4.9 at 20000, 10.4 against 6.6 at 2^15, 33.7 against 17.6 at
# 125000, 1162 against 576 at 2e6.  Below 2^15 float32 gains a few us per
# epoch at most, and fits there stay bit for bit float64.
F32_MIN_SIZE = 2**15
# AMP's epochs read that layout while the previous err is above
# AMP_F32_ERR.  Not lower: at 1e-6 the float32 noise (about 3e-7 relative
# per product) stalled AMP, doubling the epochs of paper-scale paths
AMP_F32_ERR = 1e-5


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
        check_fields(self)
        # the checks are written so that NaN fails them
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if self.max_epochs is not None and self.max_epochs < 1:
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
    non-finite field, the epoch and the likely cause), "kkt_residual"
    (the largest subgradient violation of the penalized loss at beta_hat,
    a certificate and no stop rule) and the wall time "seconds" of the
    fit.  AMP adds "err_history" (err after each epoch), "damping_cuts"
    ([epoch, damping] after each cut) and "frozen" ([epoch, index, side]
    for each coordinate held in tau's divergence term, side +1 active or
    -1 inactive; a later entry for the same index records a switch to
    the other side, or with side 0 its release); CD adds
    "skipped_coordinates" (visits to a zero-curvature coordinate),
    "newton_tried", "newton_kept" and "cg_iterations" (summed over the
    Newton steps).
    A fit from `reg_path` also holds "start" ("given", "previous" or
    "cold"), the start that the path chose for it.

    A fit record (`to_record`; `coxfield fit` writes one, `path` a list) is
    a JSON object: "penalty" (alpha, eta, rho, l1_ratio), "beta_hat" and
    the "hazard" object's "knots" and "jumps" (lists of finite numbers, a
    StepHazard's), "tau" and "tau_hat" (finite numbers, null for CD) and
    "diagnostics" (an object: "converged" true or false, "epochs" an
    integer, "final_err" a finite number, then the fit's diagnostics).  A
    diverged fit's beta_hat, hazard and final_err are null; `from_record`
    reads none, and any other shape raises ValueError naming file and key.
    """

    beta_hat: np.ndarray
    hazard: StepHazard | None
    converged: bool
    epochs: int
    final_err: float
    xi: np.ndarray | None = None
    tau: float | None = None
    tau_hat: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_record(self, pen):
        """This fit's record at the penalty pen (see the class doc)."""
        ok = self.hazard is not None
        return {"penalty": asdict(pen),
                "beta_hat": list(map(float, self.beta_hat)) if ok else None,
                "hazard": {key: list(map(float, getattr(self.hazard, key)))
                           for key in ("knots", "jumps")} if ok else None,
                "tau": self.tau, "tau_hat": self.tau_hat,
                "diagnostics": {"converged": self.converged,
                                "epochs": self.epochs,
                                "final_err": self.final_err if ok else None,
                                **self.diagnostics}}

    @classmethod
    def from_record(cls, rec, where):
        """The fit (xi None) and penalty of a record read from JSON."""
        if not isinstance(rec, dict) or rec.get("hazard") is None:
            raise ValueError(f"{where}: must be a single record from "
                             "`coxfield fit` that did not diverge")
        diag = _read_field(where, "diagnostics", rec, dict)
        try:
            pen = ElasticNetPenalty(**rec.get("penalty"))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: penalty must be an object with keys "
                             f"alpha, eta, rho, l1_ratio ({exc})") from None
        kw = {f.name: _read_field(where, f.name, diag if f.name in (
            "converged", "epochs", "final_err") else rec, f.type)
              for f in fields(cls) if f.name not in ("xi", "diagnostics")}
        return cls(**kw, diagnostics={k: v for k, v in diag.items()
                                      if k not in kw}), pen


# each annotation's JSON form, as `_holds` reads it, and its name
_FORMS = {np.ndarray: (list[float], "a list of finite numbers"),
          float: (float, "a finite number"), int: (int, "an integer"),
          float | None: (float | None, "a finite number or null"),
          bool: (bool, "true or false"), dict: (dict, "an object"),
          StepHazard | None: (dict, "an object of knots and finite-sum jumps")}


def _read_field(where, key, src, ftype, of=""):
    # src[key] read from JSON as the annotation ftype, numbers finite; a
    # missing key, or a src no object, reads as ..., which no form holds
    form, kind = _FORMS[ftype]
    value = src.get(key, ...) if isinstance(src, dict) else ...
    if _holds(value, form) and (not isinstance(value, (float, list))
                                or np.all(np.isfinite(value))):
        if form is not dict or ftype is dict:
            return value if ftype is not np.ndarray else np.array(value, float)
        knots, jumps = (_read_field(where, k, value, np.ndarray, "hazard ")
                        for k in ("knots", "jumps"))
        try:
            with np.errstate(over="ignore"):
                hazard = StepHazard(knots, np.cumsum(jumps))
        except ValueError as exc:
            raise ValueError(f"{where}: hazard must be a StepHazard: "
                             f"{exc}") from None
        if np.all(np.isfinite(hazard.values)):
            return hazard
    raise ValueError(f"{where}: {of}{key} must be {kind}")


def _diverged(p, epoch, t0, eta=0.0, remedy=None, **iterates):
    # every fit whose err turned non-finite; iterates in update order, err
    # last.  With eta > 0 the loss is strictly convex: a minimizer exists
    name = next(k for k, v in iterates.items() if not np.all(np.isfinite(v)))
    error = (f"non-finite {name} at epoch {epoch}; the penalty " + (
        "has a minimizer (eta > 0)" if eta > 0 else "is likely too weak for "
        "a minimizer to exist") + (f"; try {remedy}" if remedy else ""))
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


def _fit_result(point, hazard, epochs, err, stop_reason, t0, diagnostics,
                **amp_state):
    # every finished fit: converged iff it stopped on tol or had no events
    # (the origin with a vanishing hazard is then an exact fixed point of
    # both iterations); beta_hat and its KKT residual from the `_Iterate`
    # point, stop reason and wall time after the solver's keys
    return FitResult(beta_hat=point.beta, hazard=hazard,
                     converged=stop_reason in ("tol", "all_censored"),
                     epochs=epochs, final_err=float(err), **amp_state,
                     diagnostics={**diagnostics, "stop_reason": stop_reason,
                                  "kkt_residual": point.kkt,
                                  "seconds": perf_counter() - t0})


class _Iterate:
    """The loss terms at coefficients beta from one `RiskSets.breslow` pass
    at lp = X beta: the Nelson-Aalen hazard lamT = Lambda(T) at each time,
    the weights w = Lambda(T) e^lp, the gradient grad = X'(w - Delta) of
    the partial likelihood with the hazard profiled out, and hess, its
    Hessian-vector product in linear-predictor space.  The penalized loss
    and the KKT residual are formed once each, on first read."""

    def __init__(self, X, D, rs, pen, beta):
        self.beta, self.lp = beta, X @ beta
        self.lamT, self.w, self.hess = rs.breslow(self.lp)
        self.grad = X.T @ (self.w - D)
        self._rs, self._pen = rs, pen

    @cached_property
    def loss(self):
        """The penalized partial likelihood (`RiskSets.penalized_loss`)."""
        return self._rs.penalized_loss(self.lp, self.beta, self._pen)

    @cached_property
    def kkt(self):
        """The largest subgradient violation of the penalized loss, with
        g = grad + eta beta: |g_k + alpha sign(beta_k)| where beta_k != 0,
        max(|g_k| - alpha, 0) where beta_k = 0; NaN where grad is."""
        pen, beta = self._pen, self.beta
        g = self.grad + pen.eta * beta
        viol = np.where(beta != 0, np.abs(g + pen.alpha * np.sign(beta)),
                        np.maximum(np.abs(g) - pen.alpha, 0.0))
        return float(np.max(viol, initial=0.0))


def _product_layout(data):
    """X' for the products that tolerate float32, written Xt.T @ v and
    Xt @ v with v cast to Xt's dtype: the float32 copy `design_t32` above
    F32_MIN_SIZE where the design fits float32 (a fit within its tolerance
    of the float64 one), else the view data.design.T, on which these and
    the row gather Xt[A] are X's own products, bit for bit."""
    Xt32 = data.design_t32 if data.n * data.p > F32_MIN_SIZE else None
    return data.design.T if Xt32 is None else Xt32


def _newton_step(X, hess, beta, grad, pen):
    """The Newton step of the penalized loss on the support A of beta with
    its signs fixed: conjugate gradients on (X_A' H X_A + eta I) s =
    grad_A + alpha sign(beta_A) + eta beta_A, with hess the product u -> H u
    by the Hessian of the loss at X beta (hess and grad from the `_Iterate`
    at beta); a coordinate of beta_A - s whose sign flips is set to zero.
    X is a layout of X' (`_product_layout`), hess float64: in float32 an
    inexact Newton step well inside CD_CG_TOL (Dembo, Eisenstat &
    Steihaug, SIAM J. Numer. Anal. 19, 1982).  Returns the candidate and
    the CG iterations."""
    A = np.flatnonzero(beta)
    sign = np.sign(beta[A])
    XtA = X[A]

    def product(u):
        h = hess(XtA.T @ u.astype(XtA.dtype, copy=False))
        return XtA @ h.astype(XtA.dtype, copy=False)
    r = grad[A] + pen.alpha * sign + pen.eta * beta[A]
    s = np.zeros(A.size)
    d = r.copy()
    rr = r @ r
    stop = CD_CG_TOL**2 * rr
    it = 0
    while it < CD_CG_MAX_ITER and rr > stop:
        it += 1
        q = product(d) + pen.eta * d
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
    Precision: X beta and X' mdot run on `_product_layout` while the
    previous err is above AMP_F32_ERR, else, as in a warm start's first
    epoch, on X' in float64; the rest is float64, so a converged fit is a
    fixed point of float64 AMP to tol.

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

    rs = data.risk_sets
    if not np.any(D == 1.0):
        return _fit_result(_Iterate(X, D, rs, pen, np.zeros(p)),
                           nelson_aalen(T, D, np.zeros(n)), 1, 0.0,
                           "all_censored", t0, {}, xi=np.zeros(n), tau=1.0,
                           tau_hat=1.0)
    # a cold start is the origin's fit: beta 0, the hazard at xi = X beta
    start = init or FitResult(np.zeros(p), rs.step_hazard(rs.hazard(
        np.zeros(n))), False, 0, np.inf)
    beta = np.array(start.beta_hat, dtype=float)
    xi = X @ beta if start.xi is None else np.array(start.xi, dtype=float)
    tau = 1.0 if start.tau is None else float(start.tau)
    tau_hat = 1.0 if start.tau_hat is None else float(start.tau_hat)
    lamT = start.hazard.evaluate(T)
    layout = _product_layout(data)

    stop_reason = "max_epochs"
    # the previous err picks each epoch's X'; a warm start may be converged
    err = np.inf if init is None else 0.0
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
    # floating-point warnings stay silent: from finite iterates a
    # non-finite one makes err non-finite, which ends the fit as diverged,
    # naming it.  Under them log(tau*Lambda) is formed as `log_tau_lam`
    # forms it: -inf where Lambda = 0, so that W0 = 0 there exactly
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, max_epochs + 1):
            Xt = layout if err > AMP_F32_ERR else X.T
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
            xb = Xt.T @ beta.astype(Xt.dtype, copy=False)
            xi_new = (1 - d) * xi + d * (xb + tau * mdot)
            dxi = np.maximum.reduce(np.abs(xi_new - xi))
            xi = xi_new

            w = cox_w(xi, tau_delta, log_tl)
            mdot = moreau_dot_w(w, D, tau)
            # np.add.reduce(x) / x.size is np.mean(x), without its overhead
            tau_hat_new = (1 - d) * tau_hat + d * (
                zeta / (np.add.reduce(moreau_ddot_w(w, tau)) / n))
            dtau_hat = tau_hat_new - tau_hat
            tau_hat = tau_hat_new

            xm = Xt @ mdot.astype(Xt.dtype, copy=False)
            psi = beta - tau_hat * xm
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

            err = math.hypot(dlam, dxi, dtau_hat, dbeta, dtau)
            err_history.append(err)
            if not math.isfinite(err):
                return _diverged(p, epoch, t0, pen.eta,
                                 f"a damping below {d}", hazard=lamT, xi=xi,
                                 tau_hat=tau_hat, beta=beta, tau=tau, err=err)
            if err < cfg.tol:
                # converged only where every held side is the true one, so the
                # last update is the unheld one; a contradicted side is
                # switched once, then released for good
                moved = held[(abs_psi[held] > pen.alpha * tau_hat)
                             != (side[held] > 0)]
                if not moved.size:
                    stop_reason = "tol"
                    break
                to = np.where(holds[moved] == 1, -side[moved], 0)
            else:
                stalled = (epoch - window_start >= AMP_STALL_WINDOW and err
                           > AMP_STALL_DROP * err_history[epoch - 1 - AMP_STALL_WINDOW])
                if not (stalled or (epoch - window_start >= AMP_FLIP_WINDOW
                                    and _flat(err_history[-AMP_FLIP_WINDOW:]))):
                    continue
                moved, to = _flipping(recent, pen.alpha, holds == 0)
                if not moved.size:
                    if not stalled:
                        continue
                    if d * AMP_DAMPING_CUT < AMP_DAMPING_FLOOR:
                        stop_reason = "stalled"
                        break
                    d *= AMP_DAMPING_CUT
                    damping_cuts.append([epoch, d])
            # each hold, switch, release or damping cut restarts the window
            side[moved] = to
            holds[moved] += 1
            frozen += [[epoch, int(k), int(s)] for k, s in zip(moved, to)]
            held = np.flatnonzero(side)
            window_start = epoch

        # one undamped prox application so the reported coefficients carry
        # the exact zeros of the soft threshold (the damped iterate only
        # reaches them in the limit); moves beta by O(err).  The
        # certificate's gradient is taken there
        mdot = moreau_dot_g(xi, lamT, D, tau)
        beta = prox_enet(beta - tau_hat * (X.T @ mdot), tau_hat, pen)
        cert = _Iterate(X, D, rs, pen, beta)

    return _fit_result(cert, rs.step_hazard(lamT), epoch, err, stop_reason, t0,
                       {"err_history": err_history,
                        "damping_cuts": damping_cuts, "frozen": frozen},
                       xi=xi, tau=float(tau), tau_hat=float(tau_hat))


# no floating-point warning leaves the fit: a non-finite iterate ends it
# as diverged, naming it, and a Newton candidate's inf loss rejects it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    A kept candidate with the iterate's support and a KKT residual below
    10 CD_CG_TOL times the iterate's, and still above tol, is followed
    at once by the next Newton step from its own gradient and Hessian,
    without a sweep between: the steps chain on a fixed active face
    while each gains more than the CG tolerance it was solved to
    (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996).  On the p=500
    benchmark path CD takes 31 sweeps and 40 Newton steps.  Each
    rejected candidate doubles the number of sweeps to the next Newton
    step; a kept one resets it to one.  A fit converges only when
    a plain sweep moves less than tol: the fixed point, and so the fit
    within the tolerance, is that of the plain sweeps, and the
    coefficients returned are those of a sweep.  Newton steps are not
    counted as epochs.  Coordinates with zero curvature are skipped
    (counted in diagnostics["skipped_coordinates"]); each sweep is
    otherwise the plain cycle of `prox_enet` updates, on Python floats.
    A non-finite iterate ends the fit as diverged (see `FitResult`).  A
    warm start `init` needs a finite beta_hat of length p, else
    ValueError; its hazard is not read.
    The iterate is one `_Iterate`, each of its terms formed once, on risk
    sets sorted once per dataset (`SurvivalDataset.risk_sets`); the
    curvatures use the dataset's X * X (`SurvivalDataset.design_sq`),
    and the Newton CG products `_product_layout`, all else float64.
    """
    t0 = perf_counter()
    _check_start(init, data, amp=False)
    cfg = cfg or SolverConfig()
    max_epochs = CD_MAX_EPOCHS if cfg.max_epochs is None else cfg.max_epochs
    X, T, D = data.design, data.times, data.events
    n, p = data.n, data.p
    alpha, eta = pen.alpha, pen.eta

    rs = data.risk_sets
    if not np.any(D == 1.0):
        return _fit_result(_Iterate(X, D, rs, pen, np.zeros(p)),
                           nelson_aalen(T, D, np.zeros(n)), 1, 0.0,
                           "all_censored", t0, {})
    beta = np.array(init.beta_hat, dtype=float) if init is not None else np.zeros(p)
    it = _Iterate(X, D, rs, pen, beta)
    X2 = data.design_sq
    Xt = _product_layout(data)
    cols = list(X.T)
    # the r update's product, formed in place
    buf = np.empty(n)

    stop_reason = "max_epochs"
    err = np.inf
    epoch = skipped = tried = kept = cg_iterations = 0
    # the Newton schedule of the docstring; from the previous point's
    # optimum the step's right-hand side is the change in penalty
    newton_gap = 1
    next_newton = 0 if beta.any() and it.kkt > cfg.tol else 1
    while epoch < max_epochs:
        if epoch >= next_newton:
            while True:
                # the guarded Newton step: a kept candidate is the iterate,
                # its terms read by the next step or the next sweep
                tried += 1
                beta_c, its = _newton_step(Xt, it.hess, it.beta, it.grad, pen)
                cg_iterations += its
                cand = _Iterate(X, D, rs, pen, beta_c)
                # the KKT residual decides, as the loss alone would tie on
                # rounding near the optimum; the loss may not rise beyond
                # rounding
                keep = (cand.kkt < it.kkt
                        and cand.loss <= it.loss + 1e-12 * abs(it.loss))
                newton_gap = 1 if keep else 2 * newton_gap
                if not keep:
                    break
                kept += 1
                it, prev = cand, it
                # the chain: the next step at once, while the support holds
                # and a step gains well over its CG tolerance
                if not (cfg.tol < it.kkt < 10 * CD_CG_TOL * prev.kkt
                        and np.array_equal(it.beta != 0.0, prev.beta != 0.0)):
                    break
            next_newton = epoch + newton_gap
        epoch += 1
        # the sweep runs on Python floats: numpy scalar arithmetic would
        # dominate it
        score, wdiag = it.grad.tolist(), it.w
        mkks = X2.T @ wdiag
        # each coordinate's step 1/mkk, threshold and shrink, the divisions
        # and products of the per-coordinate prox on floats, as vectors
        # (a zero curvature's inf and NaN are never read)
        tauhats = 1.0 / mkks
        threshs = (alpha * tauhats).tolist()
        shrinks = (1.0 + eta * tauhats).tolist()
        curv = mkks.tolist()
        phi = it.beta.tolist()
        # r tracks wdiag * (X beta - X phi); starts at zero
        r = np.zeros(n)
        for k in range(p):
            mkk = curv[k]
            if mkk <= 0.0:
                skipped += 1
                continue
            thresh = threshs[k]
            phik = phi[k]
            xk = cols[k]
            # xk @ r as a ddot, without the matmul dispatch
            psi_k = (float(xk.dot(r)) + mkk * phik - score[k]) / mkk
            # prox_enet(psi_k, 1 / mkk, pen), the same operations on floats
            if psi_k > thresh:
                new = (psi_k - thresh) / shrinks[k]
            elif psi_k < -thresh:
                new = (psi_k + thresh) / shrinks[k]
            else:
                # a signed zero, or NaN that the divergence check reports
                new = psi_k * 0.0
            if new != phik:
                np.multiply(wdiag, xk, out=buf)
                buf *= new - phik
                r -= buf
                phi[k] = new
        it, prev = _Iterate(X, D, rs, pen, np.array(phi)), it
        err = math.hypot(np.maximum.reduce(np.abs(it.beta - prev.beta)),
                         np.maximum.reduce(np.abs(it.lamT - prev.lamT)))
        if not math.isfinite(err):
            return _diverged(p, epoch, t0, pen.eta, beta=it.beta, err=err)
        if err < cfg.tol:
            stop_reason = "tol"
            break

    # the last sweep's iterate: the returned beta, certified by its gradient
    return _fit_result(it, rs.step_hazard(it.lamT), epoch, err, stop_reason,
                       t0, {"skipped_coordinates": skipped,
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
