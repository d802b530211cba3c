"""Cox per-observation loss, its proximal map, and the elastic-net proximal map.

The per-observation loss is g(x, lam, delta) = lam * exp(x) - delta * x,
i.e. the part of the (profiled) negative log likelihood that depends on a
single linear predictor, with lam the cumulative hazard at the observed
time and delta the event indicator.

All maps are elementwise and accept scalars or numpy arrays.
"""

import numbers
import reprlib
import types
from dataclasses import dataclass, fields

import numpy as np

from .scalar import lambert_w0_exp, soft_threshold


@dataclass(frozen=True)
class ElasticNetPenalty:
    """Elastic-net penalty alpha * ||b||_1 + (eta/2) * ||b||_2^2.

    Carries both parametrizations: the weights (alpha, eta) and the
    (strength, mixing) pair (rho, l1_ratio) with alpha = rho * l1_ratio,
    eta = rho * (1 - l1_ratio).  Construct through `from_weights` or
    `from_strength` so whichever pair you supplied is stored exactly; the
    two pairs must agree to 1e-12 rho, else ValueError.
    """

    alpha: float
    eta: float
    rho: float
    l1_ratio: float

    def __post_init__(self):
        check_fields(self)
        # written so that NaN fails it
        if not (0.0 <= self.alpha < np.inf and 0.0 <= self.eta < np.inf):
            raise ValueError("penalty weights must be finite and nonnegative")
        slack = 1e-12 * self.rho
        if not (abs(self.alpha - self.rho * self.l1_ratio) <= slack and abs(
                self.eta - self.rho * (1.0 - self.l1_ratio)) <= slack):
            raise ValueError("(alpha, eta) and (rho, l1_ratio) disagree")

    @staticmethod
    def from_weights(alpha, eta):
        rho = alpha + eta
        l1 = alpha / rho if rho > 0 else 1.0
        return ElasticNetPenalty(float(alpha), float(eta), float(rho), float(l1))

    @staticmethod
    def from_strength(rho, l1_ratio):
        if not 0.0 <= l1_ratio <= 1.0:
            raise ValueError("l1_ratio must lie in [0, 1]")
        return ElasticNetPenalty(float(rho * l1_ratio), float(rho * (1.0 - l1_ratio)),
                                 float(rho), float(l1_ratio))


def _holds(value, ftype):
    # whether value may fill a field annotated ftype (see check_fields)
    if isinstance(value, numbers.Integral) and not -2**1023 <= value <= 2**1023:
        return False  # past float range: no int or float field takes it
    if isinstance(ftype, types.UnionType):
        return any(_holds(value, t) for t in ftype.__args__)
    if isinstance(ftype, types.GenericAlias):
        if not isinstance(value, (list, tuple)):
            return False
        args = ftype.__args__ * (len(value) if ftype.__origin__ is list else 1)
        return len(value) == len(args) and all(map(_holds, value, args))
    return isinstance(value, bool) == (ftype is bool) and isinstance(
        value, {int: numbers.Integral, float: numbers.Real}.get(ftype, ftype))


def _type_name(ftype):
    if isinstance(ftype, types.UnionType):
        return " or ".join(map(_type_name, ftype.__args__))
    if isinstance(ftype, types.GenericAlias):
        return str(ftype)
    return {int: "an int", float: "a number",
            type(None): "None"}.get(ftype, f"a {ftype.__name__}")


def check_fields(obj):
    """Raise ValueError naming the first field of the dataclass obj not of
    its annotated type: int takes an integer (numpy's too), float a real
    number, neither a bool nor an integer beyond +-2^1023; `T | None` also
    None; `list[T]` and `tuple[T, U]` a list or tuple, as JSON has no
    tuples.  Every config class runs it first in __post_init__, so it
    fails when it is built."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not _holds(value, f.type):
            raise ValueError(f"{f.name} must be {_type_name(f.type)}, not "
                             f"{reprlib.repr(value)} ({type(obj).__name__} "
                             f"field {f.name!r})")


def check_path_order(pen_grid, inits=None):
    """Raise ValueError unless pen_grid runs by decreasing strength rho
    and the per-point starts inits, when given, have one entry per point."""
    strengths = [pen.rho for pen in pen_grid]
    if not all(a >= b for a, b in zip(strengths, strengths[1:])):
        raise ValueError("pen_grid must be sorted by decreasing strength")
    if inits is not None and len(inits) != len(strengths):
        raise ValueError(f"inits has {len(inits)} entries for "
                         f"{len(strengths)} grid points")


def g_dot(x, lam, delta):
    """First derivative of g in x: lam * exp(x) - delta."""
    return lam * np.exp(x) - delta


def log_tau_lam(lam, tau):
    """log(tau * lam), the hazard's share of the Lambert argument of the
    Cox proximal map; -inf where lam == 0, without a divide warning, so
    that W0 = 0 there exactly."""
    with np.errstate(divide="ignore"):
        return np.log(tau * lam)


def cox_w(u, tau_delta, log_tl):
    """Lambert factor W0(tau*lam*exp(tau*delta + u)) of the Cox proximal map.

    Evaluated through the log of the argument, so that divergent inputs
    degrade gracefully instead of overflowing.  Takes tau*delta and
    `log_tau_lam(lam, tau)`, so that evaluations at one (lam, delta, tau)
    form them once; `prox_g_w`, `moreau_dot_w` and `moreau_ddot_w` turn W
    into the map and the envelope derivatives.
    """
    return lambert_w0_exp(tau_delta + u + log_tl)


def prox_g_w(u, tau_delta, w):
    """The proximal map of g from its Lambert factor w: u + tau*delta - w."""
    return u + tau_delta - w


def moreau_dot_w(w, delta, tau):
    """The envelope gradient from the Lambert factor w: w/tau - delta."""
    return w / tau - delta


def moreau_ddot_w(w, tau):
    """The envelope curvature from the Lambert factor w: w/(tau (1 + w))."""
    return w / (tau * (1.0 + w))


def prox_g(u, lam, delta, tau):
    """Proximal map of g: argmin_z (z-u)^2/(2 tau) + g(z, lam, delta).

    Closed form u + tau*delta - W0(tau * lam * exp(tau*delta + u)) via
    the Lambert function; requires tau > 0, lam >= 0.
    """
    tau_delta = tau * delta
    return prox_g_w(u, tau_delta, cox_w(u, tau_delta, log_tau_lam(lam, tau)))


def moreau_dot_g(u, lam, delta, tau):
    """Gradient in u of the Moreau envelope of g at step tau.

    Equals (u - prox)/tau = g_dot(prox); computed as W/tau - delta with
    W the Lambert factor of the proximal map, which cannot overflow.
    """
    return moreau_dot_w(cox_w(u, tau * delta, log_tau_lam(lam, tau)),
                        delta, tau)


def cox_prox_bundle(u, lam, delta, tau):
    """Return the proximal map, the envelope gradient and the envelope
    curvature from one Lambert solve (perfbench traces it)."""
    tau_delta = tau * delta
    w = cox_w(u, tau_delta, log_tau_lam(lam, tau))
    return (prox_g_w(u, tau_delta, w), moreau_dot_w(w, delta, tau),
            moreau_ddot_w(w, tau))


def prox_enet(u, tauhat, pen, abs_u=None):
    """Elastic-net proximal map st(u, alpha*tauhat) / (1 + eta*tauhat).

    abs_u, when given, is |u|, formed once by a caller that also takes
    `prox_enet_dot` at u.
    """
    return soft_threshold(u, pen.alpha * tauhat, abs_u) / (1.0 + pen.eta * tauhat)


def prox_enet_dot(u, tauhat, pen, abs_u=None):
    """Derivative in u of the elastic-net proximal map.

    Takes the value 1/(1 + eta*tauhat) on the active set |u| > alpha*tauhat
    and 0 elsewhere; the kink |u| = alpha*tauhat is assigned 0 (left limit)
    so it never inflates the active-set fraction.  abs_u, when given, is
    |u| (see `prox_enet`).
    """
    if abs_u is None:
        abs_u = np.abs(np.asarray(u, dtype=float))
    out = (abs_u > pen.alpha * tauhat) / (1.0 + pen.eta * tauhat)
    return float(out) if out.ndim == 0 else out
