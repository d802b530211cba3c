"""Survival-data container, hazard estimators, partial likelihood, concordance.

Conventions: the Heaviside step Theta(0) = 1, so a subject is at risk at
its own observed time; all-censored data yield an identically-zero hazard
(with a warning), not an error.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prox import g_dot


@dataclass(frozen=True)
class SurvivalDataset:
    """Right-censored survival data: times T, event flags Delta, design X."""

    times: np.ndarray
    events: np.ndarray
    design: np.ndarray

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        events = np.ascontiguousarray(self.events, dtype=float)
        design = np.ascontiguousarray(self.design, dtype=float)
        if design.ndim != 2:
            raise ValueError("design must be a 2-d matrix")
        n = design.shape[0]
        if times.shape != (n,) or events.shape != (n,):
            raise ValueError("times/events length must match design rows")
        if not np.all(np.isfinite(times)) or np.any(times <= 0):
            raise ValueError("times must be finite and positive")
        if not np.all((events == 0.0) | (events == 1.0)):
            raise ValueError("events must be 0/1")
        for arr in (times, events, design):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "design", design)

    @property
    def n(self):
        return self.design.shape[0]

    @property
    def p(self):
        return self.design.shape[1]

    def to_csv(self, path):
        """Write the dataset as CSV with header time,event,x1,...,xp."""
        header = "time,event," + ",".join(f"x{j + 1}" for j in range(self.p))
        body = np.column_stack([self.times, self.events, self.design])
        np.savetxt(path, body, delimiter=",", header=header, comments="",
                   fmt="%.17g")

    @staticmethod
    def from_csv(path):
        """Load a dataset from the CSV schema written by `to_csv`."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        if header[:2] != ["time", "event"]:
            raise ValueError("expected header time,event,x1,...,xp")
        body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if body.shape[1] != len(header):
            raise ValueError("row width does not match header")
        return SurvivalDataset(body[:, 0], body[:, 1], body[:, 2:])


@dataclass(frozen=True)
class StepHazard:
    """Right-continuous nondecreasing step function for a cumulative hazard.

    `knots` are strictly increasing jump locations (event times) and
    `jumps` the nonnegative increments; the value at t is the sum of
    jumps at knots <= t, zero before the first knot.
    """

    knots: np.ndarray
    jumps: np.ndarray

    def __post_init__(self):
        knots = np.ascontiguousarray(self.knots, dtype=float)
        jumps = np.ascontiguousarray(self.jumps, dtype=float)
        if knots.shape != jumps.shape or knots.ndim != 1:
            raise ValueError("knots and jumps must be 1-d of equal length")
        if knots.size and np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(jumps < 0):
            raise ValueError("jumps must be nonnegative")
        knots.setflags(write=False)
        jumps.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "jumps", jumps)

    def evaluate(self, t):
        """Evaluate the cumulative hazard at time(s) t."""
        idx = np.searchsorted(self.knots, t, side="right")
        out = np.concatenate([[0.0], np.cumsum(self.jumps)])[idx]
        return float(out) if np.ndim(t) == 0 else out

    __call__ = evaluate


class SortedRiskSets:
    """Risk sets {j : t_j >= t_i} of ascending times with 0/1 events (ties
    share one).  Tie bounds and event times are found once, for loops that
    evaluate many hazards on one sample; their step functions share knots."""

    def __init__(self, times_sorted, events_sorted):
        self.times = times_sorted
        self.events = events_sorted
        self._first = np.searchsorted(times_sorted, times_sorted, side="left")

    @cached_property
    def _last(self):
        return np.searchsorted(self.times, self.times, side="right") - 1

    @cached_property
    def _knots(self):
        # distinct event times and an index of a subject at each
        ev = np.flatnonzero(self.events == 1.0)
        knots, pos = np.unique(self.times[ev], return_index=True)
        knots.setflags(write=False)
        return knots, ev[pos]

    def risk_sums(self, weights):
        """R_i = sum_{j : t_j >= t_i} weights_j."""
        return np.cumsum(weights[::-1])[::-1][self._first]

    def hazard(self, lin_pred):
        """Nelson-Aalen hazard at each time, weights e^lin_pred."""
        return np.cumsum(self.events / self.risk_sums(np.exp(lin_pred)))[self._last]

    def step_hazard(self, levels):
        """The StepHazard through `levels`, a nondecreasing hazard at each
        time that is constant over ties (as `hazard` returns)."""
        knots, at = self._knots
        return StepHazard(knots, np.diff(levels[at], prepend=0.0))


def nelson_aalen(times, events, lin_pred):
    """Nelson-Aalen cumulative-hazard estimator given linear predictors.

    Lambda(t) = sum_i Delta_i Theta(t - T_i) / sum_j Theta(T_j - T_i) e^{lp_j},
    one knot per distinct event time.  With no events an empty StepHazard
    is returned and a warning is issued.

    Parameters
    ----------
    times, events : ndarray, shape (n,)
        Observed times and 0/1 event indicators.
    lin_pred : ndarray, shape (n,)
        Linear predictors entering the at-risk weights exp(lin_pred).
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    lin_pred = np.asarray(lin_pred, dtype=float)
    if not np.any(events == 1.0):
        warnings.warn("no events: returning identically-zero hazard")
        return StepHazard(np.empty(0), np.empty(0))
    order = np.argsort(times, kind="stable")
    ts = times[order]
    ds = events[order]
    risk = SortedRiskSets(ts, ds).risk_sums(np.exp(lin_pred[order]))
    ev = ds == 1.0
    ev_times = ts[ev]
    contrib = 1.0 / risk[ev]
    knots, inverse = np.unique(ev_times, return_inverse=True)
    jumps = np.bincount(inverse, weights=contrib, minlength=knots.size)
    return StepHazard(knots, jumps)


def nelson_aalen_dataset(data, lin_pred):
    """Nelson-Aalen estimator for a SurvivalDataset."""
    return nelson_aalen(data.times, data.events, lin_pred)


def penalized_partial_likelihood(data, beta, pen):
    """Penalized negative log partial likelihood.

    sum_i Delta_i [ log((1/n) sum_j Theta(T_j - T_i) e^{x_j'beta}) - x_i'beta ]
    + alpha ||beta||_1 + (eta/2) ||beta||_2^2.

    Overflowing linear predictors surface as +/- inf, not an exception.
    """
    beta = np.asarray(beta, dtype=float)
    eta_lp = data.design @ beta
    order = np.argsort(data.times, kind="stable")
    ts = data.times[order]
    ds = data.events[order]
    lp = eta_lp[order]
    with np.errstate(over="ignore"):
        risk = SortedRiskSets(ts, ds).risk_sums(np.exp(lp))
    ev = ds == 1.0
    with np.errstate(divide="ignore"):
        loss = np.sum(np.log(risk[ev] / data.n) - lp[ev])
    return loss + pen.alpha * np.sum(np.abs(beta)) \
        + 0.5 * pen.eta * np.sum(beta * beta)


def harrell_c(times, events, scores):
    """Harrell concordance index with risk-score orientation.

    A pair (i, j) is comparable when Delta_i = 1 and T_j > T_i (strictly);
    it is concordant when the earlier-event subject carries the *higher*
    score, so a perfectly discriminating risk score gives 1.  Score ties
    count 1/2; tied times are not comparable.

    Raises
    ------
    ValueError
        If no comparable pair exists.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    scores = np.asarray(scores, dtype=float)
    num = 0.0
    den = 0
    for i in np.flatnonzero(events == 1.0):
        later = times > times[i]
        den += int(np.count_nonzero(later))
        sj = scores[later]
        num += np.count_nonzero(scores[i] > sj) + 0.5 * np.count_nonzero(scores[i] == sj)
    if den == 0:
        raise ValueError("no comparable pairs for the concordance index")
    return num / den


def rscv_predictors(data, beta_hat, hazard, tau_star):
    """Replica-symmetric cross-validation pseudo-test predictors.

    xi~_i = x_i'beta + tau_star * (Lambda(T_i) e^{x_i'beta} - Delta_i),
    distributed like the linear predictor of a fresh observation, so
    generalization metrics can be evaluated on the training responses.
    """
    lp = data.design @ np.asarray(beta_hat, dtype=float)
    return lp + tau_star * g_dot(lp, hazard.evaluate(data.times), data.events)


def rscv_c_index(data, beta_hat, hazard, tau_star):
    """Estimate the held-out concordance index from training data alone."""
    scores = rscv_predictors(data, beta_hat, hazard, tau_star)
    return harrell_c(data.times, data.events, scores)
