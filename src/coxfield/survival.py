"""Survival-data container, hazard estimators, partial likelihood, concordance.

Conventions: the Heaviside step Theta(0) = 1, so a subject is at risk at
its own observed time; all-censored data yield an identically-zero hazard
(with a warning), not an error.
"""

import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prox import g_dot


def check_ints(obj, *names):
    """Raise ValueError naming the first field of obj among names that
    holds no integer (a bool holds none), so that a config fails when it
    is built, not in the work that reads it."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an int, not {value!r}")


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
        if not np.all(np.isfinite(design)):
            raise ValueError("design must be finite")
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

    @cached_property
    def risk_sets(self):
        """The risk sets of the times, sorted once per dataset and shared
        by every fit and loss evaluated on it (the fields are read-only)."""
        return RiskSets(self.times, self.events)

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
    `values` the nonnegative, nondecreasing hazard at each knot; the value
    at t is the value at the last knot <= t, zero before the first knot.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.ascontiguousarray(self.knots, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        if knots.shape != values.shape or knots.ndim != 1:
            raise ValueError("knots and values must be 1-d of equal length")
        if knots.size and np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(np.diff(values, prepend=0.0) < 0):
            raise ValueError("values must be nonnegative and nondecreasing")
        knots.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @property
    def jumps(self):
        """The increments of the hazard at the knots."""
        return np.diff(self.values, prepend=0.0)

    def evaluate(self, t):
        """Evaluate the cumulative hazard at time(s) t."""
        idx = np.searchsorted(self.knots, t, side="right")
        out = np.concatenate(([0.0], self.values))[idx]
        return float(out) if np.ndim(t) == 0 else out


class RiskSets:
    """Risk sets {j : t_j >= t_i} of a sample of times with 0/1 events
    (ties share one), in any order.  The sample is sorted once and its
    index maps composed once, for loops that evaluate many hazards on it:
    arrays go in and come out in the sample's own order, and the step
    functions share one knots array.

    Every risk-set sum is a cumulative sum over the sample in descending
    time order (Simon, Friedman, Hastie & Tibshirani, J. Stat. Softw.
    39(5), 2011): the order and the positions read from the sums are
    reversed once, here, so an evaluation takes one gather and one
    accumulate, with neither reversed views nor a concatenate.  The
    instance holds no scratch buffer, so any number of loops may share
    one (`SurvivalDataset.risk_sets`, `RsPopulation.risk_sets`)."""

    def __init__(self, times, events):
        times = np.asarray(times, dtype=float)
        self._is_event = np.asarray(events) == 1.0
        self._order = np.argsort(times, kind="stable")
        n = self._order.size
        inverse = np.empty_like(self._order)
        inverse[self._order] = np.arange(n)
        self._times = times[self._order]
        self._event_idx = np.flatnonzero(self._is_event[self._order])
        first = np.searchsorted(self._times, self._times, side="left")
        last = np.searchsorted(self._times, self._times, side="right")
        # the sample indices in descending time order, and in that order
        # the last position of the risk set of each sample index and of
        # each event, where the running sum is its risk sum; and the
        # number of events at or before each time (its ties included),
        # per sample index
        self._rorder = self._order[::-1].copy()
        self._rfirst = (n - 1) - first[inverse]
        self._revent_first = (n - 1) - first[self._event_idx]
        self._upto = np.searchsorted(self._event_idx, last)[inverse]

    @cached_property
    def _knots(self):
        # distinct event times and the sample index of a subject at each
        ev = self._event_idx
        knots, pos = np.unique(self._times[ev], return_index=True)
        knots.setflags(write=False)
        return knots, self._order[ev[pos]]

    def _tail_sums(self, weights):
        # at descending position j, the sum of the weights at positions
        # 0..j: the sum over the ascending positions n - 1 - j and after
        return np.add.accumulate(weights[self._rorder])

    def risk_sums(self, weights):
        """R_i = sum_{j : t_j >= t_i} weights_j."""
        return self._tail_sums(weights)[self._rfirst]

    def penalized_loss(self, lin_pred, beta, pen):
        """`penalized_partial_likelihood` at coefficients beta whose linear
        predictor is lin_pred; overflow surfaces as +/- inf."""
        with np.errstate(over="ignore"):
            risk = self.risk_sums(np.exp(lin_pred))
        ev = self._is_event
        with np.errstate(divide="ignore"):
            loss = np.sum(np.log(risk[ev] / risk.size) - lin_pred[ev])
        return loss + pen.alpha * np.sum(np.abs(beta)) \
            + 0.5 * pen.eta * np.sum(beta * beta)

    def _steps(self, e):
        # the Nelson-Aalen increment 1/R at each event, weights e: only
        # events add one, so a censored time whose whole risk set
        # underflowed (R_i = 0) adds no 0/0 = NaN to the later levels
        return 1.0 / self._tail_sums(e)[self._revent_first]

    def _levels(self, steps):
        # at each time, the sum of the per-event steps up to it (ties
        # included), 0 before the first event
        levels = np.empty(steps.size + 1)
        levels[0] = 0.0
        np.add.accumulate(steps, out=levels[1:])
        return levels[self._upto]

    def hazard(self, lin_pred):
        """Nelson-Aalen hazard at each time, weights e^lin_pred."""
        return self._levels(self._steps(np.exp(lin_pred)))

    def breslow(self, lin_pred):
        """The Breslow terms of the partial likelihood at linear predictor
        lin_pred, from one exp and one pass of risk sums: the Nelson-Aalen
        hazard Lambda(T) at each time (as `hazard`), the weights
        w = Lambda(T) e with e = e^lin_pred, and the Hessian-vector
        product u -> H u in linear-predictor space: H u = w u - e C(u),
        C(u) at each time the sum over the events up to it (ties
        included) of the risk-set sum of e u over the squared risk sum.
        O(n) per product; the Hessian is never formed."""
        e = np.exp(lin_pred)
        steps = self._steps(e)
        lam = self._levels(steps)
        w = lam * e
        steps2 = steps * steps

        def hessian(u):
            return w * u - e * self._levels(
                self._tail_sums(e * u)[self._revent_first] * steps2)
        return lam, w, hessian

    def step_hazard(self, levels):
        """The StepHazard through `levels`, a nondecreasing hazard at each
        time that is constant over ties (as `hazard` returns)."""
        knots, at = self._knots
        return StepHazard(knots, levels[at])


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
    events = np.asarray(events, dtype=float)
    if not np.any(events == 1.0):
        warnings.warn("no events: returning identically-zero hazard")
        return StepHazard(np.empty(0), np.empty(0))
    rs = RiskSets(times, events)
    return rs.step_hazard(rs.hazard(np.asarray(lin_pred, dtype=float)))


def penalized_partial_likelihood(data, beta, pen):
    """Penalized negative log partial likelihood.

    sum_i Delta_i [ log((1/n) sum_j Theta(T_j - T_i) e^{x_j'beta}) - x_i'beta ]
    + alpha ||beta||_1 + (eta/2) ||beta||_2^2.

    Overflowing linear predictors surface as +/- inf, not an exception.
    """
    beta = np.asarray(beta, dtype=float)
    return data.risk_sets.penalized_loss(data.design @ beta, beta, pen)


_HARRELL_BLOCK = 256


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
    # blocks of events against all times; the sums are of integers and
    # halves, so they are exact in any order
    ev = np.flatnonzero(events == 1.0)
    for start in range(0, ev.size, _HARRELL_BLOCK):
        i = ev[start:start + _HARRELL_BLOCK, None]
        later = times > times[i]
        den += int(np.count_nonzero(later))
        si = scores[i]
        num += np.count_nonzero(later & (si > scores)) \
            + 0.5 * np.count_nonzero(later & (si == scores))
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
