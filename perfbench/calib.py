"""Host-speed calibration spread through each timed unit of work.

The host's speed drifts by 15-30% within seconds, and by up to 2x within
minutes, so a unit's wall time alone spreads run medians by 6-34%.  A
fixed calibration kernel, which is not coxfield code, therefore runs in
short bursts: in full just before and just after a unit, and one part at a
time from a SIGALRM handler every INTERVAL_S seconds while the unit runs.
The unit's own time excludes the bursts inside it, and its calibrated time
is that time over the kernel's pass time measured in the same bursts.

The kernel has two parts of 5-10 ms each: small AMP/RS-like numpy work
(n=250, p=500, 5000 values) and a pure-Python coordinate sweep like a CD
epoch.  On a 2-core Xeon, against real units of the three workloads, the
calibrated time varied by 4.4-5.9% from unit to unit where the raw time
varied by 11-20%, and the log-log slope of unit time on kernel time was
0.9-1.2.  Either part alone left up to 7.4%; adding the numpy part at four
times the size (a 4 MB matrix) moved the slopes to 1.0-1.35, and
calibration windows at the unit's ends only left 11-15%.

The handler runs in the main thread between bytecodes, so a burst
overlaps none of the unit's work as long as that work runs on the main
thread alone; a long native call only delays it.  A unit that works in
other threads or processes would keep working during a burst and share
the cores with it, so a burst is skipped whenever the process has more
threads than when the sampler started (Python or native ones; the
standard library's thread and process pools both run helper threads).
Such a unit is calibrated by the full passes at its ends only, and
``concurrent_units`` counts it.
"""

import os
import signal
import threading
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1


def thread_count():
    """Threads of this process: native ones where /proc lists them."""
    try:
        return max(len(os.listdir("/proc/self/task")), threading.active_count())
    except OSError:
        return threading.active_count()


def _numpy_data():
    rng = np.random.default_rng(12345)
    return {"design": rng.normal(size=(250, 500)) / np.sqrt(500),
            "vec": rng.normal(size=500), "resid": rng.normal(size=250),
            "times": np.sort(rng.random(250)), "pop": rng.normal(size=5000),
            "shifts": rng.normal(size=500).tolist()}


def _numpy_part(d):
    """AMP-like (gemv, exp, reversed cumsum, searchsorted), strided column
    dot products with scalar soft-thresholding through numpy, and RS-like
    elementwise exp/log over the population."""
    design, times, pop = d["design"], d["times"], d["pop"]
    acc = 0.0
    for _ in range(60):
        e = np.exp(0.01 * (design @ d["vec"]))
        risk = np.cumsum(e[::-1])[::-1]
        acc += float(risk[np.searchsorted(times, times)].sum())
    for k, shift in enumerate(d["shifts"]):
        z = design[:, k] @ d["resid"] + shift
        acc += float(np.sign(z) * np.maximum(np.abs(z) - 0.1, 0.0))
    for _ in range(60):
        w = np.log1p(np.exp(pop))
        acc += float(np.sum(w * np.exp(-w)))
    return acc


def _sweep_data():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(250, 500)) / np.sqrt(500)
    wdiag = np.exp(0.1 * rng.normal(size=250))
    events = (rng.random(250) < 0.7).astype(float)
    return {"x": x, "wdiag": wdiag, "score": x.T @ (wdiag - events),
            "curv": (x * x).T @ wdiag}


def _soft(u, t):
    return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)


def _sweep_part(d):
    """One coordinate-descent sweep over 500 columns of a C-order matrix."""
    x, wdiag, score, curv = d["x"], d["wdiag"], d["score"], d["curv"]
    phi = np.zeros(x.shape[1])
    r = np.zeros(x.shape[0])
    for k in range(x.shape[1]):
        mkk = curv[k]
        xk = x[:, k]
        new = _soft((xk @ r + mkk * phi[k] - score[k]) / mkk, 0.02 / mkk) / (1.0 + 0.01 / mkk)
        if new != phi[k]:
            r -= wdiag * xk * (new - phi[k])
            phi[k] = new
    return float(phi.sum())


def kernel_parts():
    """The calibration kernel parts, as zero-argument callables."""
    arrays = _numpy_data()
    sweep = _sweep_data()
    return (lambda: _numpy_part(arrays), lambda: _sweep_part(sweep))


class Sampler:
    """Times units of work with calibration bursts spread through them.

    Use as a context manager: the SIGALRM handler is installed on entry
    and the previous one restored on exit.
    """

    def __init__(self):
        self.parts = kernel_parts()
        self.bursts = []  # (start, end, part index)
        self.pass_s = []  # one kernel pass time per timed unit
        self.skipped = 0  # bursts left out because other threads ran
        self.concurrent_units = 0
        self._next = 0
        self._previous = None
        self._busy = False
        self._threads = 0  # set on entry
        self._unit_concurrent = False

    def __enter__(self):
        self._threads = thread_count()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        if thread_count() > self._threads:
            self.skipped += 1
            self._unit_concurrent = True
            return
        self._burst(self._next % len(self.parts))
        self._next += 1

    def _burst(self, part):
        self._busy = True
        try:
            t0 = perf_counter()
            self.parts[part]()
            self.bursts.append((t0, perf_counter(), part))
        finally:
            self._busy = False

    def _full_pass(self):
        for part in range(len(self.parts)):
            self._burst(part)

    def paused(self, t0, t1):
        """Seconds of the bursts that started between t0 and t1."""
        return sum(e - s for s, e, _ in self.bursts if t0 <= s <= t1)

    def time_unit(self, fn, *args):
        """Run fn(*args) with calibration bursts spread through it.

        Returns (result, seconds of fn's own work, kernel pass seconds: the
        sum over parts of the part's mean time in the bursts before,
        inside and after the unit).
        """
        first = len(self.bursts)
        self._full_pass()
        self._unit_concurrent = False
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._full_pass()
        self.concurrent_units += self._unit_concurrent
        around = self.bursts[first:]
        pass_s = sum(float(np.mean([e - s for s, e, q in around if q == part]))
                     for part in range(len(self.parts)))
        self.pass_s.append(pass_s)
        return result, (t1 - t0) - self.paused(t0, t1), pass_s
