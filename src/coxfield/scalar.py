"""Scalar special functions used throughout the package.

Everything here is elementwise and accepts scalars or numpy arrays.
"""

import math

import numpy as np

_INV_E = 1.0 / np.e
_FLOAT64 = np.dtype(np.float64)
_SQRT_2PI = np.sqrt(2.0 * np.pi)
_SQRT_2 = math.sqrt(2.0)
_erfc = np.vectorize(math.erfc, otypes=[float])
# Newton steps on w + log(w) = y after the initial guess.  Each step
# roughly squares the relative error: 2.0e-2 after the guess, 1.1e-4,
# 3.4e-9 and then rounding (at most 3.7e-15 against 50-digit mpmath on
# [-40, 40]), so a third step reaches machine precision on the whole real
# line and a fourth would change nothing
_NEWTON_STEPS = 3
# Halley steps on w e^w = x after the branch-point series.  Each roughly
# cubes the error: 0.11 at worst (x = 0), 6.4e-4, 1.3e-10, then rounding in
# absolute terms (4.2e-15 against 50-digit mpmath on [-1/e, 0]); but three
# give 0.0 at x = -1e-300, and a fourth gives relative accuracy at tiny |x|
_HALLEY_STEPS = 4


def _branch_series(x):
    # expansion of W0 around the branch point x = -1/e in powers of
    # p = sqrt(2 (e x + 1)); five terms keep the truncation error below
    # 1e-18 for e*x + 1 < 1e-6
    p = np.sqrt(2.0 * (np.e * x + 1.0))
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0
                       + p * (-43.0 / 540.0 + p * (769.0 / 17280.0)))))


def _halley(w, x):
    for _ in range(_HALLEY_STEPS):
        ew = np.exp(w)
        f = w * ew - x
        w -= f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def lambert_w0(x):
    """Principal branch of the Lambert W function.

    Returns the unique w >= -1 with w * exp(w) = x, defined for
    x >= -1/e.  The residual |w e^w - x| is below 1e-12 * max(1, |x|)
    over the whole domain.  Positive x go through `lambert_w0_exp` at
    log(x); x <= 0 through the branch-point series and four Halley steps.

    Parameters
    ----------
    x : float or ndarray
        Argument, must satisfy x >= -1/e (a slack of 1e-12 below the
        branch point is tolerated and clamped).

    Raises
    ------
    ValueError
        If any entry lies below -1/e - 1e-12.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = (x_arr.ndim == 0)
    x_arr = np.atleast_1d(x_arr)
    if np.any(x_arr < -_INV_E - 1e-12):
        raise ValueError("lambert_w0 requires x >= -1/e")
    x_arr = np.maximum(x_arr, -_INV_E)

    w = np.empty_like(x_arr)
    pos = x_arr > 0.0
    w[pos] = lambert_w0_exp(np.log(x_arr[pos]))
    # the series alone at the branch point, where Halley's 2w + 2 vanishes
    xn = x_arr[~pos]
    wn = _branch_series(xn)
    mid = xn >= (1e-6 - 1.0) / np.e
    wn[mid] = _halley(wn[mid], xn[mid])
    w[~pos] = wn
    return float(w[0]) if scalar else w


def _newton_w0_exp(y, w):
    """W0(e^y) from w = log(1 + e^y), in place: Winitzki's guess, a global
    two-to-three-digit approximation, then the Newton steps."""
    a = np.log1p(w)
    b = w + 2.0
    a /= b
    np.subtract(1.0, a, out=a)
    w *= a
    y1 = y + 1.0
    for _ in range(_NEWTON_STEPS):
        np.log(w, out=a)
        np.subtract(y1, a, out=a)
        np.add(w, 1.0, out=b)
        a /= b
        w *= a
    return w


def lambert_w0_exp(y):
    """Compute W0(exp(y)) without forming exp(y).

    Solves w + log(w) = y by a fixed number of Newton steps,
    w <- w (1 + y - log w) / (1 + w) (Corless et al., Adv. Comput. Math.
    5, 1996), from Winitzki's guess (ICCSA 2003) built on log(1 + e^y);
    relative error below 1e-14 for every finite y (at most 3.7e-15 on
    [-40, 40] against 50-digit mpmath).  Below y = -40, W0(e^y) =
    e^y (1 - e^y + ...) equals e^y to rounding and is returned as such,
    down to 0 at y = -inf; +inf gives +inf and NaN gives NaN.
    Overflow-safe for arbitrarily large y.  This is the kernel of the Cox
    proximal map, in two work buffers.  A 1-d float64 array (the Cox
    prox's input) enters directly, with no conversion; if its entries all
    lie in [-40, 36], the usual case, it also skips the overflow and
    underflow guards, which change nothing there, and costs 25 numpy
    calls: the two range reductions, exp and log1p, six calls for the
    guess and five per Newton step.  Any other array takes the guards,
    some 8 calls more, and its entries in that range come out bit for bit
    the same; scalars and other inputs go through asarray/atleast_1d.
    """
    if type(y) is np.ndarray and y.ndim == 1 and y.dtype is _FLOAT64:
        y_arr, scalar = y, False
    else:
        y_arr = np.asarray(y, dtype=float)
        scalar = (y_arr.ndim == 0)
        y_arr = np.atleast_1d(y_arr)
    # NaN fails the test, and an empty array has no min
    if (y_arr.size and -40.0 <= np.minimum.reduce(y_arr)
            and np.maximum.reduce(y_arr) <= 36.0):
        w = _newton_w0_exp(y_arr, np.log1p(np.exp(y_arr)))
        return float(w[0]) if scalar else w
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # log(1 + e^y) without overflow
        ey = np.exp(np.minimum(y_arr, 36.0))
        big = np.maximum(y_arr - 36.0, 0.0)
        w = np.log1p(ey)
        w += big
        w = _newton_w0_exp(y_arr, w)
        # W0(e^y) >= max(y, 0)/2 >= big/2 (as log w < w), so this changes
        # no result but the NaN of inf - inf at y = +inf, into +inf
        big *= 0.5
        np.fmax(w, big, out=w)
        w = np.where(y_arr < -40.0, ey, w)
    return float(w[0]) if scalar else w


def std_normal_pdf(x):
    """Standard normal density exp(-x^2/2) / sqrt(2 pi)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_tail(x):
    """Upper-tail probability P(Z > x) for Z standard normal.

    Note the convention: this is the *complementary* distribution
    function, matching the Phi used in the replica-symmetric closed
    forms.  Computed as math.erfc(x/sqrt(2))/2; relative error against a
    50-digit reference at most 9.3e-15 on [-8, 8], and 5.2e-14 on [8, 20]
    and 1.9e-13 on [20, 37.5], where the rounding of x/sqrt(2) sets it.
    """
    # floats (np.float64 too) skip np.ndim, which costs more than the erfc
    if isinstance(x, float) or np.ndim(x) == 0:
        return 0.5 * math.erfc(float(x) / _SQRT_2)
    return 0.5 * _erfc(np.asarray(x, dtype=float) / _SQRT_2)


def soft_threshold(x, a, abs_x=None):
    """Soft-thresholding operator relu(x - a) - relu(-x - a), a >= 0;
    abs_x, when given, is |x|, formed once by a caller that reads it too."""
    x = np.asarray(x, dtype=float)
    if abs_x is None:
        abs_x = np.abs(x)
    out = np.sign(x) * np.maximum(abs_x - a, 0.0)
    return float(out) if out.ndim == 0 else out
