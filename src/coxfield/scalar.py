"""Scalar special functions used throughout the package.

Everything here is elementwise and accepts scalars or numpy arrays.
"""

import numpy as np
from scipy.special import erfc

_INV_E = 1.0 / np.e
_SQRT_2PI = np.sqrt(2.0 * np.pi)
_SQRT_2 = np.sqrt(2.0)
_MAX_HALLEY = 50
# Fritsch-Shafer-Crowley steps after the initial guess; two reach machine
# precision from the two-to-three-digit guess on the whole real line
_FSC_STEPS = 2


def _branch_series(x):
    # expansion of W0 around the branch point x = -1/e in powers of
    # p = sqrt(2 (e x + 1)); five terms keep the truncation error below
    # 1e-18 for e*x + 1 < 1e-6
    p = np.sqrt(2.0 * (np.e * x + 1.0))
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0
                       + p * (-43.0 / 540.0 + p * (769.0 / 17280.0)))))


def _halley(w, x):
    """Halley iteration on w*exp(w) = x, refining every entry."""
    idx = np.arange(w.size)
    for _ in range(_MAX_HALLEY):
        if idx.size == 0:
            break
        wi, xi = w[idx], x[idx]
        ew = np.exp(wi)
        f = wi * ew - xi
        denom = ew * (wi + 1.0) - (wi + 2.0) * f / (2.0 * wi + 2.0)
        step = f / denom
        w[idx] = wi - step
        keep = (np.abs(f) > 1e-16 * np.maximum(1.0, np.abs(xi))) \
            & (np.abs(step) > 2e-16 * (1.0 + np.abs(wi)))
        idx = idx[keep]
    return w


def lambert_w0(x):
    """Principal branch of the Lambert W function.

    Returns the unique w >= -1 with w * exp(w) = x, defined for
    x >= -1/e.  The residual |w e^w - x| is below 1e-12 * max(1, |x|)
    over the whole domain.  Positive x go through `lambert_w0_exp` at
    log(x); x <= 0 through a branch-point series refined by Halley steps.

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
    # the series alone is exact to 1e-18 right at the branch point; Halley
    # steps refine it elsewhere on [-1/e, 0]
    xn = x_arr[~pos]
    wn = _branch_series(xn)
    mid = xn >= (1e-6 - 1.0) / np.e
    wn[mid] = _halley(wn[mid], xn[mid])
    w[~pos] = wn
    return float(w[0]) if scalar else w


def lambert_w0_exp(y):
    """Compute W0(exp(y)) without forming exp(y).

    Solves w + log(w) = y by a fixed number of Fritsch-Shafer-Crowley
    steps (Fritsch, Shafer & Crowley, CACM 16, 1973) from a guess built on
    log(1 + e^y); relative error below 1e-14 for every finite y (one unit
    in the last place where W0 is subnormal).  Below y = -40, W0(e^y) =
    e^y (1 - e^y + ...) equals e^y to rounding and is returned as such,
    down to 0 at y = -inf.  Overflow-safe for arbitrarily large y.  This
    is the kernel of the Cox proximal map.
    """
    y_arr = np.asarray(y, dtype=float)
    scalar = (y_arr.ndim == 0)
    y_arr = np.atleast_1d(y_arr)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # log(1 + e^y) without overflow, then a global two-to-three-digit
        # approximation of W0 in terms of it
        ey = np.exp(np.minimum(y_arr, 36.0))
        l1 = np.log1p(ey) + np.maximum(y_arr - 36.0, 0.0)
        w = l1 * (1.0 - np.log1p(l1) / (2.0 + l1))
        for _ in range(_FSC_STEPS):
            z = y_arr - np.log(w) - w
            w1 = 1.0 + w
            q = 2.0 * w1 * (w1 + (2.0 / 3.0) * z)
            # (q - z)/(q - 2z) written as 1 + z/(q - 2z): an overflowing q
            # then reduces the step to Newton's instead of inf/inf
            w = w * (1.0 + z / w1 * (1.0 + z / (q - 2.0 * z)))
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
    forms.  Computed as erfc(x/sqrt(2))/2; the absolute error of erfc
    is a few ulp, well below 1e-15.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x / _SQRT_2)
    return float(out) if out.ndim == 0 else out


def soft_threshold(x, a):
    """Soft-thresholding operator relu(x - a) - relu(-x - a), a >= 0."""
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - a, 0.0)
    return float(out) if out.ndim == 0 else out
