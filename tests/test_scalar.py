import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from coxfield.scalar import (lambert_w0, lambert_w0_exp, soft_threshold,
                             std_normal_pdf, std_normal_tail)
from oracles import bisect_lambert

# frozen from the bisection oracle below
OMEGA = 0.5671432904097838
# frozen from numeric integration of the density (see test_tail_quad_oracle)
TAIL_1 = 0.15865525393145705


def test_lambert_trivials():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(np.e) == pytest.approx(1.0, abs=1e-15)


def test_lambert_omega_bisection_oracle():
    assert bisect_lambert(1.0) == pytest.approx(OMEGA, abs=1e-13)
    assert lambert_w0(1.0) == pytest.approx(OMEGA, abs=1e-13)


def test_lambert_identity_on_grid():
    xs = np.concatenate([
        np.linspace(-1.0 / np.e, 1.0, 5001),
        np.logspace(0.0, 300.0, 3001),
    ])
    w = lambert_w0(xs)
    resid = np.abs(w * np.exp(w) - xs) / np.maximum(1.0, np.abs(xs))
    assert resid.max() <= 1e-12
    assert np.all(w >= -1.0)


def test_lambert_monotone():
    xs = np.linspace(-1.0 / np.e, 50.0, 200001)
    assert np.all(np.diff(lambert_w0(xs)) >= 0.0)


def test_lambert_domain_error():
    with pytest.raises(ValueError):
        lambert_w0(-1.0 / np.e - 1e-9)
    # inside the documented slack: clamped, not an error
    assert lambert_w0(-1.0 / np.e - 1e-13) == pytest.approx(-1.0, abs=1e-6)


def test_lambert_negative_branch_mpmath():
    # relative error on [-1/e, 0], where the branch-point series and the
    # Halley steps set the value: a dense grid, a log grid down to the
    # smallest subnormal and random draws.  The residual test above scales
    # by max(1, |x|), so it cannot see W0(-1e-300) returned as 0.0
    import mpmath
    rng = np.random.default_rng(27)
    xs = np.concatenate([
        np.linspace(-1.0 / np.e, 0.0, 3001),
        -np.logspace(np.log10(1.0 / np.e), -323.0, 700),
        [-1e-300, -np.nextafter(0.0, 1.0)],
        rng.uniform(-1.0 / np.e, 0.0, 2000),
    ])
    with mpmath.workdps(50):
        # a float just below the true -1/e has W0 = -1 plus an imaginary part
        ref = np.array([float(mpmath.re(mpmath.lambertw(mpmath.mpf(x))))
                        for x in xs])
    got = lambert_w0(xs)
    nz = ref != 0.0
    assert nz.sum() == xs.size - 1
    assert np.all(np.abs(got - ref)[nz] <= 1e-14 * np.abs(ref[nz]))
    assert got[~nz].tolist() == [0.0]
    assert lambert_w0(-0.0) == 0.0


def test_lambert_exp_matches_direct():
    ys = np.linspace(-30.0, 600.0, 2001)
    assert np.allclose(lambert_w0_exp(ys), lambert_w0(np.exp(ys)), rtol=1e-12,
                       atol=0)
    assert lambert_w0_exp(-np.inf) == 0.0
    big = lambert_w0_exp(5000.0)
    assert big + np.log(big) == pytest.approx(5000.0, rel=1e-13)


def test_lambert_exp_mpmath_oracle():
    # 50-digit reference on the range the Cox prox reaches and beyond;
    # where W0 underflows to a subnormal only one unit in the last place
    # is representable
    import mpmath
    ys = np.concatenate([np.linspace(-745.0, 5000.0, 1150),
                         np.linspace(-40.0, 40.0, 321)])
    with mpmath.workdps(50):
        ref = np.array([float(mpmath.lambertw(mpmath.exp(mpmath.mpf(y))))
                        for y in ys])
    got = lambert_w0_exp(ys)
    tiny = np.nextafter(0.0, 1.0)
    assert np.all(np.abs(got - ref) <= 1e-14 * ref + tiny)
    # below -745.13 e^y underflows to 0; W0 stays finite and equals e^y
    far = np.array([-745.2, -746.0, -800.0, -1e4, -1e300, -np.inf])
    got = lambert_w0_exp(far)
    assert np.all(np.isfinite(got)) and np.all(got == np.exp(far))
    assert lambert_w0_exp(-np.inf) == 0.0
    assert lambert_w0_exp(-800.0) == 0.0


def test_lambert_exp_dense_mpmath_sweep():
    # every 0.01 on [-40, 40], where the Newton steps set the value, and
    # random draws between the grid points, at the same bound
    import mpmath
    rng = np.random.default_rng(14)
    ys = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                         rng.uniform(-40.0, 40.0, 2000)])
    with mpmath.workdps(50):
        ref = np.array([float(mpmath.lambertw(mpmath.exp(mpmath.mpf(y))))
                        for y in ys])
    assert np.all(np.abs(lambert_w0_exp(ys) - ref) <= 1e-14 * ref)


def test_lambert_exp_edge_values():
    # no warning anywhere, e^y below -40, +inf at +inf, NaN kept
    ys = [-np.inf, -1e300, -800.0, -40.5, -40.0, 36.0, 36.5, 700.0, 1e300,
          np.inf, np.nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lambert_w0_exp(np.array(ys))
        one = [lambert_w0_exp(y) for y in ys]
    assert got[:4].tolist() == np.exp(ys[:4]).tolist()
    assert got[:3].tolist() == [0.0, 0.0, 0.0]
    for y, w in zip(ys[4:9], got[4:9]):
        assert w > 0.0 and abs(w + np.log(w) - y) <= 4e-16 * max(1.0, abs(y))
    assert got[8] == 1e300
    assert got[9] == np.inf and np.isnan(got[10])
    # a scalar gives a float, equal to its entry of the array; a list an array
    assert all(type(w) is float for w in one)
    assert np.array_equal(one, got, equal_nan=True)
    listed = lambert_w0_exp(ys)
    assert isinstance(listed, np.ndarray)
    assert np.array_equal(listed, got, equal_nan=True)


@pytest.mark.parametrize("outside", [-40.5, 36.5, np.inf, -np.inf, np.nan])
def test_lambert_exp_fast_path_is_bit_for_bit(outside):
    # an array within [-40, 36] skips the overflow and underflow guards;
    # one entry outside sends the whole array through them, which changes
    # no entry inside
    ys = np.concatenate([[-40.0, 36.0],
                         np.random.default_rng(0).uniform(-40.0, 36.0, 300)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = lambert_w0_exp(ys)
        guarded = lambert_w0_exp(np.append(ys, outside))
    assert fast.tobytes() == guarded[:-1].tobytes()
    assert [lambert_w0_exp(y) for y in ys[:2]] == fast[:2].tolist()
    assert lambert_w0_exp(np.array(ys[5])) == fast[5]
    assert lambert_w0_exp(np.array([])).shape == (0,)


def test_normal_trivials():
    assert std_normal_tail(0.0) == 0.5
    assert std_normal_pdf(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-15)


def test_tail_quad_oracle():
    val, err = quad(std_normal_pdf, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-11
    assert val == pytest.approx(TAIL_1, abs=1e-12)
    assert std_normal_tail(1.0) == pytest.approx(TAIL_1, rel=1e-13)


def test_tail_accuracy_on_grid():
    # high-precision reference: 0.5 * erfc(x / sqrt(2)) at 50 digits
    import mpmath
    mpmath.mp.dps = 50
    xs = np.linspace(-8.0, 8.0, 161)
    for x in xs:
        ref = float(0.5 * mpmath.erfc(x / mpmath.sqrt(2)))
        assert abs(std_normal_tail(x) - ref) <= 1e-14 * ref


def test_tail_accuracy_far_tail():
    # out to x = 37.5, the last x whose tail is a normal float; past x = 8
    # the rounding of x/sqrt(2) sets the error (scipy's erfc: 6.1e-14 and
    # 2.3e-13 on these ranges)
    import mpmath
    xs = np.linspace(8.0, 37.5, 591)
    with mpmath.workdps(50):
        ref = np.array([float(0.5 * mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)))
                        for x in xs])
    got = std_normal_tail(xs)
    assert got.min() >= np.finfo(float).tiny
    rel = np.abs(got - ref) / ref
    assert rel[xs <= 20.0].max() <= 5.2e-14
    assert rel[xs >= 20.0].max() <= 1.9e-13
    assert [std_normal_tail(x) for x in xs] == got.tolist()


def test_tail_symmetry():
    xs = np.linspace(-8.0, 8.0, 20001)
    assert np.max(np.abs(std_normal_tail(xs) + std_normal_tail(-xs) - 1.0)) <= 1e-14


def test_soft_threshold_trivials():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(-3.0, 1.0) == -2.0


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0.0, 1e6))
def test_soft_threshold_lipschitz_and_odd(x, y, a):
    assert abs(soft_threshold(x, a) - soft_threshold(y, a)) <= abs(x - y) * (1 + 1e-12)
    assert soft_threshold(-x, a) == pytest.approx(-soft_threshold(x, a), abs=1e-300)
