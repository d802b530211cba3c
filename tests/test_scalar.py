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


def test_lambert_exp_matches_direct():
    ys = np.linspace(-30.0, 600.0, 2001)
    assert np.allclose(lambert_w0_exp(ys), lambert_w0(np.exp(ys)), rtol=1e-12)
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
