import math

import numpy as np
import pytest

from conewave.diffraction import (INCOMING_AT_0, OUTGOING_AT_PI,
                                  regularized_pair_product,
                                  regularized_sine_product, s_times_cos_half,
                                  scattering_matrix, scattering_matrix_fourier,
                                  scattering_matrix_value,
                                  sine_product_limit_numeric)
from conewave.errors import GeometricDirection
from conewave.verification import pole_distance

PI = math.pi


def test_scattering_matrix_examples():
    assert scattering_matrix(4 * PI, 0.0).value == pytest.approx(
        -1 / (4 * PI), abs=1e-15)
    # the plane does not diffract
    for theta in np.linspace(0.3, 2.8, 7):
        assert abs(scattering_matrix(2 * PI, theta).value) < 1e-12
    got = scattering_matrix(3 * PI, PI / 2).value
    assert got == pytest.approx(-math.sqrt(3) / (6 * PI), abs=1e-14)


def test_scattering_matrix_4pi_identity():
    for theta in np.linspace(-2.9, 2.9, 101):
        got = scattering_matrix(4 * PI, theta).value
        assert got == pytest.approx(-1 / (4 * PI * math.cos(theta / 2)),
                                    abs=1e-14)


def test_scattering_evenness_and_periodicity():
    rng = np.random.default_rng(0)
    for alpha in (3 * PI, 4 * PI, 7.0):
        for _ in range(50):
            theta = rng.uniform(-alpha, alpha)
            if pole_distance(alpha, theta) < 1e-3:
                continue
            ev = scattering_matrix(alpha, theta)
            assert ev.value == scattering_matrix(alpha, -theta).value
            assert ev.value == pytest.approx(
                scattering_matrix(alpha, theta + alpha).value, rel=1e-9)


def test_pole_locations():
    for alpha in (3 * PI, 4 * PI, 7.0):
        for sign in (+1, -1):
            assert scattering_matrix(alpha, sign * PI).is_pole
            # denominator changes sign across the pole
            lo = scattering_matrix(alpha, sign * PI - 1e-4).value
            hi = scattering_matrix(alpha, sign * PI + 1e-4).value
            assert lo * hi < 0
        # no pole well inside the regular range
        assert not scattering_matrix(alpha, 0.3).is_pole


def test_fourier_oracle():
    assert scattering_matrix_fourier(4 * PI, 0.7, 0) == -1j / (4 * PI)
    # N = 200 Cesaro at theta = 0: measured Fejer error is 5.6e-4 (O(1/N))
    got = scattering_matrix_fourier(4 * PI, 0.0, 200)
    assert abs(got - (-1 / (4 * PI))) < 1e-3
    assert abs(got.imag) < 1e-3
    # closed-form agreement improves like 1/N
    errs = [abs(scattering_matrix_fourier(4 * PI, 0.0, n) + 1 / (4 * PI))
            for n in (200, 400, 800)]
    assert errs[2] < errs[1] < errs[0]
    assert abs(scattering_matrix_fourier(4 * PI, 0.0, 800) + 1 / (4 * PI)) < 2e-4


def test_fourier_envelope_near_poles():
    """Fejer error at distance d from a pole follows ~ C/(N d^2)."""
    alpha, theta = 7.0, PI - 0.1
    exact = scattering_matrix(alpha, theta).value
    products = []
    for n in (500, 2000, 8000):
        err = abs(scattering_matrix_fourier(alpha, theta, n) - exact)
        products.append(err * n * 0.1**2)
    assert all(0.02 < p < 1.0 for p in products)


def test_regularized_sine_product_limits():
    for alpha in (3 * PI, 4 * PI, 7.0):
        assert regularized_sine_product(alpha, INCOMING_AT_0) == 1 / (2 * PI)
        assert regularized_sine_product(alpha, OUTGOING_AT_PI) == -1 / (2 * PI)
    # numerical limits, theta offset 1e-6 with Richardson extrapolation,
    # identical across diffracting cone angles
    for alpha in (3 * PI, 4 * PI, 7.0, 5.0):
        p_in = sine_product_limit_numeric(alpha, INCOMING_AT_0)
        p_out = sine_product_limit_numeric(alpha, OUTGOING_AT_PI)
        assert abs(p_in - 1 / (2 * PI)) < 1e-10
        assert abs(p_out + 1 / (2 * PI)) < 1e-10


def test_s_times_cos_half_regularization():
    # value at the geometric direction itself
    for alpha in (3 * PI, 4 * PI, 7.0):
        for sign in (+1, -1):
            assert s_times_cos_half(alpha, sign * PI) == pytest.approx(
                -1 / (4 * PI), rel=1e-12)
    # continuity across the switch to the series branch
    for alpha in (3 * PI, 7.0):
        for d in (0.249, 0.251):
            a = s_times_cos_half(alpha, PI - d)
            b = scattering_matrix_value(alpha, PI - d) * math.cos((PI - d) / 2)
            assert a == pytest.approx(b, rel=1e-11)
    # arrays: the same angles, both windows and both sides of each switch,
    # match the per-element values
    for alpha in (3 * PI, 4 * PI, 7.0):
        d = np.array([-PI - 0.251, -PI - 0.249, -PI, -PI + 1e-9, -1.0, 0.3,
                      PI - 0.249, PI - 0.251, PI, PI + 1e-7])
        arr = s_times_cos_half(alpha, d)
        assert isinstance(arr, np.ndarray) and arr.shape == d.shape
        scal = [s_times_cos_half(alpha, float(v)) for v in d]
        assert all(isinstance(v, float) for v in scal)
        assert np.array_equal(arr, np.array(scal))
        pair = regularized_pair_product(alpha, d.reshape(2, 5), 0.1)
        assert pair.shape == (2, 5)
        assert np.array_equal(pair.ravel(), [
            regularized_pair_product(alpha, float(v), 0.1) for v in d])
    # a genuine pole inside an array raises, as it does for a scalar:
    # S_{4pi} has a pole at 3pi, outside both windows
    with pytest.raises(GeometricDirection):
        s_times_cos_half(4 * PI, 3 * PI)
    with pytest.raises(GeometricDirection):
        s_times_cos_half(4 * PI, np.array([0.0, 1.0, 3 * PI, 2.0]))


def test_regularized_pair_product_smooth_across_alignment():
    alpha = 3 * PI
    th_out = 0.0
    vals = [regularized_pair_product(alpha, th_out, th_out - PI + u)
            for u in np.linspace(-1e-3, 1e-3, 11)]
    spread = max(vals) - min(vals)
    assert spread < 1e-3
    assert vals[5] == pytest.approx(-2 * math.sin(-PI / 2) / (4 * PI), rel=1e-9)
