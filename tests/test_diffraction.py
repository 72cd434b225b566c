import cmath
import math

import numpy as np
import pytest

from conewave.diffraction import (INCOMING_AT_0, OUTGOING_AT_PI,
                                  SINE_PRODUCT_LIMITS,
                                  regularized_pair_product, s_times_cos_half,
                                  scattering_matrix, scattering_matrix_fourier,
                                  sine_product_limit_numeric)
from conewave.errors import GeometricDirection, InvalidInput
from conewave.friedlander import _diffracted_integral
from conewave.geometry import angular_separation

PI = math.pi


def test_scattering_matrix_examples():
    assert scattering_matrix(4 * PI, 0.0) == pytest.approx(
        -1 / (4 * PI), abs=1e-15)
    # the plane does not diffract
    for theta in np.linspace(0.3, 2.8, 7):
        assert scattering_matrix(2 * PI, theta) == 0.0
    got = scattering_matrix(3 * PI, PI / 2)
    assert got == pytest.approx(-math.sqrt(3) / (6 * PI), abs=1e-14)


def test_scattering_matrix_4pi_identity():
    theta = np.linspace(-2.9, 2.9, 101)
    got = scattering_matrix(4 * PI, theta)
    assert np.allclose(got, -1 / (4 * PI * np.cos(theta / 2)), rtol=0,
                       atol=1e-14)


def test_scattering_matrix_arrays_match_scalars():
    """An array of angles gives the per-element scalar values bit for bit,
    NaN exactly at the poles +-pi."""
    theta = np.array([-PI - 0.3, -PI, -PI + 1e-9, -1.0, 0.0, 0.3, 2.0,
                      PI - 1e-9, PI, PI + 0.3])
    poles = np.abs(theta) == PI
    for alpha in (3 * PI, 4 * PI, 7.0):
        arr = scattering_matrix(alpha, theta)
        assert isinstance(arr, np.ndarray) and arr.shape == theta.shape
        scal = [scattering_matrix(alpha, float(v)) for v in theta]
        assert all(isinstance(v, float) for v in scal)
        assert np.array_equal(arr, np.array(scal), equal_nan=True)
        assert np.array_equal(np.isnan(arr), poles)
        grid = scattering_matrix(alpha, theta.reshape(2, 5))
        assert np.array_equal(grid.ravel(), arr, equal_nan=True)


def test_scattering_evenness_and_periodicity():
    rng = np.random.default_rng(0)
    for alpha in (3 * PI, 4 * PI, 7.0):
        for _ in range(50):
            theta = rng.uniform(-alpha, alpha)
            if min(angular_separation(alpha, theta, PI),
                   angular_separation(alpha, theta, -PI)) < 1e-3:
                continue
            value = scattering_matrix(alpha, theta)
            assert value == scattering_matrix(alpha, -theta)
            assert value == pytest.approx(
                scattering_matrix(alpha, theta + alpha), rel=1e-9)


def _closed_form_off_axis(alpha, w):
    """S_alpha(w) at complex w, by cmath from the module's closed form."""
    k = PI / alpha
    return (-math.sin(2 * PI**2 / alpha) / (2 * alpha)
            / (cmath.sin(k * (PI - w)) * cmath.sin(k * (PI + w))))


def test_off_axis_values_match_the_closed_form():
    """Re S_alpha(theta - i c) against the closed form at complex argument,
    for random cone angles, angles and offsets c; theta = z, c = 0 gives
    the real-axis value."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        alpha = rng.uniform(0.5, 30.0)
        c = rng.uniform(0.05, 5.0)
        z = rng.uniform(-2 * alpha, 2 * alpha)
        want = _closed_form_off_axis(alpha, z - 1j * c)
        got = scattering_matrix(alpha, z, c)
        assert isinstance(got, float)
        assert got == pytest.approx(want.real, rel=0, abs=1e-12 * abs(want))
    # theta and c broadcast, and c = 0 is the real-axis value
    theta, cs = np.array([0.3, 2.0, -5.0]), np.array([[0.0], [0.7]])
    grid = scattering_matrix(7.0, theta, cs)
    assert grid.shape == (2, 3)
    assert np.array_equal(grid[0], scattering_matrix(7.0, theta))
    assert np.array_equal(grid[1], [scattering_matrix(7.0, v, 0.7)
                                    for v in theta])


def test_off_axis_values_are_finite_across_the_real_poles():
    """At c > 0 the poles theta = +-pi (mod alpha) are off the path: the
    values there are finite and continuous (Re S can pass through 0
    there, so in absolute terms), and tend to the real axis as c -> 0."""
    for alpha in (3 * PI, 4 * PI, 7.0, 0.5):
        theta = np.array([PI - 1e-9, PI, PI + 1e-9, -PI, PI + alpha])
        for c in (1e-6, 1e-3, 0.1, 2.0):
            vals = scattering_matrix(alpha, theta, c)
            assert np.all(np.isfinite(vals))
            if c >= 0.1:
                assert vals == pytest.approx(vals[1], rel=0, abs=1e-6)
        assert scattering_matrix(alpha, 0.3, 1e-9) == pytest.approx(
            scattering_matrix(alpha, 0.3), rel=1e-12)


@pytest.mark.parametrize("m", range(1, 7))
def test_exactly_zero_where_the_cone_does_not_diffract(m):
    """At alpha = 2 pi/m, sin(2 pi^2/alpha) is computed as exactly 0, so S
    off its poles, on and off the real axis, the regularized product, both
    limits and Friedlander's c integral of 2 Re S are 0, not roundoff."""
    alpha = 2 * PI / m
    theta = np.linspace(-10.0, 10.0, 401)
    vals = scattering_matrix(alpha, theta)
    assert np.all(vals[~np.isnan(vals)] == 0.0)
    assert np.all(scattering_matrix(alpha, theta, 0.5) == 0.0)
    assert s_times_cos_half(alpha, 0.1) == 0.0
    for which in (INCOMING_AT_0, OUTGOING_AT_PI):
        assert sine_product_limit_numeric(alpha, which) == 0.0
    for y, z in ((1.5, 0.4), (20.0, -0.1), (3.0, PI / m)):
        assert _diffracted_integral(alpha, y, z) == 0.0


def test_pole_locations():
    for alpha in (3 * PI, 4 * PI, 7.0):
        for sign in (+1, -1):
            assert math.isnan(scattering_matrix(alpha, sign * PI))
            # denominator changes sign across the pole
            lo = scattering_matrix(alpha, sign * PI - 1e-4)
            hi = scattering_matrix(alpha, sign * PI + 1e-4)
            assert lo * hi < 0
        # no pole well inside the regular range
        assert not math.isnan(scattering_matrix(alpha, 0.3))


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


def test_huge_angles_are_reduced_exactly():
    """S_alpha and its oracle at theta = 1e12 + 1 agree with their values at
    the exactly reduced angle; scaling theta by pi/alpha first lost 1e-4."""
    alpha, theta = 3 * PI, 1e12 + 1
    reduced = math.remainder(theta, alpha)
    assert scattering_matrix(alpha, theta) == pytest.approx(
        scattering_matrix(alpha, reduced), rel=1e-13, abs=0)
    assert scattering_matrix_fourier(alpha, theta, 8000) == pytest.approx(
        scattering_matrix_fourier(alpha, reduced, 8000), rel=1e-10, abs=0)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_scattering_matrix_refuses_non_finite_angles(theta):
    with pytest.raises(InvalidInput, match="finite"):
        scattering_matrix(7.0, [0.3, theta])


def test_scattering_matrix_refuses_an_overflowing_numerator():
    """pi/alpha is finite at alpha = 1.05e-307 but 2 pi^2/alpha is not."""
    with pytest.raises(InvalidInput, match="overflow"):
        scattering_matrix(1.05e-307, 0.1)


@pytest.mark.parametrize("call", [
    lambda alpha: s_times_cos_half(alpha, 0.3),
    lambda alpha: regularized_pair_product(alpha, 0.3, 0.1),
    lambda alpha: sine_product_limit_numeric(alpha, INCOMING_AT_0),
], ids=["s_times_cos_half", "regularized_pair_product",
        "sine_product_limit_numeric"])
def test_products_refuse_an_overflowing_numerator(call):
    """The regularized products refuse that alpha as scattering_matrix does,
    where math.sin(inf) raised a bare ValueError."""
    with pytest.raises(InvalidInput, match="overflow"):
        call(1.05e-307)


def test_fourier_oracle_arrays_match_scalars(monkeypatch):
    """Rows summed in blocks give the scalar calls bit for bit, and the
    shape of theta is kept."""
    from conewave import diffraction

    monkeypatch.setattr(diffraction, "FOURIER_BLOCK", 100)  # 2 rows at N = 500
    theta = np.linspace(-2.0, 2.0, 7)
    for n in (0, 1, 500):
        arr = scattering_matrix_fourier(7.0, theta.reshape(7, 1), n)
        assert arr.shape == (7, 1)
        scal = [scattering_matrix_fourier(7.0, float(v), n) for v in theta]
        assert all(isinstance(v, complex) for v in scal)
        assert np.array_equal(arr.ravel(), np.array(scal))


def _direct_fejer_sum(alpha, theta, n):
    """The oracle's sum term by term in extended precision."""
    pi = np.longdouble("3.141592653589793238462643383279502884")
    alpha = np.longdouble(alpha)
    x = 2 * pi * np.fmod(np.abs(np.asarray(theta, np.longdouble)), alpha) / alpha
    k = np.arange(1, n + 1, dtype=np.longdouble)
    c = 2 * (1 - k / (n + 1)) * np.exp(-2j * pi**2 * k / alpha)
    return -1j / alpha * (1 + np.sum(c * np.cos(k * x[..., None]), axis=-1))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8, 9, 10, 99, 100, 101, 500,
                               8000])
def test_fourier_oracle_matches_a_direct_sum(n):
    """The blocked sum, at orders around perfect squares (N + 1 terms fill
    its table exactly or leave padding), against a direct clongdouble sum.
    The arguments k x run up to 2 pi N, so the error of any double
    evaluation grows like N eps: 1e-14 (N + 1) of the peak is 2.5 times
    the worst measured (alpha = 2, N = 8000, where the term-by-term double
    sum is as far off)."""
    for alpha in (2.0, 7.0, 3 * PI):
        theta = np.linspace(-0.6 * alpha, 0.6 * alpha, 24).reshape(4, 6)
        want = _direct_fejer_sum(alpha, theta, n)
        got = scattering_matrix_fourier(alpha, theta, n)
        assert got.shape == (4, 6)
        peak = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= 1e-14 * (n + 1) * peak
        assert scattering_matrix_fourier(alpha, theta[1, 2], n) == got[1, 2]
        assert np.array_equal(scattering_matrix_fourier(alpha, theta[2], n),
                              got[2])


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_fourier_oracle_of_no_angles_is_empty(shape):
    out = scattering_matrix_fourier(7.0, np.empty(shape), 8000)
    assert out.shape == shape and out.dtype == complex


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_fourier_oracle_refuses_non_finite_angles(theta):
    with pytest.raises(InvalidInput, match="finite"):
        scattering_matrix_fourier(7.0, [0.3, theta], 10)


def test_fourier_envelope_near_poles():
    """Fejer error at distance d from a pole follows ~ C/(N d^2)."""
    alpha, theta = 7.0, PI - 0.1
    exact = scattering_matrix(alpha, theta)
    products = []
    for n in (500, 2000, 8000):
        err = abs(scattering_matrix_fourier(alpha, theta, n) - exact)
        products.append(err * n * 0.1**2)
    assert all(0.02 < p < 1.0 for p in products)


def test_regularized_sine_product_limits():
    assert SINE_PRODUCT_LIMITS == {INCOMING_AT_0: 1 / (2 * PI),
                                   OUTGOING_AT_PI: -1 / (2 * PI)}
    # numerical limits, theta offset 1e-6 with Richardson extrapolation,
    # identical across diffracting cone angles (3 pi is AT-6's)
    for alpha in (3 * PI, 4 * PI, 7.0, 5.0):
        for which, limit in SINE_PRODUCT_LIMITS.items():
            assert sine_product_limit_numeric(alpha, which) == pytest.approx(
                limit, rel=1e-10, abs=0)


def test_s_times_cos_half_regularization():
    # value at the geometric direction itself, where the identity's sinc
    # factors are 1 and sin(k (2 pi - u)) = sin(2 pi^2 / alpha)
    for alpha in (3 * PI, 4 * PI, 7.0, 5.0, 20.0):
        for sign in (+1, -1):
            assert s_times_cos_half(alpha, sign * PI) == pytest.approx(
                -1 / (4 * PI), rel=1e-12)
    # one identity on both sides of +-pi: it is the bare product wherever
    # that is well conditioned, u = pi - |dtheta| at least 1e-3 from 0
    u = np.concatenate([-np.geomspace(1e-3, 2.0, 40),
                        np.geomspace(1e-3, 0.99 * PI, 40)])
    for alpha in (3 * PI, 4 * PI, 5.0, 7.0, 20.0):
        for sign in (+1, -1):
            d = sign * (PI - u)
            bare = scattering_matrix(alpha, d) * np.cos(0.5 * d)
            np.testing.assert_allclose(s_times_cos_half(alpha, d), bare,
                                       rtol=1e-12, atol=0)
    # bit-exactly even, and arrays match the per-element values
    for alpha in (3 * PI, 4 * PI, 7.0):
        d = np.array([-PI - 0.251, -PI - 0.249, -PI, -PI + 1e-9, -1.0, 0.3,
                      PI - 0.249, PI - 0.251, PI, PI + 1e-7, PI - 1e-13])
        arr = s_times_cos_half(alpha, d)
        assert isinstance(arr, np.ndarray) and arr.shape == d.shape
        assert np.array_equal(s_times_cos_half(alpha, -d), arr)
        scal = [s_times_cos_half(alpha, float(v)) for v in d]
        assert all(isinstance(v, float) for v in scal)
        assert np.array_equal(arr, np.array(scal))
        pair = regularized_pair_product(alpha, d[:10].reshape(2, 5), 0.1)
        assert pair.shape == (2, 5)
        assert np.array_equal(pair.ravel(), [
            regularized_pair_product(alpha, float(v), 0.1) for v in d[:10]])
    # genuine poles raise, for scalars and inside arrays: S_{4pi} has poles
    # at +-3pi (sin(k (2 pi - u)) = 0), S_7 at +-(pi + 7) (sin(k u) = 0,
    # u = -7)
    for alpha, d in ((4 * PI, 3 * PI), (4 * PI, -3 * PI), (7.0, PI + 7.0),
                     (7.0, -PI - 7.0)):
        with pytest.raises(GeometricDirection):
            s_times_cos_half(alpha, d)
        with pytest.raises(GeometricDirection):
            s_times_cos_half(alpha, np.array([0.0, 1.0, d, 2.0]))


def test_regularized_pair_product_smooth_across_alignment():
    alpha = 3 * PI
    th_out = 0.0
    vals = [regularized_pair_product(alpha, th_out, th_out - PI + u)
            for u in np.linspace(-1e-3, 1e-3, 11)]
    spread = max(vals) - min(vals)
    assert spread < 1e-3
    assert vals[5] == pytest.approx(-2 * math.sin(-PI / 2) / (4 * PI), rel=1e-9)
