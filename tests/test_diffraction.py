import cmath
import math

import numpy as np
import pytest

from conewave.diffraction import (SINE_PRODUCT_LIMITS, s_times_cos_half,
                                  scattering_matrix, scattering_matrix_fourier,
                                  sine_product_limits_numeric)
from conewave.errors import GeometricDirection, InvalidInput
from conewave.friedlander import _diffracted_integral
from conewave.geometry import PlanarPoint, angular_separation
from conewave.two_diffraction import leg_amplitude

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
    limits and Friedlander's c integral of 2 Re S are 0, not roundoff
    (`leg_amplitude`, which holds the regularized pair product, is tested
    in test_two_diffraction)."""
    alpha = 2 * PI / m
    theta = np.linspace(-10.0, 10.0, 401)
    vals = scattering_matrix(alpha, theta)
    assert np.all(vals[~np.isnan(vals)] == 0.0)
    assert np.all(scattering_matrix(alpha, theta, 0.5) == 0.0)
    assert s_times_cos_half(alpha, 0.1) == 0.0
    assert sine_product_limits_numeric(alpha) == (0.0, 0.0)
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
    lambda alpha: leg_amplitude(alpha, 1, PlanarPoint(0.0, 0.0),
                                PlanarPoint(1.0, 0.3), PlanarPoint(1.0, 0.1),
                                1.0),
    sine_product_limits_numeric,
], ids=["s_times_cos_half", "leg_amplitude", "sine_product_limits_numeric"])
def test_products_refuse_an_overflowing_numerator(call):
    """The regularized products refuse that alpha as scattering_matrix does,
    where math.sin(inf) raised a bare ValueError."""
    with pytest.raises(InvalidInput, match="overflow"):
        call(1.05e-307)


@pytest.mark.parametrize("alpha, n", [(1e-305, 100000), (2e-308, 0),
                                      (1e-310, 0)])
def test_fourier_oracle_refuses_values_past_the_double_range(alpha, n):
    """2 pi (N + 1)/alpha bounds the oracle and its phase factor; at 2e-308
    only 2 pi/alpha overflows, which made inf * 0 = NaN phases."""
    with pytest.raises(InvalidInput, match="double range"):
        scattering_matrix_fourier(alpha, [0.0, 0.1], n)


def test_fourier_oracle_just_inside_the_double_range():
    """At alpha = 1e-300 every angle reduces to a pole, where F = N + 1:
    the value is -i (N + 1)/alpha, finite."""
    got = scattering_matrix_fourier(1e-300, np.array([0.0, 0.1, 0.2]), 1000)
    assert np.all(got == -1001j / 1e-300)


def test_fourier_oracle_arrays_match_scalars():
    """An array gives the scalar calls bit for bit, and the shape of theta
    is kept."""
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
    """The closed form against a direct clongdouble sum, within 1e-13 of
    the peak at every N: its phases stay within pi, so its rounding does
    not grow with N (a double sum of the terms, whose arguments k x reach
    2 pi N, is 3.2e-11 off at N = 8000; the worst measured here is 4.4e-14,
    over alpha in {0.5, 2, 5, 7, 3 pi, 4 pi, 20})."""
    for alpha in (2.0, 7.0, 3 * PI):
        theta = np.linspace(-0.6 * alpha, 0.6 * alpha, 24).reshape(4, 6)
        want = _direct_fejer_sum(alpha, theta, n)
        got = scattering_matrix_fourier(alpha, theta, n)
        assert got.shape == (4, 6)
        peak = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= 1e-13 * peak
        assert scattering_matrix_fourier(alpha, theta[1, 2], n) == got[1, 2]
        assert np.array_equal(scattering_matrix_fourier(alpha, theta[2], n),
                              got[2])


@pytest.mark.parametrize("n", [0, 1, 4, 500, 8000])
@pytest.mark.parametrize("alpha", [2.0, 7.0, 3 * PI])
def test_fourier_oracle_near_the_poles(alpha, n):
    """At 0 to 1e-2 rad from each geometric direction, theta = pi,
    alpha - pi and -pi, where the Fejer kernel peaks at N + 1 and its
    conjugate takes its series below |(N + 1) phi| = 3e-4: within 1e-11
    relative of a direct clongdouble sum (3.0e-12 measured, from the
    rounding of pi in the offsets)."""
    offsets = np.concatenate([[0.0], np.geomspace(1e-12, 1e-2, 41)])
    for pole in (PI, alpha - PI, -PI):
        theta = np.concatenate([pole - offsets, pole + offsets])
        want = _direct_fejer_sum(alpha, theta, n)
        got = scattering_matrix_fourier(alpha, theta, n)
        assert float(np.max(np.abs(got - want) / np.abs(want))) <= 1e-11


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
    """(incoming at 0, outgoing at pi); the numerical limits, from offsets
    of 1e-6 down with Richardson extrapolation, are the same at every
    diffracting cone angle (3 pi is AT-6's)."""
    assert SINE_PRODUCT_LIMITS == (1 / (2 * PI), -1 / (2 * PI))
    for alpha in (3 * PI, 4 * PI, 7.0, 5.0, 0.5, 1e3, 1e13, 1e77):
        assert sine_product_limits_numeric(alpha) == pytest.approx(
            SINE_PRODUCT_LIMITS, rel=1e-10, abs=0)


@pytest.mark.parametrize("alpha", [1e155, 1e200, 1e300])
def test_sine_product_limits_at_huge_cone_angles(alpha):
    """The limits come from scattering_matrix's closed form at the offsets
    to the poles, scaled by a power of two near alpha/pi; unscaled, the
    sine factors underflowed from alpha ~ 1e160 (ZeroDivisionError)."""
    got = sine_product_limits_numeric(alpha)
    assert got == pytest.approx(SINE_PRODUCT_LIMITS, rel=0, abs=1e-12)


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
    # genuine poles raise, for scalars and inside arrays: S_{4pi} has poles
    # at +-3pi (sin(k (2 pi - u)) = 0), S_7 at +-(pi + 7) (sin(k u) = 0,
    # u = -7)
    for alpha, d in ((4 * PI, 3 * PI), (4 * PI, -3 * PI), (7.0, PI + 7.0),
                     (7.0, -PI - 7.0)):
        with pytest.raises(GeometricDirection):
            s_times_cos_half(alpha, d)
        with pytest.raises(GeometricDirection):
            s_times_cos_half(alpha, np.array([0.0, 1.0, d, 2.0]))


def _re_s_plane_limit(theta, c):
    """Re S_alpha(theta - i c) as alpha -> infinity: -1/(pi^2 - w^2)."""
    w = theta - 1j * c
    return (-1.0 / ((PI - w) * (PI + w))).real


@pytest.mark.parametrize("alpha", [1e20, 1e77, 1e100, 1e300])
def test_scattering_matrix_at_huge_cone_angles(alpha):
    """On and off the axis S_alpha is its alpha -> infinity limit to
    1e-12 (the next term is O(1/alpha)), NaN exactly at theta = +-pi on
    the axis.  The sine factors are taken times a power of two near
    alpha/pi; unscaled, the denominator underflowed past alpha ~ 1e77 and
    every angle fell in the pole band from alpha ~ 1e13."""
    theta = np.array([-3.0, -PI, -2.0, -0.5, 0.0, 1e-9, 1.0, 3.1, PI, 3.2,
                      10.0])
    poles = np.abs(theta) == PI
    for c in (0.0, 1e-6, 0.3, 2.0):
        got = scattering_matrix(alpha, theta, c)
        keep = ~poles if c == 0.0 else np.ones_like(poles)
        if c == 0.0:
            assert np.array_equal(np.isnan(got), poles)
        np.testing.assert_allclose(got[keep],
                                   _re_s_plane_limit(theta[keep], c),
                                   rtol=1e-12, atol=0)


def test_scattering_matrix_where_it_underflows():
    """Far from the poles at a huge cone angle, or far off the axis, |Re S|
    is below about 1e-154; the scaled squares are bounded there, so the
    value is finite, of that size, and no overflow is raised (the suite
    turns RuntimeWarning into an error)."""
    for alpha, theta, c in ((1e100, 1e90, 0.0), (1e300, 1e299, 0.0),
                            (1e300, 1e140, 0.5), (1e13, 1.0, 1e20),
                            (1e300, 1.0, 1e305)):
        value = scattering_matrix(alpha, theta, c)
        assert math.isfinite(value) and abs(value) < 2e-154


def test_scattering_matrix_at_1e13():
    """At alpha = 1e13 the closed form agrees with mpmath to 1e-12; the
    band of 1e-12 in |sin| covered every angle at this alpha."""
    mpmath = pytest.importorskip("mpmath")
    alpha = 1e13
    for theta in (0.0, 0.5, 2.0, 3.1, 3.2, 20.0):
        for c in (0.0, 0.7):
            with mpmath.workdps(40):
                k = mpmath.pi / alpha
                w = mpmath.mpf(theta) - 1j * mpmath.mpf(c)
                want = float(mpmath.re(
                    -mpmath.sin(2 * mpmath.pi**2 / alpha) / (2 * alpha)
                    / (mpmath.sin(k * (mpmath.pi - w))
                       * mpmath.sin(k * (mpmath.pi + w)))))
            assert scattering_matrix(alpha, theta, c) == pytest.approx(
                want, rel=1e-12, abs=0)


def test_pole_band_is_an_angle():
    """An offset counts as a pole within POLE_TOL = 1e-12 radians of a
    geometric direction, at any cone angle: 5e-13 is a pole, 2e-12 is
    not.  The old band, 1e-12 in |sin|, was 3e-12 radians wide at 3 pi
    and 0.32 radians at 1e12."""
    for alpha in (0.5, 3 * PI, 1e6, 1e12):
        for sign in (1, -1):
            assert math.isnan(scattering_matrix(alpha, sign * (PI - 5e-13)))
            assert not math.isnan(scattering_matrix(alpha,
                                                    sign * (PI - 2e-12)))
    # s_times_cos_half: S_{4pi} has a genuine pole at dtheta = 3 pi
    with pytest.raises(GeometricDirection):
        s_times_cos_half(4 * PI, 3 * PI - 5e-13)
    assert math.isfinite(s_times_cos_half(4 * PI, 3 * PI - 2e-12))
    assert s_times_cos_half(1e12, 2.065) == pytest.approx(
        scattering_matrix(1e12, 2.065) * math.cos(1.0325), rel=1e-12)


def test_s_times_cos_half_at_huge_cone_angles():
    """S cos(d/2) at d = 0 tends to -1/pi^2 as alpha grows; sin(k (2 pi -
    u)) ~ 1e-75 at alpha = 1e76 was read as a pole."""
    for alpha in (1e13, 1e76, 1e150):
        assert s_times_cos_half(alpha, 0.0) == pytest.approx(-1 / PI**2,
                                                             rel=1e-12)
