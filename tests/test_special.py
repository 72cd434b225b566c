import math

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
import scipy.optimize
import scipy.special

from conewave import geometry, special
from conewave.errors import InvalidInput
from conewave.geometry import ConePoint, cone_distance
from conewave.kernels import KernelQuery, _moving_point_frame
from conewave.special import (GAMMA_HALF, Mollifier, damped_moment,
                              fd_hessian, find_roots_convex, gauss_legendre,
                              l1_half_derivative, leggauss, mollified_delta,
                              mollified_inverse_power)

PI = math.pi


def series_j0(x, terms=60):
    """Independent Taylor-series oracle for J_0."""
    total, term = 0.0, 1.0
    for k in range(terms):
        if k > 0:
            term *= -(x * x / 4.0) / (k * k)
        total += term
    return total


def test_bessel_closed_forms():
    """scipy's jv, the reference of the Bessel table's tests in
    test_kernels, against closed forms."""
    jv = scipy.special.jv
    x = PI / 2
    assert jv(0.5, x) == pytest.approx(
        math.sqrt(2 / (PI * x)) * math.sin(x), abs=1e-14)
    assert jv(0.5, PI / 2) == pytest.approx(2 / PI, abs=1e-14)
    assert jv(0.0, 0.0) == 1.0
    assert jv(0.7, 0.0) == 0.0
    assert abs(jv(0.0, 2.404825557695773)) < 1e-10
    for x in (0.3, 1.7, 4.0, 9.5):
        assert jv(0.0, x) == pytest.approx(series_j0(x), abs=1e-12)


def test_bessel_recurrence():
    jv = scipy.special.jv
    rng = np.random.default_rng(0)
    for _ in range(300):
        nu = rng.uniform(1.0, 10.0)
        x = rng.uniform(0.1, 100.0)
        lhs = jv(nu - 1, x) + jv(nu + 1, x)
        rhs = 2 * nu / x * jv(nu, x)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_mollified_delta():
    moll = Mollifier(1.0)
    assert mollified_delta(moll, 0.0) == pytest.approx(1 / math.sqrt(2 * PI))
    assert mollified_delta(moll, 1.0) == pytest.approx(
        mollified_delta(moll, -1.0))
    assert mollified_delta(moll, 1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2 * PI))
    # unit mass and concentration
    moll = Mollifier(0.01)
    mass, _ = scipy.integrate.quad(lambda u: mollified_delta(moll, u), -1, 1)
    assert mass == pytest.approx(1.0, abs=1e-8)
    peak = mollified_delta(moll, 0.0)
    assert mollified_delta(moll, 5.01 * 0.01) < 1e-5 * peak


def test_half_derivative_ramp():
    grid = np.linspace(-4, 4, 8001)
    out = l1_half_derivative(np.where(grid > 0, grid, 0.0), grid[1] - grid[0])
    mask = (grid > 0.05) & (grid < 3.5)
    exact = 2 / math.sqrt(PI) * np.sqrt(grid[mask])
    assert np.max(np.abs(out[mask] - exact)) < 1e-4


def test_half_derivative_linearity():
    grid = np.linspace(-4, 4, 2001)
    d = grid[1] - grid[0]
    f = np.exp(-((grid - 0.3) ** 2) * 3)
    g = np.cos(grid) * np.exp(-grid**2)
    a, b = 2.3, -0.7
    out_sum = l1_half_derivative(a * f + b * g, d)
    out_parts = a * l1_half_derivative(f, d) + b * l1_half_derivative(g, d)
    assert np.allclose(out_sum, out_parts, atol=1e-12)
    assert np.all(l1_half_derivative(np.zeros_like(grid), d) == 0.0)
    with pytest.raises(InvalidInput):  # one column at a time, no 2-D tables
        l1_half_derivative(np.stack([f, g], axis=1), d)


def test_half_derivative_few_samples_give_zeros():
    """Data vanish at the left edge, so fewer than two samples have no
    half-derivative but 0 (the scipy.fft form raised ValueError there)."""
    assert l1_half_derivative(np.empty(0), 0.1).shape == (0,)
    assert l1_half_derivative([3.0], 0.1).tolist() == [0.0]
    # the ramp 2 y, whose half-derivative is 4 sqrt(y) / Gamma(1/2)
    assert l1_half_derivative([0.0, 1.0], 0.5).tolist() == pytest.approx(
        [0.0, 4.0 * math.sqrt(0.5) / GAMMA_HALF], rel=1e-15, abs=0)


@pytest.mark.parametrize("n", [2, 3, 101, 8001, 64_001, 64_007])
def test_half_derivative_numpy_fft_matches_scipy_fft(n):
    """The convolution by numpy's FFT at a power-of-two length is within
    1e-15 of the peak of the same convolution by scipy.fft at its fast
    length, the form the package used until it dropped scipy (a reference
    here only): on a Gaussian, a ramp and noise, at a prime n too."""
    grid = np.linspace(-4, 4, n)
    d = grid[1] - grid[0]
    m = np.arange(1, n) * d
    w = (special._k32(m) - special._k32(m - d)) / d
    nfft = scipy.fft.next_fast_len(2 * n - 3, True)
    for f in (np.exp(-3 * (grid - 0.3) ** 2), np.where(grid > 0, grid, 0.0),
              np.random.default_rng(n).standard_normal(n)):
        ref = scipy.fft.irfft(scipy.fft.rfft(np.diff(f), nfft)
                              * scipy.fft.rfft(w, nfft), nfft)[: n - 1]
        got = l1_half_derivative(f, d)
        assert got[0] == 0.0
        assert np.max(np.abs(got[1:] - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_half_derivative_against_exact_gaussian():
    """The half-derivative of e^{-(x - x0)^2 / (2 s^2)} is
    2 s / sqrt(2 pi) * Re[e^{i pi/4} int_0^inf w^{1/2} e^{i (x - x0) w
    - s^2 w^2/2} dw], the damped moment of order 3/2; the L1 scheme
    converges to it at order 1.5 (error / 8 per 4x refinement)."""
    x0, sigma = 0.5, 1 / math.sqrt(8)
    errs = []
    for n in (4001, 16001, 64001):
        grid = np.linspace(-4, 4, n)
        f = np.exp(-((grid - x0) ** 2) / (2 * sigma**2))
        out = l1_half_derivative(f, grid[1] - grid[0])
        mask = (grid > -2) & (grid < 3)
        exact = 2 * sigma / math.sqrt(2 * PI) * np.real(
            np.exp(0.25j * PI) * damped_moment(grid[mask] - x0, sigma, 1.5))
        errs.append(np.max(np.abs(out[mask] - exact)))
    assert errs[1] < 1e-4
    assert errs[0] > 6 * errs[1] and errs[1] > 6 * errs[2]


def test_half_derivative_twice_is_derivative():
    errs = []
    for n in (4001, 16001):
        grid = np.linspace(-4, 4, n)
        d = grid[1] - grid[0]
        f = np.exp(-((grid - 0.5) ** 2) * 4)
        twice = l1_half_derivative(l1_half_derivative(f, d), d)
        mask = (grid > -2) & (grid < 3)
        errs.append(np.max(np.abs(twice - np.gradient(f, grid))[mask]))
    assert errs[-1] < 1e-4
    assert errs[-1] <= errs[0]  # grid refinement converges


def test_mollified_inverse_power_order_minus_one():
    h = 0.05
    moll = Mollifier(h)
    L = 2.0
    peak = mollified_inverse_power(moll, L, L, -1)
    assert peak == pytest.approx(1j * math.sqrt(PI / 2) / h, abs=1e-12)
    # real part antisymmetric about t = L
    for u in (0.01, 0.07, 0.2):
        plus = mollified_inverse_power(moll, L + u, L, -1)
        minus = mollified_inverse_power(moll, L - u, L, -1)
        assert plus.real == pytest.approx(-minus.real, abs=1e-12)
        assert plus.imag == pytest.approx(minus.imag, abs=1e-12)
    # h -> 0 limit of the real part matches 1/(t - L)
    u = 0.5
    for hh in (0.05, 0.02, 0.01):
        val = mollified_inverse_power(Mollifier(hh), L + u, L, -1)
        assert val.real == pytest.approx(1.0 / u, rel=5 * hh)


def test_mollified_inverse_power_against_quadrature_oracle():
    """Direct omega quadrature of i * int_0^inf e^{i w (L-t)} e^{-h^2w^2/2}."""
    h = 0.04
    moll = Mollifier(h)
    wmax = 10.0 / h
    for u in (0.0, 0.03, -0.11, 0.3):
        re, _ = scipy.integrate.quad(
            lambda w: math.sin(u * w) * math.exp(-0.5 * (h * w) ** 2), 0, wmax,
            limit=400)
        im, _ = scipy.integrate.quad(
            lambda w: math.cos(u * w) * math.exp(-0.5 * (h * w) ** 2), 0, wmax,
            limit=400)
        oracle = complex(re, im)
        got = mollified_inverse_power(moll, 2.0 + u, 2.0, -1)
        assert got == pytest.approx(oracle, abs=1e-9 * abs(oracle))


def test_mollified_inverse_power_order_minus_half():
    h = 0.05
    moll = Mollifier(h)
    # at u = 0: (e^{i pi/4}/sqrt(pi)) Gamma(1/4) / (2 (h^2/2)^{1/4})
    got = mollified_inverse_power(moll, 2.0, 2.0, -0.5)
    expect = (np.exp(1j * PI / 4) / GAMMA_HALF
              * scipy.special.gamma(0.25) / (2 * (0.5 * h * h) ** 0.25))
    assert got == pytest.approx(expect, rel=1e-9)
    # h -> 0 at fixed u > 0: (u - i0)^{-1/2} -> u^{-1/2}
    u = 0.4
    val = mollified_inverse_power(Mollifier(0.005), 2.0 + u, 2.0, -0.5)
    assert val == pytest.approx(complex(u**-0.5, 0.0), abs=2e-2)


def test_mollified_inverse_power_order_minus_half_small_h():
    """Far from L at small h the model is its h -> 0 limit (t - L - i0)^(-1/2):
    u^(-1/2) for u = t - L > 0 and i |u|^(-1/2) for u < 0; the Gaussian
    smoothing moves it by about (3/8) h^2 / u^2 relative (1.5e-6 here)."""
    moll = Mollifier(0.005)
    for u, limit in ((2.5, 2.5**-0.5), (-2.5, 1j * 2.5**-0.5)):
        got = mollified_inverse_power(moll, 2.0 + u, 2.0, -0.5)
        assert got == pytest.approx(limit, rel=1e-5)


def test_mollified_inverse_power_order_minus_three_halves():
    """Direct omega quadrature of (e^{3 i pi/4} / Gamma(3/2)) *
    int_0^inf w^{1/2} e^{i w (L-t)} e^{-h^2 w^2/2} dw."""
    h = 0.04
    moll = Mollifier(h)
    wmax = 10.0 / h
    for u in (0.0, 0.03, -0.11, 0.3):
        re, _ = scipy.integrate.quad(
            lambda w: math.sqrt(w) * math.cos(u * w) * math.exp(-0.5 * (h * w) ** 2),
            0, wmax, limit=400)
        im, _ = scipy.integrate.quad(
            lambda w: math.sqrt(w) * math.sin(u * w) * math.exp(-0.5 * (h * w) ** 2),
            0, wmax, limit=400)
        oracle = (np.exp(0.75j * PI) / scipy.special.gamma(1.5)
                  * complex(re, -im))
        got = mollified_inverse_power(moll, 2.0 + u, 2.0, -1.5)
        assert got == pytest.approx(oracle, abs=1e-9 * abs(oracle))


@pytest.mark.parametrize("order", [-0.5, -1, -1.5])
def test_mollified_inverse_power_arrays(order):
    moll = Mollifier(0.03)
    ts = np.linspace(1.7, 2.3, 13).reshape(1, 13)
    got = mollified_inverse_power(moll, ts, 2.0, order)
    assert got.shape == ts.shape
    each = np.array([mollified_inverse_power(moll, float(t), 2.0, order)
                     for t in ts.ravel()])
    # equal up to the rounding of complex vs numpy complex multiplication
    assert np.max(np.abs(got.ravel() - each)) < 1e-15 * np.max(np.abs(each))


@pytest.mark.parametrize("order", [0, 0.5, 1, math.nan, -math.inf, -5, -10])
def test_mollified_inverse_power_rejects_order(order):
    with pytest.raises(InvalidInput):
        mollified_inverse_power(Mollifier(0.05), 2.1, 2.0, order)


def test_damped_moment_refuses_s_past_the_measured_range():
    """Past s = 4.7, the largest s measured against mpmath, the Kummer
    series cancels (5e-13 of the peak at s = 30): s = 5 is refused."""
    u = np.linspace(-1.0, 1.0, 5)
    assert np.isfinite(damped_moment(u, 0.05, 4.7)).all()
    with pytest.raises(InvalidInput, match="s <= 4.7"):
        damped_moment(u, 0.05, 5.0)


def test_damped_moment_first_moment_against_dawson():
    """s = 2 against the Dawson-function closed form of
    int_0^inf w e^{i u w - h^2 w^2/2} dw, with x = u / (sqrt(2) h):
    (1 - 2 x F(x)) / h^2 + i sqrt(2 pi) u e^{-x^2} / (2 h^3)."""
    for h in (0.01, 0.05, 0.2):
        u = np.linspace(-3.0, 3.0, 241)
        x = u / (math.sqrt(2.0) * h)
        oracle = ((1.0 - 2.0 * x * scipy.special.dawsn(x)) / h**2
                  + 1j * math.sqrt(2.0 * PI) * u / (2.0 * h**3) * np.exp(-x * x))
        got = damped_moment(u, h, 2.0)
        assert np.max(np.abs(got - oracle)) < 1e-14 * abs(oracle[120])


def test_damped_moment_cosine_half_at_s1_is_a_gaussian():
    """At s = 1 the cosine half is (1/2) Gamma(1/2) a^(-1/2) M(1/2, 1/2, -x)
    = sqrt(pi / 2) / h e^{-x}: the series has only its constant term.  Past
    the crossover the large-x expansion's 1 / Gamma(0) makes it 0, which is
    below e^{-60} of the peak."""
    h = 0.05
    u = np.linspace(-1.0, 1.0, 401)
    got = damped_moment(u, h, 1.0)
    peak = math.sqrt(PI / 2) / h
    np.testing.assert_allclose(got.real, peak * np.exp(-u * u / (2 * h * h)),
                               rtol=4e-16, atol=1e-26 * peak)


def test_damped_moment_chunks_its_table(monkeypatch):
    """The blocks-by-points table is cut into chunks of points that fit the
    array budget, down to one point per chunk, and the values do not
    change."""
    u = np.linspace(-2.0, 2.0, 1001)
    want = damped_moment(u, 0.05, 1.5)
    sizes = []
    zeros = np.zeros

    def spy(shape, *args, **kwargs):
        if np.ndim(shape) == 1 and len(shape) == 2:
            sizes.append(math.prod(shape))
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", spy)
    monkeypatch.setattr(geometry, "MAX_ARRAY_ELEMENTS", 1000)
    assert np.array_equal(damped_moment(u, 0.05, 1.5), want)
    # each table has at least 6 blocks, so a chunk holds at most 166 points
    assert len(sizes) >= 2 * math.ceil(u.size / 166) and max(sizes) <= 1000
    # a budget below one column of the table: one chunk per point and half
    monkeypatch.setattr(geometry, "MAX_ARRAY_ELEMENTS", 1)
    sizes.clear()
    assert np.array_equal(damped_moment(u, 0.05, 1.5), want)
    assert len(sizes) == 2 * u.size


def sampled_front_roots(g, s_hi):
    """Reference roots of g on [0, s_hi]: each sign change on a dense grid,
    refined by Brent's method.  g takes floats and arrays."""
    grid = np.linspace(0.0, s_hi, 4001)
    vals = g(grid)
    return [scipy.optimize.brentq(g, a, b, xtol=1e-15)
            for a, b, ga, gb in zip(grid, grid[1:], vals, vals[1:])
            if ga * gb < 0.0]


def test_find_roots_convex():
    """Exact roots of r1(s) + r2(s) = t in the moving-vertex chart against
    sampling, before (no root), between (two) and after (one) the fronts."""
    rng = np.random.default_rng(3)
    counts = set()
    for i in range(90):
        r1, r2 = rng.uniform(0.4, 2.0, 2)
        q1 = ConePoint(r1, 0.0)
        q2 = ConePoint(r2, rng.uniform(0.05, 2 * PI - 0.05))
        dist = cone_distance(4 * PI, q1, q2)
        if i % 3 == 0:
            t = rng.uniform(0.3, 0.95) * dist
        elif i % 3 == 2:
            t = rng.uniform(1.05, 2.0) * (r1 + r2)
        elif r1 + r2 - dist >= 0.05:
            t = rng.uniform(dist + 0.02, r1 + r2 - 0.02)
        else:
            continue
        x1, x2 = _moving_point_frame(KernelQuery(t, q1, q2), 1.0)

        def g(s):  # float or array s
            return np.hypot(x1[0], x1[1] - s) + np.hypot(x2[0], x2[1] - s) - t

        roots = find_roots_convex(x1, x2, t)
        # a root s satisfies s <= r1(s) + |x1| = t - r2(s) + |x1|
        reference = sampled_front_roots(g, t + math.hypot(*x1))
        assert len(roots) == len(reference), i
        assert roots == pytest.approx(reference, rel=0, abs=1e-12)
        assert all(abs(g(s)) <= 1e-13 * t for s in roots)
        assert find_roots_convex(x1, x2, -t) == []
        counts.add(len(roots))
    assert counts == {0, 1, 2}


def test_fd_hessian_exact_on_a_quadratic():
    """Both stencils are exact on quadratics, so only roundoff, about
    eps |f| / step^2, remains; large steps keep it small."""
    a = np.array([[2.0, -1.0, 0.5], [-1.0, 3.0, 0.25], [0.5, 0.25, -4.0]])
    b = np.array([1.0, -2.0, 0.5])

    def f(x):
        return 0.5 * np.einsum("im,ij,jm->m", x, a, x) + b @ x + 7.0

    for step in (0.25, 1.0, 4.0):
        hess = fd_hessian(f, [0.3, -1.2, 2.0], step)
        assert hess.shape == (3, 3)
        assert np.array_equal(hess, hess.T)
        np.testing.assert_allclose(hess, a, rtol=0, atol=1e-12)


def test_fd_hessian_is_fourth_order():
    """On exp(x) sin(y) + x y cos(z) the error against the exact Hessian
    falls by 2^4 per halving of the step, in every entry's worst case."""
    def f(v):
        x, y, z = v
        return np.exp(x) * np.sin(y) + x * y * np.cos(z)

    x, y, z = 0.4, 0.7, -0.3
    ex, sy, cy, cz, sz = (math.exp(x), math.sin(y), math.cos(y), math.cos(z),
                          math.sin(z))
    exact = np.array([[ex * sy, ex * cy + cz, -y * sz],
                      [ex * cy + cz, -ex * sy, -x * sz],
                      [-y * sz, -x * sz, -x * y * cz]])
    errs = [np.max(np.abs(fd_hessian(f, [x, y, z], h) - exact))
            for h in (0.2, 0.1, 0.05)]
    assert errs[-1] < 1e-6
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_fd_hessian_one_variable_is_the_extrapolated_second_difference():
    """The 1 x 1 case is (4 D(h/2) - D(h)) / 3 with the central second
    difference D, to the last bit."""
    def f(v):
        return np.cos(3.0 * v[0]) + v[0] ** 5

    step, x0 = 1e-3, 0.25

    def d2(h):
        plus, centre, minus = f(np.array([[x0 + h, x0, x0 - h]]))
        return (plus - 2.0 * centre + minus) / (h * h)

    assert fd_hessian(f, [x0], step)[0, 0] == (
        4.0 * d2(0.5 * step) - d2(step)) / 3.0


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_fd_hessian_calls_f_once_on_its_stencil_columns(n):
    """f sees every stencil point at once, as the columns of an
    (n, 1 + 4 n^2) array whose first column is x0."""
    shapes = []
    x0 = np.linspace(-1.0, 1.0, n)

    def f(x):
        shapes.append(x.shape)
        np.testing.assert_array_equal(x[:, 0], x0)
        return np.sum(x * x, axis=0)

    hess = fd_hessian(f, x0, 0.1)
    assert shapes == [(n, 1 + 4 * n * n)]
    np.testing.assert_allclose(hess, 2.0 * np.eye(n), rtol=0, atol=1e-12)


def test_gauss_legendre_is_the_rule_on_each_panel():
    nodes, weights = gauss_legendre([0.0, 0.25, 1.0, 3.0], 5)
    assert nodes.shape == weights.shape == (15,)
    assert np.all(np.diff(nodes) > 0)
    # exact for degree 9 on each panel, so on their union
    assert float(np.sum(weights * nodes**9)) == pytest.approx(3.0**10 / 10,
                                                              rel=1e-14)
    # one panel [-1, 1] is leggauss itself
    ref_nodes, ref_weights = leggauss(5)
    one = gauss_legendre([-1.0, 1.0], 5)
    np.testing.assert_allclose(one[0], ref_nodes, rtol=0, atol=4e-16)
    np.testing.assert_array_equal(one[1], ref_weights)


def test_leggauss_is_cached_read_only_and_budgeted():
    nodes, weights = leggauss(7)
    assert leggauss(7)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    # exact for polynomials of degree 2 n - 1 = 13
    assert float(np.sum(weights * nodes**12)) == pytest.approx(2.0 / 13.0,
                                                               rel=1e-14)
    # the rule's O(n^2) work must fit the budget
    with pytest.raises(InvalidInput):
        leggauss(5000)
