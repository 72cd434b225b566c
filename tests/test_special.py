import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from conewave.errors import InvalidInput, NonUniformGrid, NotConvex
from conewave.special import (GAMMA_HALF, Mollifier, SampledFunction1D,
                              bessel_j, damped_moment, find_roots_convex,
                              half_derivative, mollified_delta,
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
    x = PI / 2
    assert bessel_j(0.5, x) == pytest.approx(
        math.sqrt(2 / (PI * x)) * math.sin(x), abs=1e-14)
    assert bessel_j(0.5, PI / 2) == pytest.approx(2 / PI, abs=1e-14)
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(0.7, 0.0) == 0.0
    assert abs(bessel_j(0.0, 2.404825557695773)) < 1e-10
    for x in (0.3, 1.7, 4.0, 9.5):
        assert bessel_j(0.0, x) == pytest.approx(series_j0(x), abs=1e-12)


def test_bessel_recurrence():
    rng = np.random.default_rng(0)
    for _ in range(300):
        nu = rng.uniform(1.0, 10.0)
        x = rng.uniform(0.1, 100.0)
        lhs = bessel_j(nu - 1, x) + bessel_j(nu + 1, x)
        rhs = 2 * nu / x * bessel_j(nu, x)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_bessel_domain():
    with pytest.raises(ValueError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0.5, -1.0)


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
    ramp = SampledFunction1D(grid, np.where(grid > 0, grid, 0.0))
    for method in ("rl", "l1"):
        out = half_derivative(ramp, method).values
        mask = (grid > 0.05) & (grid < 3.5)
        exact = 2 / math.sqrt(PI) * np.sqrt(grid[mask])
        assert np.max(np.abs(out[mask] - exact)) < 1e-4


def test_half_derivative_linearity():
    grid = np.linspace(-4, 4, 2001)
    f = np.exp(-((grid - 0.3) ** 2) * 3)
    g = np.cos(grid) * np.exp(-grid**2)
    a, b = 2.3, -0.7
    out_sum = half_derivative(SampledFunction1D(grid, a * f + b * g)).values
    out_parts = (a * half_derivative(SampledFunction1D(grid, f)).values
                 + b * half_derivative(SampledFunction1D(grid, g)).values)
    assert np.allclose(out_sum, out_parts, atol=1e-12)
    out_zero = half_derivative(SampledFunction1D(grid, np.zeros_like(grid))).values
    assert np.all(out_zero == 0.0)


def test_half_derivative_methods_agree():
    grid = np.linspace(-4, 4, 16001)
    f = SampledFunction1D(grid, np.exp(-((grid - 0.5) ** 2) * 4))
    out_rl = half_derivative(f, "rl").values
    out_sp = half_derivative(f, "spectral").values
    mask = (grid > -2) & (grid < 3)
    assert np.max(np.abs(out_rl - out_sp)[mask]) < 1e-6


def test_half_derivative_twice_is_derivative():
    errs = []
    for n in (4001, 16001):
        grid = np.linspace(-4, 4, n)
        f = np.exp(-((grid - 0.5) ** 2) * 4)
        once = half_derivative(SampledFunction1D(grid, f)).values
        twice = half_derivative(SampledFunction1D(grid, once)).values
        mask = (grid > -2) & (grid < 3)
        errs.append(np.max(np.abs(twice - np.gradient(f, grid))[mask]))
    assert errs[-1] < 1e-4
    assert errs[-1] <= errs[0]  # grid refinement converges


def test_half_derivative_requires_uniform_grid():
    grid = np.concatenate([np.linspace(0, 1, 50), np.linspace(1.1, 3, 50)])
    f = SampledFunction1D(grid, np.exp(-grid))
    with pytest.raises(NonUniformGrid):
        half_derivative(f)


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


@pytest.mark.parametrize("order", [0, 0.5, 1, math.nan, -math.inf])
def test_mollified_inverse_power_rejects_order(order):
    with pytest.raises(InvalidInput):
        mollified_inverse_power(Mollifier(0.05), 2.1, 2.0, order)


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


def test_find_roots_convex():
    assert find_roots_convex(lambda s: s * s - 1, 10.0) == pytest.approx([1.0])
    roots = find_roots_convex(lambda s: (s - 1) * (s - 3), 10.0)
    assert roots == pytest.approx([1.0, 3.0], abs=1e-12)
    assert find_roots_convex(lambda s: s * s + 1, 10.0) == []
    with pytest.raises(NotConvex):
        find_roots_convex(lambda s: math.sin(3 * s), 10.0)

