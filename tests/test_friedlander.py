import math

import numpy as np
import pytest

from conewave.errors import OutOfGrid
from conewave.friedlander import (DY, _column_spline, build_friedlander,
                                  friedlander_pullback,
                                  sine_kernel_friedlander)
from conewave.geometry import ConePoint, cone_distance
from conewave.kernels import (KernelQuery, gauss_hermite_mollify,
                              plane_kernel_closed, sine_kernel_4pi_closed,
                              sine_kernel_cheeger_series)
from conewave.special import GAMMA_HALF, l1_half_derivative

PI = math.pi


@pytest.fixture(scope="module")
def grid_4pi():
    return build_friedlander(4 * PI)


@pytest.fixture(scope="module")
def grid_2pi():
    return build_friedlander(2 * PI)


def test_g_branch_point_values(grid_4pi):
    fg = grid_4pi
    zi = np.argmin(np.abs(fg.z))
    # y < 1, z = 0, y + cos 0 > 0 -> 1
    yi = np.argmin(np.abs(fg.y - 0.5))
    assert fg.g[yi, zi] == 1.0
    # before the direct front
    assert fg.g[np.argmin(np.abs(fg.y + 1.2)), zi] == 0.0
    # y = 1.5, z = 0 against a brute-force periodization oracle
    yj = np.argmin(np.abs(fg.y - 1.5))
    c = math.acosh(1.5)
    assert abs(c - math.log(1.5 + math.sqrt(1.25))) < 1e-15
    def brute(K):
        return sum((1 / PI) * (math.atan((PI - 4 * PI * k) / c)
                               + math.atan((PI + 4 * PI * k) / c))
                   for k in range(-K, K + 1))

    # the raw translate sum has an O(1/K) tail; one Richardson step kills it
    oracle = 2 * brute(4000) - brute(2000)
    assert fg.g[yj, zi] == pytest.approx(oracle, abs=1e-7)
    # the single-branch value (1/pi) 2 arctan(pi/arccosh y) dominates when the
    # period is huge and the translates are negligible
    lone = build_friedlander(2000.0)
    yl = np.argmin(np.abs(lone.y - 1.5))
    zl = np.argmin(np.abs(lone.z))
    assert lone.g[yl, zl] == pytest.approx((2 / PI) * math.atan(PI / c),
                                           abs=1e-5)
    # decay at large y
    yk = np.argmin(np.abs(fg.y - 4.4))
    assert abs(fg.g[yk, zi]) < abs(fg.g[yj, zi])


def test_grid_has_a_node_at_y_one(grid_4pi):
    """The y range contains [-1, 1] and the second branch's cusp at y = 1
    starts exactly at a node, which holds the continuous value of G."""
    y = grid_4pi.y
    assert y[0] < -1.0 and y[-1] > 1.0
    i1 = np.argmin(np.abs(y - 1.0))
    assert abs(y[i1] - 1.0) <= 1e-12
    zi = np.argmin(np.abs(grid_4pi.z))
    assert grid_4pi.g[i1, zi] == 1.0


def _brute_g_high(alpha, y, z):
    """Translate sum of the y > 1 branch, Richardson-extrapolated in K.

    The partial sums have a tail a/K + b/K^2 + ...; the first step on
    K = 2000/4000 leaves b/K^2 (up to 6e-8 here), the second, with
    K = 1000, removes it.
    """
    c = math.acosh(y)

    def brute(K):
        zp = z + alpha * np.arange(-K, K + 1)
        return np.sum(np.arctan((PI - zp) / c) + np.arctan((PI + zp) / c)) / PI

    b1, b2, b4 = brute(1000), brute(2000), brute(4000)
    return (4 * (2 * b4 - b2) - (2 * b2 - b1)) / 3


@pytest.mark.parametrize("alpha", [PI, 7.0, 4 * PI])
def test_g_high_matches_translate_sum(alpha):
    fg = build_friedlander(alpha)
    for y in (1.0025, 1.5, 2.5, 4.5):
        yi = np.argmin(np.abs(fg.y - y))
        for frac in (-0.5, -0.31, 0.0, 0.17, 0.5):
            zi = np.argmin(np.abs(fg.z - frac * alpha))
            oracle = _brute_g_high(alpha, fg.y[yi], fg.z[zi])
            assert fg.g[yi, zi] == pytest.approx(oracle, abs=1e-9)


def test_g_high_telescopes_at_2pi(grid_2pi):
    """At alpha = 2 pi the periodized y > 1 branch is the constant 1."""
    high = grid_2pi.g[grid_2pi.y > 1.0]
    assert np.max(np.abs(high - 1.0)) < 1e-13


def test_matches_4pi_closed_form(grid_4pi):
    rng = np.random.default_rng(42)
    count = 0
    while count < 20:
        r1, r2 = rng.uniform(0.5, 1.6, 2)
        dth = rng.uniform(0.1, 2 * PI - 0.1)
        t = rng.uniform(0.4, 3.0)
        y, z = friedlander_pullback(4 * PI, t, r1, r2, dth, 0.0)
        if abs(y + math.cos(z)) < 0.3 or abs(y - 1) < 0.3 or y > 4.2:
            continue
        q = KernelQuery(t, ConePoint(r1, dth), ConePoint(r2, 0.0))
        fv = sine_kernel_friedlander(grid_4pi, q).value
        cv = sine_kernel_4pi_closed(q).value
        if cv == 0.0:
            assert abs(fv) < 1e-4
        else:
            assert fv == pytest.approx(cv, rel=1e-2)
        count += 1


def test_matches_plane_kernel(grid_2pi):
    rng = np.random.default_rng(43)
    count = 0
    while count < 20:
        r1, r2 = rng.uniform(0.5, 1.6, 2)
        dth = rng.uniform(0.1, 2 * PI - 0.1)
        t = rng.uniform(0.4, 3.0)
        y, z = friedlander_pullback(2 * PI, t, r1, r2, dth, 0.0)
        if abs(y + math.cos(z)) < 0.3 or abs(y - 1) < 0.3 or y > 4.2:
            continue
        q = KernelQuery(t, ConePoint(r1, dth), ConePoint(r2, 0.0))
        fv = sine_kernel_friedlander(grid_2pi, q).value
        cv = plane_kernel_closed(t, cone_distance(2 * PI, q.q1, q.q2))
        if cv == 0.0:
            assert abs(fv) < 1e-4
        else:
            assert fv == pytest.approx(cv, rel=1e-2)
        count += 1


def _bicubic_of_half_derived_grid(fg):
    """Reference: half-derive every z column of G_alpha, pad three periodic
    columns each side and fit scipy's interpolating bicubic spline."""
    from scipy.interpolate import RectBivariateSpline

    ag = np.column_stack([GAMMA_HALF * l1_half_derivative(col, DY)
                          for col in fg.g.T])
    pad = 3
    z_ext = np.concatenate([fg.z[-1 - pad:-1] - fg.alpha, fg.z,
                            fg.z[1:1 + pad] + fg.alpha])
    ag_ext = np.concatenate([ag[:, -1 - pad:-1], ag, ag[:, 1:1 + pad]], axis=1)
    return RectBivariateSpline(fg.y, z_ext, ag_ext, kx=3, ky=3, s=0)


@pytest.mark.parametrize("alpha", [PI, 2 * PI, 3 * PI, 7.0, 4 * PI, 20.0])
def test_column_spline_equals_bicubic_of_half_derived_grid(alpha):
    """Half-deriving and splining one y column at the query's z gives the
    bicubic spline of the whole half-derived grid, seams included."""
    fg = build_friedlander(alpha)
    ref = _bicubic_of_half_derived_grid(fg)
    half = 0.5 * alpha
    zs = [-half, -(half - 1e-3), 0.0, half - 1e-3, half,
          *np.random.default_rng(7).uniform(-half, half, 10)]
    ys = np.linspace(-1.0, 4.5, 2001)
    for z in zs:
        got = _column_spline(fg, z)(ys)
        want = ref.ev(ys, np.full_like(ys, z))
        assert np.max(np.abs(got - want)) <= 1e-12, z


def test_column_cache_serves_only_its_angle():
    """Alternating two angles on one grid gives bit-identical values to a
    fresh grid for each angle."""
    alpha, t = 7.0, 1.7
    pair = ((ConePoint(1.1, 0.4), ConePoint(0.8, 0.0)),
            (ConePoint(0.9, 2.9), ConePoint(1.2, 0.0)))

    def value(fg, points):
        return sine_kernel_friedlander(fg, KernelQuery(t, *points)).value

    fresh = [value(build_friedlander(alpha), points) for points in pair]
    shared = build_friedlander(alpha)
    for _ in range(3):
        assert [value(shared, points) for points in pair] == fresh


def test_support_before_fronts(grid_4pi):
    q = KernelQuery(0.4, ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2))
    assert abs(sine_kernel_friedlander(grid_4pi, q).value) < 1e-6


def test_out_of_grid(grid_4pi):
    q = KernelQuery(20.0, ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2))
    with pytest.raises(OutOfGrid):
        sine_kernel_friedlander(grid_4pi, q)


def test_agrees_with_cheeger_series_general_angle():
    """Cross-representation agreement for generic cone angles."""
    h = 0.05
    rng = np.random.default_rng(1)
    for alpha in (PI, 3 * PI, 7.0):
        fg = build_friedlander(alpha)

        def friedlander_mollified(t, r1, r2, dth):
            def f(tau):
                if tau <= 0:
                    return 0.0
                try:
                    return sine_kernel_friedlander(
                        fg, KernelQuery(tau, ConePoint(r1, dth),
                                        ConePoint(r2, 0.0))).value
                except OutOfGrid:
                    return 0.0
            return gauss_hermite_mollify(f, t, h)

        count = 0
        while count < 3:
            r1, r2 = rng.uniform(0.6, 1.4, 2)
            dth = rng.uniform(0.1, alpha / 2 - 0.05)
            t = rng.uniform(0.5, 2.5)
            y, z = friedlander_pullback(alpha, t, r1, r2, dth, 0.0)
            if abs(y + math.cos(z)) < 0.35 or abs(y - 1) < 0.35 or y > 3.6:
                continue
            q = KernelQuery(t, ConePoint(r1, dth), ConePoint(r2, 0.0), h)
            ch = sine_kernel_cheeger_series(alpha, q).value
            if abs(ch) < 1e-4:
                continue
            fr = friedlander_mollified(t, r1, r2, dth)
            assert fr == pytest.approx(ch, rel=2e-2)
            count += 1
