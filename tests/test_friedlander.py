import math

import numpy as np
import pytest

from conewave.friedlander import (_dg_dc, friedlander_pullback,
                                  sine_kernel_friedlander)
from conewave.geometry import ConePoint, cone_distance
from conewave.kernels import (KernelQuery, cheeger_series_sweep,
                              gauss_hermite_mollify, plane_kernel_closed,
                              sine_kernel_4pi_closed)

PI = math.pi


def _brute_dg_dc(alpha, c, z):
    """dG/dc as the translate sum of -x_k / (c^2 + x_k^2) over x_k = pi -+ z
    + alpha k, |k| <= K, Richardson-extrapolated in K.

    The symmetric partial sums have a tail a/K + b/K^2 + ...; the first
    step on K = 2000/4000 leaves b/K^2, the second, with K = 1000, removes
    it.
    """
    def brute(K):
        k = alpha * np.arange(-K, K + 1)
        return sum(np.sum(-(x + k) / (c * c + (x + k) ** 2))
                   for x in (PI - z, PI + z)) / PI

    b1, b2, b4 = brute(1000), brute(2000), brute(4000)
    return (4 * (2 * b4 - b2) - (2 * b2 - b1)) / 3


@pytest.mark.parametrize("alpha", [PI, 7.0, 4 * PI])
def test_g_high_matches_translate_sum(alpha):
    """dG/dc of the periodized y > 1 branch against its translate sum."""
    cs = np.array([0.003, 0.07, 0.5, 1.3, 3.0])
    for frac in (-0.5, -0.31, 0.0, 0.17, 0.49):
        z = frac * alpha
        got = _dg_dc(alpha, cs, z)
        want = [_brute_dg_dc(alpha, c, z) for c in cs]
        # at pi dG/dc is 0; the extrapolated sum leaves about 4e-11
        assert got == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_g_high_telescopes_at_2pi():
    """At alpha = 2 pi the periodized y > 1 branch is the constant 1, so
    its c-derivative is 0, on the shadow boundary z = -pi as well."""
    cs = np.geomspace(1e-12, 10.0, 50)
    for z in (-PI, -PI + 1e-12, -2.0, 0.0, 0.7, PI - 1e-9):
        assert np.all(_dg_dc(2 * PI, cs, z) == 0.0)


def _sample(alpha, seed, closed_value):
    """Relative errors of the kernel against a closed form at 20 random
    points off the fronts, t up to 6 (pullback y up to about 70)."""
    rng = np.random.default_rng(seed)
    errs = []
    while len(errs) < 20:
        r1, r2 = rng.uniform(0.5, 1.6, 2)
        dth = rng.uniform(0.1, 2 * PI - 0.1)
        t = rng.uniform(0.4, 6.0)
        y, z = friedlander_pullback(alpha, t, r1, r2, dth, 0.0)
        if abs(y + math.cos(z)) < 0.3 or abs(y - 1) < 0.3:
            continue
        q = KernelQuery(t, ConePoint(r1, dth), ConePoint(r2, 0.0))
        fv = sine_kernel_friedlander(alpha, q).value
        cv = closed_value(q)
        errs.append(abs(fv - cv) / abs(cv) if cv != 0.0 else abs(fv))
    return max(errs)


def test_matches_4pi_closed_form():
    assert _sample(4 * PI, 42,
                   lambda q: sine_kernel_4pi_closed(q).value) < 1e-12


def test_matches_plane_kernel():
    assert _sample(2 * PI, 43, lambda q: plane_kernel_closed(
        q.t, cone_distance(2 * PI, q.q1, q.q2))) < 1e-12


def test_matches_4pi_closed_form_far_past_the_diffracted_front():
    """y = 20, far past the diffracted front at y = 1."""
    r1, r2 = 1.0, 0.8
    t = math.sqrt(20 * 2 * r1 * r2 + r1 * r1 + r2 * r2)
    for dth in (0.3, 2.0, PI, 4.5):
        q = KernelQuery(t, ConePoint(r1, dth), ConePoint(r2, 0.0))
        assert friedlander_pullback(4 * PI, t, r1, r2, dth, 0.0)[0] == \
            pytest.approx(20.0)
        assert sine_kernel_friedlander(4 * PI, q).value == pytest.approx(
            sine_kernel_4pi_closed(q).value, rel=1e-12)


def _shadow_values(alpha, t, r1=1.0, r2=0.8):
    """Kernel at theta1 - theta2 = pi -+ x on both sides of the shadow
    boundary, keyed by the signed offset."""
    out = {}
    for x in (1e-1, 1e-3, 1e-6, 1e-12, 0.0):
        for sign in (1, -1):
            q = KernelQuery(t, ConePoint(r1, PI - sign * x), ConePoint(r2, 0.0))
            out[sign * x] = (q, sine_kernel_friedlander(alpha, q).value)
    return out


@pytest.mark.parametrize("t", [1.2, 2.5])  # before, after the front at 1.8
def test_shadow_boundary_matches_closed_forms(t):
    closed = {
        4 * PI: lambda q: sine_kernel_4pi_closed(q).value,
        2 * PI: lambda q: plane_kernel_closed(
            q.t, cone_distance(2 * PI, q.q1, q.q2)),
    }
    for alpha, closed_value in closed.items():
        for q, value in _shadow_values(alpha, t).values():
            cv = closed_value(q)
            assert value == pytest.approx(cv, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("alpha", [3 * PI, 7.0])
@pytest.mark.parametrize("t", [1.2, 2.5])
def test_shadow_boundary_is_continuous(alpha, t):
    """The image that crosses |z_k| = pi is made up by the c integral: the
    half weight at x = 0 and the values at x = +-1e-12 agree."""
    values = {x: v for x, (_, v) in _shadow_values(alpha, t).items()}
    for x in (1e-12, -1e-12):
        assert values[x] == pytest.approx(values[0.0], rel=1e-12, abs=0.0)
    if t > 1.8:
        assert values[0.0] > 0.0


def test_support_before_fronts():
    q = KernelQuery(0.4, ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2))
    assert sine_kernel_friedlander(4 * PI, q).value == 0.0


def test_unbounded_work_is_invalid_input():
    """A pullback y that overflows, and a cone angle so small that the
    image sum would run over billions of images, are refused."""
    from conewave.errors import InvalidInput

    far = KernelQuery(1e200, ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2))
    near = KernelQuery(1.5, ConePoint(1.0, 0.0), ConePoint(1.0, 1e-10))
    for alpha, q in ((7.0, far), (1e-9, near)):
        with pytest.raises(InvalidInput):
            sine_kernel_friedlander(alpha, q)


def test_agrees_with_cheeger_series_general_angle():
    """Cross-representation agreement for generic cone angles: the
    Friedlander kernel mollified by Gauss-Hermite quadrature against one
    Cheeger mode-sum sweep, at times 0.35 or more in y from every front.
    With these radii that is 4.5 h or more in t, so the Gaussian tail
    reaching across a front stays below the tolerance (the worst is 2.4e-7,
    at 3 pi)."""
    h = 0.05
    r1, r2, dth = 1.4, 1.2, 1.0
    ts = np.linspace(0.3, 3.2, 50)
    ys = (ts**2 - r1**2 - r2**2) / (2 * r1 * r2)
    for alpha in (PI, 3 * PI, 7.0):
        images = dth + alpha * np.arange(-3, 4)
        fronts = [1.0, *(-np.cos(images[np.abs(images) < PI]))]
        far = np.min(np.abs(ys[:, None] - np.array(fronts)), axis=1) >= 0.35
        t_far = ts[far]
        assert t_far.size >= 10
        ch = cheeger_series_sweep(alpha, t_far, r1, r2, dth, h)
        q1, q2 = ConePoint(r1, dth), ConePoint(r2, 0.0)

        def pointwise(tau):
            if tau <= 0:
                return 0.0
            return sine_kernel_friedlander(alpha, KernelQuery(tau, q1, q2)).value

        fr = [gauss_hermite_mollify(pointwise, t, h) for t in t_far]
        big = np.abs(ch) >= 1e-4
        assert np.sum(big) >= 8
        assert np.asarray(fr)[big] == pytest.approx(ch[big], rel=1e-6)
