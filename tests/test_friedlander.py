import math

import numpy as np
import pytest

from conewave.diffraction import scattering_matrix
from conewave.friedlander import (PANEL_NODES, PANEL_RATIO, _angle_terms,
                                   _diffracted_integral, friedlander_pullback,
                                   sine_kernel_friedlander)
from conewave.geometry import ConePoint, angular_separation
from conewave.kernels import (KernelQuery, cheeger_series_sweep,
                              gauss_hermite_mollify, sine_kernel_closed)
from conewave.special import gauss_legendre

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
    """dG/dc of the periodized y > 1 branch, the kernel's weight 2 Re
    S_alpha(z - i c), against its translate sum."""
    cs = np.array([0.003, 0.07, 0.5, 1.3, 3.0])
    for frac in (-0.5, -0.31, 0.0, 0.17, 0.49):
        z = frac * alpha
        got = 2 * scattering_matrix(alpha, z, cs)
        want = [_brute_dg_dc(alpha, c, z) for c in cs]
        # at pi dG/dc is 0; the extrapolated sum leaves about 4e-11
        assert got == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_g_high_telescopes_at_2pi():
    """At alpha = 2 pi the periodized y > 1 branch is the constant 1, so
    its c-derivative is 0, on the shadow boundary z = -pi as well."""
    cs = np.geomspace(1e-12, 10.0, 50)
    for z in (-PI, -PI + 1e-12, -2.0, 0.0, 0.7, PI - 1e-9):
        assert np.all(scattering_matrix(2 * PI, z, cs) == 0.0)


def _reference_integral(alpha, y, z):
    """The c integral of `_diffracted_integral` on its panels, with dG/dc
    = 2 `scattering_matrix`(alpha, z, c) taken whole at every call."""
    big_c = math.acosh(y)
    shadow = min((x for x in (angular_separation(alpha, z, PI),
                              angular_separation(alpha, z, -PI)) if x != 0.0),
                 default=math.inf)
    n_graded, edge = 0, 0.5 * big_c
    while edge > shadow:
        n_graded, edge = n_graded + 1, edge / PANEL_RATIO
    frac = np.array([0.0, *(0.5 / PANEL_RATIO ** np.arange(n_graded, -1, -1)),
                     1.0])
    v, w = gauss_legendre(frac / (1.0 + np.sqrt(1.0 - frac)), PANEL_NODES)
    c = big_c * v * (2.0 - v)
    root = np.sqrt(np.sinh(0.5 * (big_c + c))
                   * np.sinh(0.5 * big_c * (1.0 - v) ** 2))
    dg_dc = 2.0 * scattering_matrix(alpha, z, c)
    return math.sqrt(2.0) * big_c * np.sum(w * (1.0 - v) * dg_dc / root)


def test_cached_angle_terms_give_each_query_its_own_value():
    """The c integral takes its angle terms from a cache keyed by (alpha,
    z).  One z at two cone angles in turn, a shadow boundary and a point
    near one, then more pairs than the cache holds and the first pairs
    again after they were evicted: each integral is the reference's to
    1e-15 of the peak."""
    size = _angle_terms.cache_info().maxsize
    pairs = [(3 * PI, 1.3), (7.0, 1.3)] * 3
    pairs += [(3 * PI, PI), (3 * PI, PI - 1e-7), (7.0, -PI + 1e-7)]
    pairs += [(3 * PI + 0.01 * k, 0.05 * k - 2.0) for k in range(size + 8)]
    pairs += pairs[:2]
    ys = np.linspace(1.02, 4.0, 7)
    _angle_terms.cache_clear()
    for alpha, z in pairs:
        got = np.array([_diffracted_integral(alpha, y, z) for y in ys])
        want = np.array([_reference_integral(alpha, y, z) for y in ys])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), \
            (alpha, z)
    info = _angle_terms.cache_info()
    assert info.currsize == size
    assert info.hits == len(pairs) * ys.size - len(set(pairs)) - 2


def test_pullback_angle_is_exact_at_huge_cone_angles():
    """z = theta1 - theta2 reduced by the IEEE remainder, which is exact: at
    alpha = 1e70 an angle difference of -1 stays -1, where a shift by alpha
    and back rounds it to 0."""
    assert friedlander_pullback(1e70, 3.0, 1.0, 1.0, 0.0, 1.0)[1] == -1.0
    assert friedlander_pullback(1e70, 3.0, 1.0, 1.0, 0.0, 1e-30)[1] == -1e-30


def test_kernel_is_the_same_at_any_huge_cone_angle():
    """Past the diffracted front the weight 2 Re S_alpha(z - i c) is
    computed at any alpha, so the kernel at (t, r1, r2, dtheta) = (2.5, 1,
    1, 1) is one value from alpha = 1e13 to 1e300 (it raised past 1e77)."""
    q = KernelQuery(2.5, ConePoint(1.0, 1.0), ConePoint(1.0, 0.0))
    values = [sine_kernel_friedlander(alpha, q).value
              for alpha in (1e13, 1e100, 1e300)]
    assert values == pytest.approx([0.024770737052004884] * 3, rel=1e-14,
                                   abs=0)


def _sample(alpha, seed):
    """Relative errors of the kernel against the closed form at 20 random
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
        cv = sine_kernel_closed(alpha, t, r1, r2, dth)
        errs.append(abs(fv - cv) / abs(cv) if cv != 0.0 else abs(fv))
    return max(errs)


def test_matches_4pi_closed_form():
    assert _sample(4 * PI, 42) < 1e-12


def test_matches_plane_kernel():
    assert _sample(2 * PI, 43) < 1e-12


def test_matches_4pi_closed_form_far_past_the_diffracted_front():
    """y = 20, far past the diffracted front at y = 1."""
    r1, r2 = 1.0, 0.8
    t = math.sqrt(20 * 2 * r1 * r2 + r1 * r1 + r2 * r2)
    for dth in (0.3, 2.0, PI, 4.5):
        q = KernelQuery(t, ConePoint(r1, dth), ConePoint(r2, 0.0))
        assert friedlander_pullback(4 * PI, t, r1, r2, dth, 0.0)[0] == \
            pytest.approx(20.0)
        assert sine_kernel_friedlander(4 * PI, q).value == pytest.approx(
            sine_kernel_closed(4 * PI, t, r1, r2, dth), rel=1e-12)


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
    for alpha in (4 * PI, 2 * PI):
        for q, value in _shadow_values(alpha, t).values():
            cv = sine_kernel_closed(alpha, t, q.q1.r, q.q2.r,
                                    q.q1.theta - q.q2.theta)
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
    image sum would run over billions of images, are refused; so is an
    angle difference that overflows, which the pullback alone checks."""
    from conewave.errors import InvalidInput

    far = KernelQuery(1e200, ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2))
    near = KernelQuery(1.5, ConePoint(1.0, 0.0), ConePoint(1.0, 1e-10))
    wide = KernelQuery(1.0, ConePoint(1.0, 1e308), ConePoint(1.0, -1e308))
    for alpha, q in ((7.0, far), (1e-9, near), (7.0, wide)):
        with pytest.raises(InvalidInput):
            sine_kernel_friedlander(alpha, q)
    with pytest.raises(InvalidInput, match="not finite"):
        friedlander_pullback(7.0, 1.0, 1.0, 1.0, 1e308, -1e308)


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
