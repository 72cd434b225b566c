import math
import re
import warnings

import numpy as np
import pytest

from conewave.errors import InvalidInput, QuadratureFailure
from conewave.friedlander import sine_kernel_friedlander
from conewave.geometry import ConePoint, cone_distance
from conewave.kernels import (AFTER_DIFFRACTED, BEFORE_DIRECT, BETWEEN_FRONTS,
                              FRONT_TOL, NEAR_FRONT, KernelQuery,
                              cheeger_series_sweep, front_region,
                              halfwave_series_sweep,
                              sine_kernel_cheeger_series, sine_kernel_closed,
                              sine_kernel_closed_mollified,
                              sine_kernel_moving_point, spherical_wave_l,
                              upsilon0)
from conewave.special import Mollifier

PI = math.pi


def test_closed_form_regions():
    assert sine_kernel_closed(4 * PI, 0.9, 1.0, 1.0, -PI / 2) == 0.0
    between = sine_kernel_closed(4 * PI, 1.6, 1.0, 1.0, -PI / 2)
    assert between == pytest.approx(1 / (2 * PI * math.sqrt(0.56)), abs=1e-14)
    after = sine_kernel_closed(4 * PI, 3.0, 1.0, 1.0, -PI / 2)
    assert after == pytest.approx(1 / (4 * PI * math.sqrt(7.0)), abs=1e-14)
    assert front_region(4 * PI, [0.9, 1.6, 3.0], 1.0, 1.0, -PI / 2).tolist() \
        == [BEFORE_DIRECT, BETWEEN_FRONTS, AFTER_DIFFRACTED]
    with pytest.raises(InvalidInput, match="sits on a front"):
        sine_kernel_closed(4 * PI, 2.0, 1.0, 1.0, -PI / 2)


GEOMETRIES = [(0.9, 1.3, 0.4), (0.9, 1.3, 2.0), (0.9, 1.3, PI),
              (0.9, 1.3, 4.0), (1.1, 1.1, 0.0)]


@pytest.mark.parametrize("r1, r2, dtheta", GEOMETRIES)
@pytest.mark.parametrize("alpha", [2 * PI, 4 * PI])
def test_closed_forms_take_arrays(alpha, r1, r2, dtheta):
    """A sweep of either closed form equals its scalar calls: the exact one
    bit for bit, the mollified one (kernel and time derivative) within
    1e-15 of the peak."""
    ts = np.linspace(0.05, 4.0, 61)
    exact = sine_kernel_closed(alpha, ts, r1, r2, dtheta)
    assert np.array_equal(
        exact, [sine_kernel_closed(alpha, t, r1, r2, dtheta) for t in ts])
    assert isinstance(sine_kernel_closed(alpha, 3.0, r1, r2, dtheta), float)
    for tderiv in (0, 1):
        swept = sine_kernel_closed_mollified(alpha, ts, r1, r2, dtheta, 0.05,
                                             tderiv)
        single = [sine_kernel_closed_mollified(alpha, t, r1, r2, dtheta, 0.05,
                                               tderiv) for t in ts]
        assert np.max(np.abs(swept - single)) <= 1e-15 * np.max(np.abs(swept))


@pytest.mark.parametrize("r1, r2, dtheta", GEOMETRIES[:4])
def test_closed_form_is_on_front_where_front_region_says(r1, r2, dtheta):
    """At 4 pi the closed form raises InvalidInput, naming the first such t,
    exactly where `front_region` says near_front: within FRONT_TOL (r1 +
    r2) of the direct or the diffracted front.  At 2 pi only the direct
    front is one, so t = r1 + r2 has a value (off theta1 - theta2 = pi,
    where the two fronts meet)."""
    q1, q2 = ConePoint(r1, dtheta), ConePoint(r2, 0.0)
    tol = FRONT_TOL * (r1 + r2)
    for front in (cone_distance(4 * PI, q1, q2), r1 + r2):
        ts = [front + k * tol for k in (-2.0, -0.5, 0.5, 2.0)]
        labels = front_region(4 * PI, ts, r1, r2, dtheta)
        for k, t, label in zip((-2.0, -0.5, 0.5, 2.0), ts, labels):
            near = label == NEAR_FRONT
            assert near == (abs(k) < 1.0)
            if near:
                with pytest.raises(InvalidInput, match=re.escape(
                        f"t = {t} sits on a front")):
                    sine_kernel_closed(4 * PI, [0.01, t, front], r1, r2,
                                       dtheta)
            else:
                assert math.isfinite(sine_kernel_closed(4 * PI, t, r1, r2,
                                                        dtheta))
    if dtheta != PI:
        plane = sine_kernel_closed(2 * PI, r1 + r2, r1, r2, dtheta)
        assert 0.0 < plane < math.inf


def _image_fronts(alpha, r1, r2, dtheta):
    """The direct front of every image dtheta + alpha k within pi of 0."""
    z = math.remainder(dtheta, alpha)
    k_max = int(2.0 * PI / alpha) + 1
    return [math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(zk))
            for zk in (z + alpha * k for k in range(-k_max, k_max + 1))
            if abs(zk) <= PI]


def _pointwise_front_rule(alpha, t, r1, r2, dtheta, h):
    """The label rule of `front_region` applied to one time, one image at a
    time."""
    direct = cone_distance(alpha, ConePoint(r1, dtheta), ConePoint(r2, 0.0))
    diffracted = r1 + r2
    tol = 10.0 * h if h > 0 else FRONT_TOL * diffracted
    fronts = (direct, diffracted, *_image_fronts(alpha, r1, r2, dtheta))
    if any(front - tol <= t <= front + tol for front in fronts):
        return NEAR_FRONT
    if t < direct:
        return BEFORE_DIRECT
    return BETWEEN_FRONTS if t < diffracted else AFTER_DIFFRACTED


def test_front_region_labels_a_sweep_by_the_pointwise_rule():
    """One call labels each time of a sweep as the pointwise rule does: on
    random sweeps at eight cone angles, exact (h = 0) and mollified, with
    the times +-0.5 and +-2 tolerances off each front among them, and at
    dtheta = pi, where the direct front can round an ulp past r1 + r2."""
    rng = np.random.default_rng(26)
    seen = set()
    for i in range(300):
        alpha = float(rng.choice([0.7, 2.0, PI, 2 * PI, 3 * PI, 7.0, 4 * PI,
                                  20.0]))
        r1, r2 = (float(r) for r in rng.uniform(0.1, 2.0, 2))
        dtheta = PI if i % 10 == 0 else float(rng.uniform(-10.0, 10.0))
        h = 0.0 if i % 2 else float(rng.uniform(0.01, 0.1))
        direct = cone_distance(alpha, ConePoint(r1, dtheta), ConePoint(r2, 0.0))
        fronts = (direct, r1 + r2, *_image_fronts(alpha, r1, r2, dtheta))
        tol = 10.0 * h if h > 0 else FRONT_TOL * (r1 + r2)
        ts = [*rng.uniform(0.01, 3.0 * (r1 + r2), 20).tolist(),
              *(front + k * tol for front in fronts
                for k in (-2.0, -0.5, 0.5, 2.0))]
        labels = front_region(alpha, ts, r1, r2, dtheta, h).tolist()
        assert labels == [_pointwise_front_rule(alpha, t, r1, r2, dtheta, h)
                          for t in ts], i
        seen.update(labels)
    assert seen == {BEFORE_DIRECT, BETWEEN_FRONTS, AFTER_DIFFRACTED, NEAR_FRONT}


def test_front_region_names_every_direct_front():
    """At alpha = 2 the images 0.3 -+ 2 of dtheta = 0.3 are within pi, and
    their direct fronts, 2 sin(0.85) and 2 sin(1.15) for r1 = r2 = 1, are
    fronts as the nearest one is; halfway between two fronts is not."""
    fronts = [2.0 * math.sin(0.85), 2.0 * math.sin(1.15)]
    assert fronts == pytest.approx([1.5025608102805854, 1.825527880521042],
                                   rel=1e-15)
    labels = front_region(2.0, fronts + [1.66], 1.0, 1.0, 0.3, 0.01)
    assert labels.tolist() == [NEAR_FRONT, NEAR_FRONT, BETWEEN_FRONTS]


@pytest.mark.parametrize("alpha", [1e-8, 5e-324])
def test_front_region_at_a_dense_image_lattice(alpha):
    """At a tiny cone angle the image fronts fill [|r1 - r2|, r1 + r2]; the
    labels come from the lattice, not from an array per image: every time
    there is near a front at h = 0.01, and before it is before_direct (no
    time is on a band's edge, 0.4 or 1.6)."""
    ts = np.arange(0.1, 2.0, 0.05) + 0.0125
    labels = front_region(alpha, ts, 1.0, 0.5, 0.3, 0.01)
    want = np.where(ts < 0.5 - 0.1, BEFORE_DIRECT,
                    np.where(ts <= 1.5 + 0.1, NEAR_FRONT, AFTER_DIFFRACTED))
    assert labels.tolist() == want.tolist()


def test_moving_point_equals_closed_form():
    """The moving-vertex sum equals the closed form, at least 40 times in
    each of the three regions that `front_region` names off the fronts."""
    rng = np.random.default_rng(0)
    checked = {"before_direct": 0, "between_fronts": 0, "after_diffracted": 0}
    while min(checked.values()) < 40:
        r1, r2 = rng.uniform(0.4, 2.0, 2)
        dth = rng.uniform(0.05, 2 * PI - 0.05)
        q1, q2 = ConePoint(r1, 0.0), ConePoint(r2, dth)
        dist = cone_distance(4 * PI, q1, q2)
        t = rng.uniform(0.3, 2.0) * (r1 + r2)
        if min(abs(t - dist), abs(t - r1 - r2)) < 1e-4 or t <= 0.05:
            continue
        closed = sine_kernel_closed(4 * PI, t, r1, r2, -dth)
        moving = sine_kernel_moving_point(KernelQuery(t, q1, q2)).value
        if closed == 0.0:
            assert abs(moving) < 1e-14
        else:
            assert moving == pytest.approx(closed, rel=1e-10)
        region = str(front_region(4 * PI, t, r1, r2, -dth)[0])
        if region in checked:
            checked[region] += 1


def test_moving_point_root_count_branches():
    q1, q2 = ConePoint(1.0, 0.0), ConePoint(1.0, 5 * PI / 4)
    # separation > pi and t < r1 + r2: no roots, kernel zero
    assert sine_kernel_moving_point(KernelQuery(1.9, q1, q2)).value == 0.0
    # 2-root case equals the between-fronts formula exactly
    qb = KernelQuery(1.6, ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2))
    assert sine_kernel_moving_point(qb).value == pytest.approx(
        1 / (2 * PI * math.sqrt(0.56)), rel=1e-12)
    # 1-root case equals the after-diffracted formula exactly
    qa = KernelQuery(3.0, ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2))
    assert sine_kernel_moving_point(qa).value == pytest.approx(
        1 / (4 * PI * math.sqrt(7.0)), rel=1e-12)


def test_moving_point_is_scale_free():
    """The kernel is homogeneous of degree -1 in (t, r1, r2); the
    moving-vertex sum, Friedlander's kernel and the closed form keep that
    from lengths of 1e-300 to 1e300, each compared with the closed form at
    the same scale (unscaled, r1(s) r2(s) underflows below about 1e-162, and
    t^2 overflows past 1e154; Friedlander's pullback read 8e-5 high at
    1e-160 and was refused past it).  So does the mollified closed form
    (h scaled too), and its time derivative, of degree -2, where that is a
    double: unscaled, it read 0 at 1e160 and 2% low at 1e-160.  So do the
    labels, taken at the lengths over a power of two near r1 + r2.
    Unscaled, the squared distance would underflow below about 1e-162 (a t
    before the direct front would read between_fronts) and overflow past
    1e154."""
    for t, region in ((0.5, BEFORE_DIRECT), (1.6, BETWEEN_FRONTS),
                      (3.0, AFTER_DIFFRACTED)):
        unit = sine_kernel_closed(4 * PI, t, 1.0, 0.8, -1.5)
        unit_mollified = [sine_kernel_closed_mollified(
            4 * PI, t, 1.0, 0.8, -1.5, 0.05, tderiv) for tderiv in (0, 1)]
        for s in (1e-300, 1e-170, 1e-100, 1e-30, 1e60, 1e140, 1e170, 1e300):
            q = KernelQuery(s * t, ConePoint(s, 0.0), ConePoint(0.8 * s, 1.5))
            closed = sine_kernel_closed(4 * PI, s * t, s, 0.8 * s, -1.5)
            moving = sine_kernel_moving_point(q).value
            friedlander = sine_kernel_friedlander(4 * PI, q).value
            assert s * closed == pytest.approx(unit, rel=1e-14)
            assert moving == pytest.approx(closed, rel=1e-14)
            assert friedlander == pytest.approx(closed, rel=1e-14)
            mollified = sine_kernel_closed_mollified(
                4 * PI, s * t, s, 0.8 * s, -1.5, 0.05 * s)
            assert s * mollified == pytest.approx(unit_mollified[0], rel=1e-14)
            if 1e-150 < s < 1e150:  # else s^-2 leaves the range of a double
                deriv = sine_kernel_closed_mollified(
                    4 * PI, s * t, s, 0.8 * s, -1.5, 0.05 * s, tderiv=1)
                assert s * (s * deriv) == pytest.approx(unit_mollified[1],
                                                        rel=1e-14)
            assert front_region(4 * PI, s * t, s, 0.8 * s,
                                -1.5).tolist() == [region]
    # radii at which an unscaled direct front rounds to 0
    assert front_region(4 * PI, [0.5e-170], 1e-170, 1e-170,
                        1.0).tolist() == [BEFORE_DIRECT]
    assert sine_kernel_closed(4 * PI, 0.5e-170, 1e-170, 1e-170, 1.0) == 0.0
    # a length past 2^1023, whose power of two above it is not a double
    q = KernelQuery(1.5e308, ConePoint(1.0, 0.0), ConePoint(0.8, 1.5))
    assert sine_kernel_moving_point(q).value == pytest.approx(
        1.0 / (4.0 * PI * 1.5e308), rel=1e-14)


TINY = 1e-310
TINY_QUERY = KernelQuery(3.0 * TINY, ConePoint(TINY, 0.0), ConePoint(TINY, 1.0))


@pytest.mark.parametrize("call", [
    lambda: sine_kernel_closed(4 * PI, [2.5 * TINY, 3.5 * TINY], TINY, TINY,
                               -1.0),
    lambda: sine_kernel_closed_mollified(4 * PI, 3.0 * TINY, TINY, TINY, -1.0,
                                         0.05 * TINY),
    lambda: sine_kernel_closed_mollified(4 * PI, 3e-160, 1e-160, 1e-160, -1.0,
                                         5e-162, tderiv=1),
    lambda: sine_kernel_moving_point(TINY_QUERY),
    lambda: sine_kernel_friedlander(4 * PI, TINY_QUERY),
], ids=["closed", "mollified", "mollified-tderiv", "moving", "friedlander"])
def test_kernel_value_outside_double_range_is_refused(call):
    """At lengths s = 1e-310 the exact kernels, about 1 / (4 pi s), exceed
    the largest double, and so does the time derivative of the mollified
    closed form, about 1 / s^2, at s = 1e-160: each raises InvalidInput
    without an overflow warning, where it returned inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="double range"):
            call()


def test_cheeger_series_against_mollified_closed_forms():
    h = 0.05
    q = KernelQuery(3.0, ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2))
    got4 = sine_kernel_cheeger_series(4 * PI, q, h).value
    ref4 = sine_kernel_closed_mollified(4 * PI, 3.0, 1.0, 1.0, PI / 2, h)
    assert got4 == pytest.approx(ref4, rel=1e-3)
    got2 = sine_kernel_cheeger_series(2 * PI, q, h).value
    ref2 = sine_kernel_closed_mollified(2 * PI, 3.0, 1.0, 1.0, PI / 2, h)
    assert got2 == pytest.approx(ref2, rel=1e-3)
    qb = KernelQuery(1.6, ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2))
    gotb = sine_kernel_cheeger_series(4 * PI, qb, h).value
    refb = sine_kernel_closed_mollified(4 * PI, 1.6, 1.0, 1.0, PI / 2, h)
    assert gotb == pytest.approx(refb, rel=1e-3)


@pytest.mark.parametrize("alpha, dtheta", [(2 * PI, 0.3), (4 * PI, 2.0)])
def test_long_cheeger_sweep_against_mollified_closed_forms(alpha, dtheta):
    """A 400-time sweep across every front, within 1e-12 of the peak of the
    mollified closed form (3.3e-15 measured)."""
    ts = np.linspace(0.1, 10.0, 400)
    got = cheeger_series_sweep(alpha, ts, 1.0, 0.8, dtheta, 0.05)
    want = sine_kernel_closed_mollified(alpha, ts, 1.0, 0.8, dtheta, 0.05)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("sweep", [cheeger_series_sweep, halfwave_series_sweep])
def test_mode_sums_contract_the_modes_before_the_times(sweep, monkeypatch):
    """631 modes by 2000 times exceed a budget of 2^20 elements, which the
    Bessel table (631 x 768) and the phase block (384 x 2000) fit: the
    modes are summed into the density before the time transform, so the
    sweep runs, and it agrees at its every 111th time with a 20-time sweep
    of the same lambda rule (its last time is the same) within 1e-14 of the
    peak."""
    from conewave import geometry

    ts = np.linspace(0.01, 2.0, 2000)
    picked = [*range(0, ts.size, 111), ts.size - 1]
    want = sweep(100.0, ts[picked], 0.05, 0.05, 0.3, 0.05)
    monkeypatch.setattr(geometry, "MAX_ARRAY_ELEMENTS", 2**20)
    got = sweep(100.0, ts, 0.05, 0.05, 0.3, 0.05)[picked]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_cheeger_series_small_time_vanishes():
    q = KernelQuery(0.05, ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2))
    assert abs(sine_kernel_cheeger_series(4 * PI, q, 0.05).value) < 1e-8
    assert front_region(4 * PI, 0.05, 1.0, 1.0, -PI / 2,
                        0.05).tolist() == [BEFORE_DIRECT]


def test_cheeger_series_symmetry():
    h = 0.05
    qa = KernelQuery(1.7, ConePoint(0.8, 0.3), ConePoint(1.3, 2.1))
    qb = KernelQuery(1.7, ConePoint(1.3, 2.1), ConePoint(0.8, 0.3))
    va = sine_kernel_cheeger_series(4 * PI, qa, h).value
    vb = sine_kernel_cheeger_series(4 * PI, qb, h).value
    assert va == pytest.approx(vb, abs=1e-10)


def test_cheeger_sweep_reduces_the_angle():
    """Every representative of theta1 - theta2 gives the same sweep: the
    IEEE remainder is exact, and the mode weights are even.  A non-finite
    angle is bad input."""
    base = cheeger_series_sweep(7.0, [2.0], 1.0, 1.2, 1.25, 0.1)
    for dth in (-1.25, 1.25 + 7.0, 1.25 - 3e3 * 7.0):  # all exact doubles
        assert np.array_equal(
            cheeger_series_sweep(7.0, [2.0], 1.0, 1.2, dth, 0.1), base)
    for dth in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidInput, match="not finite"):
            cheeger_series_sweep(7.0, [1.0], 1.0, 1.0, dth, 0.05)


def test_closed_mollified_reduces_the_angle():
    for alpha in (2 * PI, 4 * PI):
        base = sine_kernel_closed_mollified(alpha, 1.8, 0.9, 1.1, 1.3, 0.05)
        for dth in (-1.3, 1.3 + alpha, -1.3 - 5 * alpha):
            assert sine_kernel_closed_mollified(
                alpha, 1.8, 0.9, 1.1, dth, 0.05) == pytest.approx(base,
                                                                  rel=1e-12)


def test_cheeger_mode_tail_guard(monkeypatch):
    """A sum cut after mode 8 is refused, not returned truncated."""
    from conewave import kernels

    monkeypatch.setattr(kernels, "_mode_cut", lambda alpha, x_max: 8)
    q = KernelQuery(3.0, ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2))
    with pytest.raises(QuadratureFailure, match="last modes"):
        sine_kernel_cheeger_series(4 * PI, q, 0.05)


def test_masked_bessel_zeroes_only_negligible_factors():
    """`_masked_bessel` agrees with scipy's jv within 3e-14 absolute (jv is
    itself up to 2.7e-14 off mpmath near nu = x; the table measured
    1.1e-14 from jv here), and zeroes only factors |J_nu(x)| <= 1e-17
    (nu <= 400).  J_nu grows with x below x = nu, so the largest zeroed
    factor of each order sits just below its threshold x = nu - 9 nu^(1/3)
    - 14 (measured 1.3e-18, at nu = 400)."""
    import scipy.special

    from conewave.kernels import _masked_bessel

    nu, x = np.arange(0.0, 401.0, 2.0), np.arange(0.0, 421.0, 2.0)
    got = _masked_bessel(nu, x)
    full = scipy.special.jv(nu[:, None], x[None, :])
    kept = got != 0.0
    assert np.max(np.abs(got[kept] - full[kept])) <= 3e-14
    assert np.max(np.abs(full[~kept])) <= 1e-17

    nu = np.linspace(0.0, 400.0, 40001)
    thresh = nu - 9.0 * np.cbrt(np.maximum(nu, 1.0)) - 14.0
    below = np.nextafter(thresh[thresh > 0], -np.inf)
    assert np.max(np.abs(scipy.special.jv(nu[thresh > 0], below))) <= 1e-17


def test_masked_bessel_identities():
    """Two identities that need no reference implementation, each tighter
    than jv: the half-integer closed forms of J_{1/2}, J_{3/2} and J_{5/2}
    in the 4 pi table (measured 1.7e-15), and Neumann's sum J_0^2 + 2 sum_n
    J_n^2 = 1 over the 2 pi table (measured 2.3e-15).  Each table holds
    every mode up to `_mode_cut`, as a mode sum's does."""
    from conewave.kernels import _masked_bessel, _mode_cut

    x = np.linspace(0.5, 400.0, 3001)
    nu = np.arange(math.ceil(_mode_cut(4 * PI, x[-1])) + 1) / 2.0
    table = _masked_bessel(nu, x)
    root = np.sqrt(2.0 / (PI * x))
    sin, cos = np.sin(x), np.cos(x)
    closed = [root * sin, root * (sin / x - cos),
              root * ((3.0 / x**2 - 1.0) * sin - 3.0 * cos / x)]
    for k, form in enumerate(closed):
        assert np.max(np.abs(table[2 * k + 1] - form)) <= 3e-15, k

    x = np.linspace(1e-3, 400.0, 3001)
    nu = np.arange(math.ceil(_mode_cut(2 * PI, x[-1])) + 1.0)
    table = _masked_bessel(nu, x)
    neumann = table[0] ** 2 + 2.0 * np.sum(table[1:] ** 2, axis=0)
    assert np.max(np.abs(neumann - 1.0)) <= 1e-14


def test_masked_bessel_at_tiny_arguments():
    """Below x = 1e-30 the table is the power law (x/2)^nu / Gamma(nu + 1)
    to double precision, down to subnormal x and x = 0, where J_0 = 1 and
    every other order vanishes; no warning is raised."""
    from conewave.kernels import _masked_bessel

    nu = np.array([0.0, 1e-4, 6e-3, 0.2, 0.5, 1.0, 2.5, 7.3, 30.0])
    x = np.array([0.0, 5e-324, 1e-310, 1e-300, 1e-100, 1e-31, 1e-30])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _masked_bessel(nu, x)
    lead = np.empty_like(table)
    lead[:, 0] = nu == 0.0
    lead[:, 1:] = np.exp(nu[:, None] * (np.log(x[1:]) - math.log(2.0))
                         - np.array([math.lgamma(n + 1.0) for n in nu])[:, None])
    assert np.max(np.abs(table - lead)) <= 3e-15


def test_modes_past_the_cut_are_negligible():
    """Every mode the sum leaves out, nu > 2 pi _mode_cut(alpha, x_max) /
    alpha, has |J_nu(x)| <= 1e-16 for x <= x_max <= 400.  J_nu(x) falls
    with nu and grows with x below x = nu, so the first mode past the cut
    at x = x_max bounds them (measured 5.0e-17, at alpha = 20).  Those
    modes are not all masked by `_masked_bessel`: the cut keeps a smaller
    margin than the mask."""
    import scipy.special

    from conewave.kernels import _mode_cut

    x_max = np.linspace(0.01, 400.0, 4000)
    for alpha in (PI, 2 * PI, 3 * PI, 7.0, 4 * PI, 20.0):
        first = np.ceil([_mode_cut(alpha, x) for x in x_max]) + 1
        nu = 2 * PI * first / alpha
        assert np.all(nu > x_max)
        assert np.max(np.abs(scipy.special.jv(nu, x_max))) <= 1e-16


@pytest.mark.parametrize("ts", [[], np.empty(0), np.empty((0, 3))])
def test_cheeger_sweep_refuses_empty_times(ts):
    """An empty sweep is bad input, not numpy's empty-reduction error."""
    with pytest.raises(InvalidInput, match="at least one time"):
        cheeger_series_sweep(4 * PI, ts, 0.5, 0.5, 0.0, 0.05)


MOLLIFIED = [cheeger_series_sweep, halfwave_series_sweep,
             sine_kernel_closed_mollified]


def _sweep_call(sweep, ts, r1, r2, h=0.05):
    """One call of a sweep at a cone angle where it exists."""
    if sweep is sine_kernel_closed:
        return sweep(4 * PI, ts, r1, r2, 0.3)
    alpha = 4 * PI if sweep is sine_kernel_closed_mollified else 7.0
    return sweep(alpha, ts, r1, r2, 0.3, h)


@pytest.mark.parametrize("sweep", MOLLIFIED + [front_region])
@pytest.mark.parametrize("h, r1, r2", [(math.inf, 1.0, 0.5), (math.nan, 1.0, 0.5),
                                       (0.3, -1.0, 0.5), (0.3, 1.0, math.inf),
                                       (-1.0, 1.0, 0.5)])
def test_mode_sums_refuse_a_bad_width_or_radius(sweep, h, r1, r2):
    """The mode sums and the mollified closed form take h, r1 and r2
    themselves and refuse them unless positive and finite, where h = inf
    gave the mode sums NaN with a RuntimeWarning, and r1 = -1 a silent NaN
    (0.0 from the closed form), and r2 = inf the closed form NaN.
    `front_region` refuses an h that is not finite and >= 0 (h = 0 labels
    an exact kernel), where h = nan or -1 gave the exact band and h = inf
    labelled every time near_front."""
    with pytest.raises(InvalidInput, match="positive|finite"):
        _sweep_call(sweep, [1.0], r1, r2, h)


BAD_TIME_OR_SUM = [(math.inf, 1.0, 0.5), (-math.inf, 1.0, 0.5),
                   (math.nan, 1.0, 0.5), (1.0, 1e308, 1e308)]


@pytest.mark.parametrize("sweep, t, r1, r2", [
    *((sweep, *case) for sweep in MOLLIFIED + [sine_kernel_closed, front_region]
      for case in BAD_TIME_OR_SUM),
    (sine_kernel_closed, 1.0, -1.0, 0.5), (sine_kernel_closed, 1.0, 1.0, math.inf)])
def test_sweeps_refuse_a_bad_time_or_radius(sweep, t, r1, r2):
    """All four sweeps and `front_region` share one check on their times
    and radii: a time that is not finite (the mollified closed form gave
    0.0 at t = inf), or radii that are not positive with a finite sum (the
    exact closed form, which takes no width, is checked on both radii
    here)."""
    with pytest.raises(InvalidInput, match="finite"):
        _sweep_call(sweep, [0.5, t], r1, r2)


def test_kernel_difference_is_smooth_at_direct_front():
    """Difference of two cone kernels near the singular set is purely
    diffractive: E_3pi - E_4pi keeps a (finite, mollified) jump at the
    diffracted front but loses the direct front's inverse-square-root
    spike, which each kernel individually has."""
    import scipy.special

    h = 0.05
    r1 = r2 = 1.0
    dth = PI - 0.2
    t_front = math.sqrt(r1**2 + r2**2 - 2 * r1 * r2 * math.cos(dth))
    t_diff = r1 + r2
    ts = t_front + np.linspace(-10 * h, 10 * h, 81)
    e3 = cheeger_series_sweep(3 * PI, ts, r1, r2, dth, h)
    e4 = cheeger_series_sweep(4 * PI, ts, r1, r2, dth, h)

    # basis: quadratic background + mollified step at the diffracted front;
    # the estimator reports what neither captures (the direct spike)
    step = 0.5 * (1.0 + scipy.special.erf((ts - t_diff) / (math.sqrt(2) * h)))
    basis = np.stack([np.ones_like(ts), ts - t_front, (ts - t_front) ** 2,
                      step], axis=1)
    core = np.abs(ts - t_front) <= 4 * h

    def spike_estimator(vals):
        coeff, *_ = np.linalg.lstsq(basis[~core], vals[~core], rcond=None)
        return float(np.max(np.abs(vals[core] - basis[core] @ coeff)))

    smooth = 0.4 / (ts - t_front + 3.0)
    floor = spike_estimator(smooth) + 1e-6
    assert spike_estimator(e3) > 5 * floor
    assert spike_estimator(e4) > 5 * floor
    assert spike_estimator(e3 - e4) < 5 * floor


def test_spherical_waves():
    moll = Mollifier(0.02)
    q = ConePoint(1.3, 0.7)
    lp = spherical_wave_l(+1, 1.3, q, moll)
    lm = spherical_wave_l(-1, 1.3, q, moll)
    assert lm == np.conj(lp)
    peak = spherical_wave_l(+1, 2.0, ConePoint(2.0, 0.0), moll)
    assert peak.imag == 0.0
    assert peak.real == pytest.approx(
        1 / (4 * PI * math.sqrt(2)) / math.sqrt(2 * PI * 0.02**2), rel=1e-12)
    far = spherical_wave_l(+1, 2.0, ConePoint(1.0, 0.3), moll)
    assert abs(far) < 1e-10


def test_upsilon0_zero_line_and_support():
    moll = Mollifier(0.02)
    # theta1 + theta2 = 2 dir + pi kills the cosine on the front
    q1, q2 = ConePoint(1.0, 0.6), ConePoint(1.0, 0.4)
    dir_theta = (0.6 + 0.4 - PI) / 2
    assert upsilon0(2.0, q1, q2, dir_theta, moll) == pytest.approx(0.0, abs=1e-15)
    assert abs(upsilon0(2.5, q1, q2, 0.0, moll)) < 1e-12


def test_upsilon0_matches_commutator_finite_difference():
    h = 0.02
    moll = Mollifier(h)
    rng = np.random.default_rng(3)
    step = 1e-3

    def moved(t, q1, q2, dirth, s):
        pts = []
        for q in (q1, q2):
            x = q.r * math.cos(q.theta) + s * math.cos(dirth)
            y = q.r * math.sin(q.theta) + s * math.sin(dirth)
            pts.append((math.hypot(x, y), math.atan2(y, x)))
        (r1, th1), (r2, th2) = pts
        return sine_kernel_closed_mollified(4 * PI, t, r1, r2, abs(th1 - th2), h)

    for _ in range(5):
        r1, r2 = rng.uniform(0.7, 1.3, 2)
        th1 = rng.uniform(-0.4, 0.4)
        th2 = th1 + rng.uniform(0.6, 2.6)
        dirth = rng.uniform(0, 2 * PI)
        t = r1 + r2 + rng.uniform(-3 * h, 3 * h)
        q1, q2 = ConePoint(r1, th1), ConePoint(r2, th2)
        fd = (moved(t, q1, q2, dirth, step) - moved(t, q1, q2, dirth, -step)) \
            / (2 * step)
        ups = upsilon0(t, q1, q2, dirth, moll)
        assert fd == pytest.approx(ups, rel=5e-2)


# half-wave test geometry: r1 = r2 = 1, theta2 - theta1 = 0.55 pi, h = 0.05
HW_H = 0.05
HW_DTH = 0.55 * PI


def test_halfwave_real_part_is_cosine_kernel():
    """Re U_h is the time derivative of the sine kernel: the closed form
    with tderiv=1 at 4 pi, and a fourth-order central difference of the
    Cheeger sine sweep at alpha = 7.  It is sharply supported, so it
    vanishes before the direct front."""
    ts = np.linspace(0.3, 3.5, 17)
    u = halfwave_series_sweep(4 * PI, ts, 1.0, 1.0, -HW_DTH, HW_H)
    ref = sine_kernel_closed_mollified(4 * PI, ts, 1.0, 1.0, HW_DTH, HW_H,
                                       tderiv=1)
    assert np.max(np.abs(u.real - ref)) < 1e-10
    early = ts < cone_distance(4 * PI, ConePoint(1.0, 0.0),
                               ConePoint(1.0, HW_DTH)) - 10 * HW_H
    assert early.sum() >= 2 and np.max(np.abs(u.real[early])) < 1e-12

    step = 2e-4
    u7 = halfwave_series_sweep(7.0, ts, 1.0, 1.0, 0.9, HW_H)
    m2, m1, p1, p2 = cheeger_series_sweep(
        7.0, np.concatenate([ts + k * step for k in (-2, -1, 1, 2)]),
        1.0, 1.0, 0.9, HW_H).reshape(4, ts.size)
    fd = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * step)
    assert np.max(np.abs(u7.real - fd)) < 1e-9


def _hilbert_of_cosine_kernel(ts, dth: float, cut: float = 40.0,
                              ds: float = 1e-3) -> np.ndarray:
    """-(1/pi) PV int_0^inf R(s) 2t/(t^2 - s^2) ds for R the tderiv=1
    closed form at 4 pi (r1 = r2 = 1, h = HW_H), the Hilbert transform in t
    of the cosine kernel extended evenly: the midpoint rule on [0, cut]
    (each t on a grid edge, so the principal value cancels in pairs) plus
    the tail past cut, where R(s) ~ -1/(4 pi s^2) gives
    int_cut^inf = 2t/(12 pi cut^3)."""
    s = (np.arange(round(cut / ds)) + 0.5) * ds
    r = sine_kernel_closed_mollified(4 * PI, s, 1.0, 1.0, dth, HW_H, tderiv=1)
    ts = np.asarray(ts)[:, None]
    integral = np.sum(r * 2.0 * ts / (ts * ts - s * s), axis=1) * ds
    return -(integral + 2.0 * ts[:, 0] / (12.0 * PI * cut**3)) / PI


def test_halfwave_imaginary_part_is_the_hilbert_transform():
    """Im U_h is the Hilbert transform of Re U_h, computed here from the
    closed cosine kernel alone: at theta2 - theta1 = 1.5 they agree to
    2.2e-9 (t = 2.5) and 5.0e-10 (t = 1.2)."""
    ts = np.array([1.2, 2.5])
    u = halfwave_series_sweep(4 * PI, ts, 1.0, 1.0, -1.5, HW_H)
    assert np.max(np.abs(u.imag - _hilbert_of_cosine_kernel(ts, 1.5))) < 1e-8


def test_halfwave_refuses_an_unconverged_mode_sum(monkeypatch):
    """The half-wave sum shares the sine sweep's mode-tail check."""
    from conewave import kernels

    monkeypatch.setattr(kernels, "MODE_TAIL_TOL", 0.0)
    with pytest.raises(QuadratureFailure, match="last modes"):
        halfwave_series_sweep(4 * PI, [1.8], 1.0, 1.0, -HW_DTH, HW_H)


def test_halfwave_positive_frequency_content():
    """Analytic-signal property: the t-profile has e^{-i t w}, w > 0 content
    only.  Measured by a Blackman-windowed DFT with the ambiguous band
    |omega| < 2 excluded (the profile's frequency density vanishes at 0, but
    finite-window lobes straddle the origin)."""
    ts = np.linspace(0.3, 16.0, 384)
    us = halfwave_series_sweep(4 * PI, ts, 1.0, 1.0, -HW_DTH, HW_H)
    spec = np.fft.fft(us * np.blackman(ts.size))
    freqs = 2 * PI * np.fft.fftfreq(ts.size, ts[1] - ts[0])
    right = np.abs(spec[freqs < -2.0]).sum()
    wrong = np.abs(spec[freqs > 2.0]).sum()
    assert wrong / (wrong + right) < 1e-3


def test_representation_agreement_4pi_summary():
    """All four representations agree at a common off-front sample."""
    h = 0.05
    q1, q2 = ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2)
    t = 3.0
    closed = sine_kernel_closed(4 * PI, t, 1.0, 1.0, -PI / 2)
    moving = sine_kernel_moving_point(KernelQuery(t, q1, q2)).value
    cheeger = sine_kernel_cheeger_series(4 * PI, KernelQuery(t, q1, q2),
                                         h).value
    mollified_closed = sine_kernel_closed_mollified(4 * PI, t, 1.0, 1.0,
                                                    PI / 2, h)
    assert moving == pytest.approx(closed, rel=1e-12)
    assert cheeger == pytest.approx(mollified_closed, rel=1e-3)
    assert cheeger == pytest.approx(closed, rel=2e-2)


def test_moving_point_tangent_root():
    """At the direct front the root of the shifted front equation is tangent."""
    import scipy.optimize
    from conewave.kernels import _moving_point_frame
    q1, q2 = ConePoint(1.0, 0.0), ConePoint(1.0, PI / 2)
    x1, x2 = _moving_point_frame(KernelQuery(1.0, q1, q2), 1.0)

    def front_sum(s):
        return (math.hypot(x1[0], x1[1] - s)
                + math.hypot(x2[0], x2[1] - s))

    t_tangent = scipy.optimize.minimize_scalar(
        front_sum, bounds=(0.0, 4.0), method="bounded",
        options={"xatol": 1e-14}).fun
    with pytest.raises(InvalidInput, match="front tangency"):
        sine_kernel_moving_point(KernelQuery(t_tangent, q1, q2))
