import math

import numpy as np
import pytest

from conewave.errors import InvalidInput
from conewave.geometry import (ConeChain, ConePoint, angular_separation,
                               chart_angle, chart_window, cone_distance)

PI = math.pi


def brute_angular_separation(alpha, th1, th2):
    kmax = int(abs(th1 - th2) / alpha) + 2
    return min(abs(th1 - th2 + k * alpha) for k in range(-kmax, kmax + 1))


def test_angular_separation_examples():
    assert angular_separation(2 * PI, 0.0, 0.0) == 0.0
    assert angular_separation(3 * PI, 0.0, 2 * PI) == pytest.approx(PI, abs=1e-15)
    assert angular_separation(4 * PI, 0.0, 3 * PI) == pytest.approx(PI, abs=1e-15)


def test_angular_separation_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        alpha = rng.uniform(0.5, 15.0)
        th1, th2 = rng.uniform(-20, 20, 2)
        got = angular_separation(alpha, th1, th2)
        assert got == pytest.approx(brute_angular_separation(alpha, th1, th2),
                                    abs=1e-12)
        assert 0.0 <= got <= alpha / 2 + 1e-12


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_angular_separation_refuses_non_finite_differences(theta):
    with pytest.raises(InvalidInput, match="not finite"):
        angular_separation(7.0, theta, 0.0)
    with pytest.raises(InvalidInput, match="not finite"):
        angular_separation(7.0, 1e308, -1e308)  # the difference overflows


def test_cone_distance_examples():
    assert cone_distance(7.0, ConePoint(1.3, 0.4), ConePoint(0.0, 0.0)) == 1.3
    q = ConePoint(0.7, 1.1)
    assert cone_distance(4 * PI, q, q) == 0.0
    # unfold to the cover of the plane: a vertex-avoiding straight segment
    # exists only for lifts with angular span <= pi; otherwise the geodesic
    # goes through the vertex (length r1 + r2)
    q1, q2 = ConePoint(1.0, 0.0), ConePoint(1.0, 2 * PI)
    chords = [math.hypot(1 - math.cos(phi), math.sin(phi))
              for phi in (2 * PI + 3 * PI * k for k in range(-2, 3))
              if abs(phi) <= PI]
    expected = min(chords + [q1.r + q2.r])
    assert expected == pytest.approx(2.0, abs=1e-15)
    assert cone_distance(3 * PI, q1, q2) == pytest.approx(expected, abs=1e-15)


def test_cone_distance_is_a_metric_on_samples():
    rng = np.random.default_rng(1)
    for alpha in (PI / 2, PI, 2 * PI, 3 * PI, 4 * PI, 7.0):
        pts = [ConePoint(rng.uniform(0.1, 3.0), rng.uniform(0, alpha))
               for _ in range(10)]
        for _ in range(1000):
            a, b, c = (pts[i] for i in rng.integers(0, len(pts), 3))
            dab = cone_distance(alpha, a, b)
            assert dab == cone_distance(alpha, b, a)
            assert dab <= cone_distance(alpha, a, c) + cone_distance(alpha, c, b) + 1e-12


def test_plane_distance_agrees_with_euclid():
    rng = np.random.default_rng(2)
    for _ in range(200):
        r1, r2 = rng.uniform(0.0, 3.0, 2)
        th1, th2 = rng.uniform(0, 2 * PI, 2)
        d = cone_distance(2 * PI, ConePoint(r1, th1), ConePoint(r2, th2))
        euclid = math.hypot(r1 * math.cos(th1) - r2 * math.cos(th2),
                            r1 * math.sin(th1) - r2 * math.sin(th2))
        assert d == pytest.approx(euclid, abs=1e-12)


def test_chart_angle_arrays_match_scalars():
    """chart_angle on arrays matches it element by element, at both window
    edges."""
    rng = np.random.default_rng(4)
    for eps in (+1, -1):
        lo, hi = chart_window(eps)
        edges = np.array([lo, hi])
        psi = np.concatenate([edges - 1e-9, edges, edges + 1e-9,
                              rng.uniform(-PI, PI, 8)])
        x, y = np.cos(psi), np.sin(psi)
        arr = chart_angle(eps, x, y)
        assert isinstance(arr, np.ndarray) and arr.shape == psi.shape
        scal = [chart_angle(eps, float(xi), float(yi)) for xi, yi in zip(x, y)]
        assert all(isinstance(v, float) for v in scal)
        assert np.array_equal(arr, np.array(scal))
        # points on the cut itself land on one end of the window
        assert np.all((arr >= lo) & (arr <= hi))


@pytest.mark.parametrize("sign", [1.9, 1.5, True, "1", None])
def test_chain_signs_are_plus_or_minus_one(sign):
    """A chain sign is the number 1 or -1: no truncation, no bool, no text."""
    data = {"a": 1, "b": 1, "c": 1, "alpha1": 7, "alpha2": 7, "eps1": -1,
            "eps2": 1}
    assert type(ConeChain.from_dict({**data, "eps1": -1.0}).eps1) is int
    with pytest.raises(InvalidInput, match="eps2"):
        ConeChain.from_dict({**data, "eps2": sign})
    with pytest.raises(InvalidInput, match="eps1"):
        ConeChain(1.0, 1.0, 1.0, 7.0, 7.0, sign, 1)
