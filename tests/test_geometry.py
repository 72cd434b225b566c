import json
import math

import numpy as np
import pytest

from conewave.errors import DegeneratePoint, PointOnCut
from conewave.geometry import (ConeChain, ConePoint, PlanarPoint,
                               angular_separation, chart_angle, chart_window,
                               classify_ray, cone_distance, develop,
                               shifted_vertex_coords)

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


def test_classify_ray():
    assert classify_ray(3 * PI, PI) == "geometric_diffractive"
    assert classify_ray(3 * PI, 0.0) == "direct"
    assert classify_ray(3 * PI, angular_separation(3 * PI, 0.0, 5 * PI / 4)) \
        == "nongeometric_diffractive"
    assert classify_ray(7.0, PI + 1e-12) == "geometric_diffractive"


def test_develop_base_point_and_vertex():
    p = develop(4 * PI, +1, 2.0, ConePoint(1.5, 0.0))
    assert (p.x, p.y) == (1.5, 0.0)
    v = develop(4 * PI, +1, 2.0, ConePoint(0.0, 1.234))
    assert (v.x, v.y) == (0.0, 0.0)
    q = develop(3 * PI, -1, 1.0, ConePoint(1.0, -PI / 4))
    assert q.x == pytest.approx(math.cos(-PI / 4), abs=1e-15)
    assert q.y == pytest.approx(math.sin(-PI / 4), abs=1e-15)


def test_develop_rejects_cut_and_out_of_window():
    with pytest.raises(PointOnCut):
        develop(4 * PI, +1, 1.0, ConePoint(1.0, PI / 2))
    # on C_{4pi} the chart covers an angular width 2 pi out of 4 pi
    with pytest.raises(PointOnCut):
        develop(4 * PI, +1, 1.0, ConePoint(1.0, PI))


def test_develop_preserves_distances_off_cut():
    rng = np.random.default_rng(3)
    for alpha in (3 * PI, 4 * PI, 7.0):
        for _ in range(100):
            # lower half of the eps=+1 chart: segments avoid the upward cut
            th1, th2 = rng.uniform(-PI + 0.05, -0.05, 2)
            r1, r2 = rng.uniform(0.2, 2.5, 2)
            q1, q2 = ConePoint(r1, th1), ConePoint(r2, th2)
            p1 = develop(alpha, +1, 1.0, q1)
            p2 = develop(alpha, +1, 1.0, q2)
            chart = math.hypot(p1.x - p2.x, p1.y - p2.y)
            assert chart == pytest.approx(cone_distance(alpha, q1, q2), abs=1e-12)
            assert p1.norm == pytest.approx(r1, abs=1e-12)


def test_shifted_vertex_coords():
    r, th = shifted_vertex_coords(PlanarPoint(1.0, 0.0), +1, 1.0)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert th == pytest.approx(PI / 4, abs=1e-15)
    r, _ = shifted_vertex_coords(PlanarPoint(0.0, 1.0), +1, 2.0)
    assert r == pytest.approx(3.0, abs=1e-15)
    # s = 0 reproduces ordinary polar coordinates on the chart domain
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y = rng.uniform(-2, 2), rng.uniform(-2, -0.1)
        r, th = shifted_vertex_coords(PlanarPoint(x, y), +1, 0.0)
        assert r == pytest.approx(math.hypot(x, y), abs=1e-15)
        assert th == pytest.approx(math.atan2(y, x), abs=1e-15)
    with pytest.raises(DegeneratePoint):
        shifted_vertex_coords(PlanarPoint(0.0, -0.5), +1, 0.5)
    with pytest.raises(ValueError):
        shifted_vertex_coords(PlanarPoint(1.0, 0.0), +1, -0.1)
    # chart_angle on arrays matches it element by element, at both window edges
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


def test_shifted_radius_is_convex_in_s():
    rng = np.random.default_rng(5)
    for _ in range(30):
        q = PlanarPoint(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = np.linspace(0, 3, 61)
        r = np.array([shifted_vertex_coords(q, +1, sv)[0] for sv in s
                      ]) if q.x != 0 else None
        if r is None:
            continue
        second = r[:-2] - 2 * r[1:-1] + r[2:]
        assert np.all(second >= -1e-12)
        # r(s) = sqrt(r0^2 + (s - s0)^2) with s0 = -q.y, r0 = |q.x|
        expected = np.sqrt(q.x**2 + (s + q.y) ** 2)
        assert np.allclose(r, expected, atol=1e-12)


def test_chain_json_roundtrip():
    chain = ConeChain(1.5, 2.5, 0.5, 3 * PI, 7.0, -1, +1)
    data = json.loads(chain.to_json())
    assert set(data) == {"a", "b", "c", "alpha1", "alpha2", "eps1", "eps2"}
    assert ConeChain.from_json(chain.to_json()) == chain
