"""Exact Euclidean geometry of the flat cone C_alpha.

The cone of total angle alpha > 0 is (0, inf)_r x (R / alpha Z)_theta with the
metric dr^2 + r^2 dtheta^2.  This module provides the distance function, the
slit developing charts used to flatten a neighbourhood of a vertex-hitting
geodesic, shifted-vertex polar coordinates, and the two-cone chain in whose
frame all the two-diffraction computations take place.

Chart conventions (used consistently everywhere downstream): for diffraction
sign eps = +1 the removed cut is the upward ray {(0, y): y > 0} and chart
angles live in the window (-3*pi/2, pi/2); for eps = -1 the cut is the
downward ray and the window is (-pi/2, 3*pi/2).  The base vertex-hitting
geodesic always maps to the x-axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoint, InvalidInput, PointOnCut

# Angular tolerance for classifying a ray as geometrically diffractive.
# Classification feeds branch selection only, never quantitative output.
GEOMETRIC_ANGLE_TOL = 1e-9

# Points closer than this (in angle) to a cut ray are rejected by develop().
CUT_MARGIN = 1e-9

DIRECT = "direct"
GEOMETRIC_DIFFRACTIVE = "geometric_diffractive"
NONGEOMETRIC_DIFFRACTIVE = "nongeometric_diffractive"


def check_cone_angle(alpha: float) -> float:
    """Validate a total cone angle (radians).  alpha = 2*pi is the plane."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise InvalidInput(f"cone angle must be positive and finite, got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class ConePoint:
    """Point on a cone in polar coordinates; r = 0 is the vertex."""

    r: float
    theta: float

    def __post_init__(self):
        if not (self.r >= 0 and math.isfinite(self.r) and math.isfinite(self.theta)):
            raise InvalidInput("need a finite r >= 0 and a finite theta, got "
                               f"({self.r}, {self.theta})")

    @property
    def is_vertex(self) -> bool:
        return self.r == 0.0


def cone_point(alpha: float, r: float, theta: float) -> ConePoint:
    """ConePoint with the angle reduced canonically to [0, alpha)."""
    check_cone_angle(alpha)
    return ConePoint(r, reduce_angle(alpha, theta))


@dataclass(frozen=True)
class PlanarPoint:
    """Cartesian point in a development chart."""

    x: float
    y: float

    def __sub__(self, other: "PlanarPoint") -> "PlanarPoint":
        return PlanarPoint(self.x - other.x, self.y - other.y)

    @property
    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class ConeChain:
    """Geodesic q2 -> p2 -> p1 -> q1 with legs a, b, c and two cone data.

    In the chain frame p2 = (0, 0), p1 = (b, 0), q2* = (-a, 0) and
    q1* = (b + c, 0); the diffraction angle at p_i is eps_i * pi.
    """

    a: float
    b: float
    c: float
    alpha1: float
    alpha2: float
    eps1: int
    eps2: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            leg = getattr(self, name)
            if not (leg > 0 and math.isfinite(leg)):
                raise InvalidInput(
                    f"chain leg {name} must be positive and finite, got {leg}")
        check_cone_angle(self.alpha1)
        check_cone_angle(self.alpha2)
        for name in ("eps1", "eps2"):
            if getattr(self, name) not in (+1, -1):
                raise InvalidInput(f"{name} must be +1 or -1")

    @property
    def total_length(self) -> float:
        return self.a + self.b + self.c

    @property
    def p1(self) -> PlanarPoint:
        return PlanarPoint(self.b, 0.0)

    @property
    def p2(self) -> PlanarPoint:
        return PlanarPoint(0.0, 0.0)

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "eps1": self.eps1,
            "eps2": self.eps2,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "ConeChain":
        try:
            fields = {key: float(data[key])
                      for key in ("a", "b", "c", "alpha1", "alpha2")}
            fields.update({key: int(data[key]) for key in ("eps1", "eps2")})
        except KeyError as exc:
            raise InvalidInput(f"chain is missing the key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInput(f"bad chain {data!r}: {exc}") from exc
        return cls(**fields)

    @classmethod
    def from_json(cls, text: str) -> "ConeChain":
        return cls.from_dict(json.loads(text))


def reduce_angle(alpha: float, theta: float) -> float:
    """Reduce an angle to the fundamental domain [0, alpha)."""
    check_cone_angle(alpha)
    reduced = math.fmod(theta, alpha)
    if reduced < 0:
        reduced += alpha
    if reduced >= alpha:  # fmod rounding at the boundary
        reduced -= alpha
    return reduced


def angular_separation(alpha: float, theta1: float, theta2: float) -> float:
    """min over integers k of |theta1 - theta2 + k*alpha|, in [0, alpha/2].

    Computed through the IEEE remainder, which is exact, so the result is
    symmetric in (theta1, theta2) to the last bit.
    """
    check_cone_angle(alpha)
    return abs(math.remainder(theta1 - theta2, alpha))


def cone_distance(alpha: float, q1: ConePoint, q2: ConePoint) -> float:
    """Euclidean distance on C_alpha.

    Three cases: distance to the vertex is the radius; if the angular
    separation exceeds pi every connecting geodesic passes through the
    vertex, giving r1 + r2; otherwise the law of cosines applies in the
    developed plane.
    """
    check_cone_angle(alpha)
    if q1.is_vertex:
        return q2.r
    if q2.is_vertex:
        return q1.r
    dtheta = angular_separation(alpha, q1.theta, q2.theta)
    if dtheta > math.pi:
        return q1.r + q2.r
    d2 = q1.r**2 + q2.r**2 - 2.0 * q1.r * q2.r * math.cos(dtheta)
    return math.sqrt(max(d2, 0.0))


def classify_ray(alpha: float, delta_theta: float) -> str:
    """Classify a reduced angle difference relative to pi.

    `delta_theta` must already be reduced via angular_separation.
    """
    check_cone_angle(alpha)
    if abs(delta_theta - math.pi) < GEOMETRIC_ANGLE_TOL:
        return GEOMETRIC_DIFFRACTIVE
    if delta_theta > math.pi:
        return NONGEOMETRIC_DIFFRACTIVE
    return DIRECT


def chart_window(eps: int) -> tuple[float, float]:
    """Open angle window of the eps-chart (cut excluded at both ends)."""
    if eps == +1:
        return (-1.5 * math.pi, 0.5 * math.pi)
    if eps == -1:
        return (-0.5 * math.pi, 1.5 * math.pi)
    raise ValueError(f"eps must be +1 or -1, got {eps}")


def chart_angle(eps: int, x, y):
    """Continuous chart angle of (x, y) around the origin, in the eps-window,
    for scalars or arrays (a float for scalar input)."""
    lo, hi = chart_window(eps)
    psi = np.arctan2(y, x)
    psi = np.where(psi >= hi, psi - 2.0 * math.pi, psi)
    psi = np.where(psi < lo, psi + 2.0 * math.pi, psi)
    return float(psi) if psi.ndim == 0 else psi


def develop(alpha: float, eps: int, r_star: float, q: ConePoint,
            margin: float = CUT_MARGIN) -> PlanarPoint:
    """Develop a cone point into the slit chart of the eps-cut.

    The chart is anchored on the geometrically diffractive geodesic through
    the vertex whose outgoing ray (through the base point at distance
    `r_star`) is theta = 0; that ray maps to the positive x-axis and the
    vertex to the origin.  The cone angle of `q` must admit a lift into the
    eps-window, staying at least `margin` away from the cut ray.
    """
    check_cone_angle(alpha)
    if not r_star > 0:
        raise ValueError("r_star must be positive")
    if q.is_vertex:
        return PlanarPoint(0.0, 0.0)
    lo, hi = chart_window(eps)
    theta = reduce_angle(alpha, q.theta)
    # Candidate lifts theta + k*alpha inside the window, closest to the axis.
    k_min = math.floor((lo - theta) / alpha) - 1
    k_max = math.ceil((hi - theta) / alpha) + 1
    best = None
    for k in range(k_min, k_max + 1):
        psi = theta + k * alpha
        if lo + margin < psi < hi - margin:
            if best is None or abs(psi) < abs(best):
                best = psi
    if best is None:
        raise PointOnCut(
            f"angle {q.theta} has no lift into the eps={eps:+d} chart of "
            f"C_{alpha}"
        )
    return PlanarPoint(q.r * math.cos(best), q.r * math.sin(best))


def shifted_vertex_coords(q: PlanarPoint, eps: int, s: float) -> tuple[float, float]:
    """Polar coordinates of q relative to the shifted vertex p_eps(s).

    p_eps(s) = (0, -eps*s); the angle is returned on the continuous branch of
    the eps-chart, so that s = 0 reproduces ordinary polar coordinates for
    points whose principal angle already lies in the chart window.
    """
    if s < 0:
        raise ValueError(f"shift distance must be >= 0, got {s}")
    vx, vy = q.x, q.y + eps * s
    theta = chart_angle(eps, vx, vy)
    r_s = math.hypot(vx, vy)
    if r_s == 0.0:
        raise DegeneratePoint(f"point {q} coincides with the shifted vertex at s={s}")
    return r_s, theta
