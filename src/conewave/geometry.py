"""Exact Euclidean geometry of the flat cone C_alpha.

The cone of total angle alpha > 0 is (0, inf)_r x (R / alpha Z)_theta with the
metric dr^2 + r^2 dtheta^2.  This module provides the distance function,
the package's angle reduction (the IEEE remainder mod alpha, which is
exact), the chart angle of a point around a vertex, the array-size
budget for input-driven sizes, and the two-cone chain in whose frame all the
two-diffraction computations take place.

Chart conventions (used consistently everywhere downstream): for diffraction
sign eps = +1 the removed cut is the upward ray {(0, y): y > 0} and chart
angles live in the window (-3*pi/2, pi/2); for eps = -1 the cut is the
downward ray and the window is (-pi/2, 3*pi/2).  The base vertex-hitting
geodesic always maps to the x-axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

# Budget for array sizes set by input (elements): 128 MiB of float64.  Other
# modules read it here at call time, so one setting reaches every use.
MAX_ARRAY_ELEMENTS = 2**24


def check_cone_angle(alpha: float) -> float:
    """Validate a total cone angle (radians).  alpha = 2*pi is the plane."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise InvalidInput(f"cone angle must be positive and finite, got {alpha}")
    return float(alpha)


def check_array_size(n: int, what: str) -> None:
    """Validate an input-driven array size against MAX_ARRAY_ELEMENTS."""
    if n > MAX_ARRAY_ELEMENTS:
        # an int count can pass the float range, where format(n, "g") raises
        count = n if n < 1e308 else math.inf
        raise InvalidInput(f"{what} needs {count:.3g} elements, above the "
                           f"budget of {MAX_ARRAY_ELEMENTS}")


def _length_scale(x):
    """The power of two at or below a positive finite x, elementwise for an
    array: dividing by it is exact, and brings x into [1, 2)."""
    if isinstance(x, np.ndarray):
        return np.ldexp(0.5, np.frexp(x)[1])
    return math.ldexp(0.5, math.frexp(x)[1])


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


@dataclass(frozen=True)
class PlanarPoint:
    """Cartesian point in a development chart."""

    x: float
    y: float


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
            sign = getattr(self, name)
            # True == 1, so a bool would pass the membership test
            if isinstance(sign, bool) or sign not in (+1, -1):
                raise InvalidInput(f"{name} must be the number 1 or -1, "
                                   f"got {sign!r}")
            object.__setattr__(self, name, int(sign))

    @property
    def total_length(self) -> float:
        return self.a + self.b + self.c

    @property
    def p1(self) -> PlanarPoint:
        return PlanarPoint(self.b, 0.0)

    @property
    def p2(self) -> PlanarPoint:
        return PlanarPoint(0.0, 0.0)

    @classmethod
    def from_dict(cls, data: dict) -> "ConeChain":
        try:
            fields = {key: float(data[key])
                      for key in ("a", "b", "c", "alpha1", "alpha2")}
            fields.update({key: data[key] for key in ("eps1", "eps2")})
        except KeyError as exc:
            raise InvalidInput(f"chain is missing the key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInput(f"bad chain {data!r}: {exc}") from exc
        return cls(**fields)


def angular_separation(alpha: float, theta1, theta2):
    """min over integers k of |theta1 - theta2 + k*alpha|, in [0, alpha/2],
    elementwise for arrays.

    Computed through the IEEE remainder, which is exact, so the result is
    symmetric in (theta1, theta2) to the last bit.  On arrays its magnitude
    is read as m = |fmod(d, alpha)| or, past alpha/2, alpha - m: both are
    exact.
    """
    check_cone_angle(alpha)
    d = theta1 - theta2
    if not isinstance(d, np.ndarray):
        if math.isfinite(d):  # else math.remainder raises ValueError
            return abs(math.remainder(d, alpha))
    else:
        bad = ~np.isfinite(d)
        if not bad.any():
            m = np.abs(np.fmod(d, alpha))
            return np.where(m > 0.5 * alpha, alpha - m, m)
        theta1, theta2 = (np.broadcast_to(x, d.shape)[bad][0]
                          for x in (theta1, theta2))
    raise InvalidInput(
        f"the angle difference {theta1} - {theta2} is not finite")


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
    # term for term the square of `kernels._region_pieces`, so that
    # `kernels.front_region` puts the direct front where the closed form's
    # first piece starts
    d2 = q1.r * q1.r + q2.r * q2.r - 2.0 * q1.r * q2.r * math.cos(dtheta)
    if not math.isfinite(d2):
        raise InvalidInput(f"radii {q1.r}, {q2.r}: the squared distance overflows")
    return math.sqrt(max(d2, 0.0))


def chart_window(eps: int) -> tuple[float, float]:
    """Open angle window of the eps-chart (cut excluded at both ends)."""
    if eps == +1:
        return (-1.5 * math.pi, 0.5 * math.pi)
    if eps == -1:
        return (-0.5 * math.pi, 1.5 * math.pi)
    raise InvalidInput(f"eps must be +1 or -1, got {eps}")


def chart_angle(eps: int, x, y):
    """Continuous chart angle of (x, y) around the origin, in the eps-window,
    for scalars or arrays (a float for scalar input)."""
    lo, hi = chart_window(eps)
    psi = np.arctan2(y, x)
    psi = np.where(psi >= hi, psi - 2.0 * math.pi, psi)
    psi = np.where(psi < lo, psi + 2.0 * math.pi, psi)
    return float(psi) if psi.ndim == 0 else psi
