"""Friedlander's periodized construction of the sine kernel on C_alpha.

The multivalued plane solution

    G(y, z) = H(y + cos z) H(pi - |z|),                    y < 1
    G(y, z) = (1/pi) [ arctan((pi - z)/arccosh y)
                      + arctan((pi + z)/arccosh y) ],      y > 1

(the sign of the second branch is pinned by the degenerate alpha = 2 pi
case, where the periodization telescopes to the constant 1 and the plane
kernel has no diffracted front) is periodized over z -> z + alpha k and
mapped to the kernel by
A = A3 A2 A1 with A1 the half-derivative in y (kernel |y - y'|^(-1/2),
causal side), A2 the pullback through

    y = (t^2 - r1^2 - r2^2) / (2 r1 r2),   z = theta1 - theta2,

and A3 multiplication by (2 pi sqrt(2 r1 r2))^(-1).  The slowly decaying
arctan translates of the y > 1 branch are summed exactly: with
c = arccosh y, kappa = coth(pi c / alpha) and theta = pi x / alpha,

    sum_k arctan((x + alpha k) / c) = Phi(x)
        = theta + atan2((kappa - 1) sin theta cos theta,
                        cos^2 theta + kappa sin^2 theta)

(symmetric summation).  Both sides are odd in x and share the
x-derivative, the periodized Poisson kernel
(pi/alpha) sinh(2 pi c/alpha) / (cosh(2 pi c/alpha) - cos(2 pi x/alpha)).
Since kappa > 1 the atan2 denominator is positive, so Phi is continuous
across the poles of tan theta.  Hence G_alpha = (Phi(pi - z) + Phi(pi + z)) / pi
for y > 1, with no truncation.

The sampled G_alpha is turned into kernel values one z column at a time.
A build fits the not-a-knot cubic spline of G_alpha along z, all y rows at
once, over one period padded by three periodic columns each side.  A query
evaluates that spline at its z to get one y column of G_alpha, applies
Gamma(1/2) times the L1 half-derivative to that column, fits a not-a-knot
cubic spline in y and evaluates it at its y.  This equals the bicubic
(s = 0) spline of the whole half-derived grid: the half-derivative acts on
each column linearly and on its own, so it commutes with interpolation in
z, and the bicubic interpolating spline is the tensor product of the 1-D
not-a-knot splines, so it can be applied along z first and along y second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfGrid
from .geometry import check_cone_angle, reduce_angle
from .kernels import FRONT_TOL, KernelQuery, KernelValue, front_region
from .special import GAMMA_HALF, l1_half_derivative


# The sampled grid: NY intervals in y over [Y_MIN, Y_MAX], which contains
# [-1, 1], and NZ intervals in z over one period.  The spacing puts a node at
# y = 1, so the square-root cusp of the second branch starts exactly at a
# node.
Y_MIN, Y_MAX, NY, NZ = -1.5, 4.5, 2400, 768
DY = (Y_MAX - Y_MIN) / NY


@dataclass(frozen=True)
class FriedlanderGrid:
    """Sampled G_alpha on a (y, z) grid and its cubic spline along z.

    `z` covers one full period [-alpha/2, alpha/2].  `_g_of_z` maps an angle
    z to the y column of G_alpha there; `_column` holds the y spline of
    Gamma(1/2) * [d/dy]^{1/2} G_alpha at the last queried z, keyed by z.
    """

    alpha: float
    y: np.ndarray
    z: np.ndarray
    g: np.ndarray
    _g_of_z: object  # scipy.interpolate.BSpline of g along z (axis 1)
    _column: dict = field(default_factory=dict, repr=False, compare=False)


def _g_alpha_low(alpha: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Periodized y < 1 branch: sum_k H(y + cos(z + alpha k)) H(pi - |z + alpha k|)."""
    out = np.zeros((y.size, z.size))
    k_lo = math.ceil((-math.pi - z.max()) / alpha) - 1
    k_hi = math.floor((math.pi - z.min()) / alpha) + 1
    for k in range(k_lo, k_hi + 1):
        zp = z + alpha * k
        gate = np.abs(zp) < math.pi
        if not np.any(gate):
            continue
        step = (y[:, None] + np.cos(zp)[None, :]) > 0.0
        out += step * gate[None, :]
    return out


def _g_alpha_high(alpha: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Periodized y > 1 branch, summed exactly: (Phi(pi - z) + Phi(pi + z)) / pi."""
    # kappa - 1 = 2 / expm1(2u), free of the cancellation in coth(u) - 1
    km1 = (2.0 / np.expm1(2.0 * math.pi * np.arccosh(y) / alpha))[:, None]

    def phi(x):
        theta = (math.pi / alpha) * x[None, :]
        s, co = np.sin(theta), np.cos(theta)
        return theta + np.arctan2(km1 * s * co, co * co + (1.0 + km1) * s * s)

    # sign fixed by the alpha = 2pi degenerate case: the periodized branch
    # telescopes to the constant +1 there, removing the spurious jump at the
    # diffracted front that the plane kernel cannot have
    return (phi(math.pi - z) + phi(math.pi + z)) / math.pi


def build_friedlander(alpha: float) -> FriedlanderGrid:
    """Sample G_alpha on the uniform grid, [Y_MIN, Y_MAX] in y by one period
    in z, and fit its cubic spline along z."""
    check_cone_angle(alpha)
    from scipy.interpolate import make_interp_spline

    y = np.linspace(Y_MIN, Y_MAX, NY + 1)
    i1 = int(round((1.0 - Y_MIN) / DY))
    z = np.linspace(-0.5 * alpha, 0.5 * alpha, NZ + 1)

    g = np.zeros((y.size, z.size))
    low = y < 1.0
    high = y > 1.0
    g[low] = _g_alpha_low(alpha, y[low], z)
    g[high] = _g_alpha_high(alpha, y[high], z)
    # G is continuous at y = 1 (the arctan limits reproduce the translate
    # count); fill the node from the y < 1 branch
    g[i1] = _g_alpha_low(alpha, np.array([1.0]), z)[0]

    # periodic padding in z for clean cubic interpolation near the seam
    pad = 3
    z_ext = np.concatenate([z[-1 - pad:-1] - alpha, z, z[1:1 + pad] + alpha])
    g_ext = np.concatenate([g[:, -1 - pad:-1], g, g[:, 1:1 + pad]], axis=1)
    return FriedlanderGrid(alpha, y, z, g,
                           make_interp_spline(z_ext, g_ext, k=3, axis=1))


def _column_spline(fg: FriedlanderGrid, z: float):
    """Cubic spline in y of Gamma(1/2) [d/dy]^{1/2} G_alpha at angle z,
    kept until a query asks for another z."""
    spline = fg._column.get(z)
    if spline is None:
        from scipy.interpolate import make_interp_spline

        column = GAMMA_HALF * l1_half_derivative(fg._g_of_z(z), DY)
        spline = make_interp_spline(fg.y, column, k=3)
        fg._column.clear()
        fg._column[z] = spline
    return spline


def friedlander_pullback(alpha: float, t: float, r1: float, r2: float,
                         theta1: float, theta2: float) -> tuple[float, float]:
    """(y, z) coordinates of a kernel query, z reduced to [-alpha/2, alpha/2)."""
    y = (t * t - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)
    z = reduce_angle(alpha, theta1 - theta2)
    if z >= 0.5 * alpha:
        z -= alpha
    return y, z


def sine_kernel_friedlander(fg: FriedlanderGrid, q: KernelQuery) -> KernelValue:
    """Evaluate the Friedlander representation at a kernel query.

    Pullback through A2; the z spline gives the y column of G_alpha at the
    query's z, which is half-derived and interpolated by a cubic spline in y
    (the bicubic spline of the half-derived grid, see the module docstring);
    then the A3 factor.  Points with y < -1 are outside every front and
    return 0 exactly; y above the sampled range raises OutOfGrid.  The value
    is the unmollified kernel: q.h only widens the near_front region label
    to 10 h.
    """
    r1, r2 = q.q1.r, q.q2.r
    y, z = friedlander_pullback(fg.alpha, q.t, r1, r2, q.q1.theta, q.q2.theta)
    region = front_region(fg.alpha, q, 10.0 * q.h if q.h > 0 else FRONT_TOL)
    if y < -1.0:
        return KernelValue(0.0, region)
    if y > fg.y[-1]:
        raise OutOfGrid(f"pullback y = {y:.3f} above grid maximum {fg.y[-1]}")
    raw = float(_column_spline(fg, z)(y))
    return KernelValue(raw / (2.0 * math.pi * math.sqrt(2.0 * r1 * r2)), region)
