"""Friedlander's periodized construction of the sine kernel on C_alpha,
evaluated exactly.

The multivalued plane solution

    G(y, z) = H(y + cos z) H(pi - |z|),                            y < 1
    G(y, z) = (1/pi) [arctan((pi - z)/c) + arctan((pi + z)/c)],   y = cosh c > 1

(the sign of the second branch is pinned by alpha = 2 pi, where the
periodization telescopes to the constant 1) is periodized over z -> z +
alpha k and mapped to the kernel by A = A3 A2 A1: A1 is Gamma(1/2) times
the causal half-derivative in y, A2 the pullback y = (t^2 - r1^2 - r2^2) /
(2 r1 r2), z = theta1 - theta2, and A3 multiplication by
(2 pi sqrt(2 r1 r2))^(-1).

A1 G_alpha is a superposition of plane kernels (Cheeger & Taylor, CPAM 35,
1982).  Each step H(y + cos z_k), z_k = z + alpha k, half-derives into
(y + cos z_k)^(-1/2), the plane kernel of the image at angle z_k, with
weight 1/2 on the shadow boundary |z_k| = pi, where the arctan branch starts
from 1/2.  The rest of G_alpha vanishes at y = 1 and half-derives into

    int_0^C dG/dc (cosh C - cosh c)^(-1/2) dc,      C = arccosh y,

where the arctan translates sum in closed form (symmetric summation of
the periodized Poisson kernel of each x = pi -+ z, then cot a + cot b =
sin(a + b) / (sin a sin b)):

    dG/dc = -(1/pi) sum_x sum_k x_k / (c^2 + x_k^2),     x_k = x + alpha k,
          = 2 Re S_alpha(z - i c),

the cone's diffraction coefficient continued off the real axis
(`diffraction.scattering_matrix`).  It vanishes when 2 pi/alpha is an
integer (the method of images; alpha = 2 pi is the plane).  Its poles
c = i (+-x + alpha m) lie on the imaginary axis, the nearest at the
shadow-boundary distance |x| = min_k |pi -+ z + alpha k|.  As x -> 0 its
integral over [0, eps] tends to -sign(x)/2, which makes up for the image
that crosses |z_k| = pi, so the kernel is continuous there.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .diffraction import scattering_matrix
from .errors import InvalidInput
from .geometry import (_length_scale, angular_separation, check_array_size,
                       check_cone_angle)
from .kernels import KernelQuery, KernelValue, _unscale
from .special import gauss_legendre

# The c integral runs on Gauss-Legendre panels of PANEL_NODES nodes, with
# edges C, C/2, C/8, ... graded by PANEL_RATIO down to the first one at or
# below the shadow-boundary distance |x|.  Against mpmath it stays within
# 9e-15 of the kernel for alpha from 0.5 to 50, y up to 60 and |x| down to
# 1e-12; 12 nodes reach 3e-11.
PANEL_NODES = 16
PANEL_RATIO = 4.0


def build_friedlander(alpha: float) -> float:
    """Check the cone angle and return it.  The kernel needs no build step;
    this is kept because the benchmark harness times it by name."""
    return check_cone_angle(alpha)


def friedlander_pullback(alpha: float, t: float, r1: float, r2: float,
                         theta1: float, theta2: float) -> tuple[float, float]:
    """(y, z) coordinates of a kernel query, z reduced to [-alpha/2, alpha/2]
    by the IEEE remainder, which is exact."""
    denom = 2.0 * r1 * r2  # 0 when it underflows
    y = (t * t - r1 * r1 - r2 * r2) / denom if denom > 0.0 else math.inf
    z = theta1 - theta2
    if not (math.isfinite(y) and math.isfinite(z)):  # remainder(inf) raises
        raise InvalidInput(f"pullback (y, z) = {y, z} is not finite")
    return y, math.remainder(z, check_cone_angle(alpha))


def _image_sum(alpha: float, y: float, z: float) -> float:
    """sum_k w_k (y + cos z_k)^(-1/2) over the images z_k = z + alpha k
    with |z_k| <= pi and y + cos z_k > 0; w_k = 1/2 where |z_k| = pi."""
    k_lo = math.ceil((-math.pi - z) / alpha) - 1
    k_hi = math.floor((math.pi - z) / alpha) + 1
    check_array_size(k_hi - k_lo + 1, "the image sum")
    total = 0.0
    for k in range(k_lo, k_hi + 1):
        zk = z + alpha * k
        bracket = y + math.cos(zk)
        if abs(zk) <= math.pi and bracket > 0.0:
            total += (0.5 if abs(zk) == math.pi else 1.0) / math.sqrt(bracket)
    return total


@functools.cache
def _v_rule(n_graded: int):
    """(c/C, w (1 - v), (1 - v)^2) at the Gauss nodes v, weights w, of the
    panels with c/C edges 0, 4^-n_graded / 2, ..., 1/8, 1/2, 1 (for
    PANEL_RATIO 4), mapped to v = (c/C) / (1 + sqrt(1 - c/C)), in which
    edges far below 1e-16 stay distinct.  The rule depends on C only
    through n_graded, so each count is built once."""
    frac = np.array([0.0, *(0.5 / PANEL_RATIO ** np.arange(n_graded, -1, -1)),
                     1.0])
    v, weights = gauss_legendre(frac / (1.0 + np.sqrt(1.0 - frac)),
                                PANEL_NODES)
    return v * (2.0 - v), weights * (1.0 - v), (1.0 - v) ** 2


def _diffracted_integral(alpha: float, y: float, z: float) -> float:
    """int_0^C dG/dc (cosh C - cosh c)^(-1/2) dc for y = cosh C > 1.

    With c = C v (2 - v), v in [0, 1], the root at c = C becomes the smooth
    weight 2 C (1 - v) / sqrt(2 sinh((C + c)/2) sinh(C (1 - v)^2 / 2)),
    using cosh C - cosh c = 2 sinh((C + c)/2) sinh((C - c)/2).
    """
    big_c = math.acosh(y)
    # the distances to the shadow boundaries, where the weight's poles
    # c = i x come nearest; on a boundary, x = 0, the pole cancels
    scale = min((x for x in (angular_separation(alpha, z, math.pi),
                             angular_separation(alpha, z, -math.pi))
                 if x != 0.0), default=math.inf)
    n_graded, edge = 0, 0.5 * big_c
    while edge > scale:
        n_graded, edge = n_graded + 1, edge / PANEL_RATIO
    c_frac, weights, one_minus_v_sq = _v_rule(n_graded)
    c = big_c * c_frac
    left = np.sinh(0.5 * (big_c + c))
    right = np.sinh((0.5 * big_c) * one_minus_v_sq)
    # left * right overflows past C = 473 (y ~ 1e205)
    root = np.sqrt(left * right) if big_c < 400.0 else np.sqrt(left) * np.sqrt(right)
    dg_dc = 2.0 * scattering_matrix(alpha, z, c)
    if not np.isfinite(dg_dc).all():  # past alpha ~ 1e77
        raise InvalidInput(f"alpha = {alpha}: dG/dc underflows at z = {z}")
    return math.sqrt(2.0) * big_c * float(np.sum(weights * dg_dc / root))


def sine_kernel_friedlander(alpha: float, q: KernelQuery) -> KernelValue:
    """Evaluate the Friedlander representation at a kernel query, exactly.

    Pullback through A2, the image sum and, for y > 1, the c integral of
    A1 G_alpha (see the module docstring), then the A3 factor.  The pullback
    and the A3 factor are taken at the lengths over a power of two near
    max(t, r1, r2), an exact scaling (the kernel is homogeneous of degree
    -1) that keeps t^2 and 2 r1 r2 in range.
    """
    scale = _length_scale(max(q.t, q.q1.r, q.q2.r))
    t, r1, r2 = q.t / scale, q.q1.r / scale, q.q2.r / scale
    y, z = friedlander_pullback(alpha, t, r1, r2, q.q1.theta, q.q2.theta)
    raw = _image_sum(alpha, y, z)
    if y > 1.0:
        raw += _diffracted_integral(alpha, y, z)
    return KernelValue(_unscale(
        raw / (2.0 * math.pi * math.sqrt(2.0 * r1 * r2)), scale))
