"""Absolute scattering matrix of the flat cone and its regularized products.

The cone of angle alpha scatters a wave arriving at the vertex into all
directions with angular kernel

    S_alpha(theta) = -(1/(2 alpha)) sin(2 pi^2/alpha)
                     / [ sin((pi/alpha)(pi - theta)) sin((pi/alpha)(pi + theta)) ],

the kernel of -i exp(-i pi sqrt(Delta_{S^1_alpha})) on the circle of
circumference alpha.  S_alpha has poles at the geometric directions
theta = +-pi (mod alpha); physical amplitudes stay finite there because a
sin factor vanishes simultaneously.  One closed form in the offsets of theta
to those directions gives S_alpha, also off the real axis at theta - i c
(Friedlander's weight), and the limits of sin * S_alpha at the poles; the
amplitude factor S_alpha cos(theta/2) is one exact identity.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometricDirection, InvalidInput
from . import geometry
from .geometry import _length_scale, check_cone_angle

# Angle, in radians, within which an offset from a geometric direction
# counts as a pole: the sine factors sin(pi x/alpha) are compared with
# POLE_TOL pi/alpha.
POLE_TOL = 1e-12

# The two limit identities behind the trace pipeline, (incoming at 0,
# outgoing at pi), both independent of alpha:
#   lim_{t->0}  sin(t) * S_alpha(-pi - t)  =  1/(2 pi)
#   lim_{t->pi} sin(t) * S_alpha(t)        = -1/(2 pi)
SINE_PRODUCT_LIMITS = (1.0 / (2.0 * math.pi), -1.0 / (2.0 * math.pi))

# Bound on the scaled sines and sinh: 2 (2 * 2^510)^2 is finite
_SCALED_MAX = 2.0**255


def _numerator(alpha: float) -> float:
    """sin(2 pi^2/alpha) as (-1)^n sin(pi (2 pi/alpha - n)), n the integer
    nearest 2 pi/alpha, so exactly 0 where 2 pi/alpha is an integer (the
    cones that do not diffract); refused where 2 pi^2/alpha overflows."""
    check_cone_angle(alpha)
    if not math.isfinite(2.0 * math.pi**2 / alpha):
        raise InvalidInput(f"2 pi^2 / alpha overflows at alpha = {alpha}")
    n = round(2.0 * math.pi / alpha)
    return (-1.0) ** n * math.sin(math.pi * (2.0 * math.pi / alpha - n))


def _angle_part(alpha: float, numerator: float, x1, x2, parity,
                theta=0.0):
    """The half of Re S_alpha(theta - i c) that does not depend on c, from
    the offsets x1 = pi - theta and x2 = pi + theta to the geometric
    directions, shifted by whole periods alpha of total parity `parity`:
    (scale, pole, s1^2, s2^2, (-1)^parity s1 s2, cos(2 pi theta/alpha),
    prefactor), with s_i = scale sin(pi x_i/alpha), `pole` where an offset
    is within POLE_TOL of a pole, and prefactor = -sin(2 pi^2/alpha)
    scale^2/alpha.  `_c_part` completes the value.  scale is the power of
    two at or below max(1, alpha/pi): the sines are taken times scale and
    the prefactor times scale^2, an exact rescaling that keeps the quotient
    in range at any alpha.  Past the cap that keeps the squares finite
    (offsets past 6e76 radians at alpha past 1e77) |Re S| is below 1e-154,
    and comes out of that size, not exact."""
    scale = _length_scale(max(1.0, alpha / math.pi))
    s1 = scale * np.sin(math.pi * x1 / alpha)
    s2 = scale * np.sin(math.pi * x2 / alpha)
    band = POLE_TOL * (math.pi * scale / alpha)
    pole = (np.abs(s1) < band) | (np.abs(s2) < band)
    if scale > _SCALED_MAX:
        s1 = np.clip(s1, -_SCALED_MAX, _SCALED_MAX)
        s2 = np.clip(s2, -_SCALED_MAX, _SCALED_MAX)
    return (scale, pole, s1 * s1, s2 * s2, s1 * s2 * (1.0 - 2.0 * parity),
            np.cos(2.0 * math.pi * theta / alpha),
            -((numerator * scale) / alpha) * scale)


def _c_part(alpha: float, angle, c=0.0):
    """Re S_alpha(theta - i c) from the angle part of theta (`_angle_part`)
    and c, broadcast.  With S = sinh^2(pi c/alpha) it is

        -sin(2 pi^2/alpha) (S cos(2 pi theta/alpha) + (-1)^parity s1 s2)
        / (2 alpha (S + s1^2) (S + s2^2)),

    so on the real axis, c = 0, theta enters through its offsets alone; NaN
    there at a pole, and where the denominator underflows (c below about
    1e-154 at a pole).  sinh is taken times the angle part's scale.  Past
    pi c/alpha = 150, or the cap that keeps its square finite, |Re S| is
    below 1e-130/alpha, and comes out of that size, not exact."""
    scale, pole, s1_sq, s2_sq, s1s2, cos_theta, prefactor = angle
    cap = min(150.0, math.asinh(_SCALED_MAX / scale))
    kc = np.minimum((math.pi / alpha) * np.asarray(c, float), cap)
    big_s = (scale * np.sinh(kc)) ** 2
    denominator = 2.0 * (big_s + s1_sq) * (big_s + s2_sq)
    top = prefactor * (big_s * cos_theta + s1s2)
    denominator = np.where((denominator < 2.0**-1021)  # 2 smallest normal
                           | (pole & (big_s == 0.0)), math.nan, denominator)
    return top / denominator


def _offsets(alpha: float, theta):
    """|theta| reduced exactly mod alpha (S_alpha is even and alpha-periodic),
    its offsets x1 = pi - theta and x2 = pi + theta to their nearest images,
    within alpha/2 of 0, and the parity of the images' periods."""
    th = np.asarray(theta, dtype=float)
    if not np.isfinite(th).all():  # np.fmod warns on inf
        raise InvalidInput(f"theta must be finite, at alpha = {alpha}")
    th = np.fmod(np.abs(th), alpha)
    k1 = np.rint((math.pi - th) / alpha)
    k2 = np.rint((-math.pi - th) / alpha)
    return (th, math.pi - (th + alpha * k1), math.pi + (th + alpha * k2),
            (k1 + k2) % 2)


def scattering_matrix(alpha: float, theta, c=0.0):
    """Re S_alpha(theta - i c) for scalars or arrays theta and c, broadcast
    (a float for scalar input); c = 0 is the real axis, NaN at its poles.
    theta is reduced exactly by `_offsets`."""
    out = _c_part(alpha, _angle_part_at(alpha, theta), c)
    return float(out) if np.ndim(out) == 0 else out


def _angle_part_at(alpha: float, theta):
    """`_angle_part` at the angles theta, reduced exactly by `_offsets`."""
    numerator = _numerator(alpha)
    th, x1, x2, parity = _offsets(alpha, theta)
    return _angle_part(alpha, numerator, x1, x2, parity, th)


def scattering_matrix_fourier(alpha: float, theta, N: int):
    """Fourier-series oracle (-i/alpha) sum_k e^{-i pi |2 k pi/alpha|}
    e^{-2 i k pi theta/alpha}, truncated at |k| <= N and Cesaro averaged over
    the partial sums (the coefficients do not decay, so the plain partial
    sums do not converge), for scalars or arrays theta (a complex for
    scalar input).

    The coefficients are geometric in k, so the sum is (-i/alpha) (G(phi1)
    + G(phi2) - 1) at phi_i = -2 pi x_i/alpha (x_i from `_offsets`, so
    |phi_i| <= pi), with G(phi) = sum_{k=0..N} (1 - k/(N + 1)) e^{i k phi}
    = (1 + F)/2 + i C: the Fejer kernel and its conjugate (Zygmund,
    Trigonometric Series, ch. III),

        F = (N + 1) (sinc((N + 1) phi/2) / sinc(phi/2))^2,
        C = (sinc(phi) - sinc((N + 1) phi)) / (phi sinc(phi/2)^2),

    and C = phi N (N + 2)/6 where |(N + 1) phi| < 3e-4, whose difference
    cancels (the next term is below 4.5e-9 of it).  Neither the work per
    angle nor the rounding grows with N, held to the array budget.  As
    |Im| <= (N + 1)/alpha (F <= N + 1) and |Re| <= 2 N/alpha (|C| <= N),
    2 pi (N + 1)/alpha bounds them and 2 pi/alpha: it must be finite."""
    check_cone_angle(alpha)
    if not 0 <= N <= geometry.MAX_ARRAY_ELEMENTS:
        raise InvalidInput(f"the Fourier order N must be in [0, "
                           f"{geometry.MAX_ARRAY_ELEMENTS}], got {N}")
    if not math.isfinite(2.0 * math.pi * (N + 1) / alpha):
        raise InvalidInput(f"the Fourier oracle at N = {N}, alpha = {alpha} "
                           f"leaves the double range")
    _, x1, x2, _ = _offsets(alpha, theta)
    m = N + 1.0
    fejer = conjugate = 0.0
    for x in (x1, x2):
        phi = np.ravel((-2.0 * math.pi / alpha) * x)
        half = _sinc(0.5 * phi, np.sin(0.5 * phi))
        wave = m * phi
        fejer += m * (_sinc(0.5 * wave, np.sin(0.5 * wave)) / half)**2
        conjugate += np.divide(
            _sinc(phi, np.sin(phi)) - _sinc(wave, np.sin(wave)),
            phi * half * half, out=(N * (N + 2) / 6.0) * phi,
            where=np.abs(wave) >= 3e-4)
    out = conjugate / alpha - 1j * (fejer / (2.0 * alpha))
    out = out.reshape(np.shape(theta))
    return complex(out) if out.ndim == 0 else out


def _sinc(x, sin_x):
    """sin(x)/x from x and its sine, with the removable singularity filled."""
    return np.divide(sin_x, x, out=np.ones_like(x), where=x != 0.0)


def s_times_cos_half(alpha: float, dtheta):
    """S_alpha(dtheta) * cos(dtheta/2), finite across dtheta = +-pi, for
    scalars or arrays (a float for scalar input).

    Both factors are even in dtheta.  With u = pi - |dtheta| and
    k = pi/alpha, cos(dtheta/2) = sin(u/2) and the denominator of S_alpha is
    sin(k u) sin(k (2 pi - u)), so exactly

        S_alpha cos(dtheta/2) = -sin(2 pi^2/alpha)/(4 pi)
                                * sinc(u/2) / (sinc(k u) sin(k (2 pi - u))),

    which is -1/(4 pi) at the geometric directions u = 0.  The genuine
    poles, where sin(k u) vanishes away from u = 0 (the next zeros are at
    |k u| = pi) or sin(k (2 pi - u)) vanishes, raise GeometricDirection.
    """
    numerator = _numerator(alpha)
    d = np.asarray(dtheta, dtype=float)
    k = math.pi / alpha
    u = math.pi - np.abs(d)
    ku = k * u
    sin_ku = np.sin(ku)
    other = np.sin(k * (2.0 * math.pi - u))
    pole = ((np.abs(sin_ku) < POLE_TOL * k) & (np.abs(ku) > 1.0)
            | (np.abs(other) < POLE_TOL * k))
    if np.any(pole):
        raise GeometricDirection(
            f"S_{alpha}({d[pole][0]}) evaluated at a geometric direction")
    other *= _sinc(ku, sin_ku)
    del ku, sin_ku, pole  # AT-4 passes grids of 150k angles: free them early
    out = (-numerator / (4.0 * math.pi) * _sinc(0.5 * u, np.sin(0.5 * u))
           / other)
    return float(out) if out.ndim == 0 else out


def sine_product_limits_numeric(alpha: float) -> tuple[float, float]:
    """The pair SINE_PRODUCT_LIMITS, Neville-extrapolated to t = 0 from
    t = 1e-6 / 2^j, j = 0..4: S_alpha on the real axis at the offsets
    (-t, 2 pi + t) for S_alpha(-pi - t) and (t, 2 pi - t) for
    S_alpha(pi - t), 2 pi +- t reduced to its nearest image.  No angle
    pi +- t is formed, whose rounding would take the digits the
    extrapolation needs."""
    numerator = _numerator(alpha)
    levels = 5
    ts = 1e-6 / 2.0 ** np.arange(levels)
    near = np.array([[-1.0], [1.0]]) * ts  # rows: incoming, outgoing
    far = 2.0 * math.pi - near
    n = np.rint(far / alpha)
    vals = np.sin(ts) * _c_part(alpha, _angle_part(
        alpha, numerator, near, far - alpha * n, n % 2))
    for order in range(1, levels):
        for i in range(levels - order):
            vals[:, i] = vals[:, i + 1] + (vals[:, i + 1] - vals[:, i]) * (
                ts[i + order] / (ts[i] - ts[i + order]))
    return float(vals[0, 0]), float(vals[1, 0])
