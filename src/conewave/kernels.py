"""Sine and half-wave kernels on flat cones in independent representations.

On the cone of angle 4*pi the sine kernel E(t, q1, q2) has the closed form
(per unit time, away from the fronts):

    0                                                   t < dist(q1, q2)
    (1/2pi) [t^2 - (r1^2 + r2^2 - 2 r1 r2 cos dth)]^(-1/2)   dist < t < r1+r2
    (1/4pi) [  same bracket  ]^(-1/2)                        t > r1 + r2

with dth the reduced angle difference.  The same kernel is reproduced here by
a general-angle Bessel mode sum (Cheeger functional calculus), by a
moving-vertex delta integral, and (see friedlander.py) by the periodized
multivalued plane-wave construction; their mutual agreement is the central
verification of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from .diffraction import regularized_pair_product
from .errors import InvalidInput, ModeTailTooLarge, OnFront, TangentRoot
from .geometry import (ConePoint, angular_separation, check_cone_angle,
                       chart_angle, cone_distance, reduce_angle)
from .special import (Mollifier, damped_moment, find_roots_convex,
                      mollified_delta)

BEFORE_DIRECT = "before_direct"
BETWEEN_FRONTS = "between_fronts"
AFTER_DIFFRACTED = "after_diffracted"
NEAR_FRONT = "near_front"

# Exact-formula front exclusion; mollified evaluations use 10*h instead.
FRONT_TOL = 1e-12


@dataclass(frozen=True)
class KernelQuery:
    """Spacetime evaluation request; h = 0 means the unmollified closed form."""

    t: float
    q1: ConePoint
    q2: ConePoint
    h: float = 0.0

    def __post_init__(self):
        if not (self.t > 0 and math.isfinite(self.t)):
            raise InvalidInput(f"time must be positive and finite, got {self.t}")
        if not (self.h >= 0 and math.isfinite(self.h)):
            raise InvalidInput(f"mollifier width must be finite and >= 0, got {self.h}")
        if self.q1.is_vertex or self.q2.is_vertex:
            raise InvalidInput("pointwise kernel evaluation requires r1, r2 > 0")


@dataclass(frozen=True)
class KernelValue:
    value: complex
    region: str


def classify_region(t: float, direct: float, diffracted: float,
                    tol: float) -> str:
    """Front region of time t given the two front times."""
    if t < direct - tol and t < diffracted - tol:
        return BEFORE_DIRECT
    if direct + tol < t < diffracted - tol:
        return BETWEEN_FRONTS
    if t > diffracted + tol and t > direct + tol:
        return AFTER_DIFFRACTED
    return NEAR_FRONT


def _fronts(alpha: float, q: KernelQuery) -> tuple[float, float, float]:
    """(direct front, diffracted front, reduced angle difference)."""
    direct = cone_distance(alpha, q.q1, q.q2)
    diffracted = q.q1.r + q.q2.r
    dth = angular_separation(alpha, q.q1.theta, q.q2.theta)
    return direct, diffracted, dth


def sine_kernel_4pi_closed(q: KernelQuery) -> KernelValue:
    """Three-region closed form of the sine kernel on C_{4 pi} (h = 0)."""
    direct, diffracted, dth = _fronts(4.0 * math.pi, q)
    if abs(q.t - direct) < FRONT_TOL or abs(q.t - diffracted) < FRONT_TOL:
        raise OnFront(f"t = {q.t} sits on a front of the closed form")
    region = classify_region(q.t, direct, diffracted, FRONT_TOL)
    if region == BEFORE_DIRECT:
        return KernelValue(0.0, region)
    bracket = q.t**2 - (q.q1.r**2 + q.q2.r**2
                        - 2.0 * q.q1.r * q.q2.r * math.cos(dth))
    coeff = 1.0 / (2.0 * math.pi) if region == BETWEEN_FRONTS else 1.0 / (4.0 * math.pi)
    return KernelValue(coeff / math.sqrt(bracket), region)


def plane_kernel_closed(t: float, dist: float) -> float:
    """Sine kernel of the plane: (1/2pi)(t^2 - d^2)^(-1/2) for t > d."""
    if t <= dist:
        return 0.0
    return 1.0 / (2.0 * math.pi * math.sqrt(t * t - dist * dist))


def _region_pieces(alpha: float, r1: float, r2: float, dth: float):
    """[(coeff, tau_start)] pieces of the closed-form kernel, sharing the
    law-of-cosines pseudo-distance d_f in the bracket."""
    d_f = math.sqrt(max(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(dth), 0.0))
    if abs(alpha - 2.0 * math.pi) < 1e-14:
        return d_f, [(1.0 / (2.0 * math.pi), d_f, math.inf)]
    if abs(alpha - 4.0 * math.pi) > 1e-14:
        raise ValueError("closed forms exist only for alpha = 2 pi or 4 pi")
    diffracted = r1 + r2
    if dth <= math.pi:
        return d_f, [
            (1.0 / (2.0 * math.pi), d_f, diffracted),
            (1.0 / (4.0 * math.pi), diffracted, math.inf),
        ]
    return d_f, [(1.0 / (4.0 * math.pi), diffracted, math.inf)]


def sine_kernel_closed_mollified(alpha: float, t: float, r1: float, r2: float,
                                 dth: float, h: float, tderiv: int = 0,
                                 n_nodes: int = 120) -> float:
    """Gaussian-in-time mollification of the closed-form kernels.

    alpha must be 2*pi or 4*pi; dth is the reduced angle difference.  The
    convolution integral is desingularized with tau = d_f cosh(v) so plain
    Gauss-Legendre converges fast.  tderiv in {0, 1} selects the kernel or
    its time derivative (mollifier differentiated).
    """
    if tderiv not in (0, 1):
        raise ValueError("tderiv must be 0 or 1")
    d_f, pieces = _region_pieces(alpha, r1, r2, dth)
    moll = Mollifier(h)
    half_width = 9.0 * h

    def weight(u):
        rho = mollified_delta(moll, u)
        return rho if tderiv == 0 else -u / (h * h) * rho

    total = 0.0
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    for coeff, tau_a, tau_b in pieces:
        lo = max(tau_a, t - half_width, d_f + 1e-300)
        hi = min(tau_b, t + half_width)
        if hi <= lo:
            continue
        v_lo = math.acosh(max(lo / d_f, 1.0)) if d_f > 0 else 0.0
        if d_f > 0:
            v_hi = math.acosh(hi / d_f)
            v = 0.5 * (v_hi - v_lo) * nodes + 0.5 * (v_hi + v_lo)
            tau = d_f * np.cosh(v)
            jac = 0.5 * (v_hi - v_lo)
        else:  # coincident points: bracket is just t^2
            tau = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            jac = 0.5 * (hi - lo) / tau  # d tau / tau for (tau^2)^(-1/2)
        total += coeff * jac * float(np.sum(weights * weight(t - tau)))
    return total


def _masked_bessel(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_nu(x) on the outer grid, skipping the (nu >> x) underflow region."""
    thresh = nu[:, None] - 9.0 * np.cbrt(np.maximum(nu[:, None], 1.0)) - 14.0
    mask = x[None, :] >= thresh
    out = np.zeros((nu.size, x.size))
    idx_nu, idx_x = np.nonzero(mask)
    out[idx_nu, idx_x] = scipy.special.jv(nu[idx_nu], x[idx_x])
    return out


def cheeger_series_sweep(alpha: float, ts, r1: float, r2: float,
                         dtheta_signed: float, h: float,
                         mode_cut: int | None = None,
                         tail_tol: float = 1e-8) -> np.ndarray:
    """Cheeger mode sum evaluated on a batch of times (shared geometry).

    The Bessel products are time independent, so a whole t sweep costs one
    matrix-vector product per time on top of a single Bessel table.
    """
    check_cone_angle(alpha)
    if not h > 0:
        raise InvalidInput("the mode sum requires a positive mollifier width")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    lam_max = math.sqrt(2.0 * math.log(1e13)) / h
    rmax = max(r1, r2)
    if mode_cut is None:
        x_max = lam_max * rmax
        nu_max = x_max + 9.0 * x_max ** (1.0 / 3.0) + 14.0
        mode_cut = int(math.ceil(nu_max * alpha / (2.0 * math.pi)))

    max_freq = float(ts.max()) + r1 + r2
    # 12 Gauss nodes per period of sin(lam * max_freq) on [0, lam_max]
    n_lam = max(256, int(lam_max * 12 * max_freq / (2.0 * math.pi)))
    panel = 2048
    n_panels = max(1, -(-n_lam // panel))
    nodes, weights = np.polynomial.legendre.leggauss(min(n_lam, panel))
    edges = np.linspace(0.0, lam_max, n_panels + 1)
    lam = np.concatenate([0.5 * (b - a) * nodes + 0.5 * (b + a)
                          for a, b in zip(edges[:-1], edges[1:])])
    wq = np.concatenate([0.5 * (b - a) * weights
                         for a, b in zip(edges[:-1], edges[1:])])

    nu = 2.0 * math.pi * np.arange(mode_cut + 1) / alpha
    j1 = _masked_bessel(nu, lam * r1)
    j2 = j1 if r2 == r1 else _masked_bessel(nu, lam * r2)
    damped = np.exp(-0.5 * (h * lam) ** 2) * wq
    # integrals[k, i] = int sin(lam t_i) e^{-h^2 lam^2/2} J J d lam
    integrals = (j1 * j2) @ (np.sin(np.outer(lam, ts)) * damped[:, None])

    coeffs = np.full(mode_cut + 1, 2.0)
    coeffs[0] = 1.0
    mode_weights = (coeffs / alpha) * np.cos(nu * dtheta_signed)
    terms = mode_weights[:, None] * integrals
    values = terms.sum(axis=0)
    tail = np.abs(terms[-1]) + np.abs(terms[-2])
    if np.any(tail > tail_tol * np.maximum(np.abs(values), 1e-30)):
        worst = int(np.argmax(tail))
        raise ModeTailTooLarge(
            f"last modes contribute {tail[worst]:.2e} relative to "
            f"{values[worst]:.2e} at t = {ts[worst]}")
    return values


def sine_kernel_cheeger_series(alpha: float, q: KernelQuery,
                               mode_cut: int | None = None,
                               tail_tol: float = 1e-8) -> KernelValue:
    """Bessel mode sum for the mollified sine kernel on C_alpha.

    E_h = (2/alpha) * sum_k e^{i nu_k (th1 - th2)} * (1/2) *
          int_0^inf sin(lambda t) e^{-h^2 lambda^2/2}
                    J_{|nu_k|}(lambda r1) J_{|nu_k|}(lambda r2) d lambda,

    nu_k = 2 pi k / alpha, which at alpha = 4 pi is the half-integer-order
    sum with prefactor 1/(4 pi).  The lambda integrals only converge thanks
    to the mollifier, so h > 0 is required.
    """
    dth_signed = reduce_angle(alpha, q.q1.theta - q.q2.theta)
    value = float(cheeger_series_sweep(alpha, q.t, q.q1.r, q.q2.r, dth_signed,
                                       q.h, mode_cut, tail_tol)[0])
    direct, diffracted, _ = _fronts(alpha, q)
    return KernelValue(value, classify_region(q.t, direct, diffracted, 10.0 * q.h))


def _moving_point_frame(q: KernelQuery, eps: int) -> tuple[np.ndarray, np.ndarray]:
    """Plane coordinates of (q1, q2) in the eps moving-vertex chart of C_{4pi}.

    q1 is placed at a chart angle in (-pi/2, pi/2) and q2 at the reduced
    separation on the far side of the vertex-shift line, mirrored for
    eps = +1.  Any configuration with a positive reduced separation embeds.
    """
    alpha = 4.0 * math.pi
    dth = angular_separation(alpha, q.q1.theta, q.q2.theta)
    if dth < 1e-8:
        raise ValueError("coincident angular coordinates do not embed in the "
                         "moving-vertex chart")
    lo = max(-0.5 * math.pi, 0.5 * math.pi - dth) + 1e-9
    hi = min(0.5 * math.pi, 1.5 * math.pi - dth) - 1e-9
    phi1 = 0.5 * (lo + hi)
    phi2 = phi1 + dth
    if eps == +1:
        phi1, phi2 = -phi1, -phi2
    p1 = np.array([q.q1.r * math.cos(phi1), q.q1.r * math.sin(phi1)])
    p2 = np.array([q.q2.r * math.cos(phi2), q.q2.r * math.sin(phi2)])
    return p1, p2


def _moving_radii(x1: np.ndarray, x2: np.ndarray, shift: np.ndarray,
                  s: float):
    """(r1(s), r2(s), v1, v2): offsets of x1, x2 from the vertex moved to
    s * shift, and their lengths."""
    v1 = x1 - s * shift
    v2 = x2 - s * shift
    return math.hypot(*v1), math.hypot(*v2), v1, v2


def sine_kernel_moving_point(q: KernelQuery, eps: int = -1) -> KernelValue:
    """Moving-vertex representation of the C_{4pi} sine kernel (h = 0).

    The vertex is shifted a distance s along the cut direction; the kernel is
    the integral over s >= 0 of a delta on the shifted diffracted front,
    which collapses to a sum over the roots of
    g(s) = r1(s) + r2(s) - t, each contributing

        (1/8 pi) (r1(s) r2(s))^(-1/2) |cos(dtheta(s)/2)|^(-1).
    """
    if eps not in (+1, -1):
        raise ValueError("eps must be +1 or -1")
    x1, x2 = _moving_point_frame(q, eps)
    shift = np.array([0.0, 1.0 if eps == -1 else -1.0])

    def g(s):
        r1s, r2s, _, _ = _moving_radii(x1, x2, shift, s)
        return r1s + r2s - q.t

    s_max = q.t + abs(x1[1]) + abs(x2[1]) + 1.0
    roots = find_roots_convex(g, s_max)
    total = 0.0
    for s in roots:
        r1s, r2s, v1, v2 = _moving_radii(x1, x2, shift, s)
        dg = -(v1 @ shift) / r1s - (v2 @ shift) / r2s
        # |g'| ~ sqrt(2 curvature (t - t_front)); below 1e-6 the evaluation
        # time is within ~1e-13 of the front and the contribution diverges
        if abs(dg) < 1e-6:
            raise TangentRoot(f"front tangency at s = {s}")
        cos_dth = float(v1 @ v2) / (r1s * r2s)
        half_cos = math.sqrt(max(0.5 * (1.0 + cos_dth), 0.0))
        total += 1.0 / (8.0 * math.pi * math.sqrt(r1s * r2s) * half_cos)

    direct, diffracted, _ = _fronts(4.0 * math.pi, q)
    return KernelValue(total, classify_region(q.t, direct, diffracted, FRONT_TOL))


def gauss_hermite_mollify(f, t: float, h: float, n: int = 48) -> float:
    """Gaussian time mollification of a pointwise kernel t -> f(t) by
    Gauss-Hermite quadrature (suitable away from fronts)."""
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    taus = t + math.sqrt(2.0) * h * nodes
    vals = np.array([f(tau) for tau in taus])
    return float(np.sum(weights * vals) / math.sqrt(math.pi))


def spherical_wave_l(j: int, t: float, q: ConePoint, moll: Mollifier) -> complex:
    """Mollified spherical wave l_{+-1}(t) = (4 pi sqrt(r))^(-1) delta(t - r)
    exp(-+ i theta / 2) on C_{4 pi}."""
    if j not in (+1, -1):
        raise ValueError("j must be +1 or -1")
    if not q.r > 0:
        raise ValueError("r must be positive")
    amp = mollified_delta(moll, t - q.r) / (4.0 * math.pi * math.sqrt(q.r))
    return amp * np.exp(-0.5j * j * q.theta)


def upsilon0(t: float, q1: ConePoint, q2: ConePoint, dir_theta: float,
             moll: Mollifier) -> float:
    """Mollified kernel of the commutator of a unit constant vector field in
    direction dir_theta with the sine propagator on C_{4 pi}:

        (4 pi sqrt(r1 r2))^(-1) delta(t - r1 - r2)
            cos((theta1 + theta2)/2 - dir_theta).
    """
    if not (q1.r > 0 and q2.r > 0):
        raise ValueError("radii must be positive")
    amp = mollified_delta(moll, t - q1.r - q2.r) / (
        4.0 * math.pi * math.sqrt(q1.r * q2.r))
    return amp * math.cos(0.5 * (q1.theta + q2.theta) - dir_theta)


def halfwave_mu_4pi(t: float, q1: ConePoint, q2: ConePoint,
                    moll: Mollifier) -> complex:
    """Half-wave kernel on C_{4 pi} as the boundary-parameter oscillatory
    integral

        (-i/4 pi^2) int_{s>=0} int_{w>0} e^{i (r1(s)+r2(s)-t) w}
            sin((th1(s)+th2(s))/2) (r1(s) r2(s))^(-1/2) w dw ds,

    frequency-mollified by e^{-h^2 w^2 / 2}.  The w integral is the closed
    form damped_moment(r1(s) + r2(s) - t, h, 2); the s integral is adaptive
    with the front roots supplied as break points.
    """
    h = moll.width_h
    query = KernelQuery(t, q1, q2, h)
    x1, x2 = _moving_point_frame(query, eps=-1)
    shift = np.array([0.0, 1.0])

    def integrand(s):
        r1s, r2s, v1, v2 = _moving_radii(x1, x2, shift, s)
        th1 = chart_angle(-1, v1[0], v1[1])
        th2 = chart_angle(-1, v2[0], v2[1])
        amp = math.sin(0.5 * (th1 + th2)) / math.sqrt(r1s * r2s)
        return (-1j / (4.0 * math.pi**2)) * amp * damped_moment(
            r1s + r2s - t, h, 2.0)

    def g(s):  # a sum of two distances, hence convex
        r1s, r2s, _, _ = _moving_radii(x1, x2, shift, s)
        return r1s + r2s - t

    s_max = t + abs(x1[1]) + abs(x2[1]) + 1.0
    breaks = find_roots_convex(g, s_max)
    points = sorted({0.0, *breaks, s_max})
    re, _ = scipy.integrate.quad(lambda s: integrand(s).real, 0.0, s_max,
                                 points=points[1:-1] or None, limit=300)
    im, _ = scipy.integrate.quad(lambda s: integrand(s).imag, 0.0, s_max,
                                 points=points[1:-1] or None, limit=300)
    return complex(re, im)


def hw_leading_amplitude(alpha: float, eps: int, q1: ConePoint,
                         q2: ConePoint) -> complex:
    """Leading (order-one-in-frequency) half-wave amplitude at s = 0:

        -+ 2 pi i S_alpha(th1 - th2) (r1 r2)^(-1/2) [sin th1 + sin th2],

    the upper sign for eps = +1.  Angles are chart angles of the eps-chart
    (q1 near 0, q2 near -+ pi); the product with the sine factor is evaluated
    in regularized form so geometric directions stay finite.
    """
    check_cone_angle(alpha)
    if eps not in (+1, -1):
        raise ValueError("eps must be +1 or -1")
    if not (q1.r > 0 and q2.r > 0):
        raise ValueError("radii must be positive")
    product = regularized_pair_product(alpha, q1.theta, q2.theta)
    return -eps * 2.0j * math.pi * product / math.sqrt(q1.r * q2.r)
