"""Sine and half-wave kernels on flat cones in independent representations.

On the cone of angle 4*pi the sine kernel E(t, q1, q2) has the closed form
(per unit time, away from the fronts):

    0                                                   t < dist(q1, q2)
    (1/2pi) [t^2 - (r1^2 + r2^2 - 2 r1 r2 cos dth)]^(-1/2)   dist < t < r1+r2
    (1/4pi) [  same bracket  ]^(-1/2)                        t > r1 + r2

with dth the reduced angle difference; on the plane (2*pi) the 1/2pi piece
runs on past r1 + r2.  The same kernel is reproduced here by a general-angle
Bessel mode sum (Cheeger functional calculus), by a moving-vertex delta
integral, and (see friedlander.py) by the periodized multivalued plane-wave
construction; their mutual agreement is the central verification.  The
half-wave kernel, of e^{-i t sqrt(Delta)}, is the same mode sum weighted by
lambda e^{-i lambda t}: its real part is the time derivative of the sine
kernel.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, QuadratureFailure
from .geometry import (ConePoint, _length_scale, angular_separation,
                       check_array_size, cone_distance)
from .special import (Mollifier, find_roots_convex, gauss_legendre,
                      mollified_delta)

BEFORE_DIRECT = "before_direct"
BETWEEN_FRONTS = "between_fronts"
AFTER_DIFFRACTED = "after_diffracted"
NEAR_FRONT = "near_front"

# Half-width of a front of an exact kernel, relative to r1 + r2; a kernel
# mollified at width h widens each front by 10 h instead.
FRONT_TOL = 1e-12

# Arrays of the size of its points that the moving-vertex kernel holds at
# once, at most (its budget check counts them all).
MOVING_ARRAYS = 32

# The Cheeger mode sum is converged when its last two modes contribute at
# most this fraction of the value.
MODE_TAIL_TOL = 1e-8

# Lambda quadrature of the mode sum: Gauss-Legendre panels of LAM_PANEL
# nodes on [0, lam_max], sized at LAM_NODES_PER_PERIOD nodes per period of
# the fastest phase, sin(lam * max_freq) with max_freq = t_max + r1 + r2,
# and at least one panel: 64-node panels round that need up by at most 63
# nodes (a need of 170 takes 192, where 256-node panels took 256).  The
# error of an n-node Gauss rule for e^{i w x} on [-1, 1] falls
# geometrically once n exceeds w/2, i.e. pi/2 nodes per period, and 3 per
# period is nearly twice that.  At lam = 0 the factor J_nu(lam r1)
# J_nu(lam r2) ~ lam^(2 nu) is not smooth when 2 nu is not an integer
# (unless 4 pi / alpha is an integer), and a Gauss rule converges only
# algebraically there.  So the first panel starts at
# LAM_GRADED_EDGES[-1] of its width, and [0, that] is split at the other
# fractions into panels of LAM_GRADED_NODES nodes (at least 3 per period
# as well).  Against a 16-nodes-per-period rule graded 12 times by 1/5,
# this stays within 1.8e-14 of the peak over 36 sweeps across both fronts
# (alpha from pi to 50, h = 0.03 and 0.06; 256-node panels read 6.1e-14
# there); ungraded, on 256-node panels, it reached 1.0e-10 at 3pi, 2.2e-9
# at 5pi and 3.7e-8 at alpha = 20.
LAM_NODES_PER_PERIOD = 3
LAM_PANEL = 64
LAM_GRADED_EDGES = (16.0**-4, 16.0**-3, 16.0**-2, 16.0**-1)
LAM_GRADED_NODES = 32

# Bessel table of the mode sum, from Bessel's integral (Watson, Treatise,
# 6.2) folded about tau = pi/2 (u = pi/2 - tau), for x > 0:
#     J_nu(x) = (2/pi) int_0^{pi/2} cos(nu u) cos(x cos u - nu pi/2) du
#               - (sin(nu pi)/pi) int_0^inf e^{-x sinh s - nu s} ds.
# The u integrand is entire and its phases turn at rate at most nu + x: it
# takes equal Gauss-Legendre panels of BESSEL_U_PANEL nodes on [0, pi/2],
# at least BESSEL_U_NODES (nu_max + x_max) nodes in all, 3.8 per period of
# the fastest phase (the table converges at 3.1).  The s integrand falls
# on the scale 1/(nu + x) from s = 0 and double-exponentially past
# asinh(1/x): panels of BESSEL_S_PANEL nodes between 0, BESSEL_S_GRADED_EDGES
# and steps of 2 up to asinh(50/x_min) + 3 (within 3.2e-15 relative of a
# rule twice as fine for x from 1e-30 to 2000 and nu from 1e-4 to 2000).
# Below BESSEL_X_TINY, J_nu(x) = J_nu(X) (x/X)^nu up to a factor 1 +
# O(X^2), so the table is taken at X = BESSEL_X_TINY and scaled: that keeps
# the s rule short and gives J_nu(0).  Against mpmath (30 digits) at the
# 30 points of largest disagreement with scipy's jv and 200 random points
# of each of seven mode-sum tables (alpha from 0.5 to 50, h from 0.01 to
# 0.2, r from 0.1 to 1.2; five random draws), the table is within 2.6e-15
# absolute; jv was up to 2.7e-14 off, near nu = x.
BESSEL_U_NODES = 0.3 * math.pi
BESSEL_U_PANEL = 32
BESSEL_S_GRADED_EDGES = tuple(2.0**k for k in range(-12, 1))
BESSEL_S_PANEL = 16
BESSEL_X_TINY = 1e-30

# nodes of the Gauss-Hermite rule of `gauss_hermite_mollify`
HERMITE_NODES = 48


@dataclass(frozen=True)
class KernelQuery:
    """Spacetime point (t, q1, q2); a mollifier width h is passed on its own."""

    t: float
    q1: ConePoint
    q2: ConePoint

    def __post_init__(self):
        if not (self.t > 0 and math.isfinite(self.t)):
            raise InvalidInput(f"time must be positive and finite, got {self.t}")
        if self.q1.is_vertex or self.q2.is_vertex:
            raise InvalidInput("pointwise kernel evaluation requires r1, r2 > 0")


@dataclass(frozen=True)
class KernelValue:
    value: complex


def front_region(alpha: float, ts, r1: float, r2: float, dtheta: float,
                 h: float = 0.0) -> np.ndarray:
    """Front region of each time of a sweep on C_alpha, one label per t;
    dtheta is any representative of theta1 - theta2.  The fronts are the
    diffracted one, r1 + r2, and the direct one of every image
    z_k = dtheta + alpha k with |z_k| <= pi (alpha < 2 pi has more than
    one); before_direct ends at the nearest, `cone_distance`.  Each front
    widens by 10 h for a kernel mollified at width h > 0, and by FRONT_TOL
    (r1 + r2) for an exact one (h = 0): the band where `sine_kernel_closed`
    raises InvalidInput.  The direct front is taken at the lengths over a
    power of two near r1 + r2, as the closed form takes it, so that the
    squares of the radii neither underflow nor overflow."""
    if not 0.0 <= h < math.inf:
        raise InvalidInput(f"the width h must be finite and >= 0, got {h}")
    ts = _sweep_times(ts, r1, r2)
    diffracted = r1 + r2
    scale = _length_scale(diffracted)
    direct = scale * cone_distance(alpha, ConePoint(r1 / scale, dtheta),
                                   ConePoint(r2 / scale, 0.0))
    tol = 10.0 * h if h > 0 else FRONT_TOL * diffracted
    # no searchsorted: at dtheta = pi, direct can round an ulp past r1 + r2
    labels = np.where(ts < direct, BEFORE_DIRECT,
                      np.where(ts < diffracted, BETWEEN_FRONTS,
                               AFTER_DIFFRACTED))
    for front in (direct, diffracted):
        labels[(front - tol <= ts) & (ts <= front + tol)] = NEAR_FRONT
    if alpha < 2.0 * math.pi:  # else the nearest image is the only one
        # a time past 3 (r1 + r2) is near no front, and a band wider than
        # r1 + r2 holds none that the two bands above miss
        tau = np.clip(ts, -3.0 * diffracted, 3.0 * diffracted) / scale
        labels[_near_an_image_front(alpha, tau, r1 / scale, r2 / scale,
                                    angular_separation(alpha, dtheta, 0.0),
                                    min(tol, diffracted) / scale)] = NEAR_FRONT
    return labels


def _near_an_image_front(alpha: float, tau: np.ndarray, a: float, b: float,
                         z: float, tol: float) -> np.ndarray:
    """Whether each time tau lies within tol of the direct front of an
    image +-z + alpha k in [0, pi] of the radii a and b (lengths over a
    power of two near a + b).  That front is at d with
    d^2 = (a - b)^2 + 4 a b sin^2(z_k/2), increasing in |z_k|, so the band
    [tau - tol, tau + tol] is an angle interval [lo, hi] in [0, pi], which
    holds a front where one of the lattices +-z + alpha Z has a point in
    it: no array per image."""
    gap = abs(a - b)
    edges = np.clip([tau - tol, tau + tol], gap, a + b)
    sin2 = (edges - gap) * (edges + gap) / (4.0 * a * b)
    lo, hi = 2.0 * np.arcsin(np.sqrt(np.minimum(sin2, 1.0)))
    met = np.zeros(tau.shape, dtype=bool)
    for s in (z, -z):
        # the lattice's first point at or past lo is lo + (ahead mod alpha)
        ahead = np.fmod(s - lo, alpha)
        met |= np.where(ahead < 0.0, ahead + alpha, ahead) <= hi - lo
    return met & (gap <= tau + tol) & (tau - tol <= a + b)


def _unscale(values, scale, degree: int = 1):
    """Values of a kernel homogeneous of degree -degree at the lengths over
    `scale` (a power of two, or an array of them), taken to the caller's
    lengths.  InvalidInput if one leaves the double range, checked before
    numpy divides: |v| / scale overflows just where |v| passes
    DBL_MAX min(scale, 1), an exact product."""
    for _ in range(degree):  # one division each: scale**2 can overflow
        if type(values) is float:  # inf, not a warning
            outside = not math.isfinite(values / scale)
        else:
            outside = np.any(np.abs(values)
                             > sys.float_info.max * np.minimum(scale, 1.0))
        if outside:
            raise InvalidInput("kernel value outside the double range")
        values = values / scale
    return values


def _sweep_times(ts, *lengths) -> np.ndarray:
    """The times of a sweep as an array, refused unless there is at least
    one and all are finite, or unless the lengths (r1, r2 and a width h;
    floats or arrays, broadcast together) are positive at every point with
    a finite sum.  The sum is taken at a quarter of the lengths, where
    three cannot overflow and where it is finite just where the sum is."""
    bad = ~functools.reduce(np.logical_and,
                            [(0.0 < x) & (x < math.inf) for x in lengths])
    bad |= sum(np.where(bad, 0.0, 0.25 * x)
               for x in lengths) > 0.25 * sys.float_info.max
    if bad.any():
        first = (float(np.broadcast_to(x, bad.shape)[bad][0]) for x in lengths)
        raise InvalidInput(f"the sweep needs r1, r2 (and h) > 0 with a finite "
                           f"sum, got {tuple(first)}")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not (ts.size and np.isfinite(ts).all()):
        raise InvalidInput("the sweep needs at least one time, all finite")
    return ts


def sine_kernel_closed(alpha: float, ts, r1, r2, dtheta):
    """Closed form of the sine kernel on C_{2pi} or C_{4pi} (h = 0),
    elementwise in (t, r1, r2, dtheta) broadcast together, a float when all
    four are scalars: coeff (t^2 - d2)^(-1/2) on each piece of
    `_region_pieces`, 0 before the first; dtheta is any representative of
    theta1 - theta2.  A t within FRONT_TOL (r1 + r2) of a piece start
    raises InvalidInput, naming the first such t: at 4 pi where
    `front_region` says NEAR_FRONT, at 2 pi only at the direct front.  Each
    point is taken at the lengths over a power of two near its r1 + r2, an
    exact scaling (the kernel is homogeneous of degree -1) that keeps the
    squares in range."""
    scalar = not any(map(np.ndim, (ts, r1, r2, dtheta)))
    times, r1, r2, dtheta = np.broadcast_arrays(_sweep_times(ts, r1, r2),
                                                r1, r2, dtheta)
    scale = _length_scale(r1 + r2)
    with np.errstate(over="ignore"):  # inf, refused below
        tau = times / scale
        far = ~np.isfinite(2.0 * tau * tau)
    if far.any():
        raise InvalidInput(f"t / (r1 + r2) = {float(np.abs(tau[far]).max())}: "
                           f"its square overflows")
    d2, pieces = _region_pieces(alpha, r1 / scale, r2 / scale,
                                angular_separation(alpha, dtheta, 0.0))
    tol = FRONT_TOL * (r1 + r2) / scale
    near = np.zeros(tau.shape, dtype=bool)
    values = np.zeros(tau.shape)
    for coeff, start, end in pieces:
        near |= (start - tol <= tau) & (tau <= start + tol)
        inside = (start < tau) & (tau < end)
        values[inside] = coeff / np.sqrt(tau[inside] ** 2 - d2[inside])
    if near.any():
        raise InvalidInput(f"t = {times[near][0]} sits on a front of the closed form")
    values = _unscale(values, scale)
    return float(values[0]) if scalar else values


def _region_pieces(alpha: float, r1, r2, dth):
    """(d2, [(coeff, tau_start, tau_end)]): the closed-form kernel is coeff
    (tau^2 - d2)^(-1/2) on each piece, d2 the squared law-of-cosines
    distance; elementwise for arrays, where a piece that a point lacks
    starts at its end."""
    # libm's cos, as `geometry.cone_distance` takes it: numpy's own may
    # round otherwise in the last bit
    cos = np.vectorize(math.cos, otypes=[float])(dth)
    d2 = np.maximum(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * cos, 0.0)
    d_f = np.sqrt(d2)
    if abs(alpha - 2.0 * math.pi) < 1e-14:
        return d2, [(1.0 / (2.0 * math.pi), d_f, math.inf)]
    if abs(alpha - 4.0 * math.pi) > 1e-14:
        raise InvalidInput("closed forms exist only for alpha = 2 pi or 4 pi")
    diffracted = r1 + r2
    return d2, [
        (1.0 / (2.0 * math.pi), np.where(dth <= math.pi, d_f, diffracted),
         diffracted),
        (1.0 / (4.0 * math.pi), diffracted, math.inf),
    ]


def sine_kernel_closed_mollified(alpha: float, ts, r1: float, r2: float,
                                 dtheta: float, h: float, tderiv: int = 0):
    """Gaussian-in-time mollification of `sine_kernel_closed` at each time
    of ts, a float for a scalar t.

    alpha must be 2*pi or 4*pi; dtheta is any representative of the angle
    difference theta1 - theta2.  The convolution integral is desingularized
    with tau = d_f cosh(v) so plain 120-node Gauss-Legendre converges fast,
    one rule per time and piece.  tderiv in {0, 1} selects the kernel or its
    time derivative (mollifier differentiated), the real part of the
    half-wave kernel.  Like `sine_kernel_closed` it is taken at the lengths
    (times and h too) over a power of two near r1 + r2: the kernel is
    homogeneous of degree -1 and its time derivative of degree -2.
    """
    if tderiv not in (0, 1):
        raise InvalidInput("tderiv must be 0 or 1")
    times = _sweep_times(ts, r1, r2, h)
    check_array_size(times.size * 120, "the quadrature block")
    scale = _length_scale(r1 + r2)
    times, h = times / scale, h / scale
    d2, pieces = _region_pieces(alpha, r1 / scale, r2 / scale,
                                angular_separation(alpha, dtheta, 0.0))
    d_f = math.sqrt(d2)
    moll = Mollifier(h)
    half_width = 9.0 * h

    total = np.zeros_like(times)
    for coeff, tau_a, tau_b in pieces:
        lo = np.maximum(np.maximum(tau_a, times - half_width), d_f + 1e-300)
        hi = np.minimum(tau_b, times + half_width)
        some = hi > lo
        if not some.any():
            continue
        if d_f > 0:
            # libm's acosh: numpy's SIMD arccosh is an ulp off it in about one
            # case in six, and these edges set AT-5's figure to the last digit
            v, weights = gauss_legendre(
                [[math.acosh(max(a / d_f, 1.0)), math.acosh(b / d_f)]
                 for a, b in zip(lo[some].tolist(), hi[some].tolist())], 120)
            tau = d_f * np.cosh(v)
        else:  # coincident points: bracket is just t^2
            tau, weights = gauss_legendre(
                np.stack([lo[some], hi[some]], axis=-1), 120)
            weights = weights / tau  # d tau / tau for (tau^2)^(-1/2)
        u = times[some, None] - tau
        rho = mollified_delta(moll, u)
        total[some] += coeff * np.sum(
            weights * (rho if tderiv == 0 else -u / (h * h) * rho), axis=-1)
    total = _unscale(total, scale, 1 + tderiv)
    return total if np.ndim(ts) else float(total[0])


def _masked_bessel(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_nu(x), nu >= 0 and x >= 0, on the outer grid (modes by points) from
    Bessel's integral (see BESSEL_U_NODES): two real matrix products for the
    u term and one for the s term, within 2.6e-15 absolute of mpmath where
    measured.  The (nu >> x) region, where |J_nu(x)| <= 1e-17, is zeroed.
    Every array is checked against the budget before it is allocated."""
    n_panels = max(1, math.ceil(BESSEL_U_NODES * (nu.max() + x.max())
                                / BESSEL_U_PANEL))
    xs = np.maximum(x, BESSEL_X_TINY)
    s_max = math.asinh(50.0 / float(xs.min())) + 3.0
    s_edges = np.concatenate(((0.0, *BESSEL_S_GRADED_EDGES),
                              np.arange(3.0, s_max + 2.0, 2.0)))
    wide = max(nu.size, x.size)
    check_array_size(nu.size * x.size, "the Bessel table")
    check_array_size(n_panels * BESSEL_U_PANEL * wide,
                     "the u rule of the Bessel table")
    check_array_size((s_edges.size - 1) * BESSEL_S_PANEL * wide,
                     "the s rule of the Bessel table")
    u, wu = gauss_legendre(np.linspace(0.0, 0.5 * math.pi, n_panels + 1),
                           BESSEL_U_PANEL)
    phase = np.outer(np.cos(u), xs)
    weights = wu * np.cos(np.outer(nu, u))
    half = 0.5 * math.pi * np.remainder(nu, 4.0)  # nu pi/2, reduced exactly
    out = np.cos(half)[:, None] * (weights @ np.cos(phase))
    out += np.sin(half)[:, None] * (weights @ np.sin(phase, out=phase))
    s, ws = gauss_legendre(s_edges, BESSEL_S_PANEL)
    decay = (ws * np.exp(-np.outer(nu, s))) @ np.exp(-np.outer(np.sinh(s), xs))
    out = (2.0 * out - np.sin(math.pi * np.remainder(nu, 2.0))[:, None]
           * decay) / math.pi
    tiny = x < BESSEL_X_TINY
    out[:, tiny] *= (x[tiny] / BESSEL_X_TINY) ** nu[:, None]
    thresh = nu[:, None] - 9.0 * np.cbrt(np.maximum(nu[:, None], 1.0)) - 14.0
    out[x[None, :] < thresh] = 0.0
    return out


def _mode_cut(alpha: float, x_max: float) -> float:
    """Mode index, before rounding up, past which every Bessel factor
    J_nu(x) with x <= x_max is negligible (|J_nu(x)| <= 1e-16 for x_max up
    to 400, below the 2.6e-15 error of the table itself).  Its margin is
    smaller than the mask's of `_masked_bessel`, so the first modes past
    the cut are not all masked there."""
    nu_max = x_max + 9.0 * x_max ** (1.0 / 3.0) + 14.0
    return nu_max * alpha / (2.0 * math.pi)


def _lambda_rule(lam_max: float, n_panels: int):
    """Nodes and weights on [0, lam_max]: n_panels equal Gauss-Legendre
    panels of LAM_PANEL nodes, the first graded toward 0."""
    width = lam_max / n_panels
    graded = gauss_legendre(width * np.array((0.0, *LAM_GRADED_EDGES)),
                            LAM_GRADED_NODES)
    uniform = gauss_legendre(
        width * np.array((LAM_GRADED_EDGES[-1], *range(1, n_panels + 1))),
        LAM_PANEL)
    return tuple(map(np.concatenate, zip(graded, uniform)))


def _mode_table(alpha: float, ts, r1: float, r2: float, dtheta_signed: float,
                h: float):
    """(ts, lam, rows) of a mode sum: the times as an array, the lambda
    nodes, and over them the density sum_k w_k J_nu(lam r1) J_nu(lam r2),
    w_k = (c_k/alpha) cos(nu_k dtheta) with c_0 = 1 and c_k = 2, then its
    last and second-to-last terms, all times the quadrature weights and
    e^{-h^2 lam^2/2}.  Every array, graded nodes included, is checked
    against the budget before it is allocated."""
    dtheta = angular_separation(alpha, dtheta_signed, 0.0)  # cos is even
    ts = _sweep_times(ts, r1, r2, h)
    lam_max = math.sqrt(2.0 * math.log(1e13)) / h
    mode_cut = _mode_cut(alpha, lam_max * max(r1, r2))
    max_freq = float(ts.max()) + r1 + r2
    n_lam = lam_max * LAM_NODES_PER_PERIOD * max_freq / (2.0 * math.pi)
    if not (math.isfinite(mode_cut) and math.isfinite(n_lam)):  # int() refuses inf
        raise InvalidInput(f"h = {h}, t = {ts.max()}, alpha = {alpha}: sizes overflow")
    mode_cut = int(math.ceil(mode_cut))
    n_panels = max(1, -(-int(n_lam) // LAM_PANEL))
    n_nodes = n_panels * LAM_PANEL + len(LAM_GRADED_EDGES) * LAM_GRADED_NODES
    check_array_size(n_nodes * ts.size, "the phase block")
    lam, wq = _lambda_rule(lam_max, n_panels)

    nu = 2.0 * math.pi * np.arange(mode_cut + 1) / alpha
    bessel = np.multiply(*np.split(
        _masked_bessel(nu, np.concatenate([lam * r1, lam * r2])), 2, axis=1))
    weights = (2.0 / alpha) * np.cos(nu * dtheta)
    weights[0] /= 2.0  # c_0 = 1
    rows = np.stack([weights @ bessel, weights[-1] * bessel[-1],
                     weights[-2] * bessel[-2]])
    return ts, lam, rows * (np.exp(-0.5 * (h * lam) ** 2) * wq)


def _mode_sum(integrals: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """integrals[0] at each time t_i, refused unless the last two modes,
    integrals[1:3], are within MODE_TAIL_TOL of it everywhere."""
    values = integrals[0]
    tail = np.abs(integrals[1]) + np.abs(integrals[2])
    if np.any(tail > MODE_TAIL_TOL * np.maximum(np.abs(values), 1e-30)):
        worst = int(np.argmax(tail))
        raise QuadratureFailure(
            f"last modes contribute {tail[worst]:.2e} relative to "
            f"{values[worst]:.2e} at t = {ts[worst]}")
    return values


def cheeger_series_sweep(alpha: float, ts, r1: float, r2: float,
                         dtheta_signed: float, h: float) -> np.ndarray:
    """Cheeger mode sum of the mollified sine kernel on a batch of times.

    Any representative of theta1 - theta2 will do for dtheta_signed.  The
    spectral density does not depend on t: the modes are summed into it on
    one Bessel table, and the sweep is one product of its row (and the two
    tail rows) with the sin(lam t) block.  The lambda rule (see
    LAM_NODES_PER_PERIOD) is within 1.8e-14 of the peak where measured.
    """
    ts, lam, rows = _mode_table(alpha, ts, r1, r2, dtheta_signed, h)
    phase = np.outer(lam, ts)
    return _mode_sum(rows @ np.sin(phase, out=phase), ts)


def halfwave_series_sweep(alpha: float, ts, r1: float, r2: float,
                          dtheta_signed: float, h: float) -> np.ndarray:
    """Cheeger mode sum of the mollified half-wave kernel, the kernel of
    e^{-i t sqrt(Delta)}, on a batch of times:

        U_h = (1/alpha) sum_k c_k cos(nu_k dtheta)
              int_0^inf e^{-i lam t} e^{-h^2 lam^2/2} J J lam d lam,

    the density rows of cheeger_series_sweep transformed with
    lam e^{-i lam t} instead of sin(lam t).  Re U_h is the time derivative
    of the sine kernel and Im U_h its Hilbert transform in t.
    """
    ts, lam, rows = _mode_table(alpha, ts, r1, r2, dtheta_signed, h)
    phase = np.outer(lam, -1j * ts)
    return _mode_sum((rows * lam) @ np.exp(phase, out=phase), ts)


def sine_kernel_cheeger_series(alpha: float, q: KernelQuery,
                               h: float) -> KernelValue:
    """Bessel mode sum for the mollified sine kernel on C_alpha.

    E_h = (2/alpha) * sum_k e^{i nu_k (th1 - th2)} * (1/2) *
          int_0^inf sin(lambda t) e^{-h^2 lambda^2/2}
                    J_{|nu_k|}(lambda r1) J_{|nu_k|}(lambda r2) d lambda,

    nu_k = 2 pi k / alpha, which at alpha = 4 pi is the half-integer-order
    sum with prefactor 1/(4 pi).  The lambda integrals only converge thanks
    to the mollifier, so h > 0 is required.
    """
    return KernelValue(float(cheeger_series_sweep(
        alpha, q.t, q.q1.r, q.q2.r, q.q1.theta - q.q2.theta, h)[0]))


def sine_kernel_moving(ts, r1, r2, dtheta):
    """Moving-vertex representation of the C_{4pi} sine kernel (h = 0),
    elementwise in (t, r1, r2, dtheta) broadcast together, a float when all
    four are scalars; dtheta is any representative of theta1 - theta2.

    The vertex is shifted a distance s along the cut direction e = (0, 1)
    of a plane chart; the kernel is the integral over s >= 0 of a delta on
    the shifted diffracted front, which collapses to a sum over the roots
    of g(s) = r1(s) + r2(s) - t, each contributing

        (1/8 pi) (r1(s) r2(s))^(-1/2) |cos(dtheta(s)/2)|^(-1).

    The chart places q1 at an angle in (-pi/2, pi/2) and q2 at the reduced
    separation on the far side of the vertex-shift line; any positive
    reduced separation embeds (the mirror chart, moving along -e, gives the
    same kernel bit for bit).  Each point is taken at the lengths over a
    power of two near its max(t, r1, r2), an exact scaling (the kernel is
    homogeneous of degree -1) that keeps the root finder's sextic
    coefficients and r1(s) r2(s) in range.  The arrays it holds at once are
    checked against the budget before any is allocated.
    """
    scalar = not any(map(np.ndim, (ts, r1, r2, dtheta)))
    times = _sweep_times(ts, r1, r2)
    shape = np.broadcast_shapes(times.shape, *map(np.shape, (r1, r2, dtheta)))
    check_array_size(MOVING_ARRAYS * math.prod(shape), "the moving-vertex sweep")
    dth = angular_separation(4.0 * math.pi, dtheta, 0.0)
    if np.any(dth < 1e-8):
        raise InvalidInput("coincident angular coordinates do not embed in the "
                           "moving-vertex chart")
    lo = np.maximum(-0.5 * math.pi, 0.5 * math.pi - dth) + 1e-9
    hi = np.minimum(0.5 * math.pi, 1.5 * math.pi - dth) - 1e-9
    phi1 = 0.5 * (lo + hi)
    scale = _length_scale(np.maximum(np.maximum(times, r1), r2))
    x1, x2 = (np.stack([r / scale * np.cos(phi), r / scale * np.sin(phi)],
                       axis=-1) for r, phi in ((r1, phi1), (r2, phi1 + dth)))
    roots = find_roots_convex(x1, x2, times / scale)
    (u1, w1), (u2, w2) = ((x[..., 0, None], x[..., 1, None]) for x in (x1, x2))
    # offsets of q1, q2 from the vertex moved to each root s e: (u, w - s)
    v1, v2 = w1 - roots, w2 - roots
    r1s, r2s = np.hypot(u1, v1), np.hypot(u2, v2)
    # |g'| ~ sqrt(2 curvature (t - t_front)); below 1e-6 the evaluation
    # time is within ~1e-13 of the front and the contribution diverges
    tangent = np.abs(-v1 / r1s - v2 / r2s) < 1e-6
    if tangent.any():
        raise InvalidInput(f"front tangency at s = "
                           f"{(scale[..., None] * roots)[tangent][0]}")
    cos_dth = (u1 * u2 + v1 * v2) / (r1s * r2s)
    half_cos = np.sqrt(np.maximum(0.5 * (1.0 + cos_dth), 0.0))
    terms = 1.0 / (8.0 * math.pi * np.sqrt(r1s * r2s) * half_cos)
    values = _unscale(np.where(np.isnan(roots), 0.0, terms).sum(axis=-1), scale)
    return float(values[0]) if scalar else values


def sine_kernel_moving_point(q: KernelQuery) -> KernelValue:
    """`sine_kernel_moving` at one query, which the benchmark calls."""
    return KernelValue(sine_kernel_moving(q.t, q.q1.r, q.q2.r,
                                          q.q1.theta - q.q2.theta))


@functools.cache
def _hermgauss(n: int):
    """Gauss-Hermite nodes and weights of order n, computed once per order
    (about 1 ms at 48 nodes), without the nodes whose weight is at most
    2^-53 of the largest: 36 of 48 stay.  A dropped node adds less than
    the rounding of the sum unless f is 1e16 times larger out there."""
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    keep = weights > 2.0**-53 * weights.max()
    return nodes[keep], weights[keep]


def gauss_hermite_mollify(f, t: float, h: float) -> float:
    """Gaussian time mollification of a pointwise kernel t -> f(t) by
    Gauss-Hermite quadrature of order HERMITE_NODES without its
    rounding-level nodes (`_hermgauss`: f is called 36 times, within
    6 sqrt(2) h of t); suitable away from fronts."""
    nodes, weights = _hermgauss(HERMITE_NODES)
    taus = t + math.sqrt(2.0) * h * nodes
    vals = np.array([f(tau) for tau in taus])
    return float(np.sum(weights * vals) / math.sqrt(math.pi))


def spherical_wave_l(j: int, t: float, q: ConePoint, moll: Mollifier) -> complex:
    """Mollified spherical wave l_{+-1}(t) = (4 pi sqrt(r))^(-1) delta(t - r)
    exp(-+ i theta / 2) on C_{4 pi}."""
    if j not in (+1, -1):
        raise InvalidInput("j must be +1 or -1")
    if not q.r > 0:
        raise InvalidInput("r must be positive")
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
        raise InvalidInput("radii must be positive")
    amp = mollified_delta(moll, t - q1.r - q2.r) / (
        4.0 * math.pi * math.sqrt(q1.r * q2.r))
    return amp * math.cos(0.5 * (q1.theta + q2.theta) - dir_theta)
