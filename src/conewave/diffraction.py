"""Absolute scattering matrix of the flat cone and diffracted-front amplitudes.

The cone of angle alpha scatters a wave arriving at the vertex into all
directions with angular kernel

    S_alpha(theta) = -(1/(2 alpha)) sin(2 pi^2/alpha)
                     / [ sin((pi/alpha)(pi - theta)) sin((pi/alpha)(pi + theta)) ],

the kernel of -i exp(-i pi sqrt(Delta_{S^1_alpha})) on the circle of
circumference alpha.  S_alpha has poles at the geometric directions
theta = +-pi (mod alpha); physical amplitudes stay finite there because a
sin factor vanishes simultaneously, and this module provides the stable
regularized products used near those directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometricDirection, InvalidInput
from .geometry import check_cone_angle

# |sin factor| below this counts as a pole of the closed form.
POLE_TOL = 1e-12

# Switch to the series-regularized branch when |theta -+ pi| is below this.
REGULARIZE_WINDOW = 0.25

INCOMING_AT_0 = "incoming_at_0"
OUTGOING_AT_PI = "outgoing_at_pi"


@dataclass(frozen=True)
class ScatteringEvaluation:
    alpha: float
    theta: float
    value: float
    is_pole: bool


def _sine_factors(alpha: float, theta) -> tuple[np.ndarray, np.ndarray]:
    k = math.pi / alpha
    th = np.asarray(theta, dtype=float)
    return np.sin(k * (math.pi - th)), np.sin(k * (math.pi + th))


def scattering_matrix(alpha: float, theta: float) -> ScatteringEvaluation:
    """Closed-form S_alpha(theta); poles reported via flag, not error."""
    check_cone_angle(alpha)
    d1, d2 = _sine_factors(alpha, theta)
    if abs(d1) < POLE_TOL or abs(d2) < POLE_TOL:
        return ScatteringEvaluation(alpha, theta, math.nan, True)
    # group (d1 * d2) so evenness in theta holds to the last bit
    value = -math.sin(2.0 * math.pi**2 / alpha) / (2.0 * alpha * (d1 * d2))
    return ScatteringEvaluation(alpha, theta, float(value), False)


def scattering_matrix_value(alpha: float, theta: float) -> float:
    """S_alpha(theta) as a float, raising at geometric directions."""
    ev = scattering_matrix(alpha, theta)
    if ev.is_pole:
        raise GeometricDirection(
            f"S_{alpha}({theta}) evaluated at a geometric direction")
    return ev.value


def scattering_matrix_fourier(alpha: float, theta: float, N: int) -> complex:
    """Fourier-series oracle (-i/alpha) sum_k e^{-i pi |2 k pi/alpha|}
    e^{-2 i k pi theta/alpha}, truncated at |k| <= N and Cesaro averaged over
    the partial sums (the coefficients do not decay, so the plain partial
    sums do not converge)."""
    check_cone_angle(alpha)
    if N < 0:
        raise InvalidInput(f"N must be >= 0, got {N}")
    if N == 0:
        return -1j / alpha
    k = np.arange(1, N + 1)
    weights = 1.0 - k / (N + 1.0)
    terms = 2.0 * np.cos(2.0 * k * math.pi * theta / alpha) * np.exp(
        -2j * math.pi**2 * k / alpha)
    return complex(-1j / alpha * (1.0 + np.sum(weights * terms)))


def gtd_amplitude(alpha: float, r1: float, r2: float, theta: float) -> float:
    """Leading diffracted-front coefficient (1/2pi) (r1 r2)^(-1/2) S_alpha."""
    if not (r1 > 0 and r2 > 0):
        raise ValueError("radii must be positive")
    return scattering_matrix_value(alpha, theta) / (
        2.0 * math.pi * math.sqrt(r1 * r2))


def _sinc(x):
    """sin(x)/x with the removable singularity filled."""
    return np.sinc(np.asarray(x) / math.pi)


def s_times_cos_half(alpha: float, dtheta):
    """S_alpha(dtheta) * cos(dtheta/2), stable across dtheta = +-pi, for
    scalars or arrays (a float for scalar input).

    Near +-pi both factors degenerate (pole against zero); the ratio
    sin(w/2)/sin(pi w/alpha) is evaluated through sinc to keep full
    precision.  Genuine poles on other sheets raise GeometricDirection.
    """
    check_cone_angle(alpha)
    d = np.asarray(dtheta, dtype=float)
    num = -math.sin(2.0 * math.pi**2 / alpha)
    window = min(REGULARIZE_WINDOW, 0.25 * alpha)
    w_m = d + math.pi  # distance from the pole at -pi
    w_p = d - math.pi  # distance from the pole at +pi
    near_m = np.abs(w_m) < window
    near = near_m | (np.abs(w_p) < window)
    # w: distance from the nearby pole.  At -pi, cos(dtheta/2) = sin(w/2) and
    # sin((pi/a)(pi+dtheta)) = sin(pi w/a); at +pi both change sign.
    w = np.where(near_m, w_m, w_p)
    # the other sine factor of S_alpha; it vanishes only on another sheet
    other = np.sin((math.pi / alpha)
                   * (2.0 * math.pi + np.where(near_m, -w_m, w_p)))
    if np.any(near & (np.abs(other) < POLE_TOL)):
        raise GeometricDirection("double pole in regularized product")
    d1, d2 = _sine_factors(alpha, d)
    pole = ~near & ((np.abs(d1) < POLE_TOL) | (np.abs(d2) < POLE_TOL))
    if np.any(pole):
        raise GeometricDirection(
            f"S_{alpha}({d[pole][0]}) evaluated at a geometric direction")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (alpha / (2.0 * math.pi)) * _sinc(0.5 * w) / _sinc(
            math.pi * w / alpha)
        out = np.where(near, num / (2.0 * alpha) * ratio / other,
                       num / (2.0 * alpha * (d1 * d2)) * np.cos(0.5 * d))
    return float(out) if out.ndim == 0 else out


def regularized_pair_product(alpha: float, theta_a, theta_b):
    """S_alpha(theta_a - theta_b) * (sin theta_a + sin theta_b), stable, for
    scalars or arrays (a float for scalar input).

    This is the combination entering every leading diffraction amplitude; it
    stays finite across the geometric direction theta_a - theta_b = +-pi
    because the sine sum vanishes there for aligned configurations.
    """
    theta_a = np.asarray(theta_a, dtype=float)
    theta_b = np.asarray(theta_b, dtype=float)
    out = 2.0 * np.sin(0.5 * (theta_a + theta_b)) * s_times_cos_half(
        alpha, theta_a - theta_b)
    return float(out) if np.ndim(out) == 0 else out


def regularized_sine_product(alpha: float, which: str) -> float:
    """The two limit identities behind the trace pipeline.

    incoming_at_0:  lim_{t->0}  sin(t) * S_alpha(-pi - t)  =  1/(2 pi)
    outgoing_at_pi: lim_{t->pi} sin(t) * S_alpha(t)        = -1/(2 pi)

    Both limits are independent of alpha.
    """
    check_cone_angle(alpha)
    if which == INCOMING_AT_0:
        return 1.0 / (2.0 * math.pi)
    if which == OUTGOING_AT_PI:
        return -1.0 / (2.0 * math.pi)
    raise ValueError(f"unknown limit {which!r}")


def sine_product_limit_numeric(alpha: float, which: str, t0: float = 1e-6,
                               levels: int = 5) -> float:
    """Richardson-extrapolated numerical version of the limit identities.

    The product is evaluated in the offset variable t directly (the sine
    factors of S_alpha reexpanded around the pole), since forming the angle
    -pi - t and re-adding pi inside the closed form would lose the digits
    the extrapolation needs.
    """
    check_cone_angle(alpha)
    num = math.sin(2.0 * math.pi**2 / alpha) / (2.0 * alpha)
    if which == INCOMING_AT_0:
        # sin(t) * S_alpha(-pi - t)
        f = lambda t: math.sin(t) * num / (
            math.sin((math.pi / alpha) * (2.0 * math.pi + t))
            * math.sin(math.pi * t / alpha))
    elif which == OUTGOING_AT_PI:
        # sin(pi - t) * S_alpha(pi - t)
        f = lambda t: -math.sin(t) * num / (
            math.sin(math.pi * t / alpha)
            * math.sin((math.pi / alpha) * (2.0 * math.pi - t)))
    else:
        raise ValueError(f"unknown limit {which!r}")
    ts = np.array([t0 / 2.0**j for j in range(levels)])
    vals = np.array([f(t) for t in ts])
    # Neville extrapolation to t = 0
    for order in range(1, levels):
        for i in range(levels - order):
            vals[i] = vals[i + 1] + (vals[i + 1] - vals[i]) * ts[i + order] / (
                ts[i] - ts[i + order])
    return float(vals[0])
