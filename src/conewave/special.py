"""Shared numerical kernels: Gaussian mollifiers, the half-derivative of
uniformly sampled data by the L1 scheme (order-1.5 accurate on smooth data),
the smoothed model singularities (t - L - i0)^order of any negative order
(one closed form in Kummer's function 1F1), and bracketed root finding for
convex front equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotConvex

GAMMA_HALF = math.sqrt(math.pi)  # Gamma(1/2)


@dataclass(frozen=True)
class Mollifier:
    """Gaussian time mollifier of standard deviation width_h.

    Equivalently a frequency damping profile exp(-h^2 w^2 / 2); the
    time-domain profile has unit mass.
    """

    width_h: float

    def __post_init__(self):
        if not (self.width_h > 0 and math.isfinite(self.width_h)):
            raise InvalidInput(
                f"mollifier width must be positive and finite, got {self.width_h}")


def mollified_delta(moll: Mollifier, u) -> float:
    """Gaussian-smoothed delta: (2 pi h^2)^(-1/2) exp(-u^2 / (2 h^2))."""
    h = moll.width_h
    return np.exp(-np.asarray(u, dtype=float) ** 2 / (2.0 * h * h)) / (
        math.sqrt(2.0 * math.pi) * h
    )


def _k32(w: np.ndarray) -> np.ndarray:
    """Riemann-Liouville kernel k_{3/2}(w) = w^{1/2} H(w) / Gamma(3/2)."""
    return np.where(w > 0, np.sqrt(np.maximum(w, 0.0)), 0.0) / (0.5 * GAMMA_HALF)


def l1_half_derivative(values: np.ndarray, d: float) -> np.ndarray:
    """Half-derivative of uniformly sampled data by the L1 scheme (axis 0).

    The piecewise-linear interpolant is differentiated exactly against the
    causal kernel (y - y')^(-1/2) / Gamma(1/2); jump discontinuities sampled
    at cell boundaries smear over a single cell.  Data must vanish at the
    left edge.  Accepts 1-D or 2-D arrays (columns treated independently).
    """
    import scipy.fft

    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    dv = np.diff(v, axis=0)
    m = np.arange(1, n, dtype=float) * d
    w = (_k32(m) - _k32(m - d)) / d
    if v.ndim == 2:
        w = w[:, None]
    # linear convolution dv * w by real FFTs padded past its 2n - 3 samples
    nfft = scipy.fft.next_fast_len(2 * n - 3, True)
    full = scipy.fft.irfft(scipy.fft.rfft(dv, nfft, axis=0)
                           * scipy.fft.rfft(w, nfft, axis=0), nfft, axis=0)
    out = np.zeros_like(v)
    out[1:] = full[: n - 1]
    return out


def damped_moment(u, h: float, s: float):
    """int_0^inf w^(s-1) e^{i u w - h^2 w^2/2} dw for s > 0, for scalars or
    arrays u (complex, or a complex array).

    With a = h^2/2 and x = u^2/(4a) the cosine and sine halves are Kummer
    functions:

        (1/2) Gamma(s/2) a^(-s/2) 1F1(s/2; 1/2; -x)
        + i (u/2) Gamma((s+1)/2) a^(-(s+1)/2) 1F1((s+1)/2; 3/2; -x).
    """
    if not (s > 0 and h > 0 and math.isfinite(s) and math.isfinite(h)):
        raise InvalidInput(
            f"exponent s and width h must be positive and finite, got {s}, {h}")
    import scipy.special

    u = np.asarray(u, dtype=float)
    a = 0.5 * h * h
    x = -u * u / (4.0 * a)
    even = (0.5 * math.gamma(0.5 * s) * a ** (-0.5 * s)
            * scipy.special.hyp1f1(0.5 * s, 0.5, x))
    odd = (0.5 * u * math.gamma(0.5 * s + 0.5) * a ** (-0.5 * s - 0.5)
           * scipy.special.hyp1f1(0.5 * s + 0.5, 1.5, x))
    out = even + 1j * odd
    return complex(out) if out.ndim == 0 else out


def mollified_inverse_power(moll: Mollifier, t, L: float, order):
    """Gaussian smoothing of the model singularity (t - L - i0)^order, for
    any order < 0 and scalar or array t:

        model(t) = (e^{i pi s/2} / Gamma(s)) *
                   int_0^inf w^(s-1) e^{i w (L - t)} e^{-h^2 w^2/2} dw,

    s = -order, the frequency content matching the half-wave trace
    convention Tr e^{-i t sqrt(Delta)}; as h -> 0 it tends to |t - L|^order
    for t > L and e^{i pi s} |t - L|^order for t < L.  The integral is the
    closed form damped_moment(L - t, h, s).
    """
    s = -float(order)
    moment = damped_moment(L - np.asarray(t, dtype=float), moll.width_h, s)
    return 1j ** s / math.gamma(s) * moment


def find_roots_convex(g, s_max: float) -> list[float]:
    """All roots of a convex scalar function on [0, s_max] (0, 1 or 2 of them).

    Convexity is checked on second differences at 65 samples; the minimum
    is bracketed first, then at most one root is extracted on each side by
    Brent's method.  A minimum within 1e-12 of zero (relative to the sampled
    magnitude) is a double root.
    """
    if not s_max > 0:
        raise InvalidInput(f"s_max must be positive, got {s_max}")
    import scipy.optimize

    tol = 1e-12
    s_nodes = np.linspace(0.0, s_max, 65)
    samples = np.array([g(s) for s in s_nodes])
    scale = float(np.max(np.abs(samples))) or 1.0
    second = samples[:-2] - 2.0 * samples[1:-1] + samples[2:]
    if np.any(second < -1e-8 * scale):
        raise NotConvex("sampled second differences are negative")

    res = scipy.optimize.minimize_scalar(
        g, bounds=(0.0, s_max), method="bounded",
        options={"xatol": 1e-13})
    s_min, g_min = float(res.x), float(res.fun)
    g0, g_end = float(g(0.0)), float(g(s_max))

    if g_min > tol * scale:
        return []
    if g_min > -tol * scale:
        return [s_min]

    roots = []
    if g0 > 0.0 and s_min > 0.0:
        roots.append(scipy.optimize.brentq(g, 0.0, s_min, xtol=1e-14, rtol=8.9e-16))
    elif abs(g0) <= tol * scale:
        roots.append(0.0)
    if g_end > 0.0:
        roots.append(scipy.optimize.brentq(g, s_min, s_max, xtol=1e-14, rtol=8.9e-16))
    return roots
