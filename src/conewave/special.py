"""Shared numerical kernels: Gaussian mollifiers, the half-derivative of
uniformly sampled data by the L1 scheme (order-1.5 accurate on smooth data),
the smoothed model singularities (t - L - i0)^order of any negative order
(one closed form in Kummer's function 1F1), and the exact roots of the
moving-vertex front equation r1(s) + r2(s) = t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

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
    """Half-derivative of uniformly sampled 1-D data by the L1 scheme.  The
    package no longer calls it; it stays only because bench/ times it, until
    ROADMAP item 4.

    The piecewise-linear interpolant is differentiated exactly against the
    causal kernel (y - y')^(-1/2) / Gamma(1/2); jump discontinuities sampled
    at cell boundaries smear over a single cell.  Data must vanish at the
    left edge.
    """
    import scipy.fft

    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise InvalidInput(f"expected 1-D samples, got shape {v.shape}")
    n = v.size
    dv = np.diff(v)
    m = np.arange(1, n, dtype=float) * d
    w = (_k32(m) - _k32(m - d)) / d
    # linear convolution dv * w by real FFTs padded past its 2n - 3 samples
    nfft = scipy.fft.next_fast_len(2 * n - 3, True)
    full = scipy.fft.irfft(scipy.fft.rfft(dv, nfft) * scipy.fft.rfft(w, nfft),
                           nfft)
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


def find_roots_convex(x1, x2, shift, t: float) -> list[float]:
    """Sorted roots s >= 0 of |x1 - s e| + |x2 - s e| = t, e = shift, for
    plane points x1, x2 (0, 1 or 2 roots).

    The level set r1 + r2 = t is an ellipse with foci x1 and x2, and s e runs
    along a line, so the roots are those of a quadratic.  With p_i = x_i.e
    and n_i = |x_i|^2, D(s) = r1^2 - r2^2 = 2 (p2 - p1) s + n1 - n2 is linear
    in s, and r1 + r2 = t is equivalent to 4 t^2 r1(s)^2 = (t^2 + D(s))^2,
    a quadratic a s^2 + b s + c = 0, together with |D(s)| <= t^2.  When
    a >= 0, i.e. (p2 - p1)^2 >= t^2 |e|^2, there is no root, since then
    r1 + r2 >= |x1 - x2| >= |p2 - p1| / |e| >= t.  A discriminant negative
    only by rounding (down to -1e-12 b^2) is a double root.
    """
    p1 = float(x1 @ shift)
    d = float(x2 @ shift) - p1
    n1, n2 = float(x1 @ x1), float(x2 @ x2)
    tt = t * t
    a = 4.0 * (d * d - tt * float(shift @ shift))
    if not (t > 0 and a < 0):
        return []
    c0 = tt + n1 - n2
    b = 4.0 * d * c0 + 8.0 * tt * p1
    c = c0 * c0 - 4.0 * tt * n1
    disc = b * b - 4.0 * a * c
    if disc < -1e-12 * b * b:
        return []
    if disc <= 0.0:
        candidates = [-b / (2.0 * a)]
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        candidates = [q / a, c / q]
    return sorted(s for s in candidates
                  if s >= 0.0 and abs(2.0 * d * s + n1 - n2) <= tt)
