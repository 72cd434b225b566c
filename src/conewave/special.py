"""Shared numerical kernels: Bessel J, Gaussian mollifiers, half-order
fractional differentiation on a grid, the smoothed model singularities
(t - L - i0)^order of any negative order (one closed form in Kummer's
function 1F1), and bracketed root finding for convex front equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.signal
import scipy.special

from .errors import InvalidInput, NonUniformGrid, NotConvex

GAMMA_HALF = math.sqrt(math.pi)  # Gamma(1/2)
_GAMMA_5_2 = 0.75 * math.sqrt(math.pi)  # Gamma(5/2)


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


def bessel_j(nu, x):
    """Bessel function J_nu(x) for real order nu >= 0 and x >= 0.

    Backed by scipy's jv; the accuracy contract (abs error <= 1e-10 for
    x <= 1e3, nu <= 50) is enforced by the test suite against series and
    recurrence oracles.
    """
    nu_arr = np.asarray(nu, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if np.any(nu_arr < 0):
        raise ValueError("order nu must be >= 0")
    if np.any(x_arr < 0):
        raise ValueError("argument x must be >= 0")
    out = scipy.special.jv(nu_arr, x_arr)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SampledFunction1D:
    """Function samples on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values)
        if grid.ndim != 1 or grid.size < 4:
            raise ValueError("grid must be 1-D with at least 4 nodes")
        if values.shape != grid.shape:
            raise ValueError("grid and values must have matching shapes")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        """Uniform spacing; raises NonUniformGrid otherwise."""
        steps = np.diff(self.grid)
        d = steps[0]
        if not np.allclose(steps, d, rtol=1e-9, atol=0.0):
            raise NonUniformGrid("operation requires a uniform grid")
        return float(d)


def _derivative_uniform(values: np.ndarray, d: float) -> np.ndarray:
    """Fourth-order central first derivative (second order at the edges)."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * d)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * d)
    out[1] = (v[2] - v[0]) / (2.0 * d)
    out[-2] = (v[-1] - v[-3]) / (2.0 * d)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * d)
    return out


def _k52(w: np.ndarray) -> np.ndarray:
    """Riemann-Liouville kernel k_{5/2}(w) = w^{3/2} H(w) / Gamma(5/2)."""
    return np.where(w > 0, np.maximum(w, 0.0) ** 1.5, 0.0) / _GAMMA_5_2


def fractional_integral_half(values, d: float) -> np.ndarray:
    """Riemann-Liouville I^{1/2} of uniformly sampled data (unit 1/Gamma(1/2)).

    Integrates the piecewise-linear interpolant of `values` against the
    causal kernel (y - y')^(-1/2) / Gamma(1/2) exactly, which reduces to a
    single discrete convolution with the fractional integral of a hat
    function.  Data are assumed to vanish at (and before) the left edge.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    m = np.arange(n, dtype=float) * d
    kernel = (_k52(m + d) - 2.0 * _k52(m) + _k52(m - d)) / d
    full = scipy.signal.fftconvolve(v, kernel)
    return full[:n]


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
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    dv = np.diff(v, axis=0)
    m = np.arange(1, n, dtype=float) * d
    w = (_k32(m) - _k32(m - d)) / d
    if v.ndim == 2:
        w = w[:, None]
    full = scipy.signal.fftconvolve(dv, w, axes=0)
    out = np.zeros_like(v)
    out[1:] = full[: n - 1]
    return out


def half_derivative(f: SampledFunction1D, method: str = "rl") -> SampledFunction1D:
    """Half-order derivative [d/dy]^{1/2} on a uniform grid.

    method="rl": differentiate once (4th-order stencil), then apply the
    Riemann-Liouville fractional integral with kernel
    |y - y'|^(-1/2) / Gamma(1/2) on the causal side.
    method="l1": the same operator through exact fractional integration of
    the piecewise-linear interpolant (robust on data with jumps).
    method="spectral": zero-padded FFT with multiplier (i xi)^{1/2},
    principal branch (nonnegative real part).

    Both require the samples to decay or be compactly supported inside the
    grid; the two methods agree on smooth data (tested at 1e-6).
    """
    d = f.spacing
    v = np.asarray(f.values, dtype=float)
    if method == "rl":
        out = fractional_integral_half(_derivative_uniform(v, d), d)
    elif method == "l1":
        out = l1_half_derivative(v, d)
    elif method == "spectral":
        n = v.size
        pad = 1 << int(np.ceil(np.log2(8 * n)))
        vp = np.zeros(pad)
        vp[:n] = v
        xi = 2.0 * math.pi * np.fft.fftfreq(pad, d)
        multiplier = np.sqrt(1j * xi)
        out = np.fft.ifft(np.fft.fft(vp) * multiplier).real[:n]
        # the output decays only like y^(-3/2), so the circular convolution
        # wraps its tail back into the window; subtract the wrapped images
        # through the first three moments (Hurwitz-zeta lattice sums)
        period = pad * d
        u_rel = f.grid - f.grid[0]
        m0 = float(np.sum(v)) * d
        m1 = float(np.sum(v * u_rel)) * d
        m2 = float(np.sum(v * u_rel**2)) * d
        q = 1.0 + u_rel / period
        wrap = (m0 * scipy.special.zeta(1.5, q) / period**1.5
                + 1.5 * m1 * scipy.special.zeta(2.5, q) / period**2.5
                + 1.875 * m2 * scipy.special.zeta(3.5, q) / period**3.5)
        out += wrap / (2.0 * GAMMA_HALF)
    else:
        raise ValueError(f"unknown method {method!r}")
    return SampledFunction1D(f.grid, out)


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


def find_roots_convex(g, s_max: float, n_convexity: int = 65,
                      tol: float = 1e-12) -> list[float]:
    """All roots of a convex scalar function on [0, s_max] (0, 1 or 2 of them).

    Convexity is checked on sampled second differences; the minimum is
    bracketed first, then at most one root is extracted on each side by
    Brent's method.
    """
    if not s_max > 0:
        raise ValueError("s_max must be positive")
    s_nodes = np.linspace(0.0, s_max, n_convexity)
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
