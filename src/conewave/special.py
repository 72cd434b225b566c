"""Shared numerical kernels: Gaussian mollifiers, the half-derivative of
uniformly sampled data by the L1 scheme (order-1.5 accurate on smooth data),
the smoothed model singularities (t - L - i0)^order for -4.7 <= order < 0
(one closed form in Kummer's function 1F1, whose series numpy sums), the
exact roots of the moving-vertex front equation r1(s) + r2(s) = t, the
package's one Gauss-Legendre rule (cached per order, and composite on
panels) and its one finite-difference Hessian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import InvalidInput, QuadratureFailure

GAMMA_HALF = math.sqrt(math.pi)  # Gamma(1/2)
# x past which Kummer's M(a, b, -x) takes its large-x expansion, and that
# expansion's number of terms: against mpmath, damped_moment is within 4e-16
# of its peak for s up to DAMPED_MOMENT_MAX_S, where a crossover at 40
# leaves 6e-15; damped_moment refuses a larger s, where nothing is measured
KUMMER_CROSSOVER = 60.0
KUMMER_LARGE_X_TERMS = 40
DAMPED_MOMENT_MAX_S = 4.7
# Newton steps allowed to the Gauss-Legendre nodes; from Tricomi's guess
# they converge in three or four
LEGGAUSS_NEWTON_STEPS = 10


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
    left edge, so fewer than two samples give zeros.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise InvalidInput(f"expected 1-D samples, got shape {v.shape}")
    n = v.size
    out = np.zeros_like(v)
    if n < 2:
        return out
    dv = np.diff(v)
    m = np.arange(1, n, dtype=float) * d
    w = (_k32(m) - _k32(m - d)) / d
    # linear convolution dv * w by real FFTs padded to the smallest power of
    # two that holds its 2n - 3 samples
    nfft = 1 << (2 * n - 4).bit_length()
    full = np.fft.irfft(np.fft.rfft(dv, nfft) * np.fft.rfft(w, nfft), nfft)
    out[1:] = full[: n - 1]
    return out


def _power_series(z: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """sum_n c_n z^n, c_n = prod_{k<n} ratios[k], for each of the 1-D points
    z, over n = 0..len(ratios).  The coefficients come from one cumulative
    product, in blocks of w = min(8, len(ratios) + 1); Horner's rule in z
    runs over all blocks at once, then Horner's rule in z^w over the blocks.
    Points run in chunks that keep the blocks-by-points table within
    MAX_ARRAY_ELEMENTS."""
    width = min(8, ratios.size + 1)
    blocks = ratios.size // width + 1
    coef = np.zeros(width * blocks)
    coef[0] = 1.0
    np.cumprod(ratios, out=coef[1:ratios.size + 1])
    coef = coef.reshape(blocks, width)
    out = np.empty(z.shape)
    cols = max(1, geometry.MAX_ARRAY_ELEMENTS // blocks)
    for i in range(0, z.size, cols):
        zi = z[i:i + cols]
        parts = np.zeros((blocks, zi.size))
        for c in coef.T[::-1]:
            parts *= zi
            parts += c[:, None]
        zw = zi**width
        acc = parts[-1]
        for part in parts[-2::-1]:
            acc = acc * zw + part
        out[i:i + cols] = acc
    return out


def _kummer_minus(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Kummer's function M(a, b, -x) for a, b > 0 and 1-D x >= 0 (DLMF 13.2).

    Up to KUMMER_CROSSOVER it is Kummer's transform e^{-x} M(b - a, b, x)
    (13.2.39), whose terms are positive once n > a - b, to x + 8 sqrt(x) + 20
    terms at the largest x (the tail is then below 1e-17).  When b - a is 0
    or a negative integer that series ends after its n = a - b term, and
    its a - b + 1 terms are summed at every x.  Past the crossover it is
    the large-x expansion (13.7.2) Gamma(b) / Gamma(b - a) x^(-a) sum_n
    (a)_n (a - b + 1)_n / (n! x^n) to KUMMER_LARGE_X_TERMS terms; the part
    it drops, Gamma(b) / Gamma(a) e^{-x} x^(a - b), is below 1e-22 there for
    s up to 4.7.

    When a - b is large the series' first a - b terms alternate and cancel:
    damped_moment would be 1.1e-15 of its peak off mpmath at s = 10,
    1.9e-14 at s = 20 and 5e-13 at s = 30, so it stops at s = 4.7.
    """
    c = b - a
    if c <= 0 and c == math.floor(c):  # where 1 / Gamma(b - a) is 0
        # 1 + r_0 x (1 + r_1 x (...)), r_k the ratios of successive terms
        series = 1.0
        for k in range(int(-c) - 1, -1, -1):
            series = 1.0 + (c + k) / ((b + k) * (k + 1.0)) * x * series
        return np.exp(-x) * series
    out = np.empty_like(x)
    near = x <= KUMMER_CROSSOVER
    if near.any():
        xn = x[near]
        top = float(xn.max())
        k = np.arange(int(top + 8.0 * math.sqrt(top)) + 20)
        out[near] = np.exp(-xn) * _power_series(
            xn, (c + k) / ((b + k) * (k + 1.0)))
    if not near.all():
        far = x[~near]
        k = np.arange(KUMMER_LARGE_X_TERMS)
        out[~near] = math.gamma(b) / math.gamma(c) * far ** -a * _power_series(
            1.0 / far, (a + k) * (a - b + 1.0 + k) / (k + 1.0))
    return out


def damped_moment(u, h: float, s: float):
    """int_0^inf w^(s-1) e^{i u w - h^2 w^2/2} dw for 0 < s <=
    DAMPED_MOMENT_MAX_S (4.7), the range measured against mpmath, for
    scalars or arrays u (complex, or a complex array).

    With a = h^2/2 and x = u^2/(4a) the cosine and sine halves are Kummer
    functions:

        (1/2) Gamma(s/2) a^(-s/2) 1F1(s/2; 1/2; -x)
        + i (u/2) Gamma((s+1)/2) a^(-(s+1)/2) 1F1((s+1)/2; 3/2; -x),

    each summed by `_kummer_minus`; below its crossover the cosine half's
    1F1 is exactly e^{-x} at s = 1, and the sine half's at s = 2.
    """
    if not (0 < s <= DAMPED_MOMENT_MAX_S and 0 < h < math.inf):
        raise InvalidInput(
            f"need 0 < s <= {DAMPED_MOMENT_MAX_S} and a positive finite "
            f"width h, got s = {s}, h = {h}")
    u = np.asarray(u, dtype=float)
    a = 0.5 * h * h
    x = (u * u / (4.0 * a)).ravel()
    even = (0.5 * math.gamma(0.5 * s) * a ** (-0.5 * s)
            * _kummer_minus(0.5 * s, 0.5, x).reshape(u.shape))
    odd = (0.5 * u * math.gamma(0.5 * s + 0.5) * a ** (-0.5 * s - 0.5)
           * _kummer_minus(0.5 * s + 0.5, 1.5, x).reshape(u.shape))
    out = even + 1j * odd
    return complex(out) if out.ndim == 0 else out


def mollified_inverse_power(moll: Mollifier, t, L: float, order):
    """Gaussian smoothing of the model singularity (t - L - i0)^order, for
    -4.7 <= order < 0 (see damped_moment) and scalar or array t:

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


def find_roots_convex(x1, x2, t: float) -> list[float]:
    """Sorted roots s >= 0 of |x1 - s e| + |x2 - s e| = t, e = (0, 1) the
    cut direction of the moving-vertex chart, for plane points x1, x2 (0, 1
    or 2 roots).

    The level set r1 + r2 = t is an ellipse with foci x1 and x2, and s e runs
    along a line, so the roots are those of a quadratic.  With p_i = x_i.e
    and n_i = |x_i|^2, D(s) = r1^2 - r2^2 = 2 (p2 - p1) s + n1 - n2 is linear
    in s, and r1 + r2 = t is equivalent to 4 t^2 r1(s)^2 = (t^2 + D(s))^2,
    a quadratic a s^2 + b s + c = 0, together with |D(s)| <= t^2.  When
    a >= 0, i.e. (p2 - p1)^2 >= t^2, there is no root, since then
    r1 + r2 >= |x1 - x2| >= |p2 - p1| >= t.  A discriminant negative
    only by rounding (down to -1e-12 b^2) is a double root.

    The coefficients are sextic in the lengths, so these should be of order
    one: `kernels.sine_kernel_moving_point` scales them.
    """
    p1 = float(x1[1])
    d = float(x2[1]) - p1
    n1, n2 = float(x1 @ x1), float(x2 @ x2)
    tt = t * t
    a = 4.0 * (d * d - tt)
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


def _legendre_and_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=64)
def leggauss(n: int):
    """Gauss-Legendre nodes (ascending) and weights of order n, read-only
    and cached, the cache bounded because the oracle's orders grow with
    omega.  Newton's method on the three-term recurrence refines all
    positive nodes at once from Tricomi's guess (1 - 1/(8 n^2) + 1/(8 n^3))
    cos(pi (4k - 1)/(4n + 2)); the weights are 2/((1 - x^2) P_n'(x)^2).
    Against 40-digit values the nodes are within 1e-16 and the weights
    within 2e-12 relative up to 625 nodes, where numpy's eigenvalue solve
    is 7e-10 off; 625 nodes take about 9 ms (numpy: 37 ms).  A Newton step
    costs O(n^2), so n^2 is checked against the array budget first."""
    if n < 1:
        raise InvalidInput(f"a Gauss-Legendre rule needs n >= 1, got {n}")
    geometry.check_array_size(n * n, f"the {n}-node Gauss-Legendre rule")
    k = np.arange(1, n // 2 + 1)  # the positive nodes, descending
    x = (1.0 - 1.0 / (8 * n**2) + 1.0 / (8 * n**3)) * np.cos(
        math.pi * (4 * k - 1) / (4 * n + 2))
    x = np.append(x, [0.0] * (n % 2))  # P_n(0) = 0 exactly for odd n
    for _ in range(LEGGAUSS_NEWTON_STEPS):
        p, dp = _legendre_and_derivative(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise QuadratureFailure(
            f"the {n}-node Gauss-Legendre rule did not converge")
    dp = _legendre_and_derivative(n, x)[1]
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    rule = (np.concatenate([-x, x[::-1][n % 2:]]),
            np.concatenate([weights, weights[::-1][n % 2:]]))
    for a in rule:
        a.flags.writeable = False
    return rule


def gauss_legendre(edges, n: int):
    """Nodes and weights of the composite rule that puts the cached n-node
    Gauss-Legendre rule on each panel between consecutive `edges`, per row."""
    edges = np.asarray(edges, dtype=float)
    nodes, weights = leggauss(n)
    half = 0.5 * np.diff(edges)[..., None]
    shape = (*edges.shape[:-1], -1)
    return ((edges[..., :-1, None] + half * (nodes + 1.0)).reshape(shape),
            (half * weights).reshape(shape))


def fd_hessian(f, x0, step: float) -> np.ndarray:
    """Finite-difference Hessian of the scalar function f(x) at the point x0
    (a 1-D array of n coordinates), Richardson-extrapolated from the steps
    `step` and `step / 2`: the central 3-point second difference on the
    diagonal and the 4-point mixed difference off it, each accurate to
    O(step^4).

    f is called once, on all 1 + 4 n^2 stencil points stacked as the columns
    of an (n, m) array, and returns their m values; so f(x) must accept
    coordinates x[0], ..., x[n - 1] that are arrays of one shape."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    i, j = np.tril_indices(n, -1)
    eye = np.eye(n)
    # one step's offsets: +e_k, -e_k, then e_i + e_j, e_i - e_j, -e_i + e_j
    # and -e_i - e_j for i > j (adding their zero entries leaves x0 exact)
    units = np.concatenate([eye, -eye, eye[i] + eye[j], eye[i] - eye[j],
                            eye[j] - eye[i], -eye[i] - eye[j]])
    steps = (0.5 * step, step)
    offsets = np.concatenate([np.zeros((1, n)), steps[0] * units,
                              steps[1] * units])
    values = np.asarray(f((x0 + offsets).T), dtype=float)
    f0 = values[0]
    second = []
    for h, block in zip(steps, values[1:].reshape(2, -1)):
        plus, minus = block[:n], block[n:2 * n]
        pp, pm, mp, mm = block[2 * n:].reshape(4, -1)
        out = np.diag((plus - 2.0 * f0 + minus) / (h * h))
        out[i, j] = out[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
        second.append(out)
    return (4.0 * second[0] - second[1]) / 3.0
