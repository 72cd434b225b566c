"""Reference values computed apart from conewave, from numpy alone.

Every check in the benchmark compares the program against these closed
forms, or against properties the method must have. None of them calls
into the package, so a fault in a shared helper cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np

PI = math.pi


def separation(alpha: float, dtheta: float) -> float:
    """Angular distance between two rays on a cone of angle alpha."""
    d = math.fmod(abs(dtheta), alpha)
    return min(d, alpha - d)


def cone_distance(alpha: float, r1: float, r2: float, dtheta: float) -> float:
    """Geodesic distance: straight line below angle pi, else via the vertex."""
    sep = separation(alpha, dtheta)
    if sep >= PI:
        return r1 + r2
    return math.sqrt(max(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(sep), 0.0))


def direct_fronts(alpha: float, r1: float, r2: float, dtheta: float) -> list[float]:
    """Arrival times of every direct geodesic (one per image of q2 within
    angle pi of q1 on the universal cover)."""
    k_max = int(math.ceil(2.0 * PI / alpha)) + 1
    out = []
    for k in range(-k_max, k_max + 1):
        phi = dtheta + k * alpha
        if abs(phi) < PI:
            out.append(math.sqrt(max(r1 * r1 + r2 * r2
                                     - 2.0 * r1 * r2 * math.cos(phi), 0.0)))
    return out


def _pieces(alpha: float, r1: float, r2: float, dtheta: float):
    """[(coeff, d, tau_lo, tau_hi)]: the kernel is coeff (tau^2 - d^2)^(-1/2)
    on (tau_lo, tau_hi). Exact on the plane and on the cone of angle 4 pi."""
    sep = separation(alpha, dtheta)
    d_f = math.sqrt(max(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(sep), 0.0))
    if abs(alpha - 2.0 * PI) < 1e-12:
        return [(1.0 / (2.0 * PI), d_f, d_f, math.inf)]
    if abs(alpha - 4.0 * PI) > 1e-12:
        raise ValueError("closed forms exist for alpha = 2 pi and 4 pi only")
    diffracted = r1 + r2
    tail = (1.0 / (4.0 * PI), d_f, diffracted, math.inf)
    if sep < PI:
        return [(1.0 / (2.0 * PI), d_f, d_f, diffracted), tail]
    return [tail]


def sine_kernel(alpha: float, t: float, r1: float, r2: float,
                dtheta: float) -> float:
    """Unmollified sine kernel on the plane (2 pi) or on C_{4 pi}."""
    for coeff, d, lo, hi in _pieces(alpha, r1, r2, dtheta):
        if lo < t < hi:
            return coeff / math.sqrt(t * t - d * d)
    return 0.0


def image_sum_kernel(alpha: float, t: float, r1: float, r2: float,
                     dtheta: float) -> float:
    """Sine kernel on any cone before the diffracted front (t < r1 + r2):
    the sum of plane kernels over the direct images."""
    if t >= r1 + r2:
        raise ValueError("the image sum holds before the diffracted front only")
    return sum(1.0 / (2.0 * PI * math.sqrt(t * t - d * d))
               for d in direct_fronts(alpha, r1, r2, dtheta) if d < t)


def mollified_sine_kernel(alpha: float, ts, r1: float, r2: float,
                          dtheta: float, h: float, panels: int = 400,
                          order: int = 8) -> np.ndarray:
    """Gaussian time mollification int rho_h(t - tau) E(tau) dtau.

    Each piece coeff (tau^2 - d^2)^(-1/2) becomes smooth under
    tau = sqrt(d^2 + s^2) (dtau / sqrt(tau^2 - d^2) = ds / tau), and is then
    integrated by composite Gauss-Legendre over tau in t +- 12 h.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    out = []
    for t in np.atleast_1d(np.asarray(ts, dtype=float)):
        total = 0.0
        for coeff, d, lo, hi in _pieces(alpha, r1, r2, dtheta):
            a = max(lo, t - 12.0 * h, d)
            b = min(hi, t + 12.0 * h)
            if b <= a:
                continue
            s_a = math.sqrt(max(a * a - d * d, 0.0))
            s_b = math.sqrt(b * b - d * d)
            edges = np.linspace(s_a, s_b, panels + 1)
            half = 0.5 * np.diff(edges)
            s = (edges[:-1, None] + half[:, None] * (nodes[None, :] + 1.0)).ravel()
            w = (half[:, None] * weights[None, :]).ravel()
            tau = np.sqrt(d * d + s * s)
            rho = np.exp(-0.5 * ((t - tau) / h) ** 2) / (math.sqrt(2.0 * PI) * h)
            total += coeff * float(np.sum(w * rho / tau))
        out.append(total)
    return np.array(out)


def scattering_matrix(alpha: float, theta) -> np.ndarray:
    """S_alpha(theta) from its closed form (poles give inf or nan)."""
    k = PI / alpha
    theta = np.asarray(theta, dtype=float)
    return -math.sin(2.0 * PI * PI / alpha) / (
        2.0 * alpha * np.sin(k * (PI - theta)) * np.sin(k * (PI + theta)))


def two_diffraction_coefficient_abs(L: float, b: float) -> float:
    """|c| of the order -1 trace singularity, sqrt(b (L - b)) / (4 pi^2)."""
    return math.sqrt(b * (L - b)) / (4.0 * PI * PI)


def torus_frequencies(a: float, b: float, lambda_max: float) -> np.ndarray:
    """Every eigenfrequency, with repetition, of the flat 2a x 2b torus up
    to lambda_max: pi sqrt((m/a)^2 + (n/b)^2) over the integer lattice."""
    m_max = int(a * lambda_max / PI) + 1
    n_max = int(b * lambda_max / PI) + 1
    m, n = np.meshgrid(np.arange(-m_max, m_max + 1),
                       np.arange(-n_max, n_max + 1), indexing="ij")
    lam = PI * np.sqrt((m / a) ** 2 + (n / b) ** 2)
    return lam[lam <= lambda_max]


def torus_trace(freqs: np.ndarray, ts, h: float) -> np.ndarray:
    """sum_j e^{-i t lambda_j} e^{-h^2 lambda_j^2 / 2} at each t."""
    weights = np.exp(-0.5 * (h * freqs) ** 2)
    return np.array([np.sum(weights * np.exp(-1j * t * freqs))
                     for t in np.atleast_1d(ts)])


def pillowcase_lengths(a: float, b: float, t_max: float) -> np.ndarray:
    """Closed-geodesic lengths 2 sqrt((m a)^2 + (n b)^2) up to t_max."""
    m_max = int(t_max / (2.0 * a)) + 1
    n_max = int(t_max / (2.0 * b)) + 1
    m, n = np.meshgrid(np.arange(m_max + 1), np.arange(n_max + 1), indexing="ij")
    ell = 2.0 * np.hypot(m * a, n * b).ravel()
    return np.unique(ell[(ell > 0) & (ell <= t_max)])


# The acceptance gates as the repository README states them. The
# benchmark re-checks every AT figure against this copy, so a gate
# loosened inside verification.py cannot pass unnoticed. AT-4's Hessian
# gate is not in the README table; 1e-5 is the value its summary line
# prints.
AT_GATES = {
    "AT-1": {"max_rel_err": 1e-10},
    "AT-2": {"rel_err_4pi": 1e-2, "rel_err_2pi": 1e-2},
    "AT-3": {"fourier": 1e-3, "identity_4pi": 1e-12, "limits": 1e-10},
    "AT-4": {"dev_omega200": 0.05, "hessian_det_err": 1e-5,
             "ratio_lo": 0.3, "ratio_hi": 0.7},
    "AT-5": {"upsilon_err": 5e-2},
    "AT-6": {"final": 1e-10, "fd": 1e-6},
    "AT-7": {"weyl": 0.05, "peak_dev_per_h": 2.0},
}
