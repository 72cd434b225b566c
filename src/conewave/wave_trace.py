"""Wave-trace pipeline: predicted two-diffraction singularities, exact
pillowcase spectra, mollified trace sums, and singularity-coefficient fits.

An isolated periodic orbit of length L with two geometric diffractions at
cone points a distance b apart contributes

    (1/(4 i pi^2)) sqrt(b (L - b)) (t - L - i0)^(-1)

to the half-wave trace Tr e^{-i t sqrt(Delta)}.  trace_pipeline_check
re-derives this coefficient step by step (transverse stationary phase, the
u = s1 + s2 boundary integration by parts, and the two regularized
scattering limits) instead of quoting the closed formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .diffraction import SINE_PRODUCT_LIMITS
from .errors import InvalidInput, WindowContaminated
from .geometry import ConeChain, PlanarPoint, check_array_size
from .special import Mollifier, fd_hessian, mollified_inverse_power
from .two_diffraction import composed_phase_psi

# Oversampling ratio M / N and half-width (grid points on each side) of the
# Gaussian gridding in mollified_trace.  Against a long-double direct sum
# at t < 1 the error is at most 6.8e-16 sum_j |w_j|, at n = N = 32; a
# half-width of 14 leaves 4e-15 there and 12 leaves 4e-13.
_NUFFT_OVERSAMPLING = 2
_NUFFT_HALF_WIDTH = 16


@dataclass(frozen=True)
class TracePrediction:
    """(period, inter-cone leg, singularity order, complex coefficient)."""

    L: float
    b: float
    order: int
    coefficient: complex


@dataclass(frozen=True)
class PillowcaseSurface:
    """Doubled a x b rectangle: flat sphere, four cone points of angle pi."""

    a_rect: float
    b_rect: float

    def __post_init__(self):
        sides = (self.a_rect, self.b_rect)
        if not all(side > 0 and math.isfinite(side) for side in sides):
            raise InvalidInput(
                f"rectangle sides must be positive and finite, got {sides}")

    @property
    def area(self) -> float:
        return 2.0 * self.a_rect * self.b_rect


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenfrequencies with multiplicities, complete to lambda_max,
    of a surface of the given area."""

    frequencies: np.ndarray
    multiplicities: np.ndarray
    lambda_max: float
    area: float

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        m = np.asarray(self.multiplicities, dtype=int)
        if f.shape != m.shape or f.ndim != 1:
            raise InvalidInput(
                "frequencies/multiplicities must be matching 1-D arrays")
        if np.any(np.diff(f) < 0) or np.any(f < 0):
            raise InvalidInput("frequencies must be sorted and nonnegative")
        if np.any(m < 1):
            raise InvalidInput("multiplicities must be positive")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "multiplicities", m)

    def counting_function(self, lam: float) -> int:
        return int(self.multiplicities[self.frequencies <= lam].sum())

    def weyl_relative_error(self) -> float:
        """Relative deviation of N(lambda_max) from Area lambda_max^2 / (4 pi)."""
        lam = self.lambda_max
        weyl = self.area * lam * lam / (4.0 * math.pi)
        return abs(self.counting_function(lam) - weyl) / weyl


def predict_two_diffraction_singularity(L: float, b: float) -> TracePrediction:
    """Leading trace singularity of the two-diffraction orbit: order -1
    with coefficient sqrt(b (L - b)) / (4 i pi^2), for 0 < b < L < inf."""
    if not 0 < b < L < math.inf:
        raise InvalidInput(f"need 0 < b < L < inf, got b = {b}, L = {L}")
    # b (L - b) under- or overflows where its factors do not
    coeff = math.sqrt(b) * math.sqrt(L - b) / (4j * math.pi**2)
    return TracePrediction(L, b, -1, coeff)


def pillowcase_spectrum(surface: PillowcaseSurface, lambda_max: float) -> Spectrum:
    """Exact spectrum of the doubled rectangle.

    Doubling glues the Neumann spectrum (cos*cos, m, n >= 0) and the
    Dirichlet spectrum (sin*sin, m, n >= 1) of the rectangle, giving
    lambda = pi sqrt(m^2/a^2 + n^2/b^2) with multiplicity 2 when both
    indices are positive and 1 otherwise.
    """
    if not (lambda_max > 0 and math.isfinite(lambda_max)):
        raise InvalidInput(f"lambda_max must be positive and finite, got {lambda_max}")
    a, b = surface.a_rect, surface.b_rect
    # floats until checked, since int() refuses inf
    m_max, n_max = (float(np.floor(s * lambda_max / math.pi)) for s in (a, b))
    check_array_size((m_max + 1) * (n_max + 1), "the pillowcase index grid")
    m, n = np.meshgrid(np.arange(int(m_max) + 1), np.arange(int(n_max) + 1),
                       indexing="ij")
    lam = math.pi * np.sqrt((m / a) ** 2 + (n / b) ** 2)
    mult = np.where((m >= 1) & (n >= 1), 2, 1)
    keep = lam <= lambda_max
    lam, mult = lam[keep].ravel(), mult[keep].ravel()
    order = np.argsort(lam)
    lam, mult = lam[order], mult[order]
    # merge numerically equal frequencies: a group starts at each gap
    starts = np.flatnonzero(np.diff(lam) > 1e-12 * np.maximum(lam[1:], 1.0))
    starts = np.concatenate(([0], starts + 1))
    return Spectrum(lam[starts], np.add.reduceat(mult, starts), lambda_max,
                    area=surface.area)


def pillowcase_lengths(surface: PillowcaseSurface,
                       t_max: float) -> list[float]:
    """Sorted distinct lengths 2 hypot(m a, n b) <= t_max (m, n >= 0, not
    both 0) of the closed geodesics of the pillowcase: its trace peaks."""
    if not (t_max >= 0 and math.isfinite(t_max)):
        raise InvalidInput(f"t_max must be finite and >= 0, got {t_max}")
    a, b = surface.a_rect, surface.b_rect
    m_max, n_max = (float(np.floor(0.5 * t_max / s)) for s in (a, b))
    check_array_size((m_max + 1) * (n_max + 1),
                     "the closed-geodesic index grid")
    lengths = {2.0 * math.hypot(m * a, n * b)
               for m in range(int(m_max) + 1) for n in range(int(n_max) + 1)}
    return sorted(ell for ell in lengths if 0.0 < ell <= t_max)


def mollified_trace(spec: Spectrum, t_grid: np.ndarray,
                    moll: Mollifier) -> np.ndarray:
    """sum_j w_j e^{-i t lambda_j}, w_j = mult_j e^{-h^2 lambda_j^2 / 2}, on a
    uniform t grid, t_k = t_0 + k dt to within 16 eps max|t| (0, 1 or 2
    points pass).  Requires the truncation to be damped below 1e-10 at
    lambda_max.

    On such a grid the sum is a type-1 nonuniform FFT (Dutt & Rokhlin, SIAM
    J. Sci. Comput. 14, 1993), summed by Gaussian gridding (Greengard & Lee,
    SIAM Rev. 46, 2004): with k_0 = n // 2 and x_j = lambda_j dt mod 2 pi,

        S(t_k) = sum_j w_j e^{-i lambda_j (t_0 + k_0 dt)} e^{-i (k - k_0) x_j},

    so each frequency costs one complex exponential and a spread onto 32
    points of a periodic grid of M = 2 N points (N the power of two at or
    above n, at least 32).  One FFT of length M, divided by the Gaussian's
    transform, then gives all n values.  The gridding error is below
    1e-15 sum_j |w_j|; rounding the phases lambda_j t in double adds about
    eps lambda t to each term, and against a long-double direct sum the
    total is 2e-15 sum_j |w_j| on the AT-7 grid and 2e-14 at t_0 = 100
    (lambda_max = 200).  A grid too long for M to fit MAX_ARRAY_ELEMENTS
    is summed in segments that fit.
    """
    h = moll.width_h
    try:
        damping = math.exp(-0.5 * (h * spec.lambda_max) ** 2)
    except OverflowError as exc:
        raise InvalidInput(f"(h lambda_max)^2 overflows, h = {h}") from exc
    if damping >= 1e-10:
        raise InvalidInput(
            f"damping at lambda_max = {spec.lambda_max} is only {damping:.2e}")
    t = np.asarray(t_grid, dtype=float).ravel()
    n = t.size
    dt = (t[-1] - t[0]) / (n - 1) if n > 1 else 0.0
    dev = float(np.max(np.abs(t - (t[:1] + dt * np.arange(n))), initial=0.0))
    tol = 16.0 * np.finfo(float).eps * float(np.max(np.abs(t), initial=0.0))
    if not dev <= tol:
        raise InvalidInput(f"the t grid deviates from uniform steps by {dev:.2e}")
    weights = spec.multiplicities * np.exp(-0.5 * (h * spec.frequencies) ** 2)
    seg = max(32, (geometry.MAX_ARRAY_ELEMENTS - 2 * _NUFFT_HALF_WIDTH)
              // (2 * _NUFFT_OVERSAMPLING))
    out = np.empty(n, dtype=complex)
    for i in range(0, n, seg):
        out[i:i + seg] = _gridded_sum(spec.frequencies, weights, t[0] + i * dt,
                                      dt, min(seg, n - i))
    return out


def _gridded_sum(lam: np.ndarray, weights: np.ndarray, t0: float, dt: float,
                 n: int) -> np.ndarray:
    """sum_j weights_j e^{-i lam_j (t0 + k dt)} for k = 0..n-1, n >= 1, by
    the Gaussian gridding of mollified_trace; the frequencies are spread in
    chunks of MAX_ARRAY_ELEMENTS // 32 (at least 1)."""
    k0 = n // 2
    r, hw = _NUFFT_OVERSAMPLING, _NUFFT_HALF_WIDTH
    size = r * max(32, 1 << (n - 1).bit_length())
    # the kernel e^{-(x - 2 pi m / M)^2 / (4 tau)}, with Greengard & Lee's
    # tau, is e^{-beta (u - m)^2} in grid units u = x M / (2 pi)
    tau = math.pi * hw * r / (size**2 * (r - 0.5))
    beta = math.pi * (r - 0.5) / (r * hw)
    offsets = np.arange(1 - hw, hw + 1)
    # bin b holds grid point b - hw: one period and hw points past each end
    spread = np.zeros(size + 2 * hw, dtype=complex)
    chunk = max(1, geometry.MAX_ARRAY_ELEMENTS // offsets.size)
    for start in range(0, lam.size, chunk):
        freq = lam[start:start + chunk]
        c = weights[start:start + chunk] * np.exp(-1j * freq * (t0 + k0 * dt))
        u = np.mod(freq * dt, 2.0 * math.pi) * (size / (2.0 * math.pi))
        cell = np.floor(u)
        kernel = np.exp(-beta * np.subtract.outer(u - cell, offsets) ** 2)
        bins = ((cell.astype(np.intp) % size + hw)[:, None] + offsets).ravel()
        for part, amp in ((spread.real, c.real), (spread.imag, c.imag)):
            part += np.bincount(bins, (amp[:, None] * kernel).ravel(), part.size)
    grid = spread[hw:hw + size]
    grid[:hw] += spread[hw + size:]
    grid[-hw:] += spread[:hw]
    k = np.arange(n) - k0
    return (np.fft.fft(grid)[k]
            * (math.sqrt(math.pi / tau) / size * np.exp(tau * k * k)))


def detect_trace_peaks(t_grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Times of the local maxima of |trace| whose prominence is at least
    three times the noise floor, the median magnitude over t >= 0.5; samples
    at t < 0.5 count as zero, and a grid with no t >= 0.5 has no peaks.

    A local maximum is a run of equal samples higher than the run on each
    side; its index is the run's middle sample, rounded down, and a run that
    touches either end of the grid is none.  Its prominence is its height
    minus the higher of two minima: on each side, the minimum over the
    samples between it and the nearest strictly higher sample, or the end of
    the grid if there is none.  (These are the rules of
    scipy.signal.find_peaks with a prominence bound.)
    """
    t = np.asarray(t_grid, dtype=float)
    mag = np.abs(np.asarray(values))
    mask = t >= 0.5
    if not mask.any():
        return np.empty(0)
    floor = float(np.median(mag[mask]))
    x = np.where(mask, mag, 0.0)
    # runs of equal samples: run j covers starts[j]..ends[j] at height level[j]
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:], x.size] - 1
    level = x[starts]
    top = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = (starts[top] + ends[top]) // 2
    keep = np.zeros(peaks.size, dtype=bool)
    for i, p in enumerate(peaks):
        # x[lo:p] and x[p + 1:hi] each hold a lower neighbouring run
        higher = np.flatnonzero(x > x[p])
        k = np.searchsorted(higher, p)
        lo = higher[k - 1] + 1 if k else 0
        hi = higher[k] if k < higher.size else x.size
        keep[i] = x[p] - max(x[lo:p].min(), x[p + 1:hi].min()) >= 3.0 * floor
    return t[peaks[keep]]


@dataclass(frozen=True)
class SingularityFit:
    coefficient: complex
    residual_ratio: float
    valid: bool


def extract_singularity_coefficient(t_grid: np.ndarray, values: np.ndarray,
                                    L: float, moll: Mollifier,
                                    order: float = -1) -> SingularityFit:
    """Least-squares fit of c * model over the window |t - L| <= 6 h, where
    model is the mollified (t - L - i0)^order.

    The surrounding ring |t - L| in (4h, 10h] must be free of competing
    peaks (magnitude above half the core peak); otherwise the window is
    contaminated and WindowContaminated is raised.  residual_ratio < 0.2 is
    required for a valid fit.  InvalidInput is raised when no sample lies
    within 2h of L, when a value within 10h is not finite, or when every
    value in the window is zero.
    """
    h = moll.width_h
    t = np.asarray(t_grid, dtype=float)
    v = np.asarray(values, dtype=complex)
    dist = np.abs(t - L)
    core = dist <= 6.0 * h
    if core.sum() < 8:
        raise InvalidInput("need at least 8 samples inside the fit window")
    center = dist <= 2.0 * h
    if not center.any():
        raise InvalidInput(f"no sample within 2h = {2 * h:.3g} of L = {L}")
    if not np.isfinite(v[dist <= 10.0 * h]).all():
        raise InvalidInput(f"a value within 10h = {10 * h:.3g} of L = {L} "
                           "is not finite")
    target = v[core]
    if not target.any():
        raise InvalidInput(f"every value within 6h = {6 * h:.3g} of L = {L} "
                           "is zero")
    ring = (dist > 4.0 * h) & (dist <= 10.0 * h)
    core_peak = float(np.abs(v[center]).max())
    if ring.any() and float(np.abs(v[ring]).max()) > 0.5 * core_peak:
        raise WindowContaminated(
            f"competing peak within 10h = {10 * h:.3f} of L = {L}")
    model = mollified_inverse_power(moll, t[core], L, order)
    coeff = complex(np.vdot(model, target) / np.vdot(model, model))
    residual = float(np.linalg.norm(target - coeff * model)
                     / np.linalg.norm(target))
    return SingularityFit(coeff, residual, residual < 0.2)


@dataclass(frozen=True)
class PipelineReport:
    L: float
    b: float
    hessian_u_fd: float
    hessian_u_formula: float
    hessian_u_rel_err: float
    hessian_y_rel_err: float
    coefficient_pipeline: complex
    coefficient_formula: complex
    rel_err: float


def trace_pipeline_check(L: float, b: float,
                         omega: float = 1.0) -> PipelineReport:
    """Re-derive the two-diffraction trace coefficient step by step.

    The chain phase psi(u, y) is even under (u, y) -> (-u, -y), so (0, 0)
    is a critical point, and one finite-difference Hessian H there gives
    both curvatures.  By the implicit function theorem the reduced phase
    psi~(u) = psi(u, y*(u)) has the second derivative of the Schur complement
    H_uu - H_uy^2 / H_yy.  The check verifies the two Hessian identities

        d2_u psi~(0, w)  = w L / (b (L - b)),
        |d2_y psi (x)|   = w (L - b) / (r1 r2),

    then assembles the coefficient from the verified factors, the two
    regularized scattering limits (+-1/(2 pi), which AT-6 checks once per
    run, as they do not depend on the orbit) and the x-integral
    normalization, and compares with the closed formula.  It reports the
    relative error of each step; AT-6 gates them.
    """
    if not 0 < b < L:
        raise InvalidInput(f"leg b = {b} outside (0, {L})")
    span = L - b
    x0 = -span / 3.0          # base point between the unrolled cone points
    r2_leg = -x0              # distance q -> p2
    r1_leg = span - r2_leg    # distance p1 -> q + (L, 0)
    t_orbit = L

    # eps1 = -1, eps2 = +1: p1(s1) = (b, s1), p2(s2) = (0, -s2)
    chain = ConeChain(r2_leg, b, r1_leg, math.pi, math.pi, -1, +1)

    def chain_phase(v: np.ndarray) -> np.ndarray:
        u, y = v
        return composed_phase_psi(chain, t_orbit, PlanarPoint(x0 + L, y),
                                  PlanarPoint(x0, y), 0.5 * u, 0.5 * u, omega)

    hess = fd_hessian(chain_phase, [0.0, 0.0], 1e-3)
    kappa_fd = float(hess[0, 0] - hess[0, 1] ** 2 / hess[1, 1])
    kappa = omega * L / (b * span)
    kappa_err = abs(kappa_fd - kappa) / kappa

    hess_y_fd = float(hess[1, 1])
    hess_y = omega * span / (r1_leg * r2_leg)
    hess_y_err = abs(hess_y_fd - hess_y) / hess_y

    p_in, p_out = SINE_PRODUCT_LIMITS

    # leading composed amplitude at the orbit, regularized limits inserted
    atilde0 = (np.exp(1j * math.pi / 4.0) * (2.0 * math.pi) ** 2
               * p_in * p_out * omega**1.5
               / math.sqrt(r1_leg * r2_leg * b))
    # transverse stationary phase (signature +1) and the (2 pi) bookkeeping
    a0 = (2.0 * math.pi) ** -2 * np.exp(1j * math.pi / 4.0) * atilde0 / math.sqrt(hess_y)
    # boundary integration by parts in u = s1 + s2 contributes i / kappa
    density = 1j * a0 / kappa
    # x runs over the whole orbit; int_0^inf e^{i w (L-t)} dw = (1/i)(t-L-i0)^(-1)
    coefficient = density * L / 1j

    formula = predict_two_diffraction_singularity(L, b).coefficient
    rel = abs(coefficient - formula) / abs(formula)
    return PipelineReport(L, b, kappa_fd, kappa, kappa_err, hess_y_err,
                          complex(coefficient), formula, rel)
