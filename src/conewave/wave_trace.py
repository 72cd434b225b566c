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
import scipy.optimize
import scipy.signal

from .diffraction import (INCOMING_AT_0, OUTGOING_AT_PI,
                          regularized_sine_product, sine_product_limit_numeric)
from .errors import (BadLeg, IncompleteSpectrum, InvalidInput,
                     WindowContaminated)
from .geometry import ConeChain, PlanarPoint
from .special import Mollifier, mollified_inverse_power
from .two_diffraction import composed_phase_psi


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
    """Sorted eigenfrequencies with multiplicities, complete to lambda_max."""

    frequencies: np.ndarray
    multiplicities: np.ndarray
    lambda_max: float
    area: float | None = None

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        m = np.asarray(self.multiplicities, dtype=int)
        if f.shape != m.shape or f.ndim != 1:
            raise ValueError("frequencies/multiplicities must be matching 1-D arrays")
        if np.any(np.diff(f) < 0) or np.any(f < 0):
            raise ValueError("frequencies must be sorted and nonnegative")
        if np.any(m < 1):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "multiplicities", m)

    def counting_function(self, lam: float) -> int:
        return int(self.multiplicities[self.frequencies <= lam].sum())

    def weyl_relative_error(self, lam: float | None = None) -> float:
        """Relative deviation of N(lambda) from Area * lambda^2 / (4 pi)."""
        if self.area is None:
            raise ValueError("spectrum has no recorded area")
        lam = self.lambda_max if lam is None else lam
        weyl = self.area * lam * lam / (4.0 * math.pi)
        return abs(self.counting_function(lam) - weyl) / weyl


def predict_two_diffraction_singularity(L: float, b: float) -> TracePrediction:
    """Leading trace singularity of the two-diffraction orbit: order -1
    with coefficient sqrt(b (L - b)) / (4 i pi^2)."""
    if not 0 < b < L:
        raise BadLeg(f"leg b = {b} outside (0, {L})")
    coeff = math.sqrt(b * (L - b)) / (4j * math.pi**2)
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
    m_max = int(math.floor(a * lambda_max / math.pi))
    n_max = int(math.floor(b * lambda_max / math.pi))
    m, n = np.meshgrid(np.arange(m_max + 1), np.arange(n_max + 1), indexing="ij")
    lam = math.pi * np.sqrt((m / a) ** 2 + (n / b) ** 2)
    mult = np.where((m >= 1) & (n >= 1), 2, 1)
    keep = lam <= lambda_max
    lam, mult = lam[keep].ravel(), mult[keep].ravel()
    order = np.argsort(lam)
    lam, mult = lam[order], mult[order]
    # merge numerically equal frequencies
    out_f, out_m = [lam[0]], [int(mult[0])]
    for f, mm in zip(lam[1:], mult[1:]):
        if f - out_f[-1] <= 1e-12 * max(f, 1.0):
            out_m[-1] += int(mm)
        else:
            out_f.append(f)
            out_m.append(int(mm))
    return Spectrum(np.array(out_f), np.array(out_m), lambda_max,
                    area=surface.area)


def mollified_trace(spec: Spectrum, t_grid: np.ndarray,
                    moll: Mollifier) -> np.ndarray:
    """sum_j mult_j e^{-i t lambda_j} e^{-h^2 lambda_j^2 / 2} on a t grid.

    Requires the truncation to be damped below 1e-10 at lambda_max.  The
    lambda sum runs in fixed-size blocks with numpy's pairwise summation,
    so results are deterministic.
    """
    h = moll.width_h
    if math.exp(-0.5 * (h * spec.lambda_max) ** 2) >= 1e-10:
        raise IncompleteSpectrum(
            f"damping at lambda_max = {spec.lambda_max} is only "
            f"{math.exp(-0.5 * (h * spec.lambda_max) ** 2):.2e}")
    t = np.asarray(t_grid, dtype=float)
    out = np.zeros(t.size, dtype=complex)
    weights = spec.multiplicities * np.exp(-0.5 * (h * spec.frequencies) ** 2)
    block = 4096
    for start in range(0, spec.frequencies.size, block):
        lam = spec.frequencies[start:start + block]
        w = weights[start:start + block]
        out += np.exp(-1j * np.outer(t, lam)) @ w
    return out


def detect_trace_peaks(t_grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Times of local maxima of |trace| with prominence above three times the
    noise floor (the median magnitude over t >= 0.5)."""
    t = np.asarray(t_grid, dtype=float)
    mag = np.abs(np.asarray(values))
    mask = t >= 0.5
    floor = float(np.median(mag[mask]))
    idx, _ = scipy.signal.find_peaks(np.where(mask, mag, 0.0),
                                     prominence=3.0 * floor)
    return t[idx]


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
    required for a valid fit.
    """
    h = moll.width_h
    t = np.asarray(t_grid, dtype=float)
    v = np.asarray(values, dtype=complex)
    core = np.abs(t - L) <= 6.0 * h
    if core.sum() < 8:
        raise ValueError("need at least 8 samples inside the fit window")
    ring = (np.abs(t - L) > 4.0 * h) & (np.abs(t - L) <= 10.0 * h)
    core_peak = float(np.abs(v[np.abs(t - L) <= 2.0 * h]).max())
    if ring.any() and float(np.abs(v[ring]).max()) > 0.5 * core_peak:
        raise WindowContaminated(
            f"competing peak within 10h = {10 * h:.3f} of L = {L}")
    model = mollified_inverse_power(moll, t[core], L, order)
    target = v[core]
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
    limit_in: float
    limit_out: float
    limit_in_numeric_err: float
    limit_out_numeric_err: float
    coefficient_pipeline: complex
    coefficient_formula: complex
    rel_err: float
    passed: bool


def _second_derivative(f, x0: float, step: float) -> float:
    """Richardson-extrapolated central second difference."""
    def d2(h):
        return (f(x0 + h) - 2.0 * f(x0) + f(x0 - h)) / (h * h)

    c1, c2 = d2(step), d2(0.5 * step)
    return (4.0 * c2 - c1) / 3.0


def trace_pipeline_check(L: float, b: float, omega: float = 1.0,
                         fd_tol: float = 1e-6,
                         final_tol: float = 1e-10) -> PipelineReport:
    """Re-derive the two-diffraction trace coefficient step by step.

    Builds the reduced phase psi~ by numerically minimizing the full chain
    phase over the transverse coordinate, verifies by finite differences the
    two Hessian identities

        d2_u psi~(0, w)  = w L / (b (L - b)),
        |d2_y psi (x)|   = w (L - b) / (r1 r2),

    then assembles the coefficient from the verified factors, the two
    regularized scattering limits (+-1/(2 pi)) and the x-integral
    normalization, and compares with the closed formula.
    """
    if not 0 < b < L:
        raise BadLeg(f"leg b = {b} outside (0, {L})")
    span = L - b
    x0 = -span / 3.0          # base point between the unrolled cone points
    r2_leg = -x0              # distance q -> p2
    r1_leg = span - r2_leg    # distance p1 -> q + (L, 0)
    t_orbit = L

    # eps1 = -1, eps2 = +1: p1(s1) = (b, s1), p2(s2) = (0, -s2)
    chain = ConeChain(r2_leg, b, r1_leg, math.pi, math.pi, -1, +1)

    def chain_phase(u: float, y: float) -> float:
        return composed_phase_psi(chain, t_orbit, PlanarPoint(x0 + L, y),
                                  PlanarPoint(x0, y), 0.5 * u, 0.5 * u, omega)

    def psi_tilde(u: float) -> float:
        res = scipy.optimize.minimize_scalar(
            lambda y: chain_phase(u, y), bounds=(-0.4 * span, 0.4 * span),
            method="bounded", options={"xatol": 1e-12})
        return float(res.fun)

    kappa_fd = _second_derivative(psi_tilde, 0.0, 1e-3)
    kappa = omega * L / (b * span)
    kappa_err = abs(kappa_fd - kappa) / kappa

    # step as for kappa: at 1e-4 the roundoff of the second difference,
    # about 16 eps |phi| / step^2 after extrapolation, reaches the 1e-6 gate
    hess_y_fd = _second_derivative(lambda y: chain_phase(0.0, y), 0.0, 1e-3)
    hess_y = omega * span / (r1_leg * r2_leg)
    hess_y_err = abs(hess_y_fd - hess_y) / hess_y

    p_in = regularized_sine_product(math.pi, INCOMING_AT_0)
    p_out = regularized_sine_product(math.pi, OUTGOING_AT_PI)
    p_in_err = abs(sine_product_limit_numeric(3.0 * math.pi, INCOMING_AT_0)
                   - p_in) / abs(p_in)
    p_out_err = abs(sine_product_limit_numeric(3.0 * math.pi, OUTGOING_AT_PI)
                    - p_out) / abs(p_out)

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
    passed = (kappa_err < fd_tol and hess_y_err < fd_tol
              and p_in_err < 1e-10 and p_out_err < 1e-10 and rel < final_tol)
    return PipelineReport(L, b, kappa_fd, kappa, kappa_err, hess_y_err,
                          p_in, p_out, p_in_err, p_out_err,
                          complex(coefficient), formula, rel, passed)
