"""Composition of two successive geometric diffractions.

The half-wave kernel microlocalized along a geodesic q2 -> p2 -> p1 -> q1
with geometric diffractions at both cone points is composed from two
one-cone factors with phases

    phi2 = [ |q - p2(s2)| + |p2(s2) - q2| - t0       ] * w2
    phi1 = [ |q1 - p1(s1)| + |p1(s1) - q|  - (t - t0)] * w1

where p_i(s_i) are the shifted vertices.  Stationary phase in the
intermediate point q and in w2 puts q on the segment between the shifted
vertices with w2 = w1, leaving the composed phase

    Psi = [ |q2 - p2(s2)| + |p2(s2) - p1(s1)| + |p1(s1) - q1| - t ] * w

with 3x3 Hessian determinant -C*w (C = 1/A + 1/B) and signature +1.  This
module carries the phases, the stationary data, the leading amplitude and
principal symbol on the twice-diffracted front, numerical nondegeneracy
checks for the four-front phase, and a brute-force oscillatory quadrature
oracle for the whole composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diffraction import regularized_pair_product, scattering_matrix_value
from .errors import (DegenerateDistance, InvalidInput, NoInteriorCriticalPoint,
                     QuadratureFailure)
from .geometry import ConeChain, PlanarPoint, chart_angle

QUARTER_TURN = np.exp(1j * math.pi / 4.0)


@dataclass(frozen=True)
class CompositionPoint:
    """Evaluation point of the two-factor composition.

    t0 defaults to a + b/2 (any value in (a, a+b) splits the two cone
    points); final symbols are t0-independent, which the tests verify.
    """

    chain: ConeChain
    q1: PlanarPoint
    q2: PlanarPoint
    s1: float
    s2: float
    omega: float
    t: float
    t0: float | None = None

    def __post_init__(self):
        if not (self.s1 >= 0 and self.s2 >= 0
                and math.isfinite(self.s1) and math.isfinite(self.s2)):
            raise InvalidInput("vertex shifts must be finite and >= 0")
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise InvalidInput(
                f"frequency must be positive and finite, got {self.omega}")
        if not math.isfinite(self.t):
            raise InvalidInput(f"time must be finite, got {self.t}")
        t0 = self.t0 if self.t0 is not None else self.chain.a + 0.5 * self.chain.b
        if not (self.chain.a < t0 < self.chain.a + self.chain.b):
            raise InvalidInput("t0 must lie in (a, a + b)")
        object.__setattr__(self, "t0", float(t0))

    @property
    def p1_shifted(self) -> PlanarPoint:
        return PlanarPoint(self.chain.b, -self.chain.eps1 * self.s1)

    @property
    def p2_shifted(self) -> PlanarPoint:
        return PlanarPoint(0.0, -self.chain.eps2 * self.s2)


@dataclass(frozen=True)
class StationaryData:
    q_c: PlanarPoint
    A: float
    B: float
    C: float
    hessian_det: float
    signature: int


@dataclass(frozen=True)
class NondegeneracyReport:
    kind: str
    smallest_singular_value: float
    passed: bool
    rows: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PrincipalSymbol:
    value: complex
    half_density: str = "|dr1 dtheta1 dtheta2 domega|^(1/2)"


def _dist(u: PlanarPoint, v: PlanarPoint) -> float:
    d = math.hypot(u.x - v.x, u.y - v.y)
    if d < 1e-14:
        raise DegenerateDistance(f"coincident points {u} and {v}")
    return d


def phase_phi2(cp: CompositionPoint, q: PlanarPoint) -> float:
    """Input-factor phase [|q - p2(s2)| + |p2(s2) - q2| - t0] * omega."""
    p2s = cp.p2_shifted
    return (_dist(q, p2s) + _dist(p2s, cp.q2) - cp.t0) * cp.omega


def phase_phi1(cp: CompositionPoint, q: PlanarPoint) -> float:
    """Output-factor phase [|q1 - p1(s1)| + |p1(s1) - q| - (t - t0)] * omega."""
    p1s = cp.p1_shifted
    return (_dist(cp.q1, p1s) + _dist(p1s, q) - (cp.t - cp.t0)) * cp.omega


def stationary_eliminate(cp: CompositionPoint) -> StationaryData:
    """Eliminate (q, w2) by stationary phase.

    d_q Phi = 0 forces q onto the segment between the shifted vertices with
    w2 = w1; d_{w2} Phi = 0 fixes |q - p2(s2)| = t0 - |p2(s2) - q2|.  The
    (x, y, w2) Hessian has determinant -C*omega and signature +1.
    """
    p1s, p2s = cp.p1_shifted, cp.p2_shifted
    ell = _dist(p1s, p2s)
    a_dist = cp.t0 - _dist(p2s, cp.q2)
    b_dist = ell - a_dist
    if not (a_dist > 0 and b_dist > 0):
        raise NoInteriorCriticalPoint(
            f"critical point at distance {a_dist:.4f} of segment length {ell:.4f}")
    ux, uy = (p1s.x - p2s.x) / ell, (p1s.y - p2s.y) / ell
    q_c = PlanarPoint(p2s.x + a_dist * ux, p2s.y + a_dist * uy)
    c_val = 1.0 / a_dist + 1.0 / b_dist
    return StationaryData(q_c, a_dist, b_dist, c_val,
                          hessian_det=-c_val * cp.omega, signature=+1)


def phase_hessian_fd(cp: CompositionPoint, step: float = 1e-5) -> np.ndarray:
    """Finite-difference Hessian of Phi = phi1 + phi2 in (x, y, w2) at the
    stationary point (w2 treated as the second factor's frequency)."""
    sd = stationary_eliminate(cp)

    def phi(x, y, w2):
        q = PlanarPoint(x, y)
        return phase_phi1(cp, q) + phase_phi2(replace(cp, omega=w2), q)

    x0 = np.array([sd.q_c.x, sd.q_c.y, cp.omega])
    hess = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            e_i = np.eye(3)[i] * step
            e_j = np.eye(3)[j] * step
            hess[i, j] = (
                phi(*(x0 + e_i + e_j)) - phi(*(x0 + e_i - e_j))
                - phi(*(x0 - e_i + e_j)) + phi(*(x0 - e_i - e_j))
            ) / (4.0 * step * step)
    return hess


def composed_phase_psi(chain: ConeChain, t: float, q1: PlanarPoint,
                       q2: PlanarPoint, s1: float, s2: float,
                       omega: float) -> float:
    """[|q2 - p2(s2)| + |p2(s2) - p1(s1)| + |p1(s1) - q1| - t] * omega."""
    p1s = PlanarPoint(chain.b, -chain.eps1 * s1)
    p2s = PlanarPoint(0.0, -chain.eps2 * s2)
    return (_dist(q2, p2s) + _dist(p2s, p1s) + _dist(p1s, q1) - t) * omega


def psi_shift_derivatives(chain: ConeChain, q1: PlanarPoint, q2: PlanarPoint,
                          omega: float) -> tuple[float, float]:
    """(dPsi/ds1, dPsi/ds2) at s1 = s2 = 0: eps_i * omega * y_i / r_i."""
    r1 = _dist(q1, chain.p1)
    r2 = _dist(q2, chain.p2)
    return (chain.eps1 * omega * q1.y / r1, chain.eps2 * omega * q2.y / r2)


def leg_amplitude(alpha: float, eps: int, vertex: PlanarPoint,
                  q_out, q_in, omega):
    """Leading one-cone amplitude between chart points around `vertex`:

        -eps * 2 pi i * S_alpha(th_out - th_in) (sin th_out + sin th_in)
            * (rho_out rho_in)^(-1/2) * omega,

    the regularized product keeping geometric alignments finite.  q_out and
    q_in may be arrays of shape (..., 2).
    """
    q_out = np.asarray(q_out, dtype=float)
    q_in = np.asarray(q_in, dtype=float)
    dx_out, dy_out = q_out[..., 0] - vertex.x, q_out[..., 1] - vertex.y
    dx_in, dy_in = q_in[..., 0] - vertex.x, q_in[..., 1] - vertex.y
    product = regularized_pair_product(alpha, chart_angle(eps, dx_out, dy_out),
                                       chart_angle(eps, dx_in, dy_in))
    rho_out = np.hypot(dx_out, dy_out)
    rho_in = np.hypot(dx_in, dy_in)
    return -eps * 2.0j * math.pi * product * omega / np.sqrt(rho_out * rho_in)


def amplitude_tilde(chain: ConeChain, t: float, q1: PlanarPoint,
                    q2: PlanarPoint, omega: float) -> complex:
    """Leading composed amplitude at s1 = s2 = 0:

        atilde = e^{i pi/4} (omega C)^(-1/2) a1(q1, q_c) a2(q_c, q2),

    which in polar coordinates (r_i, theta_i) around p_i evaluates to
    e^{i pi/4} (2 pi)^2 S_{a1}(-pi - th1) S_{a2}(th2) sin th1 sin th2
    (r1 r2 b)^(-1/2) omega^(3/2) (angles oriented along the reflected
    charts; the same normalization feeds the trace pipeline).
    """
    cp = CompositionPoint(chain, q1, q2, 0.0, 0.0, omega, t)
    sd = stationary_eliminate(cp)
    q_c = np.array([sd.q_c.x, sd.q_c.y])
    a1 = leg_amplitude(chain.alpha1, chain.eps1, chain.p1,
                       np.array([q1.x, q1.y]), q_c, omega)
    a2 = leg_amplitude(chain.alpha2, chain.eps2, chain.p2,
                       q_c, np.array([q2.x, q2.y]), omega)
    return complex(QUARTER_TURN / math.sqrt(omega * sd.C) * a1 * a2)


def principal_symbol_lambda0(chain: ConeChain, theta1: float, theta2: float,
                             omega: float) -> PrincipalSymbol:
    """Principal symbol on the twice-diffracted front:

        2 pi e^{i pi/4} omega^(-1/2) b^(-1/2) S_{a2}(theta2) S_{a1}(-pi - theta1).

    theta1, theta2 are the polar angles of q1, q2 around p1, p2 in the
    reflected orientation (theta1 near 0, theta2 near pi on the base
    configuration).  The half-density factor is carried as metadata only.
    """
    if not omega > 0:
        raise ValueError("frequency must be positive")
    s1_val = scattering_matrix_value(chain.alpha1, -math.pi - theta1)
    s2_val = scattering_matrix_value(chain.alpha2, theta2)
    value = (2.0 * math.pi * QUARTER_TURN * s2_val * s1_val
             / math.sqrt(omega * chain.b))
    return PrincipalSymbol(complex(value))


def chart_points_from_angles(chain: ConeChain, r1: float, theta1: float,
                             r2: float, theta2: float) -> tuple[PlanarPoint, PlanarPoint]:
    """(q1, q2) in the chain frame from reflected-orientation polar angles
    (the parametrization used by principal_symbol_lambda0 and the displayed
    amplitude formulas): q1 around p1 at angle -theta1, q2 around p2 at
    chart angle matching theta2 measured from the incoming direction."""
    q1 = PlanarPoint(chain.b + r1 * math.cos(theta1), -r1 * math.sin(theta1))
    q2 = PlanarPoint(r2 * math.cos(theta2), -r2 * math.sin(theta2))
    return q1, q2


def _rich_step(f, x0: np.ndarray, i: int, step: float) -> float:
    """Richardson-extrapolated central first derivative along coordinate i."""
    e = np.zeros_like(x0)
    e[i] = 1.0

    def diff(h):
        return (f(x0 + h * e) - f(x0 - h * e)) / (2.0 * h)

    d1, d2 = diff(step), diff(0.5 * step)
    return (4.0 * d2 - d1) / 3.0


def _phase_differentials(phase, x0: np.ndarray, param_indices: list[int],
                         step: float) -> np.ndarray:
    """Rows d_{x,theta}(dphase/dparam_i) for each boundary/fiber parameter.

    `phase` takes the full coordinate vector; `param_indices` select which
    coordinates are the differentiated parameters (s's and the fiber); the
    differential is taken in all coordinates *except* the s-parameters.
    """
    base_indices = [i for i in range(x0.size) if i not in param_indices]
    rows = []
    for pi in param_indices:
        def dphase(x, pi=pi):
            return _rich_step(phase, x, pi, step)

        row = [_rich_step(dphase, x0, bi, step * 10) for bi in base_indices]
        rows.append(row)
    return np.asarray(rows)


def nondegeneracy_check(kind: str, chain: ConeChain | None = None,
                        t: float | None = None, q1: PlanarPoint | None = None,
                        q2: PlanarPoint | None = None, omega: float = 1.0,
                        alpha: float | None = None, eps: int = +1,
                        step: float = 1e-6,
                        threshold: float = 1e-6) -> NondegeneracyReport:
    """Numerical rank check of the parametrization nondegeneracy conditions.

    kind="pair": the one-cone phase [|q1-p(s)| + |q2-p(s)| - t] w; the rows
    are the differentials of dphi/dw and dphi/ds in (t, q1, q2, w) at s = 0.
    kind="system": the composed phase Psi; rows for dPsi/dw, dPsi/ds1,
    dPsi/ds2 at s1 = s2 = 0.  PASS iff the smallest singular value of the
    stacked rows exceeds `threshold`.
    """
    if kind == "pair":
        if q1 is None or q2 is None or t is None:
            raise ValueError("pair check needs t, q1, q2")

        def phase(v):
            tt, x1, y1, x2, y2, w, s = v
            px, py = 0.0, -eps * s
            return (math.hypot(x1 - px, y1 - py)
                    + math.hypot(x2 - px, y2 - py) - tt) * w

        x0 = np.array([t, q1.x, q1.y, q2.x, q2.y, omega, 0.0])
        rows = _phase_differentials(phase, x0, [5, 6], step)
    elif kind == "system":
        if chain is None or t is None or q1 is None or q2 is None:
            raise ValueError("system check needs chain, t, q1, q2")

        def phase(v):
            tt, x1, y1, x2, y2, w, s1, s2 = v
            return composed_phase_psi(chain, tt, PlanarPoint(x1, y1),
                                      PlanarPoint(x2, y2), s1, s2, w)

        x0 = np.array([t, q1.x, q1.y, q2.x, q2.y, omega, 0.0, 0.0])
        rows = _phase_differentials(phase, x0, [5, 6, 7], step)
    else:
        raise ValueError(f"unknown phase kind {kind!r}")
    smin = float(np.linalg.svd(rows, compute_uv=False)[-1])
    return NondegeneracyReport(kind, smin, smin > threshold, rows)


def stationary_phase_value(chain: ConeChain, t: float, q1: PlanarPoint,
                           q2: PlanarPoint, omega: float,
                           unit_amplitudes: bool = False) -> complex:
    """Leading stationary-phase value of the (q, w2) composition integral:

        (2 pi)^{3/2} |omega C|^(-1/2) e^{i pi/4} a1 a2 |_{q_c} e^{i Psi}.
    """
    cp = CompositionPoint(chain, q1, q2, 0.0, 0.0, omega, t)
    sd = stationary_eliminate(cp)
    psi = composed_phase_psi(chain, t, q1, q2, 0.0, 0.0, omega)
    if unit_amplitudes:
        amp = 1.0
    else:
        q_c = np.array([sd.q_c.x, sd.q_c.y])
        amp = (leg_amplitude(chain.alpha1, chain.eps1, chain.p1,
                             np.array([q1.x, q1.y]), q_c, omega)
               * leg_amplitude(chain.alpha2, chain.eps2, chain.p2,
                               q_c, np.array([q2.x, q2.y]), omega))
    return complex((2.0 * math.pi) ** 1.5 / math.sqrt(omega * sd.C)
                   * QUARTER_TURN * amp * np.exp(1j * psi))


def oscillatory_oracle(chain: ConeChain, t: float, q1: PlanarPoint,
                       q2: PlanarPoint, omega: float,
                       unit_amplitudes: bool = False,
                       sigma_q: float | None = None,
                       rel_tol: float = 3e-4,
                       max_refine: int = 3,
                       t0: float | None = None) -> complex:
    """Brute-force quadrature of the composition integral

        int dq dw2  e^{i (phi1 + phi2)} a1(q1, q; w) a2(q, q2; w2) chi(q) W(w2)

    at s1 = s2 = 0 and external frequency w.  chi is a flat-top localizer
    exp(-(|q - q_c|^2/(2 sigma_q^2))^3) around the stationary point (the
    vanishing low-order derivatives keep its footprint out of the 1/omega
    and 1/omega^2 terms) and W a Gaussian frequency window centered at w
    (width w/6;
    needed for absolute convergence, exact and flat at the stationary
    point).  The w2 integral is closed form; (q) is integrated in polar
    coordinates around p2 on a refining Gauss-Legendre grid.
    """
    if omega < 50:
        raise ValueError("oracle is meant for the asymptotic regime omega >= 50")
    cp = CompositionPoint(chain, q1, q2, 0.0, 0.0, omega, t, t0=t0)
    sd = stationary_eliminate(cp)
    p1, p2 = chain.p1, chain.p2
    r2_leg = math.hypot(q2.x - p2.x, q2.y - p2.y)
    if sigma_q is None:
        sigma_q = min(sd.A, sd.B) / 3.2
    sigma_w = omega / 6.0

    # polar coordinates around p2; u2 = rho - A exactly
    rho_half = min(2.8 * sigma_q, 8.0 / sigma_w)
    rho_lo = max(sd.A - rho_half, 1e-6)
    rho_hi = sd.A + rho_half
    psi_c = math.atan2(sd.q_c.y - p2.y, sd.q_c.x - p2.x)
    psi_half = min(2.8 * sigma_q / sd.A, 1.3)

    # phase excursions set the baseline resolution
    exc_rho = omega * 2.0 * (rho_hi - rho_lo)
    exc_psi = omega * sd.C * (sd.A * psi_half) ** 2 + 20.0
    n_rho = max(40, int(0.8 * exc_rho))
    n_psi = max(90, int(1.2 * exc_psi))

    def evaluate(n_r, n_p):
        xr, wr = np.polynomial.legendre.leggauss(n_r)
        xp, wp = np.polynomial.legendre.leggauss(n_p)
        rho = 0.5 * (rho_hi - rho_lo) * xr + 0.5 * (rho_hi + rho_lo)
        psi = psi_half * xp + psi_c
        R, P = np.meshgrid(rho, psi, indexing="ij")
        X = p2.x + R * np.cos(P)
        Y = p2.y + R * np.sin(P)
        u2 = R - sd.A
        # closed-form w2 integral against the Gaussian window
        gauss = math.sqrt(2.0 * math.pi) * sigma_w * np.exp(
            -0.5 * (sigma_w * u2) ** 2) * np.exp(1j * omega * u2)
        if unit_amplitudes:
            j_w2 = gauss
            amp1 = 1.0
        else:
            j_w2 = gauss * (omega + 1j * sigma_w**2 * u2)
            pts = np.stack([X, Y], axis=-1)
            amp1 = leg_amplitude(chain.alpha1, chain.eps1, p1,
                                 np.array([q1.x, q1.y]), pts, omega)
            # a2 carries w2 linearly; the linear factor moved into j_w2
            prod2 = regularized_pair_product(
                chain.alpha2, chart_angle(chain.eps2, X - p2.x, Y - p2.y),
                chart_angle(chain.eps2, q2.x - p2.x, q2.y - p2.y))
            amp1 = amp1 * (-chain.eps2 * 2.0j * math.pi) * prod2 / np.sqrt(
                R * r2_leg)
        d1 = np.hypot(q1.x - p1.x, q1.y - p1.y)
        phi1 = omega * (d1 + np.hypot(p1.x - X, p1.y - Y) - (t - cp.t0))
        dist2 = (X - sd.q_c.x) ** 2 + (Y - sd.q_c.y) ** 2
        chi = np.exp(-(dist2 / (2.0 * sigma_q**2)) ** 3)
        integrand = amp1 * j_w2 * np.exp(1j * phi1) * chi * R
        jac = 0.5 * (rho_hi - rho_lo) * psi_half
        return jac * np.einsum("i,j,ij->", wr, wp, integrand)

    prev = evaluate(n_rho, n_psi)
    for _ in range(max_refine):
        n_rho = int(n_rho * 1.6)
        n_psi = int(n_psi * 1.6)
        cur = evaluate(n_rho, n_psi)
        if abs(cur - prev) <= rel_tol * abs(cur):
            return complex(cur)
        prev = cur
    raise QuadratureFailure(
        f"oracle did not converge to {rel_tol:.1e} after {max_refine} refinements")
