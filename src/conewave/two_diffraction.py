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

with 3x3 Hessian determinant -C*w (C = 1/A + 1/B) and signature +1.

Every phase is a broken-line length through shifted vertices, and each of
the two pieces exists once: `shifted_vertex` builds p_i(s_i) and
`broken_line_length` measures a chain of points whose coordinates may be
arrays.  Likewise `leg_amplitude` is the only one-cone amplitude and
`amplitude_tilde` the only composed one; the stationary-phase value and
the quadrature oracle are built from them, and the closed-form principal
symbol is checked against them.  The module also carries numerical
rank checks of the one-cone and the composed phase.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .diffraction import s_times_cos_half, scattering_matrix
from .errors import GeometricDirection, InvalidInput, QuadratureFailure
from .geometry import ConeChain, PlanarPoint, chart_angle, check_array_size
from .special import fd_hessian, gauss_legendre

QUARTER_TURN = np.exp(1j * math.pi / 4.0)
# the half-density of which principal_symbol_lambda0 is the coefficient
HALF_DENSITY = "|dr1 dtheta1 dtheta2 domega|^(1/2)"

# Step of every finite-difference Hessian of a phase here: its O(step^4)
# truncation and its roundoff, about eps |phase| / step^2, both stay near
# 1e-10 for phases of size one.
FD_STEP = 3e-3


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
        return shifted_vertex(self.chain.p1, self.chain.eps1, self.s1)

    @property
    def p2_shifted(self) -> PlanarPoint:
        return shifted_vertex(self.chain.p2, self.chain.eps2, self.s2)


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
    smallest_singular_value: float
    rows: np.ndarray = field(repr=False)


def shifted_vertex(vertex: PlanarPoint, eps: int, s: float) -> PlanarPoint:
    """The vertex p(s) = vertex - eps * s * e_y of the boundary parameter s."""
    return PlanarPoint(vertex.x, vertex.y - eps * s)


def broken_line_length(*points):
    """Length of the broken line through `points`.

    The coordinates of each point may be floats or arrays that broadcast
    together; the result is a float for scalar input.  A leg shorter than
    1e-14 raises InvalidInput.
    """
    total = 0.0
    for u, v in zip(points, points[1:]):
        dx, dy = u.x - v.x, u.y - v.y
        if isinstance(dx, np.ndarray) or isinstance(dy, np.ndarray):
            leg = np.hypot(dx, dy)
            short = np.any(leg < 1e-14)
        else:
            # a Python float, not np.float64, whose overflow downstream
            # (at a huge omega or leg) warns where the float gives inf: with
            # np.hypot here the oracle's budget refusals and the compose
            # overflow cases of the CLI tests exit 1 in place of 2
            leg = math.hypot(dx, dy)
            short = leg < 1e-14
        if short:
            raise InvalidInput("a leg of the broken line is shorter than 1e-14")
        total = total + leg
    return total


def phase_phi2(cp: CompositionPoint, q: PlanarPoint):
    """Input-factor phase [|q - p2(s2)| + |p2(s2) - q2| - t0] * omega."""
    return (broken_line_length(q, cp.p2_shifted, cp.q2) - cp.t0) * cp.omega


def phase_phi1(cp: CompositionPoint, q: PlanarPoint):
    """Output-factor phase [|q1 - p1(s1)| + |p1(s1) - q| - (t - t0)] * omega;
    q may carry arrays."""
    return (broken_line_length(cp.q1, cp.p1_shifted, q)
            - (cp.t - cp.t0)) * cp.omega


def stationary_eliminate(cp: CompositionPoint) -> StationaryData:
    """Eliminate (q, w2) by stationary phase.

    d_q Phi = 0 forces q onto the segment between the shifted vertices with
    w2 = w1; d_{w2} Phi = 0 fixes |q - p2(s2)| = t0 - |p2(s2) - q2|.  The
    (x, y, w2) Hessian has determinant -C*omega and signature +1.
    """
    p1s, p2s = cp.p1_shifted, cp.p2_shifted
    ell = broken_line_length(p1s, p2s)
    a_dist = cp.t0 - broken_line_length(p2s, cp.q2)
    b_dist = ell - a_dist
    if not (a_dist > 0 and b_dist > 0):
        raise InvalidInput(
            f"critical point at distance {a_dist:.4f} of segment length {ell:.4f}")
    ux, uy = (p1s.x - p2s.x) / ell, (p1s.y - p2s.y) / ell
    q_c = PlanarPoint(p2s.x + a_dist * ux, p2s.y + a_dist * uy)
    c_val = 1.0 / a_dist + 1.0 / b_dist
    return StationaryData(q_c, a_dist, b_dist, c_val,
                          hessian_det=-c_val * cp.omega, signature=+1)


def phase_hessian_fd(cp: CompositionPoint) -> np.ndarray:
    """Finite-difference Hessian (`fd_hessian`, step FD_STEP) of
    Phi = phi1 + phi2 in (x, y, w2) at the stationary point, w2 being the
    second factor's frequency; phi2 is linear in it, so it enters as
    phase_phi2(cp, q) * w2 / omega."""
    sd = stationary_eliminate(cp)

    def phi(v):
        q = PlanarPoint(v[0], v[1])
        return phase_phi1(cp, q) + phase_phi2(cp, q) * (v[2] / cp.omega)

    return fd_hessian(phi, [sd.q_c.x, sd.q_c.y, cp.omega], FD_STEP)


def composed_phase_psi(chain: ConeChain, t: float, q1: PlanarPoint,
                       q2: PlanarPoint, s1: float, s2: float,
                       omega: float) -> float:
    """[|q2 - p2(s2)| + |p2(s2) - p1(s1)| + |p1(s1) - q1| - t] * omega."""
    p1s = shifted_vertex(chain.p1, chain.eps1, s1)
    p2s = shifted_vertex(chain.p2, chain.eps2, s2)
    return (broken_line_length(q2, p2s, p1s, q1) - t) * omega


def leg_amplitude(alpha: float, eps: int, vertex: PlanarPoint,
                  q_out: PlanarPoint, q_in: PlanarPoint, omega):
    """Leading one-cone amplitude between chart points around `vertex`:

        -eps * 2 pi i * S_alpha(th_out - th_in) (sin th_out + sin th_in)
            * (rho_out rho_in)^(-1/2) * omega,

    S_alpha (sin th_out + sin th_in) taken as 2 sin((th_out + th_in)/2)
    times s_times_cos_half, finite at alignments.  The coordinates of q_out
    and q_in may be arrays that broadcast together.
    """
    dx_out, dy_out = q_out.x - vertex.x, q_out.y - vertex.y
    dx_in, dy_in = q_in.x - vertex.x, q_in.y - vertex.y
    th_out = chart_angle(eps, dx_out, dy_out)
    th_in = chart_angle(eps, dx_in, dy_in)
    product = (2.0 * np.sin(0.5 * (th_out + th_in))
               * s_times_cos_half(alpha, th_out - th_in))
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
    a1 = leg_amplitude(chain.alpha1, chain.eps1, chain.p1, q1, sd.q_c, omega)
    a2 = leg_amplitude(chain.alpha2, chain.eps2, chain.p2, sd.q_c, q2, omega)
    return complex(QUARTER_TURN / math.sqrt(omega * sd.C) * a1 * a2)


def principal_symbol_lambda0(chain: ConeChain, q1: PlanarPoint,
                             q2: PlanarPoint, omega: float) -> complex:
    """Principal symbol on the twice-diffracted front, the coefficient of
    HALF_DENSITY:

        2 pi e^{i pi/4} omega^(-1/2) b^(-1/2) S_{a2}(theta2) S_{a1}(-pi - theta1),

    theta1, theta2 the polar angles of q1, q2 around p1, p2 in the reflected
    orientation of `chart_points_from_angles` (theta1 near 0, theta2 near pi
    on the base configuration)."""
    if not omega > 0:
        raise InvalidInput("frequency must be positive")
    theta1 = -math.atan2(q1.y, q1.x - chain.b)
    theta2 = -math.atan2(q2.y, q2.x)
    theta2 = theta2 if theta2 >= 0 else theta2 + 2.0 * math.pi
    s1_val = scattering_matrix(chain.alpha1, -math.pi - theta1)
    s2_val = scattering_matrix(chain.alpha2, theta2)
    if math.isnan(s1_val) or math.isnan(s2_val):
        raise GeometricDirection(
            f"principal symbol at a geometric direction (theta1 = {theta1}, "
            f"theta2 = {theta2})")
    return complex(2.0 * math.pi * QUARTER_TURN * s2_val * s1_val
                   / math.sqrt(omega * chain.b))


def chart_points_from_angles(chain: ConeChain, r1: float, theta1: float,
                             r2: float, theta2: float) -> tuple[PlanarPoint, PlanarPoint]:
    """(q1, q2) in the chain frame from reflected-orientation polar angles
    (the angles principal_symbol_lambda0 reads, and the displayed amplitude
    formulas): q1 around p1 at angle -theta1, q2 around p2 at chart angle
    matching theta2 measured from the incoming direction."""
    q1 = PlanarPoint(chain.b + r1 * math.cos(theta1), -r1 * math.sin(theta1))
    q2 = PlanarPoint(r2 * math.cos(theta2), -r2 * math.sin(theta2))
    return q1, q2


def one_cone_nondegeneracy(t: float, q1: PlanarPoint, q2: PlanarPoint,
                           omega: float, eps: int) -> NondegeneracyReport:
    """Rank check of the one-cone phase [|q1-p(s)| + |q2-p(s)| - t] w around
    the origin: rows for dphi/ds and dphi/dw in (t, q1, q2) at s = 0."""

    def phase(tt, p, q, s, w):
        vertex = shifted_vertex(PlanarPoint(0.0, 0.0), eps, s)
        return (broken_line_length(p, vertex, q) - tt) * w

    return _parameter_rank(phase, t, q1, q2, [0.0, omega])


def chain_nondegeneracy(chain: ConeChain, t: float, q1: PlanarPoint,
                        q2: PlanarPoint, omega: float) -> NondegeneracyReport:
    """Rank check of the composed phase Psi: rows for dPsi/ds1, dPsi/ds2 and
    dPsi/dw in (t, q1, q2) at s1 = s2 = 0."""
    return _parameter_rank(functools.partial(composed_phase_psi, chain),
                           t, q1, q2, [0.0, 0.0, omega])


def _parameter_rank(phase, t: float, q1: PlanarPoint, q2: PlanarPoint,
                    params: list[float]) -> NondegeneracyReport:
    """The (parameter x base) block of the `fd_hessian` (step FD_STEP) of
    phase(t, q1, q2, *params), of full rank iff the conditions hold."""

    def f(v):
        return phase(v[0], PlanarPoint(v[1], v[2]), PlanarPoint(v[3], v[4]),
                     *v[5:])

    hess = fd_hessian(f, [t, q1.x, q1.y, q2.x, q2.y, *params], FD_STEP)
    rows = hess[5:, :5]  # (s..., w) down, (t, x1, y1, x2, y2) across
    return NondegeneracyReport(
        float(np.linalg.svd(rows, compute_uv=False)[-1]), rows)


def stationary_phase_value(chain: ConeChain, t: float, q1: PlanarPoint,
                           q2: PlanarPoint, omega: float) -> complex:
    """Leading stationary-phase value of the (q, w2) composition integral:

        (2 pi)^{3/2} atilde e^{i Psi},  atilde = amplitude_tilde(...).
    """
    psi = composed_phase_psi(chain, t, q1, q2, 0.0, 0.0, omega)
    return complex((2.0 * math.pi) ** 1.5
                   * amplitude_tilde(chain, t, q1, q2, omega) * np.exp(1j * psi))


def oscillatory_oracle(chain: ConeChain, t: float, q1: PlanarPoint,
                       q2: PlanarPoint, omega: float,
                       rel_tol: float = 3e-4,
                       t0: float | None = None) -> complex:
    """Brute-force quadrature of the composition integral

        int dq dw2  e^{i (phi1 + phi2)} a1(q1, q; w) a2(q, q2; w2) chi(q) W(w2)

    at s1 = s2 = 0 and external frequency w.  chi is a flat-top localizer
    exp(-(|q - q_c|^2/(2 sigma_q^2))^3) around the stationary point, with
    sigma_q = min(A, B) / 3.2 (the vanishing low-order derivatives keep its
    footprint out of the 1/omega and 1/omega^2 terms), and W a Gaussian
    frequency window centered at w (width w/6; needed for absolute
    convergence, exact and flat at the stationary point).  The w2 integral
    is closed form: a2 is linear in w2, so a2 enters at unit frequency and
    its factor w2 is integrated with phi2 and W.  (q) is integrated in polar
    coordinates around p2 on a Gauss-Legendre grid, refined by 1.6 per axis
    until two successive values agree to rel_tol, at most three times;
    phi1, a1 and a2 are `phase_phi1` and `leg_amplitude`.  Each factor is
    evaluated on the axis it depends on: the w2 integral (a function of
    u2 = rho - A) and the Jacobian rho on the rho axis; a2 on the psi axis,
    at rho = A, since rho enters it only as rho^(-1/2), which joins the rho
    axis as sqrt(A / rho); only a1, phi1 and chi on the (rho, psi) grid.
    Each grid and its two rules are checked against the array budget before
    they are built, so a large omega raises InvalidInput.
    """
    if omega < 50:
        raise InvalidInput("oracle is meant for the asymptotic regime omega >= 50")
    cp = CompositionPoint(chain, q1, q2, 0.0, 0.0, omega, t, t0=t0)
    sd = stationary_eliminate(cp)
    broken_line_length(q1, chain.p1)  # q1 = p1 raises, not 1/0 in a1
    p2 = chain.p2
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
    arc = sd.A * psi_half  # arc * arc gives inf where arc ** 2 raises
    exc_psi = omega * sd.C * (arc * arc) + 20.0
    if not math.isfinite(exc_rho + exc_psi):  # int() refuses inf and nan
        raise InvalidInput(f"omega = {omega}: oracle grid sizes overflow")
    n_rho = max(40, int(0.8 * exc_rho))
    n_psi = max(90, int(1.2 * exc_psi))

    def evaluate(n_r, n_p):
        check_array_size(n_r * n_p, "the oracle grid")
        rho, wr = gauss_legendre([rho_lo, rho_hi], n_r)
        psi, wp = gauss_legendre([psi_c - psi_half, psi_c + psi_half], n_p)
        cos_psi, sin_psi = np.cos(psi), np.sin(psi)
        q = PlanarPoint(p2.x + rho[:, None] * cos_psi,
                        p2.y + rho[:, None] * sin_psi)
        u2 = rho - sd.A
        # closed-form w2 integral of e^{i phi2} w2 W(w2)
        j_w2 = (math.sqrt(2.0 * math.pi) * sigma_w
                * np.exp(-0.5 * (sigma_w * u2) ** 2) * np.exp(1j * omega * u2)
                * (omega + 1j * sigma_w**2 * u2))
        # a2 at rho = A: rho enters it only as rho^(-1/2), so sqrt(A / rho)
        # joins the Jacobian rho on the rho axis
        a2 = leg_amplitude(chain.alpha2, chain.eps2, p2,
                           PlanarPoint(p2.x + sd.A * cos_psi,
                                       p2.y + sd.A * sin_psi), q2, 1.0)
        a1 = leg_amplitude(chain.alpha1, chain.eps1, chain.p1, q1, q, omega)
        phi1 = phase_phi1(cp, q)
        dist2 = (q.x - sd.q_c.x) ** 2 + (q.y - sd.q_c.y) ** 2
        chi = np.exp(-(dist2 / (2.0 * sigma_q**2)) ** 3)
        return np.einsum("i,j,ij->", wr * j_w2 * np.sqrt(sd.A * rho),
                         wp * a2, a1 * np.exp(1j * phi1) * chi)

    prev = evaluate(n_rho, n_psi)
    for _ in range(3):
        n_rho = int(n_rho * 1.6)
        n_psi = int(n_psi * 1.6)
        cur = evaluate(n_rho, n_psi)
        if abs(cur - prev) <= rel_tol * abs(cur):
            return complex(cur)
        prev = cur
    raise QuadratureFailure(
        f"oracle did not converge to {rel_tol:.1e} after 3 refinements")
