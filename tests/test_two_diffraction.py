import cmath
import math

import numpy as np
import pytest
import scipy.optimize

from conewave import verification
from conewave.diffraction import scattering_matrix
from conewave.errors import GeometricDirection, InvalidInput
from conewave.geometry import ConeChain, PlanarPoint, chart_window
from conewave.two_diffraction import (CompositionPoint, amplitude_tilde,
                                      chain_nondegeneracy,
                                      chart_points_from_angles,
                                      composed_phase_psi, leg_amplitude,
                                      one_cone_nondegeneracy,
                                      oscillatory_oracle, phase_hessian_fd,
                                      phase_phi1, phase_phi2,
                                      principal_symbol_lambda0,
                                      stationary_eliminate,
                                      stationary_phase_value)

PI = math.pi


def default_chain(a=1.0, b=1.0, c=1.0, alpha=3 * PI):
    return ConeChain(a, b, c, alpha, alpha, -1, +1)


def psi_shift_derivatives(chain, q1, q2, omega):
    """(dPsi/ds1, dPsi/ds2) at s1 = s2 = 0: eps_i * omega * y_i / r_i."""
    r1 = math.hypot(q1.x - chain.p1.x, q1.y - chain.p1.y)
    r2 = math.hypot(q2.x - chain.p2.x, q2.y - chain.p2.y)
    return (chain.eps1 * omega * q1.y / r1, chain.eps2 * omega * q2.y / r2)


def test_phase_phi2_examples():
    chain = default_chain(b=2.0)
    # on-front configuration vanishes
    cp = CompositionPoint(chain, PlanarPoint(3.0, 0.0), PlanarPoint(-1.0, 0.0),
                          0.0, 0.0, 1.0, 4.0)
    assert phase_phi2(cp, PlanarPoint(1.0, 0.0)) == pytest.approx(0.0, abs=1e-14)
    # homogeneity of degree one in the frequency
    cp3 = CompositionPoint(chain, PlanarPoint(3.0, 0.0), PlanarPoint(-1.0, 0.0),
                           0.0, 0.1, 3.0, 4.0, t0=2.0)
    cp1 = CompositionPoint(chain, PlanarPoint(3.0, 0.0), PlanarPoint(-1.0, 0.0),
                           0.0, 0.1, 1.0, 4.0, t0=2.0)
    q = PlanarPoint(1.0, 0.0)
    assert phase_phi2(cp3, q) == pytest.approx(3.0 * phase_phi2(cp1, q))
    # direct substitution: (a,b)=(1,2), s2=0.1, eps2=+1, q=(1,0), q2=(-1,0)
    expected = 3.0 * (math.sqrt(1 + 0.01) + math.sqrt(1 + 0.01) - 2.0)
    assert phase_phi2(cp3, q) == pytest.approx(expected, abs=1e-14)


def test_phase_phi1_examples():
    chain = default_chain()
    cp = CompositionPoint(chain, PlanarPoint(2.0, 0.0), PlanarPoint(-1.0, 0.0),
                          0.0, 0.0, 1.0, 3.0)
    assert phase_phi1(cp, PlanarPoint(0.5, 0.0)) == pytest.approx(0.0, abs=1e-14)
    cp2 = CompositionPoint(chain, PlanarPoint(2.0, 0.0), PlanarPoint(-1.0, 0.0),
                           0.2, 0.0, 2.0, 3.0)
    cp1 = CompositionPoint(chain, PlanarPoint(2.0, 0.0), PlanarPoint(-1.0, 0.0),
                           0.2, 0.0, 1.0, 3.0)
    assert phase_phi1(cp2, PlanarPoint(0.5, 0.1)) == pytest.approx(
        2.0 * phase_phi1(cp1, PlanarPoint(0.5, 0.1)))
    # substitution with a shifted upper vertex (eps1 = -1)
    s1, w = 0.3, 1.7
    p1s = PlanarPoint(1.0, s1)
    q = PlanarPoint(0.4, -0.2)
    by_hand = (math.hypot(2.0 - p1s.x, -p1s.y)
               + math.hypot(p1s.x - q.x, p1s.y - q.y) - (3.0 - cp1.t0)) * w
    cpw = CompositionPoint(chain, PlanarPoint(2.0, 0.0), PlanarPoint(-1.0, 0.0),
                           s1, 0.0, w, 3.0)
    assert phase_phi1(cpw, q) == pytest.approx(by_hand, abs=1e-14)


def test_phase_phi1_on_a_grid():
    """A grid of points gives the scalar phase at every node, and a grid
    through the shifted vertex is a degenerate leg."""
    chain = default_chain()
    cp = CompositionPoint(chain, PlanarPoint(2.0, 0.1), PlanarPoint(-1.0, 0.0),
                          0.3, 0.0, 1.7, 3.0)
    X, Y = np.meshgrid(np.linspace(-0.5, 0.9, 7), np.linspace(-0.4, 0.6, 5))
    grid = phase_phi1(cp, PlanarPoint(X, Y))
    loop = [[phase_phi1(cp, PlanarPoint(x, y)) for x, y in zip(xs, ys)]
            for xs, ys in zip(X, Y)]
    assert grid.shape == X.shape
    np.testing.assert_array_equal(grid, loop)
    p1s = cp.p1_shifted
    with pytest.raises(InvalidInput, match="shorter than 1e-14"):
        phase_phi1(cp, PlanarPoint(np.array([0.5, p1s.x]),
                                   np.array([0.0, p1s.y])))


def test_stationary_eliminate():
    chain = default_chain(b=2.0)
    cp = CompositionPoint(chain, PlanarPoint(3.0, 0.0), PlanarPoint(-1.0, 0.0),
                          0.0, 0.0, 2.0, 4.0)
    sd = stationary_eliminate(cp)
    assert (sd.A, sd.B, sd.C) == (1.0, 1.0, 2.0)
    assert sd.hessian_det == -4.0
    assert sd.signature == +1
    assert (sd.q_c.x, sd.q_c.y) == (1.0, 0.0)
    with pytest.raises(InvalidInput, match="critical point"):
        stationary_eliminate(CompositionPoint(
            chain, PlanarPoint(3.0, 0.0), PlanarPoint(-2.5, 0.0),
            0.0, 0.0, 1.0, 5.5, t0=1.01))


def test_hessian_eigenvalue_signs():
    # the 3x3 Hessian structure [[pxx, 0, 1], [0, C w, 0], [1, 0, 0]]
    mat = np.array([[0.5, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
    eig = np.linalg.eigvalsh(mat)
    assert np.sum(eig > 0) == 2 and np.sum(eig < 0) == 1
    assert np.linalg.det(mat) == pytest.approx(-2.0)
    # finite-difference Hessian of the real phase matches -C*omega
    chain = default_chain()
    q1, q2 = chart_points_from_angles(chain, 1.0, 0.1, 1.0, PI - 0.15)
    cp = CompositionPoint(chain, q1, q2, 0.05, 0.1, 1.3, chain.total_length)
    sd = stationary_eliminate(cp)
    hess = phase_hessian_fd(cp)
    assert np.linalg.det(hess) == pytest.approx(sd.hessian_det, rel=1e-8)


def test_stationary_point_is_critical_and_collinear():
    rng = np.random.default_rng(0)
    for _ in range(30):
        chain = default_chain(*rng.uniform(0.6, 1.8, 3))
        q1, q2 = chart_points_from_angles(chain, chain.c, rng.uniform(-0.2, 0.2),
                                          chain.a, PI + rng.uniform(-0.2, 0.2))
        s1, s2 = rng.uniform(0.0, 0.3, 2)
        cp = CompositionPoint(chain, q1, q2, s1, s2, 1.0, chain.total_length)
        sd = stationary_eliminate(cp)
        p1s, p2s = cp.p1_shifted, cp.p2_shifted
        # collinearity defect of q_c with the shifted vertices
        cross = ((p1s.x - p2s.x) * (sd.q_c.y - p2s.y)
                 - (p1s.y - p2s.y) * (sd.q_c.x - p2s.x))
        assert abs(cross) < 1e-10
        # d_q Phi = 0 at the critical point (finite differences)
        def phi(x, y):
            q = PlanarPoint(x, y)
            return phase_phi1(cp, q) + phase_phi2(cp, q)
        eps = 1e-6
        gx = (phi(sd.q_c.x + eps, sd.q_c.y) - phi(sd.q_c.x - eps, sd.q_c.y)) / (2 * eps)
        gy = (phi(sd.q_c.x, sd.q_c.y + eps) - phi(sd.q_c.x, sd.q_c.y - eps)) / (2 * eps)
        assert abs(gx) < 1e-8 and abs(gy) < 1e-8


def test_composed_phase_psi():
    chain = default_chain(a=0.8, b=1.3, c=1.1)
    q1s = PlanarPoint(chain.b + chain.c, 0.0)
    q2s = PlanarPoint(-chain.a, 0.0)
    total = chain.total_length
    assert composed_phase_psi(chain, total, q1s, q2s, 0.0, 0.0, 2.0) == \
        pytest.approx(0.0, abs=1e-14)
    # monotone increasing in s1 + s2 at the on-axis configuration
    vals = [composed_phase_psi(chain, total, q1s, q2s, s, s, 1.0)
            for s in (0.0, 0.1, 0.2, 0.4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_psi_shift_derivative_identity():
    """dPsi/ds_i at s = 0 equals eps_i * omega * y_i / r_i = +-omega sin theta,
    checked against finite differences of the full phase."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        chain = ConeChain(*rng.uniform(0.6, 1.8, 3), 3 * PI, 7.0,
                          int(rng.choice([-1, 1])), int(rng.choice([-1, 1])))
        q1 = PlanarPoint(chain.b + chain.c + rng.uniform(-0.1, 0.1),
                         rng.uniform(-0.4, 0.4))
        q2 = PlanarPoint(-chain.a + rng.uniform(-0.1, 0.1),
                         rng.uniform(-0.4, 0.4))
        omega = rng.uniform(0.5, 3.0)
        ds1, ds2 = psi_shift_derivatives(chain, q1, q2, omega)
        eps = 1e-6
        t = chain.total_length
        fd1 = (composed_phase_psi(chain, t, q1, q2, eps, 0.0, omega)
               - composed_phase_psi(chain, t, q1, q2, 0.0, 0.0, omega)) / eps
        fd2 = (composed_phase_psi(chain, t, q1, q2, 0.0, eps, omega)
               - composed_phase_psi(chain, t, q1, q2, 0.0, 0.0, omega)) / eps
        assert fd1 == pytest.approx(ds1, abs=2e-5 * max(1, abs(ds1)))
        assert fd2 == pytest.approx(ds2, abs=2e-5 * max(1, abs(ds2)))


def _leg_amplitude_polar(alpha, eps, r_out, th_out, r_in, th_in):
    """leg_amplitude at omega = 1 around the origin, from polar points whose
    angles lie in the eps-window."""
    return complex(leg_amplitude(
        alpha, eps, PlanarPoint(0.0, 0.0),
        PlanarPoint(r_out * math.cos(th_out), r_out * math.sin(th_out)),
        PlanarPoint(r_in * math.cos(th_in), r_in * math.sin(th_in)), 1.0))


def test_leg_amplitude_4pi_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r1, r2 = rng.uniform(0.5, 2.0, 2)
        th1 = rng.uniform(-0.4, 0.4)
        th2 = PI + rng.uniform(-0.4, 0.4)
        got = _leg_amplitude_polar(4 * PI, -1, r1, th1, r2, th2)
        expect = -1j * math.sin(0.5 * (th1 + th2)) / math.sqrt(r1 * r2)
        assert got == pytest.approx(expect, rel=1e-12)


def test_leg_amplitude_zero_and_composition():
    # sin th1 + sin th2 = 0 away from poles kills the amplitude
    got = _leg_amplitude_polar(3 * PI, +1, 1.0, 0.4, 1.0, -0.4)
    assert abs(got) < 1e-14
    # generic value assembled from the scattering matrix; -pi - 0.1 lies in
    # the eps = +1 window (-3 pi/2, pi/2), pi + 0.1 does not
    th1, th2 = 0.3, -PI - 0.1
    got = _leg_amplitude_polar(3 * PI, +1, 1.2, th1, 0.9, th2)
    expect = (-2j * PI * scattering_matrix(3 * PI, th1 - th2)
              * (math.sin(th1) + math.sin(th2)) / math.sqrt(1.2 * 0.9))
    assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("alpha", [3 * PI, 7.0, 20.0])
@pytest.mark.parametrize("eps", [+1, -1])
def test_leg_amplitude_separates_in_polar_coordinates(alpha, eps):
    """At q = p + rho (cos psi, sin psi), rho enters leg_amplitude only
    through the factor rho^(-1/2), which is how the oracle puts a2 on its
    psi axis: a2(rho, psi) = a2(A, psi) sqrt(A / rho).  The grid spans the
    whole chart window, ends included.  The error is measured against the
    largest |a2| of each rho row, since a2 vanishes where sin(th_out) +
    sin(th_in) does, and there an ulp of the chart angle is a large
    pointwise relative error (2e-13 at 1e-3 from such a zero)."""
    lo, hi = chart_window(eps)
    psi = np.concatenate([np.linspace(lo, hi, 401),
                          [np.nextafter(lo, hi), np.nextafter(hi, lo)]])
    rho = np.concatenate([[1e-6], np.linspace(0.05, 3.0, 60), [1e3]])
    big_a = 0.7
    q2 = PlanarPoint(-math.cos(0.2), -math.sin(0.2))
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    direct = leg_amplitude(alpha, eps, PlanarPoint(0.0, 0.0),
                           PlanarPoint(rho[:, None] * cos_psi,
                                       rho[:, None] * sin_psi), q2, 1.0)
    at_a = leg_amplitude(alpha, eps, PlanarPoint(0.0, 0.0),
                         PlanarPoint(big_a * cos_psi, big_a * sin_psi), q2, 1.0)
    separated = at_a * np.sqrt(big_a / rho)[:, None]
    assert np.all(np.isfinite(direct))
    scale = np.max(np.abs(direct), axis=1, keepdims=True)
    assert np.all(np.abs(direct - separated) <= 1e-14 * scale)


def test_leg_amplitude_smooth_across_alignment():
    """Across th_out - th_in = pi the pair product S_alpha (sin th_out +
    sin th_in) stays finite and smooth: at alignment it is 1/(2 pi), so the
    amplitude at omega = 1 and unit radii is -i."""
    u = np.linspace(-1e-3, 1e-3, 11)
    vals = [_leg_amplitude_polar(3 * PI, +1, 1.0, 0.0, 1.0, -PI + v)
            for v in u]
    assert max(abs(v - w) for v in vals for w in vals) < 2 * PI * 1e-3
    assert vals[5] == pytest.approx(-1j, rel=1e-9)


def test_leg_amplitude_arrays_match_scalars():
    """Arrays of chart points, across alignment with q_in and near the
    window ends, give the scalar calls bit for bit, shape kept.  The points
    lie on the unit circle: a complex array divided by radii other than 1
    rounds differently from a complex scalar, in the last bit."""
    # q_in at the angle pi, so that th_out = 0 is aligned
    psi = np.array([-1.4, -1e-7, 0.0, 1e-7, 0.3, PI - 0.251, PI - 1e-7,
                    PI, PI + 1e-7, 1.4 * PI])
    q_in = PlanarPoint(-1.0, 0.0)
    xs, ys = np.cos(psi), np.sin(psi)
    for alpha in (3 * PI, 4 * PI, 7.0):
        arr = leg_amplitude(alpha, -1, PlanarPoint(0.0, 0.0),
                            PlanarPoint(xs.reshape(2, 5), ys.reshape(2, 5)),
                            q_in, 1.0)
        assert arr.shape == (2, 5)
        scal = [leg_amplitude(alpha, -1, PlanarPoint(0.0, 0.0),
                              PlanarPoint(float(x), float(y)), q_in, 1.0)
                for x, y in zip(xs, ys)]
        assert np.array_equal(arr.ravel(), np.array(scal))


@pytest.mark.parametrize("m", range(1, 7))
def test_leg_amplitude_exactly_zero_where_the_cone_does_not_diffract(m):
    """At alpha = 2 pi/m the pair product is 0, not roundoff, also near
    the alignment th_out - th_in = pi (at it, both sine factors of S_alpha
    vanish: a pole)."""
    for th_out, th_in in ((0.3, -2.0), (-0.5, -1.0), (0.2, -PI + 0.2 + 1e-3)):
        assert _leg_amplitude_polar(2 * PI / m, +1, 1.0, th_out, 1.2,
                                    th_in) == 0.0


def test_amplitude_tilde_structure():
    chain = default_chain()
    q1, q2 = chart_points_from_angles(chain, 1.0, 0.2, 1.0, PI - 0.2)
    t = chain.total_length
    val1 = amplitude_tilde(chain, t, q1, q2, 1.0)
    val8 = amplitude_tilde(chain, t, q1, q2, 8.0)
    # omega^{3/2} homogeneity
    assert abs(val8) / abs(val1) == pytest.approx(8.0**1.5, rel=1e-12)
    # e^{i pi/4} times a real number
    rotated = val1 / cmath.exp(1j * PI / 4)
    assert abs(rotated.imag) < 1e-12 * abs(rotated)


def test_amplitude_tilde_matches_displayed_formula():
    """e^{i pi/4} (2 pi)^2 S_{a1}(-pi - th1) S_{a2}(th2) sin th1 sin th2
    (r1 r2 b)^(-1/2) w^(3/2) in the reflected-orientation angles."""
    for b in (1.0, 2.5):
        chain = default_chain(b=b)
        th1, th2 = 0.2, PI - 0.2
        r1 = r2 = 1.0
        q1, q2 = chart_points_from_angles(chain, r1, th1, r2, th2)
        omega = 1.7
        got = amplitude_tilde(chain, chain.total_length, q1, q2, omega)
        expect = (cmath.exp(1j * PI / 4) * (2 * PI) ** 2
                  * scattering_matrix(chain.alpha1, -PI - th1)
                  * scattering_matrix(chain.alpha2, th2)
                  * math.sin(th1) * math.sin(th2)
                  * omega**1.5 / math.sqrt(r1 * r2 * b))
        assert got == pytest.approx(expect, rel=1e-12)


def test_amplitude_tilde_order_exponent_fit():
    chain = default_chain()
    q1, q2 = chart_points_from_angles(chain, 1.0, 0.2, 1.0, PI - 0.2)
    omegas = np.array([1e2, 1e3, 1e4])
    mags = [abs(amplitude_tilde(chain, chain.total_length, q1, q2, w))
            for w in omegas]
    slope = np.polyfit(np.log(omegas), np.log(mags), 1)[0]
    assert abs(slope - 1.5) < 0.02
    # symbol order bookkeeping: amplitude order 3/2 in the single fiber
    # variable with n = 4 base variables means distribution order
    # m = 3/2 - (1 - k/2 + n/4) = 0 on the direct front
    k, n = 1, 4
    assert 1.5 - (1 - k / 2 + n / 4) == 0.0


def test_amplitude_tilde_reflection_equivalence():
    """y -> -y with both eps flipped leaves the composed amplitude invariant."""
    chain = ConeChain(1.0, 1.4, 0.8, 3 * PI, 7.0, -1, +1)
    mirrored = ConeChain(1.0, 1.4, 0.8, 3 * PI, 7.0, +1, -1)
    q1, q2 = chart_points_from_angles(chain, 0.8, 0.15, 1.0, PI - 0.25)
    m1, m2 = PlanarPoint(q1.x, -q1.y), PlanarPoint(q2.x, -q2.y)
    t = chain.total_length
    a = amplitude_tilde(chain, t, q1, q2, 2.0)
    b = amplitude_tilde(mirrored, t, m1, m2, 2.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_amplitude_tilde_t0_independence():
    chain = default_chain()
    q1, q2 = chart_points_from_angles(chain, 1.0, 0.2, 1.0, PI - 0.2)
    t = chain.total_length
    base = amplitude_tilde(chain, t, q1, q2, 1.0)
    # rebuild with t0 = a + b/3 through an explicit CompositionPoint
    cp = CompositionPoint(chain, q1, q2, 0.0, 0.0, 1.0, t,
                          t0=chain.a + chain.b / 3.0)
    sd = stationary_eliminate(cp)
    a1 = leg_amplitude(chain.alpha1, chain.eps1, chain.p1, q1, sd.q_c, 1.0)
    a2 = leg_amplitude(chain.alpha2, chain.eps2, chain.p2, sd.q_c, q2, 1.0)
    moved = complex(cmath.exp(1j * PI / 4) / math.sqrt(sd.C) * a1 * a2)
    assert moved == pytest.approx(base, rel=1e-12)


def test_principal_symbol():
    """The symbol falls as omega^(-1/2) and b^(-1/2), at the same angles:
    the chart points of a wider chain sit a distance b further out."""
    chain, wide = default_chain(), default_chain(b=4.0)
    th1, th2 = 0.2, PI - 0.2
    q1, q2 = chart_points_from_angles(chain, 1.0, th1, 1.0, th2)
    sym1 = principal_symbol_lambda0(chain, q1, q2, 1.0)
    sym4 = principal_symbol_lambda0(chain, q1, q2, 4.0)
    assert isinstance(sym1, complex)
    assert abs(sym4) == pytest.approx(abs(sym1) / 2.0, rel=1e-12)
    q1w, q2w = chart_points_from_angles(wide, 1.0, th1, 1.0, th2)
    assert abs(principal_symbol_lambda0(wide, q1w, q2w, 1.0)) == \
        pytest.approx(abs(sym1) / 2.0, rel=1e-12)
    with pytest.raises(InvalidInput):
        principal_symbol_lambda0(chain, q1, q2, 0.0)


def test_principal_symbol_raises_at_a_pole():
    """q1 on the axis beyond p1 puts S_{a1} at -pi, and q2 on the axis
    before p2 puts S_{a2} at pi: the geometric directions where the symbol
    is not defined."""
    chain = default_chain()
    on1, on2 = PlanarPoint(chain.b + 1.0, 0.0), PlanarPoint(-1.0, 0.0)
    off1, off2 = chart_points_from_angles(chain, 1.0, 0.2, 1.0, PI - 0.2)
    for q1, q2 in ((on1, off2), (off1, on2), (on1, on2)):
        with pytest.raises(GeometricDirection):
            principal_symbol_lambda0(chain, q1, q2, 1.0)


def test_principal_symbol_consistent_with_amplitude():
    """symbol = -(1/2 pi) (r1 r2)^{1/2} atilde / (Psi_s1 Psi_s2): the
    stationary-phase symbol formula on the twice-diffracted front."""
    rng = np.random.default_rng(2)
    for _ in range(5):
        chain = default_chain(*rng.uniform(0.7, 1.6, 3),
                              alpha=rng.uniform(8.0, 13.0))
        th1 = rng.uniform(0.1, 0.3)
        th2 = PI - rng.uniform(0.1, 0.3)
        r1, r2 = chain.c, chain.a
        q1, q2 = chart_points_from_angles(chain, r1, th1, r2, th2)
        omega = rng.uniform(0.5, 3.0)
        atilde = amplitude_tilde(chain, chain.total_length, q1, q2, omega)
        ds1, ds2 = psi_shift_derivatives(chain, q1, q2, omega)
        predicted = -(1 / (2 * PI)) * math.sqrt(r1 * r2) * atilde / (ds1 * ds2)
        got = principal_symbol_lambda0(chain, q1, q2, omega)
        assert got == pytest.approx(predicted, rel=1e-10)


def test_four_front_stationary_sets():
    """Stationary sets of Psi over the four (s1, s2) strata land on the four
    front equations: two diffractions, one at p1, one at p2, direct."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        chain = default_chain(*rng.uniform(0.8, 1.6, 3))
        # q1 above / q2 below the axis with comparable heights, so every
        # straightened path crosses the relevant cut ray at interior shifts
        y1 = rng.uniform(0.1, 0.3)
        y2 = -y1 * rng.uniform(0.8, 1.2)
        q1 = PlanarPoint(chain.b + chain.c, y1)
        q2 = PlanarPoint(-chain.a, y2)
        p1, p2 = chain.p1, chain.p2
        t = chain.total_length

        def path(s1, s2):
            return composed_phase_psi(chain, t, q1, q2, s1, s2, 1.0) + t

        def min_s2(s1):
            return scipy.optimize.minimize_scalar(
                lambda s: path(s1, s), bounds=(0.0, 2.0), method="bounded",
                options={"xatol": 1e-12}).fun

        # Lambda^0 front: the broken path through both vertices
        lam0 = (math.hypot(q2.x, q2.y) + chain.b
                + math.hypot(p1.x - q1.x, p1.y - q1.y))
        assert path(0.0, 0.0) == pytest.approx(lam0, abs=1e-12)
        # Lambda^1 (diffraction at p1 only): minimize over s2
        lam1 = (math.hypot(q2.x - p1.x, q2.y - p1.y)
                + math.hypot(p1.x - q1.x, p1.y - q1.y))
        assert min_s2(0.0) == pytest.approx(lam1, abs=1e-8)
        # Lambda^2 (diffraction at p2 only): minimize over s1
        res = scipy.optimize.minimize_scalar(lambda s: path(s, 0.0),
                                             bounds=(0.0, 2.0),
                                             method="bounded",
                                             options={"xatol": 1e-12})
        lam2 = math.hypot(q2.x, q2.y) + math.hypot(p2.x - q1.x, p2.y - q1.y)
        assert res.fun == pytest.approx(lam2, abs=1e-8)
        # Lambda^3 (direct): minimize over both shifts (nested)
        res = scipy.optimize.minimize_scalar(min_s2, bounds=(0.0, 2.0),
                                             method="bounded",
                                             options={"xatol": 1e-10})
        lam3 = math.hypot(q1.x - q2.x, q1.y - q2.y)
        assert res.fun == pytest.approx(lam3, abs=1e-8)


def test_nondegeneracy_checks():
    chain = default_chain()
    q1, q2 = chart_points_from_angles(chain, 1.0, 0.2, 1.0, PI - 0.2)
    rep = chain_nondegeneracy(chain, chain.total_length, q1, q2, 1.0)
    assert rep.smallest_singular_value > 1e-6
    # at the on-axis base configuration: d(dPsi/ds1) ~ dy1, d(dPsi/ds2) ~ dy2,
    # d(dPsi/dw) with a nonzero dt component ((t, x1, y1, x2, y2) across,
    # (s1, s2, w) down)
    base = chain_nondegeneracy(chain, chain.total_length,
                               PlanarPoint(chain.b + chain.c, 0.0),
                               PlanarPoint(-chain.a, 0.0), 1.0)
    assert abs(base.rows[2][0]) > 0.5           # dt component of d(dPsi/dw)
    assert abs(base.rows[0][2]) > 1e3 * abs(base.rows[0][1])  # dy1 dominates
    assert abs(base.rows[1][4]) > 1e3 * abs(base.rows[1][3])  # dy2 dominates
    # dPsi/ds1 does not involve q2 nor t, dPsi/ds2 not q1 nor t: those
    # entries of the Hessian block are 0 up to the stencil's roundoff
    for rows in (rep.rows, base.rows):
        zeros = [rows[0][0], rows[0][3], rows[0][4],
                 rows[1][0], rows[1][1], rows[1][2]]
        assert max(abs(z) for z in zeros) < 1e-8
    # one-cone rows d(dphi/ds) = (0, 0, 1, 0, 1) and d(dphi/dw) =
    # (-1, 1, 0, -1, 0): orthogonal, so the smallest singular value is the
    # shorter norm sqrt(2)
    pair = one_cone_nondegeneracy(2.0, PlanarPoint(1.0, 0.0),
                                  PlanarPoint(-1.0, 0.0), 1.0, +1)
    assert pair.rows == pytest.approx(
        np.array([[0.0, 0.0, 1.0, 0.0, 1.0], [-1.0, 1.0, 0.0, -1.0, 0.0]]),
        abs=1e-8)
    assert pair.smallest_singular_value == pytest.approx(math.sqrt(2.0),
                                                         abs=1e-9)
    # a deliberately degenerate system (duplicated boundary parameter) fails
    dup = np.vstack([rep.rows, rep.rows[1]])
    smin = float(np.linalg.svd(dup, compute_uv=False)[-1])
    assert smin < 1e-10


def test_oracle_linearity_in_global_constant():
    """The stationary-phase value the oracle is held to is linear in the
    composed amplitude: (2 pi)^{3/2} atilde e^{i Psi}, phase included."""
    chain = default_chain()
    q1, q2 = chart_points_from_angles(chain, 1.0, 0.2, 1.0, PI - 0.2)
    t = chain.total_length
    sp1 = stationary_phase_value(chain, t, q1, q2, 100.0)
    val = amplitude_tilde(chain, t, q1, q2, 100.0)
    psi = composed_phase_psi(chain, t, q1, q2, 0.0, 0.0, 100.0)
    assert sp1 == pytest.approx(
        (2 * PI) ** 1.5 * val * cmath.exp(1j * psi), rel=1e-12)


def test_degenerate_distance_raises():
    chain = default_chain()
    cp = CompositionPoint(chain, PlanarPoint(2.0, 0.0), PlanarPoint(-1.0, 0.0),
                          0.0, 0.0, 1.0, 3.0)
    with pytest.raises(InvalidInput, match="shorter than 1e-14"):
        phase_phi2(cp, PlanarPoint(0.0, 0.0))  # q at the unshifted vertex


def test_oracle_quadrature_failure():
    from conewave.errors import QuadratureFailure
    chain = default_chain()
    q1, q2 = chart_points_from_angles(chain, 1.0, 0.2, 1.0, PI - 0.2)
    with pytest.raises(QuadratureFailure):
        oscillatory_oracle(chain, chain.total_length, q1, q2, 50.0,
                           rel_tol=0.0)


def test_oracle_refuses_grids_past_the_budget():
    """The Gauss rules and the grid are checked before they are built: a
    large omega asks for a rule whose companion matrix exceeds the budget,
    and a huge one for sizes that overflow."""
    chain = default_chain()
    q1, q2 = chart_points_from_angles(chain, 1.0, 0.2, 1.0, PI - 0.2)
    for omega in (1e5, 1e308):
        with pytest.raises(InvalidInput):
            oscillatory_oracle(chain, chain.total_length, q1, q2, omega)


def test_at4_oracle_errors_are_pinned():
    """AT-4's oracle-vs-stationary-phase errors at seed 0, pinned to 1e-12
    relative: a change to the oracle's grid or factors shows here long
    before it reaches AT-4's gates."""
    errors = verification.at4_two_diffraction(0).details["errors"]
    pinned = {100.0: 0.0037687054336992703, 200.0: 0.001355793813296568,
              400.0: 0.0006184201073184669}
    assert errors.keys() == pinned.keys()
    for omega, err in pinned.items():
        assert errors[omega] == pytest.approx(err, rel=1e-12, abs=0)


def test_oracle_t0_independence():
    """The composed value does not depend on the time split t0."""
    chain = default_chain()
    q1, q2 = chart_points_from_angles(chain, 1.0, 0.2, 1.0, PI - 0.2)
    r1 = math.hypot(q1.x - chain.b, q1.y)
    r2 = math.hypot(q2.x, q2.y)
    t = r2 + chain.b + r1
    base = oscillatory_oracle(chain, t, q1, q2, 200.0)
    moved = oscillatory_oracle(chain, t, q1, q2, 200.0,
                               t0=chain.a + chain.b / 3.0)
    # only the O(1/omega) corrections see the split, so the two evaluations
    # agree at the quadrature/asymptotic tolerance
    assert moved == pytest.approx(base, rel=1e-2)
