"""Acceptance suite: one runner per criterion AT-1..AT-7.

Each runner returns an ATReport; `run_all` executes the suite in order.
AT-7 part (iii) is informational (the pillowcase t = 2 peak mixes orbit
families, so the fitted coefficient is reported next to the isolated-orbit
prediction without asserting equality).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import diffraction, friedlander, kernels, two_diffraction, wave_trace
from .errors import WindowContaminated
from .geometry import ConeChain, ConePoint, cone_distance
from .kernels import KernelQuery
from .special import Mollifier
from .two_diffraction import chart_points_from_angles

PI = math.pi


@dataclass
class ATReport:
    at_id: str
    title: str
    passed: bool
    summary: str
    runtime_s: float
    info_only: bool = False
    details: dict = field(default_factory=dict)


def _timed(fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        report = fn(*args, **kwargs)
        report.runtime_s = time.perf_counter() - start
        return report
    return wrapper


def _random_offfront_queries(rng, n_points):
    """Off-front queries on C_{4 pi} cycling through the three regions."""
    queries = []
    region_cycle = 0
    while len(queries) < n_points:
        r1, r2 = rng.uniform(0.4, 2.0, 2)
        dth = rng.uniform(0.05, 2.0 * PI - 0.05)
        q1, q2 = ConePoint(r1, 0.0), ConePoint(r2, dth)
        dist = cone_distance(4.0 * PI, q1, q2)
        dsum = r1 + r2
        want = region_cycle % 3
        if want == 0:
            t = rng.uniform(0.3, 0.95) * dist
        elif want == 1:
            if dsum - dist < 0.05:
                continue
            t = rng.uniform(dist + 0.02, dsum - 0.02)
        else:
            t = dsum * rng.uniform(1.05, 2.0)
        if t <= 0 or min(abs(t - dist), abs(t - dsum)) < 1e-6:
            continue
        region_cycle += 1
        queries.append(KernelQuery(t, q1, q2))
    return queries


@_timed
def at1_moving_point(seed: int = 0) -> ATReport:
    """Moving-point = Cheeger-Taylor closed form, exact, three regions."""
    n_points, tol = 200, 1e-10
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i, q in enumerate(_random_offfront_queries(rng, n_points)):
        closed = kernels.sine_kernel_4pi_closed(q).value
        eps = -1 if i % 2 == 0 else +1
        moving = kernels.sine_kernel_moving_point(q, eps=eps).value
        err = (abs(moving - closed) / abs(closed)) if closed != 0 else abs(moving)
        worst = max(worst, err)
    return ATReport(
        "AT-1", "moving point vs Cheeger-Taylor closed form (C_4pi)",
        worst < tol, f"max rel err {worst:.3e} over {n_points} points "
        f"(tol {tol:.0e})", 0.0, details={"max_rel_err": worst})


@_timed
def at2_friedlander(seed: int = 0) -> ATReport:
    """Friedlander pipeline vs closed forms on C_{4 pi} and the plane.  With
    t drawn up to 6, about half the points have pullback y > 4.5."""
    n_points, tol = 20, 1e-10
    rng = np.random.default_rng(seed)
    results = {}
    for alpha, closed_value in (
        (4.0 * PI, lambda q: kernels.sine_kernel_4pi_closed(q).value),
        (2.0 * PI, lambda q: kernels.plane_kernel_closed(
            q.t, cone_distance(2.0 * PI, q.q1, q.q2))),
    ):
        worst = 0.0
        count = 0
        while count < n_points:
            r1, r2 = rng.uniform(0.5, 1.6, 2)
            dth = rng.uniform(0.1, 2.0 * PI - 0.1)
            t = rng.uniform(0.4, 6.0)
            y, z = friedlander.friedlander_pullback(alpha, t, r1, r2, dth, 0.0)
            if abs(y + math.cos(z)) < 0.3 or abs(y - 1.0) < 0.3:
                continue
            q = KernelQuery(t, ConePoint(r1, dth), ConePoint(r2, 0.0))
            fv = friedlander.sine_kernel_friedlander(alpha, q).value
            cv = closed_value(q)
            err = abs(fv - cv) / abs(cv) if cv != 0 else abs(fv) / 0.01
            worst = max(worst, err)
            count += 1
        results[alpha] = worst
    worst_all = max(results.values())
    return ATReport(
        "AT-2", "Friedlander A3 A2 A1 pipeline vs closed forms",
        worst_all < tol,
        f"max rel err: 4pi {results[4.0 * PI]:.3e}, "
        f"2pi {results[2.0 * PI]:.3e} (tol {tol:.0e})", 0.0,
        details={"rel_err_4pi": results[4.0 * PI],
                 "rel_err_2pi": results[2.0 * PI]})


def pole_distance(alpha: float, theta: float) -> float:
    """Distance from theta to the nearest pole +-pi (mod alpha) of S_alpha."""
    d_plus = theta - PI
    d_minus = theta + PI
    return min(abs(d_plus - round(d_plus / alpha) * alpha),
               abs(d_minus - round(d_minus / alpha) * alpha))


@_timed
def at3_scattering(seed: int = 0) -> ATReport:
    """Closed form vs Cesaro Fourier sum, the 4pi identity, the two limits.

    The Fourier coefficients of S_alpha do not decay (it has poles), so the
    Fejer error at distance d from a pole scales like 1/(N d^2); N = 8000
    and a pole margin of 0.4 keep the sup comfortably under 1e-3.
    """
    rng = np.random.default_rng(seed)
    angles = (3.0 * PI, 4.0 * PI, 7.0, 5.0)
    worst_fourier = 0.0
    for alpha in angles:
        count = 0
        while count < 100:
            theta = rng.uniform(-0.5 * alpha, 0.5 * alpha)
            if pole_distance(alpha, theta) < 0.4:
                continue
            value = diffraction.scattering_matrix(alpha, theta)
            if math.isnan(value):
                continue
            four = diffraction.scattering_matrix_fourier(alpha, theta, 8000)
            worst_fourier = max(worst_fourier, abs(four - value))
            count += 1
    thetas = np.linspace(-2.8, 2.8, 101)
    expect = -1.0 / (4.0 * PI * np.cos(0.5 * thetas))
    worst_4pi = float(np.max(np.abs(
        diffraction.scattering_matrix(4.0 * PI, thetas) - expect)))
    worst_limit = max(
        abs(diffraction.sine_product_limit_numeric(alpha, which) - limit)
        for alpha in angles
        for which, limit in diffraction.SINE_PRODUCT_LIMITS.items())
    passed = worst_fourier < 1e-3 and worst_4pi < 1e-12 and worst_limit < 1e-10
    return ATReport(
        "AT-3", "scattering matrix: Fourier oracle, 4pi identity, limits",
        passed,
        f"fourier {worst_fourier:.3e} (<1e-3), 4pi identity {worst_4pi:.3e} "
        f"(<1e-12), limits {worst_limit:.3e} (<1e-10)", 0.0,
        details={"fourier": worst_fourier, "identity_4pi": worst_4pi,
                 "limits": worst_limit})


@_timed
def at4_two_diffraction(seed: int = 0) -> ATReport:
    """Oscillatory oracle vs stationary phase with the O(1/omega) contract,
    plus Hessian determinant/signature on random configurations."""
    chain = ConeChain(1.0, 1.0, 1.0, 3.0 * PI, 3.0 * PI, -1, +1)
    q1, q2 = chart_points_from_angles(chain, 1.0, 0.2, 1.0, PI - 0.2)
    r1 = math.hypot(q1.x - chain.b, q1.y)
    r2 = math.hypot(q2.x, q2.y)
    t = r2 + chain.b + r1
    errs = {}
    for omega in (100.0, 200.0, 400.0):
        oracle = two_diffraction.oscillatory_oracle(chain, t, q1, q2, omega,
                                                    rel_tol=5e-5)
        sp = two_diffraction.stationary_phase_value(chain, t, q1, q2, omega)
        errs[omega] = abs(oracle - sp) / abs(sp)
    ratio_1 = errs[200.0] / errs[100.0]
    ratio_2 = errs[400.0] / errs[200.0]
    halving_ok = (0.3 <= ratio_1 <= 0.7) and (0.3 <= ratio_2 <= 0.7)

    rng = np.random.default_rng(seed)
    worst_det = 0.0
    signatures_ok = True
    for _ in range(100):
        a, b, c = rng.uniform(0.5, 2.0, 3)
        ch = ConeChain(a, b, c, rng.uniform(2.5, 14.0), rng.uniform(2.5, 14.0),
                       int(rng.choice([-1, 1])), int(rng.choice([-1, 1])))
        th1 = rng.uniform(-0.3, 0.3)
        th2 = PI + rng.uniform(-0.3, 0.3)
        p1, p2 = chart_points_from_angles(ch, c, th1, a, th2)
        omega = rng.uniform(0.5, 5.0)
        s1, s2 = rng.uniform(0.0, 0.2, 2)
        cp = two_diffraction.CompositionPoint(ch, p1, p2, s1, s2, omega,
                                              ch.total_length)
        sd = two_diffraction.stationary_eliminate(cp)
        hess = two_diffraction.phase_hessian_fd(cp)
        det = float(np.linalg.det(hess))
        worst_det = max(worst_det, abs(det - sd.hessian_det)
                        / abs(sd.hessian_det))
        eig = np.linalg.eigvalsh(hess)
        signatures_ok &= (np.sum(eig > 0) == 2 and np.sum(eig < 0) == 1
                          and sd.signature == +1)
    passed = errs[200.0] <= 0.05 and halving_ok and worst_det < 1e-5 \
        and signatures_ok
    return ATReport(
        "AT-4", "two-diffraction stationary phase vs oscillatory oracle",
        passed,
        f"oracle dev at 200 = {errs[200.0]:.4f} (<=0.05), halving ratios "
        f"{ratio_1:.2f}/{ratio_2:.2f} (in [0.3,0.7]), Hessian det err "
        f"{worst_det:.2e}, signatures {'ok' if signatures_ok else 'BAD'}",
        0.0, details={"errors": errs, "ratios": (ratio_1, ratio_2),
                      "hessian_det_err": worst_det})


@_timed
def at5_differentiated_propagator(seed: int = 0) -> ATReport:
    """Finite-difference commutator vs Upsilon_0; spherical-wave properties."""
    h = 0.02
    moll = Mollifier(h)
    rng = np.random.default_rng(seed)

    def moved_kernel(t, q1, q2, dir_theta, s):
        ux, uy = math.cos(dir_theta), math.sin(dir_theta)
        pts = []
        for q in (q1, q2):
            x = q.r * math.cos(q.theta) + s * ux
            y = q.r * math.sin(q.theta) + s * uy
            pts.append((math.hypot(x, y), math.atan2(y, x)))
        (r1, th1), (r2, th2) = pts
        return kernels.sine_kernel_closed_mollified(
            4.0 * PI, t, r1, r2, abs(th1 - th2), h)

    worst = 0.0
    step = 1e-3
    for _ in range(5):
        r1, r2 = rng.uniform(0.7, 1.3, 2)
        th1 = rng.uniform(-0.4, 0.4)
        th2 = th1 + rng.uniform(0.6, 2.6)  # dth < pi
        dir_theta = rng.uniform(0.0, 2.0 * PI)
        t = r1 + r2 + rng.uniform(-3.0 * h, 3.0 * h)
        q1, q2 = ConePoint(r1, th1), ConePoint(r2, th2)
        fd = (moved_kernel(t, q1, q2, dir_theta, step)
              - moved_kernel(t, q1, q2, dir_theta, -step)) / (2.0 * step)
        ups = kernels.upsilon0(t, q1, q2, dir_theta, moll)
        worst = max(worst, abs(fd - ups) / max(abs(ups), 1e-9))

    q = ConePoint(1.3, 0.7)
    conj_err = abs(kernels.spherical_wave_l(-1, 1.1, q, moll)
                   - np.conj(kernels.spherical_wave_l(+1, 1.1, q, moll)))
    peak = abs(kernels.spherical_wave_l(+1, q.r, q, moll))
    support = abs(kernels.spherical_wave_l(+1, q.r + 12.0 * h, q, moll))
    support_ok = support < 1e-10 * peak
    passed = worst < 5e-2 and conj_err == 0.0 and support_ok
    return ATReport(
        "AT-5", "commutator finite difference vs Upsilon_0; l_{+-1} laws",
        passed,
        f"Upsilon_0 max rel err {worst:.3e} (<5e-2), conj err {conj_err:.1e}, "
        f"support ratio {support / peak:.1e}", 0.0,
        details={"upsilon_err": worst})


@_timed
def at6_trace_pipeline(seed: int = 0) -> ATReport:
    """Step-by-step Section-6 pipeline vs the closed coefficient formula."""
    rng = np.random.default_rng(seed)
    worst_final = 0.0
    worst_fd = 0.0
    all_passed = True
    for _ in range(20):
        L = rng.uniform(1.2, 8.0)
        b = rng.uniform(0.15, 0.85) * L
        omega = rng.uniform(0.5, 4.0)
        rep = wave_trace.trace_pipeline_check(L, b, omega=omega)
        worst_final = max(worst_final, rep.rel_err)
        worst_fd = max(worst_fd, rep.hessian_u_rel_err, rep.hessian_y_rel_err)
        all_passed &= rep.passed
    return ATReport(
        "AT-6", "trace pipeline recomputation vs (1/(4 i pi^2)) sqrt(b(L-b))",
        all_passed and worst_final < 1e-10,
        f"coefficient rel err {worst_final:.3e} (<1e-10), Hessian FD err "
        f"{worst_fd:.3e} (<1e-6) over 20 random (L, b)", 0.0,
        details={"final": worst_final, "fd": worst_fd})


@_timed
def at7_pillowcase() -> ATReport:
    """Pillowcase spectral run: Weyl count, peak locations, INFO coefficient.

    Part (iii) fits the t = 2 peak at order -1, the order of an isolated
    two-diffraction orbit, and only reports it.  On the pillowcase that peak
    is the order -3/2 singularity of the cylinders of smooth closed
    geodesics, with no order -1 term since S_pi vanishes off its poles: an
    order -3/2 fit leaves a residual of 0.010, the order -1 fit 0.347, which
    is the order mismatch.
    """
    lambda_max, h = 400.0, 0.02
    surf = wave_trace.PillowcaseSurface(1.0, 1.0)
    spec = wave_trace.pillowcase_spectrum(surf, lambda_max)
    weyl_err = spec.weyl_relative_error()

    moll = Mollifier(h)
    t_grid = np.linspace(0.5, 5.0, 4501)
    trace = wave_trace.mollified_trace(spec, t_grid, moll)
    peaks = wave_trace.detect_trace_peaks(t_grid, trace)
    lengths = wave_trace.pillowcase_lengths(surf, t_grid[-1] + 0.1)
    peak_dev = max((min(abs(p - ell) for ell in lengths) for p in peaks),
                   default=math.inf)
    peaks_ok = len(peaks) > 0 and peak_dev <= 2.0 * h

    prediction = wave_trace.predict_two_diffraction_singularity(2.0, 1.0)
    window = np.abs(t_grid - 2.0) <= 0.25
    try:
        fit = wave_trace.extract_singularity_coefficient(
            t_grid[window], trace[window], 2.0, moll)
        info = (f"INFO: fitted c at L=2 is {fit.coefficient:.4f} "
                f"(residual {fit.residual_ratio:.2f}, valid={fit.valid}) vs "
                f"isolated-orbit prediction {prediction.coefficient:.4f}; "
                f"the peak mixes smooth-orbit cylinders with the edge orbits")
        fit_details = {"fitted": fit.coefficient,
                       "residual": fit.residual_ratio, "valid": fit.valid}
    except WindowContaminated as exc:
        info = f"INFO: window contaminated at L=2 ({exc})"
        fit_details = {"contaminated": True}

    passed = weyl_err < 0.05 and peaks_ok
    return ATReport(
        "AT-7", "pillowcase spectral run (part iii informational)",
        passed,
        f"Weyl rel err {weyl_err:.2e} (<0.05), {len(peaks)} peaks within "
        f"{peak_dev:.3f} of the length set (<= {2 * h}); " + info, 0.0,
        info_only=True,
        details={"weyl": weyl_err, "peaks": list(peaks),
                 "prediction": prediction.coefficient, **fit_details})


def run_all(seed: int = 0) -> list[ATReport]:
    return [
        at1_moving_point(seed),
        at2_friedlander(seed),
        at3_scattering(seed),
        at4_two_diffraction(seed),
        at5_differentiated_propagator(seed),
        at6_trace_pipeline(seed),
        at7_pillowcase(),
    ]


def format_table(reports: list[ATReport]) -> str:
    lines = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        if rep.info_only:
            status += "+INFO"
        lines.append(f"{rep.at_id:5s} {status:9s} {rep.runtime_s:7.1f}s  "
                     f"{rep.title}")
        lines.append(f"      {rep.summary}")
    return "\n".join(lines)
