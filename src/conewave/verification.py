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
from .errors import InvalidInput, WindowContaminated
from .geometry import ConeChain, ConePoint, angular_separation, cone_distance
from .kernels import KernelQuery
from .special import Mollifier
from .two_diffraction import chart_points_from_angles

PI = math.pi

# Each acceptance figure and its gate: an AT passes when every figure of its
# details is at or below its gate.  AT-7's peak_dev gate is 2h, h = 0.02.
GATES = {
    "AT-1": {"max_rel_err": 1e-10},
    "AT-2": {"rel_err_4pi": 1e-10, "rel_err_2pi": 1e-10},
    "AT-3": {"fourier": 1e-3, "identity_4pi": 1e-12, "limits": 1e-10},
    "AT-4": {"dev_omega200": 0.05, "ratio_dev": 0.2, "hessian_det_err": 1e-8,
             "bad_signatures": 0},
    "AT-5": {"upsilon_err": 5e-5, "conj_err": 0.0, "support_ratio": 1e-10},
    "AT-6": {"fd": 1e-6, "limits": 1e-10, "final": 1e-10},
    "AT-7": {"weyl": 0.05, "peak_dev": 0.04},
}


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


def _gated(at_id: str, title: str, details: dict, info: str = "") -> ATReport:
    """The ATReport of one AT's figures, judged against GATES[at_id]; a
    gated figure missing from `details` raises KeyError.  `info` is text
    the summary reports without gating it."""
    gates = GATES[at_id]
    passed = all(details[key] <= gate for key, gate in gates.items())
    summary = ", ".join(f"{key} {details[key]:.3g} (<= {gate:g})"
                        for key, gate in gates.items())
    return ATReport(at_id, title, passed, summary + info, 0.0, bool(info),
                    details)


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
    rng = np.random.default_rng(seed)
    worst = 0.0
    for q in _random_offfront_queries(rng, 200):
        closed = kernels.sine_kernel_closed(4.0 * PI, q.t, q.q1.r, q.q2.r,
                                            q.q1.theta - q.q2.theta)
        moving = kernels.sine_kernel_moving_point(q).value
        err = (abs(moving - closed) / abs(closed)) if closed != 0 else abs(moving)
        worst = max(worst, err)
    return _gated("AT-1", "moving point vs Cheeger-Taylor closed form (C_4pi)",
                  {"max_rel_err": worst})


@_timed
def at2_friedlander(seed: int = 0) -> ATReport:
    """Friedlander pipeline vs closed forms on C_{4 pi} and the plane.  With
    t drawn up to 6 (pullback y up to about 70), most points lie past the
    diffracted front y = 1, where the c integral adds to the image sum."""
    rng = np.random.default_rng(seed)
    results = {}
    for alpha in (4.0 * PI, 2.0 * PI):
        worst = 0.0
        count = 0
        while count < 20:
            r1, r2 = rng.uniform(0.5, 1.6, 2)
            dth = rng.uniform(0.1, 2.0 * PI - 0.1)
            t = rng.uniform(0.4, 6.0)
            y, z = friedlander.friedlander_pullback(alpha, t, r1, r2, dth, 0.0)
            if abs(y + math.cos(z)) < 0.3 or abs(y - 1.0) < 0.3:
                continue
            q = KernelQuery(t, ConePoint(r1, dth), ConePoint(r2, 0.0))
            fv = friedlander.sine_kernel_friedlander(alpha, q).value
            cv = kernels.sine_kernel_closed(alpha, t, r1, r2, dth)
            err = abs(fv - cv) / abs(cv) if cv != 0 else abs(fv) / 0.01
            worst = max(worst, err)
            count += 1
        results[alpha] = worst
    return _gated("AT-2", "Friedlander A3 A2 A1 pipeline vs closed forms",
                  {"rel_err_4pi": results[4.0 * PI],
                   "rel_err_2pi": results[2.0 * PI]})


@_timed
def at3_scattering(seed: int = 0) -> ATReport:
    """Closed form vs Cesaro Fourier sum, the 4pi identity, the two limits.

    The Fourier coefficients of S_alpha do not decay (it has poles), so the
    Fejer error at distance d from a pole scales like 1/(N d^2); N = 8000
    and a pole margin of 0.4 keep the sup comfortably under 1e-3.  At that
    margin the sine factors of S_alpha are at least 0.1, so no accepted
    theta is a pole.  The oracle is the Fejer mean in closed form (the
    Fejer kernel and its conjugate), whose rounding does not grow with N:
    the figure is the truncation error alone, within 1e-14 of an
    extended-precision sum of the series.
    """
    rng = np.random.default_rng(seed)
    angles = (3.0 * PI, 4.0 * PI, 7.0, 5.0)
    worst_fourier = 0.0
    for alpha in angles:
        thetas = []
        while len(thetas) < 100:
            theta = rng.uniform(-0.5 * alpha, 0.5 * alpha)
            if min(angular_separation(alpha, theta, PI),
                   angular_separation(alpha, theta, -PI)) >= 0.4:
                thetas.append(theta)
        diff = (diffraction.scattering_matrix_fourier(alpha, thetas, 8000)
                - diffraction.scattering_matrix(alpha, thetas))
        # hypot as in abs() of a Python complex; np.abs can differ by an ulp
        worst_fourier = max(worst_fourier,
                            float(np.max(np.hypot(diff.real, diff.imag))))
    thetas = np.linspace(-2.8, 2.8, 101)
    expect = -1.0 / (4.0 * PI * np.cos(0.5 * thetas))
    worst_4pi = float(np.max(np.abs(
        diffraction.scattering_matrix(4.0 * PI, thetas) - expect)))
    worst_limit = max(
        abs(value - limit) for alpha in angles
        for value, limit in zip(diffraction.sine_product_limits_numeric(alpha),
                                diffraction.SINE_PRODUCT_LIMITS))
    return _gated("AT-3",
                  "scattering matrix: Fourier oracle, 4pi identity, limits",
                  {"fourier": worst_fourier, "identity_4pi": worst_4pi,
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
    ratios = (errs[200.0] / errs[100.0], errs[400.0] / errs[200.0])

    rng = np.random.default_rng(seed)
    worst_det = 0.0
    bad_signatures = 0
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
        bad_signatures += not (np.sum(eig > 0) == 2 and np.sum(eig < 0) == 1)
    return _gated("AT-4",
                  "two-diffraction stationary phase vs oscillatory oracle",
                  {"errors": errs, "ratios": ratios,
                   "hessian_det_err": worst_det, "dev_omega200": errs[200.0],
                   "ratio_dev": max(abs(r - 0.5) for r in ratios),
                   "bad_signatures": bad_signatures})


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

    def central_difference(t, q1, q2, dir_theta, s):
        return (moved_kernel(t, q1, q2, dir_theta, s)
                - moved_kernel(t, q1, q2, dir_theta, -s)) / (2.0 * s)

    worst = 0.0
    step = 1e-3
    for _ in range(5):
        r1, r2 = rng.uniform(0.7, 1.3, 2)
        th1 = rng.uniform(-0.4, 0.4)
        th2 = th1 + rng.uniform(0.6, 2.6)  # dth < pi
        dir_theta = rng.uniform(0.0, 2.0 * PI)
        t = r1 + r2 + rng.uniform(-3.0 * h, 3.0 * h)
        q1, q2 = ConePoint(r1, th1), ConePoint(r2, th2)
        # one Richardson step cancels the central difference's step^2 term
        fd = (4.0 * central_difference(t, q1, q2, dir_theta, 0.5 * step)
              - central_difference(t, q1, q2, dir_theta, step)) / 3.0
        ups = kernels.upsilon0(t, q1, q2, dir_theta, moll)
        worst = max(worst, abs(fd - ups) / max(abs(ups), 1e-9))

    q = ConePoint(1.3, 0.7)
    conj_err = abs(kernels.spherical_wave_l(-1, 1.1, q, moll)
                   - np.conj(kernels.spherical_wave_l(+1, 1.1, q, moll)))
    peak = abs(kernels.spherical_wave_l(+1, q.r, q, moll))
    support = abs(kernels.spherical_wave_l(+1, q.r + 12.0 * h, q, moll))
    return _gated("AT-5",
                  "commutator finite difference vs Upsilon_0; l_{+-1} laws",
                  {"upsilon_err": worst, "conj_err": float(conj_err),
                   "support_ratio": support / peak})


@_timed
def at6_trace_pipeline(seed: int = 0) -> ATReport:
    """Step-by-step Section-6 pipeline vs the closed coefficient formula,
    and, once, the two scattering limits it inserts against their
    numerical values at alpha = 3 pi."""
    rng = np.random.default_rng(seed)
    reps = []
    for _ in range(20):
        L = rng.uniform(1.2, 8.0)
        b = rng.uniform(0.15, 0.85) * L
        omega = rng.uniform(0.5, 4.0)
        reps.append(wave_trace.trace_pipeline_check(L, b, omega=omega))
    limits = max(abs(value - limit) / abs(limit) for value, limit in zip(
        diffraction.sine_product_limits_numeric(3.0 * PI),
        diffraction.SINE_PRODUCT_LIMITS))
    return _gated(
        "AT-6", "trace pipeline recomputation vs (1/(4 i pi^2)) sqrt(b(L-b))",
        {"final": max(r.rel_err for r in reps),
         "fd": max(max(r.hessian_u_rel_err, r.hessian_y_rel_err) for r in reps),
         "limits": limits})


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

    prediction = wave_trace.predict_two_diffraction_singularity(2.0, 1.0)
    window = np.abs(t_grid - 2.0) <= 0.25
    try:
        fit = wave_trace.extract_singularity_coefficient(
            t_grid[window], trace[window], 2.0, moll)
        info = (f"; INFO: fitted c at L=2 is {fit.coefficient:.4f} "
                f"(residual {fit.residual_ratio:.2f}, valid={fit.valid}) vs "
                f"isolated-orbit prediction {prediction.coefficient:.4f}; "
                f"the peak mixes smooth-orbit cylinders with the edge orbits")
        fit_details = {"fitted": fit.coefficient,
                       "residual": fit.residual_ratio, "valid": fit.valid}
    except WindowContaminated as exc:
        info = f"; INFO: window contaminated at L=2 ({exc})"
        fit_details = {"contaminated": True}

    return _gated("AT-7", "pillowcase spectral run (part iii informational)",
                  {"weyl": weyl_err, "peaks": list(peaks),
                   "peak_dev": peak_dev, "prediction": prediction.coefficient,
                   **fit_details}, info=info)


def run_all(seed: int = 0) -> list[ATReport]:
    if seed < 0:  # numpy's generators take seeds >= 0 only
        raise InvalidInput(f"seed must be >= 0, got {seed}")
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
        lines.append(f"{rep.at_id:5s} {status:9s} "
                     f"{1000.0 * rep.runtime_s:8.1f} ms  {rep.title}")
        lines.append(f"      {rep.summary}")
    return "\n".join(lines)
