import math

import numpy as np
import pytest

from conewave.errors import InvalidInput, WindowContaminated
from conewave.special import Mollifier, mollified_inverse_power
from conewave.wave_trace import (PillowcaseSurface, Spectrum,
                                 detect_trace_peaks,
                                 extract_singularity_coefficient,
                                 mollified_trace, pillowcase_lengths,
                                 pillowcase_spectrum,
                                 predict_two_diffraction_singularity,
                                 trace_pipeline_check)

PI = math.pi


@pytest.fixture(scope="module")
def pillowcase_400():
    surf = PillowcaseSurface(1.0, 1.0)
    return pillowcase_spectrum(surf, 400.0)


@pytest.fixture(scope="module")
def trace_400(pillowcase_400):
    moll = Mollifier(0.02)
    t_grid = np.linspace(0.5, 5.0, 4501)
    return t_grid, mollified_trace(pillowcase_400, t_grid, moll), moll


def test_prediction_examples():
    pred = predict_two_diffraction_singularity(3.0, 1.0)
    assert pred.order == -1
    assert abs(pred.coefficient) == pytest.approx(math.sqrt(2) / (4 * PI**2))
    assert abs(pred.coefficient) == pytest.approx(0.035822448, abs=1e-8)
    assert pred.coefficient == pytest.approx(
        math.sqrt(2.0) / (4j * PI**2), abs=1e-15)
    # b = L/2 gives |c| = L/(8 pi^2)
    assert abs(predict_two_diffraction_singularity(4.0, 2.0).coefficient) == \
        pytest.approx(4.0 / (8 * PI**2))
    # degenerate leg limit
    assert abs(predict_two_diffraction_singularity(3.0, 1e-12).coefficient) < 1e-5
    with pytest.raises(InvalidInput, match="0 < b < L"):
        predict_two_diffraction_singularity(3.0, 3.5)


@pytest.mark.parametrize("L", [math.inf, math.nan])
def test_prediction_needs_a_finite_orbit(L):
    """At L = inf the coefficient is NaN, which JSON cannot hold; a NaN L
    fails 0 < b < L."""
    with pytest.raises(InvalidInput, match="L < inf"):
        predict_two_diffraction_singularity(L, 1.0)


def test_prediction_of_tiny_and_huge_orbits():
    """sqrt(b) sqrt(L - b): b (L - b) underflows at L = 2e-300, where the
    coefficient 1e-300 / (4 pi^2) does not, and overflows at L = 1e300."""
    for L in (2e-300, 1e300):
        got = predict_two_diffraction_singularity(L, 0.5 * L).coefficient
        assert got == pytest.approx(L / (8j * PI**2), rel=1e-15, abs=0)


def test_pillowcase_spectrum_head(pillowcase_400):
    spec = pillowcase_400
    head = spec.frequencies[:5] / PI
    assert np.allclose(head, [0.0, 1.0, math.sqrt(2), 2.0, math.sqrt(5)],
                       atol=1e-12)
    assert list(spec.multiplicities[:5]) == [1, 2, 2, 2, 4]
    assert spec.counting_function(0.0) == 1


@pytest.mark.parametrize("a, b, lambda_max", [
    (1.0, 1.0, 400.0), (0.527, 0.949, 400.0), (0.5, 0.8, 460.0),
    (1.0, 1.3, 200.0), (1.0, 1.0, 800.0)])
def test_pillowcase_spectrum_merge_matches_loop(a, b, lambda_max):
    """The vectorized merge of equal frequencies gives exactly what merging
    one sorted frequency at a time into the last group gives."""
    m_max = int(math.floor(a * lambda_max / PI))
    n_max = int(math.floor(b * lambda_max / PI))
    m, n = np.meshgrid(np.arange(m_max + 1), np.arange(n_max + 1),
                       indexing="ij")
    lam = PI * np.sqrt((m / a) ** 2 + (n / b) ** 2)
    mult = np.where((m >= 1) & (n >= 1), 2, 1)
    keep = lam <= lambda_max
    lam, mult = lam[keep].ravel(), mult[keep].ravel()
    order = np.argsort(lam)
    lam, mult = lam[order], mult[order]
    out_f, out_m = [lam[0]], [int(mult[0])]
    for f, mm in zip(lam[1:], mult[1:]):
        if f - out_f[-1] <= 1e-12 * max(f, 1.0):
            out_m[-1] += int(mm)
        else:
            out_f.append(f)
            out_m.append(int(mm))
    spec = pillowcase_spectrum(PillowcaseSurface(a, b), lambda_max)
    assert np.array_equal(spec.frequencies, np.array(out_f))
    assert np.array_equal(spec.multiplicities, np.array(out_m))


def test_pillowcase_lengths():
    square = pillowcase_lengths(PillowcaseSurface(1.0, 1.0), 5.1)
    assert square == pytest.approx([2.0, 2 * math.sqrt(2), 4.0, 2 * math.sqrt(5)])
    # a thin rectangle: 2 hypot(1, 0.1 n) up to the cut, n >= 8 included
    thin = pillowcase_lengths(PillowcaseSurface(1.0, 0.1), 3.0)
    assert thin[0] == pytest.approx(0.2) and thin[-1] == pytest.approx(3.0)
    for n in range(12):
        assert 2.0 * math.hypot(1.0, 0.1 * n) in thin
    assert pillowcase_lengths(PillowcaseSurface(1.0, 1.0), 1.9) == []
    with pytest.raises(InvalidInput):
        pillowcase_lengths(PillowcaseSurface(1.0, 1.0), math.inf)


def test_pillowcase_eigenfunctions_satisfy_the_equation():
    """The doubling ansatz: cos*cos (Neumann) and sin*sin (Dirichlet) modes
    solve the eigenvalue equation and have the even-doubling symmetry."""
    a, b = 1.0, 1.0
    rng = np.random.default_rng(0)
    h = 1e-4
    for m, n in ((1, 0), (0, 2), (1, 1), (2, 3)):
        lam2 = PI**2 * (m**2 / a**2 + n**2 / b**2)
        modes = [lambda x, y: math.cos(m * PI * x / a) * math.cos(n * PI * y / b)]
        if m >= 1 and n >= 1:
            modes.append(
                lambda x, y: math.sin(m * PI * x / a) * math.sin(n * PI * y / b))
        for u in modes:
            for _ in range(5):
                x, y = rng.uniform(0.2, 0.8, 2)
                lap = -(u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h)
                        - 4 * u(x, y)) / (h * h)
                assert lap == pytest.approx(lam2 * u(x, y), abs=1e-4 * lam2 + 1e-6)
        # doubling symmetry: Neumann normal derivative vanishes on the edges
        un = modes[0]
        for y in rng.uniform(0.1, 0.9, 3):
            d_edge = (un(h, y) - un(0.0, y)) / h
            assert abs(d_edge) < 1e-3
        # Dirichlet branch vanishes on the edges
        if len(modes) > 1:
            for y in rng.uniform(0.1, 0.9, 3):
                assert modes[1](0.0, y) == pytest.approx(0.0, abs=1e-12)


def test_weyl_count(pillowcase_400):
    spec = pillowcase_400
    # N(20) against Area * lambda^2 / (4 pi) = 2 * 400 / (4 pi) ~ 63.7
    assert spec.counting_function(20.0) == pytest.approx(
        2 * 400 / (4 * PI), rel=0.05)
    assert spec.weyl_relative_error() < 0.05


def test_mollified_trace_basics():
    moll = Mollifier(0.05)
    empty = Spectrum(np.array([]), np.array([], dtype=int), 500.0, 1.0)
    assert np.all(mollified_trace(empty, np.array([0.5, 1.0]), moll) == 0.0)
    single = Spectrum(np.array([3.0]), np.array([1]), 500.0, 1.0)
    t = np.array([0.7, 1.3])
    got = mollified_trace(single, t, moll)
    expect = np.exp(-1j * t * 3.0) * math.exp(-0.5 * (0.05 * 3.0) ** 2)
    assert np.allclose(got, expect, atol=1e-15)
    with pytest.raises(InvalidInput, match="damping"):
        mollified_trace(Spectrum(np.array([1.0]), np.array([1]), 10.0, 1.0),
                        t, Mollifier(0.02))


def test_mollified_trace_block_within_budget(monkeypatch):
    """Budgets of 1000 and 100 spread 31 and 3 frequencies at a time and
    cut the 251 times into 2 and 8 segments, and the sum is unchanged."""
    from conewave import geometry

    spec = pillowcase_spectrum(PillowcaseSurface(1.0, 1.3), 200.0)
    t = np.linspace(0.5, 3.0, 251)
    weights = spec.multiplicities * np.exp(-0.5 * (0.05 * spec.frequencies) ** 2)
    direct = np.exp(-1j * np.outer(t, spec.frequencies)) @ weights
    for budget in (1000, 100):
        monkeypatch.setattr(geometry, "MAX_ARRAY_ELEMENTS", budget)
        got = mollified_trace(spec, t, Mollifier(0.05))
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("t_grid", [
    np.linspace(0.5, 5.0, 4501), 0.5 + 0.001 * np.arange(4501)],
    ids=["at7-linspace", "start-plus-step-arange"])
def test_mollified_trace_against_long_double_sum(pillowcase_400, t_grid):
    """The factored sum agrees with a direct long-double sum at 60 times."""
    got = mollified_trace(pillowcase_400, t_grid, Mollifier(0.02))
    idx = np.linspace(0, t_grid.size - 1, 60).astype(int)
    lam = pillowcase_400.frequencies.astype(np.longdouble)
    weights = pillowcase_400.multiplicities * np.exp(
        -0.5 * (np.longdouble(0.02) * lam) ** 2)
    phases = np.outer(t_grid[idx].astype(np.longdouble), lam)
    direct = np.exp(-1j * phases.astype(np.clongdouble)) @ weights
    err = np.max(np.abs(got[idx] - direct))
    assert float(err) <= 1e-12 * np.max(np.abs(got))


def long_double_trace(spec, t, h):
    """sum_j w_j e^{-i t lambda_j} in long double at each t, and sum_j |w_j|."""
    lam = spec.frequencies.astype(np.longdouble)
    weights = spec.multiplicities * np.exp(-0.5 * (np.longdouble(h) * lam) ** 2)
    phases = np.outer(np.asarray(t, dtype=np.longdouble), lam)
    return np.exp(-1j * phases.astype(np.clongdouble)) @ weights, weights.sum()


@pytest.fixture(scope="module")
def pillowcase_200():
    return pillowcase_spectrum(PillowcaseSurface(1.0, 1.3), 200.0)


@pytest.mark.parametrize("t_grid", [
    0.5 + 0.02 * np.arange(1476), 0.5 + 0.9 * np.arange(40),
    100.0 + 0.002 * np.arange(2501),
    *(0.5 + 0.01 * np.arange(n) for n in (1, 2, 3, 31, 32, 33, 2501))],
    ids=["wrap-dt0.02", "wrap-dt0.9", "t0-100",
         *(f"n{n}" for n in (1, 2, 3, 31, 32, 33, 2501))])
def test_mollified_trace_nufft_against_long_double_sum(pillowcase_200, t_grid):
    """The gridded sum is within 5e-14 sum_j |w_j| of a direct long-double
    sum: on grids whose step wraps lambda_max dt past pi, far from t = 0,
    and at sizes around the smallest FFT grid."""
    got = mollified_trace(pillowcase_200, t_grid, Mollifier(0.05))
    idx = np.unique(np.linspace(0, t_grid.size - 1, 60).astype(int))
    direct, total = long_double_trace(pillowcase_200, t_grid[idx], 0.05)
    assert got.shape == t_grid.shape
    assert float(np.max(np.abs(got[idx] - direct))) <= 5e-14 * float(total)


def test_mollified_trace_spreads_in_chunks(monkeypatch, pillowcase_200):
    """A budget of 3200 spreads 100 frequencies at a time, and sums the
    1476 times in two segments, 792 and 684 long, whose FFT grids of 2048
    and 32 margin points fit it; the sum stays within 5e-14 sum_j |w_j| of
    the long-double one."""
    from conewave import geometry

    t = 0.5 + 0.02 * np.arange(1476)
    idx = np.linspace(0, t.size - 1, 60).astype(int)
    direct, total = long_double_trace(pillowcase_200, t[idx], 0.05)
    monkeypatch.setattr(geometry, "MAX_ARRAY_ELEMENTS", 3200)
    bincount, calls = np.bincount, []

    def spy(bins, weights, length):
        calls.append((bins.size, length))
        return bincount(bins, weights, length)

    monkeypatch.setattr(np, "bincount", spy)
    got = mollified_trace(pillowcase_200, t, Mollifier(0.05))
    chunks = -(-pillowcase_200.frequencies.size // 100)
    assert len(calls) == 2 * 2 * chunks
    assert {length for _, length in calls} == {2048 + 32}
    assert max(size for size, _ in calls) == 3200
    assert float(np.max(np.abs(got[idx] - direct))) <= 5e-14 * float(total)


def test_mollified_trace_grid_contract():
    """A grid off uniform steps is refused; grids of 0 and 1 points work."""
    spec = pillowcase_spectrum(PillowcaseSurface(1.0, 1.3), 200.0)
    moll = Mollifier(0.05)
    t = np.linspace(0.5, 3.0, 251)
    t[100] += 1e-9
    with pytest.raises(InvalidInput):
        mollified_trace(spec, t, moll)
    with pytest.raises(InvalidInput):
        mollified_trace(spec, np.array([0.5, 1.0, 2.0]), moll)
    weights = spec.multiplicities * np.exp(-0.5 * (0.05 * spec.frequencies) ** 2)
    one = mollified_trace(spec, np.array([1.7]), moll)
    assert one.shape == (1,)
    assert one[0] == pytest.approx(
        np.sum(weights * np.exp(-1.7j * spec.frequencies)), rel=1e-13)
    assert mollified_trace(spec, np.array([]), moll).shape == (0,)


def test_trace_peaks_none_below_half():
    """A t grid entirely below 0.5 has no noise floor, hence no peaks."""
    t = np.arange(0.1, 0.405, 0.01)
    peaks = detect_trace_peaks(t, 2.0 + np.cos(7.0 * t))
    assert isinstance(peaks, np.ndarray) and peaks.size == 0


def test_trace_peaks_on_length_set(trace_400):
    t_grid, trace, _ = trace_400
    peaks = detect_trace_peaks(t_grid, trace)
    lengths = sorted({2.0 * math.hypot(m, n) for m in range(6)
                      for n in range(6) if (m, n) != (0, 0)})
    assert len(peaks) >= 4
    for p in peaks:
        assert min(abs(p - ell) for ell in lengths) <= 2 * 0.02


def _scipy_trace_peaks(t_grid, values):
    """The reference peak detection: scipy.signal.find_peaks on the masked
    magnitude with the same prominence bound."""
    import scipy.signal

    mag, mask = np.abs(values), t_grid >= 0.5
    if not mask.any():
        return np.empty(0)
    idx, _ = scipy.signal.find_peaks(np.where(mask, mag, 0.0),
                                     prominence=3.0 * np.median(mag[mask]))
    return t_grid[idx]


def test_trace_peaks_match_scipy_find_peaks(trace_400):
    rng = np.random.default_rng(20)
    cases = [np.array(v, dtype=float) for v in (
        [3, 3, 1, 2, 2, 0], [0, 2, 2, 1, 3, 3], [1, 1, 1], [0, 5, 5, 5, 0],
        [0, 4, 4, 1, 4, 4, 0], [2, 0, 2, 2, 2, 2, 1, 2], [7], [1, 2])]
    for k in range(1200):
        n = int(rng.integers(1, 61))
        cases.append(rng.integers(0, 4, n).astype(float) if k % 2
                     else rng.standard_normal(n))
    for values in cases:
        # grids that start below 0.5 mask their head to zero
        t = np.linspace(rng.uniform(0.0, 0.6), 2.0, values.size)
        assert np.array_equal(detect_trace_peaks(t, values),
                              _scipy_trace_peaks(t, values)), values
    t_grid, trace, _ = trace_400
    assert np.array_equal(detect_trace_peaks(t_grid, trace),
                          _scipy_trace_peaks(t_grid, trace))


def test_poisson_relation_off_lengths(trace_400):
    t_grid, trace, _ = trace_400
    lengths = [2.0 * math.hypot(m, n) for m in range(6) for n in range(6)
               if (m, n) != (0, 0)]
    peaks = detect_trace_peaks(t_grid, trace)
    peak_mags = [abs(trace[np.argmin(np.abs(t_grid - p))]) for p in peaks]
    smallest_peak = min(peak_mags)
    rng = np.random.default_rng(11)
    count = 0
    while count < 50:
        t = rng.uniform(0.7, 4.9)
        if min(abs(t - ell) for ell in lengths) <= 20 * 0.02:
            continue
        mag = abs(trace[np.argmin(np.abs(t_grid - t))])
        assert mag < 0.10 * smallest_peak
        count += 1


def test_extract_synthetic_recovery():
    moll = Mollifier(0.02)
    L = 2.0
    ts = np.linspace(L - 0.25, L + 0.25, 801)
    model = np.array([mollified_inverse_power(moll, t, L, -1) for t in ts])
    c0 = 0.03j
    fit = extract_singularity_coefficient(ts, c0 * model, L, moll)
    assert abs(fit.coefficient - c0) < 1e-6
    assert fit.valid and fit.residual_ratio < 1e-10
    # 5% additive noise: recovery within 10% over 100 trials
    rng = np.random.default_rng(7)
    scale = abs(c0 * model).max()
    for _ in range(100):
        noise = 0.05 * scale * (rng.standard_normal(ts.size)
                                + 1j * rng.standard_normal(ts.size)) / math.sqrt(2)
        fit = extract_singularity_coefficient(ts, c0 * model + noise, L, moll)
        assert abs(fit.coefficient - c0) / abs(c0) < 0.10


def test_extract_refuses_a_window_with_no_sample_near_L():
    """Eight samples within 6h but none within 2h of L: there is no core
    peak to judge the ring against."""
    moll = Mollifier(0.02)
    ts = np.concatenate([np.linspace(1.88, 1.95, 10),
                         np.linspace(2.05, 2.12, 10)])
    with pytest.raises(InvalidInput, match="no sample within 2h"):
        extract_singularity_coefficient(ts, np.ones(ts.size), 2.0, moll)


def test_extract_refuses_a_window_of_zeros():
    moll = Mollifier(0.02)
    ts = np.linspace(1.8, 2.2, 401)
    with pytest.raises(InvalidInput, match="is zero"):
        extract_singularity_coefficient(ts, np.zeros(ts.size), 2.0, moll)


@pytest.mark.parametrize("where", [2.0, 2.15])
def test_extract_refuses_values_that_are_not_finite(where):
    """A NaN in the fit window, or in the ring around it, would come back
    as a NaN coefficient or be missed by the contamination check."""
    moll = Mollifier(0.02)
    ts = np.linspace(1.8, 2.2, 401)
    values = mollified_inverse_power(moll, ts, 2.0, -1)
    values[np.argmin(np.abs(ts - where))] = np.nan
    with pytest.raises(InvalidInput, match="not finite"):
        extract_singularity_coefficient(ts, values, 2.0, moll)


def test_extract_contamination_calibration(pillowcase_400, trace_400):
    # h = 0.12: the 2 sqrt(2) peak sits inside the 10h ring of L = 2
    surf = PillowcaseSurface(1.0, 1.0)
    spec = pillowcase_spectrum(surf, 200.0)
    moll_big = Mollifier(0.12)
    ts = np.linspace(0.7, 3.3, 2601)
    trace_big = mollified_trace(spec, ts, moll_big)
    with pytest.raises(WindowContaminated):
        extract_singularity_coefficient(ts, trace_big, 2.0, moll_big)
    # h = 0.02, lambda_max = 400: the window is clean and the fit completes,
    # but the t = 2 peak is dominated by the two cylinders of smooth closed
    # geodesics (order -3/2), so the order -1 fit shows the universal shape
    # residual ~0.345 and a ~e^{-3 i pi/4} phase; it is flagged invalid
    t_grid, trace, moll = trace_400
    window = np.abs(t_grid - 2.0) <= 0.28
    fit = extract_singularity_coefficient(t_grid[window], trace[window],
                                          2.0, moll)
    assert not fit.valid
    assert fit.residual_ratio == pytest.approx(0.345, abs=0.05)
    phase = np.angle(fit.coefficient)
    assert phase == pytest.approx(-3 * PI / 4, abs=0.1)


def test_pipeline_check_examples():
    rep = trace_pipeline_check(3.0, 1.0)
    assert rep.hessian_u_fd == pytest.approx(1.5, rel=1e-6)
    assert rep.rel_err < 1e-10
    assert rep.hessian_u_rel_err < 1e-6 and rep.hessian_y_rel_err < 1e-6
    # b <-> L-b symmetry of the coefficient
    ca = trace_pipeline_check(3.0, 1.0).coefficient_pipeline
    cb = trace_pipeline_check(3.0, 2.0).coefficient_pipeline
    assert ca == pytest.approx(cb, rel=1e-12)


def test_hessian_identity_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        L = rng.uniform(1.5, 7.0)
        b = rng.uniform(0.2, 0.8) * L
        omega = rng.uniform(0.3, 4.0)
        rep = trace_pipeline_check(L, b, omega=omega)
        assert rep.hessian_u_fd * b * (L - b) / L == pytest.approx(
            omega, rel=1e-6)
