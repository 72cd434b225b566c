"""Acceptance suite AT-1..AT-7, one test per criterion.

Each test prints a PASS/FAIL line with the measured numbers; AT-7 part (iii)
is informational output (the pillowcase t = 2 peak mixes orbit families and
the fitted coefficient is reported next to the prediction, not asserted).
"""

import pytest

from conewave import verification


def _report(runner, *args):
    rep = runner(*args)
    status = "PASS" if rep.passed else "FAIL"
    print(f"\n{rep.at_id} {status} ({rep.runtime_s:.1f}s): {rep.summary}")
    return rep


def test_at1_moving_point_equals_closed_form():
    rep = _report(verification.at1_moving_point, 0)
    assert rep.passed, rep.summary
    assert rep.details["max_rel_err"] < 1e-10


def test_at2_friedlander_equals_closed_forms():
    rep = _report(verification.at2_friedlander, 0)
    assert rep.passed, rep.summary
    assert rep.details["rel_err_4pi"] <= 1e-10
    assert rep.details["rel_err_2pi"] <= 1e-10


def test_at3_scattering_matrix():
    rep = _report(verification.at3_scattering, 0)
    assert rep.passed, rep.summary
    assert rep.details["fourier"] < 1e-3
    assert rep.details["identity_4pi"] < 1e-12
    assert rep.details["limits"] < 1e-10


def test_at4_two_diffraction_stationary_phase():
    rep = _report(verification.at4_two_diffraction, 0)
    assert rep.passed, rep.summary
    assert rep.details["errors"][200.0] <= 0.05
    for ratio in rep.details["ratios"]:
        assert 0.3 <= ratio <= 0.7
    assert rep.details["hessian_det_err"] < 1e-8


def test_at5_differentiated_propagator():
    rep = _report(verification.at5_differentiated_propagator, 0)
    assert rep.passed, rep.summary
    assert rep.details["upsilon_err"] < 5e-2


@pytest.mark.parametrize("seed", [0, 4])
def test_at6_trace_pipeline(seed):
    rep = _report(verification.at6_trace_pipeline, seed)
    assert rep.passed, rep.summary
    assert rep.details["final"] < 1e-10
    assert rep.details["fd"] < 1e-6


def test_at7_pillowcase_spectral_run():
    rep = _report(verification.at7_pillowcase)
    # parts (i) and (ii) gate; part (iii) is the INFO text in the summary
    assert rep.passed, rep.summary
    assert rep.info_only
    assert rep.details["weyl"] < 0.05
    assert "INFO" in rep.summary


@pytest.fixture(scope="session", autouse=True)
def _summary_footer(request):
    yield
    print("\nacceptance suite complete")
