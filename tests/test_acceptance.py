"""Acceptance suite AT-1..AT-7, one test per criterion.

Each test prints a PASS/FAIL line with the measured numbers; AT-7 part (iii)
is informational output (the pillowcase t = 2 peak mixes orbit families and
the fitted coefficient is reported next to the prediction, not asserted).
The gates are written here as literals, apart from `verification.GATES`, so
that loosening a gate in the table fails a test.
"""

import pytest

from conewave import verification


def _report(runner, *args):
    rep = runner(*args)
    status = "PASS" if rep.passed else "FAIL"
    print(f"\n{rep.at_id} {status} ({1000.0 * rep.runtime_s:.1f} ms): "
          f"{rep.summary}")
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
    assert rep.details["dev_omega200"] == rep.details["errors"][200.0]
    for ratio in rep.details["ratios"]:
        assert 0.3 <= ratio <= 0.7
    assert rep.details["ratio_dev"] <= 0.2
    assert rep.details["hessian_det_err"] < 1e-8
    assert rep.details["bad_signatures"] == 0


def test_at5_differentiated_propagator():
    rep = _report(verification.at5_differentiated_propagator, 0)
    assert rep.passed, rep.summary
    assert rep.details["upsilon_err"] <= 5e-5
    assert rep.details["conj_err"] == 0.0
    assert rep.details["support_ratio"] <= 1e-10


@pytest.mark.parametrize("seed", [0, 4])
def test_at6_trace_pipeline(seed):
    rep = _report(verification.at6_trace_pipeline, seed)
    assert rep.passed, rep.summary
    assert rep.details["final"] < 1e-10
    assert rep.details["fd"] < 1e-6
    assert rep.details["limits"] <= 1e-10


def test_at7_pillowcase_spectral_run():
    rep = _report(verification.at7_pillowcase)
    # parts (i) and (ii) gate; part (iii) is the INFO text in the summary
    assert rep.passed, rep.summary
    assert rep.info_only
    assert rep.details["weyl"] < 0.05
    assert rep.details["peak_dev"] <= 0.04
    assert "INFO" in rep.summary


def test_gate_table_decides_and_names_the_figure(monkeypatch):
    """A figure above its gate fails its AT and is named in the summary; a
    runner that omits a gated figure raises instead of passing."""
    monkeypatch.setitem(verification.GATES, "AT-2",
                        {"rel_err_4pi": 1e-10, "rel_err_2pi": 0.0})
    rep = verification.at2_friedlander(0)
    assert not rep.passed
    assert "rel_err_2pi" in rep.summary and "(<= 0)" in rep.summary
    monkeypatch.setitem(verification.GATES, "AT-2", {"missing_figure": 1.0})
    with pytest.raises(KeyError, match="missing_figure"):
        verification.at2_friedlander(0)


def test_table_shows_a_few_milliseconds():
    """The table prints milliseconds: in seconds to one decimal, any AT
    under 50 ms read 0.0s, and a 4 ms report shows its time."""
    rep = verification.ATReport("AT-3", "scattering matrix", True,
                                "fourier 0.00033 (<= 0.001)", 0.004)
    line = verification.format_table([rep]).splitlines()[0]
    assert line.startswith("AT-3  PASS ")
    assert line.endswith(" 4.0 ms  scattering matrix")


@pytest.fixture(scope="session", autouse=True)
def _summary_footer(request):
    yield
    print("\nacceptance suite complete")
