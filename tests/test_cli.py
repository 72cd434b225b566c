import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cli_run import run_cli
from conewave import cli, geometry, kernels, verification, wave_trace
from conewave.errors import InvalidInput

PI = math.pi


def run_python(args, cwd):
    """A child `python -W error` in `cwd`, where the process is under test."""
    # The child runs in ``cwd`` (a tmp dir), where a relative PYTHONPATH such
    # as ``src`` no longer resolves; put the absolute source directory of the
    # conewave under test first so the child imports that same package.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_run_cli_turns_warnings_into_errors(monkeypatch, tmp_path):
    """The runner is `-W error` in process: a RuntimeWarning on the predict
    path raises out of it, even where the caller's filters ignore it."""
    predict = wave_trace.predict_two_diffraction_singularity

    def overflowing_predict(L, b):
        np.exp(np.float64(1000.0))  # numpy warns of the overflow
        return predict(L, b)

    monkeypatch.setattr(wave_trace, "predict_two_diffraction_singularity",
                        overflowing_predict)
    with warnings.catch_warnings(), \
            pytest.raises(RuntimeWarning, match="overflow"):
        warnings.simplefilter("ignore")
        run_cli(["predict", "--L", "3", "--b", "1"], tmp_path)


def test_run_cli_raises_what_main_does_not_catch(monkeypatch, tmp_path):
    """An exception other than ConewaveError raises out of the runner, as a
    traceback would end the process, so an in-process test fails on it and
    needs no check that stderr holds no traceback."""
    def broken_predict(L, b):
        raise RuntimeError("not a ConewaveError")

    monkeypatch.setattr(wave_trace, "predict_two_diffraction_singularity",
                        broken_predict)
    with pytest.raises(RuntimeError, match="not a ConewaveError"):
        run_cli(["predict", "--L", "3", "--b", "1"], tmp_path)


NO_SCIPY_CHILD = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy or of a submodule raises
import conewave.cli
from conewave.special import l1_half_derivative
found = {key: conewave.cli.main(argv)
         for key, argv in json.loads(sys.argv[1]).items()}
found["l1_half_derivative"] = l1_half_derivative([0.0, 1.0, 2.0], 1.0).tolist()
print(json.dumps(found))
"""


def test_cli_import_leaves_out_scipy_signal(tmp_path):
    """conewave needs numpy alone: with every scipy import made to fail,
    the package and the CLI import, predict, scatter, compose, all four
    kernels, trace (its fits sum Kummer's series with numpy) and verify exit
    0, and l1_half_derivative convolves by numpy's FFT.  A child process,
    since the pytest process itself has scipy loaded."""
    (tmp_path / "chain.json").write_text(json.dumps(CHAIN))
    kernel = ["kernel", "--alpha", str(4 * PI), "--r1", "1", "--theta1", "0",
              "--r2", "1", "--theta2", "1.5", "--ts", "0.5:0.35:3.0"]
    runs = {
        "predict": ["predict", "--L", "3", "--b", "1", "--out", "p.json"],
        "scatter": ["scatter", "--alpha", "7", "--thetas", "0:0.1:3",
                    "--out", "s.csv"],
        "compose": COMPOSE_ARGS + ["--q1=2.98,-0.2", "--omega", "2",
                                   "--out", "c.json"],
        **{f"kernel {rep}": kernel + ["--representation", rep,
                                      "--out", f"{rep}.csv"]
           for rep in ("closed4pi", "moving", "friedlander", "cheeger")},
        "trace": ["trace", "--a", "1", "--b", "1", "--h", "0.05",
                  "--lambda-max", "200", "--t-range", "0.5:0.005:4.5",
                  "--out", "t.csv", "--report", "peaks.json"],
        "verify --seed 0": ["verify", "--seed", "0", "--out", "v.json"],
    }
    res = run_python(["-c", NO_SCIPY_CHILD, json.dumps(runs)], tmp_path)
    assert res.returncode == 0, res.stderr
    # verify prints its table before the child's line
    found = json.loads(res.stdout.splitlines()[-1])
    assert {key: found.pop(key) for key in runs} == dict.fromkeys(runs, 0)
    # the ramp y, whose half-derivative 2 sqrt(y / pi) the L1 scheme gives
    # exactly (its interpolant is the ramp)
    assert found["l1_half_derivative"] == pytest.approx(
        [0.0, 2.0 / math.sqrt(PI), 2.0 * math.sqrt(2.0 / PI)], rel=1e-15, abs=0)
    # the trace fitted a singularity coefficient, so it ran the moment
    peaks = json.loads((tmp_path / "peaks.json").read_text())["peaks"]
    assert any(p["fitted_coefficient_re"] is not None for p in peaks)


AT6_CHILD = """
import json, sys
from conewave import verification
rep = verification.at6_trace_pipeline(0)
print(json.dumps([bool(rep.passed), [m for m in sys.modules
                               if m.startswith("scipy.optimize")]]))
"""


def test_at6_loads_no_optimizer(tmp_path):
    """AT-6 takes the reduced phase's curvature from one finite-difference
    Hessian, so it runs without scipy.optimize.  A child process, since the
    pytest process itself may have it loaded."""
    res = run_python(["-c", AT6_CHILD], tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [True, []]


def test_predict(tmp_path):
    code, out, _ = run_cli(["predict", "--L", "3", "--b", "1"], tmp_path)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == -1
    assert data["coefficient_abs"] == pytest.approx(0.035822448, abs=1e-8)
    assert data["coefficient_re"] == 0.0


def test_scatter_plane_is_zero(tmp_path):
    code, out, _ = run_cli(["scatter", "--alpha", "6.2831853",
                            "--thetas", "0:0.1:3"], tmp_path)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,theta,S_closed,S_fourier_re,S_fourier_im,is_pole"
    assert len(lines) == 32
    for line in lines[1:]:
        s_closed = float(line.split(",")[2])
        assert abs(s_closed) < 1e-6


def _csv_columns(path):
    header, *rows = path.read_text().strip().split("\n")
    return dict(zip(header.split(","), zip(*(r.split(",") for r in rows))))


def test_scatter_is_pole_marks_the_nan_rows(tmp_path):
    """Across theta = +-pi the closed form is nan on exactly the rows
    flagged is_pole, for cone angles on both sides of 2 pi."""
    for alpha in (PI, 7.0, 3 * PI, 4 * PI):
        assert run_cli(["scatter", "--alpha", str(alpha),
                        f"--thetas={-PI}:{PI / 10}:{PI}", "--fourier-n", "4",
                        "--out", "s.csv"], tmp_path)[0] == 0
        cols = _csv_columns(tmp_path / "s.csv")
        closed_nan = [v == "nan" for v in cols["S_closed"]]
        assert [v == "True" for v in cols["is_pole"]] == closed_nan
        assert closed_nan[0] and closed_nan[-1] and sum(closed_nan) >= 2


def test_friedlander_kernel_does_not_mollify(tmp_path):
    """--h leaves the friedlander CSV unchanged, values and region labels:
    the exact kernel ignores the width."""
    csv = {}
    for h in ("0.01", "0.3"):
        assert run_cli(["kernel", "--alpha", "7", "--representation",
                        "friedlander", "--r1", "1", "--theta1", "0",
                        "--r2", "1", "--theta2", "1.5", "--ts", "0.5:0.25:3.0",
                        "--h", h, "--out", f"f{h}.csv"], tmp_path)[0] == 0
        csv[h] = (tmp_path / f"f{h}.csv").read_text()
    assert csv["0.01"] == csv["0.3"]
    assert "between_fronts" in csv["0.3"] and "after_diffracted" in csv["0.3"]


def test_friedlander_kernel_past_the_old_grid_matches_closed4pi(tmp_path):
    """At pullback y from 5.5 to 9.6 (t = 3.5 to 4.5, r1 = r2 = 1) the
    friedlander kernel is the closed form of C_4pi."""
    cols = {}
    for rep in ("friedlander", "closed4pi"):
        assert run_cli(["kernel", "--alpha", str(4 * PI), "--representation",
                        rep, "--r1", "1", "--theta1", "0", "--r2", "1",
                        "--theta2", "1.5", "--ts", "3.5:0.5:4.5",
                        "--out", f"{rep}.csv"], tmp_path)[0] == 0
        cols[rep] = _csv_columns(tmp_path / f"{rep}.csv")
    got = [float(v) for v in cols["friedlander"]["value_re"]]
    want = [float(v) for v in cols["closed4pi"]["value_re"]]
    assert len(got) == 3
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_friedlander_kernel_is_symmetric_at_a_huge_cone_angle(tmp_path):
    """At alpha = 1e70 swapping the two points leaves the value unchanged,
    and an angle difference of 1e-30 is not rounded onto one of 1."""
    values = {}
    for theta1, theta2 in (("0", "1"), ("1", "0"), ("0", "1e-30")):
        out = f"f{theta1}_{theta2}.csv"
        assert run_cli(["kernel", "--alpha", "1e70", "--representation",
                        "friedlander", "--r1", "1", "--r2", "1", "--theta1",
                        theta1, "--theta2", theta2, "--ts", "3:1:3",
                        "--out", out], tmp_path)[0] == 0
        values[theta1, theta2] = _csv_columns(tmp_path / out)["value_re"]
    assert values["0", "1"] == values["1", "0"]
    assert values["0", "1"] != values["0", "1e-30"]


def test_friedlander_kernel_at_alpha_1e300(tmp_path):
    """dG/dc = 2 Re S_alpha(z - i c) is computed at any cone angle, so the
    kernel at alpha = 1e300 is the one at 1e50 (where it underflowed to NaN
    and exited 2 past alpha ~ 1e77)."""
    values = {}
    for alpha in ("1e300", "1e50"):
        code, _, err = run_cli(["kernel", "--alpha", alpha, "--representation",
                                "friedlander", "--r1", "1", "--r2", "1",
                                "--theta1", "0", "--theta2", "1", "--ts",
                                "1:1:3", "--out", f"f{alpha}.csv"], tmp_path)
        assert code == 0, err
        values[alpha] = [float(v) for v in _csv_columns(
            tmp_path / f"f{alpha}.csv")["value_re"]]
    assert len(values["1e300"]) == 3
    assert values["1e300"] == pytest.approx(values["1e50"], rel=1e-14, abs=0)


def test_scatter_at_a_huge_cone_angle(tmp_path):
    """At alpha = 1e13 the closed form is about -1/(pi^2 - theta^2), with
    no pole on [0, 3]; the pole band of 1e-12 in |sin| covered all of it."""
    code, _, err = run_cli(["scatter", "--alpha", "1e13", "--thetas", "0:1:3",
                            "--out", "s.csv"], tmp_path)
    assert code == 0, err
    cols = _csv_columns(tmp_path / "s.csv")
    assert cols["is_pole"] == ("False",) * 4
    got = [float(v) for v in cols["S_closed"]]
    want = [-1 / (PI**2 - t**2) for t in (0.0, 1.0, 2.0, 3.0)]
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("alpha", [1e12, 1e14])
def test_compose_at_huge_cone_angles(alpha, tmp_path):
    """Off the axis the principal symbol is a pair at alpha1 = alpha2 =
    1e12 and 1e14, where the endpoints were read as geometric directions
    (null)."""
    (tmp_path / "chain.json").write_text(json.dumps(
        {**CHAIN, "alpha1": alpha, "alpha2": alpha}))
    code, out, err = run_cli(OFF_AXIS_ARGS, tmp_path)
    assert code == 0, err
    symbol = json.loads(out)["symbol_lambda0"]
    assert isinstance(symbol, list) and len(symbol) == 2
    assert all(map(math.isfinite, symbol))


def test_closed4pi_kernel_is_scale_free(tmp_path):
    """At radii 1e-13 the closed form is 1e13 times its unit-scale values;
    front tolerance and squares act relative to r1 + r2."""
    cols = {}
    for scale in (1.0, 1e-13):
        assert run_cli(["kernel", "--alpha", str(4 * PI), "--representation",
                        "closed4pi", "--r1", str(scale), "--r2", str(scale),
                        "--theta1", "0", "--theta2", "1",
                        f"--ts={scale}:{0.3 * scale}:{3 * scale}",
                        "--out", f"c{scale}.csv"], tmp_path)[0] == 0
        cols[scale] = _csv_columns(tmp_path / f"c{scale}.csv")
    assert cols[1e-13]["region"] == cols[1.0]["region"]
    assert len(set(cols[1.0]["region"])) == 2
    got = [1e-13 * float(v) for v in cols[1e-13]["value_re"]]
    want = [float(v) for v in cols[1.0]["value_re"]]
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_kernel_csv_header_and_determinism(tmp_path):
    """The entry point, in child processes: `python -W error -m
    conewave.cli` exits with main's 0 or 2 as its status, and two processes
    write byte-identical CSVs."""
    args = ["-m", "conewave.cli", "kernel", "--alpha", str(4 * PI),
            "--representation", "closed4pi", "--r1", "1", "--theta1", "0",
            "--r2", "1", "--theta2", str(PI / 2), "--h", "0"]
    res1 = run_python(args + ["--ts=1.5:0.35:3.0", "--out=a.csv"], tmp_path)
    res2 = run_python(args + ["--ts=1.5:0.35:3.0", "--out=b.csv"], tmp_path)
    assert res1.returncode == 0 and res2.returncode == 0
    bad = run_python(args + ["--ts=-1:1:2", "--out=c.csv"], tmp_path)
    assert bad.returncode == 2 and bad.stderr.startswith("error: ")
    assert not (tmp_path / "c.csv").exists()
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    header = a.decode().split("\n")[0]
    assert header == ("t,r1,theta1,r2,theta2,alpha,representation,"
                      "value_re,value_im,region")
    first = a.decode().split("\n")[1].split(",")
    assert float(first[7]) == pytest.approx(1 / (2 * PI * math.sqrt(0.25)),
                                            rel=1e-12)
    assert first[9] == "between_fronts"


def test_malformed_json_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": 1.0,\n "b": }')
    code, _, err = run_cli(["compose", "--chain", str(bad), "--t", "3",
                            "--q1=2,0", "--q2=-1,0", "--omega", "1"], tmp_path)
    assert code == 2
    assert "line 2" in err and "column" in err


def test_compose(tmp_path):
    (tmp_path / "chain.json").write_text(json.dumps(CHAIN))
    code, out, _ = run_cli(COMPOSE_ARGS + ["--q1=3,0", "--omega", "2"],
                           tmp_path)
    assert code == 0
    data = json.loads(out)
    assert data["stationary"]["A"] == 1.0
    assert data["stationary"]["C"] == 2.0
    assert data["stationary"]["hessian_det"] == -4.0
    assert data["stationary"]["signature"] == 1
    assert data["oracle"] is None  # omega below the asymptotic regime
    # on-axis endpoints sit at the geometric direction: bare symbol is a pole
    assert data["symbol_lambda0"] is None
    code, out, _ = run_cli(OFF_AXIS_ARGS, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert len(report["symbol_lambda0"]) == 2
    assert report["half_density"] == "|dr1 dtheta1 dtheta2 domega|^(1/2)"


def test_trace_outputs(tmp_path):
    assert run_cli(["trace", "--a", "1", "--b", "1", "--h", "0.05",
                    "--lambda-max", "200", "--t-range", "1.6:0.01:2.4", "--out",
                    "tr.csv", "--report", "peaks.json"], tmp_path)[0] == 0
    lines = (tmp_path / "tr.csv").read_text().strip().split("\n")
    assert lines[0] == "t,re,im"
    assert len(lines) == 82
    report = json.loads((tmp_path / "peaks.json").read_text())
    assert any(abs(p["t_peak"] - 2.0) < 0.05 for p in report["peaks"])
    peak2 = next(p for p in report["peaks"] if abs(p["t_peak"] - 2.0) < 0.05)
    assert peak2["nearest_length"] == 2.0


def test_trace_without_a_peak_builds_no_length_grid(tmp_path):
    """A 1e-6 pillowcase has no peak to t = 5, so exit 0 and an empty report:
    no length grid is built (to t = 5 it would need 6.25e12 elements)."""
    code, _, err = run_cli(["trace", "--a", "1e-6", "--b", "1e-6",
                            "--t-range", "0.5:0.5:5", "--out", "u.csv",
                            "--report", "u.json"], tmp_path)
    assert code == 0, err
    assert json.loads((tmp_path / "u.json").read_text()) == {"peaks": []}
    assert len((tmp_path / "u.csv").read_text().splitlines()) == 11


def test_trace_past_the_budget_writes_nothing(monkeypatch, tmp_path):
    """The length grid to the largest peak, 723.996, needs 363^2 elements,
    past a budget of 2^16: exit 2, and neither CSV nor report is written."""
    monkeypatch.setattr(geometry, "MAX_ARRAY_ELEMENTS", 2**16)
    code, out, err = run_cli(["trace", "--t-range", "700:0.001:730", "--out",
                              "t.csv", "--report", "r.json"], tmp_path)
    assert code == 2 and "closed-geodesic index grid" in err, err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_trace_report_that_cannot_be_written_leaves_no_csv(tmp_path):
    """The CSV is written first; when the report's directory is missing the
    call exits 2 and removes the CSV again, so neither path exists."""
    code, out, err = run_cli(["trace", "--h", "0.05", "--lambda-max", "200",
                              "--t-range", "0.5:0.01:2.5", "--out", "t.csv",
                              "--report", "no/such/r.json"], tmp_path)
    assert code == 2 and "cannot write no/such/r.json" in err, err
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("omega", ["1e5", "1e308"])
def test_compose_oracle_past_the_budget_exits_two(omega, tmp_path):
    """The README compose call at a large omega: 1e5 asks the oracle for a
    92k-node Gauss rule (a 68 GB companion matrix), 1e308 for grid sizes
    that overflow; both are input errors, refused before any allocation."""
    argv = next(a for a in _readme_cli_commands() if a[0] == "compose")
    argv[argv.index("--omega") + 1] = omega
    (tmp_path / "chain.json").write_text(json.dumps({**CHAIN, "b": 1.0}))
    code, _, err = run_cli(argv, tmp_path)
    assert code == 2
    assert "error:" in err


def test_compose_oracle_size_overflow_exits_two(tmp_path):
    """A leg of 1e200 makes the oracle's angular phase excursion overflow;
    that is an input error with one error line, not an OverflowError."""
    (tmp_path / "chain.json").write_text(json.dumps({**CHAIN, "b": 1e200}))
    code, _, err = run_cli(["compose", "--chain", "chain.json", "--t", "3",
                            "--q1=2,-0.2", "--q2=-0.98,-0.2", "--omega",
                            "100"], tmp_path)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_negative_seed_exits_two(tmp_path):
    code, _, err = run_cli(["verify", "--seed", "-1"], tmp_path)
    assert code == 2
    assert "seed" in err


def test_verify_exit_codes_exposed():
    from conewave.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFY_FAILED
    assert (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_INPUT_ERROR) == (0, 1, 2)


def test_verify_exit_one_on_failure(monkeypatch, tmp_path):
    """A failing criterion must drive the verify subcommand to exit code 1."""
    monkeypatch.setattr(verification, "run_all", lambda seed=0: [
        verification.ATReport("AT-0", "synthetic failure", False, "forced",
                              0.0)])
    code, out, _ = run_cli(["verify"], tmp_path)
    assert code == 1
    assert "FAIL" in out and "1 criteria FAILED" in out


def test_verify_out_writes_details(monkeypatch, tmp_path):
    """verify --out writes each report's details as JSON: complex numbers as
    [re, im], dict keys as strings, tuples as lists, numpy scalars as
    numbers."""
    monkeypatch.setattr(verification, "run_all", lambda seed=0: [
        verification.ATReport("AT-0", "synthetic", True, "ok", 0.0, details={
            "prediction": -0.025j, "errors": {200.0: 1e-3},
            "ratios": (0.4, 0.5), "peaks": [np.float64(2.0)],
            "valid": np.bool_(True)})])
    assert run_cli(["verify", "--out", "verify.json"], tmp_path)[0] == 0
    [report] = json.loads((tmp_path / "verify.json").read_text())
    assert report["details"] == {
        "prediction": [0.0, -0.025], "errors": {"200.0": 1e-3},
        "ratios": [0.4, 0.5], "peaks": [2.0], "valid": True}


def test_unwritable_output_is_input_error(tmp_path):
    code, _, err = run_cli(["predict", "--L", "3", "--b", "1",
                            "--out", "no/such/dir/x.json"], tmp_path)
    assert code == 2
    assert "cannot write" in err


KERNEL_ARGS = ["kernel", "--alpha", "12.566370614359172", "--r1", "0.5",
               "--theta1", "0", "--r2", "0.5", "--theta2", "2"]
CHAIN = {"a": 1.0, "b": 2.0, "c": 1.0, "alpha1": 3 * PI, "alpha2": 3 * PI,
         "eps1": -1, "eps2": 1}
COMPOSE_ARGS = ["compose", "--chain", "chain.json", "--t", "4", "--q2=-1,0"]
OFF_AXIS_ARGS = ["compose", "--chain", "chain.json", "--t", "4",
                 "--q1=2.98,-0.2", "--q2=-0.98,-0.2", "--omega", "2"]
# lengths near 1e-310, subnormal doubles, at which the exact kernels
# (about 1 / (4 pi t)) lie outside the double range
SUBNORMAL_KERNEL_ARGS = ["kernel", "--alpha", "12.566370614359172", "--r1",
                         "1e-310", "--theta1", "0", "--r2", "1e-310",
                         "--theta2", "1", "--ts", "2.5e-310:1e-310:3.5e-310"]


def test_kernel_cheeger_is_one_sweep(tmp_path):
    """`kernel --representation cheeger` evaluates the whole --ts sweep with
    one Bessel table: its CSV equals cheeger_series_sweep on the same ts, and
    its region column is one `front_region` sweep with the fronts widened by
    10 h."""
    assert run_cli(KERNEL_ARGS + ["--ts", "0.3:0.3:2.4", "--out", "k.csv"],
                   tmp_path)[0] == 0
    cols = _csv_columns(tmp_path / "k.csv")
    ts = [float(t) for t in cols["t"]]
    want = kernels.cheeger_series_sweep(4 * PI, ts, 0.5, 0.5, 4 * PI - 2.0, 0.05)
    assert [float(v) for v in cols["value_re"]] == list(want)
    regions = kernels.front_region(4 * PI, ts, 0.5, 0.5, -2.0, 0.05).tolist()
    assert list(cols["region"]) == regions
    assert {"before_direct", "near_front", "after_diffracted"} <= set(regions)


def test_kernel_representations_share_the_region_column(tmp_path):
    """One 4 pi sweep, off every front band (cheeger's widens by 10 h =
    0.5), writes the same region column in all four representations."""
    # direct front 2 sin(1/2) = 0.959, diffracted front 2
    argv = KERNEL_ARGS[:2] + ["12.566370614359172", "--r1", "1", "--theta1",
                              "0", "--r2", "1", "--theta2", "1",
                              "--ts", "0.3:1.18:2.66"]
    columns = {}
    for rep in ("closed4pi", "cheeger", "friedlander", "moving"):
        assert run_cli(argv + ["--representation", rep, "--out", "k.csv"],
                       tmp_path)[0] == 0
        columns[rep] = list(_csv_columns(tmp_path / "k.csv")["region"])
    assert columns["closed4pi"] == ["before_direct", "between_fronts",
                                    "after_diffracted"]
    assert all(column == columns["closed4pi"] for column in columns.values())


def test_moving_kernel_at_tiny_lengths(tmp_path):
    """At lengths of 1e-170, r1(s) r2(s) underflows unless the moving-vertex
    sum is scaled, and 0/0 writes NaN rows with exit 0.  Every row is
    finite, within 1e-14 of the closed form off the fronts, and raises no
    warning (the runner makes every warning an error)."""
    argv = ["kernel", "--alpha", "12.566370614359172", "--r1", "1e-170",
            "--theta1", "0", "--r2", "1e-170", "--theta2", "1",
            "--ts", "1e-170:1e-170:3e-170"]
    code, out, err = run_cli(argv + ["--representation", "moving"], tmp_path)
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[9] for row in rows] == ["between_fronts", "near_front",
                                        "after_diffracted"]
    assert all(math.isfinite(float(row[7])) for row in rows)
    for row in rows:
        if row[9] != "near_front":
            t = float(row[0])
            want = kernels.sine_kernel_closed(4 * PI, t, 1e-170, 1e-170, -1.0)
            assert float(row[7]) == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("r", [1e155, 1e200])
def test_moving_kernel_at_huge_radii(r, tmp_path):
    """Radii whose squares overflow are a sweep like any other for the
    kernels that scale their lengths: the front labels are taken at the
    lengths over a power of two near r1 + r2 (unscaled, the squared
    distance overflows).  `moving` exits 0 and agrees with `closed4pi`
    (rel 1e-13) on the same region column."""
    argv = ["kernel", "--alpha", "12.566370614359172", "--r1", repr(r),
            "--theta1", "0", "--r2", repr(r), "--theta2", "1",
            "--ts", f"{1.2 * r!r}:{0.5 * r!r}:{2.7 * r!r}"]
    rows = {}
    for rep in ("moving", "closed4pi"):
        code, out, err = run_cli(argv + ["--representation", rep], tmp_path)
        assert code == 0, err
        rows[rep] = [line.split(",") for line in out.strip().split("\n")[1:]]
    regions = [row[9] for row in rows["moving"]]
    assert regions == [row[9] for row in rows["closed4pi"]]
    assert regions == ["between_fronts", "between_fronts", "after_diffracted",
                       "after_diffracted"]
    for moving, closed in zip(rows["moving"], rows["closed4pi"]):
        assert float(moving[7]) == pytest.approx(float(closed[7]), rel=1e-13)


def test_budget_errors_print_short_counts(tmp_path):
    """An element count past the budget is printed as %.3g: the exact counts
    of a Cheeger table at h = 1e-300 and of a Friedlander image sum at
    alpha = 1e-300 have hundreds of digits."""
    for argv in (KERNEL_ARGS + ["--ts", "1:1:3", "--h", "1e-300"],
                 ["kernel", "--alpha", "1e-300", "--representation",
                  "friedlander", "--r1", "1", "--theta1", "0", "--r2", "1",
                  "--theta2", "0.5", "--ts", "1:1:3"]):
        code, _, err = run_cli(argv, tmp_path)
        assert code == 2
        assert "elements, above the budget" in err and len(err) < 200, err
    # an int count past the float range formats as inf, not OverflowError
    with pytest.raises(InvalidInput, match=r"needs inf elements"):
        geometry.check_array_size(10**400, "the table")
    with pytest.raises(InvalidInput, match=r"needs 1e\+20 elements"):
        geometry.check_array_size(10**20, "the table")


@pytest.mark.parametrize("argv, refusal", [
    *((argv, "error") for argv in [
        ["scatter", "--alpha", "-1", "--thetas", "0:0.1:1"],
        ["scatter", "--alpha", "inf", "--thetas", "0:0.1:1"],
        KERNEL_ARGS + ["--ts", "1:0.1:1.2", "--h", "0"],
        KERNEL_ARGS + ["--ts", "nan:0.1:1"],
        ["trace", "--h", "0", "--t-range", "0.5:0.1:1"],
        ["trace", "--h", "inf", "--t-range", "0.5:0.1:1"],
        ["scatter", "--alpha", "7", "--thetas", "0:0.1:1", "--fourier-n", "-1"],
        COMPOSE_ARGS + ["--q1", "abc", "--omega", "2"],
        COMPOSE_ARGS + ["--q1", "1,2,3", "--omega", "2"],
        ["compose", "--chain", "chain_no_c.json", "--t", "4", "--q1=3,0",
         "--q2=-1,0", "--omega", "2"],
        COMPOSE_ARGS + ["--q1=3,0", "--omega=-5"],
        KERNEL_ARGS + ["--r1", "-1", "--ts", "1:0.1:1.2"],
        KERNEL_ARGS + ["--ts", "1:0.1:1.2", "--h", "-1"],
        KERNEL_ARGS + ["--representation", "friedlander", "--ts", "1:0.1:1.2",
                       "--h", "-1"],
        KERNEL_ARGS + ["--representation", "moving", "--ts", "1:0.1:1.2",
                       "--h", "-1"],
        KERNEL_ARGS + ["--ts=-1:1:2"],
        ["trace", "--a", "-1", "--t-range", "0.5:0.1:1"],
        ["trace", "--a", "nan", "--t-range", "0.5:0.1:1"],
        KERNEL_ARGS + ["--representation", "moving", "--theta2", "0",
                       "--ts", "1:0.1:1.2"],
        # closed4pi and moving exist only on C_4pi
        ["kernel", "--alpha", "7", "--representation", "moving", "--r1", "1",
         "--theta1", "0", "--r2", "1", "--theta2", "1.5", "--ts", "1.5:0.5:2.5",
         "--h", "0"],
        ["kernel", "--alpha", "7", "--representation", "closed4pi", "--r1", "1",
         "--theta1", "0", "--r2", "1", "--theta2", "1.5", "--ts", "1.5:0.4:2.3",
         "--h", "0"],
        ["compose", "--chain", "chain_eps1_half.json", "--t", "4", "--q1=3,0",
         "--q2=-1,0", "--omega", "2"],
    ]),
    # sizes past the array budget are refused, by the name of the array,
    # before anything is allocated
    (["scatter", "--alpha", "7", "--thetas", "0:0.1:1",
      "--fourier-n", "100000000000"], "the Fourier order N must be in"),
    (["trace", "--t-range", "0.5:0.1:1", "--lambda-max", "1e9"],
     "the pillowcase index grid needs"),
    (KERNEL_ARGS + ["--ts", "0:1e-12:1"], "the range '0:1e-12:1' needs"),
    (KERNEL_ARGS + ["--ts", "1:0.1:1.2", "--h", "1e-4"],
     "the Bessel table needs"),
    # sizes that overflow to inf before they could be checked
    (KERNEL_ARGS + ["--ts", "1:0.1:1.2", "--h", "1e-320"], "sizes overflow"),
    (KERNEL_ARGS + ["--ts", "1e300:1:1e300", "--h", "1e-10"],
     "sizes overflow"),
    (["kernel", "--alpha", "1e300", "--r1", "0.5", "--theta1", "0",
      "--r2", "0.5", "--theta2", "2", "--ts", "1:0.1:1.2", "--h", "1e-9"],
     "sizes overflow"),
    # 30220 modes: the Bessel table of 2.32e7 elements is past the budget
    (["kernel", "--alpha", "1e4", "--r1", "1e-3", "--theta1", "0",
      "--r2", "1e-3", "--theta2", "2", "--ts", "0.1:1e-4:0.6"],
     "the Bessel table needs"),
    # the Bessel table fits; 3.65e8 lambda nodes by times do not
    (KERNEL_ARGS + ["--ts", "1:0.0001:20", "--h", "0.05"],
     "the phase block needs"),
], ids=["alpha-negative", "alpha-inf", "h-zero", "ts-nan", "trace-h-zero",
        "trace-h-inf", "fourier-n-negative", "q1-text", "q1-three-parts",
        "chain-without-c", "omega-negative", "r1-negative", "h-negative",
        "friedlander-h-negative", "moving-h-negative",
        "ts-negative", "trace-a-negative", "trace-a-nan",
        "moving-coincident-angles", "moving-alpha-7", "closed4pi-alpha-7",
        "chain-eps1-fractional", "fourier-n-huge", "trace-lambda-max-huge",
        "ts-huge", "cheeger-h-tiny", "cheeger-h-overflows",
        "cheeger-t-overflows", "cheeger-alpha-overflows",
        "cheeger-modes-by-times-huge", "cheeger-phase-block-huge"])
def test_bad_input_exits_two(argv, refusal, tmp_path):
    """Out-of-domain numbers are input errors (exit 2), not tracebacks; a
    size past the budget or the double range names what it refuses."""
    no_c = {k: v for k, v in CHAIN.items() if k != "c"}
    for name, chain in (("chain", CHAIN), ("chain_no_c", no_c),
                        ("chain_eps1_half", {**CHAIN, "eps1": 1.5})):
        (tmp_path / f"{name}.json").write_text(json.dumps(chain))
    code, _, err = run_cli(argv, tmp_path)
    assert code == 2
    assert "error" in err and refusal in err, err


@pytest.mark.parametrize("argv", [
    ["kernel", "--alpha", str(4 * PI), "--representation", "closed4pi",
     "--r1", "1e308", "--r2", "1e308", "--theta1", "0", "--theta2", "1",
     "--ts", "1:1:2"],
    ["kernel", "--alpha", "7", "--representation", "friedlander", "--r1",
     "1e-200", "--r2", "1e-200", "--theta1", "0", "--theta2", "1", "--ts",
     "1:1:2"],
    ["trace", "--h", "1e300"],
    ["trace", "--b", "1e300", "--lambda-max", "1e10"],
    ["kernel", "--alpha", "7", "--representation", "friedlander", "--r1",
     "1", "--r2", "1", "--theta1", "1e308", "--theta2=-1e308", "--ts",
     "1:1:2"],
    *(["kernel", "--alpha", alpha, "--representation", rep, "--r1", "1",
       "--r2", "1", "--theta1", "1e308", "--theta2=-1e308", "--ts", "1:1:2"]
      for alpha, rep in ((str(4 * PI), "closed4pi"), (str(4 * PI), "moving"),
                         ("7", "cheeger"))),
    ["predict", "--L", "inf", "--b", "1"],
    *(SUBNORMAL_KERNEL_ARGS + ["--representation", rep]
      for rep in ("closed4pi", "moving", "friedlander")),
], ids=["closed4pi-radii-sum-overflows",
        "friedlander-2r1r2-underflows",
        "trace-damping-exponent-overflows", "trace-index-grid-overflows",
        "angle-difference-overflows",
        "closed4pi-angle-difference-overflows",
        "moving-angle-difference-overflows",
        "cheeger-angle-difference-overflows", "predict-L-inf",
        "closed4pi-value-overflows", "moving-value-overflows",
        "friedlander-value-overflows"])
def test_overflow_is_input_error(argv, tmp_path):
    """Numbers whose intermediate values overflow or underflow exit 2 with
    one error line: no traceback, and no NaN written."""
    code, out, err = run_cli(argv, tmp_path)
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nan" not in out


def test_cheeger_at_subnormal_lengths_is_finite(tmp_path):
    """The exact kernels at these lengths, about 4e308, exceed the double
    range and exit 2 (`test_overflow_is_input_error`); the Cheeger sum,
    mollified at h = 0.05, is odd in t, so about proportional to t there:
    a finite value, which it writes."""
    code, _, err = run_cli(SUBNORMAL_KERNEL_ARGS + [
        "--representation", "cheeger", "--out", "k.csv"], tmp_path)
    assert code == 0, err
    values = [float(v) for v in _csv_columns(tmp_path / "k.csv")["value_re"]]
    assert len(values) == 2 and all(map(math.isfinite, values))


@pytest.mark.parametrize("argv", [
    ["kernel", "--alpha", "1"],
    ["predict", "--L", "3", "--b", "1", "--config", "x.json"],
    ["verify", "--tol", "at1=1"],
    ["scatter", "--alpha", "abc", "--thetas", "0:0.1:1"],
], ids=["missing-arguments", "config", "tol", "alpha-text"])
def test_argparse_errors_exit_two(argv, tmp_path):
    """A missing argument, an unknown option or a value of the wrong type
    exits 2 with argparse's usage line and no traceback."""
    code, _, err = run_cli(argv, tmp_path)
    assert code == 2
    assert "usage:" in err


def test_trace_thin_rectangle_nearest_lengths(tmp_path):
    """On a thin rectangle the closed-geodesic lengths 2 hypot(m a, n b)
    with large n lie inside the t range; every peak must be reported next
    to its own length."""
    h = 0.01
    code, _, err = run_cli(["trace", "--a", "1", "--b", "0.1", "--h", str(h),
                            "--lambda-max", "800", "--t-range",
                            "0.5:0.001:3.0", "--out", "thin.csv", "--report",
                            "peaks.json"], tmp_path)
    assert code == 0, err
    peaks = json.loads((tmp_path / "peaks.json").read_text())["peaks"]
    assert max(p["t_peak"] for p in peaks) > 2.9
    for p in peaks:
        assert abs(p["t_peak"] - p["nearest_length"]) <= 2.0 * h, p


def _readme_cli_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme.read_text(),
                      re.M | re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("conewave ")]


def test_readme_cli_examples_parse():
    """Every command of the README's CLI section parses, so the docs name
    no deleted flag."""
    commands = _readme_cli_commands()
    assert {argv[0] for argv in commands} == {
        "kernel", "scatter", "compose", "trace", "predict", "verify"}
    parser = cli.build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv).func)
