import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conewave

PI = math.pi


def run_python(args, cwd):
    # The child runs in ``cwd`` (a tmp dir), where a relative PYTHONPATH such
    # as ``src`` no longer resolves; put the absolute source directory of the
    # conewave under test first so the child imports that same package.
    src = str(Path(conewave.__file__).resolve().parents[1])
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # -W error: a warning in the child (an overflow, a NaN from 0/0) is a
    # traceback there, as it fails the suite in-process
    return subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def run_cli(args, cwd):
    return run_python(["-m", "conewave.cli", *args], cwd)


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
        "kernel closed4pi": kernel + ["--representation", "closed4pi",
                                      "--out", "k1.csv"],
        "kernel moving": kernel + ["--representation", "moving",
                                   "--out", "k2.csv"],
        "kernel friedlander": kernel + ["--representation", "friedlander",
                                        "--out", "k3.csv"],
        "kernel cheeger": kernel + ["--representation", "cheeger",
                                    "--out", "k4.csv"],
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
    res = run_cli(["predict", "--L", "3", "--b", "1"], tmp_path)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["order"] == -1
    assert data["coefficient_abs"] == pytest.approx(0.035822448, abs=1e-8)
    assert data["coefficient_re"] == 0.0


def test_scatter_plane_is_zero(tmp_path):
    res = run_cli(["scatter", "--alpha", "6.2831853", "--thetas", "0:0.1:3"],
                  tmp_path)
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
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
    from conewave import cli

    for alpha in (PI, 7.0, 3 * PI, 4 * PI):
        out = tmp_path / "s.csv"
        assert cli.main(["scatter", "--alpha", str(alpha),
                         f"--thetas={-PI}:{PI / 10}:{PI}", "--fourier-n", "4",
                         "--out", str(out)]) == 0
        cols = _csv_columns(out)
        closed_nan = [v == "nan" for v in cols["S_closed"]]
        assert [v == "True" for v in cols["is_pole"]] == closed_nan
        assert closed_nan[0] and closed_nan[-1] and sum(closed_nan) >= 2


def test_friedlander_kernel_does_not_mollify(tmp_path):
    """--h leaves the friedlander CSV unchanged, values and region labels:
    the exact kernel ignores the width."""
    from conewave import cli

    csv = {}
    for h in ("0.01", "0.3"):
        out = tmp_path / f"f{h}.csv"
        assert cli.main(["kernel", "--alpha", "7", "--representation",
                         "friedlander", "--r1", "1", "--theta1", "0",
                         "--r2", "1", "--theta2", "1.5", "--ts", "0.5:0.25:3.0",
                         "--h", h, "--out", str(out)]) == 0
        csv[h] = out.read_text()
    assert csv["0.01"] == csv["0.3"]
    assert "between_fronts" in csv["0.3"] and "after_diffracted" in csv["0.3"]


def test_friedlander_kernel_past_the_old_grid_matches_closed4pi(tmp_path):
    """At pullback y from 5.5 to 9.6 (t = 3.5 to 4.5, r1 = r2 = 1) the
    friedlander kernel is the closed form of C_4pi."""
    from conewave import cli

    cols = {}
    for rep in ("friedlander", "closed4pi"):
        out = tmp_path / f"{rep}.csv"
        assert cli.main(["kernel", "--alpha", str(4 * PI), "--representation",
                         rep, "--r1", "1", "--theta1", "0", "--r2", "1",
                         "--theta2", "1.5", "--ts", "3.5:0.5:4.5",
                         "--out", str(out)]) == 0
        cols[rep] = _csv_columns(out)
    got = [float(v) for v in cols["friedlander"]["value_re"]]
    want = [float(v) for v in cols["closed4pi"]["value_re"]]
    assert len(got) == 3
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_friedlander_kernel_is_symmetric_at_a_huge_cone_angle(tmp_path):
    """At alpha = 1e70 swapping the two points leaves the value unchanged,
    and an angle difference of 1e-30 is not rounded onto one of 1."""
    from conewave import cli

    values = {}
    for theta1, theta2 in (("0", "1"), ("1", "0"), ("0", "1e-30")):
        out = tmp_path / f"f{theta1}_{theta2}.csv"
        assert cli.main(["kernel", "--alpha", "1e70", "--representation",
                         "friedlander", "--r1", "1", "--r2", "1", "--theta1",
                         theta1, "--theta2", theta2, "--ts", "3:1:3",
                         "--out", str(out)]) == 0
        values[theta1, theta2] = _csv_columns(out)["value_re"]
    assert values["0", "1"] == values["1", "0"]
    assert values["0", "1"] != values["0", "1e-30"]


def test_closed4pi_kernel_is_scale_free(tmp_path):
    """At radii 1e-13 the closed form is 1e13 times its unit-scale values;
    front tolerance and squares act relative to r1 + r2."""
    from conewave import cli

    cols = {}
    for scale in (1.0, 1e-13):
        out = tmp_path / f"c{scale}.csv"
        assert cli.main(["kernel", "--alpha", str(4 * PI), "--representation",
                         "closed4pi", "--r1", str(scale), "--r2", str(scale),
                         "--theta1", "0", "--theta2", "1",
                         f"--ts={scale}:{0.3 * scale}:{3 * scale}",
                         "--out", str(out)]) == 0
        cols[scale] = _csv_columns(out)
    assert cols[1e-13]["region"] == cols[1.0]["region"]
    assert len(set(cols[1.0]["region"])) == 2
    got = [1e-13 * float(v) for v in cols[1e-13]["value_re"]]
    want = [float(v) for v in cols[1.0]["value_re"]]
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_kernel_csv_header_and_determinism(tmp_path):
    args = ["kernel", "--alpha", str(4 * PI), "--representation", "closed4pi",
            "--r1", "1", "--theta1", "0", "--r2", "1",
            "--theta2", str(PI / 2), "--ts", "1.5:0.35:3.0", "--h", "0"]
    res1 = run_cli(args + ["--out", "a.csv"], tmp_path)
    res2 = run_cli(args + ["--out", "b.csv"], tmp_path)
    assert res1.returncode == 0 and res2.returncode == 0
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
    res = run_cli(["compose", "--chain", str(bad), "--t", "3",
                   "--q1=2,0", "--q2=-1,0", "--omega", "1"], tmp_path)
    assert res.returncode == 2
    assert "line 2" in res.stderr and "column" in res.stderr


def test_compose(tmp_path):
    chain = {"a": 1.0, "b": 2.0, "c": 1.0, "alpha1": 3 * PI, "alpha2": 3 * PI,
             "eps1": -1, "eps2": 1}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    res = run_cli(["compose", "--chain", str(path), "--t", "4",
                   "--q1=3,0", "--q2=-1,0", "--omega", "2"], tmp_path)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["stationary"]["A"] == 1.0
    assert data["stationary"]["C"] == 2.0
    assert data["stationary"]["hessian_det"] == -4.0
    assert data["stationary"]["signature"] == 1
    assert data["oracle"] is None  # omega below the asymptotic regime
    # on-axis endpoints sit at the geometric direction: bare symbol is a pole
    assert data["symbol_lambda0"] is None
    off = run_cli(["compose", "--chain", str(path), "--t", "4",
                   "--q1=2.98,-0.2", "--q2=-0.98,-0.2", "--omega", "2"],
                  tmp_path)
    assert off.returncode == 0
    report = json.loads(off.stdout)
    assert len(report["symbol_lambda0"]) == 2
    assert report["half_density"] == "|dr1 dtheta1 dtheta2 domega|^(1/2)"


def test_trace_outputs(tmp_path):
    res = run_cli(["trace", "--a", "1", "--b", "1", "--h", "0.05",
                   "--lambda-max", "200", "--t-range", "1.6:0.01:2.4",
                   "--out", "tr.csv", "--report", "peaks.json"], tmp_path)
    assert res.returncode == 0
    lines = (tmp_path / "tr.csv").read_text().strip().split("\n")
    assert lines[0] == "t,re,im"
    assert len(lines) == 82
    report = json.loads((tmp_path / "peaks.json").read_text())
    assert any(abs(p["t_peak"] - 2.0) < 0.05 for p in report["peaks"])
    peak2 = next(p for p in report["peaks"] if abs(p["t_peak"] - 2.0) < 0.05)
    assert peak2["nearest_length"] == 2.0


@pytest.mark.parametrize("omega", ["1e5", "1e308"])
def test_compose_oracle_past_the_budget_exits_two(omega, tmp_path):
    """The README compose call at a large omega: 1e5 asks the oracle for a
    92k-node Gauss rule (a 68 GB companion matrix), 1e308 for grid sizes
    that overflow; both are input errors, refused before any allocation."""
    argv = next(a for a in _readme_cli_commands() if a[0] == "compose")
    argv[argv.index("--omega") + 1] = omega
    (tmp_path / "chain.json").write_text(json.dumps(
        {"a": 1.0, "b": 1.0, "c": 1.0, "alpha1": 3 * PI, "alpha2": 3 * PI,
         "eps1": -1, "eps2": 1}))
    res = run_cli(argv, tmp_path)
    assert res.returncode == 2
    assert "error:" in res.stderr and "Traceback" not in res.stderr


def test_compose_oracle_size_overflow_exits_two(tmp_path):
    """A leg of 1e200 makes the oracle's angular phase excursion overflow;
    that is an input error with one error line, not an OverflowError."""
    (tmp_path / "chain.json").write_text(json.dumps(
        {"a": 1, "b": 1e200, "c": 1, "alpha1": 3 * PI, "alpha2": 3 * PI,
         "eps1": -1, "eps2": 1}))
    res = run_cli(["compose", "--chain", "chain.json", "--t", "3",
                   "--q1=2,-0.2", "--q2=-0.98,-0.2", "--omega", "100"],
                  tmp_path)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_verify_negative_seed_exits_two(tmp_path):
    res = run_cli(["verify", "--seed", "-1"], tmp_path)
    assert res.returncode == 2
    assert "seed" in res.stderr and "Traceback" not in res.stderr


def test_verify_exit_codes_exposed():
    from conewave.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFY_FAILED
    assert (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_INPUT_ERROR) == (0, 1, 2)


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    """A failing criterion must drive the verify subcommand to exit code 1."""
    from conewave import cli, verification

    def fake_run_all(seed=0):
        return [verification.ATReport("AT-0", "synthetic failure", False,
                                      "forced", 0.0)]

    monkeypatch.setattr(verification, "run_all", fake_run_all)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "1 criteria FAILED" in out


def test_verify_out_writes_details(monkeypatch, tmp_path):
    """verify --out writes each report's details as JSON: complex numbers as
    [re, im], dict keys as strings, tuples as lists, numpy scalars as
    numbers."""
    from conewave import cli, verification

    def fake_run_all(seed=0):
        return [verification.ATReport(
            "AT-0", "synthetic", True, "ok", 0.0, details={
                "prediction": -0.025j, "errors": {200.0: 1e-3},
                "ratios": (0.4, 0.5), "peaks": [np.float64(2.0)],
                "valid": np.bool_(True)})]

    monkeypatch.setattr(verification, "run_all", fake_run_all)
    path = tmp_path / "verify.json"
    assert cli.main(["verify", "--out", str(path)]) == 0
    [report] = json.loads(path.read_text())
    assert report["details"] == {
        "prediction": [0.0, -0.025], "errors": {"200.0": 1e-3},
        "ratios": [0.4, 0.5], "peaks": [2.0], "valid": True}


def test_unwritable_output_is_input_error(tmp_path):
    res = run_cli(["predict", "--L", "3", "--b", "1",
                   "--out", str(tmp_path / "no" / "such" / "dir" / "x.json")],
                  tmp_path)
    assert res.returncode == 2
    assert "cannot write" in res.stderr


KERNEL_ARGS = ["kernel", "--alpha", "12.566370614359172", "--r1", "0.5",
               "--theta1", "0", "--r2", "0.5", "--theta2", "2"]
CHAIN = {"a": 1.0, "b": 2.0, "c": 1.0, "alpha1": 3 * PI, "alpha2": 3 * PI,
         "eps1": -1, "eps2": 1}
COMPOSE_ARGS = ["compose", "--chain", "chain.json", "--t", "4", "--q2=-1,0"]
# lengths near 1e-310, subnormal doubles, at which the exact kernels
# (about 1 / (4 pi t)) lie outside the double range
SUBNORMAL_KERNEL_ARGS = ["kernel", "--alpha", "12.566370614359172", "--r1",
                         "1e-310", "--theta1", "0", "--r2", "1e-310",
                         "--theta2", "1", "--ts", "2.5e-310:1e-310:3.5e-310"]


def test_kernel_cheeger_is_one_sweep(tmp_path, monkeypatch):
    """`kernel --representation cheeger` evaluates the whole --ts sweep with
    one Bessel table: its CSV equals cheeger_series_sweep on the same ts, and
    its region column is one `front_region` sweep with the fronts widened by
    10 h."""
    from conewave import cli
    from conewave.kernels import cheeger_series_sweep, front_region

    monkeypatch.chdir(tmp_path)
    assert cli.main(KERNEL_ARGS + ["--ts", "0.3:0.3:2.4", "--out", "k.csv"]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "k.csv").read_text().strip().split("\n")[1:]]
    ts = [float(row[0]) for row in rows]
    want = cheeger_series_sweep(4 * PI, ts, 0.5, 0.5, 4 * PI - 2.0, 0.05)
    assert [float(row[7]) for row in rows] == list(want)
    regions = front_region(4 * PI, ts, 0.5, 0.5, -2.0, 0.05).tolist()
    assert [row[9] for row in rows] == regions
    assert {"before_direct", "near_front", "after_diffracted"} <= set(regions)


def test_kernel_representations_share_the_region_column(tmp_path, monkeypatch):
    """One 4 pi sweep, off every front band (cheeger's widens by 10 h =
    0.5), writes the same region column in all four representations."""
    from conewave import cli

    monkeypatch.chdir(tmp_path)
    # direct front 2 sin(1/2) = 0.959, diffracted front 2
    argv = KERNEL_ARGS[:2] + ["12.566370614359172", "--r1", "1", "--theta1",
                              "0", "--r2", "1", "--theta2", "1",
                              "--ts", "0.3:1.18:2.66"]
    columns = {}
    for rep in ("closed4pi", "cheeger", "friedlander", "moving"):
        assert cli.main(argv + ["--representation", rep, "--out", "k.csv"]) == 0
        columns[rep] = [line.split(",")[9] for line in
                        (tmp_path / "k.csv").read_text().strip().split("\n")[1:]]
    assert columns["closed4pi"] == ["before_direct", "between_fronts",
                                    "after_diffracted"]
    assert all(column == columns["closed4pi"] for column in columns.values())


def test_moving_kernel_at_tiny_lengths(tmp_path):
    """At lengths of 1e-170, r1(s) r2(s) underflows unless the moving-vertex
    sum is scaled, and 0/0 writes NaN rows with exit 0.  Every row is
    finite, within 1e-14 of the closed form off the fronts, and raises no
    warning (the child runs with -W error)."""
    from conewave.kernels import sine_kernel_closed

    argv = ["kernel", "--alpha", "12.566370614359172", "--r1", "1e-170",
            "--theta1", "0", "--r2", "1e-170", "--theta2", "1",
            "--ts", "1e-170:1e-170:3e-170"]
    res = run_cli(argv + ["--representation", "moving"], tmp_path)
    assert res.returncode == 0, res.stderr
    rows = [line.split(",") for line in res.stdout.strip().split("\n")[1:]]
    assert [row[9] for row in rows] == ["between_fronts", "near_front",
                                        "after_diffracted"]
    assert all(math.isfinite(float(row[7])) for row in rows)
    for row in rows:
        if row[9] != "near_front":
            t = float(row[0])
            want = sine_kernel_closed(4 * PI, t, 1e-170, 1e-170, -1.0)
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
        res = run_cli(argv + ["--representation", rep], tmp_path)
        assert res.returncode == 0, res.stderr
        rows[rep] = [line.split(",") for line in
                     res.stdout.strip().split("\n")[1:]]
    regions = [row[9] for row in rows["moving"]]
    assert regions == [row[9] for row in rows["closed4pi"]]
    assert regions == ["between_fronts", "between_fronts", "after_diffracted",
                       "after_diffracted"]
    for moving, closed in zip(rows["moving"], rows["closed4pi"]):
        assert float(moving[7]) == pytest.approx(float(closed[7]), rel=1e-13)


def test_budget_errors_print_short_counts(capsys):
    """An element count past the budget is printed as %.3g: the exact counts
    of a Cheeger table at h = 1e-300 and of a Friedlander image sum at
    alpha = 1e-300 have hundreds of digits."""
    from conewave import cli
    from conewave.errors import InvalidInput
    from conewave.geometry import check_array_size

    for argv in (KERNEL_ARGS + ["--ts", "1:1:3", "--h", "1e-300"],
                 ["kernel", "--alpha", "1e-300", "--representation",
                  "friedlander", "--r1", "1", "--theta1", "0", "--r2", "1",
                  "--theta2", "0.5", "--ts", "1:1:3"]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "elements, above the budget" in err and len(err) < 200, err
    # an int count past the float range formats as inf, not OverflowError
    with pytest.raises(InvalidInput, match=r"needs inf elements"):
        check_array_size(10**400, "the table")
    with pytest.raises(InvalidInput, match=r"needs 1e\+20 elements"):
        check_array_size(10**20, "the table")


@pytest.mark.parametrize("argv", [
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
    # sizes past the array budget are refused before anything is allocated
    ["scatter", "--alpha", "7", "--thetas", "0:0.1:1",
     "--fourier-n", "100000000000"],
    ["trace", "--t-range", "0.5:0.1:1", "--lambda-max", "1e9"],
    KERNEL_ARGS + ["--ts", "0:1e-12:1"],
    KERNEL_ARGS + ["--ts", "1:0.1:1.2", "--h", "1e-4"],
    # sizes that overflow to inf before they could be checked
    KERNEL_ARGS + ["--ts", "1:0.1:1.2", "--h", "1e-320"],
    KERNEL_ARGS + ["--ts", "1e300:1:1e300", "--h", "1e-10"],
    ["kernel", "--alpha", "1e300", "--r1", "0.5", "--theta1", "0",
     "--r2", "0.5", "--theta2", "2", "--ts", "1:0.1:1.2", "--h", "1e-9"],
    # Bessel table and phase block fit; the modes x times block does not
    ["kernel", "--alpha", "1e4", "--r1", "1e-3", "--theta1", "0",
     "--r2", "1e-3", "--theta2", "2", "--ts", "0.1:1e-4:0.6"],
], ids=["alpha-negative", "alpha-inf", "h-zero", "ts-nan", "trace-h-zero",
        "trace-h-inf", "fourier-n-negative", "q1-text", "q1-three-parts",
        "chain-without-c", "omega-negative", "r1-negative", "h-negative",
        "friedlander-h-negative", "moving-h-negative",
        "ts-negative", "trace-a-negative", "trace-a-nan",
        "moving-coincident-angles", "moving-alpha-7", "closed4pi-alpha-7",
        "chain-eps1-fractional", "fourier-n-huge", "trace-lambda-max-huge",
        "ts-huge", "cheeger-h-tiny", "cheeger-h-overflows",
        "cheeger-t-overflows", "cheeger-alpha-overflows",
        "cheeger-modes-by-times-huge"])
def test_bad_input_exits_two(argv, capsys, tmp_path, monkeypatch):
    """Out-of-domain numbers are input errors (exit 2), not tracebacks."""
    from conewave import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.json").write_text(json.dumps(CHAIN))
    no_c = {k: v for k, v in CHAIN.items() if k != "c"}
    (tmp_path / "chain_no_c.json").write_text(json.dumps(no_c))
    (tmp_path / "chain_eps1_half.json").write_text(
        json.dumps({**CHAIN, "eps1": 1.5}))
    assert cli.main(argv) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kernel", "--alpha", str(4 * PI), "--representation", "closed4pi",
     "--r1", "1e308", "--r2", "1e308", "--theta1", "0", "--theta2", "1",
     "--ts", "1:1:2"],
    ["kernel", "--alpha", "7", "--representation", "friedlander", "--r1",
     "1e-200", "--r2", "1e-200", "--theta1", "0", "--theta2", "1", "--ts",
     "1:1:2"],
    ["trace", "--h", "1e300"],
    ["trace", "--b", "1e300", "--lambda-max", "1e10"],
    ["kernel", "--alpha", "1e300", "--representation", "friedlander", "--r1",
     "1", "--r2", "1", "--theta1", "0", "--theta2", "1", "--ts", "1:1:3"],
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
        "friedlander-dg-dc-underflows", "angle-difference-overflows",
        "closed4pi-angle-difference-overflows",
        "moving-angle-difference-overflows",
        "cheeger-angle-difference-overflows", "predict-L-inf",
        "closed4pi-value-overflows", "moving-value-overflows",
        "friedlander-value-overflows"])
def test_overflow_is_input_error(argv, tmp_path):
    """Numbers whose intermediate values overflow or underflow exit 2 with
    one error line: no traceback, and no NaN written."""
    res = run_cli(argv, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "nan" not in res.stdout


def test_cheeger_at_subnormal_lengths_is_finite(tmp_path):
    """The exact kernels at these lengths, about 4e308, exceed the double
    range and exit 2 (`test_overflow_is_input_error`); the Cheeger sum,
    mollified at h = 0.05, is odd in t, so about proportional to t there:
    a finite value, which it writes."""
    res = run_cli(SUBNORMAL_KERNEL_ARGS + ["--representation", "cheeger",
                                           "--out", "k.csv"], tmp_path)
    assert res.returncode == 0 and "Traceback" not in res.stderr
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
    res = run_cli(argv, tmp_path)
    assert res.returncode == 2
    assert "usage:" in res.stderr and "Traceback" not in res.stderr


def test_trace_thin_rectangle_nearest_lengths(tmp_path):
    """On a thin rectangle the closed-geodesic lengths 2 hypot(m a, n b)
    with large n lie inside the t range; every peak must be reported next
    to its own length."""
    h = 0.01
    res = run_cli(["trace", "--a", "1", "--b", "0.1", "--h", str(h),
                   "--lambda-max", "800", "--t-range", "0.5:0.001:3.0",
                   "--out", "thin.csv", "--report", "peaks.json"], tmp_path)
    assert res.returncode == 0, res.stderr
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
    from conewave import cli

    commands = _readme_cli_commands()
    assert {argv[0] for argv in commands} == {
        "kernel", "scatter", "compose", "trace", "predict", "verify"}
    parser = cli.build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv).func)
