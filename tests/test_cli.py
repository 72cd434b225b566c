import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conewave

PI = math.pi


def run_cli(args, cwd):
    # The child runs in ``cwd`` (a tmp dir), where a relative PYTHONPATH such
    # as ``src`` no longer resolves; put the absolute source directory of the
    # conewave under test first so the child imports that same package.
    src = str(Path(conewave.__file__).resolve().parents[1])
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "conewave.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


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
    assert len(json.loads(off.stdout)["symbol_lambda0"]) == 2


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


def test_verify_exit_codes_exposed():
    from conewave.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFY_FAILED
    assert (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_INPUT_ERROR) == (0, 1, 2)


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    """A failing criterion must drive the verify subcommand to exit code 1."""
    from conewave import cli, verification

    def fake_run_all(seed=0, tol_overrides=None):
        return [verification.ATReport("AT-0", "synthetic failure", False,
                                      "forced", 0.0)]

    monkeypatch.setattr(verification, "run_all", fake_run_all)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "1 criteria FAILED" in out


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
    KERNEL_ARGS + ["--ts=-1:1:2"],
    ["trace", "--a", "-1", "--t-range", "0.5:0.1:1"],
    ["trace", "--a", "nan", "--t-range", "0.5:0.1:1"],
    ["trace", "--surface", "surface_no_b.json", "--t-range", "0.5:0.1:1"],
], ids=["alpha-negative", "alpha-inf", "h-zero", "ts-nan", "trace-h-zero",
        "trace-h-inf", "fourier-n-negative", "q1-text", "q1-three-parts",
        "chain-without-c", "omega-negative", "r1-negative", "h-negative",
        "ts-negative", "trace-a-negative", "trace-a-nan", "surface-without-b"])
def test_bad_input_exits_two(argv, capsys, tmp_path, monkeypatch):
    """Out-of-domain numbers are input errors (exit 2), not tracebacks."""
    from conewave import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.json").write_text(json.dumps(CHAIN))
    no_c = {k: v for k, v in CHAIN.items() if k != "c"}
    (tmp_path / "chain_no_c.json").write_text(json.dumps(no_c))
    (tmp_path / "surface_no_b.json").write_text('{"type": "pillowcase", "a": 1}')
    assert cli.main(argv) == 2
    assert "error" in capsys.readouterr().err
