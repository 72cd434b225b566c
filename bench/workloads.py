"""The four workloads: inputs made from the seed, one round of operations,
and the output checks, which run untimed after each operation.

A round is a fixed list of operations; every run attempts whole rounds,
so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

PI = math.pi
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Context:
    workdir: Path
    env: dict            # environment of child processes
    tracer: object = None  # a tracer.Tracer in the traced run


@dataclass
class Round:
    """One round: time spent in operations, failures and failed checks."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)  # figures for the traced run

    def op(self, label, fn, *args, n_ops: int = 1):
        """Time one operation (or `n_ops` that one call performs).
        Returns (True, result), or (False, None) when it raised."""
        self.attempted += n_ops
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted as failed; the round goes on
            self.wall_s += time.perf_counter() - start
            self.failed += n_ops
            self.failures.append(f"{label}: {exc!r}")
            return False, None
        self.wall_s += time.perf_counter() - start
        return True, result

    def check(self, ok, message: str) -> None:
        if not ok:
            self.errors.append(message)


# --------------------------------------------------------------------- verify

# AT-6 is left out: its finite-difference Hessian gate (fd < 1e-6) fails
# on about a fifth of seeds (66 of 0..299), so it cannot be an operation
# whose failure share is the same on every seed. run_all still runs it.
VERIFY_OPS = ("AT-1", "AT-2", "AT-3", "AT-4", "AT-5", "AT-7")


def verify_inputs(seed: int):
    return seed


def _check_verify(rnd: Round, reports) -> None:
    gates = oracles.AT_GATES
    by_id = {rep.at_id: rep for rep in reports}
    for at_id in VERIFY_OPS:
        rep = by_id.get(at_id)
        rnd.check(rep is not None and rep.passed,
                  f"{at_id} missing or not passed by the program")
        if rep is None:
            continue
        d = rep.details
        if at_id == "AT-4":
            errs = {float(k): float(v) for k, v in d["errors"].items()}
            ratios = (errs[200.0] / errs[100.0], errs[400.0] / errs[200.0])
            g = gates["AT-4"]
            rnd.check(errs[200.0] <= g["dev_omega200"], f"AT-4 dev {errs[200.0]}")
            rnd.check(all(g["ratio_lo"] <= r <= g["ratio_hi"] for r in ratios),
                      f"AT-4 halving ratios {ratios}")
            rnd.check(d["hessian_det_err"] < g["hessian_det_err"],
                      f"AT-4 Hessian det err {d['hessian_det_err']}")
        elif at_id == "AT-7":
            g = gates["AT-7"]
            lengths = oracles.pillowcase_lengths(1.0, 1.0, 5.1)
            dev = max((float(np.min(np.abs(lengths - p))) for p in d["peaks"]),
                      default=math.inf)
            rnd.check(d["weyl"] < g["weyl"], f"AT-7 Weyl err {d['weyl']}")
            rnd.check(dev <= g["peak_dev_per_h"] * 0.02,
                      f"AT-7 peak {dev} away from every length")
        else:
            for key, bound in gates[at_id].items():
                rnd.check(float(d[key]) < bound, f"{at_id} {key} {d[key]}")


def verify_round(ctx: Context, seed: int, rnd: Round) -> None:
    from conewave import verification

    ok, reports = rnd.op("verification.run_all", verification.run_all, seed,
                         n_ops=len(VERIFY_OPS))
    if not ok:
        return
    _check_verify(rnd, reports)
    by_id = {rep.at_id: rep.details for rep in reports}
    errs = by_id["AT-4"]["errors"]
    rnd.layer.update({
        "verification.at1_max_rel_err": by_id["AT-1"]["max_rel_err"],
        "verification.at2_rel_err_4pi": by_id["AT-2"]["rel_err_4pi"],
        "verification.at2_rel_err_2pi": by_id["AT-2"]["rel_err_2pi"],
        "verification.at3_fourier": by_id["AT-3"]["fourier"],
        "verification.at4_dev_omega100": errs[100.0],
        "verification.at4_dev_omega200": errs[200.0],
        "verification.at4_dev_omega400": errs[400.0],
        "verification.at4_hessian_det_err": by_id["AT-4"]["hessian_det_err"],
        "verification.at5_upsilon_err": by_id["AT-5"]["upsilon_err"],
        "verification.at6_final": by_id["AT-6"]["final"],
        "verification.at7_weyl": by_id["AT-7"]["weyl"],
    })


# --------------------------------------------------------------- kernel_sweep

KERNEL_ALPHAS = (PI, 2.0 * PI, 3.0 * PI, 7.0, 4.0 * PI)
KERNEL_H = 0.06
KERNEL_NT = 24


@dataclass(frozen=True)
class KernelCase:
    alpha: float
    r1: float
    r2: float
    dtheta: float      # theta1 - theta2, with theta2 = 0
    ts: np.ndarray

    @property
    def fronts(self) -> list[float]:
        return (oracles.direct_fronts(self.alpha, self.r1, self.r2, self.dtheta)
                + [self.r1 + self.r2])

    def off_front(self, t: float, margin: float) -> bool:
        return min(abs(t - f) for f in self.fronts) > margin


def kernel_inputs(seed: int) -> list[KernelCase]:
    """One point pair per cone angle; the seed draws the angle between the
    points and the second radius. The t grid ends where the pullback
    y = (t^2 - r1^2 - r2^2) / (2 r1 r2) reaches 3.4, inside the Friedlander
    grid (y <= 4.5) with room for the mollifier."""
    rng = np.random.default_rng(seed)
    cases = []
    for alpha in KERNEL_ALPHAS:
        # the Bessel tables grow with the radii, so they vary little
        r1, r2 = 0.6, rng.uniform(0.45, 0.5)
        dtheta = rng.uniform(0.1, 0.5 * alpha - 0.05)
        t_max = math.sqrt(3.4 * 2.0 * r1 * r2 + r1 * r1 + r2 * r2)
        cases.append(KernelCase(alpha, float(r1), float(r2), float(dtheta),
                                np.linspace(0.1, t_max, KERNEL_NT)))
    return cases


def _friedlander_mollified(fg, case: KernelCase) -> np.ndarray:
    from conewave import friedlander, kernels
    from conewave.errors import OutOfGrid
    from conewave.geometry import ConePoint
    from conewave.kernels import KernelQuery

    q1, q2 = ConePoint(case.r1, case.dtheta), ConePoint(case.r2, 0.0)

    def pointwise(tau):
        if tau <= 0:
            return 0.0
        try:
            return friedlander.sine_kernel_friedlander(
                fg, KernelQuery(tau, q1, q2)).value
        except OutOfGrid:
            return 0.0

    return np.array([kernels.gauss_hermite_mollify(pointwise, t, KERNEL_H)
                     for t in case.ts])


def _moving_vertex(case: KernelCase, ts) -> np.ndarray:
    from conewave import kernels
    from conewave.geometry import ConePoint
    from conewave.kernels import KernelQuery

    q1, q2 = ConePoint(case.r1, case.dtheta), ConePoint(case.r2, 0.0)
    return np.array([kernels.sine_kernel_moving_point(KernelQuery(t, q1, q2)).value
                     for t in ts])


def _check_against_closed(rnd: Round, label: str, got, ref, rel: float,
                          floor: float, small_abs: float) -> None:
    """|got - ref| <= rel |ref| where |ref| > floor, else <= small_abs."""
    got, ref = np.asarray(got), np.asarray(ref)
    big = np.abs(ref) > floor
    err_big = np.abs(got - ref)[big] / np.abs(ref[big])
    err_small = np.abs(got - ref)[~big]
    rnd.check(not err_big.size or err_big.max() <= rel,
              f"{label}: rel err {err_big.max() if err_big.size else 0:.3e}")
    rnd.check(not err_small.size or err_small.max() <= small_abs,
              f"{label}: abs err {err_small.max() if err_small.size else 0:.3e}")


def kernel_round(ctx: Context, cases: list[KernelCase], rnd: Round) -> None:
    from conewave import friedlander, kernels

    for case in cases:
        tag = f"alpha={case.alpha:.4f}"
        _, fg = rnd.op("build_friedlander", friedlander.build_friedlander,
                           case.alpha)
        ok_e, e_h = rnd.op("cheeger_series_sweep", kernels.cheeger_series_sweep,
                           case.alpha, case.ts, case.r1, case.r2, case.dtheta,
                           KERNEL_H)
        if ok_e:
            dist = oracles.cone_distance(case.alpha, case.r1, case.r2, case.dtheta)
            early = case.ts < dist - 10.0 * KERNEL_H
            rnd.check(np.all(np.abs(e_h[early]) < 1e-8),
                      f"{tag}: E_h nonzero before dist - 10h")
            if case.alpha in (2.0 * PI, 4.0 * PI):
                ref = oracles.mollified_sine_kernel(case.alpha, case.ts, case.r1,
                                                    case.r2, case.dtheta, KERNEL_H)
                _check_against_closed(rnd, f"{tag} Cheeger vs closed form",
                                      e_h, ref, 1e-3, 1e-4, 1e-6)
        ok_f, f_h = rnd.op("sine_kernel_friedlander mollified",
                           _friedlander_mollified, fg, case)
        if ok_e and ok_f:
            sel = np.array([case.off_front(t, 6.0 * KERNEL_H) for t in case.ts])
            sel &= np.abs(e_h) >= 1e-4
            rel = np.abs(f_h[sel] - e_h[sel]) / np.abs(e_h[sel])
            rnd.check(rel.size > 0 and rel.max() <= 2e-2,
                      f"{tag}: Friedlander vs Cheeger rel err "
                      f"{rel.max() if rel.size else math.nan:.3e} on {rel.size} t")
        if case.alpha == 4.0 * PI:
            ts = [t for t in case.ts if case.off_front(t, 1e-3)]
            ok_m, moving = rnd.op("sine_kernel_moving_point", _moving_vertex,
                                  case, ts)
            if ok_m:
                ref = [oracles.sine_kernel(case.alpha, t, case.r1, case.r2,
                                           case.dtheta) for t in ts]
                _check_against_closed(rnd, f"{tag} moving vertex vs closed form",
                                      moving, ref, 1e-10, 0.0, 1e-12)


# ----------------------------------------------------------------- trace_scan

TRACE_T = (0.5, 5.5, 2501)   # t grid: start, stop, points (step 0.002)
TRACE_SAMPLES = 48           # times at which the torus identity is checked


@dataclass(frozen=True)
class TraceCase:
    a: float
    b: float
    h: float
    lambda_max: float


def trace_inputs(seed: int) -> list[TraceCase]:
    """The unit square, a non-square rectangle, and a non-square one with a
    smaller h and a larger lambda_max: about 2.2x AT-7's trace terms. The
    seed draws the aspect ratios; the areas are fixed, because the spectrum
    size, and with it the cost, grows with area * lambda_max^2."""
    rng = np.random.default_rng(seed)

    def rectangle(area, ratio, h, lambda_max):
        return TraceCase(math.sqrt(area / ratio), math.sqrt(area * ratio),
                         h, lambda_max)

    return [
        TraceCase(1.0, 1.0, 0.02, 400.0),
        rectangle(0.5, float(rng.uniform(1.4, 2.2)), 0.02, 400.0),
        rectangle(0.4, float(rng.uniform(1.3, 2.0)), 0.015, 460.0),
    ]


def _fit_or_contaminated(t_grid, trace, peak, moll):
    from conewave import wave_trace
    from conewave.errors import WindowContaminated

    try:
        return wave_trace.extract_singularity_coefficient(t_grid, trace, peak, moll)
    except WindowContaminated:
        return None   # a competing peak in the window is a reported outcome


def trace_round(ctx: Context, cases: list[TraceCase], rnd: Round) -> None:
    from conewave import wave_trace
    from conewave.special import Mollifier

    t_grid = np.linspace(*TRACE_T)
    for case in cases:
        tag = f"a={case.a:.4f} b={case.b:.4f}"
        moll = Mollifier(case.h)
        ok_s, spec = rnd.op("pillowcase_spectrum", wave_trace.pillowcase_spectrum,
                            wave_trace.PillowcaseSurface(case.a, case.b),
                            case.lambda_max)
        if ok_s:
            area = 2.0 * case.a * case.b
            weyl = area * case.lambda_max ** 2 / (4.0 * PI)
            rnd.check(abs(int(spec.multiplicities.sum()) - weyl) / weyl < 0.05,
                      f"{tag}: Weyl error above 0.05")
        ok_t, trace = rnd.op("mollified_trace", wave_trace.mollified_trace,
                             spec, t_grid, moll)
        if ok_t:
            # pillowcase trace = (trace of the 2a x 2b torus) / 2 + 1/2
            idx = np.linspace(0, t_grid.size - 1, TRACE_SAMPLES).astype(int)
            freqs = oracles.torus_frequencies(case.a, case.b, case.lambda_max)
            ref = 0.5 * oracles.torus_trace(freqs, t_grid[idx], case.h) + 0.5
            dev = float(np.max(np.abs(trace[idx] - ref)) / np.max(np.abs(trace)))
            rnd.check(dev < 1e-10, f"{tag}: torus identity off by {dev:.2e}")
        ok_p, peaks = rnd.op("detect_trace_peaks", wave_trace.detect_trace_peaks,
                             t_grid, trace)
        if not ok_p:
            continue
        lengths = oracles.pillowcase_lengths(case.a, case.b, t_grid[-1] + 1.0)
        rnd.check(len(peaks) > 0, f"{tag}: no peak detected")
        for peak in peaks:
            dev = float(np.min(np.abs(lengths - peak)))
            rnd.check(dev <= 2.0 * case.h, f"{tag}: peak {peak} is {dev:.4f} "
                      "from every closed-geodesic length")
            rnd.op("extract_singularity_coefficient", _fit_or_contaminated,
                   t_grid, trace, float(peak), moll)


# ------------------------------------------------------------------ cli_calls

CLI_CHAIN = {"a": 1.0, "b": 1.0, "c": 1.0, "alpha1": 3.0 * PI,
             "alpha2": 3.0 * PI, "eps1": -1, "eps2": 1}
CLI_COMPOSE = {"t": 3.0, "q1": (1.98, -0.2), "q2": (-0.98, -0.2), "omega": 200.0}
CLI_H = 0.05


@dataclass(frozen=True)
class KernelCall:
    name: str
    alpha: float
    representation: str
    r1: float
    theta2: float      # theta1 = 0
    r2: float
    ts: str            # start:step:stop


def cli_inputs(seed: int) -> list[KernelCall]:
    rng = np.random.default_rng(seed)
    uniform = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    out = []
    # one Bessel table per t: its size is set by the radii and the last t
    out.append(KernelCall("kernel_cheeger", 4.0 * PI, "cheeger", 0.5,
                          uniform(0.4, 2.6), uniform(0.45, 0.5), "1.1:0.3:1.7"))
    r1, r2 = uniform(0.7, 1.2), uniform(0.7, 1.2)
    out.append(KernelCall("kernel_friedlander", 3.0 * PI, "friedlander", r1,
                          uniform(0.4, 2.6), r2,
                          f"0.2:0.05:{r1 + r2 + 0.3:.3f}"))
    r1, r2 = uniform(0.6, 1.2), uniform(0.6, 1.2)
    out.append(KernelCall("kernel_moving", 4.0 * PI, "moving", r1,
                          uniform(0.3, 6.0), r2, "0.3:0.05:3.0"))
    return out


def _kernel_argv(call: KernelCall) -> list[str]:
    return ["kernel", "--alpha", repr(call.alpha), "--representation",
            call.representation, "--r1", repr(call.r1), "--theta1", "0",
            "--r2", repr(call.r2), "--theta2", repr(call.theta2),
            "--ts", call.ts, "--h", repr(CLI_H)]


def _run_cli(ctx: Context, argv: list[str], index: int):
    """One fresh `python -m conewave.cli` process (the traced run starts
    cli_child.py instead, which records per-layer aggregates)."""
    env = ctx.env
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "conewave.cli", *argv]
    else:
        env = dict(env, BENCH_TRACE_OUT=str(ctx.workdir / f"trace-{index}.json"))
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), *argv]
    return subprocess.run(cmd, cwd=ctx.workdir, env=env, capture_output=True,
                          text=True, timeout=170)


def _csv_rows(text: str) -> list[dict]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_predict(rnd: Round, out: str) -> None:
    data = json.loads(out)
    want = oracles.two_diffraction_coefficient_abs(3.0, 1.0)
    rnd.check(data["order"] == -1, "predict: order is not -1")
    rnd.check(abs(data["coefficient_abs"] - want) <= 1e-12 * want,
              f"predict: |c| = {data['coefficient_abs']}, want {want}")


def _check_scatter(rnd: Round, out: str) -> None:
    rows = _csv_rows(out)
    rnd.check(len(rows) == 31, f"scatter: {len(rows)} rows")
    for row in rows:
        alpha, theta = float(row["alpha"]), float(row["theta"])
        pole = min(abs(theta - PI), abs(theta + PI))
        if pole < 0.1:
            continue
        want = float(oracles.scattering_matrix(alpha, theta))
        got = float(row["S_closed"])
        rnd.check(abs(got - want) <= 1e-12 * abs(want),
                  f"scatter: S({theta}) = {got}, want {want}")


def _check_trace(rnd: Round, workdir: Path) -> None:
    rows = _csv_rows((workdir / "trace.csv").read_text())
    report = json.loads((workdir / "peaks.json").read_text())
    ts = np.array([float(r["t"]) for r in rows])
    vals = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    rnd.check(ts.size == 4501, f"trace: {ts.size} rows")
    idx = np.linspace(0, ts.size - 1, TRACE_SAMPLES).astype(int)
    ref = 0.5 * oracles.torus_trace(oracles.torus_frequencies(1.0, 1.0, 400.0),
                                    ts[idx], 0.02) + 0.5
    dev = float(np.max(np.abs(vals[idx] - ref)) / np.max(np.abs(vals)))
    rnd.check(dev < 1e-10, f"trace: torus identity off by {dev:.2e}")
    lengths = oracles.pillowcase_lengths(1.0, 1.0, 6.0)
    peaks = [p["t_peak"] for p in report["peaks"]]
    rnd.check(len(peaks) > 0, "trace: no peak reported")
    for p in peaks:
        rnd.check(np.min(np.abs(lengths - p)) <= 0.04, f"trace: stray peak {p}")


def _check_compose(rnd: Round, out: str) -> None:
    data = json.loads(out)
    chain, c = CLI_CHAIN, CLI_COMPOSE
    # s1 = s2 = 0: p2 = (0, 0), p1 = (b, 0), t0 = a + b/2
    a_dist = chain["a"] + 0.5 * chain["b"] - math.hypot(*c["q2"])
    b_dist = chain["b"] - a_dist
    want = -(1.0 / a_dist + 1.0 / b_dist) * c["omega"]
    got = data["stationary"]["hessian_det"]
    rnd.check(abs(got - want) <= 1e-12 * abs(want),
              f"compose: hessian_det {got}, want {want}")
    rnd.check(data["stationary"]["signature"] == 1, "compose: signature")
    rnd.check(data["rel_err"] is not None and data["rel_err"] <= 0.05,
              f"compose: oracle rel_err {data['rel_err']}")


def _check_kernel(rnd: Round, call: KernelCall, out: str) -> None:
    rows = _csv_rows(out)
    ts = np.array([float(r["t"]) for r in rows])
    vals = np.array([float(r["value_re"]) for r in rows])
    r1, r2, dth = call.r1, call.r2, call.theta2   # theta1 - theta2, up to sign
    rnd.check(ts.size > 0, f"{call.name}: empty CSV")
    fronts = oracles.direct_fronts(call.alpha, r1, r2, dth) + [r1 + r2]
    margin = [min(abs(t - f) for f in fronts) for t in ts]
    if call.representation == "cheeger":
        dist = oracles.cone_distance(call.alpha, r1, r2, dth)
        early = ts < dist - 10.0 * CLI_H
        rnd.check(np.all(np.abs(vals[early]) < 1e-8),
                  f"{call.name}: E_h nonzero before dist - 10h")
        ref = oracles.mollified_sine_kernel(call.alpha, ts, r1, r2, dth, CLI_H)
        _check_against_closed(rnd, call.name, vals, ref, 1e-3, 1e-4, 1e-6)
    elif call.representation == "moving":
        keep = np.array(margin) > 1e-3
        ref = [oracles.sine_kernel(call.alpha, t, r1, r2, dth) for t in ts[keep]]
        _check_against_closed(rnd, call.name, vals[keep], ref, 1e-10, 0.0, 1e-12)
    else:
        # Friedlander, before the diffracted front: zero ahead of the direct
        # fronts, the image sum of plane kernels behind them (AT-2's margins
        # of 0.3 in y and its 1e-2 tolerance)
        checked = 0
        for t, v in zip(ts, vals):
            y = (t * t - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)
            y_fronts = [(f * f - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)
                        for f in fronts]
            if min(abs(y - yf) for yf in y_fronts) < 0.3 or t >= r1 + r2:
                continue
            want = oracles.image_sum_kernel(call.alpha, t, r1, r2, dth)
            ok = abs(v) < 1e-4 if want == 0.0 else abs(v - want) <= 1e-2 * want
            rnd.check(ok, f"{call.name}: t={t} value {v}, want {want}")
            checked += 1
        rnd.check(checked > 0, f"{call.name}: no point off the fronts")


def cli_round(ctx: Context, kernel_calls: list[KernelCall], rnd: Round) -> None:
    chain_path = ctx.workdir / "chain.json"
    chain_path.write_text(json.dumps(CLI_CHAIN))
    c = CLI_COMPOSE
    calls = [
        ("predict", ["predict", "--L", "3", "--b", "1"], 0),
        ("scatter", ["scatter", "--alpha", "9.42477796076938",
                     "--thetas", "0:0.1:3"], 0),
        ("trace", ["trace", "--a", "1", "--b", "1", "--h", "0.02",
                   "--lambda-max", "400", "--t-range", "0.5:0.001:5.0",
                   "--out", "trace.csv", "--report", "peaks.json"], 0),
        ("compose", ["compose", "--chain", str(chain_path), "--t", str(c["t"]),
                     "--q1=%r,%r" % c["q1"], "--q2=%r,%r" % c["q2"],
                     "--omega", str(c["omega"])], 0),
        *[(k.name, _kernel_argv(k), 0) for k in kernel_calls],
        # bad input must give exit code 2 and no traceback
        ("invalid", ["scatter", "--alpha", "-1", "--thetas", "0:0.1:1"], 2),
    ]
    by_name = {k.name: k for k in kernel_calls}
    for index, (name, argv, want_code) in enumerate(calls):
        start = time.perf_counter()
        ok, res = rnd.op(f"cli {name}", _run_cli, ctx, argv, index)
        rnd.layer[f"cli.{name}_s"] = time.perf_counter() - start
        if ctx.tracer is not None:
            trace_file = ctx.workdir / f"trace-{index}.json"
            if trace_file.exists():
                ctx.tracer.merge(json.loads(trace_file.read_text()))
                trace_file.unlink()
        if not ok:
            continue
        if res.returncode != want_code or "Traceback" in res.stderr:
            rnd.failed += 1
            rnd.failures.append(f"cli {name}: exit {res.returncode}, stderr "
                                f"{res.stderr.strip().splitlines()[-1:]}")
            continue
        try:
            if name == "predict":
                _check_predict(rnd, res.stdout)
            elif name == "scatter":
                _check_scatter(rnd, res.stdout)
            elif name == "trace":
                _check_trace(rnd, ctx.workdir)
            elif name == "compose":
                _check_compose(rnd, res.stdout)
            elif name in by_name:
                _check_kernel(rnd, by_name[name], res.stdout)
        except (ValueError, KeyError, OSError) as exc:
            rnd.check(False, f"cli {name}: unreadable output ({exc!r})")


@dataclass(frozen=True)
class Workload:
    inputs: object       # seed -> inputs
    round: object        # (ctx, inputs, Round) -> None
    import_name: str     # what set-up imports
    in_process: bool     # False: the workload runs in child processes


WORKLOADS = {
    "verify": Workload(verify_inputs, verify_round, "conewave.verification", True),
    "kernel_sweep": Workload(kernel_inputs, kernel_round, "conewave", True),
    "trace_scan": Workload(trace_inputs, trace_round, "conewave", True),
    "cli_calls": Workload(cli_inputs, cli_round, "conewave.cli", False),
}
