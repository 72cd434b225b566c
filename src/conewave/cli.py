"""Command-line entry point: kernel sweeps, scattering tables, composition
checks, trace runs, singularity predictions, and the acceptance suite.

Outputs are reproducible byte for byte: floats are written with their
shortest round-trip representation and all randomized suites take a seed.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import diffraction, friedlander, kernels, verification, wave_trace
from .errors import (ConewaveError, GeometricDirection, InvalidInput,
                     WindowContaminated)
from .geometry import ConeChain, ConePoint, PlanarPoint, check_array_size
from .special import Mollifier
from .two_diffraction import (HALF_DENSITY, CompositionPoint,
                              oscillatory_oracle, principal_symbol_lambda0,
                              stationary_eliminate, stationary_phase_value)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _fmt(x) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def _parse_range(text: str) -> np.ndarray:
    """'start:step:stop' inclusive sweep."""
    try:
        start, step, stop = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise InvalidInput(f"bad range {text!r}, expected start:step:stop") from exc
    if not all(map(math.isfinite, (start, step, stop))):
        raise InvalidInput(f"bad range {text!r}, parts must be finite")
    if step <= 0 or stop < start:
        raise InvalidInput(f"bad range {text!r}")
    count = (stop - start) / step + 1e-9
    n = int(count) + 1 if math.isfinite(count) else math.inf
    check_array_size(n, f"the range {text!r}")
    return start + step * np.arange(n)


def _parse_point(text: str) -> PlanarPoint:
    """'x,y' chain-frame point."""
    try:
        x, y = (float(p) for p in text.split(","))
    except ValueError as exc:
        raise InvalidInput(f"bad point {text!r}, expected x,y") from exc
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInput(f"bad point {text!r}, coordinates must be finite")
    return PlanarPoint(x, y)


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InvalidInput(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}:"
            f" {exc.msg}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from exc


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_ready(obj):
    """Copy of a report details value that json can write: complex numbers
    as [re, im], dict keys as strings, tuples as lists, numpy scalars as
    Python ones."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def cmd_kernel(args) -> int:
    alpha = args.alpha
    rep = args.representation
    if rep in ("closed4pi", "moving") and not abs(alpha - 4.0 * math.pi) <= 1e-14:
        raise InvalidInput(f"the {rep} representation needs alpha = 4 pi, "
                           f"got {alpha}")
    if not (args.h >= 0 and math.isfinite(args.h)):
        raise InvalidInput(f"mollifier width must be finite and >= 0, got {args.h}")
    ts = _parse_range(args.ts)
    if not ts[0] > 0:
        raise InvalidInput(f"time must be positive, got {ts[0]}")
    # only cheeger mollifies, and its fronts widen by 10 h
    h = args.h if rep == "cheeger" else 0.0
    sweep = (alpha, ts, args.r1, args.r2, args.theta1 - args.theta2)
    regions = kernels.front_region(*sweep, h)
    if rep == "cheeger":
        values = kernels.cheeger_series_sweep(*sweep, h)
    elif rep == "closed4pi":
        values = kernels.sine_kernel_closed(*sweep)
    else:
        q1, q2 = ConePoint(args.r1, args.theta1), ConePoint(args.r2, args.theta2)
        queries = [kernels.KernelQuery(t, q1, q2) for t in ts.tolist()]
        values = [(kernels.sine_kernel_moving_point(q) if rep == "moving"
                   else friedlander.sine_kernel_friedlander(alpha, q)).value
                  for q in queries]
    rows = [[t, args.r1, args.theta1, args.r2, args.theta2, alpha, rep,
             complex(v).real, complex(v).imag, region]
            for t, v, region in zip(ts.tolist(), values, regions.tolist())]
    _write_text(args.out, _csv(
        ["t", "r1", "theta1", "r2", "theta2", "alpha", "representation",
         "value_re", "value_im", "region"], rows))
    return EXIT_OK


def cmd_scatter(args) -> int:
    thetas = _parse_range(args.thetas)
    closed = diffraction.scattering_matrix(args.alpha, thetas)
    fourier = diffraction.scattering_matrix_fourier(args.alpha, thetas,
                                                    args.fourier_n)
    rows = [[args.alpha, theta, value, four.real, four.imag, math.isnan(value)]
            for theta, value, four in zip(thetas.tolist(), closed.tolist(),
                                          fourier.tolist())]
    _write_text(args.out, _csv(
        ["alpha", "theta", "S_closed", "S_fourier_re", "S_fourier_im",
         "is_pole"], rows))
    return EXIT_OK


def cmd_compose(args) -> int:
    chain = ConeChain.from_dict(_load_json(args.chain))
    q1, q2 = _parse_point(args.q1), _parse_point(args.q2)
    cp = CompositionPoint(chain, q1, q2, 0.0, 0.0, args.omega, args.t)
    sd = stationary_eliminate(cp)
    report = {
        "stationary": {
            "q_c": [sd.q_c.x, sd.q_c.y],
            "A": sd.A, "B": sd.B, "C": sd.C,
            "hessian_det": sd.hessian_det,
            "signature": sd.signature,
        },
    }
    try:
        symbol = principal_symbol_lambda0(chain, q1, q2, args.omega)
        report["symbol_lambda0"] = [symbol.real, symbol.imag]
        report["half_density"] = HALF_DENSITY
    except GeometricDirection:
        # endpoints exactly on the axis sit at the S_alpha pole; the
        # regularized amplitude is finite but the bare symbol is not
        report["symbol_lambda0"] = None
        report["note"] = "endpoints at a geometric direction of S_alpha"
    if args.omega >= 50.0:
        oracle = oscillatory_oracle(chain, args.t, q1, q2, args.omega)
        sp = stationary_phase_value(chain, args.t, q1, q2, args.omega)
        report["oracle"] = [oracle.real, oracle.imag]
        report["stationary_phase"] = [sp.real, sp.imag]
        # the leading amplitude vanishes when q2 lies on the segment p2 p1
        report["rel_err"] = abs(oracle - sp) / abs(sp) if sp else None
    else:
        report["oracle"] = None
        report["rel_err"] = None
    _write_text(args.out, _json_dump(report))
    return EXIT_OK


def cmd_trace(args) -> int:
    surf = wave_trace.PillowcaseSurface(args.a, args.b)
    moll = Mollifier(args.h)
    spec = wave_trace.pillowcase_spectrum(surf, args.lambda_max)
    ts = _parse_range(args.t_range)
    trace = wave_trace.mollified_trace(spec, ts, moll)
    rows = [[float(t), v.real, v.imag] for t, v in zip(ts, trace)]
    _write_text(args.out, _csv(["t", "re", "im"], rows))

    peaks = wave_trace.detect_trace_peaks(ts, trace)
    # a peak t lies within min(a, b) of a multiple of 2 min(a, b), or below
    # that shortest length, so its nearest length is at most t + 2 min(a, b)
    lengths = wave_trace.pillowcase_lengths(
        surf, float(ts[-1]) + 2.0 * min(surf.a_rect, surf.b_rect))
    peak_report = []
    for p in peaks:
        nearest = min(lengths, key=lambda ell: abs(ell - p))
        entry = {"t_peak": float(p), "nearest_length": nearest}
        try:
            fit = wave_trace.extract_singularity_coefficient(ts, trace,
                                                             float(p), moll)
            entry.update({"fitted_coefficient_re": fit.coefficient.real,
                          "fitted_coefficient_im": fit.coefficient.imag,
                          "residual_ratio": fit.residual_ratio,
                          "valid": fit.valid})
        except (WindowContaminated, InvalidInput) as exc:
            entry.update({"fitted_coefficient_re": None,
                          "fitted_coefficient_im": None,
                          "valid": False, "note": str(exc)})
        peak_report.append(entry)
    _write_text(args.report, _json_dump({"peaks": peak_report}))
    return EXIT_OK


def cmd_predict(args) -> int:
    pred = wave_trace.predict_two_diffraction_singularity(args.L, args.b)
    _write_text(args.out, _json_dump({
        "L": pred.L, "b": pred.b, "order": pred.order,
        "coefficient_re": pred.coefficient.real,
        "coefficient_im": pred.coefficient.imag,
        "coefficient_abs": abs(pred.coefficient),
    }))
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = verification.run_all(args.seed)
    print(verification.format_table(reports))
    if args.out:
        payload = [{
            "at_id": r.at_id, "passed": bool(r.passed),
            "info_only": bool(r.info_only), "summary": r.summary,
            "runtime_s": float(r.runtime_s),
            "details": _json_ready(r.details),
        } for r in reports]
        _write_text(args.out, _json_dump(payload))
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"{len(failed)} criteria FAILED")
        return EXIT_VERIFY_FAILED
    print("all acceptance criteria PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conewave",
        description="Wave kernels and trace singularities on flat cones")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="sine-kernel sweep as CSV")
    p_kernel.add_argument("--alpha", type=float, required=True)
    p_kernel.add_argument("--representation", default="cheeger",
                          choices=["closed4pi", "cheeger", "friedlander",
                                   "moving"],
                          help="closed4pi has no finite value on a front: "
                               "a sweep with a t there exits 2 and names it")
    p_kernel.add_argument("--r1", type=float, required=True)
    p_kernel.add_argument("--theta1", type=float, required=True)
    p_kernel.add_argument("--r2", type=float, required=True)
    p_kernel.add_argument("--theta2", type=float, required=True)
    p_kernel.add_argument("--ts", required=True, help="t sweep start:step:stop")
    p_kernel.add_argument("--h", type=float, default=0.05,
                          help="mollifier width of cheeger; the exact "
                               "representations friedlander, closed4pi and "
                               "moving ignore it")
    p_kernel.add_argument("--out", default=None)
    p_kernel.set_defaults(func=cmd_kernel)

    p_scatter = sub.add_parser("scatter", help="scattering-matrix table")
    p_scatter.add_argument("--alpha", type=float, required=True)
    p_scatter.add_argument("--thetas", required=True,
                           help="theta sweep start:step:stop")
    p_scatter.add_argument("--fourier-n", type=int, default=500)
    p_scatter.add_argument("--out", default=None)
    p_scatter.set_defaults(func=cmd_scatter)

    p_compose = sub.add_parser("compose", help="two-diffraction composition")
    p_compose.add_argument("--chain", required=True,
                           help="chain JSON {a,b,c,alpha1,alpha2,eps1,eps2}")
    p_compose.add_argument("--t", type=float, required=True)
    p_compose.add_argument("--q1", required=True, help="x,y in chain frame")
    p_compose.add_argument("--q2", required=True, help="x,y in chain frame")
    p_compose.add_argument("--omega", type=float, required=True)
    p_compose.add_argument("--out", default=None)
    p_compose.set_defaults(func=cmd_compose)

    p_trace = sub.add_parser("trace", help="pillowcase trace run")
    p_trace.add_argument("--a", type=float, default=1.0)
    p_trace.add_argument("--b", type=float, default=1.0)
    p_trace.add_argument("--h", type=float, default=0.02)
    p_trace.add_argument("--lambda-max", type=float, default=400.0)
    p_trace.add_argument("--t-range", default="0.5:0.001:5.0")
    p_trace.add_argument("--out", default=None, help="CSV output path")
    p_trace.add_argument("--report", default=None, help="peak report JSON path")
    p_trace.set_defaults(func=cmd_trace)

    p_predict = sub.add_parser("predict", help="two-diffraction singularity")
    p_predict.add_argument("--L", type=float, required=True)
    p_predict.add_argument("--b", type=float, required=True)
    p_predict.add_argument("--out", default=None)
    p_predict.set_defaults(func=cmd_predict)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None, help="JSON report path")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    # argparse exits 2 with its usage line on a missing argument, an unknown
    # option or a value of the wrong type
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConewaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
