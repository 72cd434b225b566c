"""Property test of the CLI's exit-code contract: every numeric input to
`kernel`, `scatter`, `predict`, `trace` and `compose` (and every chain JSON
given to `compose`) exits 0 or 2, never with a traceback, a `predict` run
that exits 0 writes no NaN, and a `kernel` run that exits 0 writes no NaN
and no infinity.

Numbers are drawn log-uniformly from 1e-320 (a subnormal double) to 1e300
or from a few plain values, among them 0 and -1.  Angles take either sign, and half the kernel
cone angles are 4 pi, where every representation exists.  Sweeps have one
to four points.  The array budget is lowered to 2^17 elements while the
examples run, so no example allocates more than about 1e5 elements: a size
above it takes the same refusal path (exit 2) as a size above the real
budget, and sizes that overflow fail before any budget check.  `compose`
runs its oracle only at omega >= 50 and near a two-diffraction orbit, so
its calls start from a valid chain, points near the orbit and omega in
[50, 120], and one in four has one field replaced by such a number.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

import pytest

from conewave import cli, geometry

PI = math.pi
PLAIN = (0.0, -1.0, 0.05, 0.5, 1.0, 1.5, 2.0, 3.0, PI, 2 * PI, 4 * PI, 7.0)
FUZZ = settings(derandomize=True, max_examples=50, deadline=None)

magnitude = st.floats(-320.0, 300.0).map(lambda e: 10.0**e)
number = st.one_of(st.sampled_from(PLAIN), magnitude)
angle = st.one_of(number, magnitude.map(lambda x: -x))


@st.composite
def sweep(draw):
    """'start:step:stop' with one to four points."""
    start = draw(number)
    step = draw(st.one_of(st.sampled_from((0.1, 0.5)), magnitude))
    stop = start + step * draw(st.integers(0, 3))
    return f"{start!r}:{step!r}:{stop!r}"


def opt(name: str, value) -> str:
    # the '=' form keeps a negative value from reading as an option
    return f"--{name}={value!r}"


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv) under the small budget."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setattr(geometry, "MAX_ARRAY_ELEMENTS", 2**17)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv: list[str]) -> str:
    code, out, err = run(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return out if code == 0 else ""


@FUZZ
@given(alpha=st.one_of(st.just(4 * PI), number), rep=st.sampled_from(
           ["cheeger", "closed4pi", "friedlander", "moving"]),
       r1=number, theta1=angle, r2=number, theta2=angle, ts=sweep(),
       h=number)
def test_kernel_exit_codes(alpha, rep, r1, theta1, r2, theta2, ts, h):
    out = check_contract(
        ["kernel", opt("alpha", alpha), opt("representation", rep),
         opt("r1", r1), opt("theta1", theta1), opt("r2", r2),
         opt("theta2", theta2), f"--ts={ts}", opt("h", h)])
    header, *rows = [line.split(",") for line in out.splitlines()] or [[]]
    columns = [i for i, name in enumerate(header)
               if name in ("value_re", "value_im")]
    for row in rows:
        assert not {row[i] for i in columns} & {"nan", "inf", "-inf"}, row


@FUZZ
@given(alpha=number, thetas=sweep(), fourier_n=st.one_of(
    st.integers(-3, 3), st.integers(-10**6, 10**6), st.just(10**30)))
def test_scatter_exit_codes(alpha, thetas, fourier_n):
    check_contract(["scatter", opt("alpha", alpha), f"--thetas={thetas}",
                    opt("fourier-n", fourier_n)])


@FUZZ
@given(length=number, b=number)
def test_predict_exit_codes(length, b):
    out = check_contract(["predict", opt("L", length), opt("b", b)])
    assert "NaN" not in out, out


@FUZZ
@given(a=number, b=number, h=number, lambda_max=number, t_range=sweep())
def test_trace_exit_codes(a, b, h, lambda_max, t_range):
    check_contract(["trace", opt("a", a), opt("b", b), opt("h", h),
                    opt("lambda-max", lambda_max), f"--t-range={t_range}",
                    "--report", "-"])


CHAIN_KEYS = ("a", "b", "c", "alpha1", "alpha2", "eps1", "eps2")
sign = st.sampled_from((1, -1, 1.0, True, 0, "1", None, 2))
point = st.tuples(angle, angle).map(lambda p: f"{p[0]!r},{p[1]!r}")
omega = st.one_of(st.sampled_from(PLAIN), magnitude.filter(lambda w: w < 50),
                  magnitude.map(lambda x: -x), st.floats(50.0, 120.0))
# the arbitrary draw that may replace each field of a `compose` call
CORRUPT = {**dict.fromkeys(("a", "b", "c", "alpha1", "alpha2", "t"), number),
           "eps1": sign, "eps2": sign, "q1": point, "q2": point,
           "omega": omega}


def chart_point(x0: float, r: float, theta: float) -> str:
    """'x,y' of the point at radius r and reflected-orientation angle theta
    around the vertex (x0, 0), as `chart_points_from_angles` places it."""
    return f"{x0 + r * math.cos(theta)!r},{-r * math.sin(theta)!r}"


@st.composite
def compose_call(draw):
    """(chain, call): the chain JSON and the t, q1, q2 and omega of a
    `compose` call near a two-diffraction orbit.  Legs lie in [0.5, 2],
    cone angles in [2.5, 14], q1 and q2 within 0.3 rad and 20% of q1* and
    q2*, t within 0.05 of the broken-line length and omega in [50, 120],
    where the oracle runs.  One call in four has one field replaced by an
    arbitrary draw, or a chain key dropped."""
    legs = [draw(st.floats(0.5, 2.0)) for _ in range(3)]
    chain = dict(zip(CHAIN_KEYS, (*legs, draw(st.floats(2.5, 14.0)),
                                  draw(st.floats(2.5, 14.0)),
                                  draw(st.sampled_from((1, -1))),
                                  draw(st.sampled_from((1, -1))))))
    a, b, c = legs
    r1, r2 = c * draw(st.floats(0.8, 1.2)), a * draw(st.floats(0.8, 1.2))
    call = {"t": r1 + b + r2 + draw(st.floats(-0.05, 0.05)),
            "q1": chart_point(b, r1, draw(st.floats(-0.3, 0.3))),
            "q2": chart_point(0.0, r2, PI + draw(st.floats(-0.3, 0.3))),
            "omega": draw(st.floats(50.0, 120.0))}
    if draw(st.integers(0, 3)) == 0:
        field = draw(st.sampled_from(sorted(CORRUPT)))
        holder = chain if field in CHAIN_KEYS else call
        if field in CHAIN_KEYS and draw(st.booleans()):
            del holder[field]
        else:
            holder[field] = draw(CORRUPT[field])
    return chain, call


@FUZZ
@given(case=compose_call())
def test_compose_exit_codes(case):
    chain, call = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain.json")
        with open(path, "w") as handle:
            json.dump(chain, handle)
        check_contract(["compose", f"--chain={path}", opt("t", call["t"]),
                        f"--q1={call['q1']}", f"--q2={call['q2']}",
                        opt("omega", call["omega"])])
