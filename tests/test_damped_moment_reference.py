"""The damped moment against 40-digit values of its Kummer-function form.

`tests/data/damped_moment_reference.json` holds, for s in {0.5, 1, 1.5, 2,
2.5, 3, 4.7} and h in {0.005, 0.05, 0.2}, mpmath values at 40 digits of

    (1/2) Gamma(s/2) a^(-s/2) 1F1(s/2; 1/2; -x)
    + i (u/2) Gamma((s+1)/2) a^(-(s+1)/2) 1F1((s+1)/2; 3/2; -x),

a = h^2/2 and x = u^2/(4a), at both signs of u.  The x grid covers [0, 100]
in steps of 2.5, small x down to 1e-4, log-spaced points up to 1e6, and
points on each side of `special.KUMMER_CROSSOVER`.  `damped_moment` must
stay within 1e-15 of each row's peak, and so must scipy's `hyp1f1` form
within 2e-15 (scipy is a reference here only; the package does not call it).

Regenerate the file from the root of this repository (mpmath is needed):

    PYTHONPATH=src python tests/test_damped_moment_reference.py
"""

import json
import math
from pathlib import Path

import numpy as np
import scipy.special

from conewave.special import KUMMER_CROSSOVER, damped_moment

DATA = Path(__file__).resolve().parent / "data" / "damped_moment_reference.json"
S_VALUES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.7)
H_VALUES = (0.005, 0.05, 0.2)


def _cases() -> list[dict]:
    c = KUMMER_CROSSOVER
    x = np.unique(np.concatenate([
        np.linspace(0.0, 100.0, 41), np.geomspace(1e-4, 1.0, 5),
        np.geomspace(100.0, 1e6, 17),
        [c * (1 - 1e-3), c * (1 - 1e-9), c * (1 + 1e-9), c * (1 + 1e-3),
         c - 0.5, c + 0.5]]))
    cases = []
    for s in S_VALUES:
        for h in H_VALUES:
            u = h * np.sqrt(2.0 * x)
            cases.append({"s": s, "h": h,
                          "u": np.concatenate([-u[:0:-1], u]).tolist()})
    return cases


def _rows():
    cases = json.loads(DATA.read_text())["cases"]
    assert len(cases) == len(S_VALUES) * len(H_VALUES)
    for c in cases:
        u = np.array(c["u"])
        want = np.array(c["re"]) + 1j * np.array(c["im"])
        yield c["s"], c["h"], u, want, np.max(np.abs(want))


def test_grid_straddles_the_crossover():
    for s, h, u, _, _ in _rows():
        x = u * u / (2.0 * h * h)
        assert np.any((x < KUMMER_CROSSOVER) & (x > 0.999 * KUMMER_CROSSOVER))
        assert np.any((x > KUMMER_CROSSOVER) & (x < 1.001 * KUMMER_CROSSOVER))
        assert np.all(u[u < 0] == -u[u > 0][::-1]) and x.max() > 0.99e6


def test_damped_moment_matches_mpmath():
    """Each row in one call, and each point on its own (the series' term
    count follows the largest x of a call)."""
    for s, h, u, want, peak in _rows():
        got = damped_moment(u, h, s)
        assert np.max(np.abs(got - want)) <= 1e-15 * peak, (s, h)
        alone = np.array([damped_moment(v, h, s) for v in u])
        assert np.max(np.abs(alone - want)) <= 1e-15 * peak, (s, h)


def test_scipy_hyp1f1_form_matches_mpmath():
    """The form the package evaluated with scipy.special.hyp1f1 until it
    summed the series itself; its worst row here is 1.3e-15 off at s = 4.7."""
    for s, h, u, want, peak in _rows():
        a = 0.5 * h * h
        x = -u * u / (4.0 * a)
        old = (0.5 * math.gamma(0.5 * s) * a ** (-0.5 * s)
               * scipy.special.hyp1f1(0.5 * s, 0.5, x)
               + 0.5j * u * math.gamma(0.5 * s + 0.5) * a ** (-0.5 * s - 0.5)
               * scipy.special.hyp1f1(0.5 * s + 0.5, 1.5, x))
        assert np.max(np.abs(old - want)) <= 2e-15 * peak, (s, h)
        assert np.max(np.abs(old - damped_moment(u, h, s))) <= 2e-15 * peak


if __name__ == "__main__":
    import mpmath

    mpmath.mp.dps = 40
    cases = _cases()
    for c in cases:
        s, h = mpmath.mpf(c["s"]), mpmath.mpf(c["h"])
        a = h * h / 2
        even = mpmath.gamma(s / 2) / 2 * a ** (-s / 2)
        odd = mpmath.gamma((s + 1) / 2) / 2 * a ** (-(s + 1) / 2)
        c["re"], c["im"] = [], []
        for v in c["u"]:
            v = mpmath.mpf(v)
            x = -v * v / (4 * a)
            c["re"].append(float(even * mpmath.hyp1f1(s / 2, 0.5, x)))
            c["im"].append(float(v * odd * mpmath.hyp1f1((s + 1) / 2, 1.5, x)))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({"cases": cases}) + "\n")
