"""The Gauss-Legendre rule against 40-digit nodes and weights.

`tests/data/leggauss_reference.json` holds, for n in {1, 2, 16, 32, 115,
256, 625}, six nodes of the n-node rule (both ends, their neighbours, and
the quarter and middle nodes; all of them where n < 6) and their weights,
computed with mpmath at 50 digits by Newton's method on the three-term
recurrence, started from numpy's rule, and written to 40 digits.
`leggauss` must give the nodes to 4e-16 absolute and the weights to 2e-11
relative, and integrate x^(2j) exactly, to 1e-14, for every 2j < 2n.

Regenerate the file from the root of this repository (mpmath is needed):

    PYTHONPATH=src python tests/test_leggauss_reference.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conewave import special
from conewave.errors import InvalidInput, QuadratureFailure
from conewave.special import leggauss

DATA = Path(__file__).resolve().parent / "data" / "leggauss_reference.json"
ORDERS = (1, 2, 16, 32, 115, 256, 625)


def _indices(n: int) -> list[int]:
    return sorted({i for i in (0, 1, n // 4, n // 2, n - 2, n - 1)
                   if 0 <= i < n})


@pytest.mark.parametrize("n", ORDERS)
def test_leggauss_matches_the_reference(n):
    case = {c["n"]: c for c in json.loads(DATA.read_text())["cases"]}[n]
    index = case["index"]
    assert index == _indices(n)
    nodes, weights = leggauss(n)
    assert nodes.shape == weights.shape == (n,)
    assert np.all(np.diff(nodes) > 0)
    np.testing.assert_allclose(nodes[index], [float(v) for v in case["nodes"]],
                               rtol=0, atol=4e-16)
    np.testing.assert_allclose(weights[index],
                               [float(v) for v in case["weights"]],
                               rtol=2e-11, atol=0)


@pytest.mark.parametrize("n", ORDERS)
def test_leggauss_integrates_even_powers_exactly(n):
    nodes, weights = leggauss(n)
    assert float(np.sum(weights)) == pytest.approx(2.0, rel=0, abs=1e-14)
    j = np.arange(n)  # every degree 2j < 2n
    moments = np.sum(weights * nodes ** (2 * j[:, None]), axis=1)
    np.testing.assert_allclose(moments, 2.0 / (2 * j + 1), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [0, -1])
def test_leggauss_refuses_orders_below_one(n):
    with pytest.raises(InvalidInput):
        leggauss(n)


def test_leggauss_reports_a_newton_iteration_that_does_not_converge(
        monkeypatch):
    monkeypatch.setattr(special, "LEGGAUSS_NEWTON_STEPS", 1)
    with pytest.raises(QuadratureFailure):
        leggauss.__wrapped__(40)  # past the cache


def _generate() -> None:
    import mpmath

    mpmath.mp.dps = 50
    cases = []
    for n in ORDERS:
        index = _indices(n)
        start = np.polynomial.legendre.leggauss(n)[0][index]
        nodes, weights = [], []
        for x0 in start:
            x = mpmath.mpf(float(x0))
            for _ in range(6):
                p0, p1 = mpmath.mpf(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = n * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
            nodes.append(mpmath.nstr(x, 40))
            weights.append(mpmath.nstr(2 / ((1 - x * x) * dp * dp), 40))
        cases.append({"n": n, "index": index, "nodes": nodes,
                      "weights": weights})
    DATA.write_text(json.dumps({"cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    _generate()
