"""The Cheeger mode sum against values of its previous lambda quadrature.

`tests/data/cheeger_reference.json` holds `cheeger_series_sweep` values
computed at commit 1215091, whose lambda rule used 12 Gauss nodes per
period of sin(lambda * max_freq) on 2048-node panels.  The cases cover
alpha in {pi, 2pi, 3pi, 7, 4pi} and h in {0.05, 0.06}, plus h = 0.03 at
3pi and 7, with random radii, angles and time ranges.  The current rule
takes three to five 64-node panels on the other sweeps, and six and eight
on the h = 0.03 ones; it must stay within 1e-10 of each sweep's peak.

Regenerate the file from the root of this repository, with the package of
that commit on the path:

    mkdir -p ref && git archive 1215091 src | tar -x -C ref
    PYTHONPATH=ref/src python tests/test_cheeger_reference.py
"""

import json
import math
from pathlib import Path

import numpy as np

from conewave.kernels import cheeger_series_sweep

PI = math.pi
DATA = Path(__file__).resolve().parent / "data" / "cheeger_reference.json"


def _cases() -> list[dict]:
    rng = np.random.default_rng(0)
    cases = []
    for alpha in (PI, 2 * PI, 3 * PI, 7.0, 4 * PI):
        # the costly h = 0.03 tables go to the angles whose J J factor is
        # not smooth at lambda = 0
        for h in (0.03, 0.05, 0.06) if alpha in (3 * PI, 7.0) else (0.05, 0.06):
            r1, r2 = rng.uniform(0.3, 0.9, 2)
            ts = np.linspace(0.2, rng.uniform(1.2, 2.8), 11)
            cases.append({"alpha": alpha, "h": h, "r1": float(r1),
                          "r2": float(r2),
                          "dtheta": float(rng.uniform(-alpha / 2, alpha / 2)),
                          "ts": ts.tolist()})
    return cases


def test_sweeps_match_previous_rule():
    cases = json.loads(DATA.read_text())["cases"]
    assert len(cases) == 12
    for c in cases:
        got = cheeger_series_sweep(c["alpha"], c["ts"], c["r1"], c["r2"],
                                   c["dtheta"], c["h"])
        want = np.array(c["values"])
        dev = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert dev <= 1e-10, (c["alpha"], c["h"], dev)


if __name__ == "__main__":
    cases = _cases()
    for c in cases:
        c["values"] = cheeger_series_sweep(c["alpha"], c["ts"], c["r1"],
                                           c["r2"], c["dtheta"],
                                           c["h"]).tolist()
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
