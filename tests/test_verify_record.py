"""`conewave verify --seed 0` against its committed record.

`tests/data/verify_seed0.json` holds, for each acceptance check, its id,
`passed`, `info_only` and `details` as `verify --out` writes them, without
the runtime and the summary line.  A change that moves any figure shows up
here, not only one that crosses a gate.

- Figures at rounding level (below 1e-12) are compared within 1e-13
  absolute, since SIMD paths can differ by CPU; every gate they face is at
  least 1e-10.
- Every other figure is compared within 1e-9 relative.
- Counts, peak positions, booleans and ids are compared exactly.

Rewrite the file from the root of this repository, after a change that
moves a figure on purpose (and say which and why):

    PYTHONPATH=src python tests/test_verify_record.py
"""

import json
import math
import tempfile
from pathlib import Path

from cli_run import run_cli

DATA = Path(__file__).resolve().parent / "data" / "verify_seed0.json"

ROUNDING_LEVEL = {
    ("AT-1", "max_rel_err"), ("AT-2", "rel_err_2pi"), ("AT-2", "rel_err_4pi"),
    ("AT-3", "identity_4pi"), ("AT-3", "limits"), ("AT-5", "conj_err"),
    ("AT-5", "support_ratio"), ("AT-6", "limits"), ("AT-6", "final"),
}
EXACT = {("AT-7", "peaks")}


def _record(tmp_path) -> list[dict]:
    """The records of `verify --seed 0 --out`, without runtime and summary."""
    code, _, err = run_cli(["verify", "--seed", "0", "--out", "v.json"],
                           tmp_path)
    assert code == 0, err
    records = json.loads((tmp_path / "v.json").read_text())
    keys = ("at_id", "passed", "info_only", "details")
    return [{key: r[key] for key in keys} for r in records]


def _check(got, want, where: str, close) -> None:
    """got has want's structure; floats pass `close`, the rest are equal."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _check(got[key], want[key], f"{where}.{key}", close)
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _check(g, w, f"{where}[{i}]", close)
    elif isinstance(want, float):
        assert isinstance(got, float) and close(got, want), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def _tolerance(at: str, name: str):
    """The comparison of a figure of one check with its recorded value."""
    if (at, name) in ROUNDING_LEVEL:
        return lambda got, want: abs(got - want) <= 1e-13
    if (at, name) in EXACT:
        return lambda got, want: got == want
    return lambda got, want: math.isclose(got, want, rel_tol=1e-9, abs_tol=0)


def test_verify_seed0_matches_its_record(tmp_path):
    want = json.loads(DATA.read_text())
    got = _record(tmp_path)
    assert [r["at_id"] for r in got] == [r["at_id"] for r in want]
    for g, w in zip(got, want):
        at = w["at_id"]
        for key in ("passed", "info_only"):
            assert g[key] is w[key], (at, key)
        assert sorted(g["details"]) == sorted(w["details"]), at
        for name, value in w["details"].items():
            _check(g["details"][name], value, f"{at}.{name}",
                   _tolerance(at, name))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = _record(Path(tmp))
    DATA.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
