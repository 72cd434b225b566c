"""Every name the package exports is used by the package or the benchmark.

Code that nothing calls gets deleted, so an export whose only callers are
tests is dead weight.  References are found in the syntax tree (`Name` and
`Attribute` nodes), not in the text, so a docstring that mentions a name
does not keep it alive; nor does its own definition.  The benchmark also
looks functions up by name (`bench/tracer.py` `TIMED`), so in `bench/` a
string equal to the name counts too.
"""

import ast
from pathlib import Path

import conewave

PACKAGE = Path(conewave.__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "bench"

# Science checks that only the tests call; each has a reason to stay.
TEST_ONLY = (
    # the half-wave kernel e^{-i t sqrt(Delta)}, the paper's propagator, at
    # every cone angle: checked against the closed cosine kernel, its
    # Hilbert transform and its frequency content
    "halfwave_series_sweep",
    # the rank conditions that make the composed phase a parametrization
    "nondegeneracy_check",
)


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _references(path: Path, strings: bool = False) -> set[str]:
    """Names and attributes used in a file (and its strings, if asked),
    outside the top-level definition of the same name."""
    used = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif strings and isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_every_export_is_used_outside_the_tests():
    package = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*(_references(p) for p in package),
                       *(_references(p, strings=True)
                         for p in BENCH.glob("*.py")))
    exports = _exports()
    assert set(TEST_ONLY) <= set(exports)
    unused = [name for name in exports
              if name not in used and name not in TEST_ONLY]
    assert unused == []
