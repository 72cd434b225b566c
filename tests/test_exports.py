"""Every name the package exports is used by the package or the benchmark,
and every error type past the three that say what happened is told apart by
a caller.

Code that nothing calls gets deleted, so an export whose only callers are
tests is dead weight.  References are found in the syntax tree (`Name` and
`Attribute` nodes), not in the text, so a docstring that mentions a name
does not keep it alive; nor does its own definition.  The benchmark also
looks functions up by name (`bench/tracer.py` `TIMED`), so in `bench/` a
string equal to the name counts too.
"""

import ast
import importlib
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
    # the rank conditions that make the one-cone and the composed phase
    # parametrizations
    "one_cone_nondegeneracy",
    "chain_nondegeneracy",
)

# The error types that say what happened, wherever they are caught: the
# base, a refused input and a computation that did not converge.
OUTCOMES = ("ConewaveError", "InvalidInput", "QuadratureFailure")


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


def _caught(path: Path) -> set[str]:
    """Names in the exception types of the `except` clauses of a file."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for handler in ast.walk(ast.parse(path.read_text()))
            if isinstance(handler, ast.ExceptHandler) and handler.type
            for node in ast.walk(handler.type)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_error_type_is_told_apart_by_a_caller():
    """A class of `conewave.errors` other than OUTCOMES exists only so that
    a caller can tell it apart: an `except` in the package names it, or the
    benchmark does."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node.name for node in tree.body
               if isinstance(node, ast.ClassDef)]
    assert set(OUTCOMES) <= set(classes)
    told_apart = set().union(*(_caught(p) for p in PACKAGE.glob("*.py")),
                             *(_references(p, strings=True)
                               for p in BENCH.glob("*.py")))
    untold = [name for name in classes
              if name not in OUTCOMES and name not in told_apart]
    assert untold == []


def test_every_benchmark_timed_name_resolves():
    """Each (module, attribute) pair that `bench/tracer.py` wraps by name in
    `TIMED` exists in `conewave`, so deleting or renaming a function the
    benchmark times fails here, not only in the benchmark's own run."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    timed = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TIMED"
                         for t in node.targets))
    pairs = [(row.elts[0].value, row.elts[1].value) for row in timed.elts]
    assert pairs
    missing = [pair for pair in pairs
               if not hasattr(importlib.import_module(f"conewave.{pair[0]}"),
                              pair[1])]
    assert missing == []
