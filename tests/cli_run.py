"""The CLI tests' one way of running the CLI: `cli.main` in this process."""

import contextlib
import io
import warnings

import pytest

from conewave import cli


def run_cli(argv, cwd):
    """(exit code, stdout, stderr) of `conewave argv` in `cwd`, every warning
    an error as under `python -W error`; argparse's usage errors exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.chdir(cwd)
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()
