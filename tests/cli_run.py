"""The CLI tests' one way of running the CLI: `cli.main` in this process."""

import contextlib
import io
import warnings

import pytest

from conewave import cli


def run_cli(argv, cwd):
    """(exit code, stdout, stderr) of `conewave argv` in `cwd`, every warning
    an error as under `python -W error`; argparse's usage errors exit 2.

    An exception that `cli.main` does not catch raises out of this call,
    where the process would print a traceback, so a test that runs the CLI
    here fails on it without reading stderr.  Only a child process, as in
    `test_cli.run_python`, can write a traceback to check for."""
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
