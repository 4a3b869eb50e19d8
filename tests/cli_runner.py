"""Run one plumbq command in this process and capture what it prints.

    from cli_runner import invoke

    res = invoke(["zhat", "--graph", "poincare"], env={CACHE_ENV: None})
    res.exit_code, res.stdout, res.stderr, res.output, res.exception

Used by the CLI tests and by scripts/identity_grid.py.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

from plumbq.cli import main


@dataclass
class Result:
    """What one command printed and how it ended.  exception is the
    SystemExit of a nonzero exit, or the other exception that ended the
    command, or None."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


def _setenv(values: dict) -> None:
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def invoke(args, env: dict | None = None) -> Result:
    """Run `plumbq *args`.  The exit code is read from the SystemExit that
    ends the command, 0 when it returns; any other exception is caught and
    exits 1.  env sets environment variables for the call only, a value of
    None unsetting one."""
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    saved = {name: os.environ.get(name) for name in env or {}}
    try:
        _setenv(env or {})
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args=list(args), prog_name="plumbq")
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
        exception = exc if code else None
    except Exception as exc:
        code, exception = 1, exc
    finally:
        _setenv(saved)
    return Result(code, out.getvalue(), err.getvalue(), exception)
