"""The command line's usage bytes: help texts, usage errors and exit codes.

``tests/golden/usage.json`` holds stdout, stderr and the exit code of
``cli.main`` for the argument lists of ``usage_argvs()`` at two terminal
widths.  The goldens of ``cases.json`` check stdout only; these pin the
usage line that every argparse error and every ``-h`` prints.  Regenerate
the file with

    PYTHONPATH=src python tests/test_cli_usage.py

only when a change to those bytes is intended.

``cli.main`` parses every command line with one parser, built once per
process; the count tests check that the first call builds it, the top level
and one subparser per command, and that every later call reuses it.  The
goldens run both widths in one process, on the same reused parser.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gmepw import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "usage.json"
WIDTHS = (60, 120)
GOLDENS = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def subparsers() -> dict[str, argparse.ArgumentParser]:
    """The subparser of each command in the parser with every command."""
    full = cli.build_parser()
    return next(a for a in full._actions if isinstance(a, argparse._SubParsersAction)).choices


def missing_argv(command: str) -> list[str]:
    """The command without its required flags, or, when it has none, with
    ``--input`` missing its value: either way an error of the subparser."""
    required = [a for a in subparsers()[command]._actions if a.required]
    return [command] if required else [command, "--input"]


def command_argvs(command: str) -> list[list[str]]:
    return [[command, "-h"], [command, "--nope"], missing_argv(command)]


def usage_argvs() -> list[list[str]]:
    top = [[], ["-h"], ["--help"], ["--he"], ["-x"], ["bogus"], ["valid"], ["--", "validate"]]
    return top + [argv for command in subparsers() for argv in command_argvs(command)]


def capture(call, columns: int, monkeypatch) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of call() at a terminal width of columns."""
    monkeypatch.setenv("COLUMNS", str(columns))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = int(exc.code or 0)
    return code, out.getvalue(), err.getvalue()


def test_usage_argvs_cover_every_command():
    assert [g["argv"] for g in GOLDENS[:: len(WIDTHS)]] == usage_argvs()


@pytest.mark.parametrize("golden", GOLDENS,
                         ids=lambda g: f"{' '.join(g['argv']) or '(none)'}@{g['columns']}")
def test_usage_bytes_match_the_golden(golden, monkeypatch):
    got = capture(lambda: cli.main(golden["argv"]), golden["columns"], monkeypatch)
    assert got == (golden["exit"], golden["stdout"], golden["stderr"])


def count_parsers(monkeypatch) -> list[int]:
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_a_command_line_builds_its_parser_once_per_process(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    built = count_parsers(monkeypatch)
    calls = [(["fixture", "--list", "--output", os.devnull], cli.EXIT_OK, ""),
             (["valid"], cli.EXIT_INPUT, "invalid choice: 'valid'")]
    for argv, code, err in calls + calls:
        assert cli.main(argv) == code
        assert err in capsys.readouterr().err
        assert built[0] == 1 + len(cli.COMMANDS)  # the first call builds it, the rest none


def test_other_argument_lists_build_the_full_parser(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    built = count_parsers(monkeypatch)
    for _ in range(2):
        assert cli.main(["valid"]) == cli.EXIT_INPUT
        assert built[0] == 1 + len(cli.COMMANDS)  # the repeat call builds none
        assert "invalid choice: 'valid'" in capsys.readouterr().err


COLD_COUNT = """
import argparse, runpy, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
sys.argv = ["gmepw", "fixture", "--list"]
try:
    runpy.run_module("gmepw.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, len(built), file=sys.stderr)
"""


def test_a_cold_command_line_builds_the_parser_once():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", COLD_COUNT], capture_output=True, text=True, env=env, timeout=60)
    assert done.stderr.split() == ["0", str(1 + len(cli.COMMANDS))]  # exit code, parsers built
    assert done.stdout.count("\n") == 8  # the whole fixture listing


def regenerate() -> None:
    monkeypatch = pytest.MonkeyPatch()
    try:
        goldens = []
        for argv in usage_argvs():
            for columns in WIDTHS:
                code, out, err = capture(lambda: cli.main(argv), columns, monkeypatch)
                goldens.append({"argv": argv, "columns": columns, "exit": code, "stdout": out, "stderr": err})
    finally:
        monkeypatch.undo()
    GOLDEN.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(goldens)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
