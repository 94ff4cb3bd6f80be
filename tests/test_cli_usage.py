"""The command line's usage bytes: help texts, usage errors and exit codes.

``tests/golden/usage.json`` holds stdout, stderr and the exit code of
``cli.main`` for the argument lists of ``usage_argvs()`` at two terminal
widths.  The goldens of ``cases.json`` check stdout only; these pin the
usage line that every argparse error and every ``-h`` prints.  Regenerate
the file with

    PYTHONPATH=src python tests/test_cli_usage.py

only when a change to those bytes is intended.

``cli.main`` builds the subparser of the command it runs and no other; the
comparison test below checks that this parser prints what the parser with
every command prints, for each command's help, unknown flag and missing
argument, and the count test that every call builds its own parser.
"""

import argparse
import contextlib
import io
import json
import os
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


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("command", list(subparsers()))
def test_one_command_parser_prints_what_the_full_parser_prints(command, columns, monkeypatch):
    for argv in command_argvs(command):
        one = capture(lambda: cli.build_parser(command).parse_args(argv), columns, monkeypatch)
        full = capture(lambda: cli.build_parser().parse_args(argv), columns, monkeypatch)
        assert one == full, argv
        assert one[0] in (0, 2), argv


def count_parsers(monkeypatch) -> list[int]:
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_a_command_line_builds_its_own_parser_every_call(monkeypatch):
    built = count_parsers(monkeypatch)
    argv = ["fixture", "--list", "--output", os.devnull]
    assert cli.main(argv) == cli.EXIT_OK
    assert built[0] == 2  # the top level and the one subcommand
    assert cli.main(argv) == cli.EXIT_OK
    assert built[0] == 4  # nothing cached between calls


def test_other_argument_lists_build_the_full_parser(monkeypatch, capsys):
    built = count_parsers(monkeypatch)
    assert cli.main(["valid"]) == cli.EXIT_INPUT
    assert built[0] == 1 + len(subparsers())
    assert "invalid choice: 'valid'" in capsys.readouterr().err


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
