"""Golden output of every README "Quick start (CLI)" line.

Each line runs in-process in text and in `--format json`; stdout must match
the committed file under `tests/golden/` byte for byte.  The commands that
fan out over a process pool run again with `--jobs 2` and must print the
same bytes as the serial run.
"""

import argparse
import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import dqw.cli
from dqw.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def readme_cli_lines() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(CLI\)\n\n```\n(.*?)```", text, re.S).group(1)
    out = []
    for line in block.splitlines():
        argv = shlex.split(line)
        assert argv[0] == "dqw", line
        out.append(argv[1:])
    return out


def slug(argv: list[str]) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_")


CASES = [
    pytest.param(argv, fmt, id=f"{slug(argv)}.{fmt}")
    for argv in readme_cli_lines()
    for fmt in ("text", "json")
]
FANNED_OUT = [
    pytest.param(argv, fmt, id=f"{slug(argv)}.{fmt}")
    for argv in readme_cli_lines()
    if argv[:2] in (["verify", "assoc"], ["verify", "equiv"], ["graphs", "enumerate"])
    for fmt in ("text", "json")
]


def cli_leaves(parser, prefix=()):
    """The argv prefix of every subcommand that takes no further subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from cli_leaves(sub, prefix + (name,))
            return
    yield prefix


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def golden(argv, fmt) -> str:
    return (GOLDEN / f"{slug(argv)}.{fmt}").read_text(encoding="utf-8")


@pytest.fixture(autouse=True)
def serial_default(monkeypatch):
    monkeypatch.delenv("DQW_JOBS", raising=False)


def test_every_golden_file_has_a_readme_line():
    expected = {f"{slug(argv)}.{fmt}" for argv in readme_cli_lines() for fmt in ("text", "json")}
    assert {p.name for p in GOLDEN.iterdir()} == expected
    assert len(FANNED_OUT) == 6


def test_every_cli_leaf_has_a_readme_line():
    lines = [tuple(argv) for argv in readme_cli_lines()]
    leaves = set(cli_leaves(build_parser()))
    assert len(leaves) == 12
    assert {leaf for leaf in leaves if not any(a[: len(leaf)] == leaf for a in lines)} == set()


@pytest.mark.parametrize("argv,fmt", CASES)
def test_readme_line_matches_golden(argv, fmt):
    code, out = run(argv + ["--format", fmt])
    assert code == 0
    assert out == golden(argv, fmt)


@pytest.mark.parametrize("argv,fmt", FANNED_OUT)
def test_jobs_two_matches_golden(argv, fmt):
    code, out = run(argv + ["--format", fmt, "--jobs", "2"])
    assert code == 0
    assert out == golden(argv, fmt)


@pytest.mark.parametrize("argv,fmt", FANNED_OUT)
def test_batches_never_reparse(monkeypatch, argv, fmt):
    # a batch item crosses as the value it was built as, never as text
    def refuse(*args, **kwargs):
        raise AssertionError("batch item re-parsed")

    monkeypatch.setattr(dqw.cli, "parse_polynomial", refuse)
    monkeypatch.setattr(dqw.cli, "parse_graph", refuse)
    code, out = run(argv + ["--format", fmt, "--jobs", "1"])
    assert code == 0
    assert out == golden(argv, fmt)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identities", "--jobs", "2"],
        ["verify", "identities", "--seed", "1"],
        ["verify", "loops", "--algebra", "strictly_upper(4)", "--jobs", "2"],
    ],
    ids=slug,
)
def test_flags_without_effect_are_usage_errors(argv):
    code, out = run(argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_assemble_never_builds_the_product(monkeypatch, fmt):
    # the audit reads the prime-type table and the loop check, not the product
    def refuse(*args, **kwargs):
        raise AssertionError("assemble built the product or re-parsed a graph")

    monkeypatch.setattr(dqw.cli, "assemble_linear_star", refuse)
    monkeypatch.setattr(dqw.cli, "parse_graph", refuse)
    argv = ["assemble", "--algebra", "heisenberg", "--order", "4"]
    code, out = run(argv + ["--format", fmt])
    assert code == 0
    assert out == golden(argv, fmt)
