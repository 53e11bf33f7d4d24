"""The README's examples run as written: the library block and each command."""

import pathlib
import re

import pytest

from supply_eq.cli import run

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _first_block(section, lang=""):
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


COMMANDS = [
    line.split()[1:]
    for line in _first_block("Command line").splitlines()
    if line.startswith("supply-eq ")
]


def test_readme_library_block_runs():
    scope = {}
    exec(_first_block("Library", "python"), scope)
    rep = scope["rep"]
    assert rep.eq_profit == 0.5
    # An equilibrium: the best deviation earns eq_profit up to rounding.
    assert abs(rep.best_response_gap) <= 1e-13 * 2


def test_readme_lists_every_subcommand():
    # Also fails if the block moves and the parse finds no commands to run.
    assert sorted(argv[0] for argv in COMMANDS) == sorted(
        ["nsw", "threshold", "profit", "eq", "verify", "nmf"]
    )


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_exits_zero(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rows = [f"u{u},i{i},{1 + (u * 7 + i * 3) % 5}" for u in range(12) for i in range(10)
            if (u + i) % 3]
    (tmp_path / "ratings.csv").write_text("user_id,item_id,rating\n" + "\n".join(rows) + "\n")
    assert run(argv) == 0
    assert capsys.readouterr().out
