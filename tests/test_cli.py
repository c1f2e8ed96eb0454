"""Output formats of the nfk command line and of harness.render."""

import csv
import io
import json
from pathlib import Path

import pytest

from nfk.cli import cli_main
from nfk.harness import render

SPECS = Path(__file__).resolve().parent.parent / "fieldspecs"

COMMANDS = (
    "field", "classgroup", "units", "rho", "enumerate", "steinitz", "experiment",
    "identity-check", "count-check",
)
LISTINGS = ("field", "classgroup", "units", "identity-check", "count-check")


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_prints_its_format(command, fmt, capsys):
    bound = ["--bound", "300"] if command in ("enumerate", "steinitz", "experiment", "count-check") else []
    assert cli_main([command, "--spec", str(SPECS / "qm5.json"), "--format", fmt, *bound]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    if fmt == "json":
        lines = out.splitlines() if command == "enumerate" else [out]
        assert all(json.loads(line) for line in lines)
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)
        if command in LISTINGS:
            assert header == ["key", "value"]
    else:
        assert len(out.splitlines()) >= 3


def test_listing_csv_quotes_values(capsys):
    assert cli_main(["field", "--spec", str(SPECS / "qm5.json"), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["key,value", "field,Q(sqrt(-5))"]
    assert 'signature,"(0, 1)"' in lines and "units,[]" in lines


def test_render_csv_quoting():
    rows = [["a", 'say "hi", then go'], ["b", [1, 2]], ["c", [5]], ["d", ""]]
    assert render("csv", None, ["key", "value"], rows) == (
        b'key,value\na,"say ""hi"", then go"\nb,"[1, 2]"\nc,"[5]"\nd,\n'
    )


def test_render_table_with_and_without_title():
    rows = [["h", 2], ["divisors", [2]]]
    assert render("table", None, ["key", "value"], rows) == b"h         2\ndivisors  [2]\n"
    assert render("table", None, ["key", "value"], rows, "T") == (
        b"T\nkey       value\n--------  -----\nh         2\ndivisors  [2]\n"
    )
    assert render("table", None, ["Q_norm", "fraction"], [], "empty") == (
        b"empty\nQ_norm  fraction\n------  --------\n"
    )

