"""Experiment drivers, report serialization, and the nfk command line."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nfk.cli import cli_main
from nfk.density import density_report, density_report_json_dict
from nfk.harness import (
    ideal_label,
    load_field_spec,
    report_serialize,
    run_count_asymptotic_check,
    run_equidistribution_experiment,
)
from nfk.ideals import FactoredIdeal, split_prime

SPECS = Path(__file__).resolve().parent.parent / "fieldspecs"


# ---------------------------------------------------------------------------
# field spec files
# ---------------------------------------------------------------------------


def test_load_field_spec():
    K = load_field_spec(SPECS / "qi.json")
    assert K.label == "Q(i)" and K.degree == 2 and K.ell == 2
    Kz = load_field_spec(SPECS / "zeta3.json")
    assert Kz.ell == 3


def test_load_field_spec_requires_poly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ell": 2}')
    with pytest.raises(KeyError):
        load_field_spec(bad)


def test_load_field_spec_label_defaults_to_stem(tmp_path):
    spec = tmp_path / "gauss.json"
    spec.write_text('{"poly": [1, 0, 1]}')
    assert load_field_spec(spec).label == "gauss"


def test_ideal_label(field_qm5):
    assert ideal_label(FactoredIdeal(field_qm5, {})) == "(1)"
    (q,) = split_prime(field_qm5, 2)
    assert ideal_label(FactoredIdeal(field_qm5, {q: 2})) == "q[2,1,2]^2"
    assert ideal_label(FactoredIdeal(field_qm5, {q: 1})) == "q[2,1,2]"


# ---------------------------------------------------------------------------
# equidistribution experiment
# ---------------------------------------------------------------------------


def test_experiment_qm5(field_qm5):
    rep = run_equidistribution_experiment(field_qm5, 2, 2000)
    assert rep.total == 737
    assert rep.class_tallies == ((0, 369), (1, 368))
    assert rep.row_totals == (
        ("(1)", 1, 499),
        ("q[2,1,2]^2", 4, 122),
        ("q[2,1,2]^3", 8, 0),
        ("q[2,1,2]^4", 16, 60),
        ("q[2,1,2]^5", 32, 56),
    )
    assert rep.max_class_deviation < 0.05
    assert rep.max_row_deviation < 0.07


def test_experiment_partition_identities(field_qm5):
    # Eq-(5) bookkeeping: cell marginals rebuild both the class tallies
    # and the row totals, and everything sums to the total.
    rep = run_equidistribution_experiment(field_qm5, 2, 2000)
    for c, n in rep.class_tallies:
        assert n == sum(k for _, _, cls, k in rep.cell_tallies if cls == c)
    for lbl, nrm, n in rep.row_totals:
        assert n == sum(k for l2, n2, _, k in rep.cell_tallies if (l2, n2) == (lbl, nrm))
    assert sum(n for _, n in rep.class_tallies) == rep.total
    assert sum(n for _, _, n in rep.row_totals) == rep.total


def test_experiment_single_class_field(field_qi):
    # h = 1: the one class gets everything, deviation exactly zero.
    rep = run_equidistribution_experiment(field_qi, 2, 1000)
    assert rep.realizable == (0,)
    assert rep.class_tallies == ((0, 262),)
    assert rep.class_fractions() == {0: Fraction(1)}
    assert rep.max_class_deviation == 0.0


def test_experiment_row_fractions(field_qm5):
    rep = run_equidistribution_experiment(field_qm5, 2, 2000)
    assert rep.row_fractions("(1)") == {0: Fraction(251, 499), 1: Fraction(248, 499)}
    assert rep.row_fractions("q[2,1,2]^3") == {0: Fraction(0), 1: Fraction(0)}
    with pytest.raises(KeyError):
        rep.row_fractions("nope")


def test_experiment_empty(field_qm5):
    rep = run_equidistribution_experiment(field_qm5, 2, 0)
    assert rep.total == 0
    assert rep.class_tallies == ((0, 0), (1, 0))
    assert rep.max_class_deviation == 0.0
    skeleton = json.loads(report_serialize(rep, "json"))
    assert skeleton["total"] == 0 and skeleton["rows"][0]["cells"][0]["fraction"] == "0"


def test_experiment_deterministic_across_runs_and_jobs(field_qm5):
    a = run_equidistribution_experiment(field_qm5, 2, 2000)
    b = run_equidistribution_experiment(field_qm5, 2, 2000)
    assert a == b  # elapsed_seconds is excluded from comparison
    for fmt in ("json", "csv", "table"):
        assert report_serialize(a, fmt) == report_serialize(b, fmt)


# ---------------------------------------------------------------------------
# count asymptotics
# ---------------------------------------------------------------------------


def test_count_check_q(field_q):
    check = run_count_asymptotic_check(field_q, 20000)
    assert check.count == 12160
    assert abs(check.ratio_eq8 - 1) < 0.01
    assert check.identity == Fraction(1)
    assert check.identity_expected == Fraction(1)
    # r2 = 0: both written forms of the constant are literally the same.
    assert check.eq8_constant == check.product_constant


def test_count_check_qi(field_qi):
    check = run_count_asymptotic_check(field_qi, 5000)
    assert check.count == 1298
    assert abs(check.ratio_eq8 - 1) < 0.1
    assert check.identity == Fraction(1, 2) == check.identity_expected
    # The exact bracket equals 1/2^r2, so the Cor-4.2 product constant
    # agrees with the closed Eq-(8) constant to the last float bit.
    assert check.eq8_constant == check.product_constant


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_density_report_json_roundtrip(field_cubic9):
    rep = density_report(field_cubic9, 2)
    data = report_serialize(rep, "json")
    assert json.loads(data) == density_report_json_dict(rep)


def test_density_report_csv_bytes(field_q):
    rep = density_report(field_q, 2)
    assert report_serialize(rep, "csv") == (
        b"Q_norm,class,count,fraction\n1,,,1/4\n4,,,1/4\n8,,,1/2\n"
    )


def test_density_report_table(field_q):
    text = report_serialize(density_report(field_q, 2), "table").decode()
    assert "Q_norm" in text and "1/2" in text and "ell=2" in text


def test_experiment_csv_columns(field_qm5):
    rep = run_equidistribution_experiment(field_qm5, 2, 2000)
    lines = report_serialize(rep, "csv").decode().splitlines()
    assert lines[0] == "Q_norm,class,count,fraction"
    assert "4,0,62,31/61" in lines
    assert len(lines) == 1 + len(rep.cell_tallies)


def test_experiment_json_shape(field_qi):
    rep = run_equidistribution_experiment(field_qi, 2, 1000)
    data = json.loads(report_serialize(rep, "json"))
    assert data["field"] == "Q(i)" and data["total"] == 262
    assert data["classes"] == [{"class": 0, "count": 262, "fraction": "1"}]
    assert all(set(row) == {"Q", "Q_norm", "total", "cells"} for row in data["rows"])
    assert "elapsed" not in json.dumps(data)


def test_serialize_rejects_unknown(field_q):
    rep = density_report(field_q, 2)
    with pytest.raises(ValueError):
        report_serialize(rep, "yaml")
    with pytest.raises(TypeError):
        report_serialize({"not": "a report"}, "json")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_rho_json(capsys):
    code = cli_main(["rho", "--spec", str(SPECS / "cubic9.json"), "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"] == [
        {"Q_norm": "1", "rho": "1/16"},
        {"Q_norm": "64", "rho": "7/16"},
        {"Q_norm": "512", "rho": "1/2"},
    ]
    assert data["identity"] == "1/2" == data["identity_expected"]


def test_cli_field_info(capsys):
    code = cli_main(["field", "--spec", str(SPECS / "qi.json"), "--format", "json"])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["disc"] == -4 and info["h"] == 1
    assert info["signature"] == [0, 1] and info["w"] == 4
    assert info["class_group"] == []


def test_cli_units_table(capsys):
    assert cli_main(["units", "--spec", str(SPECS / "qs2.json")]) == 0
    out = capsys.readouterr().out
    assert "w" in out and "fundamental" in out and "regulator" in out


def test_cli_identity_check(capsys):
    assert cli_main(["identity-check", "--spec", str(SPECS / "qm5.json")]) == 0
    assert "1/2" in capsys.readouterr().out


def test_cli_enumerate_json(capsys):
    code = cli_main(
        ["enumerate", "--spec", str(SPECS / "q.json"), "--bound", "12", "--format", "json"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    first = json.loads(lines[0])
    assert first["gamma"] == [-3] and first["disc_norm"] == "3"


def test_cli_steinitz_csv(capsys):
    code = cli_main(
        ["steinitz", "--spec", str(SPECS / "qm5.json"), "--bound", "500", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "class,count,fraction"
    assert lines[1].startswith("0,101,") and lines[2].startswith("1,104,")


@pytest.mark.parametrize(
    ("spec", "ell", "bound"), [("qm5.json", 2, 2000), ("zeta3.json", 3, 10000)]
)
def test_cli_steinitz_matches_experiment(spec, ell, bound, capsys):
    report = run_equidistribution_experiment(load_field_spec(SPECS / spec), ell, bound)
    counts = dict(report.class_tallies)
    out = {}
    for fmt in ("json", "csv", "table"):
        args = ["steinitz", "--spec", str(SPECS / spec), "--bound", str(bound), "--format", fmt]
        assert cli_main(args) == 0
        out[fmt] = capsys.readouterr().out
    data = json.loads(out["json"])
    assert data["total"] == report.total
    assert {row["class"]: row["count"] for row in data["classes"]} == counts
    csv_rows = [line.split(",") for line in out["csv"].splitlines()[1:]]
    assert {int(c): int(n) for c, n, _ in csv_rows} == counts
    title, _header, _rule, *table_rows = out["table"].splitlines()
    assert title.endswith(f": {report.total} extensions")
    assert {int(r.split()[0]): int(r.split()[1]) for r in table_rows} == counts


_CLI_COMMANDS = (
    "field", "classgroup", "units", "rho", "enumerate", "steinitz", "experiment",
    "identity-check", "count-check",
)


@pytest.mark.parametrize("command", _CLI_COMMANDS)
def test_cli_exit_codes(command, capsys):
    bounded = command in ("enumerate", "steinitz", "experiment", "count-check")
    bound = ["--bound", "50"] if bounded else []
    qm5 = [command, "--spec", str(SPECS / "qm5.json"), *bound]
    assert cli_main(qm5) == 0
    assert cli_main([command, "--spec", "/no/such/file.json", *bound]) == 2
    assert cli_main([*qm5, "--jobs", "2"]) == 2  # no such flag
    # --ceiling never lowers unit_height below its default 4096, and every
    # shipped spec finds its units below that height, so units has no exit 3
    want = 0 if command == "units" else 3
    cubic9 = [command, "--spec", str(SPECS / "cubic9.json"), *bound]
    assert cli_main([*cubic9, "--ceiling", "1"]) == want
    capsys.readouterr()


def test_cli_usage_errors(capsys):
    assert cli_main(["bogus"]) == 2
    assert cli_main(["rho"]) == 2  # missing --spec
    assert cli_main(["experiment", "--spec", str(SPECS / "qm5.json")]) == 2  # no --bound
    assert cli_main(["rho", "--spec", "/no/such/file.json"]) == 2
    capsys.readouterr()


def test_cli_ell_without_zeta_is_usage_error(capsys):
    code = cli_main(["rho", "--spec", str(SPECS / "qi.json"), "--ell", "3"])
    assert code == 2
    assert "root of unity" in capsys.readouterr().err


def test_cli_ceiling_flag(capsys):
    code = cli_main(
        ["experiment", "--spec", str(SPECS / "qm5.json"), "--bound", "2000", "--ceiling", "10"]
    )
    assert code == 3
    assert "ceiling" in capsys.readouterr().err


def test_cli_ceiling_env(monkeypatch, capsys):
    monkeypatch.setenv("NFK_CEILING", "10")
    code = cli_main(["experiment", "--spec", str(SPECS / "qm5.json"), "--bound", "2000"])
    assert code == 3
    capsys.readouterr()


def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nfk", "identity-check", "--spec", str(SPECS / "qi.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "1/2" in proc.stdout
