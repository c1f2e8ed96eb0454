"""Experiment drivers over the full enumeration machinery.

run_equidistribution_experiment streams every quadratic (or degree-ell)
Kummer extension with discriminant norm up to X and tallies Steinitz
classes, both globally and per wild-part row, checking the partition
identities exactly along the way.  run_count_asymptotic_check compares
the raw count against the analytic leading term in two algebraically
equal forms.  render is the one writer of every nfk report (JSON, csv or
an aligned table); report_serialize feeds it a DensityReport or an
ExperimentReport.  Counts and fractions are exact strings, and
wall-clock metadata never enters the output.
"""

import json
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path

from .class_unit import compute_class_group
from .config import Ceilings
from .density import (
    DensityReport,
    density_report_json_dict,
    enumerate_R,
    identity_check,
    zeta_constants,
)
from .exact_math import frac_str
from .ideals import FactoredIdeal
from .kummer import iter_extensions, realizable_class_subgroup
from .number_field import NumberField, build_field


def load_field_spec(path) -> NumberField:
    """Field from a JSON spec {"poly": [c0,...,1], "ell": 2, "label": "..."}.

    Coefficients ascending, monic; "ell" defaults to 2 and "label" to the
    file stem.  "poly" must be a nonempty list of JSON integers, "ell" a
    JSON integer (bools and floats raise ValueError) and "label" a JSON
    string.  Validation (irreducibility, monogenicity, zeta_ell) is the
    same as for directly constructed fields.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "poly" not in data:
        raise KeyError(f"{path}: field spec needs a 'poly' entry")
    poly, ell = data["poly"], data.get("ell", 2)
    if not isinstance(poly, list) or not poly or any(type(c) is not int for c in poly):
        raise ValueError(f"{path}: 'poly' must be a nonempty list of integers")
    if type(ell) is not int:
        raise ValueError(f"{path}: 'ell' must be an integer")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"{path}: 'label' must be a string")
    return build_field(poly, ell=ell, label=label or Path(path).stem)


def ideal_label(fa: FactoredIdeal) -> str:
    """Factored string form, e.g. "q[2,3,1]^2*q[3,1,1]"; "(1)" for the unit."""
    if fa.is_unit_ideal():
        return "(1)"
    parts = []
    for q, e in sorted(fa.exps.items()):
        parts.append(f"q[{q.label()}]" + (f"^{e}" if e != 1 else ""))
    return "*".join(parts)


# ---------------------------------------------------------------------------
# equidistribution experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    """Steinitz tallies of E(X), partitioned by wild part and by class.

    cell_tallies covers the full R x realizable grid, zeros included, so
    the row/column picture always has the same shape for a given field.
    The two partition identities (class marginals of the cells equal the
    class tallies; both sum to the total) are verified exactly before an
    instance is built.
    """

    field_label: str
    ell: int
    X: int
    total: int
    realizable: tuple[int, ...]
    class_tallies: tuple[tuple[int, int], ...]  # (class, count)
    row_totals: tuple[tuple[str, int, int], ...]  # (Q label, Q norm, count)
    cell_tallies: tuple[tuple[str, int, int, int], ...]  # (Q label, Q norm, class, count)
    max_class_deviation: float  # vs 1/#realizable
    max_row_deviation: float  # row fractions vs global class fractions
    elapsed_seconds: float = dc_field(compare=False)

    def class_fractions(self) -> dict[int, Fraction]:
        if self.total == 0:
            return {c: Fraction(0) for c, _ in self.class_tallies}
        return {c: Fraction(n, self.total) for c, n in self.class_tallies}


def run_equidistribution_experiment(
    K: NumberField,
    ell: int,
    X: int,
    ceilings: Ceilings | None = None,
) -> ExperimentReport:
    """Tally Steinitz classes of all degree-ell extensions with N(disc) <= X.

    One pass over the deterministic stream of iter_extensions (disc order,
    orbit dedup) counts every (ell-part row, Steinitz class) cell; the
    class and row marginals are then taken from those cells.  `nfk
    steinitz` prints the class tallies of this report.
    """
    t0 = time.perf_counter()
    cg = compute_class_group(K, ceilings)
    realizable = tuple(sorted(realizable_class_subgroup(cg, ell)))
    allowed = set(realizable)
    table = enumerate_R(K, ell)
    row_key = {fa: (ideal_label(fa), int(fa.norm())) for fa in table}

    def keys():
        for rec in iter_extensions(K, ell, X, order_by="disc", dedup=True, ceilings=ceilings):
            if rec.ell_part not in row_key:
                raise ArithmeticError(
                    f"discriminant ell-part {rec.ell_part!r} falls outside the table R"
                )
            if rec.steinitz not in allowed:
                raise ArithmeticError(
                    f"Steinitz class {rec.steinitz} outside the realizable subgroup"
                )
            yield row_key[rec.ell_part] + (rec.steinitz,)

    cells = Counter(keys())
    by_class: Counter = Counter()
    by_row: Counter = Counter()
    for (label, norm, cls), n in cells.items():
        by_class[cls] += n
        by_row[label, norm] += n
    total = sum(cells.values())
    # Partition identities, exactly: cells -> class marginals -> total.
    if sum(by_class.values()) != total or sum(by_row.values()) != total:
        raise ArithmeticError("tally marginals disagree with the total")

    rows = sorted(row_key.values())
    class_tallies = tuple((c, by_class.get(c, 0)) for c in realizable)
    row_totals = tuple((lbl, nrm, by_row.get((lbl, nrm), 0)) for lbl, nrm in rows)
    cell_tallies = tuple(
        (lbl, nrm, c, cells.get((lbl, nrm, c), 0)) for lbl, nrm in rows for c in realizable
    )

    expected = Fraction(1, len(realizable))
    if total:
        global_frac = {c: Fraction(n, total) for c, n in class_tallies}
        class_dev = max(abs(f - expected) for f in global_frac.values())
        row_dev = Fraction(0)
        for lbl, nrm, row_n in row_totals:
            if row_n == 0:
                continue
            for c in realizable:
                cell = cells.get((lbl, nrm, c), 0)
                row_dev = max(row_dev, abs(Fraction(cell, row_n) - global_frac[c]))
    else:
        class_dev = row_dev = Fraction(0)

    return ExperimentReport(
        field_label=K.label,
        ell=ell,
        X=X,
        total=total,
        realizable=realizable,
        class_tallies=class_tallies,
        row_totals=row_totals,
        cell_tallies=cell_tallies,
        max_class_deviation=float(class_dev),
        max_row_deviation=float(row_dev),
        elapsed_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# count asymptotics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountCheck:
    """#E(X) against the analytic leading term, in both written forms.

    eq8_constant is Res zeta_K / (2^r2 zeta_K(2)); product_constant is
    Res zeta_K / zeta_K(2) times the exact combinatorial bracket from
    identity_check.  The two agree (up to the float cast of the bracket)
    exactly when the bracket equals 1/2^r2.
    """

    field_label: str
    X: int
    count: int
    eq8_constant: float
    product_constant: float
    ratio_eq8: float
    ratio_product: float
    identity: Fraction
    identity_expected: Fraction
    elapsed_seconds: float = dc_field(compare=False)


def run_count_asymptotic_check(
    K: NumberField,
    X: int,
    ceilings: Ceilings | None = None,
    prime_bound: int = 10**5,
) -> CountCheck:
    t0 = time.perf_counter()
    count = sum(1 for _ in iter_extensions(K, 2, X, order_by="disc", ceilings=ceilings))
    zc = zeta_constants(K, ell=2, prime_bound=prime_bound, ceilings=ceilings)
    bracket = identity_check(K, ceilings)
    eq8 = zc.residue / (2**K.r2 * zc.zeta_at_2)
    product = zc.residue / zc.zeta_at_2 * float(bracket)
    density = count / X if X else 0.0
    return CountCheck(
        field_label=K.label,
        X=X,
        count=count,
        eq8_constant=eq8,
        product_constant=product,
        ratio_eq8=density / eq8,
        ratio_product=density / product,
        identity=bracket,
        identity_expected=Fraction(1, 2**K.r2),
        elapsed_seconds=time.perf_counter() - t0,
    )


def count_check_json_dict(check: CountCheck) -> dict:
    return {
        "field": check.field_label,
        "X": check.X,
        "count": check.count,
        "eq8_constant": check.eq8_constant,
        "product_constant": check.product_constant,
        "ratio_eq8": check.ratio_eq8,
        "ratio_product": check.ratio_product,
        "identity": frac_str(check.identity),
        "identity_expected": frac_str(check.identity_expected),
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def experiment_json_dict(r: ExperimentReport) -> dict:
    """The JSON view of an experiment report; its "classes" block is what
    `nfk steinitz` prints."""
    fractions = r.class_fractions()
    classes = [
        {"class": c, "count": n, "fraction": frac_str(fractions[c])}
        for c, n in r.class_tallies
    ]
    rows = []
    for lbl, nrm, n in r.row_totals:
        cells = [
            {
                "class": c,
                "count": k,
                "fraction": frac_str(Fraction(k, n)) if n else "0",
            }
            for l2, n2, c, k in r.cell_tallies
            if (l2, n2) == (lbl, nrm)
        ]
        rows.append({"Q": lbl, "Q_norm": nrm, "total": n, "cells": cells})
    return {
        "field": r.field_label,
        "ell": r.ell,
        "X": r.X,
        "total": r.total,
        "realizable": list(r.realizable),
        "classes": classes,
        "rows": rows,
        "max_class_deviation": r.max_class_deviation,
        "max_row_deviation": r.max_row_deviation,
    }


def _csv_cell(v) -> str:
    text = str(v)
    if isinstance(v, list) or "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def render(fmt: str, data, header: list[str], rows: list[list], title: str = "") -> bytes:
    """One report as bytes: `data` as indented JSON, or `rows` under
    `header` as csv or as an aligned table.

    csv quotes a value RFC-4180 style when it holds a comma or a double
    quote, and a list always, so a list column reads the same in every
    degree.  A table prints `title`, the header and a rule above its
    rows; with no title it prints the rows alone, as a key-value listing.
    """
    if fmt == "json":
        return (json.dumps(data, indent=2) + "\n").encode()
    if fmt == "csv":
        lines = [",".join(_csv_cell(v) for v in row) for row in [header, *rows]]
    elif fmt == "table":
        shown = [[str(v) for v in row] for row in ([header, *rows] if title else rows)]
        widths = [max(len(row[i]) for row in shown) for i in range(len(header))]
        lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in shown]
        if title:
            lines[:1] = [title, lines[0], "  ".join("-" * w for w in widths)]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return ("\n".join(lines) + "\n").encode()


def _density_rows(report: DensityReport) -> list[list]:
    return [[norm, "", "", frac_str(rho)] for _, norm, rho in report.rows]


def _experiment_rows(report: ExperimentReport) -> list[list]:
    row_n = {(lbl, nrm): n for lbl, nrm, n in report.row_totals}
    return [
        [nrm, c, k, frac_str(Fraction(k, row_n[lbl, nrm])) if row_n[lbl, nrm] else "0"]
        for lbl, nrm, c, k in report.cell_tallies
    ]


def report_serialize(report, fmt: str) -> bytes:
    """Deterministic bytes for a DensityReport or ExperimentReport.

    Formats: json (stable key order), csv (fixed columns Q_norm, class,
    count, fraction), table (aligned text); see render.  Counts and
    fractions are exact decimal/rational strings; elapsed time is
    deliberately absent, so equal tallies serialize to equal bytes.
    """
    if isinstance(report, DensityReport):
        to_json, to_rows = density_report_json_dict, _density_rows
        title = f"rho table for {report.field_label}, ell={report.ell}"
    elif isinstance(report, ExperimentReport):
        to_json, to_rows = experiment_json_dict, _experiment_rows
        title = (
            f"Steinitz tallies for {report.field_label}, ell={report.ell}, "
            f"X={report.X}: {report.total} extensions"
        )
    else:
        raise TypeError(f"cannot serialize {type(report).__name__}")
    if fmt == "json":
        return render(fmt, to_json(report), [], [])
    return render(fmt, None, ["Q_norm", "class", "count", "fraction"], to_rows(report), title)
