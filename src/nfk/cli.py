"""The nfk command line.

Every subcommand reads a field from a JSON spec file and prints to
stdout.  Exit codes: 0 on success, 1 when identity-check finds a
mismatch, 2 for usage problems (argparse errors, bad spec files, an --ell
that is not prime or that the field cannot support, an --ell other than 2
on count-check or identity-check, which check ell = 2 statements and read
no ell from the spec), 3 when a computation hits a search ceiling
(NFK_CEILING / --ceiling raise them).
"""

import argparse
import json
import sys
from fractions import Fraction

from .class_unit import compute_class_group, compute_unit_group
from .config import Ceilings
from .density import density_report, identity_check
from .errors import CeilingError, NfkError
from .exact_math import frac_str
from .harness import (
    _csv_bytes,
    _table_bytes,
    count_check_json_dict,
    ideal_label,
    load_field_spec,
    report_serialize,
    run_count_asymptotic_check,
    run_equidistribution_experiment,
)
from .kummer import enumerate_extensions, record_json_dict


def _poly_str(coeffs) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            base = "x" if i == 1 else f"x^{i}"
            term = base if abs(c) == 1 else f"{abs(c)}{base}"
        terms.append(("- " if c < 0 else "+ ") + term)
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _emit(data: bytes) -> None:
    sys.stdout.write(data.decode("utf-8"))


def _kv_table(pairs) -> bytes:
    width = max(len(k) for k, _ in pairs)
    return ("\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs) + "\n").encode()


# -- subcommand bodies -------------------------------------------------------


def _cmd_field(args, K, ell, ceilings) -> int:
    cg = compute_class_group(K, ceilings)
    ug = cg.units
    info = {
        "label": K.label,
        "poly": _poly_str(list(K.poly.coeffs)),
        "degree": K.degree,
        "signature": [K.r1, K.r2],
        "disc": K.disc,
        "minkowski_bound": float(K.minkowski_bound()),
        "h": cg.h,
        "class_group": cg.group.divisor_chain(),
        "w": ug.w,
        "fundamental_units": [list(u.int_coords()) for u in ug.fundamental],
        "regulator": float(ug.regulator),
    }
    if args.format == "json":
        _emit((json.dumps(info, indent=2) + "\n").encode())
    else:
        divisors = info["class_group"]
        group_str = " x ".join(f"Z/{d}" for d in divisors) if divisors else "trivial"
        pairs = [
            ("field", info["label"]),
            ("poly", info["poly"]),
            ("degree", str(info["degree"])),
            ("signature", f"({K.r1}, {K.r2})"),
            ("disc", str(info["disc"])),
            ("minkowski", f"{info['minkowski_bound']:.6f}"),
            ("h", str(info["h"])),
            ("class group", group_str),
            ("w", str(info["w"])),
            ("units", str(info["fundamental_units"])),
            ("regulator", f"{info['regulator']:.12f}"),
        ]
        _emit(_kv_table(pairs))
    return 0


def _cmd_classgroup(args, K, ell, ceilings) -> int:
    cg = compute_class_group(K, ceilings)
    reps = [ideal_label(rep) for rep in cg.reps]
    if args.format == "json":
        data = {"h": cg.h, "divisors": cg.group.divisor_chain(), "representatives": reps}
        _emit((json.dumps(data, indent=2) + "\n").encode())
    else:
        pairs = [("h", str(cg.h)), ("divisors", str(cg.group.divisor_chain()))]
        pairs += [(f"class {i}", rep) for i, rep in enumerate(reps)]
        _emit(_kv_table(pairs))
    return 0


def _cmd_units(args, K, ell, ceilings) -> int:
    ug = compute_unit_group(K, ceilings)
    data = {
        "w": ug.w,
        "zeta": list(ug.zeta.int_coords()),
        "rank": ug.rank,
        "fundamental": [list(u.int_coords()) for u in ug.fundamental],
        "regulator": float(ug.regulator),
    }
    if args.format == "json":
        _emit((json.dumps(data, indent=2) + "\n").encode())
    else:
        pairs = [(k, str(v)) for k, v in data.items()]
        _emit(_kv_table(pairs))
    return 0


def _cmd_rho(args, K, ell, ceilings) -> int:
    _emit(report_serialize(density_report(K, ell, ceilings), args.format))
    return 0


def _cmd_enumerate(args, K, ell, ceilings) -> int:
    cg = compute_class_group(K, ceilings)
    records = enumerate_extensions(K, ell, args.bound, ceilings=ceilings)
    if args.format == "json":
        for rec in records:
            _emit((json.dumps(record_json_dict(rec, cg)) + "\n").encode())
    else:
        rows = [
            [rec.disc_norm, list(rec.datum.gamma.int_coords()), rec.steinitz]
            for rec in records
        ]
        header = ["disc_norm", "gamma", "steinitz"]
        if args.format == "csv":
            _emit(_csv_bytes(header, [[dn, f'"{g}"', st] for dn, g, st in rows]))
        else:
            title = f"{len(records)} extensions of {K.label} with N(disc) <= {args.bound}"
            _emit(_table_bytes(header, rows, title))
    return 0


def _cmd_steinitz(args, K, ell, ceilings) -> int:
    report = run_equidistribution_experiment(K, ell, args.bound, ceilings)
    total = report.total
    fracs = report.class_fractions()
    rows = [[c, n, frac_str(fracs[c])] for c, n in report.class_tallies]
    if args.format == "json":
        data = {
            "field": K.label,
            "ell": ell,
            "X": args.bound,
            "total": total,
            "classes": [{"class": c, "count": n, "fraction": f} for c, n, f in rows],
        }
        _emit((json.dumps(data, indent=2) + "\n").encode())
    elif args.format == "csv":
        _emit(_csv_bytes(["class", "count", "fraction"], rows))
    else:
        title = f"Steinitz classes over {K.label}, X={args.bound}: {total} extensions"
        _emit(_table_bytes(["class", "count", "fraction"], rows, title))
    return 0


def _cmd_experiment(args, K, ell, ceilings) -> int:
    report = run_equidistribution_experiment(K, ell, args.bound, ceilings)
    _emit(report_serialize(report, args.format))
    return 0


def _cmd_identity_check(args, K, ell, ceilings) -> int:
    got = identity_check(K, ceilings)
    want = Fraction(1, 2**K.r2)
    if args.format == "json":
        data = {"identity": frac_str(got), "expected": frac_str(want), "match": got == want}
        _emit((json.dumps(data, indent=2) + "\n").encode())
    else:
        _emit(_kv_table([
            ("identity", frac_str(got)),
            ("expected", frac_str(want)),
            ("match", str(got == want)),
        ]))
    return 0 if got == want else 1


def _cmd_count_check(args, K, ell, ceilings) -> int:
    check = run_count_asymptotic_check(K, args.bound, ceilings)
    data = count_check_json_dict(check)
    if args.format == "json":
        _emit((json.dumps(data, indent=2) + "\n").encode())
    else:
        _emit(_kv_table([(k, str(v)) for k, v in data.items()]))
    return 0


# -- parser ------------------------------------------------------------------


_COMMANDS = {
    "field": (_cmd_field, False),
    "classgroup": (_cmd_classgroup, False),
    "units": (_cmd_units, False),
    "rho": (_cmd_rho, False),
    "enumerate": (_cmd_enumerate, True),
    "steinitz": (_cmd_steinitz, True),
    "experiment": (_cmd_experiment, True),
    "identity-check": (_cmd_identity_check, False),
    "count-check": (_cmd_count_check, True),
}


def _bound(text: str) -> int:
    """--bound as an int of at least 1 (argparse turns errors into exit 2)."""
    bound = int(text)
    if bound < 1:
        raise argparse.ArgumentTypeError(f"bound must be at least 1, got {bound}")
    return bound


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfk", description="Kummer extension enumeration and Steinitz statistics"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, needs_bound) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.set_defaults(func=func)
        sp.add_argument("--spec", required=True, metavar="FILE", help="field spec JSON")
        sp.add_argument("--ell", type=int, default=None, help="prime degree (default: spec file)")
        sp.add_argument("--format", choices=["json", "csv", "table"], default="table")
        sp.add_argument("--ceiling", type=int, default=None, help="override all search ceilings")
        if needs_bound:
            sp.add_argument("--bound", type=_bound, required=True, metavar="N")
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors via exit 2
        return exc.code if isinstance(exc.code, int) else 2
    if args.command in ("count-check", "identity-check") and args.ell not in (None, 2):
        print(f"error: {args.command} checks ell = 2 only, not --ell {args.ell}", file=sys.stderr)
        return 2

    try:
        ceilings = Ceilings.from_env(args.ceiling)
        K = load_field_spec(args.spec)
        ell = args.ell if args.ell is not None else K.ell
        if K.contains_zeta(ell) is None:
            print(
                f"error: {K.label} has no primitive {ell}-th root of unity",
                file=sys.stderr,
            )
            return 2
        return args.func(args, K, ell, ceilings)
    except CeilingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NfkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
