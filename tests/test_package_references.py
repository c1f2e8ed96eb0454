"""Every top-level function and class in src/nfk, and every method of a
package class, has a caller in the package.

An AST scan of the package: a definition counts as used when a name or an
attribute spelled like it appears anywhere in the package outside its own
body (a method's own body, or a class's body with its methods).  Dunder
methods are left out: Python calls them.  The exceptions are the public
API (nfk.__all__), the names that perfbench/tracer.py wraps as spans (it
resolves them by name), and the acceptance criteria's entry points below,
which check a lemma of the paper rather than serve a production path.
Code that only the tests reach belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

import nfk

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nfk"
TRACER = ROOT / "perfbench" / "tracer.py"

ACCEPTANCE_ENTRY_POINTS = {
    "relative_discriminant",
    "verify_trace_determinant",
    "trace_form_discriminant",
    "product_distribution_check",
    "abelian_group_from_divisors",
}


def _span_names() -> set[tuple[str, str]]:
    """(module, qualified name) of every tracer span, read from the literal."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return {tuple(name.split(".", 1)) for name in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py defines no SPANS")


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unreferenced() -> list[str]:
    users: dict[str, set[tuple[str, str | None]]] = {}
    defs = []

    def scan(node, module, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, _DEFS):
                inner = child.name
            elif (
                isinstance(node, ast.ClassDef)
                and owner == node.name
                and isinstance(child, _FUNCS)
                and not (child.name.startswith("__") and child.name.endswith("__"))
            ):
                inner = f"{owner}.{child.name}"
            if inner != owner:
                defs.append((module, inner))
            if isinstance(child, ast.Name):
                users.setdefault(child.id, set()).add((module, owner))
            elif isinstance(child, ast.Attribute):
                users.setdefault(child.attr, set()).add((module, owner))
            scan(child, module, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        scan(ast.parse(path.read_text()), path.stem, None)

    def inside(module, qual, use):
        m, owner = use
        return m == module and owner is not None and (owner + ".").startswith(qual + ".")

    exempt = set(nfk.__all__) | ACCEPTANCE_ENTRY_POINTS
    spans = _span_names()
    return [
        f"{module}.{qual}"
        for module, qual in defs
        if all(inside(module, qual, use) for use in users.get(qual.rsplit(".", 1)[-1], ()))
        and qual not in exempt
        and (module, qual) not in spans
    ]


def test_every_package_definition_has_a_caller():
    found = _unreferenced()
    assert not found, f"no caller in src/nfk: {found}"
