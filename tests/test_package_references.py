"""Every top-level function and class in src/nfk has a caller in the package.

An AST scan of the package: a definition counts as used when a name or an
attribute spelled like it appears anywhere in the package outside its own
body.  The exceptions are the public API (nfk.__all__), the names that
perfbench/tracer.py wraps as spans (it resolves them by name), and the
acceptance criteria's entry points below, which check a lemma of the paper
rather than serve a production path.  Code that only the tests reach
belongs in tests/oracles.py.
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
    """(module, top-level name) of every tracer span, read from the literal."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return {tuple(name.split(".")[:2]) for name in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py defines no SPANS")


def _unreferenced() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    users: dict[str, set[tuple[str, str | None]]] = {}
    defs = []
    for module, tree in trees.items():
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = top.name
                defs.append((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    users.setdefault(node.id, set()).add((module, owner))
                elif isinstance(node, ast.Attribute):
                    users.setdefault(node.attr, set()).add((module, owner))
    exempt = set(nfk.__all__) | ACCEPTANCE_ENTRY_POINTS
    spans = _span_names()
    return [
        f"{module}.{name}"
        for module, name in defs
        if not users.get(name, set()) - {(module, name)}
        and name not in exempt
        and (module, name) not in spans
    ]


def test_every_package_definition_has_a_caller():
    found = _unreferenced()
    assert not found, f"no caller in src/nfk: {found}"
