"""The benchmark's workloads still find every nfk name they use.

perfbench/workloads.py is read as text and parsed, never imported (nothing
is imported from or written under perfbench/), so a rename in nfk fails
here and not only in the benchmark run: every nfk.X the workloads read off
the package, every name their `from nfk.... import` lines bring in, and
every keyword they pass to one of those functions must still resolve.
"""

import ast
import importlib
import inspect
from pathlib import Path

import nfk

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _nfk_uses():
    """(tree, {local name: (module, name)} of the nfk imports, {X of nfk.X})."""
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    imported, attrs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nfk":
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "nfk"
        ):
            attrs.add(node.attr)
    return tree, imported, attrs


def _resolve(func, imported):
    """The nfk function a call node names, or None for any other call."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return getattr(nfk, func.attr) if func.value.id == "nfk" else None
    if isinstance(func, ast.Name) and func.id in imported:
        module, name = imported[func.id]
        return getattr(importlib.import_module(module), name)
    return None


def test_every_workload_name_resolves():
    _, imported, attrs = _nfk_uses()
    assert attrs and imported  # the parse found the workloads' calls
    for attr in sorted(attrs):
        assert callable(getattr(nfk, attr, None)), f"nfk.{attr}"
    for module, name in sorted(imported.values()):
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_every_workload_keyword_is_a_parameter():
    tree, imported, _ = _nfk_uses()
    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = _resolve(node.func, imported)
        if fn is None:
            continue
        params = inspect.signature(fn).parameters
        for kw in node.keywords:
            assert kw.arg in params, (fn.__qualname__, kw.arg)
            checked += 1
    assert checked
