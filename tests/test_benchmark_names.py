"""The benchmark reads library functions by module attribute name.

perfbench/ is not part of the package, so nothing else in these tests would
notice a change that renames or deletes a name its workloads or self-test
call: the benchmark would only fail when it runs.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def imported(module: str, name: str):
    """What `from module import name` binds, a submodule included."""
    parent = importlib.import_module(module)
    if not hasattr(parent, name):
        importlib.import_module(f"{module}.{name}")
    return getattr(parent, name)


def resolves(target, attrs: list[str]) -> bool:
    for attr in attrs:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def qobdd_chains(path: Path) -> dict[str, bool]:
    """Every dotted attribute chain the file reads from a name it imports
    from qobdd, and whether it still resolves in the library."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    roots = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qobdd"
        for alias in node.names
    }
    chains = {}
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in roots:
            chains[".".join([node.id, *attrs])] = resolves(imported(*roots[node.id]), attrs)
    return chains


def test_every_library_name_the_benchmark_reads_still_resolves():
    chains = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        chains.update(qobdd_chains(path))
    assert {
        "verification.certify_single",
        "verification.certify_hsf",
        "hsf.FiniteGroup.cyclic",
        "hsf.compile_hsf",
        "goodsets.sample",
        "compiler.compile_single",
        "cli.main",
    } <= set(chains)
    assert [chain for chain, found in chains.items() if not found] == []
