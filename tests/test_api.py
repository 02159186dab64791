"""Every public name the library defines has a caller outside the tests.

A public module-level function or class, and a public method, classmethod
or property of a class, must be referenced by name somewhere in ``src/``
or ``perfbench/`` outside its own definition.  The match is by name only,
so a method that shares its name with an attribute used elsewhere passes
unseen.  Dunders, the commands that ``cli._command`` registers, and the
names on ``DOCUMENTED`` are exempt.

The other way round, every name that ``perfbench/`` reads off a library
module must exist, so a removal the benchmark depends on fails here, in a
fast test, rather than only in the benchmark's own self-test.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quiverstab"

# name: why it needs no caller
DOCUMENTED = {
    "points.vanishing_pattern": "the README lists it among the action's invariants",
    "helix.check_prop41_degrees": "the README lists it as the spiral degree check",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _registered_command(node: ast.AST) -> bool:
    """True for a function under ``@_command(...)``: argparse calls it."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_command"
        for d in getattr(node, "decorator_list", ())
    )


def definitions() -> dict[str, ast.AST]:
    """``module.name`` or ``module.Class.name`` -> its definition node."""
    defs = {}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, kinds) or not _public(node.name) or _registered_command(node):
                continue
            defs[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds) and _public(member.name):
                        defs[f"{module}.{node.name}.{member.name}"] = member
    return defs


def _references(tree: ast.AST) -> Counter:
    """How often each name is loaded, or looked up as an attribute, in ``tree``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def uncalled() -> list[str]:
    """The public names referenced nowhere but inside their own definitions."""
    total = Counter()
    for root in (PACKAGE, ROOT / "perfbench"):
        for path in sorted(root.glob("*.py")):
            total += _references(ast.parse(path.read_text()))
    out = []
    for qualified, node in definitions().items():
        name = qualified.rsplit(".", 1)[1]
        if total[name] == _references(node)[name]:
            out.append(qualified)
    return out


def test_every_public_name_has_a_caller():
    assert sorted(set(uncalled()) - set(DOCUMENTED)) == []


def test_documented_names_are_defined_and_uncalled():
    assert set(DOCUMENTED) <= set(uncalled())


def perfbench_reads() -> dict[str, set[str]]:
    """Module -> the dotted names that ``perfbench/`` reads off it through
    ``from quiverstab import <module> as <alias>``, e.g. ``get_entry.cache_clear``."""
    reads: dict[str, set[str]] = {}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "quiverstab" and not node.level
            for alias in node.names
        }
        for node in ast.walk(tree):
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if chain and isinstance(base, ast.Name) and base.id in modules:
                reads.setdefault(modules[base.id], set()).add(".".join(reversed(chain)))
    return reads


def _resolves(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_perfbench_reads_only_names_the_library_defines():
    reads = perfbench_reads()
    assert "get_entry.cache_clear" in reads["catalog"]
    assert {"subrep_supports", "supports_from_generators"} <= reads["stability"]
    missing = [
        f"{module}.{dotted}"
        for module, names in sorted(reads.items())
        for dotted in sorted(names)
        if not _resolves(importlib.import_module(f"quiverstab.{module}"), dotted)
    ]
    assert missing == []
