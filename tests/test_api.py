"""Every public name the library defines has a caller outside the tests.

A public module-level function or class, and a public method, classmethod
or property of a class, must be referenced by name somewhere in ``src/``
or ``perfbench/`` outside its own definition.  The match is by name only,
so a method that shares its name with an attribute used elsewhere passes
unseen.  Dunders, the commands that ``cli._command`` registers, and the
names on ``DOCUMENTED`` are exempt.

The other way round, every name that ``perfbench/`` reads off a library
module must exist, so a removal the benchmark depends on fails here, in a
fast test, rather than only in the benchmark's own self-test.  And every
name an annotation uses must be bound at module level, if only under
``if TYPE_CHECKING:``, so that a reader or a type checker can resolve it.

No module imports an underscore name from a sibling module, or reads one
off a sibling module it imports, except the names on ``PRIVATE_IMPORTS``:
a private name stays the business of the module that defines it.  And no
module reads or sets the environment.
"""

import ast
import builtins
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


def _module_bindings(tree: ast.Module) -> set[str]:
    """The names a module binds at top level, inside ``if`` blocks too."""
    bound = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.If):
            stack += node.body + node.orelse
    return bound


def _annotations(tree: ast.Module):
    """``(where, annotation)`` for every annotation in a module: arguments
    and returns of functions at any depth, and annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield node.name, arg.annotation
            if node.returns is not None:
                yield node.name, node.returns
        elif isinstance(node, ast.AnnAssign):
            yield f"line {node.lineno}", node.annotation


def unbound_annotation_names() -> list[str]:
    """``module.where: name`` for each annotation name its module never binds."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = _module_bindings(tree) | set(dir(builtins))
        for where, annotation in _annotations(tree):
            for node in ast.walk(annotation):
                if isinstance(node, ast.Name) and node.id not in bound:
                    out.add(f"{path.stem}.{where}: {node.id}")
    return sorted(out)


def test_annotations_name_only_bound_names():
    assert unbound_annotation_names() == []


# (importing module, "module.name") -> why it may import a private name
PRIVATE_IMPORTS = {
    ("stability", "quiver._reachable"): (
        "one closure routine serves the quiver's reach and the support family"
    ),
    ("invariants", "catalog._monomial_value"): (
        "the one evaluation of a tautological monomial serves points and cycle values"
    ),
}


def private_imports() -> list[tuple[str, str]]:
    """``(module, "sibling.name")`` for each underscore name a package module
    imports from a sibling, or reads as ``alias._name`` off a sibling bound
    by ``from . import sibling [as alias]``, at any depth."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = {}  # alias -> the sibling module it binds
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if (node.level, node.module) in ((1, None), (0, "quiverstab")):
                siblings.update((a.asname or a.name, a.name) for a in node.names)
                continue
            if node.level == 1:
                sibling = node.module
            elif (node.module or "").startswith("quiverstab."):
                sibling = node.module.removeprefix("quiverstab.")
            else:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    out.add((path.stem, f"{sibling}.{alias.name}"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
            ):
                out.add((path.stem, f"{siblings[node.value.id]}.{node.attr}"))
    return sorted(out)


def test_no_module_imports_a_private_name_from_a_sibling():
    assert private_imports() == sorted(PRIVATE_IMPORTS)


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_reads() -> list[str]:
    """``module:line`` for each use of ``os``'s environment functions in the
    package, as ``os.name`` or imported by ``from os import name``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used = node.value.id == "os" and node.attr in ENVIRONMENT_NAMES
            elif isinstance(node, ast.ImportFrom):
                used = node.module == "os" and any(a.name in ENVIRONMENT_NAMES for a in node.names)
            else:
                continue
            if used:
                out.append(f"{path.stem}:{node.lineno}")
    return out


def test_no_module_reads_the_environment():
    """A command's inputs are its arguments and files."""
    assert environment_reads() == []
