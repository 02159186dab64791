"""Exact-arithmetic toolkit for quivers of line bundles: King stability,
good/great character certificates, torus-invariant cycle functions, and
spiral/helix quiver extensions, with built-in toric example data.

Importing the package loads none of its modules: each exported name, and
each module as ``quiverstab.<module>``, is imported on first use (PEP 562),
so a command-line process pays only for the modules its command runs.
"""

import importlib

_EXPORTS = {
    "quiver": (
        "Arrow",
        "GradingCertificate",
        "Path",
        "Quiver",
        "QuiverError",
        "Relation",
        "arrow_degree",
        "derive_binomial_relations",
        "fiber_relations",
        "grading_certificate",
        "path_fibers",
        "quiver_from_json",
        "quiver_to_json",
    ),
    "points": (
        "PointError",
        "RepresentationPoint",
        "TorusElement",
        "evaluate_path",
        "point_from_json",
        "point_to_json",
        "satisfies_relations",
        "torus_act",
        "vanishing_pattern",
    ),
    "stability": (
        "Character",
        "EnumerationCapError",
        "GoodCertificate",
        "GreatCertificate",
        "StabilityCone",
        "SupportFamily",
        "WeightMatrix",
        "certify_good",
        "certify_great",
        "character_from_weights",
        "stability_cone",
        "stability_report",
        "subrep_supports",
        "supports_from_generators",
    ),
    "invariants": (
        "CycleMonomial",
        "SeparationReport",
        "enumerate_cycles",
        "evaluate_invariant",
        "invariant_vector",
        "separation_experiment",
    ),
    "helix": (
        "check_prop41_degrees",
        "e_chi_degree",
        "extend_spiral",
        "theorem43_character",
    ),
    "catalog": (
        "CatalogEntry",
        "IrrelevantLocusError",
        "UnknownEntryError",
        "entry_names",
        "get_entry",
        "tautological_point",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
