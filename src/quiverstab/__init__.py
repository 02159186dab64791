"""Exact-arithmetic toolkit for quivers of line bundles: King stability,
good/great character certificates, torus-invariant cycle functions, and
spiral/helix quiver extensions, with built-in toric example data."""

from .quiver import (
    Arrow,
    GradingCertificate,
    Path,
    Quiver,
    QuiverError,
    Relation,
    arrow_degree,
    derive_binomial_relations,
    enumerate_paths,
    fiber_relations,
    grading_certificate,
    path_fibers,
    quiver_from_json,
    quiver_to_json,
)
from .points import (
    PointError,
    RepresentationPoint,
    TorusElement,
    evaluate_path,
    point_from_json,
    point_to_json,
    satisfies_relations,
    torus_act,
    vanishing_pattern,
)
from .stability import (
    Character,
    EnumerationCapError,
    GoodCertificate,
    GreatCertificate,
    StabilityCone,
    SupportFamily,
    WeightMatrix,
    certify_good,
    certify_great,
    character_from_weights,
    stability_cone,
    stability_report,
    subrep_supports,
    supports_from_generators,
)
from .invariants import (
    CycleMonomial,
    SeparationReport,
    enumerate_cycles,
    evaluate_invariant,
    invariant_vector,
    separation_experiment,
)
from .helix import (
    check_prop41_degrees,
    e_chi_degree,
    extend_spiral,
    theorem43_character,
)
from .catalog import (
    CatalogEntry,
    IrrelevantLocusError,
    UnknownEntryError,
    entry_names,
    get_entry,
    tautological_point,
)

__all__ = [name for name in dir() if not name.startswith("_")]
