"""Exact deformation and classification tools over the first Weyl algebra.

The package computes, in exact rational arithmetic: normal forms and
products of differential operators, extension spaces between the cyclic
modules D/Dp with their stabilized truncated dimensions, the pointed
quiver algebra that pro-represents the deformation problem of the pair
(D/Dd, D/Dt), unobstructed because the Weyl algebra has global
dimension 1, the classification of its finite-dimensional modules in
low dimension, and certified identifications of the D-modules those
representations induce through the specialized differential.  Every
isomorphism claim is backed by an IsoWitness whose defining identities
are rechecked by multiplication.
"""

from .weyl import (
    WeylElement,
    WeylSyntaxError,
    parse_weyl,
    print_weyl,
)
from .linalg import (
    QMatrix,
    inverse,
    kernel_basis,
    rank,
    solve,
)
from .modules import (
    CyclicModule,
    DEFAULT_MAX_DEGREE,
    HARD_CAP,
    HomBasis,
    IsoWitness,
    PresentedModule,
    WeylLinearSystem,
    as_presented,
    clear_caches,
    compose_iso,
    cyclic_form,
    divide_left,
    hom_search,
    iso_witness,
)
from .ext import (
    Arrow,
    Ext1Result,
    ExtTable,
    PointedAlgebra,
    Relation,
    ext1_dim,
    ext_table,
    hull_unobstructed,
)
from .reps import (
    ClassificationResult,
    Family,
    NormalForm,
    QuiverForm,
    RelationViolation,
    Representation,
    UnsupportedDimensionError,
    are_conjugate,
    classify,
    evaluate_word,
    find_proper_submodule,
    intertwiners,
    is_indecomposable,
    is_simple,
    match_label,
    normal_form,
    quiver_form,
    representative,
    satisfies,
    validate,
)
from .versal import (
    CommutativePoint,
    SpecializationReport,
    commutative_specialize,
    cross_certify,
    identify_specialization,
    specialize,
)

__version__ = "0.1.0"

__all__ = [
    "WeylElement",
    "WeylSyntaxError",
    "parse_weyl",
    "print_weyl",
    "QMatrix",
    "inverse",
    "kernel_basis",
    "rank",
    "solve",
    "CyclicModule",
    "DEFAULT_MAX_DEGREE",
    "HARD_CAP",
    "HomBasis",
    "IsoWitness",
    "PresentedModule",
    "WeylLinearSystem",
    "as_presented",
    "clear_caches",
    "compose_iso",
    "cyclic_form",
    "divide_left",
    "hom_search",
    "iso_witness",
    "Arrow",
    "Ext1Result",
    "ExtTable",
    "PointedAlgebra",
    "Relation",
    "ext1_dim",
    "ext_table",
    "hull_unobstructed",
    "ClassificationResult",
    "Family",
    "NormalForm",
    "QuiverForm",
    "RelationViolation",
    "Representation",
    "UnsupportedDimensionError",
    "are_conjugate",
    "classify",
    "evaluate_word",
    "find_proper_submodule",
    "intertwiners",
    "is_indecomposable",
    "is_simple",
    "match_label",
    "normal_form",
    "quiver_form",
    "representative",
    "satisfies",
    "validate",
    "CommutativePoint",
    "SpecializationReport",
    "commutative_specialize",
    "cross_certify",
    "identify_specialization",
    "specialize",
    "__version__",
]
