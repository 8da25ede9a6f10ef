"""Increasing vector families, color-avoiding paths in edge-colored
tournaments, and pod packings: exact oracles, constructions, and
machine-checkable certificates.
"""

from .budget import Budget, BudgetExceeded
from .core import (
    ComparabilityCertificate,
    Comparison,
    GridVector,
    VectorFamily,
    Verdict,
    compare_r,
    find_cyclic_triple,
    less_r,
    transitive_order,
    validate_comparable,
    validate_increasing,
)
from .paths import (
    PathCertificate,
    PathConstraint,
    ProofParameters,
    ell_avoid_monotone,
    longest_avoiding_directed_exact,
    longest_restricted_monotone,
    proof_parameters,
    validate_path,
)
from .tournament import ColoredTournament, OrderedColoring

__all__ = [
    "Budget",
    "BudgetExceeded",
    "ComparabilityCertificate",
    "Comparison",
    "GridVector",
    "VectorFamily",
    "Verdict",
    "compare_r",
    "find_cyclic_triple",
    "less_r",
    "transitive_order",
    "validate_comparable",
    "validate_increasing",
    "PathCertificate",
    "PathConstraint",
    "ProofParameters",
    "ell_avoid_monotone",
    "longest_avoiding_directed_exact",
    "longest_restricted_monotone",
    "proof_parameters",
    "validate_path",
    "ColoredTournament",
    "OrderedColoring",
]
