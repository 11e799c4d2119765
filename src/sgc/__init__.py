"""Exact circular chromatic numbers of signed graphs.

Solver, certificate checker, and construction toolkit.  Everything is exact
integer/rational arithmetic; no floats are involved in any decision.
"""

from .arith import EvenRational, antipode, candidates, circ_dist, normalize_even
from .core import (
    CapacityError,
    Edge,
    Sign,
    SignedGraph,
    StructuralMismatchError,
    UncolorableError,
    degeneracy,
    girth_types,
    is_balanced,
    switch,
    switching_equivalent,
)
from .solver import (
    BudgetExhausted,
    ChiResult,
    ChiUndecided,
    Coloring,
    Pin,
    SolveBudget,
    chi_c,
    chi_plus,
    chi_s,
    circular_to_zero_free,
    feasible_pq,
    verify_coloring,
    zero_free_to_circular,
)
from .certificates import (
    CorruptCertificateError,
    NotRefinableError,
    RationalColoring,
    TightCycleCertificate,
    TightDigraph,
    cert_value,
    find_tight_cycle,
    refine,
    tight_digraph,
    verify_rational,
)
from .indicators import Indicator, ShapeError, ZSet, predict_scaled_chi, replace_edges, z_set
from .constructions import (
    GadgetEmbedding,
    big_gamma,
    circular_clique_signed,
    gadget_interior_colors,
    gamma,
    gamma_prime,
    hat_clique,
    k4_omega,
    k4_omega_coloring,
    mini_gadget,
    omega_d,
    outerplanar_F,
    positive_clique,
    signed_cycle,
    spal5,
    wenger,
    wenger_coloring,
    wenger_tilde,
    wenger_tilde_coloring,
    wenger_tilde_detail,
)
from .io_cli import ParseError, parse_coloring, parse_sg, render_coloring, render_sg

__all__ = [
    "EvenRational", "antipode", "candidates", "circ_dist", "normalize_even",
    "CapacityError", "Edge", "Sign", "SignedGraph", "StructuralMismatchError",
    "UncolorableError", "degeneracy", "girth_types", "is_balanced", "switch",
    "switching_equivalent",
    "BudgetExhausted", "ChiResult", "ChiUndecided", "Coloring", "Pin", "SolveBudget",
    "chi_c", "chi_plus", "chi_s", "circular_to_zero_free", "feasible_pq", "verify_coloring",
    "zero_free_to_circular",
    "CorruptCertificateError", "NotRefinableError", "RationalColoring",
    "TightCycleCertificate", "TightDigraph", "cert_value", "find_tight_cycle", "refine",
    "tight_digraph", "verify_rational",
    "Indicator", "ShapeError", "ZSet", "predict_scaled_chi", "replace_edges", "z_set",
    "GadgetEmbedding", "big_gamma", "circular_clique_signed", "gadget_interior_colors",
    "gamma", "gamma_prime", "hat_clique", "k4_omega", "k4_omega_coloring", "mini_gadget",
    "omega_d", "outerplanar_F", "positive_clique", "signed_cycle", "spal5", "wenger",
    "wenger_coloring", "wenger_tilde", "wenger_tilde_coloring", "wenger_tilde_detail",
    "ParseError", "parse_coloring", "parse_sg", "render_coloring", "render_sg",
]
