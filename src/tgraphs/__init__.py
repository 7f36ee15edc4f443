"""Isomorphism of chordal graphs of bounded leafage (T-graphs).

A T-graph is an intersection graph of connected subtrees of a subdivision of
a fixed tree T. This package decides T-graph isomorphism by computing a
canonical level decomposition into interval fragments and reading an element
exchanging the two inputs off the stabiliser chain of the combined
decomposition's automorphism group, with brute-force oracles for desk-scale
verification.
"""

from .errors import (
    Disconnected,
    DomainMismatch,
    IndexBoundExceeded,
    NotAPartition,
    NotChordal,
    NotClosed,
    NotTGraph,
    TGraphsError,
    TooLarge,
)
from .graph import Graph, format_graph_text, parse_graph_text, separates
from .chordal import (
    is_chordal,
    leaf_cliques,
    maximal_cliques,
    minimal_separators,
)
from .perm import (
    MembershipPredicate,
    Perm,
    PermGroup,
    direct_product,
    fhl_subgroup,
    find_block_swap,
    symmetric_on_classes,
    tower_of_groups,
)
from .setfamily import (
    SetFamily,
    cell_signature,
    family_autgroup,
    is_family_automorphism,
    max_antichain_size,
)
from .interval import (
    MarkedIntervalGraph,
    PQTree,
    brute_marked_autgroup,
    build_pq_tree,
    marked_action_group,
    marked_isomorphism,
    pq_tree_to_text,
    reduce_clean,
)
from .decompose import (
    Decomposition,
    Fragment,
    TerminalSet,
    attachment_sets,
    canonical_decomposition,
    extract_fragments,
)
from .iso import (
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    NOT_T_GRAPH,
    Verdict,
    combine,
    decide_up_to,
    decomposition_autgroup,
    is_isomorphic,
    level_group,
    lift_to_vertices,
)
from .harness import (
    TRepresentation,
    brute_force_autgroup,
    brute_force_isomorphism,
    random_relabel,
    random_t_graph,
    verify_t_representation,
)

__all__ = [
    # errors
    "TGraphsError",
    "NotChordal",
    "Disconnected",
    "NotTGraph",
    "DomainMismatch",
    "NotAPartition",
    "IndexBoundExceeded",
    "NotClosed",
    "TooLarge",
    # graphs and chordal structure
    "Graph",
    "parse_graph_text",
    "format_graph_text",
    "separates",
    "is_chordal",
    "maximal_cliques",
    "leaf_cliques",
    "minimal_separators",
    # permutation groups
    "Perm",
    "PermGroup",
    "MembershipPredicate",
    "fhl_subgroup",
    "tower_of_groups",
    "direct_product",
    "symmetric_on_classes",
    "find_block_swap",
    # set families
    "SetFamily",
    "cell_signature",
    "is_family_automorphism",
    "family_autgroup",
    "max_antichain_size",
    # interval graphs
    "PQTree",
    "MarkedIntervalGraph",
    "build_pq_tree",
    "reduce_clean",
    "marked_action_group",
    "marked_isomorphism",
    "brute_marked_autgroup",
    "pq_tree_to_text",
    # decomposition
    "Fragment",
    "TerminalSet",
    "Decomposition",
    "extract_fragments",
    "attachment_sets",
    "canonical_decomposition",
    # decision engine
    "Verdict",
    "ISOMORPHIC",
    "NOT_ISOMORPHIC",
    "NOT_T_GRAPH",
    "combine",
    "level_group",
    "decomposition_autgroup",
    "lift_to_vertices",
    "is_isomorphic",
    "decide_up_to",
    # oracles and generation
    "TRepresentation",
    "brute_force_isomorphism",
    "brute_force_autgroup",
    "random_t_graph",
    "verify_t_representation",
    "random_relabel",
]
