"""
Affine W-graphs for two-row partitions: exact construction of the move
graphs on row-standard tableaux, and two independent verification paths
(local combinatorial rules and the Hecke module relations).
"""

from .tableaux import (
    Partition,
    RowStandardTableau,
    affine_descents,
    enumerate_rsyt,
    enumerate_syt,
    finite_descents,
    is_standard,
    mo,
    pint,
)
from .rsk import RskPair, finsh, rsk
from .wgraph import (
    LabeledWGraph,
    cells,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_nb_admissible,
    is_reduced,
    restrict_parabolic,
    simple_underlying,
)
from .tworow import (
    build_affine_graph,
    build_dual_equiv,
    build_equal_variant,
    build_finite_graph,
)
from .affperm import AffinePermutation, min_coset_reps
from .verify import (
    RuleReport,
    check_all_rules,
    check_bonding,
    check_compatibility,
    check_hecke_relations,
    check_polygon,
    check_simplicity,
    classify_restriction_cells,
)

__version__ = "0.1.0"
