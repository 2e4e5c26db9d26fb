"""Exact computation with finite W-superalgebras for gl(M|N).

Pyramids encode even good gradings; the PBW engine gives exact normal
forms in U(gl(M|N)); explicit generators realize a shifted super Yangian
presentation inside U(p); column-connected tableaux classify the
one-dimensional modules.
"""

from .gl import (
    BoxIndex,
    LieSuperElement,
    basis_indices,
    bracket,
    centralizer_dims,
    e,
    minus,
    parity,
    plus,
    superform,
)
from .onedim import (
    EigenvalueData,
    NonSplitError,
    eigenvalues_of,
    elementary_symmetric,
    quotient_relation_check,
    solve_b_shifted,
    symbolic_module_check,
    tableau_from_eigenvalues,
    weight_space_search,
)
from .pbw import (
    EnvelopingAlgebra,
    UEAElement,
    evaluate_one_dim,
    from_lie,
    generator,
    identity,
    is_W_invariant,
    pr_chi,
    supercommutator,
    twisted_action,
)
from .pyramid import (
    Pyramid,
    ShiftMatrix,
    adjacent_pairs,
    chi,
    e_pi,
    enumerate_pyramids,
    enumerate_shapes,
    from_shift,
    good_pair_check,
    graded_basis,
    h_pi,
    vertical_adjacent_pairs,
)
from .scalars import format_scalar, parse_scalar
from .tableau import (
    Tableau,
    canonical_row_form,
    classify,
    find_cc_representative,
    is_column_connected,
    row_equivalent,
)
from .weights import (
    RootPartition,
    Weight,
    beta,
    delta,
    eta,
    is_onedim_h_weight,
    lambda_A,
    rho_bar,
    rho_h,
    rho_tilde,
    root_partitions,
    signed_root_sum,
)
from .yangian import (
    D,
    E,
    F,
    RELATION_IDS,
    T,
    algebra_for,
    higher_E,
    higher_F,
    iter_relation_instances,
    relation_report,
    truncation_vanishing,
    verify_relation,
)

__version__ = "0.1.0"
