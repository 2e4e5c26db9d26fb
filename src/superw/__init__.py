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
)
from .pyramid import (
    Pyramid,
    ShiftMatrix,
    adjacent_pairs,
    e_pi,
    enumerate_pyramids,
    enumerate_shapes,
    from_shift,
    good_pair_check,
    h_pi,
    vertical_adjacent_pairs,
)
from .scalars import format_scalar, parse_scalar
from .tableau import (
    Tableau,
    classify,
    find_cc_representative,
    is_column_connected,
    row_equivalent,
)
from .weights import (
    Weight,
    eta,
    is_onedim_h_weight,
    lambda_A,
    rho_tilde,
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
)

__version__ = "0.1.0"
