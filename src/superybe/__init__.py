"""Exact computer algebra for Lie superalgebras: O-operators, super
r-matrices, parity duality and pre-Lie superalgebras over the rationals."""

from .graded import (
    EVEN,
    ODD,
    GradedLinearMap,
    Scalar,
    SuperSpace,
    Tensor2,
    Tensor3,
    double_dual_embedding,
    dual_map,
    pair2_eval,
    pair_eval,
    pair_eval_reversed,
    rat,
    suspend_map,
    twist,
)
from .liesuper import (
    BilinearForm,
    CheckReport,
    FormFlags,
    LieSuperAlgebra,
    check_lie_axioms,
    classify_form,
    form_to_dual_map,
    rota_baxter_transport,
    semidirect_product,
)
from .reps import (
    Representation,
    adjoint,
    check_representation,
    coadjoint,
    direct_sum_rep,
    dual_rep,
    find_even_isomorphism,
    is_intertwiner,
    is_self_dual,
    is_self_reversing,
    parity_reverse_rep,
    self_reversing_double,
    trivial_rep,
)
from .oop import (
    GridSearchCapExceeded,
    OOperatorCandidate,
    OopReport,
    extend_to_double,
    grid_search_oops,
    is_oop,
    is_rota_baxter,
    oop_holds,
    parity_dual_oop,
    transport_oop,
)
from .rmatrix import (
    DegenerateRMatrix,
    HierarchyCapExceeded,
    HierarchyError,
    RMatrix,
    beta_cocycle_check,
    beta_form,
    hierarchy_trace,
    hierarchy_walk,
    induced_coadjoint_operator,
    is_pan_supersymmetric,
    is_super_rmatrix,
    operator_to_rmatrix,
    operator_to_tensor,
    rmatrix_to_operator,
    same_algebra_pair,
    scybe_defect,
)
from .prelie import (
    PreLieSuperAlgebra,
    check_prelie,
    compatible_prelie,
    identity_oop,
    induced_prelie,
    left_regular_rep,
    prelie_from_oop,
    prelie_rmatrix_pair,
    product_from_oop,
    subadjacent,
    suspended_prelie,
)
from .catalog import Fixture, fixture_document, fixture_names, load_fixture

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
