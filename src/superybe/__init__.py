"""Exact computer algebra for Lie superalgebras: O-operators, super
r-matrices, parity duality and pre-Lie superalgebras over the rationals.

What each kernel assumes of its inputs, and the one place that
establishes it; a kernel assumes nothing that is not listed.

    kernel                   assumes                 established by
    -----------------------  ----------------------  -------------------------
    oop._defect, oop_holds,  T: V -> g fits rho      oop._check_candidate;
    grid_search_oops                                 the search compares
                                                     rho.algebra with g
                             T, rho homogeneous      their checked
                                                     constructors and parse
                             g super skew-symmetric  LieSuperAlgebra.
                             (to read half the       _skew_failure, kept per
                             pairs)                  algebra; on a failure
                                                     oop._read_pairs reads
                                                     all n^2 pairs
    rmatrix._scybe_blocks    r on g's space, of one  RMatrix.__post_init__;
                             parity                  an induced tensor's
                                                     host fixes both
                                                     (RMatrix._trusted)
    liesuper._hom_failures   bracket and action at   linalg._rescaled in
                             one scale L             reps._report_and_view;
                                                     the Jacobi and pre-Lie
                                                     checks pass one view
                                                     as both tables
    rmatrix._beta,           r non-degenerate        _beta: DegenerateRMatrix
    liesuper._is_two_cocycle                         when T_r is singular
                             r of one parity         RMatrix.__post_init__,
                                                     or the host
                             r pan-supersymmetric    not checked: the caller
                             over a Lie g, for       (beta_cocycle_check's
                             the theorem             docstring)
    rmatrix.hierarchy_trace  g Lie                   hierarchy_trace, once
                                                     per algebra value
                                                     (rmatrix._level), before
                                                     the first step
                             r a pan-supersymmetric  hierarchy_trace, on
                             solution over g         every call, before the
                                                     first step
                             each level Lie and a    by theorem, with the
                             solution                root's report
                                                     (liesuper._semidirect)
    prelie.product_from_oop  T an O-operator for     oop_holds, at its entry
                             rho, on one algebra
                             rho a representation    Representation, where
                                                     it enters
                             shift |T|; pre-Lie      prelie_from_oop, which
                             only for an even T      suspends an odd T
    reps.find_even_          rho1, rho2 over one     reps._require_common_
    isomorphism              algebra                 algebra, first
                             phi even                the even intertwiner
                                                     basis, by construction
                             phi non-degenerate      decided per candidate,
                                                     graded._block_inverse
    transport_oop,           phi an even             reps._check_isomorphism,
    same_algebra_pair        invertible intertwiner  parity first
"""

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
