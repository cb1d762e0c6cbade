"""Pre-Lie superalgebras and their interplay with O-operators.

Sub-adjacent brackets, left regular representations, the products an
O-operator induces (on the module, on its suspension, on the image, and
the compatible product on the algebra for invertible operators), and the
parity pair of tensors every pre-Lie superalgebra generates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import linalg
from .graded import (
    EVEN,
    ODD,
    ZERO,
    GradedLinearMap,
    Parity,
    RationalLike,
    Scalar,
    SuperSpace,
    _block_sorted,
    _dense_cells,
    _Stored,
    rat,
    sign,
    suspend_map,
)
from .liesuper import (
    CheckReport,
    LieSuperAlgebra,
    _bilinear,
    _first_failure,
    _grading_failures,
    _hom_failures,
    _partner,
    _scanned_cells,
    _sparse_table,
)
from .oop import OOperatorCandidate, oop_holds
from .reps import Representation, parity_reverse_rep
from .rmatrix import operator_to_rmatrix


@dataclass(frozen=True, init=False)
class PreLieSuperAlgebra(_Stored, table="nonzero", depth=2):
    """A graded product p_ij^k with e_i e_j = sum_k p_ij^k e_k.

    parity_shift 0 is a genuine pre-Lie product (left-symmetric
    associator); shift 1 stores the odd product an odd O-operator
    induces, which is not itself pre-Lie.

    Stored as `nonzero`: nonzero[i][j] holds the pairs (k, p_ij^k) with
    p_ij^k != 0 in ascending k.  The public constructor scans a dense
    array once and keeps no copy; constructions use `_from_entries`,
    which builds through `_trusted`.  The dense `product` view is built
    on each read and kept nowhere; the hash and the integer view
    `_cleared`, which the left-symmetry check reads, are `_Stored`'s.
    `check_prelie` verifies a product once per object and keeps the
    report, as `_report`.
    """

    space: SuperSpace
    nonzero: tuple[tuple[tuple[tuple[int, Scalar], ...], ...], ...]
    parity_shift: Parity

    def __init__(self, space: SuperSpace, product, parity_shift: Parity = EVEN):
        nonzero = _scanned_cells(space.dim, product, "product table shape mismatch")
        vars(self).update(space=space, nonzero=nonzero, parity_shift=parity_shift)

    @classmethod
    def _trusted(cls, space: SuperSpace, nonzero, parity_shift: Parity):
        """The product of a finished `nonzero` table, unchecked."""
        a = object.__new__(cls)
        vars(a).update(space=space, nonzero=nonzero, parity_shift=parity_shift)
        return a

    @classmethod
    def _from_entries(cls, space: SuperSpace, entries, parity_shift: Parity):
        """The product with the given ((i, j, k), p) constants, each
        position given at most once, and zeros elsewhere."""
        return cls._trusted(space, _sparse_table(space.dim, entries), parity_shift)

    @staticmethod
    def from_products(
        space: SuperSpace,
        products: Mapping["tuple[str, str]", Mapping[str, RationalLike]],
        parity_shift: Parity = EVEN,
    ) -> "PreLieSuperAlgebra":
        entries = []
        for (a, b), terms in products.items():
            i, j = space.index(a), space.index(b)
            entries += (((i, j, space.index(label)), rat(x)) for label, x in terms.items())
        return PreLieSuperAlgebra._from_entries(space, entries, parity_shift)

    @property
    def product(self) -> tuple[tuple[tuple[Scalar, ...], ...], ...]:
        """The dense array product[i][j][k] = p_ij^k, built on each read."""
        return _dense_cells(self.nonzero, self.space.dim)

    def multiply(self, x, y):
        return _bilinear(self.nonzero, x, y, self.space.dim)


def check_prelie(a: PreLieSuperAlgebra) -> CheckReport:
    """Grading of the product, and (for shift 0) left-symmetry of the
    associator on all basis triples; each reports its first offending
    triple.  Left-symmetry is checked as `subadjacent`'s bracket having
    left multiplication as a representation, by `liesuper._hom_failures`.
    Kept on a as `_report`, as `check_lie_axioms` keeps an algebra's."""
    if "_report" in vars(a):
        return a._report
    L = a.space.labels
    grading = (
        f"{L[i]} {L[j]} has a component along {L[k]} of wrong parity"
        for i, j, k in _grading_failures(a.space.parities, a.nonzero, a.parity_shift)
    )
    items = [_first_failure("product grading", grading)]
    if a.parity_shift == EVEN:
        associator = (
            f"fails at triple ({L[i]}, {L[j]}, {L[k]})" for i, j, k in _left_symmetry_failures(a)
        )
        items.append(_first_failure("left-symmetric associator", associator))
    vars(a)["_report"] = CheckReport(tuple(items))
    return a._report


def _commutator_entries(Q, table):
    """The ((i, j, k), c) entries of [x, y] = xy - (-1)^{Q_x Q_y} yx for
    the sparse product table, with Q the parities of the basis: Fractions
    for a table of Fractions, ints at the same scale for an integer view."""
    c: dict = {}
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            for k, x in cell:
                c[i, j, k] = c.get((i, j, k), 0) + x
            for k, x in _partner(cell, Q[i] & Q[j]):
                c[j, i, k] = c.get((j, i, k), 0) + x
    return c.items()


def _left_symmetry_failures(a: PreLieSuperAlgebra):
    """The basis triples (i, j, k) breaking the associator symmetry with
    the shift s folded into the parities, Q = P + s:
    (v, w, u) = (-1)^{Q_v Q_w} (w, v, u), where (x, y, z) = (xy)z - x(yz).
    That symmetry says that left multiplication, L(x)u = xu, satisfies
    L(v)L(w) - (-1)^{Q_v Q_w} L(w)L(v) = L(vw - (-1)^{Q_v Q_w} wv), so the
    triples are those of `_hom_failures` with the product as the action.
    Both tables are the product's integer view: the commutator's entries
    are sums of its ints, so they are at its scale already."""
    Q = [(p + a.parity_shift) % 2 for p in a.space.parities]
    _, product = a._cleared
    commutator = _sparse_table(a.space.dim, _commutator_entries(Q, product))
    return _hom_failures(Q, commutator, product)


def shifted_left_symmetry_holds(a: PreLieSuperAlgebra) -> bool:
    """The associator symmetry with the shift folded into the parities, on
    all basis triples; for shift 0 the left-symmetry of check_prelie."""
    return next(_left_symmetry_failures(a), None) is None


def subadjacent(a: PreLieSuperAlgebra) -> LieSuperAlgebra:
    """[x, y] = xy - (-1)^{|x||y|} yx in structure constants, kept once per
    product object as `_subadjacent`, as `adjoint` keeps an algebra's.  The
    algebra is given no `check_lie_axioms` report: `superybe prelie
    subadjacent` prints that check as its verdict."""
    if a.parity_shift != EVEN:
        raise ValueError("only a genuine (shift 0) product has a sub-adjacent bracket")
    report = check_prelie(a)
    if not report.ok:
        raise ValueError(f"invalid pre-Lie product: {report.failures()[0].detail}")
    if "_subadjacent" not in vars(a):
        entries = _commutator_entries(a.space.parities, a.nonzero)
        vars(a)["_subadjacent"] = LieSuperAlgebra._from_entries(a.space, entries)
    return a._subadjacent


def left_regular_rep(a: PreLieSuperAlgebra) -> Representation:
    """(A, L) with L(x)y = xy, a representation of the sub-adjacent algebra."""
    g = subadjacent(a)
    # L(e_i) e_j = e_i e_j: L's table, and so its view, is the product's, and
    # subadjacent has checked the grading and the pre-Lie identity that make
    # L a representation
    return linalg._with_view(Representation._trusted(g, a.space, a.nonzero), a._cleared)


def identity_oop(a: PreLieSuperAlgebra) -> OOperatorCandidate:
    """The identity map A -> g(A), an even O-operator for (A, L)."""
    rep = left_regular_rep(a)
    return OOperatorCandidate(GradedLinearMap.identity(a.space), rep)


def product_from_oop(t: GradedLinearMap, rho: Representation) -> PreLieSuperAlgebra:
    """v . w = (-1)^{|T|(|v|+|T|)} rho(T v) w on V, graded with shift |T|.

    Requires T to satisfy the O-operator identity.
    """
    if not oop_holds(t, rho):
        raise ValueError("the map does not satisfy the O-operator identity")
    V = rho.space
    pt = t.parity
    table: dict = {}
    for i, col in enumerate(t.nonzero):
        flip = pt * (V.parities[i] + pt) % 2
        for a, x in col:  # rho(T v_i) = sum_a x rho(e_a)
            sx = -x if flip else x
            for j, image in enumerate(rho.nonzero[a]):
                for k, m in image:
                    table[i, j, k] = table.get((i, j, k), ZERO) + sx * m
    return PreLieSuperAlgebra._from_entries(V, table.items(), pt)


def suspended_prelie(t: GradedLinearMap, rho: Representation) -> PreLieSuperAlgebra:
    """The genuine pre-Lie product sv o sw = s(v . w) on sV for odd T: the
    product of the even parity-dual pair (T^s, rho^s)."""
    if t.parity != ODD:
        raise ValueError("the suspended product is defined for odd operators")
    return product_from_oop(suspend_map(t), parity_reverse_rep(rho))


def prelie_from_oop(t: GradedLinearMap, rho: Representation) -> PreLieSuperAlgebra:
    """The genuine pre-Lie superalgebra an O-operator induces: on V for
    even T, on sV (by suspension of the odd product) for odd T."""
    if t.parity == EVEN:
        return product_from_oop(t, rho)
    return suspended_prelie(t, rho)


def induced_prelie(t: GradedLinearMap, rho: Representation) -> PreLieSuperAlgebra:
    """T(v) * T(w) = T(v . w) on a computed basis of image(T).

    T is eliminated once: with R its reduced rows and c_r their pivots,
    T w = sum_r (R w)_r T(v_{c_r}), so the T(v_{c_r}), labeled
    T(<domain label>), are an image basis and R w gives coordinates in it.

    The product is well defined: `product_from_oop` has verified the
    O-operator identity, and for T k = 0 it gives T(k . w) =
    +-T(rho(T k) w) = 0 and T(w . k) = +-([T w, T k] -+ T(rho(T k) w)) = 0.
    """
    dot = product_from_oop(t, rho)
    V = rho.space
    reduced, pivots = linalg.rref(t._rows())
    reduced = reduced[: len(pivots)]

    def coords(pairs):
        """R w for w = sum x v_k over the (k, x) pairs."""
        return [sum((row[k] * x for k, x in pairs), ZERO) for row in reduced]

    labels = tuple(f"T({V.labels[c]})" for c in pivots)
    parities = tuple((V.parities[c] + t.parity) % 2 for c in pivots)
    image_space, order, position = _block_sorted(labels, parities)
    entries = []
    for p, a in enumerate(order):
        for q, b in enumerate(order):
            w = dot.nonzero[pivots[a]][pivots[b]]
            entries += (((p, q, position[r]), x) for r, x in enumerate(coords(w)))
    return PreLieSuperAlgebra._from_entries(image_space, entries, EVEN)


def compatible_prelie(t: GradedLinearMap, rho: Representation) -> PreLieSuperAlgebra:
    """x * y = (-1)^{|T||x|} T(rho(x) T^{-1} y) on g, for invertible T.

    The supercommutator of the product reproduces the bracket of g.
    """
    if not oop_holds(t, rho):
        raise ValueError("the map does not satisfy the O-operator identity")
    tinv = t.inverse()  # refuses a singular T
    space = rho.algebra.space
    entries = []
    for i, (p, act) in enumerate(zip(space.parities, rho.action)):
        # row i of the table: the columns of (-1)^{|T||e_i|} T rho(e_i) T^{-1}
        m = t.compose(act).compose(tinv).scale(sign(t.parity * p))
        entries += (((i, j, k), x) for (k, j), x in m._entries())
    return PreLieSuperAlgebra._from_entries(space, entries, EVEN)


def prelie_rmatrix_pair(a: PreLieSuperAlgebra) -> "tuple[RMatrix, RMatrix]":
    """The even and odd tensors the identity O-operator of g(A) induces,
    in g(A) |x_{L*} A* and g(A) |x_{(L^s)*} (sA)* respectively."""
    cand = identity_oop(a)
    even_r = operator_to_rmatrix(cand.map, cand.rep, "plain")
    odd_r = operator_to_rmatrix(cand.map, cand.rep, "dual")
    return even_r, odd_r
