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
    sign,
    suspend_map,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .liesuper import CheckReport, LieSuperAlgebra, _first_failure
from .oop import OOperatorCandidate, _check_candidate, oop_holds
from .reps import Representation, parity_reverse_rep
from .rmatrix import operator_to_rmatrix


@dataclass(frozen=True)
class PreLieSuperAlgebra:
    """A graded product p_ij^k with e_i e_j = sum_k p_ij^k e_k.

    parity_shift 0 is a genuine pre-Lie product (left-symmetric
    associator); shift 1 stores the odd product an odd O-operator
    induces, which is not itself pre-Lie.
    """

    space: SuperSpace
    product: tuple[tuple[tuple[Scalar, ...], ...], ...]
    parity_shift: Parity = EVEN

    def __post_init__(self):
        n = self.space.dim
        if len(self.product) != n or any(
            len(row) != n or any(len(e) != n for e in row) for row in self.product
        ):
            raise ValueError("product table shape mismatch")

    @staticmethod
    def from_products(
        space: SuperSpace,
        products: Mapping["tuple[str, str]", Mapping[str, RationalLike]],
        parity_shift: Parity = EVEN,
    ) -> "PreLieSuperAlgebra":
        n = space.dim
        p = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (a, b), terms in products.items():
            vec = space.vector(terms)
            i, j = space.index(a), space.index(b)
            for k, x in enumerate(vec):
                p[i][j][k] = x
        return PreLieSuperAlgebra(
            space, tuple(tuple(tuple(r) for r in q) for q in p), parity_shift
        )

    def multiply(self, x, y):
        n = self.space.dim
        out = [ZERO] * n
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                pij = self.product[i][j]
                c = xi * yj
                for k in range(n):
                    if pij[k] != 0:
                        out[k] += c * pij[k]
        return tuple(out)

    def associator(self, x, y, z):
        return vec_sub(
            self.multiply(self.multiply(x, y), z), self.multiply(x, self.multiply(y, z))
        )


def check_prelie(a: PreLieSuperAlgebra) -> CheckReport:
    """Grading of the product, and (for shift 0) left-symmetry of the
    associator on all basis triples."""
    space = a.space
    n = space.dim
    L = space.labels
    P = space.parities

    def grading_witnesses():
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if a.product[i][j][k] != 0 and P[k] != (P[i] + P[j] + a.parity_shift) % 2:
                        yield f"{L[i]} {L[j]} has a component along {L[k]} of wrong parity"

    items = [_first_failure("product grading", grading_witnesses())]
    if a.parity_shift == EVEN:
        items.append(_first_failure("left-symmetric associator", _left_symmetry_witnesses(a)))
    return CheckReport(tuple(items))


def _left_symmetry_witnesses(a: PreLieSuperAlgebra):
    """The basis triples breaking the associator symmetry with the shift s
    folded into the parities: (v, w, u) = (-1)^{(|v|+s)(|w|+s)} (w, v, u)."""
    space = a.space
    n = space.dim
    L = space.labels
    P = space.parities
    s = a.parity_shift
    for i in range(n):
        ei = space.basis_vector(i)
        for j in range(n):
            ej = space.basis_vector(j)
            factor = sign((P[i] + s) * (P[j] + s))
            for k in range(n):
                ek = space.basis_vector(k)
                if a.associator(ei, ej, ek) != vec_scale(factor, a.associator(ej, ei, ek)):
                    yield f"fails at triple ({L[i]}, {L[j]}, {L[k]})"


def shifted_left_symmetry_holds(a: PreLieSuperAlgebra) -> bool:
    """The associator symmetry with the shift folded into the parities, on
    all basis triples; for shift 0 the left-symmetry of check_prelie."""
    return next(_left_symmetry_witnesses(a), None) is None


def subadjacent(a: PreLieSuperAlgebra) -> LieSuperAlgebra:
    """[x, y] = xy - (-1)^{|x||y|} yx in structure constants."""
    if a.parity_shift != EVEN:
        raise ValueError("only a genuine (shift 0) product has a sub-adjacent bracket")
    report = check_prelie(a)
    if not report.ok:
        raise ValueError(f"invalid pre-Lie product: {report.failures()[0].detail}")
    space = a.space
    n = space.dim
    P = space.parities
    c = [
        [
            [
                a.product[i][j][k] - sign(P[i] * P[j]) * a.product[j][i][k]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return LieSuperAlgebra(space, tuple(tuple(tuple(r) for r in q) for q in c))


def left_regular_rep(a: PreLieSuperAlgebra) -> Representation:
    """(A, L) with L(x)y = xy, a representation of the sub-adjacent algebra."""
    g = subadjacent(a)
    action = []
    for p, row in zip(a.space.parities, a.product):
        entries = (((k, j), x) for j, e in enumerate(row) for k, x in enumerate(e))
        action.append(GradedLinearMap._from_entries(a.space, a.space, p, entries))
    # subadjacent has checked the pre-Lie identity, which makes L a
    # representation by theorem
    return Representation._trusted(g, a.space, tuple(action))


def identity_oop(a: PreLieSuperAlgebra) -> OOperatorCandidate:
    """The identity map A -> g(A), an even O-operator for (A, L)."""
    rep = left_regular_rep(a)
    return OOperatorCandidate(GradedLinearMap.identity(a.space), rep)


def product_from_oop(t: GradedLinearMap, rho: Representation) -> PreLieSuperAlgebra:
    """v . w = (-1)^{|T|(|v|+|T|)} rho(T v) w on V, graded with shift |T|.

    Requires T to satisfy the O-operator identity.
    """
    _check_candidate(t, rho)
    if not oop_holds(t, rho):
        raise ValueError("the map does not satisfy the O-operator identity")
    V = rho.space
    n = V.dim
    pt = t.parity
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, col in enumerate(t.nonzero):
        s = sign(pt * (V.parities[i] + pt))
        for a, x in col:  # rho(T v_i) = sum_a x rho(e_a)
            for j, image in enumerate(rho.action[a].nonzero):
                out = table[i][j]
                for k, m in image:
                    out[k] += s * x * m
    return PreLieSuperAlgebra(
        V, tuple(tuple(tuple(e) for e in row) for row in table), pt
    )


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

    Well-definedness is re-verified on a homogeneous kernel basis rather
    than assumed; image basis columns are picked by deterministic column
    reduction and labeled T(<domain label>).
    """
    dot = product_from_oop(t, rho)
    V = rho.space
    g_space = rho.algebra.space
    rows = [list(r) for r in t.matrix]
    pivots = linalg.column_space_pivots(rows)
    kernel = linalg.nullspace(rows, ncols=V.dim)

    for kv in kernel:
        for j in range(V.dim):
            ej = V.basis_vector(j)
            if not vec_is_zero(t.apply(dot.multiply(kv, ej))):
                raise ValueError("induced product is not well-defined (left argument)")
            if not vec_is_zero(t.apply(dot.multiply(ej, kv))):
                raise ValueError("induced product is not well-defined (right argument)")

    labels = tuple(f"T({V.labels[i]})" for i in pivots)
    parities = tuple((V.parities[i] + t.parity) % 2 for i in pivots)
    order = [p for p in range(len(pivots)) if parities[p] == EVEN]
    order += [p for p in range(len(pivots)) if parities[p] == ODD]
    image_space = SuperSpace(
        tuple(labels[p] for p in order), tuple(parities[p] for p in order)
    )
    basis_cols = [t.column(pivots[p]) for p in order]

    def coords(vec):
        sol = linalg.solve(
            [[basis_cols[b][r] for b in range(len(basis_cols))] for r in range(g_space.dim)],
            list(vec),
        )
        if sol is None:
            raise ValueError("vector not in the image of T")
        return sol

    n = image_space.dim
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for p in range(n):
        vp = V.basis_vector(pivots[order[p]])
        for q in range(n):
            vq = V.basis_vector(pivots[order[q]])
            prod = t.apply(dot.multiply(vp, vq))
            for k, x in enumerate(coords(prod)):
                table[p][q][k] = x
    return PreLieSuperAlgebra(
        image_space, tuple(tuple(tuple(e) for e in row) for row in table), EVEN
    )


def compatible_prelie(t: GradedLinearMap, rho: Representation) -> PreLieSuperAlgebra:
    """x * y = (-1)^{|T||x|} T(rho(x) T^{-1} y) on g, for invertible T.

    The supercommutator of the product reproduces the bracket of g.
    """
    _check_candidate(t, rho)
    if not oop_holds(t, rho):
        raise ValueError("the map does not satisfy the O-operator identity")
    if not t.is_invertible():
        raise ValueError("the compatible product needs an invertible operator")
    tinv = t.inverse()
    space = rho.algebra.space
    table = []
    for p, act in zip(space.parities, rho.action):
        # row i of the table: the columns of (-1)^{|T||e_i|} T rho(e_i) T^{-1}
        m = t.compose(act).compose(tinv).scale(sign(t.parity * p))
        table.append(tuple(m.column(j) for j in range(space.dim)))
    return PreLieSuperAlgebra(space, tuple(table), EVEN)


def prelie_rmatrix_pair(a: PreLieSuperAlgebra) -> "tuple[RMatrix, RMatrix]":
    """The even and odd tensors the identity O-operator of g(A) induces,
    in g(A) |x_{L*} A* and g(A) |x_{(L^s)*} (sA)* respectively."""
    cand = identity_oop(a)
    even_r = operator_to_rmatrix(cand.map, cand.rep, "plain")
    odd_r = operator_to_rmatrix(cand.map, cand.rep, "dual")
    return even_r, odd_r
