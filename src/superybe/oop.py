"""O-operators (relative Rota-Baxter operators) of Lie superalgebras.

The defining identity and its defect table, weight-0 Rota-Baxter
operators, the parity duality T <-> T^s, extension to the self-reversing
double, transport along representation isomorphisms, and a brute-force
grid search used as a classification oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graded import (
    ZERO,
    GradedLinearMap,
    Parity,
    SuperSpace,
    format_vector,
    merge_spaces,
    rat,
    sign,
    suspend_map,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .liesuper import LieSuperAlgebra
from .reps import Representation, _lie_adjoint, direct_sum_rep, is_intertwiner, parity_reverse_rep


@dataclass(frozen=True)
class OOperatorCandidate:
    """A homogeneous map V -> g paired with the representation it targets."""

    map: GradedLinearMap
    rep: Representation

    def __post_init__(self):
        if self.map.domain != self.rep.space:
            raise ValueError("candidate domain differs from the representation space")
        if self.map.codomain != self.rep.algebra.space:
            raise ValueError("candidate codomain differs from the algebra")

    @property
    def parity(self) -> Parity:
        return self.map.parity


@dataclass(frozen=True)
class OopReport:
    """Verdict plus the full defect table Op(v_i, v_j) for diagnostics."""

    ok: bool
    defects: "tuple[tuple[tuple[str, str], tuple], ...]"

    def nonzero_defects(self):
        return [(pair, d) for pair, d in self.defects if not vec_is_zero(d)]

    def format(self, g_space: SuperSpace) -> str:
        if self.ok:
            return "all defects vanish"
        lines = []
        for (a, b), d in self.nonzero_defects():
            lines.append(f"defect[{a}, {b}] = {format_vector(g_space, d)}")
        return "\n".join(lines)


def oop_defect(t: GradedLinearMap, rho: Representation, i: int, j: int):
    """Op(v_i, v_j): the left side of the defining identity on one pair."""
    g = rho.algebra
    V = rho.space
    pt = t.parity
    x = t.column(i)
    y = t.column(j)
    lhs = g.bracket(x, y)
    s1 = sign((pt + V.parities[i]) * pt)
    s2 = sign(V.parities[i] * (pt + V.parities[j]))
    arg = vec_sub(
        vec_scale(s1, rho.apply_vec(x, V.basis_vector(j))),
        vec_scale(s2, rho.apply_vec(y, V.basis_vector(i))),
    )
    return vec_sub(lhs, t.apply(arg))


def _check_candidate(t: GradedLinearMap, rho: Representation):
    if t.domain != rho.space or t.codomain != rho.algebra.space:
        raise ValueError("malformed candidate: map does not fit the representation")


def is_oop(t: GradedLinearMap, rho: Representation) -> OopReport:
    """Check the O-operator identity on every homogeneous basis pair."""
    _check_candidate(t, rho)
    V = rho.space
    table = []
    ok = True
    for i in range(V.dim):
        for j in range(V.dim):
            d = oop_defect(t, rho, i, j)
            if not vec_is_zero(d):
                ok = False
            table.append(((V.labels[i], V.labels[j]), d))
    return OopReport(ok, tuple(table))


def oop_holds(t: GradedLinearMap, rho: Representation) -> bool:
    """Boolean fast path with early exit on the first nonzero defect."""
    _check_candidate(t, rho)
    V = rho.space
    for i in range(V.dim):
        for j in range(V.dim):
            if not vec_is_zero(oop_defect(t, rho, i, j)):
                return False
    return True


def is_rota_baxter(r: GradedLinearMap, g: LieSuperAlgebra) -> bool:
    """[Rx, Ry] = R((-1)^{(|R|+|x|)|R|}[Rx, y] + [x, Ry]) on basis pairs:
    the O-operator identity for the adjoint representation."""
    if r.domain != g.space or r.codomain != g.space:
        raise ValueError("a Rota-Baxter candidate must be an endomorphism of g")
    return oop_holds(r, _lie_adjoint(g))


def parity_dual_oop(t: GradedLinearMap, rho: Representation) -> OOperatorCandidate:
    """(T^s, rho^s): the parity-dual candidate; verdicts always agree."""
    _check_candidate(t, rho)
    return OOperatorCandidate(suspend_map(t), parity_reverse_rep(rho))


def extend_to_double(t: GradedLinearMap, rho: Representation) -> OOperatorCandidate:
    """T^(v, su) = T(v) on the self-reversing double V (+) sV."""
    _check_candidate(t, rho)
    srho = parity_reverse_rep(rho)
    double = direct_sum_rep(rho, srho)
    _, emb_v, _ = merge_spaces(rho.space, srho.space)
    W = double.space
    cols = [t.codomain.zero_vector()] * W.dim
    for i in range(rho.space.dim):
        cols[emb_v[i]] = t.column(i)
    ext = GradedLinearMap.from_columns(W, t.codomain, t.parity, cols)
    return OOperatorCandidate(ext, double)


def transport_oop(
    t: GradedLinearMap,
    rho2: Representation,
    phi: GradedLinearMap,
    rho1: Representation,
) -> OOperatorCandidate:
    """T (for rho2) composed with an isomorphism phi: (V1,rho1) -> (V2,rho2).

    The verdict of the O-operator identity transports along phi.
    """
    _check_candidate(t, rho2)
    if not is_intertwiner(phi, rho1, rho2):
        raise ValueError("phi is not an intertwiner between the given representations")
    if not phi.is_invertible():
        raise ValueError("phi is not invertible")
    return OOperatorCandidate(t.compose(phi), rho1)


# ---------------------------------------------------------------------------
# grid search


class GridSearchCapExceeded(Exception):
    pass


GRID_SEARCH_CAP = 10**8


def grid_search_oops(
    g: LieSuperAlgebra,
    rho: Representation,
    parity: Parity,
    entry_set,
    cap: int = GRID_SEARCH_CAP,
) -> list[GradedLinearMap]:
    """Every homogeneous map of the given parity with all free entries in
    entry_set that satisfies the O-operator identity, in lexicographic
    order of the entry assignment (positions row-major, values in the
    order given)."""
    if rho.algebra != g:
        raise ValueError("representation is not over this algebra")
    V = rho.space
    cod = g.space
    entries = [rat(e) if not isinstance(e, int) else e for e in entry_set]
    positions = [
        (k, i)
        for k in range(cod.dim)
        for i in range(V.dim)
        if cod.parities[k] == (V.parities[i] ^ parity)
    ]
    nfree = len(positions)
    total = len(entries) ** nfree
    if total > cap:
        raise GridSearchCapExceeded(
            f"{len(entries)}^{nfree} = {total} candidates exceeds the cap {cap}"
        )

    base = len(entries)

    def decode(index: int):
        grid = [[ZERO] * V.dim for _ in range(cod.dim)]
        for k, i in reversed(positions):
            index, digit = divmod(index, base)
            grid[k][i] = entries[digit]
        return GradedLinearMap(V, cod, parity, tuple(tuple(r) for r in grid))

    candidates = (decode(index) for index in range(total))
    return [t for t in candidates if oop_holds(t, rho)]
