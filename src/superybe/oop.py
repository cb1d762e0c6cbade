"""O-operators (relative Rota-Baxter operators) of Lie superalgebras.

The defining identity and its defect table, weight-0 Rota-Baxter
operators, the parity duality T <-> T^s, extension to the self-reversing
double, transport along representation isomorphisms, and a pruned
exhaustive grid search used as a classification oracle.

Every defect comes from one kernel, `_defect`, which sums on Python ints
over one integer view per stored table, `_cleared`: the algebra's and the
representation's, brought to one scale L once per representation
(`Representation._joint`), and the map's, scaled by D (T^s, T_r and the
induced operators inherit theirs; the grid search scales its entry set
once).  The sums are then D^2 L times the defect.  `oop_holds`,
`is_rota_baxter` and the grid search answer "any nonzero" on the ints;
`oop_defect` and `is_oop` divide each nonzero slot back into a `Fraction`
once, so every value they return is a `Fraction`.

`oop_holds`, `is_rota_baxter` and the grid search read only the
super-skew half of the basis pairs, `_pairs`.  The identity is super
skew-symmetric in its arguments,

    Op(v_j, v_i) = -(-1)^{(|T|+|v_i|)(|T|+|v_j|)} Op(v_i, v_j),

so a pair (i, j) with i > j vanishes exactly when (j, i) does, and
Op(v_i, v_i) = 0 whenever |T| + |v_i| is even.  The action terms swap
into each other with these signs by the Koszul rule alone; the bracket
term needs the super skew-symmetry of g.  `from_brackets` (and so every
parsed [bracket]), `subadjacent` and semidirect products build it in;
the public `LieSuperAlgebra(space, structure)` constructor does not
check it; `check_lie_axioms` does, once per object, and `is_rota_baxter`
reads that report through `adjoint`.  `is_oop` computes all n^2 pairs for its table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .graded import (
    GradedLinearMap,
    Parity,
    dense_vector,
    merge_spaces,
    rat,
    suspend_map,
    vec_is_zero,
)
from .liesuper import LieSuperAlgebra
from .reps import Representation, _check_isomorphism, adjoint, direct_sum_rep, parity_reverse_rep


@dataclass(frozen=True)
class OOperatorCandidate:
    """A homogeneous map V -> g paired with the representation it targets."""

    map: GradedLinearMap
    rep: Representation

    def __post_init__(self):
        _check_candidate(self.map, self.rep)

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


def _defect(tables, P, parity: Parity, cols, i: int, j: int) -> dict:
    """D^2 L Op(v_i, v_j) as {k: int}, nonzero values only, for the map of
    the given parity whose image of v_m, times D, is the ascending (k, int)
    pairs cols[m], over a representation with the scaled tables
    (L, bracket, action) of `Representation._joint` and a space V
    with the parities P.  Every defect in this module is computed here:

        Op(v_i, v_j) = [T v_i, T v_j] - T(s1 rho(T v_i) v_j - s2 rho(T v_j) v_i)

    with s1 = (-1)^{(|T|+|v_i|)|T|} and s2 = (-1)^{|v_i|(|T|+|v_j|)}.  Each
    term is a product of two entries of T and one constant of the bracket
    or the action, so the sums run on ints and come out scaled by D^2 L;
    the signs negate a column or not.  It reads columns i and j of T and
    the columns in the support of the argument of the outer T, nothing
    else."""
    _, bracket, action = tables
    x, y = cols[i], cols[j]
    out = {}
    for a, xa in x:
        row = bracket[a]
        for b, yb in y:
            xy = xa * yb
            for k, c in row[b]:
                out[k] = out.get(k, 0) + xy * c
    # s1 = -1 exactly when T is odd and v_i even; -s2 = -1 unless v_i is
    # odd and |T| + |v_j| is odd
    negate1 = parity and not P[i]
    negate2 = not (P[i] and parity != P[j])
    arg = {}
    for negate, col, v in ((negate1, x, j), (negate2, y, i)):
        for a, ca in col:
            if negate:
                ca = -ca
            for m, r in action[a][v]:
                arg[m] = arg.get(m, 0) + ca * r
    for m, w in arg.items():
        if w:
            for k, t in cols[m]:
                out[k] = out.get(k, 0) - w * t
    return {k: c for k, c in out.items() if c}


def _pairs(P, parity: Parity):
    """The basis pairs `oop_holds` and the grid search read, for a map of the
    given parity on a space with the parities P: (i, j) with i < j, and
    (i, i) only where |T| + |v_i| is odd; in row-major order.  The other
    pairs follow by super skew-symmetry (see the module docstring)."""
    n = len(P)
    for i in range(n):
        if P[i] != parity:
            yield i, i
        for j in range(i + 1, n):
            yield i, j


def _check_candidate(t: GradedLinearMap, rho: Representation):
    if t.domain != rho.space or t.codomain != rho.algebra.space:
        raise ValueError("malformed candidate: map does not fit the representation")


def _defects(t: GradedLinearMap, rho: Representation, pairs):
    """(defects, D^2 L): the `_defect` dicts of the pairs (i, j), lazily,
    and their common scale.  T's columns, scaled by D, the lcm of their
    denominators, are read off T's integer view `_cleared`."""
    tables = rho._joint
    D, cols = t._cleared
    P, parity = rho.space.parities, t.parity
    return (_defect(tables, P, parity, cols, i, j) for i, j in pairs), D * D * tables[0]


def _unscaled(n: int, defect: dict, scale: int):
    """The dense Fraction vector of a scaled defect."""
    return dense_vector(n, ((k, Fraction(v, scale)) for k, v in defect.items()))


def oop_defect(t: GradedLinearMap, rho: Representation, i: int, j: int):
    """Op(v_i, v_j): the left side of the defining identity on one pair,
    as a dense vector of `Fraction`s."""
    (defect,), scale = _defects(t, rho, [(i, j)])
    return _unscaled(rho.algebra.space.dim, defect, scale)


def is_oop(t: GradedLinearMap, rho: Representation) -> OopReport:
    """Check the O-operator identity on every homogeneous basis pair; all
    n^2 pairs are computed.  The verdict agrees with `oop_holds` when g's
    bracket is super skew-symmetric, as `check_lie_axioms` verifies."""
    _check_candidate(t, rho)
    V = rho.space
    pairs = [(i, j) for i in range(V.dim) for j in range(V.dim)]
    defects, scale = _defects(t, rho, pairs)
    defects = list(defects)
    n = rho.algebra.space.dim
    table = tuple(
        ((V.labels[i], V.labels[j]), _unscaled(n, d, scale)) for (i, j), d in zip(pairs, defects)
    )
    return OopReport(not any(defects), table)


def oop_holds(t: GradedLinearMap, rho: Representation) -> bool:
    """Boolean fast path over `_pairs`, with early exit on the first
    nonzero defect, which never leaves the ints.  Reading only that half
    is exact when g's bracket is super skew-symmetric, as
    `check_lie_axioms` verifies; on a non-skew g the verdict may differ
    from `is_oop`'s."""
    _check_candidate(t, rho)
    defects, _ = _defects(t, rho, _pairs(rho.space.parities, t.parity))
    return not any(defects)


def is_rota_baxter(r: GradedLinearMap, g: LieSuperAlgebra) -> bool:
    """[Rx, Ry] = R((-1)^{(|R|+|x|)|R|}[Rx, y] + [x, Ry]) on basis pairs:
    the O-operator identity for `adjoint(g)`, kept once per algebra object,
    which reads g's kept `check_lie_axioms` report and refuses as it does.  Like
    `oop_holds`, it reads only `_pairs`, which needs g's bracket super
    skew-symmetric, as that report verifies."""
    if r.domain != g.space or r.codomain != g.space:
        raise ValueError("a Rota-Baxter candidate must be an endomorphism of g")
    return oop_holds(r, adjoint(g))


def parity_dual_oop(t: GradedLinearMap, rho: Representation) -> OOperatorCandidate:
    """(T^s, rho^s): the parity-dual candidate; verdicts always agree."""
    return OOperatorCandidate(suspend_map(t), parity_reverse_rep(rho))


def extend_to_double(t: GradedLinearMap, rho: Representation) -> OOperatorCandidate:
    """T^(v, su) = T(v) on the self-reversing double V (+) sV."""
    _check_candidate(t, rho)
    srho = parity_reverse_rep(rho)
    double = direct_sum_rep(rho, srho)
    _, emb_v, _ = merge_spaces(rho.space, srho.space)
    cols = [()] * double.space.dim
    for i, col in enumerate(t.nonzero):
        cols[emb_v[i]] = col
    ext = GradedLinearMap._trusted(double.space, t.codomain, t.parity, tuple(cols))
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
    _check_isomorphism(phi, rho1, rho2)
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
) -> list[GradedLinearMap]:
    """Every homogeneous map of the given parity with all free entries in
    entry_set that satisfies the O-operator identity, in lexicographic
    order of the entry assignment (positions row-major, values in the
    order given).

    The free positions are assigned depth first, column by column.  Each
    basis pair is tested at the first depth where every column its defect
    can read is fixed, and a subtree is cut at its first nonzero defect;
    only accepted assignments become maps.  Only the pairs of `_pairs` are
    tested: the others vanish with them.  The entry set is scaled to ints
    once, so every test runs on the integer kernel `_defect`.
    GRID_SEARCH_CAP bounds the full grid, len(entry_set) ** (number of free
    positions), pruned or not, and is checked before any search."""
    if rho.algebra != g:
        raise ValueError("representation is not over this algebra")
    V = rho.space
    cod = g.space
    entries = [rat(e) for e in entry_set]  # Fractions, so the maps store no int
    _, values = linalg._cleared(entries)  # the entries, scaled once
    positions = [
        (k, i)
        for k in range(cod.dim)
        for i in range(V.dim)
        if cod.parities[k] == (V.parities[i] ^ parity)
    ]
    nfree = len(positions)
    total = len(entries) ** nfree
    if total > GRID_SEARCH_CAP:
        raise GridSearchCapExceeded(
            f"{len(entries)}^{nfree} = {total} candidates exceeds the cap {GRID_SEARCH_CAP}"
        )

    order = sorted(positions, key=lambda ki: (ki[1], ki[0]))  # column by column
    depth = {ki: d for d, ki in enumerate(order)}
    row_major = [depth[ki] for ki in positions]
    free_rows = [[k for k, i in order if i == c] for c in range(V.dim)]
    fixed_at = [-1] * V.dim  # the depth that assigns a column's last free entry
    for d, (_, i) in enumerate(order):
        fixed_at[i] = d

    # tests[d]: the pairs of `_pairs` whose defect is final once depth d is
    # assigned.  A pair's read set is symmetric in i and j, so its mirror
    # would be final at the same depth.  A pair that reads only columns
    # without free positions reads zeros, so its defect vanishes and it is
    # never tested.
    tests = [[] for _ in range(nfree)]
    for i, j in _pairs(V.parities, parity):
        read = {i, j}
        for c, other in ((i, j), (j, i)):
            for a in free_rows[c]:
                read.update(m for m, _ in rho.nonzero[a][other])
        d = max(fixed_at[c] for c in read)
        if d >= 0:
            tests[d].append((i, j))

    tables, P = rho._joint, V.parities
    cols = [[] for _ in range(V.dim)]  # the scaled sparse columns of the partial map
    accepted = [] if nfree else [()]
    # stack[d]: how many values depth d has tried; the last one is set
    stack = [0] if nfree and entries else []
    while stack:
        d = len(stack) - 1
        digit = stack[d]
        k, i = order[d]
        if digit and values[digit - 1]:
            cols[i].pop()
        if digit == len(entries):
            stack.pop()
            continue
        stack[d] = digit + 1
        if values[digit]:
            cols[i].append((k, values[digit]))
        if any(_defect(tables, P, parity, cols, a, b) for a, b in tests[d]):
            continue
        if d + 1 < nfree:
            stack.append(0)
        else:
            accepted.append(tuple(stack[r] - 1 for r in row_major))

    return [
        GradedLinearMap._from_entries(
            V, cod, parity, ((ki, entries[digit]) for ki, digit in zip(positions, digits))
        )
        for digits in sorted(accepted)
    ]
