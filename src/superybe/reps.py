"""Representations of Lie superalgebras.

Construction and verification, the dual and parity-reverse
representations, direct sums, and an exact even-intertwiner solver that
decides isomorphism by nullspace plus grid polynomial identity testing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from . import linalg
from .graded import (
    EVEN,
    GradedLinearMap,
    Scalar,
    SuperSpace,
    _block_inverse,
    _Stored,
    merge_spaces,
)
from .liesuper import CheckReport, LieSuperAlgebra, _bilinear, _first_failure
from .liesuper import _grading_failures, _hom_failures, check_lie_axioms


def check_representation(
    g: LieSuperAlgebra, space: SuperSpace, action: Sequence[GradedLinearMap]
) -> CheckReport:
    """Verify that the candidate action is a homogeneous Lie superalgebra
    homomorphism into gl(space); reports the first offending pair.  The
    defect is `liesuper._hom_failures`, the kernel of the Jacobi check
    of `check_lie_axioms`, on g's integer view and the action maps' views
    at one scale; no composed map is built."""
    return _report_and_view(g, space, action)[0]


def _report_and_view(
    g: LieSuperAlgebra, space: SuperSpace, action
) -> "tuple[CheckReport, tuple | None]":
    """(report, view): `check_representation`'s report, and the integer
    view of the action maps' table that its homomorphism item read, or
    None when the shape item fails first."""
    n = g.space.dim
    L = g.space.labels

    def shape_witnesses():
        if len(action) != n:
            yield f"expected {n} action maps, got {len(action)}"
            return
        for i, m in enumerate(action):
            if m.domain != space or m.codomain != space:
                yield f"action of {L[i]} acts on the wrong space"
            elif m.parity != g.space.parities[i]:
                yield f"action of {L[i]} must have parity of {L[i]}"

    shape_item = _first_failure("action shape and parity", shape_witnesses())
    hom, view = (), None
    if shape_item.ok:
        _, (bracket, table) = linalg._rescaled(2, g._cleared, view := _action_view(action))
        failures = _hom_failures(g.space.parities, bracket, table, space.dim)
        hom = (f"fails at pair ({L[i]}, {L[j]})" for i, j, _ in failures)
    hom_item = _first_failure("homomorphism property", hom)
    return CheckReport((shape_item, hom_item)), view


def _action_view(action) -> "tuple[int, tuple]":
    """The integer view of the maps' action table, from the maps' views."""
    D, columns = linalg._rescaled(1, *(m._cleared for m in action))
    return D, tuple(columns)


@dataclass(frozen=True, init=False)
class Representation(_Stored, table="nonzero", depth=2):
    """A verified action of a Lie superalgebra on a superspace, stored as
    its action table `nonzero`: nonzero[a][i] holds the pairs (k, x), x != 0,
    of rho(e_a) v_i in ascending k, as in `LieSuperAlgebra.nonzero`.  The
    maps `action` are a view, built on first read.

    Verification runs once, where an action enters from outside: the
    public constructor, `from_images` and `RawRep.verify` build through
    `_checked`, which runs `check_representation`'s check, the super
    Jacobi kernel run on the action, raises `ValueError` on failure and
    writes the view the check read from the maps'.  Constructions whose
    output is a representation by theorem skip it and hand `_trusted` a
    finished table: `trivial_rep`, direct sums, and, each with its
    source's view, `dual_rep`, `parity_reverse_rep`, `left_regular_rep`
    (the product table) and `adjoint(g)` (the bracket table, on g's kept
    `check_lie_axioms` report).  The hash and the integer view `_cleared` are `_Stored`'s.
    """

    algebra: LieSuperAlgebra
    space: SuperSpace
    nonzero: tuple[tuple[tuple[tuple[int, Scalar], ...], ...], ...]

    def __init__(
        self, algebra: LieSuperAlgebra, space: SuperSpace, action: Sequence[GradedLinearMap]
    ):
        self._checked(algebra, space, action, "not a representation")

    def _checked(self, algebra: LieSuperAlgebra, space: SuperSpace, action, refusal: str):
        """Fill self from the checked action, with the view the check read
        from the maps'; a failing check raises `ValueError("<refusal>: ...")`."""
        report, view = _report_and_view(algebra, space, action)
        if not report.ok:
            raise ValueError(f"{refusal}: {report.failures()[0].detail}")
        vars(self).update(algebra=algebra, space=space, nonzero=tuple(m.nonzero for m in action))
        return linalg._with_view(self, view)

    @classmethod
    def _trusted(cls, algebra: LieSuperAlgebra, space: SuperSpace, nonzero) -> "Representation":
        """Build from a finished action table without `check_representation`,
        for a representation by construction or by a check already made."""
        rep = object.__new__(cls)
        vars(rep).update(algebra=algebra, space=space, nonzero=nonzero)
        return rep

    @staticmethod
    def from_images(g: LieSuperAlgebra, space: SuperSpace, images) -> "Representation":
        """images: {algebra label: {space label: {space label: coeff}}};
        omitted algebra labels act by zero."""
        tables = [{}] * g.space.dim
        for lab, table in images.items():
            tables[g.space.index(lab)] = table
        action = tuple(
            GradedLinearMap.from_images(space, space, p, table)
            for p, table in zip(g.space.parities, tables)
        )
        return Representation(g, space, action)

    @cached_property
    def action(self) -> tuple[GradedLinearMap, ...]:
        """The maps rho(e_a), column i of each being nonzero[a][i]; a view."""
        V, P = self.space, self.algebra.space.parities
        return tuple(GradedLinearMap._trusted(V, V, p, row) for p, row in zip(P, self.nonzero))

    @cached_property
    def _joint(self) -> "tuple[int, tuple, tuple]":
        """(L, bracket, action): the algebra's view and this one's at one
        scale L, once per representation, for the O-operator kernel."""
        L, (bracket, action) = linalg._rescaled(2, self.algebra._cleared, self._cleared)
        return L, bracket, action

    @cached_property
    def _grid_tests(self) -> dict:
        """{parity: (order, tests), the grid search's depth order of the
        free positions and its compiled defect polynomials, for the maps
        of that parity into g}, filled by `oop._compiled`."""
        return {}

    def apply_vec(self, x, v):
        """rho(x)v for an algebra coordinate vector x (applied termwise)."""
        return _bilinear(self.nonzero, x, v, self.space.dim)


def adjoint(g: LieSuperAlgebra) -> Representation:
    """The adjoint representation, kept once per algebra object: its table
    is the bracket table, once g's kept `check_lie_axioms` report passes;
    else the first ad map that breaks the grading, or the first Jacobi
    witness, raises as the checked constructors do.  A bracket that fails
    only super skew-symmetry still gets its adjoint."""
    if not check_lie_axioms(g).ok:
        for i, _, _ in _grading_failures(g.space.parities, g.nonzero, EVEN):
            g.ad(i).__post_init__()
        for i, j, _ in g._jacobi_failure:
            L = g.space.labels
            raise ValueError(f"not a representation: fails at pair ({L[i]}, {L[j]})")
    if "_adjoint" not in vars(g):
        ad = Representation._trusted(g, g.space, g.nonzero)
        vars(g)["_adjoint"] = linalg._with_view(ad, g._cleared)
    return g._adjoint


def trivial_rep(g: LieSuperAlgebra, space: SuperSpace) -> Representation:
    return Representation._trusted(g, space, (((),) * space.dim,) * g.space.dim)


def _dual_table(P, Q, table) -> "tuple[tuple[tuple, ...], ...]":
    """The action table of rho* = -rho(x)* from rho's: pair (k, x) of cell
    (a, i) moves to cell (a, k) as (i, x) if e_a and v_k are both odd, else
    (i, -x), in ascending i; P are the parities of the e_a, Q of the v_k."""
    out = []
    for pa, row in zip(P, table):
        cells = [[] for _ in Q]
        for i, col in enumerate(row):
            for k, x in col:
                cells[k].append((i, x if pa & Q[k] else -x))
        out.append(tuple(map(tuple, cells)))
    return tuple(out)


def dual_rep(rho: Representation) -> Representation:
    """(V*, rho*) with <rho*(x)u*, v> = -(-1)^{|x||u*|} <u*, rho(x)v>, and its
    view, rho's signed and moved the same way by `_dual_table`."""
    P, Q, (D, ints) = rho.algebra.space.parities, rho.space.parities, rho._cleared
    drho = Representation._trusted(rho.algebra, rho.space.dual(), _dual_table(P, Q, rho.nonzero))
    return linalg._with_view(drho, (D, _dual_table(P, Q, ints)))


def coadjoint(g: LieSuperAlgebra) -> Representation:
    return dual_rep(adjoint(g))


def _reversed_table(P, table, perm) -> "tuple[tuple[tuple, ...], ...]":
    """The action table of rho^s on sV, rho^s(e_a)(sv) = (-1)^{|e_a|} s(rho(e_a)v),
    from the action table of rho: table[a][i] holds the pairs (k, x) of
    rho(e_a) v_i, P are the parities of the e_a and perm is the suspension's
    permutation of V.  Cell (a, perm[i]) holds the pairs (perm[k], x), with x
    negated for odd e_a.  perm is increasing on each parity block, and a
    cell of a homogeneous action lies in one block, so cells ascending in k
    stay ascending."""
    out = []
    for pa, row in zip(P, table):
        cells = [()] * len(row)
        for i, col in enumerate(row):
            cells[perm[i]] = tuple((perm[k], -x if pa else x) for k, x in col)
        out.append(tuple(cells))
    return tuple(out)


def parity_reverse_rep(rho: Representation) -> Representation:
    """(sV, rho^s) with rho^s(x)(sv) = (-1)^{|x|} s(rho(x)v), and its view."""
    svspace, perm = rho.space.suspended_with_permutation()
    P, (D, ints) = rho.algebra.space.parities, rho._cleared
    srho = Representation._trusted(rho.algebra, svspace, _reversed_table(P, rho.nonzero, perm))
    return linalg._with_view(srho, (D, _reversed_table(P, ints, perm)))


def direct_sum_rep(rho1: Representation, rho2: Representation) -> Representation:
    """Block-diagonal action on `merge_spaces` of the two spaces.  Both
    embeddings are increasing, so embedded columns stay ascending."""
    if rho1.algebra != rho2.algebra:
        raise ValueError("direct sum requires representations of the same algebra")
    total, emb1, emb2 = merge_spaces(rho1.space, rho2.space)
    table = []
    for row1, row2 in zip(rho1.nonzero, rho2.nonzero):
        cells = [()] * total.dim
        for emb, row in ((emb1, row1), (emb2, row2)):
            for i, col in enumerate(row):
                cells[emb[i]] = tuple((emb[k], x) for k, x in col)
        table.append(tuple(cells))
    return Representation._trusted(rho1.algebra, total, tuple(table))


def self_reversing_double(rho: Representation) -> Representation:
    """V (+) sV with the summandwise action; always self-reversing."""
    return direct_sum_rep(rho, parity_reverse_rep(rho))


# ---------------------------------------------------------------------------
# even intertwiners and isomorphism testing


@dataclass(frozen=True)
class IsoSearchResult:
    """Outcome of the invertible-even-intertwiner search.

    status "found" carries the isomorphism and its exact inverse, found
    by the seeded probe or on the grid; "none" is a proof of
    non-isomorphism (the probe's candidate and every grid point singular);
    "inconclusive" only arises in the randomized fallback, past the
    grid's cost cap.
    """

    status: str
    iso: "GradedLinearMap | None" = None
    inverse: "GradedLinearMap | None" = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _intertwiner_system(
    rho1: Representation, rho2: Representation
) -> "tuple[list[tuple[int, int]], list[list[tuple[int, int]]]]":
    """(positions, rows): the unknown entries (k, i) of an even map
    phi: V1 -> V2, and the nonzero rows of the system phi rho1(x) =
    rho2(x) phi, one per entry (k, j) of phi rho1(e_a) - rho2(e_a) phi, in
    (a, k, j) order, each as its (t, x) pairs in no order: x != 0 is the
    coefficient of unknown t times D, the common scale of the two
    representations' integer views, summed on ints; the system is
    homogeneous, so one positive scale leaves its nullspace as it is."""
    V1, V2 = rho1.space, rho2.space
    # unknowns: entries (k, i) with |w_k| = |v_i| (phi is even)
    P1, P2 = V1.parities, V2.parities
    n1, n2 = V1.dim, V2.dim
    positions = [(k, i) for k in range(n2) for i in range(n1) if P2[k] == P1[i]]
    pos_index = {p: t for t, p in enumerate(positions)}
    # the unknowns (k, t) in column i of phi, and (j, t) in its row l
    in_col = [[(k, pos_index[k, i]) for k in range(n2) if P2[k] == P1[i]] for i in range(n1)]
    in_row = [[(j, pos_index[l, j]) for j in range(n1) if P1[j] == P2[l]] for l in range(n2)]
    _, (table1, table2) = linalg._rescaled(2, rho1._cleared, rho2._cleared)
    rows = []
    for columns1, columns2 in zip(table1, table2):
        # (phi m1 - m2 phi)[k][j] = sum_i phi[k][i] m1[i][j] - sum_l m2[k][l] phi[l][j] at
        # key k n1 + j; the first sum meets each unknown of an equation once
        eqs = {}
        for j, col in enumerate(columns1):
            for i, x in col:
                for k, t in in_col[i]:
                    eqs.setdefault(k * n1 + j, {})[t] = x
        for l, col in enumerate(columns2):
            for k, x in col:
                for j, t in in_row[l]:
                    eq = eqs.setdefault(k * n1 + j, {})
                    eq[t] = eq.get(t, 0) - x
        rows += filter(None, ([(t, x) for t, x in eqs[kj].items() if x] for kj in sorted(eqs)))
    return positions, rows


def _intertwiner_basis(rho1: Representation, rho2: Representation) -> "list[list]":
    """The even intertwiners' basis on ints, from `linalg._null_basis` of
    the intertwiner system: per free unknown, the ((k, i), x, q) of its
    map's nonzero entries x / q, reduced with q > 0.  Its callers refuse
    representations of different algebras first."""
    positions, rows = _intertwiner_system(rho1, rho2)
    return [
        [(positions[f], 1, 1)] + [(positions[c], x, q) for c, x, q in pairs]
        for f, pairs in linalg._null_basis(rows, len(positions))
    ]


def _require_common_algebra(rho1: Representation, rho2: Representation):
    if rho1.algebra != rho2.algebra:
        raise ValueError("intertwiners require a common algebra")


def intertwiner_space(rho1: Representation, rho2: Representation) -> list[GradedLinearMap]:
    """Exact basis of {phi even : phi rho1(x) = rho2(x) phi for all x}, the
    maps of the nonzero entries of `_intertwiner_basis`; representations of
    different algebras are refused."""
    _require_common_algebra(rho1, rho2)
    V1, V2 = rho1.space, rho2.space
    return [
        GradedLinearMap._from_entries(V1, V2, EVEN, [(rc, Fraction(x, q)) for rc, x, q in b])
        for b in _intertwiner_basis(rho1, rho2)
    ]


_RANDOM_FALLBACK_TRIES = 200
# the largest grid {0..n}^k scanned, in points times n^3, the order of the
# cost of one elimination of an n x n candidate; larger searches take the
# randomized fallback.  The catalog's largest grid, 9^4 points at n = 8 (the
# self-reversing doubles of ex3.17+-), costs 3,359,232; a dim-99 space with
# k = 2 would cost 9.7e9.
ISO_GRID_COST_CAP = 5_000_000


def find_even_isomorphism(rho1: Representation, rho2: Representation) -> IsoSearchResult:
    """Search the even intertwiner space for an invertible element.

    With phi_1..phi_k a basis of the intertwiner space, det(sum t_a phi_a)
    is a polynomial of total degree <= n = dim V.  One probe comes first:
    the point with entries drawn from 1..8n by a fixed-seed
    `random.Random`.  If an invertible intertwiner exists, the polynomial
    is nonzero and the probe is one of its roots with probability at most
    1/8 (Schwartz-Zippel), so the probe usually settles the search.  When
    its candidate is singular, the grid {0..n}^k is scanned lazily in
    lexicographic order and the first hit is returned; vanishing on the
    whole grid proves that no invertible intertwiner exists.  When the
    grid costs more than ISO_GRID_COST_CAP (points times n^3), counted
    before any scan, up to _RANDOM_FALLBACK_TRIES more random points are
    tried instead, and absence is reported as "inconclusive".

    Each attempt is one `graded._block_inverse` of the candidate summed on
    ints from `_intertwiner_basis`, cleared once by D, the lcm of its q's:
    eliminating its two parity blocks decides nonsingularity and gives the
    exact inverse.  No map and no `Fraction` is built before a hit.
    Representations of different algebras are refused before anything
    else, their dimensions included."""
    _require_common_algebra(rho1, rho2)
    V1, V2 = rho1.space, rho2.space
    if (V1.even_dim, V1.odd_dim) != (V2.even_dim, V2.odd_dim):
        return IsoSearchResult("none")
    basis = _intertwiner_basis(rho1, rho2)
    k = len(basis)
    if k == 0:
        if V1.dim == 0:
            empty = GradedLinearMap.zero(V1, V2, EVEN)
            return IsoSearchResult("found", empty, GradedLinearMap.zero(V2, V1, EVEN))
        return IsoSearchResult("none")
    n = V1.dim
    D = lcm(*(q for entries in basis for _, _, q in entries))
    stored = [[(rc, x * (D // q)) for rc, x, q in entries] for entries in basis]
    rng = random.Random(0x5EBE)  # a fixed seed: the same answer on every run
    probe = [rng.randint(1, 8 * n) for _ in range(k)]
    # (n + 1)^k n^3 grid cost, without forming a huge power: 2^k <= (n + 1)^k
    on_grid = k < ISO_GRID_COST_CAP.bit_length() and (n + 1) ** k * n**3 <= ISO_GRID_COST_CAP
    if on_grid:
        points = itertools.product(range(n + 1), repeat=k)
    else:
        points = (
            [rng.randrange(0, 1 << 20) for _ in range(k)] for _ in range(_RANDOM_FALLBACK_TRIES)
        )
    for ts in itertools.chain([probe], points):
        candidate = {}
        for t, entries in zip(ts, stored):
            if t:
                for rc, x in entries:
                    candidate[rc] = candidate.get(rc, 0) + t * x
        inv = _block_inverse(V2, V1, EVEN, candidate.items())
        if inv is not None:
            # the candidate is D times the intertwiner, its inverse D y / q
            iso = ((rc, Fraction(x, D)) for rc, x in candidate.items())
            inverse = (((i, k), Fraction(D * y, q)) for (i, k), y, q in inv)
            return IsoSearchResult(
                "found",
                GradedLinearMap._from_entries(V1, V2, EVEN, iso),
                GradedLinearMap._from_entries(V2, V1, EVEN, inverse),
            )
    return IsoSearchResult("none" if on_grid else "inconclusive")


def is_intertwiner(phi: GradedLinearMap, rho1: Representation, rho2: Representation) -> bool:
    """phi rho1(x) = rho2(x) phi on every algebra basis element, compared
    column by column on the action tables and phi's columns; representations
    of different algebras are refused."""
    _require_common_algebra(rho1, rho2)
    if phi.domain != rho1.space or phi.codomain != rho2.space:
        return False
    cols = phi.nonzero
    for row1, row2 in zip(rho1.nonzero, rho2.nonzero):
        for j, col in enumerate(row1):
            # column j of phi rho1(e_a) minus column j of rho2(e_a) phi
            terms = [(k, x * y) for i, x in col for k, y in cols[i]]
            diff = {}
            for k, z in terms + [(k, -x * y) for l, y in cols[j] for k, x in row2[l]]:
                diff[k] = diff.get(k, 0) + z
            if any(diff.values()):
                return False
    return True


def _check_isomorphism(phi: GradedLinearMap, rho1: Representation, rho2: Representation):
    """Refuse phi unless it is an even invertible intertwiner rho1 -> rho2;
    an odd phi is refused before it is tested as an intertwiner."""
    if phi.parity != EVEN:
        raise ValueError("phi is not even")
    if not is_intertwiner(phi, rho1, rho2):
        raise ValueError("phi is not an intertwiner between the given representations")
    if not phi.is_invertible():
        raise ValueError("phi is not invertible")


def is_self_reversing(rho: Representation) -> IsoSearchResult:
    return find_even_isomorphism(rho, parity_reverse_rep(rho))


def is_self_dual(rho: Representation) -> IsoSearchResult:
    return find_even_isomorphism(rho, dual_rep(rho))
