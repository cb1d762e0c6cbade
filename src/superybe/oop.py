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

`oop_holds`, `is_rota_baxter` and the grid search read the pairs of
`_read_pairs`.  The identity is super skew-symmetric in its arguments,

    Op(v_j, v_i) = -(-1)^{(|T|+|v_i|)(|T|+|v_j|)} Op(v_i, v_j),

so a pair (i, j) with i > j vanishes exactly when (j, i) does, and
Op(v_i, v_i) = 0 whenever |T| + |v_i| is even.  The action terms swap
into each other with these signs by the Koszul rule alone; the bracket
term needs the super skew-symmetry of g.  So they read only the
super-skew half, `_pairs`, when g's kept flag `_skew_failure` (the n^2/2
comparisons that `check_lie_axioms`' skew item reads) is empty, and all
n^2 pairs otherwise, and their verdicts are always `is_oop`'s.

The grid search runs `_defect` itself over a polynomial ring, `_Poly`:
on columns whose free entries are variables, it gives every defect
coordinate of every read pair as a quadratic form in them, compiled once
per representation and parity.  From the supports of the distinct forms
it chooses, once, the order in which the walk fixes the free positions,
so that each form is tested as early as it can be: the next position is
the one that completes the most forms, then the one that appears in the
most.  The pair (order, tests) is kept on the representation, next to
`_joint`, as `Representation._grid_tests`.  Each polynomial is tested at
the depth of its last variable x_d, where it splits as
a + x_d l + q x_d^2 with a and l over the assigned prefix: a node of
depth d evaluates each a and l once, each candidate value then costs one
a + v (l + v q), and a depth where no polynomial ends costs nothing.
The walk keeps digit tuples, refused past GRID_SEARCH_SOLUTIONS_CAP as
they accumulate; only the accepted tuples, sorted into row-major order,
become maps, each written once from its digits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter

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
            cell = row[b]
            if cell:
                xy = xa * yb
                for k, c in cell:
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
    """The super-skew half of the basis pairs, for a map of the given
    parity on a space with the parities P: (i, j) with i < j, and (i, i)
    only where |T| + |v_i| is odd; in row-major order.  Over a super
    skew-symmetric g the other pairs follow (see the module docstring)."""
    n = len(P)
    for i in range(n):
        if P[i] != parity:
            yield i, i
        for j in range(i + 1, n):
            yield i, j


def _read_pairs(rho: Representation, parity: Parity):
    """The basis pairs `oop_holds` and the grid search read: `_pairs` when
    g's bracket is super skew-symmetric, as g's kept `_skew_failure`
    decides, else all n^2 pairs."""
    P = rho.space.parities
    if rho.algebra._skew_failure:
        return itertools.product(range(len(P)), repeat=2)
    return _pairs(P, parity)


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
    n^2 pairs are computed.  The verdict is `oop_holds`'s."""
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
    """Boolean fast path over `_read_pairs`, with early exit on the first
    nonzero defect, which never leaves the ints; the verdict is
    `is_oop`'s."""
    _check_candidate(t, rho)
    defects, _ = _defects(t, rho, _read_pairs(rho, t.parity))
    return not any(defects)


def is_rota_baxter(r: GradedLinearMap, g: LieSuperAlgebra) -> bool:
    """[Rx, Ry] = R((-1)^{(|R|+|x|)|R|}[Rx, y] + [x, Ry]) on basis pairs:
    the O-operator identity for `adjoint(g)`, kept once per algebra object,
    which reads g's kept `check_lie_axioms` report and refuses as it does;
    its verdict is `oop_holds`'s."""
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


class _Poly(dict):
    """A polynomial with int coefficients: {monomial: c}, every c != 0, a
    monomial the sorted tuple of its variables, repeats included.  It is
    the ring `_defect` runs over when T's free entries are variables, so
    it has what `_defect` uses: +, -, * by a `_Poly` or an int, unary -,
    truth, and int 0 on the left of + and -, where its sums start."""

    __slots__ = ()

    @staticmethod
    def _summed(terms) -> "_Poly":
        """The sum of the (monomial, c) terms."""
        out = {}
        for m, c in terms:
            out[m] = out.get(m, 0) + c
        return _Poly({m: c for m, c in out.items() if c})

    @staticmethod
    def _of(x) -> "_Poly":
        return x if isinstance(x, _Poly) else _Poly({(): x} if x else {})

    def __add__(self, other):
        return _Poly._summed([*self.items(), *_Poly._of(other).items()])

    __radd__ = __add__

    def __neg__(self):
        return _Poly({m: -c for m, c in self.items()})

    def __sub__(self, other):
        return self + -_Poly._of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _Poly._of(other).items()
        return _Poly._summed((tuple(sorted(m + n)), c * e) for m, c in self.items() for n, e in other)

    __rmul__ = __mul__


def _earliest_order(supports, n: int) -> list:
    """depth[x] for the variables x < n of polynomials with the given
    supports (sets of variables), chosen greedily, depth 0 first: the
    next depth takes the unset variable that completes the most
    polynomials (those whose only unset variable it is), then the one
    that appears in the most, then the lowest x.  A count of unset
    variables per polynomial is kept, so a pick updates only the
    polynomials in which its variable appears."""
    containing = [[] for _ in range(n)]
    for p, support in enumerate(supports):
        for x in support:
            containing[x].append(p)
    unset = [len(support) for support in supports]
    completes = [0] * n
    for support in supports:
        if len(support) == 1:
            (x,) = support
            completes[x] += 1
    depth = [None] * n
    free = list(range(n))
    for d in range(n):
        x = max(free, key=lambda x: (completes[x], len(containing[x]), -x))
        free.remove(x)
        depth[x] = d
        for p in containing[x]:
            unset[p] -= 1
            if unset[p] == 1:
                (last,) = (y for y in supports[p] if depth[y] is None)
                completes[last] += 1
    return depth


def _compiled(rho: Representation, parity: Parity, positions) -> tuple:
    """(order, tests): the grid search's depth order and tests for maps of
    the given parity on rho, whose free positions (k, i) are positions;
    kept on rho per parity, in `Representation._grid_tests`.

    One run of `_defect` on columns of variables, x the x-th free position
    in column-major order, over each pair of `_read_pairs`, gives each
    defect coordinate as a quadratic form p in them, scaled by L.  Only
    its zeros matter, so each nonzero p is divided by the gcd of its
    coefficients and signed so that its least monomial's is positive, and
    each distinct p is kept once.  From their supports `_earliest_order`
    chooses the depth of each position, once; order lists the positions
    by depth.  With its variables renamed to depths, each p sits in
    tests[d] for its last variable x_d, as the triple (a, l, q) with
    p = a + x_d l + q x_d^2: a holds the (c, x, y) of the terms c x_x x_y
    and l the (c, x) of c x_x x_d, both over x, y < d, and q is an int."""
    kept = rho._grid_tests.get(parity)
    if kept is None:
        V = rho.space
        column_major = sorted(positions, key=lambda ki: (ki[1], ki[0]))
        cols = [[] for _ in range(V.dim)]
        for x, (k, i) in enumerate(column_major):
            cols[i].append((k, _Poly({(x,): 1})))
        polys = {}  # each distinct p once, in the order first found
        for i, j in _read_pairs(rho, parity):
            for p in _defect(rho._joint, V.parities, parity, cols, i, j).values():
                unit = gcd(*p.values()) * (1 if p[min(p)] > 0 else -1)
                polys[frozenset((m, c // unit) for m, c in p.items())] = None
        depth = _earliest_order([{x for m, _ in p for x in m} for p in polys], len(column_major))
        order = [None] * len(column_major)
        for x, ki in enumerate(column_major):
            order[depth[x]] = ki
        tests = [[] for _ in order]
        for p in polys:
            terms = sorted((tuple(sorted(depth[x] for x in m)), c) for m, c in p)
            d = max(m[-1] for m, _ in terms)
            a, l, q = [], [], 0
            for m, c in terms:
                if m[-1] != d:
                    a.append((c, *m))
                elif m[0] != d:
                    l.append((c, m[0]))
                else:
                    q = c
            tests[d].append((tuple(a), tuple(l), q))
        kept = rho._grid_tests[parity] = (order, tests)
    return kept


class GridSearchCapExceeded(Exception):
    pass


GRID_SEARCH_CAP = 10**8
# the most solutions one search may return; the digit tuples are counted
# as the walk accepts them, before any map is built
GRID_SEARCH_SOLUTIONS_CAP = 2**16


def _walk(tests, values) -> list:
    """The digit tuples, one digit per depth, whose values every test of
    `_compiled` sends to zero, depth first in lexicographic order.  A node
    of depth d evaluates each test's a and l once, and each value v left
    then costs one a + v (l + v q); a depth with no test keeps every
    value, and a value that one test rejects is tried on no other.  It
    refuses with `GridSearchCapExceeded` at the first tuple past
    GRID_SEARCH_SOLUTIONS_CAP."""
    every = range(len(values))
    vals = [0] * len(tests)  # the scaled values of the assigned depths
    digits = [0] * len(tests)

    def allowed(d):
        """The digits depth d may take under the values of depths < d."""
        kept = every
        for a_terms, l_terms, q in tests[d]:
            a = l = 0
            for c, x, y in a_terms:
                a += c * vals[x] * vals[y]
            for c, x in l_terms:
                l += c * vals[x]
            if l or q:
                kept = [n for n in kept if not a + values[n] * (l + values[n] * q)]
                if not kept:
                    break
            elif a:
                return ()
        return kept

    accepted = [] if tests else [()]
    stack = [iter(allowed(0))] if tests else []  # the digits left to try per depth
    while stack:
        d = len(stack) - 1
        digit = next(stack[d], None)
        if digit is None:
            stack.pop()
            continue
        digits[d], vals[d] = digit, values[digit]
        if d + 1 < len(tests):
            stack.append(iter(allowed(d + 1)))
        elif len(accepted) < GRID_SEARCH_SOLUTIONS_CAP:
            accepted.append(tuple(digits))
        else:
            raise GridSearchCapExceeded(
                f"more than {GRID_SEARCH_SOLUTIONS_CAP} solutions: the search exceeds "
                f"the solutions cap {GRID_SEARCH_SOLUTIONS_CAP}"
            )
    return accepted


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

    The free positions are assigned depth first by `_walk`, in the order
    `_compiled` chose and kept with the tests: a node keeps only the
    values of its position that every defect polynomial ending there
    sends to zero, so a subtree is cut at its first nonzero defect.  The
    accepted digit tuples are sorted into row-major order, and only they
    become maps, each column written once from the digits, with zero
    values dropped on their ints.  The entry set is scaled to ints once.
    GRID_SEARCH_CAP bounds the full grid, len(entry_set) ** (number of
    free positions), pruned or not, and is checked before any search or
    compiling; GRID_SEARCH_SOLUTIONS_CAP bounds the solutions, and is
    checked as the walk accepts them.  A grid of one candidate or none is
    decided on ints with nothing compiled."""
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

    if len(values) < 2:
        # one candidate at most, whose free positions the cap does not
        # bound: it is tested as it stands, on ints, with nothing compiled
        cols = [[] for _ in range(V.dim)]
        if values and values[0]:
            for k, i in positions:
                cols[i].append((k, values[0]))
        tables, P = rho._joint, V.parities
        holds = not any(_defect(tables, P, parity, cols, i, j) for i, j in _read_pairs(rho, parity))
        order, accepted = positions, [(0,) * nfree] if holds and (values or not nfree) else []
    else:
        order, tests = _compiled(rho, parity, positions)
        accepted = _walk(tests, values)

    depth = {ki: d for d, ki in enumerate(order)}
    if len(accepted) > 1:
        accepted.sort(key=itemgetter(*(depth[ki] for ki in positions)))
    # each column's free rows, in ascending k, with the depth of each
    layout = [[] for _ in range(V.dim)]
    for k, i in positions:
        layout[i].append((k, depth[k, i]))
    return [
        GradedLinearMap._trusted(
            V,
            cod,
            parity,
            tuple(
                tuple((k, entries[digits[d]]) for k, d in col if values[digits[d]])
                for col in layout
            ),
        )
        for digits in accepted
    ]
