"""Super r-matrices and the super classical Yang-Baxter equation.

Pan-supersymmetry, the CYBE defect 3-tensor, both directions of the
r-matrix <-> O-operator correspondence, the induced coadjoint operators,
the 2-cocycle characterization of non-degenerate solutions, the +/- tree
hierarchy, and the same-algebra parity pair for self-reversing
representations.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import linalg
from .graded import (
    EVEN,
    GradedLinearMap,
    Parity,
    SuperSpace,
    Tensor2,
    Tensor3,
    _block_inverse,
    suspend_map,
)
from .liesuper import BilinearForm, LieSuperAlgebra, _semidirect, check_lie_axioms
from .liesuper import _is_two_cocycle
from .oop import _check_candidate
from .reps import Representation, _check_isomorphism, _reversed_table, dual_rep, parity_reverse_rep


@dataclass(frozen=True)
class RMatrix:
    """A homogeneous 2-tensor over a Lie superalgebra."""

    algebra: LieSuperAlgebra
    tensor: Tensor2

    def __post_init__(self):
        if self.tensor.left != self.algebra.space or self.tensor.right != self.algebra.space:
            raise ValueError("tensor does not live on the algebra's space")
        if self.tensor.parity is None:
            raise ValueError("r-matrix candidates must be homogeneous")

    @classmethod
    def _trusted(cls, algebra: LieSuperAlgebra, tensor: Tensor2) -> "RMatrix":
        """The r-matrix of a homogeneous tensor on the algebra's space,
        unchecked: for the tensors a construction writes over its host."""
        r = object.__new__(cls)
        vars(r).update(algebra=algebra, tensor=tensor)
        return r

    @staticmethod
    def from_terms(g: LieSuperAlgebra, terms, parity: "Parity | None" = None) -> "RMatrix":
        t = Tensor2.from_terms(g.space, g.space, terms, parity)
        if t.parity is None:
            # no one parity: the zero tensor defaults to even, other terms fail as even
            t = Tensor2.from_terms(g.space, g.space, terms, EVEN)
        return RMatrix(g, t)

    @property
    def parity(self) -> Parity:
        return self.tensor.parity

    @property
    def space(self) -> SuperSpace:
        return self.algebra.space


def is_pan_supersymmetric(r: RMatrix) -> bool:
    """sigma(r) = -(-1)^{|r|} r: even skew-supersymmetric or odd
    supersymmetric.  On the stored slots: a_ji = -(-1)^{|r| + |e_i||e_j|} a_ij."""
    P = r.space.parities
    slots = dict(r.tensor.entries)
    flip = r.parity ^ 1  # -(-1)^{|r|} is -1 for even r
    return all(
        slots.get((j, i)) == (-a if flip ^ (P[i] & P[j]) else a)
        for (i, j), a in r.tensor.entries
    )


def _scybe_blocks(r: RMatrix) -> "tuple[int, Iterator[dict[int, int]]]":
    """The integer super-CYBE kernel: (scale, blocks).  blocks yields, lazily,
    one dict per last slot index z = 0, ..., n - 1; the dict of z maps
    x n + y to scale times the (x, y, z) slot of [[r, r]], for the slots
    some term reaches.

    Every term is a product of two entries of r and one structure
    constant, so the kernel runs on the one integer view `_cleared` of each:
    r's entries scaled by D (written from its source's for the induced
    tensors and the hierarchy levels) and g's constants by E, so the sums
    are exactly D^2 E [[r, r]] and scale is D^2 E.
    With a_ij the entries of r, the slot (x, y, z) sums three families:

        [r12, r13]:  (-1)^{|y||k|} a_iy a_kz c_ik^x   over i, k;
        [r12, r23]:                a_xj a_kz c_jk^y   over j, k;
        [r13, r23]:  (-1)^{|j||y|} a_xj a_yl c_jl^z   over j, l.

    The first two join column z of r to the cells c_.k through
    `LieSuperAlgebra._scaled_join`'s left[k]; the third runs over its
    into[z], the cells whose output index is z.  r's entries are indexed
    by row and by column once per call, so only the entry pairs that meet
    a nonempty cell are visited.
    """
    g = r.algebra
    n = g.space.dim
    P = g.space.parities
    E, _ = g._cleared
    left, into = g._scaled_join
    D, slots = r.tensor._cleared
    rows = [[] for _ in range(n)]
    cols = [[] for _ in range(n)]
    for (i, j), a in slots:
        rows[i].append((j, a))
        cols[j].append((i, a))
    # the Koszul signs, folded into copies with odd indices negated
    signed_rows = [[(j, -a if P[j] else a) for j, a in row] for row in rows]
    signed_cols = [[(k, -b if P[k] else b) for k, b in col] for col in cols]

    def blocks():
        for z in range(n):
            acc = defaultdict(int)
            for k, b in cols[z]:
                row_of = signed_rows if P[k] else rows
                for x, cell in left[k]:
                    for y, a in row_of[x]:  # [r12, r13]: the cell's output is x
                        ab = a * b
                        for m, c in cell:
                            acc[m * n + y] += ab * c
                    for i, a in cols[x]:  # [r12, r23]: the cell's output is y
                        ab, base = a * b, i * n
                        for m, c in cell:
                            acc[base + m] += ab * c
            for j, l, c in into[z]:  # [r13, r23]
                col = signed_cols[l] if P[j] else cols[l]
                if not col:
                    continue
                for x, a in cols[j]:
                    ac, base = a * c, x * n
                    for y, b in col:
                        acc[base + y] += ac * b
            yield acc

    return D * D * E, blocks()


def scybe_defect(r: RMatrix) -> Tensor3:
    """[[r, r]] = [r12, r13] + [r12, r23] + [r13, r23] as a 3-tensor.

    The three term families carry the displayed Koszul signs: the factor
    (-1)^{|y_i||x_j|} on the first and third, none on the second.

    The sums run on ints in `_scybe_blocks`; every block is collected,
    sorted row-major, and each nonzero slot is divided back into a
    `Fraction` once.
    """
    n = r.space.dim
    scale, blocks = _scybe_blocks(r)
    slots = sorted(
        (xy * n + z, v) for z, block in enumerate(blocks) for xy, v in block.items() if v
    )
    return Tensor3(
        r.space,
        tuple(((s // (n * n), s // n % n, s % n), Fraction(v, scale)) for s, v in slots),
    )


def is_super_rmatrix(r: RMatrix) -> bool:
    """Whether r solves the super CYBE: every integer sum of the
    `_scybe_blocks` kernel is zero.  It stops at the first block with a
    nonzero sum, and builds no `Fraction` and no defect tensor."""
    _, blocks = _scybe_blocks(r)
    return not any(any(block.values()) for block in blocks)


# ---------------------------------------------------------------------------
# tensor <-> operator


def _operator_entries(P, slots):
    """The ((j, i), x) entries of T_r, read off the slots ((j, i), a_ji) of
    the tensor r, whose space has the parities P; the sign is its own
    inverse, so the same rule reads the slots of r off T_r's entries.
    `rmatrix_to_operator` applies it in its own loop, to T_r's entries and
    to their integer view at once."""
    return (((j, i), -a if P[i] else a) for (j, i), a in slots)


def rmatrix_to_operator(r: RMatrix) -> GradedLinearMap:
    """T_r: g* -> g with T_r(e_i*) = (-1)^{|e_i*|} sum_j a_ji e_j.  The
    slots are row-major, so each column's rows j come out ascending.  T_r's
    integer view is r's, signed the same way."""
    P, n = r.space.parities, r.space.dim
    D, slots = r.tensor._cleared
    cols, icols = [[] for _ in range(n)], [[] for _ in range(n)]
    for ((j, i), x), (_, y) in zip(r.tensor.entries, slots):
        if P[i]:  # the sign of `_operator_entries`, on both views
            x, y = -x, -y
        cols[i].append((j, x))
        icols[i].append((j, y))
    t = GradedLinearMap._trusted(r.space.dual(), r.space, r.parity, tuple(map(tuple, cols)))
    return linalg._with_view(t, (D, tuple(map(tuple, icols))))


def operator_to_tensor(t: GradedLinearMap) -> Tensor2:
    """Inverse of rmatrix_to_operator: the 2-tensor a map g* -> g encodes."""
    space = t.codomain
    if t.domain != space.dual():
        raise ValueError("expected a map dual(g) -> g")
    entries = _operator_entries(space.parities, t._entries())
    return Tensor2._from_entries(space, space, entries, t.parity)


# ---------------------------------------------------------------------------
# O-operator -> r-matrix in a semidirect product


# the semidirect hosts depend only on the representation, not on the
# operator, and a hierarchy level's host only on the root algebra and the
# word prefix, not on the tensor; cache them so bulk verdict checks and
# repeated walks build each host once.  The bound keeps a caller that
# generates representations or algebras from holding every host: bulk
# checks reuse a few (perfbench's equivalence workload warms 6
# representations per variant, and its hierarchy workload walks 14
# (algebra, prefix) hosts per pass).
HOST_CACHE_SIZE = 32


@lru_cache(maxsize=HOST_CACHE_SIZE)
def _plain_semidirect(rho: Representation):
    """g |x_{rho*} V*, the host of the plain construction, with the
    positions of its algebra and module slots."""
    drho = dual_rep(rho)
    return _semidirect(rho.algebra, drho.space, drho.nonzero)


@lru_cache(maxsize=HOST_CACHE_SIZE)
def _dual_semidirect(rho: Representation):
    """The host of (rho^s) and its slot positions, with rho^s itself."""
    srho = parity_reverse_rep(rho)
    drho = dual_rep(srho)
    return (*_semidirect(rho.algebra, drho.space, drho.nonzero), srho)


def _pan_supersymmetric_tensor(h, alg_pos, mod_pos, mod_parities, D, entries, parity):
    """The sum over the entries ((k, i), x, y) of
    x (e_k (x) v_i* + (-1)^{(|r|+1)(|v_i|+1)} v_i* (x) e_k) in h, parity |r|,
    where e_k and v_i* sit at positions alg_pos[k] and mod_pos[i] of h.
    Algebra and module positions are disjoint, so no two terms share a slot.
    The entries are every nonzero x of a source map or tensor, with y = D x
    from the source's integer view; the tensor's view is written from the y.
    The host fixes the spaces and the parity of every term is |r|, so the
    r-matrix is built through `RMatrix._trusted`."""
    slots = []
    for (k, i), x, y in entries:
        p, q = alg_pos[k], mod_pos[i]
        slots.append(((p, q), x, y))
        if (parity + 1) * (mod_parities[i] + 1) % 2:
            x, y = -x, -y
        slots.append(((q, p), x, y))
    slots.sort()  # the positions differ, so the values are never compared
    tensor = Tensor2._trusted(h.space, h.space, tuple((pq, x) for pq, x, _ in slots), parity)
    return RMatrix._trusted(h, linalg._with_view(tensor, (D, tuple((pq, y) for pq, _, y in slots))))


def _induced_source(t: GradedLinearMap, rho: Representation, variant: str):
    """What both induced constructions read of (T, rho): the host h with
    its slot positions, the module's parities, the parity of r, and T's
    columns with their integer view at scale D, as the plain construction
    reads them.  The dual variant's are those of (T^s, rho^s): T's
    columns moved along `suspended_with_permutation`, with no T^s built."""
    _check_candidate(t, rho)
    D, ints = t._cleared
    if variant == "plain":
        h, alg_pos, mod_pos = _plain_semidirect(rho)
        return h, alg_pos, mod_pos, rho.space.parities, t.parity, D, t.nonzero, ints
    if variant != "dual":
        raise ValueError(f"unknown variant {variant!r}")
    h, alg_pos, mod_pos, srho = _dual_semidirect(rho)
    _, perm = rho.space.suspended_with_permutation()
    cols, icols = [()] * len(perm), [()] * len(perm)
    for i, p in enumerate(perm):
        cols[p], icols[p] = t.nonzero[i], ints[i]
    return h, alg_pos, mod_pos, srho.space.parities, t.parity ^ 1, D, cols, icols


def operator_to_rmatrix(
    t: GradedLinearMap, rho: Representation, variant: str = "plain"
) -> RMatrix:
    """The pan-supersymmetric tensor a homogeneous map V -> g induces.

    plain: r_T = sum_i (T v_i (x) v_i* + (-1)^{(|T|+1)(|v_i|+1)} v_i* (x) T v_i)
           in g |x_{rho*} V*, parity |T|;
    dual:  r_{T^s} = sum_i (T v_i (x) (s v_i)* + (-1)^{|T||v_i|} (s v_i)* (x) T v_i)
           in g |x_{(rho^s)*} (sV)*, parity |T| + 1, the plain tensor of
           (T^s, rho^s), read off T's columns without building T^s.

    The tensor solves the super CYBE exactly when T satisfies the
    O-operator identity.
    """
    h, alg_pos, mod_pos, P, parity, D, cols, icols = _induced_source(t, rho, variant)
    # T v_i has coordinate x = T[k][i] along e_k, and D x in T's integer view
    entries = [
        ((k, i), x, y)
        for i, (col, icol) in enumerate(zip(cols, icols))
        for (k, x), (_, y) in zip(col, icol)
    ]
    return _pan_supersymmetric_tensor(h, alg_pos, mod_pos, P, D, entries, parity)


def induced_coadjoint_operator(
    t: GradedLinearMap, rho: Representation, variant: str = "plain"
) -> GradedLinearMap:
    """The operator the induced tensor defines on the semidirect product:

    plain: (v_i*)* -> (-1)^{|v_i|} T(v_i),      e_j* -> -(-1)^{|T|} T*(e_j*);
    dual:  ((sv_i)*)* -> (-1)^{|v_i|+1} T(v_i), e_j* -> (-1)^{|T|} (T^s)*(e_j*),
           the plain operator of (T^s, rho^s).

    By the r-matrix <-> O-operator correspondence it is T_r of the induced
    tensor r, under the double-dual identification.  It is written, with
    its integer view, straight from T's entries by the rules that build r
    and read T_r off it, with no tensor in between: the slot (p, q) of r
    is entry (p, q) of T_r, signed by (-1)^{|h_q|}.  It is an O-operator
    for the coadjoint representation of h exactly when T satisfies the
    identity.
    """
    h, alg_pos, mod_pos, P, parity, D, cols, icols = _induced_source(t, rho, variant)
    H = h.space.parities
    out, iout = [[] for _ in H], [[] for _ in H]
    for i, (col, icol) in enumerate(zip(cols, icols)):
        q = mod_pos[i]
        # slot (p, q) = x, and slot (q, p) = x with the sign of
        # `_pan_supersymmetric_tensor`
        mirror = (parity + 1) * (P[i] + 1) % 2
        for (k, x), (_, y) in zip(col, icol):
            p = alg_pos[k]
            out[q].append((p, -x) if P[i] else (p, x))
            iout[q].append((p, -y) if P[i] else (p, y))
            # the modules' positions ascend with i, so column p stays sorted
            out[p].append((q, -x) if mirror ^ H[p] else (q, x))
            iout[p].append((q, -y) if mirror ^ H[p] else (q, y))
    op = GradedLinearMap._trusted(h.space.dual(), h.space, parity, tuple(map(tuple, out)))
    return linalg._with_view(op, (D, tuple(map(tuple, iout))))


# ---------------------------------------------------------------------------
# 2-cocycles from non-degenerate tensors


class DegenerateRMatrix(Exception):
    pass


def _beta(r: RMatrix) -> "tuple[BilinearForm, list[dict[int, int]]]":
    """(beta, B): beta_r(u, v) = <T_r^{-1} u, v>, and its Gram matrix at one
    nonzero integer scale, B[i] mapping each j with beta(e_i, e_j) != 0 to
    the scaled entry, for the int flag kernels of `liesuper`.

    r's integer view, by D, is signed into T_r's entries; no map T_r is
    built.  One
    `_block_inverse` gives the inverse of D T_r as y / q, with q the
    Bareiss pivot of its row, so beta's entries are D y / q, and B is the
    inverse at the scale Q, the lcm of the pivots: B holds y Q / q, which
    is Q / D times beta."""
    D, slots = r.tensor._cleared
    operator = _operator_entries(r.space.parities, slots)
    inv = _block_inverse(r.space, r.space.dual(), r.parity, operator)
    if inv is None:
        raise DegenerateRMatrix("the tensor is degenerate (T_r is singular)")
    # row i of the Gram matrix is the image of e_i under T_r^{-1}
    inv.sort(key=lambda e: (e[0][1], e[0][0]))
    beta = BilinearForm._trusted(
        r.space, tuple(((i, j), Fraction(D * y, q)) for (j, i), y, q in inv), r.parity
    )
    Q = lcm(*(q for _, _, q in inv))
    B = [{} for _ in range(r.space.dim)]
    for (j, i), y, q in inv:
        B[i][j] = y * (Q // q)
    return beta, B


def beta_form(r: RMatrix) -> BilinearForm:
    """beta_r(u, v) = <T_r^{-1} u, v> for non-degenerate r."""
    return _beta(r)[0]


def beta_cocycle_check(r: RMatrix) -> "tuple[BilinearForm, bool]":
    """The induced form and whether (defect vanishes) == (2-cocycle).

    The boolean must always be true for pan-supersymmetric non-degenerate
    input; a false return is a library-bug sentinel.  Only the 2-cocycle
    flag is decided, on `_beta`'s integer Gram matrix: beta is
    non-degenerate by construction, as the inverse of T_r.
    """
    beta, B = _beta(r)
    return beta, is_super_rmatrix(r) == _is_two_cocycle(B, r.algebra)


# ---------------------------------------------------------------------------
# the +/- hierarchy


class HierarchyError(Exception):
    pass


class HierarchyCapExceeded(Exception):
    pass


# every letter doubles the dimension; 256 is a depth-7 walk from dim 2
HIERARCHY_DIM_CAP = 256


def _host(g: LieSuperAlgebra, letter: str):
    """The host of the level after any tensor over g, with what places
    the tensor in it: (h, alg_pos, mod_pos, module parities, perm).  h is
    g |x_ad g for '+' and g |x_{ad^s} sg for '-'; perm is the suspension's
    permutation for '-' and None for '+'.  The letter picks only the
    module space and the action table; both letters then make the same
    `_semidirect` call."""
    if letter == "+":
        # ad(e_a) e_j = [e_a, e_j] is the bracket table's cell (a, j)
        V, perm, action = g.space, None, g.nonzero
    else:
        # the parity reverse of the adjoint's table
        V, perm = g.space.suspended_with_permutation()
        action = _reversed_table(g.space.parities, g.nonzero, perm)
    return (*_semidirect(g, V, action), V.parities, perm)


@lru_cache(maxsize=HOST_CACHE_SIZE)
def _level(root: LieSuperAlgebra, prefix: str):
    """The host after the letters of prefix from root, as `_host` gives
    it, its algebra first; (root,) for the empty prefix.  A key hashes
    only root and a short string, so an algebra equal to one already
    walked is that same object, with its kept report and views."""
    if not prefix:
        return (root,)
    return _host(_level(root, prefix[:-1])[0], prefix[-1])


# each step takes g to a semidirect product of g with a representation,
# again a Lie superalgebra, so once hierarchy_trace has checked the root,
# `_semidirect` hands every level the root's passing report: no level is
# checked.  The host depends only on g and the letter, so hierarchy_trace
# shares it between walks through `_level`; the tensor is written per call
def _step(r: RMatrix, letter: str, host=None) -> RMatrix:
    """The level after r: the induced tensor of the operator r defines, in
    g |x_ad g for '+', or of its parity dual, in g |x_{ad^s} sg for '-'.
    host is `_host(r.algebra, letter)`, built when not given.  The letter
    picks only the tensor entries and the parity; both letters then make
    the same `_pan_supersymmetric_tensor` call, and neither builds a map."""
    h, alg_pos, mod_pos, module_parities, perm = host or _host(r.algebra, letter)
    # each slot with its value in r's integer view
    D, ints = r.tensor._cleared
    slots = ((ji, a, b) for (ji, a), (_, b) in zip(r.tensor.entries, ints))
    if letter == "+":
        # coefficient a_ji sits at tensor slot (j, i)
        entries, parity = slots, r.parity
    else:
        # slot (j, i) moves to (j, si) with the sign (-1)^{|e_i|}
        P = r.space.parities
        entries = (
            ((j, perm[i]), -a, -b) if P[i] else ((j, perm[i]), a, b) for (j, i), a, b in slots
        )
        parity = r.parity ^ 1
    return _pan_supersymmetric_tensor(h, alg_pos, mod_pos, module_parities, D, entries, parity)


def hierarchy_trace(g: LieSuperAlgebra, r: RMatrix, word: str) -> list[RMatrix]:
    """Apply the letters of word left to right; one output per level.

    Requires a Lie superalgebra and a pan-supersymmetric solution of the
    super CYBE over it to start; every level then remains one, so the
    levels are not checked again.  The root's Lie check runs once per
    algebra value: an algebra equal to one already walked is read through
    `_level` as that same object, with its kept report.  The tensor is
    checked on every call.  The hosts are shared between walks over equal
    algebras; each level's tensor is written from r's entries.  A word
    longer than any walk under HIERARCHY_DIM_CAP can be, or whose last
    level would pass it, is refused before any check.
    """
    longest = HIERARCHY_DIM_CAP.bit_length() - 1
    dim, steps = g.space.dim, len(word)
    if steps > longest:
        raise HierarchyCapExceeded(
            f"a {steps}-letter word is longer than {longest} letters, the longest walk "
            f"the dimension cap {HIERARCHY_DIM_CAP} admits"
        )
    if dim << steps > HIERARCHY_DIM_CAP:
        raise HierarchyCapExceeded(
            f"a {steps}-letter word over a dim-{dim} algebra ends above the dimension cap "
            f"{HIERARCHY_DIM_CAP}"
        )
    if r.algebra != g:
        raise ValueError("tensor does not live over the given algebra")
    (g,) = _level(g, "")
    failures = check_lie_axioms(g).failures()
    if failures:
        item = failures[0]
        raise HierarchyError(f"the algebra is not a Lie superalgebra: {item.name} {item.detail}")
    # r over the walked object, whose kept views the CYBE check reads
    current = RMatrix._trusted(g, r.tensor)
    if not is_pan_supersymmetric(current):
        raise HierarchyError("the starting tensor is not pan-supersymmetric")
    if not is_super_rmatrix(current):
        raise HierarchyError("the starting tensor does not solve the super CYBE")
    levels = []
    for depth, letter in enumerate(word, start=1):
        if letter not in ("+", "-"):
            raise HierarchyError(f"hierarchy word letters must be + or -, got {letter!r}")
        current = _step(current, letter, _level(g, word[:depth]))
        levels.append(current)
    return levels


def hierarchy_walk(g: LieSuperAlgebra, r: RMatrix, word: str) -> RMatrix:
    levels = hierarchy_trace(g, r, word)
    return levels[-1] if levels else r


# ---------------------------------------------------------------------------
# same-algebra parity pair


def same_algebra_pair(
    t: GradedLinearMap, rho: Representation, phi: GradedLinearMap
) -> "tuple[RMatrix, RMatrix]":
    """(r_T, r_{T^s}) both in g |x_{rho*} V*, for self-reversing (V, rho).

    phi must be an even invertible intertwiner V -> sV; the second tensor
    is induced by the transported operator T^s phi and satisfies
    r_{T^s} = sum_i (T^s phi(v_i) (x) v_i*
                     + (-1)^{|T|+|T||v_i|} v_i* (x) T^s phi(v_i)).
    """
    _check_isomorphism(phi, rho, parity_reverse_rep(rho))
    r_plain = operator_to_rmatrix(t, rho, "plain")
    transported = suspend_map(t).compose(phi)
    r_dual = operator_to_rmatrix(transported, rho, "plain")
    return r_plain, r_dual
