"""Lie superalgebras by structure constants.

Axiom verification, bilinear-form classification, the semidirect product
with a module, and the transport between O-operators for the coadjoint
action and Rota-Baxter operators along an even invariant form.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Mapping, TYPE_CHECKING

from .graded import (
    EVEN,
    ZERO,
    GradedLinearMap,
    Parity,
    RationalLike,
    Scalar,
    SuperSpace,
    _block_nonsingular,
    _check_homogeneous,
    _dense_cells,
    _dense_slots,
    _scanned_slots,
    _Stored,
    merge_spaces,
    rat,
)

if TYPE_CHECKING:
    from .reps import Representation


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    """Per-axiom pass/fail with the first offending witness."""

    items: tuple[CheckItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self):
        return [item for item in self.items if not item.ok]

    def __str__(self):
        lines = []
        for item in self.items:
            status = "pass" if item.ok else "FAIL"
            suffix = f" ({item.detail})" if item.detail else ""
            lines.append(f"{item.name}: {status}{suffix}")
        return "\n".join(lines)


def _sparse_table(n: int, entries) -> tuple[tuple[tuple[tuple[int, Scalar], ...], ...], ...]:
    """table[i][j]: the ascending (k, c), c != 0, of entries ((i, j, k), c), one per position;
    only the nonempty cells are built and sorted, and the empty ones share ()."""
    cells: dict = {}
    for (i, j, k), c in entries:
        if c != 0:
            cells.setdefault((i, j), []).append((k, c))
    rows = [[()] * n for _ in range(n)]
    for (i, j), cell in cells.items():
        rows[i][j] = tuple(sorted(cell))
    return tuple(map(tuple, rows))


def _partner(cell, odd: bool):
    """The cell c_ji of a bracket cell c_ij by the sign rule
    c_ji^k = -(-1)^{|e_i||e_j|} c_ij^k, where odd = |e_i||e_j|."""
    return cell if odd else tuple((k, -c) for k, c in cell)


def _write_bracket(rows, space: SuperSpace, i: int, j: int, cell) -> None:
    """Write the entry [e_i, e_j] = cell, a finished cell, and its partner
    (j, i) into the rows of a `nonzero` table.  Super skew-symmetry fixes
    the rest, so only i <= j entries are given and an even diagonal
    vanishes; anything else raises ValueError."""
    L, P = space.labels, space.parities
    if i > j:
        raise ValueError(f"bracket entry [{L[i]}, {L[j]}] out of order; give the i <= j pair")
    if i == j and P[i] == EVEN and cell:
        raise ValueError(f"[{L[i]}, {L[i]}] must vanish for even {L[i]}")
    rows[i][j] = cell
    if i < j:
        rows[j][i] = _partner(cell, P[i] & P[j])


def _scanned_cells(n: int, table, message: str):
    """The sparse table of a dense n x n x n array, the inverse of
    `graded._dense_cells`, scanned as an n x n array of cells by
    `graded._scanned_slots`; ValueError(message) on another shape."""
    cells = _scanned_slots(table, n, n, message)
    if any(len(entry) != n for _, entry in cells):
        raise ValueError(message)
    entries = (((i, j, k), c) for (i, j), entry in cells for k, c in enumerate(entry))
    return _sparse_table(n, entries)


def _bilinear(table, x, y, dim: int) -> tuple[Scalar, ...]:
    """sum_ij x_i y_j e_i e_j, a vector of length dim, for the product with the
    sparse table `table`: table[i][j] holds the pairs (k, c) of e_i e_j."""
    out = [ZERO] * dim
    ys = [(j, yj) for j, yj in enumerate(y) if yj != 0]
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = table[i]
        for j, yj in ys:
            coeff = xi * yj
            for k, c in row[j]:
                out[k] += coeff * c
    return tuple(out)


@dataclass(frozen=True, init=False)
class LieSuperAlgebra(_Stored, table="nonzero", depth=2):
    """Structure constants c_ij^k with [e_i, e_j] = sum_k c_ij^k e_k.

    Stored as `nonzero`, which every kernel reads: nonzero[i][j] holds the
    pairs (k, c_ij^k) with c_ij^k != 0 in ascending k.  The public
    constructor scans a dense array once and keeps no copy; constructions
    use `_from_entries`, or `_trusted` when they hold the finished table.
    The dense `structure` view is built on read; the hash and the integer
    view `_cleared`, which every integer kernel reads, are `_Stored`'s.
    The constructor checks no axiom; `check_lie_axioms` verifies them once
    per object and keeps the report, as `_report`.  Its super
    skew-symmetry item reads `_skew_failure`, kept per object, which the
    O-operator verdicts of `superybe.oop` also read.
    """

    space: SuperSpace
    nonzero: tuple[tuple[tuple[tuple[int, Scalar], ...], ...], ...]

    def __init__(self, space: SuperSpace, structure):
        nonzero = _scanned_cells(space.dim, structure, "structure constant shape mismatch")
        vars(self).update(space=space, nonzero=nonzero)

    @classmethod
    def _trusted(cls, space: SuperSpace, nonzero) -> "LieSuperAlgebra":
        """Build from a finished `nonzero` table, with no regrouping, zero
        filter or sort: every cell holds nonzero pairs in ascending k."""
        g = object.__new__(cls)
        vars(g).update(space=space, nonzero=nonzero)
        return g

    @classmethod
    def _from_entries(cls, space: SuperSpace, entries) -> "LieSuperAlgebra":
        """The algebra with the given ((i, j, k), c) structure constants,
        each position given at most once, and zeros elsewhere."""
        return cls._trusted(space, _sparse_table(space.dim, entries))

    @staticmethod
    def from_brackets(
        space: SuperSpace,
        brackets: Mapping["tuple[str, str]", Mapping[str, RationalLike]],
    ) -> "LieSuperAlgebra":
        """Build from i <= j bracket entries; `_write_bracket` writes each
        with its partner by the sign rule c_ji^k = -(-1)^{|e_i||e_j|} c_ij^k,
        and refuses i > j entries and nonzero even diagonals."""
        n = space.dim
        rows = [[()] * n for _ in range(n)]
        for (a, b), terms in brackets.items():
            value = ((space.index(label), rat(x)) for label, x in terms.items())
            cell = tuple(sorted((k, x) for k, x in value if x))
            _write_bracket(rows, space, space.index(a), space.index(b), cell)
        return LieSuperAlgebra._trusted(space, tuple(map(tuple, rows)))

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def structure(self) -> tuple[tuple[tuple[Scalar, ...], ...], ...]:
        """The dense array structure[i][j][k] = c_ij^k; a derived view."""
        return _dense_cells(self.nonzero, self.space.dim)

    @cached_property
    def _scaled_join(self) -> "tuple[tuple, tuple]":
        """(left, into), the two indexes the super-CYBE kernel joins r
        through, read off `_cleared`'s table C: left[k] holds the
        pairs (x, C[x][k]) with a nonempty cell, and into[z] the triples
        (j, l, E c_jl^z) with c_jl^z != 0, in row-major (j, l) order."""
        _, C = self._cleared
        n = self.space.dim
        left = [[] for _ in range(n)]
        into = [[] for _ in range(n)]
        for x, row in enumerate(C):
            for k, cell in enumerate(row):
                if cell:
                    left[k].append((x, cell))
                for m, c in cell:
                    into[m].append((x, k, c))
        return tuple(map(tuple, left)), tuple(map(tuple, into))

    @cached_property
    def _skew_failure(self) -> "tuple[tuple[int, int], ...]":
        """The first (i, j) at which c_ij^k != -(-1)^{|e_i||e_j|} c_ji^k for
        some k, or () when the bracket is super skew-symmetric.  The failing
        pairs are symmetric, so the n^2/2 pairs i <= j decide it."""
        C, P, n = self.nonzero, self.space.parities, self.dim
        pairs = (
            (i, j)
            for i in range(n)
            for j in range(i, n)
            if C[i][j] != _partner(C[j][i], P[i] & P[j])
        )
        return tuple(islice(pairs, 1))

    @cached_property
    def _jacobi_failure(self) -> "tuple[tuple[int, int, int], ...]":
        """The first failing (i, j, k) of the super Jacobi identity, or ()."""
        C = self._cleared[1]
        return tuple(islice(_hom_failures(self.space.parities, C, C, self.dim), 1))

    def bracket(self, x, y) -> tuple[Scalar, ...]:
        """[x, y] for coordinate vectors x, y."""
        return _bilinear(self.nonzero, x, y, self.space.dim)

    def ad(self, i: int) -> GradedLinearMap:
        """The adjoint action of e_i, unchecked: column j is nonzero[i][j]."""
        return GradedLinearMap._trusted(
            self.space, self.space, self.space.parities[i], self.nonzero[i]
        )

    def is_abelian(self) -> bool:
        return not any(entry for row in self.nonzero for entry in row)


def _first_failure(name: str, witnesses) -> CheckItem:
    """The check item for the first witness detail, passing when none."""
    detail = next(iter(witnesses), None)
    return CheckItem(name, detail is None, detail or "")


def _grading_failures(P, table, shift):
    """The (i, j, k), in lexicographic order, at which the sparse product
    table has a component along e_k although P_k != P_i + P_j + shift."""
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            for k, _ in cell:
                if P[k] != (P[i] + P[j] + shift) % 2:
                    yield i, j, k


def _hom_failures(P, bracket, action, m):
    """The (i, j, v), in lexicographic order, at which
    A_i A_j - (-1)^{P_i P_j} A_j A_i - sum_k c_ij^k A_k is nonzero on e_v.

    bracket[i][j] holds the pairs (k, L c_ij^k) and action[a][v] the pairs
    (q, L y) of A_a e_v, sparse integer views at one scale L; v runs over
    the m basis vectors the A_a act on.  Every term is a product of two
    scaled entries, so each defect is summed on ints as L^2 times the
    defect, which vanishes exactly where the defect does.
    It is the one quadratic identity of the axiom checks: with A_a =
    rho(e_a) it says that rho is a representation, with A_a = ad(e_a)
    the super Jacobi identity, and with left multiplication the
    left-symmetric associator.
    """
    n = len(P)
    for i in range(n):
        Ai = action[i]
        for j in range(n):
            Aj, Cij = action[j], bracket[i][j]
            odd = P[i] & P[j]
            for v in range(m):
                defect: dict = {}
                for k, x in Aj[v]:
                    for q, y in Ai[k]:
                        defect[q] = defect.get(q, 0) + y * x
                for k, x in Ai[v]:
                    x = x if odd else -x  # the sign of -(-1)^{P_i P_j} A_j A_i
                    for q, y in Aj[k]:
                        defect[q] = defect.get(q, 0) + y * x
                for k, c in Cij:
                    for q, y in action[k][v]:
                        defect[q] = defect.get(q, 0) - c * y
                if any(defect.values()):
                    yield i, j, v


def check_lie_axioms(g: LieSuperAlgebra) -> CheckReport:
    """Verify parity consistency, super skew-symmetry and the super Jacobi
    identity exhaustively; each axiom reports its first offending triple,
    the last two read off g's kept `_skew_failure` and `_jacobi_failure`.
    The Jacobi defect at (i, j, k) is that of ad being a representation,
    on e_k: column k of ad(e_a) is nonzero[a][k].  Kept on g as `_report`."""
    if "_report" in vars(g):
        return g._report
    L = g.space.labels
    P = g.space.parities
    skew = (
        f"[{L[i]}, {L[j]}] != -(-1)^(|{L[i]}||{L[j]}|) [{L[j]}, {L[i]}]"
        for i, j in g._skew_failure
    )
    parity = (
        f"[{L[i]}, {L[j]}] has a component along {L[k]} of wrong parity"
        for i, j, k in _grading_failures(P, g.nonzero, EVEN)
    )
    jacobi = (f"fails at triple ({L[i]}, {L[j]}, {L[k]})" for i, j, k in g._jacobi_failure)
    vars(g)["_report"] = CheckReport(
        (
            _first_failure("parity consistency", parity),
            _first_failure("super skew-symmetry", skew),
            _first_failure("super Jacobi", jacobi),
        )
    )
    return g._report


# ---------------------------------------------------------------------------
# bilinear forms


@dataclass(frozen=True, init=False)
class BilinearForm(_Stored, table="entries", depth=0):
    """A homogeneous bilinear form, stored as its nonzero slots ((i, j),
    beta(e_i, e_j)) in row-major order, with the Gram matrix `gram` a
    derived view.  An even form vanishes on mixed-parity pairs, an odd form
    on equal-parity pairs: checked once, by the public constructor and
    `from_terms`; `beta_form` builds its form unchecked, by `_trusted`.
    The slot code is `Tensor2`'s, and the hash and the integer view are
    `_Stored`'s.
    """

    space: SuperSpace
    entries: tuple[tuple[tuple[int, int], Scalar], ...]
    parity: Parity

    def __init__(self, space: SuperSpace, gram, parity: Parity):
        entries = _scanned_slots(gram, space.dim, space.dim, "Gram matrix shape mismatch")
        vars(self).update(space=space, entries=entries, parity=parity)
        self.__post_init__()

    def __post_init__(self):
        message = "form entry ({}, {}) violates declared parity {}"
        _check_homogeneous(self.space, self.space, self.parity, self.entries, message)

    @classmethod
    def _trusted(cls, space: SuperSpace, entries, parity: Parity) -> "BilinearForm":
        """The form of finished slots, nonzero and row-major, unchecked."""
        form = object.__new__(cls)
        vars(form).update(space=space, entries=entries, parity=parity)
        return form

    @staticmethod
    def from_terms(space, terms: Mapping["tuple[str, str]", RationalLike], parity: Parity):
        entries = (((space.index(a), space.index(b)), rat(c)) for (a, b), c in terms.items())
        form = BilinearForm._trusted(space, tuple(sorted(e for e in entries if e[1])), parity)
        form.__post_init__()
        return form

    @cached_property
    def gram(self) -> tuple[tuple[Scalar, ...], ...]:
        """The dense Gram matrix gram[i][j] = beta(e_i, e_j); a derived view."""
        return _dense_slots(self.entries, self.space.dim, self.space.dim)


@dataclass(frozen=True)
class FormFlags:
    supersymmetric: bool
    skew_supersymmetric: bool
    invariant: bool
    two_cocycle: bool
    non_degenerate: bool

    def as_dict(self):
        return {
            "supersymmetric": self.supersymmetric,
            "skew-supersymmetric": self.skew_supersymmetric,
            "invariant": self.invariant,
            "two-cocycle": self.two_cocycle,
            "non-degenerate": self.non_degenerate,
        }


def _scaled_gram(beta: BilinearForm, g: LieSuperAlgebra) -> "list[dict[int, int]]":
    """B[i]: each j with beta(e_i, e_j) != 0 to its int in beta's view.  The
    flags are homogeneous linear in the Gram matrix and the structure
    constants, so any nonzero multiple of each serves (`rmatrix._beta`'s)."""
    if beta.space != g.space:
        raise ValueError("form does not live on the algebra's space")
    B = [{} for _ in range(g.dim)]
    for (i, j), b in beta._cleared[1]:
        B[i][j] = b
    return B


def _is_symmetric(B, P, skew: bool) -> bool:
    """Whether beta(e_j, e_i) = (-1)^{|e_i||e_j|} beta(e_i, e_j) for all i, j:
    supersymmetry, or with skew the same up to a sign, skew-supersymmetry."""
    # the sign (-1)^{|e_i||e_j|} is -1 exactly when both are odd
    return all(
        B[j].get(i, 0) == (-b if (P[i] & P[j]) ^ skew else b)
        for i, row in enumerate(B)
        for j, b in row.items()
    )


def _bracket_terms(B, g: LieSuperAlgebra, i: int) -> "tuple[dict, dict]":
    """(left, defect) for e_i: left maps j n + k to beta([e_i, e_j], e_k)
    and defect maps it to beta([e_i, e_j], e_k) - beta(e_i, [e_j, e_k]), both
    scaled; every (j, k) that no nonempty bracket cell reaches is 0 in both."""
    n = g.dim
    _, C = g._cleared
    _, into = g._scaled_join
    left = defaultdict(int)
    for j, cell in enumerate(C[i]):
        for m, c in cell:
            for k, b in B[m].items():
                left[j * n + k] += c * b
    defect = defaultdict(int, left)
    for m, b in B[i].items():
        for j, k, c in into[m]:
            defect[j * n + k] -= b * c
    return left, defect


def _is_invariant(B, g: LieSuperAlgebra) -> bool:
    """beta([e_i, e_j], e_k) = beta(e_i, [e_j, e_k]) at every basis triple."""
    return not any(any(_bracket_terms(B, g, i)[1].values()) for i in range(g.dim))


def _is_two_cocycle(B, g: LieSuperAlgebra) -> bool:
    """Skew-supersymmetry and, at every basis triple, the 2-cocycle identity
    beta([e_i, e_j], e_k) = (-1)^{|e_j||e_k|} beta([e_i, e_k], e_j)
                            + beta(e_i, [e_j, e_k])."""
    n, P = g.dim, g.space.parities
    if not _is_symmetric(B, P, True):
        return False
    for i in range(n):
        left, defect = _bracket_terms(B, g, i)
        for key, v in left.items():
            j, k = divmod(key, n)  # at (i, k, j), v is the swapped term, signed
            defect[k * n + j] += v if P[j] & P[k] else -v
        if any(defect.values()):
            return False
    return True


def _is_non_degenerate(B, space: SuperSpace, parity: Parity) -> bool:
    """Whether the int Gram matrix B is nonsingular, eliminated on its two
    parity blocks as it is."""
    entries = (((i, j), b) for i, row in enumerate(B) for j, b in row.items())
    return _block_nonsingular(space, space, parity, entries)


def classify_form(beta: BilinearForm, g: LieSuperAlgebra) -> FormFlags:
    """Decide the five standard flags by exhaustive basis evaluation, one
    int kernel per flag over one scaled Gram matrix."""
    B = _scaled_gram(beta, g)
    P = g.space.parities
    return FormFlags(
        _is_symmetric(B, P, False),
        _is_symmetric(B, P, True),
        _is_invariant(B, g),
        _is_two_cocycle(B, g),
        _is_non_degenerate(B, g.space, beta.parity),
    )


# ---------------------------------------------------------------------------
# semidirect product


def _semidirect(g: LieSuperAlgebra, V: SuperSpace, action):
    """g |x V with [(x,u), (y,v)] = ([x,y], rho(x)v - (-1)^{|u||y|} rho(y)u),
    for the action table `action`: action[a][i] holds the nonzero pairs
    (k, x) of rho(e_a) v_i in ascending k.  Returns the host with the
    positions of its algebra and module slots.

    Basis order: g first, then the module, re-sorted into canonical parity
    blocks; colliding labels take pair notation as in `merge_spaces`.  Both
    embeddings are increasing, so the host's cells are written directly,
    already sparse and sorted: g's cells through alg_embed, the action's
    through mod_embed, and the swapped cell (v_i, e_a) by `_partner`.

    Every caller passes a representation's table, so over a Lie g the
    host is Lie by theorem: it keeps g's `check_lie_axioms` report when
    that report passes, and a host over an unchecked or failing g keeps
    none.
    """
    total, alg_embed, mod_embed = merge_spaces(g.space, V)
    rows = [[()] * total.dim for _ in range(total.dim)]
    for i, row in enumerate(g.nonzero):
        host_row = rows[alg_embed[i]]
        for j, cell in enumerate(row):
            if cell:
                host_row[alg_embed[j]] = tuple((alg_embed[k], c) for k, c in cell)
    for a, (pa, cells) in enumerate(zip(g.space.parities, action)):
        p, host_row = alg_embed[a], rows[alg_embed[a]]
        for i, (pi, col) in enumerate(zip(V.parities, cells)):
            if col:
                q = mod_embed[i]
                cell = host_row[q] = tuple((mod_embed[k], x) for k, x in col)
                rows[q][p] = _partner(cell, pa & pi)
    host = LieSuperAlgebra._trusted(total, tuple(map(tuple, rows)))
    if "_report" in vars(g) and g._report.ok:
        vars(host)["_report"] = g._report
    return host, alg_embed, mod_embed


def semidirect_product(g: LieSuperAlgebra, rho: "Representation") -> LieSuperAlgebra:
    """g |x_rho V, built by `_semidirect` from the action table of rho."""
    if rho.algebra != g:
        raise ValueError("representation is not over this algebra")
    return _semidirect(g, rho.space, rho.nonzero)[0]


# ---------------------------------------------------------------------------
# transport along an even invariant form


def form_to_dual_map(beta: BilinearForm, g: LieSuperAlgebra) -> GradedLinearMap:
    """phi: g -> g* with <phi(x), y> = beta(x, y), for an even
    supersymmetric invariant non-degenerate form; only the kernels of
    those three flags run."""
    B = _scaled_gram(beta, g)
    problems = []
    if beta.parity != EVEN:
        problems.append("not even")
    if not _is_symmetric(B, g.space.parities, False):
        problems.append("not supersymmetric")
    if not _is_invariant(B, g):
        problems.append("not invariant")
    if not _is_non_degenerate(B, g.space, beta.parity):
        problems.append("degenerate")
    if problems:
        raise ValueError("form unsuitable for transport: " + ", ".join(problems))
    entries = (((j, i), b) for (i, j), b in beta.entries)
    return GradedLinearMap._from_entries(g.space, g.space.dual(), EVEN, entries)


def rota_baxter_transport(t: GradedLinearMap, phi: GradedLinearMap) -> GradedLinearMap:
    """T on (g*, ad*) composed with phi, a weight-0 Rota-Baxter candidate."""
    return t.compose(phi)
