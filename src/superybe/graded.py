"""Exact Z2-graded linear algebra.

Superspaces with an ordered homogeneous basis, homogeneous linear maps,
2- and 3-index coefficient tensors, the suspension (parity reverse) and
dual constructions, and the canonical pairings with their Koszul signs.
Every scalar is an exact rational; equality everywhere is exact.  A
Koszul sign is applied by negating an entry, not by multiplying it by
`sign(...)`, which is left to the callers that need an int.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Mapping, Sequence, Union

from . import linalg

EVEN = 0
ODD = 1

Parity = int
Scalar = Fraction
RationalLike = Union[Fraction, int, str]
Vector = "tuple[Scalar, ...]"
Matrix = "tuple[tuple[Scalar, ...], ...]"

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: RationalLike) -> Scalar:
    """Coerce an int, a 'p' / 'p/q' string, or a Fraction to an exact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def sign(exponent: int) -> int:
    """(-1)**exponent for a Z2 exponent computed as an integer."""
    return -1 if exponent % 2 else 1


def parity_name(p: Parity) -> str:
    return "even" if p % 2 == EVEN else "odd"


def suspend_label(name: str) -> str:
    """Toggle the suspension marker: e -> se, se -> e.

    The toggle is an involution on every string; labels that genuinely
    start with 's' should not be used for base spaces that get suspended.
    """
    if name.startswith("s") and len(name) > 1:
        return name[1:]
    return "s" + name


def dual_label(name: str) -> str:
    return name + "*"


# ---------------------------------------------------------------------------
# superspaces


@dataclass(frozen=True)
class SuperSpace:
    """An ordered homogeneous basis with a parity per basis element.

    Canonical block order is enforced: every even label precedes every
    odd label. All graded objects in the library live over these.
    """

    labels: tuple[str, ...]
    parities: tuple[Parity, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.parities):
            raise ValueError("labels and parities differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate basis labels in {self.labels}")
        for p in self.parities:
            if p not in (EVEN, ODD):
                raise ValueError(f"parity must be 0 or 1, got {p!r}")
        seen_odd = False
        for p in self.parities:
            if p == ODD:
                seen_odd = True
            elif seen_odd:
                raise ValueError(
                    f"basis not in canonical block order (even block first): {self.labels}"
                )

    @staticmethod
    def make(even: Sequence[str] = (), odd: Sequence[str] = ()) -> "SuperSpace":
        labels = tuple(even) + tuple(odd)
        parities = (EVEN,) * len(even) + (ODD,) * len(odd)
        return SuperSpace(labels, parities)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def even_dim(self) -> int:
        return self.parities.count(EVEN)

    @property
    def odd_dim(self) -> int:
        return self.parities.count(ODD)

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise KeyError(f"unknown basis label {label!r}") from None

    def basis_vector(self, i: int) -> tuple[Scalar, ...]:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    def zero_vector(self) -> tuple[Scalar, ...]:
        return (ZERO,) * self.dim

    def vector(self, components: Mapping[str, RationalLike]) -> tuple[Scalar, ...]:
        out = [ZERO] * self.dim
        for label, value in components.items():
            out[self.index(label)] = rat(value)
        return tuple(out)

    def dual(self) -> "SuperSpace":
        return self._dual

    def suspended(self) -> "SuperSpace":
        return self._suspension[0]

    def suspended_with_permutation(self) -> "tuple[SuperSpace, tuple[int, ...]]":
        """The parity-reversed space and the permutation old index -> new index."""
        return self._suspension

    # the derived spaces are built, and so validated, once per space: the
    # fields are immutable, and the paper's constructions ask for sV and V*
    # of the same space on every call

    @cached_property
    def _positions(self) -> "dict[str, int]":
        """label -> position, for `index` and label membership tests."""
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def _dual(self) -> "SuperSpace":
        # same index set, identical parities
        return SuperSpace(tuple(dual_label(l) for l in self.labels), self.parities)

    @cached_property
    def _suspension(self) -> "tuple[SuperSpace, tuple[int, ...]]":
        labels = [suspend_label(l) for l in self.labels]
        space, _, position = _block_sorted(labels, [p ^ 1 for p in self.parities])
        return space, tuple(position)


def _block_sorted(labels, parities) -> "tuple[SuperSpace, list[int], list[int]]":
    """The space on the labels re-sorted stably into canonical block order,
    with order[new] = old and position[old] = new."""
    order = sorted(range(len(parities)), key=parities.__getitem__)
    position = [0] * len(order)
    for new, old in enumerate(order):
        position[old] = new
    space = SuperSpace(tuple(labels[o] for o in order), tuple(parities[o] for o in order))
    return space, order, position


def merge_spaces(a: SuperSpace, b: SuperSpace) -> "tuple[SuperSpace, tuple[int, ...], tuple[int, ...]]":
    """Concatenate two spaces and re-sort into canonical block order,
    stably, a's basis first.  When the label sets meet, every label takes
    pair notation, (x,0) for a and (0,v) for b.  Returns the merged space
    and the embeddings old-index -> merged-index for a and for b."""
    la, lb = a.labels, b.labels
    if set(la) & set(lb):
        la, lb = tuple(f"({l},0)" for l in la), tuple(f"(0,{l})" for l in lb)
    merged, _, position = _block_sorted(la + lb, a.parities + b.parities)
    return merged, tuple(position[: a.dim]), tuple(position[a.dim :])


# ---------------------------------------------------------------------------
# vectors (plain tuples of Fractions relative to a SuperSpace)


def dense_vector(n: int, pairs) -> tuple[Scalar, ...]:
    """The length-n vector with the given (index, value) pairs, zero elsewhere."""
    out = [ZERO] * n
    for k, x in pairs:
        out[k] = x
    return tuple(out)


def vec_is_zero(v) -> bool:
    return all(x == 0 for x in v)


def _format_pairs(space: SuperSpace, pairs) -> str:
    """`c label` terms joined by ` + ` from (index, c) pairs, c != 0; `0` for none."""
    terms = [f"{c} {space.labels[k]}" for k, c in pairs]
    return " + ".join(terms) if terms else "0"


def format_vector(space: SuperSpace, v) -> str:
    return _format_pairs(space, ((i, x) for i, x in enumerate(v) if x != 0))


# ---------------------------------------------------------------------------
# the stored-table core


class _Stored:
    """The storage rules of the classes that store one exact sparse table
    (maps, tensors, forms, algebras, representations, pre-Lie products),
    each naming its table field and nesting depth in its header.  The
    fields are immutable, so the core keeps once per object the hash of
    the fields and the integer view `_cleared`, (D, the table with each x
    as the int D x), D the lcm of the denominators, unless a construction
    wrote the view from its source's through `linalg._with_view`.  Each
    class keeps its own explicit `_trusted`, the cheapest build."""

    def __init_subclass__(cls, table: str, depth: int, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table, cls._depth = table, depth
        cls._fields = attrgetter(*cls.__annotations__)
        # bound on the class itself: a frozen dataclass with eq writes its
        # own __hash__ over an inherited one
        cls.__hash__ = _Stored.__hash__

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._fields(self))

    @cached_property
    def _cleared(self) -> "tuple[int, tuple]":
        return linalg._cleared_table(getattr(self, self._table), self._depth)


def _dense_cells(table, n: int) -> tuple:
    """The dense n x n x n array of rows of cells of (k, x) pairs: an
    algebra's `structure`, a pre-Lie product's `product`."""
    return tuple(tuple(dense_vector(n, cell) for cell in row) for row in table)


def _scanned_slots(array, rows: int, cols: int, message: str) -> tuple:
    """The nonzero ((i, j), x) of a dense rows x cols array, row-major;
    ValueError(message) if the array has another shape."""
    if len(array) != rows or any(len(row) != cols for row in array):
        raise ValueError(message)
    return tuple(((i, j), x) for i, row in enumerate(array) for j, x in enumerate(row) if x)


def _dense_slots(entries, rows: int, cols: int) -> tuple:
    """The dense rows x cols array of the slots ((i, j), x): a map's
    `matrix`, a tensor's `coeffs`, a form's `gram`."""
    slots = dict(entries)
    return tuple(tuple(slots.get((i, j), ZERO) for j in range(cols)) for i in range(rows))


# ---------------------------------------------------------------------------
# homogeneous linear maps


def _check_homogeneous(rows: SuperSpace, cols: SuperSpace, parity: Parity, slots, message):
    """Raise ValueError if the (row, col) of a nonzero slot ((row, col), x)
    of the list, in any order, has parities that disagree with the declared
    parity.  The verdict is one pass; only a failure searches the list
    again for the witness the message names, the first offender in
    row-major order, formatted with the two labels and the parity's name."""
    R, C = rows.parities, cols.parities
    if all(R[r] ^ C[c] == parity for (r, c), _ in slots):
        return
    r, c = min((r, c) for (r, c), _ in slots if R[r] ^ C[c] != parity)
    raise ValueError(message.format(rows.labels[r], cols.labels[c], parity_name(parity)))


# ---------------------------------------------------------------------------
# elimination on the two parity blocks
#
# A homogeneous matrix of parity p, rows over `rows` and columns over `cols`
# (a map cols -> rows, or a form's Gram matrix), is zero outside two blocks:
# for q = 0, 1 the parity-q columns meet the parity-(q + p) rows, contiguous
# ranges in canonical block order.  Each block is eliminated alone.


def _square_blocks(rows: SuperSpace, cols: SuperSpace, parity: Parity, entries):
    """The two parity blocks of the homogeneous matrix with the given
    nonzero ((k, i), x) entries, one per position, as (first row, first
    column, fresh dense rows) for q = 0, 1; or None when a block is not
    square, which makes the matrix singular with no elimination."""
    e, f = cols.even_dim, rows.even_dim
    firsts = ((f, 0), (0, e)) if parity else ((0, 0), (f, e))
    sizes = (rows.dim - f, f) if parity else (f, rows.dim - f)
    if sizes != (e, cols.dim - e):
        return None
    dense = [[[0] * m for _ in range(m)] for m in sizes]
    for (k, i), x in entries:
        q = i >= e
        r0, c0 = firsts[q]
        dense[q][k - r0][i - c0] = x
    return [(r0, c0, block) for (r0, c0), block in zip(firsts, dense)]


def _block_inverse(rows: SuperSpace, cols: SuperSpace, parity: Parity, entries):
    """The inverse of the homogeneous matrix of ints with the given nonzero
    ((k, i), x) entries, as the triples ((i, k), y, q) of its nonzero
    entries, the (i, k) entry being y / q with q the Bareiss pivot of row i
    of the inverse; or None if the matrix is singular.  Each nonempty block
    is inverted alone by `linalg._inverse`, and the first singular one
    ends the elimination.  A caller that cleared its matrix by D reads
    the inverse of the rational matrix as D y / q."""
    blocks = _square_blocks(rows, cols, parity, entries)
    if blocks is None:
        return None
    out = []
    for r0, c0, block in blocks:
        if not block:
            continue
        inv = linalg._inverse(block)
        if inv is None:
            return None
        out += (
            ((c0 + a, r0 + b), y, q) for a, (q, line) in enumerate(inv) for b, y in enumerate(line) if y
        )
    return out


def _block_nonsingular(rows: SuperSpace, cols: SuperSpace, parity: Parity, entries) -> bool:
    """Whether the homogeneous matrix of ints with the given nonzero
    ((k, i), x) entries is square and nonsingular: every block has full
    rank by `linalg._eliminate`."""
    blocks = _square_blocks(rows, cols, parity, entries)
    return blocks is not None and all(
        len(linalg._eliminate(block)[1]) == len(block) for _, _, block in blocks if block
    )


@dataclass(frozen=True, init=False)
class GradedLinearMap(_Stored, table="nonzero", depth=1):
    """A homogeneous linear map between superspaces.

    Stored as `nonzero`: nonzero[i] holds the pairs (k, m_ki) with m_ki != 0
    in ascending k, the image of the i-th domain basis vector.  Homogeneity
    (m_ki = 0 unless |cod_k| = |dom_i| + parity) is checked once, where a
    map enters: the public constructor, which scans a dense matrix and
    keeps no copy, and `from_images` run `__post_init__`.  Derived maps
    (`compose`, sums, `scale`, `inverse`, `suspend_map`, `dual_map`, `ad`,
    T_r, intertwiners, the maps of a representation's `action` view) are
    homogeneous by theorem and skip it: `_from_entries` groups their
    entries, and `_trusted` takes a finished table.  The dense `matrix`
    view is built on read, and no library code reads it; the hash and the
    integer view are `_Stored`'s.
    """

    domain: SuperSpace
    codomain: SuperSpace
    parity: Parity
    nonzero: tuple[tuple[tuple[int, Scalar], ...], ...]

    def __init__(self, domain: SuperSpace, codomain: SuperSpace, parity: Parity, matrix):
        if len(matrix) != codomain.dim:
            raise ValueError("matrix row count does not match codomain dimension")
        if any(len(row) != domain.dim for row in matrix):
            raise ValueError("matrix column count does not match domain dimension")
        nonzero = tuple(
            tuple((k, row[i]) for k, row in enumerate(matrix) if row[i]) for i in range(domain.dim)
        )
        vars(self).update(domain=domain, codomain=codomain, parity=parity, nonzero=nonzero)
        self.__post_init__()

    def __post_init__(self):
        if self.parity not in (EVEN, ODD):
            raise ValueError("map parity must be 0 or 1")
        message = (
            "inhomogeneous map: entry ({}, {}) nonzero but parities disagree "
            "with declared map parity {}"
        )
        _check_homogeneous(self.codomain, self.domain, self.parity, list(self._entries()), message)

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, domain: SuperSpace, codomain: SuperSpace, parity: Parity, nonzero):
        """The map of a finished, homogeneous `nonzero` table, unchecked."""
        t = object.__new__(cls)
        vars(t).update(domain=domain, codomain=codomain, parity=parity, nonzero=nonzero)
        return t

    @classmethod
    def _from_entries(cls, domain: SuperSpace, codomain: SuperSpace, parity: Parity, entries):
        """The map with the given ((k, i), value) entries, each position
        given at most once, and zeros elsewhere, grouped into sorted columns
        with zeros dropped; unchecked, and no dense matrix is built."""
        cols = [[] for _ in range(domain.dim)]
        for (k, i), x in entries:
            if x:
                cols[i].append((k, x))
        return cls._trusted(domain, codomain, parity, tuple(tuple(sorted(col)) for col in cols))

    @staticmethod
    def zero(domain: SuperSpace, codomain: SuperSpace, parity: Parity) -> "GradedLinearMap":
        return GradedLinearMap._trusted(domain, codomain, parity, ((),) * domain.dim)

    @staticmethod
    def identity(space: SuperSpace) -> "GradedLinearMap":
        nonzero = tuple(((i, ONE),) for i in range(space.dim))
        return GradedLinearMap._trusted(space, space, EVEN, nonzero)

    @staticmethod
    def from_images(
        domain: SuperSpace,
        codomain: SuperSpace,
        parity: Parity,
        images: Mapping[str, Mapping[str, RationalLike]],
    ) -> "GradedLinearMap":
        """Build from a {domain label: {codomain label: coefficient}} table;
        omitted domain labels map to zero."""
        entries = []
        for src, terms in images.items():
            i = domain.index(src)
            entries += (((codomain.index(label), i), rat(value)) for label, value in terms.items())
        t = GradedLinearMap._from_entries(domain, codomain, parity, entries)
        t.__post_init__()
        return t

    # -- evaluation ----------------------------------------------------

    @cached_property
    def matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        """The dense matrix, (codomain basis x domain basis); a derived view."""
        return _dense_slots(self._entries(), self.codomain.dim, self.domain.dim)

    def _rows(self) -> "list[list[Scalar]]":
        """Fresh dense rows (codomain basis x domain basis) for `linalg`."""
        return list(map(list, _dense_slots(self._entries(), self.codomain.dim, self.domain.dim)))

    def _entries(self, columns=None):
        """The ((k, i), m_ki) with m_ki != 0, column by column; of the
        integer view's columns when they are given."""
        for i, col in enumerate(self.nonzero if columns is None else columns):
            for k, x in col:
                yield (k, i), x

    def column(self, i: int) -> tuple[Scalar, ...]:
        """Image of the i-th domain basis vector."""
        return dense_vector(self.codomain.dim, self.nonzero[i])

    def apply(self, v) -> tuple[Scalar, ...]:
        out = [ZERO] * self.codomain.dim
        for i, x in enumerate(v):
            if x == 0:
                continue
            for k, m in self.nonzero[i]:
                out[k] += m * x
        return tuple(out)

    def image_of(self, label: str) -> tuple[Scalar, ...]:
        return self.column(self.domain.index(label))

    # -- algebra -------------------------------------------------------

    def compose(self, other: "GradedLinearMap") -> "GradedLinearMap":
        """self after other; parities add."""
        if other.codomain != self.domain:
            raise ValueError("composition domain/codomain mismatch")
        entries = []
        for i, col in enumerate(other.nonzero):
            out: dict = {}
            for j, y in col:
                for k, x in self.nonzero[j]:
                    out[k] = out.get(k, ZERO) + x * y
            entries += (((k, i), x) for k, x in out.items())
        return GradedLinearMap._from_entries(
            other.domain, self.codomain, (self.parity + other.parity) % 2, entries
        )

    def __add__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        if (self.domain, self.codomain, self.parity) != (
            other.domain,
            other.codomain,
            other.parity,
        ):
            raise ValueError("can only add maps of equal type and parity")
        total = dict(self._entries())
        for ki, x in other._entries():
            total[ki] = total.get(ki, ZERO) + x
        return GradedLinearMap._from_entries(self.domain, self.codomain, self.parity, total.items())

    def __sub__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        return self + other.scale(-1)

    def scale(self, c: RationalLike) -> "GradedLinearMap":
        c = rat(c) if not isinstance(c, int) else c
        nonzero = tuple(tuple((k, c * x) for k, x in col) if c else () for col in self.nonzero)
        return GradedLinearMap._trusted(self.domain, self.codomain, self.parity, nonzero)

    def is_zero(self) -> bool:
        return not any(self.nonzero)

    def inverse(self) -> "GradedLinearMap":
        """The exact inverse, eliminated once on the map cleared by D: an
        inverse entry is D y / q, one `Fraction` each."""
        if self.domain.dim != self.codomain.dim:
            raise ValueError("only square maps can be inverted")
        D, ints = self._cleared
        inv = _block_inverse(self.codomain, self.domain, self.parity, self._entries(ints))
        if inv is None:
            raise ValueError("map is not invertible")
        entries = (((i, k), Fraction(D * y, q)) for (i, k), y, q in inv)
        return GradedLinearMap._from_entries(self.codomain, self.domain, self.parity, entries)

    def is_invertible(self) -> bool:
        ints = self._entries(self._cleared[1])
        return _block_nonsingular(self.codomain, self.domain, self.parity, ints)


def suspend_map(t: GradedLinearMap) -> GradedLinearMap:
    """T^s(su) = T(u): same images, suspended domain, parity flipped; its
    integer view is T's, its columns moved the same way."""
    sdom, perm = t.domain.suspended_with_permutation()
    D, ints = t._cleared
    cols, icols = [()] * sdom.dim, [()] * sdom.dim
    for i, p in enumerate(perm):
        cols[p] = t.nonzero[i]
        icols[p] = ints[i]
    s = GradedLinearMap._trusted(sdom, t.codomain, t.parity ^ 1, tuple(cols))
    return linalg._with_view(s, (D, tuple(icols)))


def dual_map(t: GradedLinearMap) -> GradedLinearMap:
    """T*: cod* -> dom* fixed by <T*(x*), v> = (-1)^{|T||x*|} <x*, T(v)>."""
    P = t.codomain.parities
    entries = (((i, j), -x if t.parity * P[j] else x) for (j, i), x in t._entries())
    return GradedLinearMap._from_entries(t.codomain.dual(), t.domain.dual(), t.parity, entries)


def double_dual_embedding(space: SuperSpace) -> GradedLinearMap:
    """theta: V -> V** with e_i -> (-1)^{|e_i|} (e_i*)*."""
    nonzero = tuple(((i, -ONE if p else ONE),) for i, p in enumerate(space.parities))
    return GradedLinearMap._trusted(space, space.dual().dual(), EVEN, nonzero)


def relabel_domain(t: GradedLinearMap, new_domain: SuperSpace) -> GradedLinearMap:
    """Reinterpret the domain along the positional identification of parity
    blocks (old even block -> new even block in order, same for odd).
    Requires matching block dimensions; used to read a map off sV as a map
    off V when dim V_0 = dim V_1."""
    old = t.domain
    if (old.even_dim, old.odd_dim) != (new_domain.even_dim, new_domain.odd_dim):
        raise ValueError("parity block dimensions do not match")
    return GradedLinearMap._trusted(new_domain, t.codomain, t.parity, t.nonzero)


# ---------------------------------------------------------------------------
# 2- and 3-index coefficient tensors


def _infer_parity(left: SuperSpace, right: SuperSpace, entries) -> "Parity | None":
    """The one parity of the nonzero ((i, j), value) entries, if there is one."""
    found = {left.parities[i] ^ right.parities[j] for (i, j), x in entries if x != 0}
    if len(found) == 1:
        return found.pop()
    return None


@dataclass(frozen=True, init=False)
class Tensor2(_Stored, table="entries", depth=0):
    """An element sum a_ij e_i (x) e_j, stored as its nonzero slots
    ((i, j), a_ij) in row-major order.  A declared parity is checked once,
    where a tensor enters: the public constructor, which scans a dense
    array and keeps no copy, and `from_terms` run `__post_init__`.  Derived
    tensors skip it: `_from_entries` sorts their slots, and `_trusted`
    takes finished ones.  The dense `coeffs` view is built on first read;
    the hash and the integer view are `_Stored`'s.

    parity None means inhomogeneous (or an undeclared zero tensor).
    """

    left: SuperSpace
    right: SuperSpace
    entries: tuple[tuple[tuple[int, int], Scalar], ...]
    parity: "Parity | None"

    def __init__(self, left: SuperSpace, right: SuperSpace, coeffs, parity: "Parity | None" = None):
        entries = _scanned_slots(coeffs, left.dim, right.dim, "tensor coefficient shape mismatch")
        vars(self).update(left=left, right=right, entries=entries, parity=parity)
        self.__post_init__()

    def __post_init__(self):
        if self.parity is not None:
            message = "tensor entry ({}, {}) violates declared parity {}"
            _check_homogeneous(self.left, self.right, self.parity, self.entries, message)

    @classmethod
    def _trusted(cls, left: SuperSpace, right: SuperSpace, entries, parity: "Parity | None"):
        """The tensor of finished slots, nonzero and row-major, unchecked."""
        t = object.__new__(cls)
        vars(t).update(left=left, right=right, entries=entries, parity=parity)
        return t

    @classmethod
    def _from_entries(cls, left: SuperSpace, right: SuperSpace, entries, parity: "Parity | None"):
        """The tensor with the given ((i, j), value) entries, each position
        given at most once, and zeros elsewhere; unchecked."""
        return cls._trusted(left, right, tuple(sorted(e for e in entries if e[1])), parity)

    @staticmethod
    def from_terms(
        left: SuperSpace,
        right: SuperSpace,
        terms: Mapping["tuple[str, str]", RationalLike],
        parity: "Parity | None" = None,
    ) -> "Tensor2":
        entries = [((left.index(a), right.index(b)), rat(c)) for (a, b), c in terms.items()]
        if parity is None:
            parity = _infer_parity(left, right, entries)
        t = Tensor2._from_entries(left, right, entries, parity)
        t.__post_init__()
        return t

    @cached_property
    def coeffs(self) -> tuple[tuple[Scalar, ...], ...]:
        return _dense_slots(self.entries, self.left.dim, self.right.dim)

    def is_zero(self) -> bool:
        return not self.entries

    def nonzero(self):
        return iter(self.entries)

    def add(self, other: "Tensor2") -> "Tensor2":
        if (self.left, self.right) != (other.left, other.right):
            raise ValueError("tensor space mismatch")
        total = dict(self.entries)
        for ij, x in other.entries:
            total[ij] = total.get(ij, ZERO) + x
        parity = self.parity if self.parity == other.parity else None
        if parity is None:
            parity = _infer_parity(self.left, self.right, total.items())
        return Tensor2._from_entries(self.left, self.right, total.items(), parity)

    def scale(self, c: RationalLike) -> "Tensor2":
        c = rat(c) if not isinstance(c, int) else c
        entries = tuple((ij, c * a) for ij, a in self.entries) if c else ()
        return Tensor2._trusted(self.left, self.right, entries, self.parity)

    def __str__(self):
        terms = []
        for (i, j), c in self.nonzero():
            terms.append(f"{c} {self.left.labels[i]}(x){self.right.labels[j]}")
        return " + ".join(terms) if terms else "0"


def twist(t: Tensor2) -> Tensor2:
    """sigma(v (x) w) = (-1)^{|v||w|} w (x) v, extended linearly."""
    P, Q = t.left.parities, t.right.parities
    entries = (((j, i), -c if P[i] * Q[j] else c) for (i, j), c in t.entries)
    return Tensor2._from_entries(t.right, t.left, entries, t.parity)


@dataclass(frozen=True)
class Tensor3:
    """An element of V (x) V (x) V over one superspace, stored as its
    nonzero slots ((i, j, k), value) in row-major order; the dense
    `coeffs` array is a derived view."""

    space: SuperSpace
    entries: tuple[tuple[tuple[int, int, int], Scalar], ...]

    @cached_property
    def coeffs(self) -> tuple[tuple[tuple[Scalar, ...], ...], ...]:
        slots, r = dict(self.entries), range(self.space.dim)
        return tuple(tuple(tuple(slots.get((i, j, k), ZERO) for k in r) for j in r) for i in r)

    def is_zero(self) -> bool:
        return not self.entries

    def nonzero(self):
        return iter(self.entries)

    def __str__(self):
        L = self.space.labels
        terms = [f"{c} {L[i]}(x){L[j]}(x){L[k]}" for (i, j, k), c in self.nonzero()]
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# canonical pairings


def pair_eval(space: SuperSpace, ustar, v) -> Scalar:
    """<u*, v> for u* in coordinates over dual(space), v over space.

    The dual basis pairs as <e_i*, e_j> = delta_ij.
    """
    if len(ustar) != space.dim or len(v) != space.dim:
        raise ValueError("pairing space mismatch")
    return sum((a * b for a, b in zip(ustar, v)), ZERO)


def pair_eval_reversed(space: SuperSpace, v, ustar) -> Scalar:
    """<v, u*> = (-1)^{|u*||v|} <u*, v>, extended linearly per component."""
    if len(ustar) != space.dim or len(v) != space.dim:
        raise ValueError("pairing space mismatch")
    return sum((-(a * b) if p else a * b for p, a, b in zip(space.parities, v, ustar)), ZERO)


def pair2_eval(tstar: Tensor2, t: Tensor2) -> Scalar:
    """<u1* (x) u2*, v1 (x) v2> = (-1)^{|u2*||v1|} <u1*, v1><u2*, v2>."""
    if (tstar.left, tstar.right) != (t.left.dual(), t.right.dual()):
        raise ValueError("pairing space mismatch")
    slots = dict(t.entries)
    total = ZERO
    for (i, j), s in tstar.entries:
        c = slots.get((i, j))
        if c is not None:
            x = s * c
            total += -x if t.right.parities[j] * t.left.parities[i] else x
    return total
