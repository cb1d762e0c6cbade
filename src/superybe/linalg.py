"""Exact dense linear algebra over Fraction, by fraction-free elimination.

Small hand-rolled Gaussian elimination: enough for the nullspaces,
inverses, determinants and column reductions the library needs.
Pivoting is deterministic (first nonzero in row order).

One integer kernel, `_eliminate`, runs Gauss-Jordan elimination on rows
of Python ints with Bareiss's exact division; it clears nothing.  Its
callers clear once, where a matrix enters: `rref`, `rank`, `invert`,
`solve` and `det` scale each rational row by the lcm of its
denominators, and `nullspace` scales each row when it collects the row's
nonzeros.  A positive row scale changes no reduced row echelon form, so
the results are those of elimination over `Fraction`, and every value
a public function returns is a `Fraction`, divided back once.
`det` reads the last Bareiss pivot, signed by the row swaps, over the
product of the row scale factors.  `nullspace` wraps `_null_basis`,
which hands the kernel one connected component of sparse integer rows
at a time, so that a sparse system costs in proportion to its nonzeros.
Callers that hold integer rows reach the kernel through `_null_basis`,
`_inverse` or `_eliminate`.  Every stored table has one integer view,
`_cleared`, built by `_cleared_table` or written from a source's view by
`_with_view`; `_rescaled` brings views to one scale.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm, prod

ZERO = Fraction(0)
ONE = Fraction(1)


def _cleared(values) -> "tuple[int, list[int]]":
    """(D, ints): D the lcm of the denominators of the rationals in the
    sequence values (1 if it is empty), ints the values times D, in order,
    as Python ints, for the dense functions and the grid's entry set."""
    D = lcm(*(x.denominator for x in values))
    if D == 1:  # integral values
        return 1, [x.numerator for x in values]
    return D, [x.numerator * (D // x.denominator) for x in values]


def _scaled(table, D: int, depth: int) -> tuple:
    """The table, (key, x) pairs nested in `depth` levels of sequences, with
    each x as x.numerator * (D // x.denominator): D x for a rational x whose
    denominator divides D, and x times D for an int x."""
    if depth == 0:
        return _scaled((table,), D, 1)[0]
    if depth > 1:
        return tuple(_scaled(row, D, depth - 1) for row in table)
    if D == 1:
        return tuple(tuple((k, x.numerator) for k, x in cell) for cell in table)
    return tuple(tuple((k, x.numerator * (D // x.denominator)) for k, x in cell) for cell in table)


def _cleared_table(table, depth: int) -> "tuple[int, tuple]":
    """(D, scaled): D the lcm of the denominators of the table, (key, x)
    pairs nested in `depth` levels of sequences, and the table with each x
    as D x: every stored table's integer view `_cleared` (depth 0 for slots,
    1 for a map's columns, 2 for an algebra's, an action's, a product's)."""
    cells = table
    for _ in range(depth):
        cells = [cell for row in cells for cell in row]
    D = lcm(*(x.denominator for _, x in cells))
    return D, _scaled(table, D, depth)


def _rescaled(depth: int, *views) -> "tuple[int, list]":
    """(L, tables): L the lcm of the D of the integer views (D, table) of
    `depth`, and each table at scale L: only a table whose D differs from
    L is multiplied, by L // D."""
    L = lcm(*(D for D, _ in views))
    return L, [table if D == L else _scaled(table, L // D, depth) for D, table in views]


def _with_view(obj, view):
    """obj, with its integer view `_cleared` written as view, for the
    constructions that relabel and sign a source's table and its view."""
    vars(obj)["_cleared"] = view
    return obj


def _cleared_rows(rows) -> "tuple[list[int], list[list[int]]]":
    """(scales, ints): each rational row scaled by the lcm of its own
    denominators, as `_cleared` does, with those lcms in row order."""
    cleared = [_cleared(row) for row in rows]
    return [D for D, _ in cleared], [ints for _, ints in cleared]


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination on rows of Python ints.

    Returns (m, pivots, sign): m holds the rows of the reduced row echelon
    form, row r scaled to integers, so that row r < len(pivots) divided by
    its pivot entry m[r][pivots[r]] is row r of the reduced form; the rows
    below are zero.  sign is -1 if an odd number of row swaps was made,
    else 1.  The input rows are not modified.

    Bareiss elimination takes every row to p row - f pivot_row and divides
    exactly by the previous pivot.  A row whose pivot-column entry f is zero
    is left as it is and remembers the pivot it was last divided by: its
    pending factor (current pivot / remembered pivot) is applied, exactly,
    when the row next takes part, as pivot row or eliminated row.
    """
    m = list(rows)  # rows are replaced, never changed in place
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    level = [1] * nrows  # the pivot each row was last divided by
    d = 1  # the last pivot
    sign = 1
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            sign = -sign
        m[r], m[pivot] = m[pivot], m[r]
        level[r], level[pivot] = level[pivot], level[r]
        prow = m[r]
        if level[r] != d:
            t = level[r]
            prow = m[r] = [b * d // t for b in prow]
        p = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                t = level[i]
                m[i] = [(p * a - f * b) // t for a, b in zip(m[i], prow)]
                level[i] = p
        level[r] = d = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, sign


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns).

    Input is a list of lists; the input is not modified.
    """
    m, pivots, _ = _eliminate(_cleared_rows(rows)[1])
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    red += ([ZERO] * len(row) for row in m[len(pivots) :])
    return red, pivots


def rank(rows) -> int:
    return len(_eliminate(_cleared_rows(rows)[1])[1])


def _null_basis(rows, n):
    """The right nullspace of a sparse integer matrix over n columns.

    Each row is its (c, x) pairs, x a nonzero int, each column c at most
    once, in any order.  Yields (f, pairs) for each free column f in
    ascending order: the basis vector v that is 1 at f, v[c] = x / q for
    each (c, x, q) of pairs, reduced with q > 0, and 0 elsewhere.

    The work goes by the nonzeros.  The nonempty rows are grouped by the
    connected components of their column graph, in which a row joins every
    column it touches (union-find).  A component whose rows each hold one
    entry is one column, pinned to zero with no elimination; any other is
    eliminated alone, on its own dense rows over its columns.  Reduced row
    echelon form is unique, so the basis is the one elimination of the
    whole matrix gives; a column that no row touches is free.
    """
    parent = list(range(n))

    def root(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    rows = [entries for entries in rows if entries]
    for entries in rows:
        if len(entries) > 1:
            r = root(entries[0][0])
            for c, _ in entries[1:]:
                parent[root(c)] = r
    components = {}
    for entries in rows:
        components.setdefault(root(entries[0][0]), []).append(entries)
    pivot_set = set()
    depends = {}  # free column f -> the (pivot column c, x, q) of its vector
    for comp in components.values():
        if all(len(entries) == 1 for entries in comp):
            pivot_set.add(comp[0][0][0])
            continue
        cols = sorted({c for entries in comp for c, _ in entries})
        local = {c: t for t, c in enumerate(cols)}
        dense = [[0] * len(cols) for _ in comp]
        for row, entries in zip(dense, comp):
            for c, x in entries:
                row[local[c]] = x
        m, pivots, _ = _eliminate(dense)
        for row, p in zip(m, pivots):
            c, q = cols[p], row[p]
            pivot_set.add(c)
            for t, x in enumerate(row):
                if x and t != p:
                    g = gcd(x, q) if q > 0 else -gcd(x, q)
                    depends.setdefault(cols[t], []).append((c, -x // g, q // g))
    for f in range(n):
        if f not in pivot_set:
            yield f, depends.get(f, ())


def nullspace(rows, ncols=None):
    """Basis of the right nullspace of the matrix, as tuples of Fractions,
    free variables set to 1 one at a time in column order: `_null_basis`
    of the nonzeros of each row, scaled to ints as they are collected."""
    n = len(rows[0]) if rows else (ncols or 0)
    sparse = []
    for row in rows:
        cols = list(compress(range(n), row))
        sparse.append(list(zip(cols, _cleared([row[c] for c in cols])[1])))
    basis = []
    for f, pairs in _null_basis(sparse, n):
        v = {c: Fraction(x, q) for c, x, q in pairs}
        v[f] = ONE
        basis.append(tuple(v.get(c, ZERO) for c in range(n)))
    return basis


def _inverse(rows):
    """The inverse of a square matrix of ints, eliminated on [A | I], as
    one pair (q, ys) per row, row a of the inverse being ys / q with q the
    row's Bareiss pivot; or None if the matrix is singular."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    m, pivots, _ = _eliminate(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [(row[c], row[n:]) for row, c in zip(m, pivots)]


def invert(rows):
    """Exact inverse of a square matrix, or None if singular.

    The rows are scaled to ints, by S = diag(scales); the inverse of S A
    is A^-1 S^-1, so column j of A^-1 is column j of (S A)^-1 times
    scales[j]."""
    scales, ints = _cleared_rows(rows)
    inv = _inverse(ints)
    if inv is None:
        return None
    return [[Fraction(y * s, q) for y, s in zip(ys, scales)] for q, ys in inv]


def det(rows) -> Fraction:
    """Determinant, read off the integer kernel.

    Bareiss's last pivot is the determinant of the row-scaled matrix with
    its rows in pivot order; the swap sign puts them back in order, and
    the scale factors, the lcms of the rows' denominators, divide out.
    """
    n = len(rows)
    scales, ints = _cleared_rows(rows)
    m, pivots, sign = _eliminate(ints)
    if len(pivots) < n:
        return ZERO
    return Fraction(sign * m[n - 1][n - 1], prod(scales)) if n else ONE


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    n = len(rows[0]) if rows else 0
    m, pivots, _ = _eliminate(_cleared_rows([list(r) + [b] for r, b in zip(rows, rhs)])[1])
    if n in pivots:
        return None  # pivot in the constants column
    x = [ZERO] * n
    for row, c in zip(m, pivots):
        x[c] = Fraction(row[n], row[c])
    return tuple(x)
