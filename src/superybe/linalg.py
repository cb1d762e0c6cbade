"""Exact dense linear algebra over Fraction.

Small hand-rolled Gaussian elimination: enough for the nullspaces,
inverses, determinants and column reductions the library needs.
Pivoting is deterministic (first nonzero in row order).
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns).

    Input is a list of lists; the input is not modified.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows) -> int:
    _, pivots = rref(rows)
    return len(pivots)


def nullspace(rows, ncols=None):
    """Basis of the right nullspace of the matrix, as tuples.

    Free variables are set to 1 one at a time, in column order.
    """
    if not rows:
        n = ncols if ncols is not None else 0
        return [tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]
    n = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


def invert(rows):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def det(rows) -> Fraction:
    """Determinant by fraction elimination with deterministic pivoting."""
    m = [list(r) for r in rows]
    n = len(m)
    result = ONE
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return ZERO
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        inv = ONE / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if n in pivots:
        return None  # pivot in the constants column
    x = [ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = red[r][n]
    return tuple(x)
