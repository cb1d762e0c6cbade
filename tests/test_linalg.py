"""The integer elimination kernel of `superybe.linalg` against the
Fraction elimination and the determinant by minors of `tests/oracles.py`.

Matrices run from 0x0 to 9x9, wide and tall, with entries that mix ints
and Fractions, zero rows and rows that are combinations of other rows.
`nullspace` also meets permuted block-diagonal matrices, whose rows fall
into several connected components, and its integer core `_null_basis`
meets shuffled sparse integer rows.  Every public result must equal the
oracle's and be made of Fractions.
"""

from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superybe import GradedLinearMap, SuperSpace, linalg

import oracles
from conftest import _count_calls

VALUES = (-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2, 0, Fraction(1, 3), Fraction(-3, 4))
# each value as drawn, or as a Fraction: an int 1 and Fraction(1) both occur
ENTRIES = st.tuples(st.sampled_from(VALUES), st.booleans()).map(
    lambda vb: Fraction(vb[0]) if vb[1] else vb[0]
)


# Python ints only, the input the kernel itself takes
INTS = st.sampled_from((-3, -2, -1, 0, 0, 1, 2, 3))


@st.composite
def matrices(draw, nrows=None, ncols=None, entries=ENTRIES):
    """A matrix with some rows replaced by zero rows or by combinations of
    two other rows, so that rank deficiency is common."""
    nrows = draw(st.integers(0, 9)) if nrows is None else nrows
    ncols = draw(st.integers(0, 9)) if ncols is None else ncols
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3:
        for _ in range(draw(st.integers(0, 3))):
            i, j, k = draw(st.permutations(range(nrows)))[:3]
            if draw(st.booleans()):
                rows[i] = [0] * ncols
            else:
                a, b = draw(entries), draw(entries)
                rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@st.composite
def square_matrices(draw, entries=ENTRIES):
    n = draw(st.integers(0, 9))
    return draw(matrices(n, n, entries))


def all_fractions(values):
    return all(type(x) is Fraction for x in values)


def copy(rows):
    return [list(r) for r in rows]


@settings(max_examples=200, deadline=None)
@given(rows=matrices())
def test_rref_and_rank_match_the_fraction_elimination(rows):
    before = copy(rows)
    red, pivots = linalg.rref(rows)
    assert (red, pivots) == oracles.dense_rref(rows)
    assert all(all_fractions(row) for row in red)
    assert linalg.rank(rows) == oracles.dense_rank(rows) == len(pivots)
    assert rows == before


@settings(max_examples=200, deadline=None)
@given(rows=matrices(), ncols=st.integers(0, 9))
def test_nullspace_matches_the_fraction_elimination(rows, ncols):
    # ncols is read only when there are no rows
    basis = linalg.nullspace(rows, ncols=ncols)
    assert basis == oracles.dense_nullspace(rows, ncols=ncols)
    assert all(type(v) is tuple and all_fractions(v) for v in basis)


@st.composite
def block_diagonal_matrices(draw):
    """Several blocks drawn by `matrices()` down a diagonal, with zero rows
    and columns that no row touches, its rows and columns then permuted:
    `nullspace` eliminates each connected component of its rows alone."""
    shapes = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), min_size=2, max_size=4))
    untouched = draw(st.integers(0, 3))
    ncols = sum(width for _, width in shapes) + untouched
    rows = []
    offset = 0
    for height, width in shapes:
        for block_row in draw(matrices(height, width)):
            row = [0] * ncols
            row[offset : offset + width] = block_row
            rows.append(row)
        offset += width
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 3)))]
    row_order = draw(st.permutations(range(len(rows))))
    col_order = draw(st.permutations(range(ncols)))
    return [[rows[i][j] for j in col_order] for i in row_order]


@settings(max_examples=200, deadline=None)
@given(rows=block_diagonal_matrices(), ncols=st.integers(0, 9))
def test_nullspace_of_permuted_block_diagonal_matrices_matches_the_oracle(rows, ncols):
    before = copy(rows)
    basis = linalg.nullspace(rows, ncols=ncols)
    assert basis == oracles.dense_nullspace(rows, ncols=ncols)
    assert all(type(v) is tuple and all_fractions(v) for v in basis)
    assert rows == before


@st.composite
def sparse_int_rows(draw):
    """(rows, n): sparse rows of nonzero ints over n columns, as the
    intertwiner equations come: each row its (c, x) pairs with distinct c,
    some rows repeated, a few columns that no row touches, and the rows and
    the pairs within each row shuffled."""
    touched = draw(st.integers(0, 8))
    n = touched + draw(st.integers(0, 3))
    labels = draw(st.permutations(range(n)))  # the untouched columns fall anywhere
    nonzero = st.integers(-6, 6).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, 9)) if touched else 0):
        cols = draw(st.lists(st.integers(0, touched - 1), min_size=1, max_size=4, unique=True))
        rows.append([(labels[c], draw(nonzero)) for c in cols])
    if rows:
        rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    rows = [draw(st.permutations(row)) for row in draw(st.permutations(rows))]
    return rows, n


@settings(max_examples=300, deadline=None)
@given(drawn=sparse_int_rows())
def test_the_integer_null_basis_matches_the_fraction_elimination(drawn):
    """`_null_basis`, the core `nullspace` and the isomorphism search share:
    the oracle's free columns in order, each v[c] = x / q reduced, q > 0."""
    rows, n = drawn
    before = copy(rows)
    dense = []
    for row in rows:
        line = [0] * n
        for c, x in row:
            line[c] = x
        dense.append(line)
    want = oracles.dense_nullspace(dense, ncols=n)
    got = list(linalg._null_basis(rows, n))
    pivots = oracles.dense_rref(dense)[1] if dense else []
    assert [f for f, _ in got] == [c for c in range(n) if c not in pivots]
    assert len(got) == len(want)
    for (f, pairs), v in zip(got, want):
        assert v[f] == 1
        assert all(type(x) is int and type(q) is int for _, x, q in pairs)
        assert all(x and q > 0 and gcd(x, q) == 1 for _, x, q in pairs)
        assert len({c for c, _, _ in pairs} | {f}) == len(pairs) + 1
        assert {c: Fraction(x, q) for c, x, q in pairs} == {
            c: vc for c, vc in enumerate(v) if vc and c != f
        }
    assert rows == before


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_solve_matches_the_fraction_elimination(data):
    rows = data.draw(matrices())
    rhs = [data.draw(ENTRIES) for _ in rows]
    x = linalg.solve(rows, rhs)
    assert x == oracles.dense_solve(rows, rhs)
    if x is not None:
        assert all_fractions(x)
        assert all(sum(a * b for a, b in zip(row, x)) == c for row, c in zip(rows, rhs))


@settings(max_examples=150, deadline=None)
@given(rows=square_matrices())
def test_invert_and_det_match_the_oracles(rows):
    before = copy(rows)
    inv = linalg.invert(rows)
    assert inv == oracles.dense_invert(rows)
    d = linalg.det(rows)
    assert d == oracles.dense_det(rows) and type(d) is Fraction
    assert (inv is None) == (d == 0)
    if inv is not None:
        assert all(all_fractions(row) for row in inv)
    assert rows == before


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_int_input_matches_the_oracles(data):
    """Rows of Python ints, as the library's integer callers hold them,
    through every public function: the same results as the oracles, as
    Fractions, and the input unchanged."""
    rows = data.draw(matrices(entries=INTS))
    assert all(type(x) is int for row in rows for x in row)
    before = copy(rows)
    red, pivots = linalg.rref(rows)
    assert (red, pivots) == oracles.dense_rref(rows)
    assert all(all_fractions(row) for row in red)
    assert linalg.rank(rows) == oracles.dense_rank(rows)
    ncols = data.draw(st.integers(0, 9))
    basis = linalg.nullspace(rows, ncols=ncols)
    assert basis == oracles.dense_nullspace(rows, ncols=ncols)
    assert all(all_fractions(v) for v in basis)
    rhs = [data.draw(INTS) for _ in rows]
    x = linalg.solve(rows, rhs)
    assert x == oracles.dense_solve(rows, rhs)
    assert x is None or all_fractions(x)
    square = data.draw(square_matrices(INTS))
    inv = linalg.invert(square)
    assert inv == oracles.dense_invert(square)
    assert inv is None or all(all_fractions(row) for row in inv)
    d = linalg.det(square)
    assert d == oracles.dense_det(square) and type(d) is Fraction
    assert rows == before


@settings(max_examples=150, deadline=None)
@given(rows=square_matrices(INTS))
def test_the_private_inverse_reads_each_row_over_its_pivot(rows):
    """`_inverse`, the entry of the integer callers: row a of the inverse
    is ys / q, with q the row's Bareiss pivot, and the input unchanged."""
    before = copy(rows)
    inv = linalg._inverse(rows)
    want = oracles.dense_invert(rows)
    if want is None:
        assert inv is None
    else:
        assert all(q and type(q) is int and all(type(y) is int for y in ys) for q, ys in inv)
        assert [[Fraction(y, q) for y in ys] for q, ys in inv] == want
    assert rows == before


def test_the_kernel_leaves_integer_input_as_fractions():
    # ints with a zero row, then the 0x0 and 2x0 shapes
    red, pivots = linalg.rref([[1, 0], [0, 0]])
    assert red == [[1, 0], [0, 0]] and pivots == [0]
    assert all_fractions(red[0] + red[1])
    assert linalg.rref([]) == ([], []) and linalg.rank([[], []]) == 0
    assert linalg.invert([]) == [] and linalg.solve([], []) == ()
    assert linalg.nullspace([], ncols=2) == [(1, 0), (0, 1)]


def test_rank_runs_no_rref(monkeypatch):
    """`rank` and `is_invertible` read the pivots of the kernel alone."""
    calls = _count_calls(monkeypatch, "superybe.linalg", "rref")
    space = SuperSpace.make(even=["a", "b"], odd=["x"])
    t = GradedLinearMap.from_images(
        space, space, 0, {"a": {"b": Fraction(1, 2)}, "b": {"a": 3}, "x": {"x": -1}}
    )
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert t.is_invertible()
    assert calls == []


@pytest.mark.parametrize("n", [4, 7])
def test_hilbert_matrices_invert_exactly(n):
    # entries 1/(i + j + 1): every row has its own denominators
    h = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    inv = linalg.invert(h)
    assert inv == oracles.dense_invert(h)
    assert all(x.denominator == 1 for row in inv for x in row)


@settings(max_examples=100, deadline=None)
@given(rows=matrices())
def test_the_kernel_keeps_its_ints_within_the_hadamard_bound(rows):
    """Bareiss's exact division keeps every integer of the kernel a minor of
    the row-scaled matrix, so none exceeds Hadamard's bound on the minors:
    the product over the rows of max(1, squared row norm)."""
    scaled = []
    for row in rows:
        d = lcm(*(Fraction(x).denominator for x in row))
        scaled.append([int(x * d) for x in row])
    bound = prod(max(1, sum(x * x for x in row)) for row in scaled)
    m, _, _ = linalg._eliminate(scaled)
    assert all(x * x <= bound for row in m for x in row)


def test_cleared_scales_by_the_lcm_of_the_denominators():
    values = [Fraction(1, 2), Fraction(-3, 7), 2, Fraction(0)]
    assert linalg._cleared(values) == (14, [7, -6, 28, 0])
    assert linalg._cleared([]) == (1, [])
    assert all(type(x) is int for x in linalg._cleared(values)[1])


RATIONALS = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(RATIONALS, max_size=8))
@example(values=[])
@example(values=[0, Fraction(3), -2, Fraction(0)])
@example(values=[Fraction(-1, 2), 0, 3, Fraction(5, 6)])
def test_cleared_agrees_with_the_general_formula(values):
    """Integral lists take the shortcut with D = 1; every list gives the
    lcm D of its denominators and the values times D, as ints."""
    D = lcm(*(Fraction(x).denominator for x in values))
    scale, ints = linalg._cleared(values)
    assert (scale, ints) == (D, [int(x * D) for x in values])
    assert type(scale) is int and all(type(x) is int for x in ints)
