"""Elimination on the two parity blocks against the dense kernel.

A homogeneous matrix of parity p is zero outside two blocks, the
parity-q columns times the parity-(q + p) rows, and the library
eliminates each block alone.  Every block answer must equal the dense
kernel's on the full matrix (`linalg.invert`, `linalg.rank`) and the
determinant by minors of `tests/oracles.py`: map inverses and
invertibility, the Gram matrix of `beta_form` and the non-degeneracy flag
of `classify_form`.  The spaces run from 0|0 to 3|3, with unequal block
sizes (so 0|n and n|0), singular blocks and rational entries.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superybe import EVEN, ODD, GradedLinearMap, LieSuperAlgebra, SuperSpace, Tensor2, linalg
from superybe.liesuper import BilinearForm, classify_form
from superybe.rmatrix import DegenerateRMatrix, RMatrix, beta_form, rmatrix_to_operator

import oracles
from conftest import _count_calls

VALUES = (-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2, 0, Fraction(1, 3), Fraction(-3, 4))
DIMS = st.integers(0, 3)


def space(prefix, even, odd):
    labels = [f"{prefix}{i}" for i in range(even + odd)]
    return SuperSpace.make(even=labels[:even], odd=labels[even:])


@st.composite
def homogeneous_matrices(draw, same_space=False):
    """(domain, codomain, parity, rows): dense rows over the codomain of a
    homogeneous matrix of the parity.  Some draws make a row zero, or a
    multiple of another row of the same parity, so that singular blocks
    are common."""
    domain = space("v", draw(DIMS), draw(DIMS))
    codomain = domain if same_space else space("w", draw(DIMS), draw(DIMS))
    parity = draw(st.sampled_from((EVEN, ODD)))
    P, Q = codomain.parities, domain.parities
    rows = [
        [Fraction(draw(st.sampled_from(VALUES))) if P[k] == q ^ parity else Fraction(0) for q in Q]
        for k in range(codomain.dim)
    ]
    if rows and draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        partners = [j for j in range(len(rows)) if j != k and P[j] == P[k]]
        if partners and draw(st.booleans()):
            c = Fraction(draw(st.sampled_from(VALUES)))
            rows[k] = [c * x for x in rows[draw(st.sampled_from(partners))]]
        else:
            rows[k] = [Fraction(0)] * domain.dim
    return domain, codomain, parity, rows


def dense_nonsingular(rows, ncols):
    """Square and of full rank, by the dense kernel and by minors."""
    square = len(rows) == ncols
    by_rank = square and linalg.rank(rows) == ncols
    assert by_rank == (square and oracles.dense_det(rows) != 0)
    return by_rank


@settings(max_examples=300, deadline=None)
@given(m=homogeneous_matrices())
def test_map_inverse_and_invertibility_match_the_dense_kernel(m):
    domain, codomain, parity, rows = m
    t = GradedLinearMap(domain, codomain, parity, rows)
    invertible = dense_nonsingular(rows, domain.dim)
    assert t.is_invertible() == invertible
    if invertible:
        inv = t.inverse()
        assert (inv.domain, inv.codomain, inv.parity) == (codomain, domain, parity)
        assert inv.matrix == tuple(map(tuple, linalg.invert(rows)))
        assert all(type(x) is Fraction for row in inv.matrix for x in row)
    else:
        with pytest.raises(ValueError):
            t.inverse()


@settings(max_examples=300, deadline=None)
@given(m=homogeneous_matrices(same_space=True))
def test_beta_form_and_non_degeneracy_match_the_dense_kernel(m):
    sp, _, parity, rows = m
    g = LieSuperAlgebra.from_brackets(sp, {})
    r = RMatrix(g, Tensor2(sp, sp, rows, parity))
    dense = rmatrix_to_operator(r)._rows()
    inv = linalg.invert(dense)
    assert (inv is not None) == dense_nonsingular(dense, sp.dim)
    if inv is None:
        with pytest.raises(DegenerateRMatrix):
            beta_form(r)
    else:
        # row i of the Gram matrix is column i of T_r^{-1}
        beta = beta_form(r)
        assert (beta.gram, beta.parity) == (tuple(zip(*inv)), parity)
        assert all(type(x) is Fraction for row in beta.gram for x in row)
    form = BilinearForm(sp, tuple(map(tuple, rows)), parity)
    assert classify_form(form, g).non_degenerate == dense_nonsingular(rows, sp.dim)


# the integer inverses against the Fraction oracle: a map or tensor is
# cleared once, by the lcm D of its denominators, each block is inverted on
# ints, and an inverse entry comes back as D y / q


@settings(max_examples=300, deadline=None)
@given(m=homogeneous_matrices())
def test_map_inverse_and_invertibility_match_the_fraction_oracle(m):
    domain, codomain, parity, rows = m
    t = GradedLinearMap(domain, codomain, parity, rows)
    invertible = codomain.dim == domain.dim and oracles.dense_rank(rows) == domain.dim
    assert t.is_invertible() == invertible
    if invertible:
        inv = t.inverse()
        assert inv.matrix == tuple(map(tuple, oracles.dense_invert(rows)))
        assert inv.compose(t) == GradedLinearMap.identity(domain)


@settings(max_examples=300, deadline=None)
@given(m=homogeneous_matrices(same_space=True))
def test_beta_form_matches_the_fraction_oracle(m):
    sp, _, parity, a = m
    n, P = sp.dim, sp.parities
    r = RMatrix(LieSuperAlgebra.from_brackets(sp, {}), Tensor2(sp, sp, a, parity))
    # column i of T_r is T_r(e_i*) = (-1)^{|e_i|} sum_j a_ji e_j
    inv = oracles.dense_invert([[-a[j][i] if P[i] else a[j][i] for i in range(n)] for j in range(n)])
    if inv is None:
        with pytest.raises(DegenerateRMatrix):
            beta_form(r)
    else:
        # row i of the Gram matrix is column i of T_r^{-1}
        assert beta_form(r).gram == tuple(tuple(inv[j][i] for j in range(n)) for i in range(n))


def test_unequal_blocks_are_refused_without_an_elimination(monkeypatch):
    # an odd map of a 2|1 space to itself sends 2 even dimensions to 1 odd
    # one: it is singular whatever its entries, and so is an odd tensor or
    # odd form over a 2|1 algebra
    kernel = [
        _count_calls(monkeypatch, "superybe.linalg", name) for name in ("_eliminate", "invert", "rank")
    ]
    sp = SuperSpace.make(even=["a", "b"], odd=["x"])
    t = GradedLinearMap.from_images(sp, sp, ODD, {"a": {"x": 1}, "b": {"x": 2}, "x": {"a": 1}})
    assert not t.is_invertible()
    with pytest.raises(ValueError, match="not invertible"):
        t.inverse()
    g = LieSuperAlgebra.from_brackets(sp, {("a", "x"): {"x": 1}})
    r = RMatrix.from_terms(g, {("a", "x"): 1, ("x", "a"): 1, ("b", "x"): 3, ("x", "b"): 3}, ODD)
    with pytest.raises(DegenerateRMatrix):
        beta_form(r)
    form = BilinearForm.from_terms(sp, {("a", "x"): 1, ("x", "a"): -1}, ODD)
    assert not classify_form(form, g).non_degenerate
    assert kernel == [[], [], []]


def test_fractional_maps_of_both_parities_invert_on_integers():
    # a 2|2 space, entries with denominators 2, 3, 5 and 7 in both blocks
    sp = SuperSpace.make(even=["a", "b"], odd=["x", "y"])
    half, third = Fraction(1, 2), Fraction(1, 3)
    even = {"a": {"a": half, "b": 3}, "b": {"a": -third}, "x": {"x": Fraction(5, 7)}}
    even["y"] = {"x": 1, "y": -half}
    odd = {"a": {"x": half}, "b": {"y": Fraction(-3, 5)}, "x": {"a": 2, "b": third}}
    odd["y"] = {"b": Fraction(7, 2)}
    for parity, images in ((EVEN, even), (ODD, odd)):
        t = GradedLinearMap.from_images(sp, sp, parity, images)
        assert t.inverse().compose(t) == GradedLinearMap.identity(sp), parity


def test_each_nonempty_block_is_eliminated_once(monkeypatch):
    # an even map of a 2|1 space inverts its 2x2 and 1x1 blocks; a 3|0
    # space has one block, the whole matrix, and an empty one
    inverts = _count_calls(monkeypatch, "superybe.linalg", "_inverse")
    sp = SuperSpace.make(even=["a", "b"], odd=["x"])
    t = GradedLinearMap.from_images(sp, sp, EVEN, {"a": {"b": 1}, "b": {"a": 2}, "x": {"x": -1}})
    assert t.inverse().compose(t) == GradedLinearMap.identity(sp)
    assert [block for block, in inverts] == [[[0, 2], [1, 0]], [[-1]]]
    inverts.clear()
    ev = SuperSpace.make(even=["u", "v", "w"])
    rows = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]
    GradedLinearMap(ev, ev, EVEN, rows).inverse()
    assert [block for block, in inverts] == [rows]
