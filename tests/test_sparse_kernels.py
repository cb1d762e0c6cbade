"""The sparse structure-constant kernels against the dense definitions.

Every kernel reads `LieSuperAlgebra.nonzero`; these tests recompute the
same quantities by dense loops over `structure` and compare.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superybe import (
    LieSuperAlgebra,
    RMatrix,
    SuperSpace,
    Tensor2,
    check_lie_axioms,
    fixture_names,
    hierarchy_walk,
    load_fixture,
    scybe_defect,
)
from superybe.graded import sign

import oracles


def _algebras():
    """Every catalog algebra, then the ex4.4 r1 hierarchy hosts."""
    found = {}
    for name in fixture_names():
        for part_name, part in load_fixture(name).parts.items():
            if isinstance(part, LieSuperAlgebra) and part not in found.values():
                found[f"{name}:{part_name}"] = part
    ex44 = load_fixture("ex4.4").parts
    for word in ("++", "+++"):
        found["r1" + word] = hierarchy_walk(ex44["algebra"], ex44["r1"], word).algebra
    return found


ALGEBRAS = _algebras()
NAMES = sorted(ALGEBRAS)


def dense_pan_supersymmetric(rnd, g, parity):
    """sigma(r) = -(-1)^{|r|} r with every free entry +-1."""
    space = g.space
    n = space.dim
    P = space.parities
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (P[i] + P[j]) % 2 != parity:
                continue
            if i == j:
                if (parity + P[i]) % 2 == 1:
                    grid[i][i] = Fraction(rnd.choice((-1, 1)))
                continue
            value = Fraction(rnd.choice((-1, 1)))
            grid[i][j] = value
            grid[j][i] = -sign(parity + P[i] * P[j]) * value
    return RMatrix(g, Tensor2(space, space, tuple(tuple(r) for r in grid), parity))


def test_hosts_are_included():
    assert ALGEBRAS["r1++"].dim == 8 and ALGEBRAS["r1+++"].dim == 16


@pytest.mark.parametrize("name", NAMES)
def test_table_lists_exactly_the_nonzero_constants(name):
    g = ALGEBRAS[name]
    n = g.dim
    listed = {
        (i, j, k): c for i in range(n) for j in range(n) for k, c in g.nonzero[i][j]
    }
    dense = {
        (i, j, k): g.structure[i][j][k]
        for i, j, k in itertools.product(range(n), repeat=3)
        if g.structure[i][j][k] != 0
    }
    assert listed == dense
    for row in g.nonzero:
        for entry in row:
            assert [k for k, _ in entry] == sorted({k for k, _ in entry})


@pytest.mark.parametrize("name", NAMES)
def test_adjoint_and_abelian_match_the_dense_table(name):
    g = ALGEBRAS[name]
    n = g.dim
    for i in range(n):
        assert g.ad(i).matrix == tuple(
            tuple(g.structure[i][j][k] for j in range(n)) for k in range(n)
        )
    assert g.is_abelian() == all(
        c == 0 for plane in g.structure for row in plane for c in row
    )


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(NAMES), parity=st.integers(0, 1), rnd=st.randoms(use_true_random=False))
def test_defect_matches_the_dense_oracle(name, parity, rnd):
    g = ALGEBRAS[name]
    r = dense_pan_supersymmetric(rnd, g, parity)
    got = {key: c for key, c in scybe_defect(r).nonzero()}
    assert got == oracles.naive_scybe_defect(g, r.tensor)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(NAMES), data=st.data())
def test_bracket_matches_the_dense_triple_sum(name, data):
    g = ALGEBRAS[name]
    n = g.dim
    coords = st.lists(st.integers(-2, 2).map(Fraction), min_size=n, max_size=n)
    x, y = data.draw(coords), data.draw(coords)
    dense = tuple(
        sum((x[i] * y[j] * g.structure[i][j][k] for i in range(n) for j in range(n)), Fraction(0))
        for k in range(n)
    )
    assert g.bracket(x, y) == dense


# ---------------------------------------------------------------------------
# first witnesses of check_lie_axioms


def dense_first_witnesses(g):
    """The first offending detail of each axiom by dense scans over
    `structure`, in the order the report promises."""
    n = g.dim
    L = g.space.labels
    P = g.space.parities
    S = g.structure

    def basis_bracket(x, y):
        pairs = [(i, j) for i in range(n) if x[i] != 0 for j in range(n) if y[j] != 0]
        return tuple(
            sum((x[i] * y[j] * S[i][j][k] for i, j in pairs), Fraction(0)) for k in range(n)
        )

    def e(i):
        return tuple(Fraction(int(i == m)) for m in range(n))

    triples = list(itertools.product(range(n), repeat=3))
    parity = next(
        (
            f"[{L[i]}, {L[j]}] has a component along {L[k]} of wrong parity"
            for i, j, k in triples
            if S[i][j][k] != 0 and P[k] != (P[i] + P[j]) % 2
        ),
        "",
    )
    skew = next(
        (
            f"[{L[i]}, {L[j]}] != -(-1)^(|{L[i]}||{L[j]}|) [{L[j]}, {L[i]}]"
            for i, j, k in triples
            if S[i][j][k] != -sign(P[i] * P[j]) * S[j][i][k]
        ),
        "",
    )
    jacobi = next(
        (
            f"fails at triple ({L[i]}, {L[j]}, {L[k]})"
            for i, j, k in triples
            if basis_bracket(e(i), basis_bracket(e(j), e(k)))
            != tuple(
                a + sign(P[i] * P[j]) * b
                for a, b in zip(
                    basis_bracket(basis_bracket(e(i), e(j)), e(k)),
                    basis_bracket(e(j), basis_bracket(e(i), e(k))),
                )
            )
        ),
        "",
    )
    return [parity, skew, jacobi]


def algebra_from_entries(space, entries):
    n = space.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (x, y), terms in entries.items():
        for z, v in terms.items():
            c[space.index(x)][space.index(y)][space.index(z)] = Fraction(v)
    return LieSuperAlgebra(space, tuple(tuple(tuple(r) for r in p) for p in c))


def test_non_lie_algebra_reports_the_same_first_witnesses():
    space = SuperSpace.make(even=["a", "b"], odd=["c", "d"])
    g = algebra_from_entries(
        space,
        {
            ("a", "b"): {"a": 1},
            ("b", "a"): {"a": -1},
            ("a", "c"): {"d": 1},
            ("c", "a"): {"d": -1},
            ("b", "d"): {"c": 1},
            ("d", "b"): {"c": 1},
            ("c", "d"): {"a": 1, "c": 1},
            ("d", "c"): {"a": 1, "c": 1},
            ("c", "c"): {"b": 2},
        },
    )
    report = check_lie_axioms(g)
    assert [(item.name, item.ok, item.detail) for item in report.items] == [
        ("parity consistency", False, "[c, d] has a component along c of wrong parity"),
        ("super skew-symmetry", False, "[b, d] != -(-1)^(|b||d|) [d, b]"),
        ("super Jacobi", False, "fails at triple (a, b, c)"),
    ]
    assert [item.detail for item in report.items] == dense_first_witnesses(g)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_structures_report_the_dense_first_witnesses(data):
    even = data.draw(st.integers(0, 2))
    odd = data.draw(st.integers(1 if even == 0 else 0, 2))
    space = SuperSpace.make(even=[f"a{i}" for i in range(even)], odd=[f"b{i}" for i in range(odd)])
    n = space.dim
    values = st.lists(st.sampled_from((0, 0, 0, 1, -1)).map(Fraction), min_size=n, max_size=n)
    structure = tuple(tuple(tuple(data.draw(values)) for _ in range(n)) for _ in range(n))
    g = LieSuperAlgebra(space, structure)
    assert [item.detail for item in check_lie_axioms(g).items] == dense_first_witnesses(g)


@pytest.mark.parametrize("name", NAMES)
def test_lie_algebras_report_like_the_dense_checks(name):
    g = ALGEBRAS[name]
    assert [item.detail for item in check_lie_axioms(g).items] == dense_first_witnesses(g)
