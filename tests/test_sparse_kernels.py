"""The sparse kernels and constructions against the dense definitions.

Every bracket kernel reads `LieSuperAlgebra.nonzero`, and every derived
linear map is built from its nonzero entries; these tests recompute the
same quantities by dense loops over `structure` and `matrix` and compare.
"""

import functools
import gc
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superybe import (
    EVEN,
    BilinearForm,
    GradedLinearMap,
    LieSuperAlgebra,
    PreLieSuperAlgebra,
    Representation,
    RMatrix,
    SuperSpace,
    Tensor2,
    Tensor3,
    adjoint,
    beta_form,
    check_lie_axioms,
    check_representation,
    coadjoint,
    compatible_prelie,
    direct_sum_rep,
    double_dual_embedding,
    dual_map,
    dual_rep,
    extend_to_double,
    fixture_names,
    grid_search_oops,
    hierarchy_trace,
    hierarchy_walk,
    induced_coadjoint_operator,
    is_pan_supersymmetric,
    is_self_reversing,
    is_super_rmatrix,
    left_regular_rep,
    linalg,
    load_fixture,
    ODD,
    classify_form,
    oop_holds,
    operator_to_rmatrix,
    operator_to_tensor,
    pair2_eval,
    pair_eval_reversed,
    parity_reverse_rep,
    product_from_oop,
    rmatrix_to_operator,
    scybe_defect,
    self_reversing_double,
    semidirect_product,
    suspend_map,
    trivial_rep,
    twist,
)
from superybe.graded import merge_spaces, relabel_domain, sign, suspend_label
from superybe.liesuper import _semidirect, _sparse_table
from superybe.reps import intertwiner_space
from superybe.rmatrix import (
    _dual_semidirect,
    _host,
    _level,
    _pan_supersymmetric_tensor,
    _plain_semidirect,
    _step,
)

import oracles
from conftest import (
    _count_calls,
    _spied_builds,
    equivalence_cases,
    random_pan_supersymmetric,
)


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
    S = g.structure
    dense = {
        (i, j, k): S[i][j][k]
        for i, j, k in itertools.product(range(n), repeat=3)
        if S[i][j][k] != 0
    }
    assert listed == dense
    for row in g.nonzero:
        for entry in row:
            assert [k for k, _ in entry] == sorted({k for k, _ in entry})


@pytest.mark.parametrize("name", NAMES)
def test_adjoint_and_abelian_match_the_dense_table(name):
    g = ALGEBRAS[name]
    n, S = g.dim, g.structure
    for i in range(n):
        assert g.ad(i).matrix == tuple(tuple(S[i][j][k] for j in range(n)) for k in range(n))
    assert g.is_abelian() == all(c == 0 for plane in S for row in plane for c in row)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(NAMES), parity=st.integers(0, 1), rnd=st.randoms(use_true_random=False))
def test_defect_matches_the_dense_oracle(name, parity, rnd):
    g = ALGEBRAS[name]
    r = dense_pan_supersymmetric(rnd, g, parity)
    defect = scybe_defect(r)
    got = {key: c for key, c in defect.nonzero()}
    assert got == oracles.naive_scybe_defect(g, r.tensor)
    # the stored slots are the nonzero ones in row-major order, and the
    # dense view agrees with them
    keys = [key for key, _ in defect.entries]
    assert keys == sorted(got) and defect.is_zero() == (not got)
    coeffs = defect.coeffs
    assert got == {
        (i, j, k): c
        for i, j, k in itertools.product(range(g.dim), repeat=3)
        if (c := coeffs[i][j][k]) != 0
    }


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(NAMES), data=st.data())
def test_bracket_matches_the_dense_triple_sum(name, data):
    g = ALGEBRAS[name]
    n = g.dim
    coords = st.lists(st.integers(-2, 2).map(Fraction), min_size=n, max_size=n)
    x, y = data.draw(coords), data.draw(coords)
    S = g.structure
    dense = tuple(
        sum((x[i] * y[j] * S[i][j][k] for i in range(n) for j in range(n)), Fraction(0))
        for k in range(n)
    )
    assert g.bracket(x, y) == dense


# ---------------------------------------------------------------------------
# first witnesses of check_lie_axioms


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
    assert [item.detail for item in report.items] == oracles.dense_first_witnesses(g)


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
    assert [item.detail for item in check_lie_axioms(g).items] == oracles.dense_first_witnesses(g)
    # ad is a representation exactly when the super Jacobi identity holds,
    # and both name the same first (i, j); ad(e_i) is homogeneous only on
    # the graded part of the structure, so both checks read that part
    P = space.parities
    graded = LieSuperAlgebra(
        space,
        tuple(
            tuple(
                tuple(c if P[k] == (P[i] + P[j]) % 2 else Fraction(0) for k, c in enumerate(cell))
                for j, cell in enumerate(row)
            )
            for i, row in enumerate(structure)
        ),
    )
    jacobi = check_lie_axioms(graded).items[2]
    hom = check_representation(graded, space, [graded.ad(i) for i in range(n)]).items[1]
    pair = jacobi.detail.rpartition(", ")[0].replace("triple", "pair") + ")" if jacobi.detail else ""
    assert (hom.ok, hom.detail) == (jacobi.ok, pair)


@pytest.mark.parametrize("name", NAMES)
def test_lie_algebras_report_like_the_dense_checks(name):
    g = ALGEBRAS[name]
    assert [item.detail for item in check_lie_axioms(g).items] == oracles.dense_first_witnesses(g)


def _hierarchy_levels():
    """Every hierarchy_trace level of ex4.4 r0 and r1 up to dim 16, by word."""
    ex44 = load_fixture("ex4.4").parts
    levels = {}
    for tensor in ("r0", "r1"):
        for word in map("".join, itertools.product("+-", repeat=3)):
            for depth, level in enumerate(hierarchy_trace(ex44["algebra"], ex44[tensor], word), 1):
                levels[tensor + word[:depth]] = level.algebra
    return levels


HIERARCHY_LEVELS = _hierarchy_levels()


def test_hierarchy_levels_reach_dim_16():
    assert len(HIERARCHY_LEVELS) == 28
    assert max(g.dim for g in HIERARCHY_LEVELS.values()) == 16


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(HIERARCHY_LEVELS)), data=st.data())
def test_perturbed_hierarchy_levels_report_the_dense_first_witnesses(name, data):
    # one structure constant c_ij^k perturbed, and with a draw its sign-rule
    # partner c_ji^k too, so that skew-symmetry holds and Jacobi must fail
    g = HIERARCHY_LEVELS[name]
    n, P = g.dim, g.space.parities
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    delta = data.draw(st.sampled_from((HALF, Fraction(-1), Fraction(2))))
    structure = [[list(cell) for cell in row] for row in g.structure]
    structure[i][j][k] += delta
    if i != j and data.draw(st.booleans()):
        structure[j][i][k] -= sign(P[i] * P[j]) * delta
    bad = LieSuperAlgebra(g.space, tuple(tuple(map(tuple, row)) for row in structure))
    report = check_lie_axioms(bad)
    assert [item.detail for item in report.items] == oracles.dense_first_witnesses(bad)


# the catalog algebras and the hierarchy hosts up to dim 8, by name, with a
# bracket: the dense oracle's scan grows as dim^5
RESCALABLE = {
    name: g
    for name, g in {**ALGEBRAS, **{f"level {w}": h for w, h in HIERARCHY_LEVELS.items()}}.items()
    if not g.is_abelian() and g.dim <= 8
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(RESCALABLE)), data=st.data())
def test_rescaled_algebras_report_the_dense_first_witnesses(name, data):
    """The Jacobi defects are summed on ints, both tables cleared by one
    lcm, so that a defect comes out scaled by its square.  A basis change
    e_p -> s e_p gives structure constants with denominators (E != 1), and
    a perturbation, drawn or not, makes Jacobi fail: the first witnesses
    are still the dense oracle's, and without the perturbation they are
    those of the integral original."""
    g = RESCALABLE[name]
    n, P = g.dim, g.space.parities
    p = data.draw(st.sampled_from([a for a in range(n) if any(g.nonzero[a])]))
    h = rescaled_algebra(g, p, data.draw(st.sampled_from(BASIS_SCALES)))
    assume(h._cleared[0] != 1)
    if data.draw(st.booleans()):
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        delta = data.draw(st.sampled_from((HALF, Fraction(-1), Fraction(2))))
        structure = [[list(cell) for cell in row] for row in h.structure]
        structure[i][j][k] += delta
        if i != j:
            structure[j][i][k] -= sign(P[i] * P[j]) * delta
        h = LieSuperAlgebra(g.space, tuple(tuple(map(tuple, row)) for row in structure))
    else:
        assert check_lie_axioms(h).items == check_lie_axioms(g).items
    assert [item.detail for item in check_lie_axioms(h).items] == oracles.dense_first_witnesses(h)


# ---------------------------------------------------------------------------
# derived linear maps against their dense formulas
#
# Each reference below is the dense n x m grid formula the construction
# was first written with; the library builds the same maps from their
# nonzero entries.

HALF = Fraction(1, 2)
ENTRY_VALUES = (Fraction(0), HALF, -HALF, Fraction(1), Fraction(-1))


def _reps():
    """Every catalog representation, its dual and its parity reverse."""
    found = []
    for name in fixture_names():
        for part in load_fixture(name).parts.values():
            if isinstance(part, Representation) and part not in found:
                found.append(part)
    return found + [dual_rep(rho) for rho in found] + [parity_reverse_rep(rho) for rho in found]


REPS = _reps()


def grid(rows, cols, entry):
    return tuple(tuple(Fraction(entry(k, i)) for i in range(cols)) for k in range(rows))


def dense_mul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return grid(len(a), cols, lambda r, c: sum((a[r][m] * b[m][c] for m in range(inner)), Fraction(0)))


def ref_zero(domain, codomain):
    return ((Fraction(0),) * domain.dim,) * codomain.dim


def ref_identity(space):
    return grid(space.dim, space.dim, lambda k, i: int(k == i))


def ref_from_images(domain, codomain, images):
    cols = {domain.index(src): codomain.vector(terms) for src, terms in images.items()}
    return grid(codomain.dim, domain.dim, lambda k, i: cols[i][k] if i in cols else 0)


def ref_suspend(t):
    sdom, perm = t.domain.suspended_with_permutation()
    back = {perm[i]: i for i in range(t.domain.dim)}
    m = t.matrix
    return sdom, grid(t.codomain.dim, sdom.dim, lambda k, c: m[k][back[c]])


def ref_dual_map(t):
    P, m = t.codomain.parities, t.matrix
    return grid(t.domain.dim, t.codomain.dim, lambda i, j: sign(t.parity * P[j]) * m[j][i])


def ref_double_dual(space):
    return grid(space.dim, space.dim, lambda k, i: sign(space.parities[i]) if i == k else 0)


def ref_dual_action(rho):
    P, Q = rho.algebra.space.parities, rho.space.parities
    return [
        grid(rho.space.dim, rho.space.dim, lambda j, i: -sign(P[a] * Q[i]) * m[i][j])
        for a, m in enumerate([m.matrix for m in rho.action])
    ]


def ref_reverse_action(rho):
    _, perm = rho.space.suspended_with_permutation()
    n = rho.space.dim
    out = []
    for a, m in enumerate([m.matrix for m in rho.action]):
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                g[perm[i]][perm[j]] = sign(rho.algebra.space.parities[a]) * m[i][j]
        out.append(tuple(tuple(r) for r in g))
    return out


def ref_direct_sum_action(rho1, rho2):
    total, emb1, emb2 = merge_spaces(rho1.space, rho2.space)
    out = []
    for a in range(rho1.algebra.dim):
        g = [[Fraction(0)] * total.dim for _ in range(total.dim)]
        for rho, emb in ((rho1, emb1), (rho2, emb2)):
            m = rho.action[a].matrix
            for i in range(rho.space.dim):
                for j in range(rho.space.dim):
                    g[emb[i]][emb[j]] = m[i][j]
        out.append(tuple(tuple(r) for r in g))
    return total, out


def ref_semidirect(g, rho):
    total, ga, va = merge_spaces(g.space, rho.space)
    n = total.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    S = g.structure
    for i, j, k in itertools.product(range(g.dim), repeat=3):
        c[ga[i]][ga[j]][ga[k]] = S[i][j][k]
    for a in range(g.dim):
        m = rho.action[a].matrix
        for i in range(rho.space.dim):
            s = sign(rho.space.parities[i] * g.space.parities[a])
            for k in range(rho.space.dim):
                if m[k][i] != 0:
                    c[ga[a]][va[i]][va[k]] = m[k][i]
                    c[va[i]][ga[a]][va[k]] = -s * m[k][i]
    return total, tuple(tuple(tuple(r) for r in p) for p in c)


def ref_extend_to_double(t, rho):
    srho = parity_reverse_rep(rho)
    W, emb, _ = merge_spaces(rho.space, srho.space)
    back, m = {emb[i]: i for i in range(rho.space.dim)}, t.matrix
    return W, grid(t.codomain.dim, W.dim, lambda k, c: m[k][back[c]] if c in back else 0)


def ref_plain_input(t, rho, variant):
    """(T, rho) of the plain construction, built from the dense formulas."""
    if variant == "plain":
        return t, rho
    sdom, m = ref_suspend(t)
    sspace = rho.space.suspended()
    srho = Representation(
        rho.algebra,
        sspace,
        tuple(
            GradedLinearMap(sspace, sspace, p, a)
            for p, a in zip(rho.algebra.space.parities, ref_reverse_action(rho))
        ),
    )
    return GradedLinearMap(sdom, t.codomain, t.parity ^ 1, m), srho


def ref_operator_to_rmatrix(t, rho, variant):
    t, rho = ref_plain_input(t, rho, variant)
    total, ga, va = merge_spaces(rho.algebra.space, rho.space.dual())
    coeffs = [[Fraction(0)] * total.dim for _ in range(total.dim)]
    m = t.matrix
    for k in range(t.codomain.dim):
        for i in range(t.domain.dim):
            x = m[k][i]
            coeffs[ga[k]][va[i]] += x
            coeffs[va[i]][ga[k]] += sign((t.parity + 1) * (rho.space.parities[i] + 1)) * x
    return total, tuple(tuple(r) for r in coeffs), t.parity


def ref_induced_coadjoint(t, rho, variant):
    t, rho = ref_plain_input(t, rho, variant)
    total, ga, va = merge_spaces(rho.algebra.space, rho.space.dual())
    tstar, tm = ref_dual_map(t), t.matrix
    m = [[Fraction(0)] * total.dim for _ in range(total.dim)]
    for i in range(t.domain.dim):
        for k in range(t.codomain.dim):
            m[ga[k]][va[i]] = sign(rho.space.parities[i]) * tm[k][i]
    for j in range(t.codomain.dim):
        for i in range(t.domain.dim):
            m[va[i]][ga[j]] = -sign(t.parity) * tstar[i][j]
    return total, tuple(tuple(r) for r in m)


def ref_rmatrix_to_operator(r):
    P, a = r.space.parities, r.tensor.coeffs
    return grid(r.space.dim, r.space.dim, lambda j, i: sign(P[i]) * a[j][i])


def ref_product_from_oop(t, rho):
    V = rho.space
    n = V.dim
    A, T = [m.matrix for m in rho.action], t.matrix
    return tuple(
        tuple(
            tuple(
                sign(t.parity * (V.parities[i] + t.parity))
                * sum((T[a][i] * A[a][k][j] for a in range(len(A))), Fraction(0))
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )


def ref_compatible_product(t, rho):
    P = rho.algebra.space.parities
    n = rho.algebra.dim
    tinv, tm = t.inverse().matrix, t.matrix
    out = []
    for i, a in enumerate([m.matrix for m in rho.action]):
        m = dense_mul(tm, dense_mul(a, tinv))
        out.append(tuple(tuple(sign(t.parity * P[i]) * m[k][j] for k in range(n)) for j in range(n)))
    return tuple(out)


def ref_hom_witness(g, V, action):
    """The first pair breaking rho(e_i) rho(e_j) - (-1)^{|i||j|} rho(e_j)
    rho(e_i) = rho([e_i, e_j]) for the action maps on V, by dense matrix
    products."""
    P, L, d = g.space.parities, g.space.labels, V.dim
    mats, S = [m.matrix for m in action], g.structure
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = dense_mul(mats[i], mats[j])
            rhs = dense_mul(mats[j], mats[i])
            bracket = grid(
                d,
                d,
                lambda r, c: sum((S[i][j][k] * mats[k][r][c] for k in range(g.dim)), Fraction(0)),
            )
            if any(
                lhs[r][c] - sign(P[i] * P[j]) * rhs[r][c] != bracket[r][c]
                for r in range(d)
                for c in range(d)
            ):
                return f"fails at pair ({L[i]}, {L[j]})"
    return ""


def random_matrix(rnd, domain, codomain, parity):
    """A dense homogeneous matrix, explicit zeros included."""
    return grid(
        codomain.dim,
        domain.dim,
        lambda k, i: rnd.choice(ENTRY_VALUES)
        if codomain.parities[k] == domain.parities[i] ^ parity
        else 0,
    )


def random_map(rnd, domain, codomain, parity):
    return GradedLinearMap(domain, codomain, parity, random_matrix(rnd, domain, codomain, parity))


def operators():
    """(T, rho): the O-operators with entries in {0, 1/2, -1/2} of every
    representation in REPS with at most ten free positions per parity."""
    out = []
    for rho in REPS:
        g = rho.algebra
        for parity in (0, 1):
            free = sum(
                1
                for p in g.space.parities
                for q in rho.space.parities
                if p == q ^ parity
            )
            if free <= 10:
                out += [(t, rho) for t in grid_search_oops(g, rho, parity, (0, HALF, -HALF))]
    return out


OPERATORS = operators()

reps = st.sampled_from(REPS)


@settings(max_examples=60, deadline=None)
@given(rho=reps, parity=st.integers(0, 1), rnd=st.randoms(use_true_random=False))
def test_map_constructions_match_their_dense_formulas(rho, parity, rnd):
    V, g = rho.space, rho.algebra.space
    t = random_map(rnd, V, g, parity)
    u = random_map(rnd, g, V, rnd.randint(0, 1))
    assert GradedLinearMap.zero(V, g, parity).matrix == ref_zero(V, g)
    assert GradedLinearMap.identity(V).matrix == ref_identity(V)
    tm = t.matrix
    images = {
        V.labels[i]: {g.labels[k]: tm[k][i] for k in range(g.dim) if tm[k][i] != 0}
        for i in range(V.dim)
        if rnd.random() < 0.7
    }
    assert GradedLinearMap.from_images(V, g, parity, images).matrix == ref_from_images(V, g, images)
    composed = u.compose(t)
    assert (composed.domain, composed.codomain, composed.parity) == (V, V, (t.parity + u.parity) % 2)
    assert composed.matrix == dense_mul(u.matrix, t.matrix)
    sdom, m = ref_suspend(t)
    s = suspend_map(t)
    assert (s.domain, s.parity, s.matrix) == (sdom, parity ^ 1, m)
    d = dual_map(t)
    assert (d.domain, d.codomain, d.parity, d.matrix) == (g.dual(), V.dual(), parity, ref_dual_map(t))
    theta = double_dual_embedding(V)
    assert (theta.codomain, theta.matrix) == (V.dual().dual(), ref_double_dual(V))
    assert t.nonzero == tuple(
        tuple((k, tm[k][i]) for k in range(g.dim) if tm[k][i] != 0) for i in range(V.dim)
    )


@settings(max_examples=60, deadline=None)
@given(rho=reps, parity=st.integers(0, 1), rnd=st.randoms(use_true_random=False))
def test_evaluation_matches_the_dense_sums(rho, parity, rnd):
    V, g = rho.space, rho.algebra.space
    t = random_map(rnd, V, g, parity)
    v = tuple(rnd.choice(ENTRY_VALUES) for _ in range(V.dim))
    x = tuple(rnd.choice(ENTRY_VALUES) for _ in range(g.dim))
    tm, A = t.matrix, [m.matrix for m in rho.action]
    for i in range(V.dim):
        assert t.column(i) == tuple(tm[k][i] for k in range(g.dim))
    assert t.apply(v) == tuple(
        sum((tm[k][i] * v[i] for i in range(V.dim)), Fraction(0)) for k in range(g.dim)
    )
    assert rho.apply_vec(x, v) == tuple(
        sum(
            (x[a] * A[a][k][i] * v[i] for a in range(g.dim) for i in range(V.dim)),
            Fraction(0),
        )
        for k in range(V.dim)
    )


@pytest.mark.parametrize("index", range(len(REPS)))
def test_rep_constructions_match_their_dense_formulas(index):
    rho = REPS[index]
    g = rho.algebra
    assert [m.matrix for m in dual_rep(rho).action] == ref_dual_action(rho)
    srho = parity_reverse_rep(rho)
    assert srho.space == rho.space.suspended()
    assert [m.matrix for m in srho.action] == ref_reverse_action(rho)
    for other in (rho, srho, dual_rep(rho)):
        total, action = ref_direct_sum_action(rho, other)
        summed = direct_sum_rep(rho, other)
        assert summed.space == total
        assert [m.matrix for m in summed.action] == action
        assert [m.parity for m in summed.action] == list(g.space.parities)
    total, structure = ref_semidirect(g, rho)
    h = semidirect_product(g, rho)
    assert (h.space, h.structure) == (total, structure)


@settings(max_examples=40, deadline=None)
@given(rho=reps, rnd=st.randoms(use_true_random=False))
def test_check_representation_reports_the_dense_first_witness(rho, rnd):
    """A perturbed action is judged as the dense products judge it."""
    action = list(rho.action)
    a = rnd.randrange(len(action))
    m = action[a]
    action[a] = m + random_map(rnd, m.domain, m.codomain, m.parity).scale(rnd.choice((0, 1)))
    report = check_representation(rho.algebra, rho.space, action)
    assert report.items[1].detail == ref_hom_witness(rho.algebra, rho.space, action)


def sparse_action(rnd, g, V):
    """One map of V per basis vector of g, homogeneous of its parity, with
    at most two nonempty columns each."""
    P = V.parities
    action = []
    for parity in g.space.parities:
        columns = rnd.sample(range(V.dim), min(V.dim, rnd.randint(0, 2)))
        matrix = grid(
            V.dim,
            V.dim,
            lambda k, i: rnd.choice(ENTRY_VALUES) if i in columns and P[k] == P[i] ^ parity else 0,
        )
        action.append(GradedLinearMap(V, V, parity, matrix))
    return action


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from([name for name in NAMES if ALGEBRAS[name].dim <= 4]),
    dims=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    rnd=st.randoms(use_true_random=False),
)
def test_sparse_actions_report_the_dense_first_witnesses(name, dims, rnd):
    """Actions in which most columns are empty, and the brackets of their
    semidirect hosts: the kernel visits only the vectors a term can reach,
    and names the dense scans' first witnesses."""
    g = ALGEBRAS[name]
    V = SuperSpace.make([f"v{i}" for i in range(dims[0])], [f"w{i}" for i in range(dims[1])])
    action = sparse_action(rnd, g, V)
    report = check_representation(g, V, action)
    assert report.items[1].detail == ref_hom_witness(g, V, action)
    # a fresh copy of the host: `_semidirect` hands it g's passing report
    h = _semidirect(g, V, [m.nonzero for m in action])[0]
    h = LieSuperAlgebra._trusted(h.space, h.nonzero)
    assert [item.detail for item in check_lie_axioms(h).items] == oracles.dense_first_witnesses(h)


@settings(max_examples=60, deadline=None)
@given(rho=reps, parity=st.integers(0, 1), rnd=st.randoms(use_true_random=False))
def test_induced_constructions_match_their_dense_formulas(rho, parity, rnd):
    g = rho.algebra
    t = random_map(rnd, rho.space, g.space, parity)
    W, m = ref_extend_to_double(t, rho)
    ext = extend_to_double(t, rho)
    assert (ext.map.domain, ext.map.parity, ext.map.matrix) == (W, parity, m)
    for variant in ("plain", "dual"):
        total, coeffs, rparity = ref_operator_to_rmatrix(t, rho, variant)
        r = operator_to_rmatrix(t, rho, variant)
        assert (r.space, r.tensor.coeffs, r.parity) == (total, coeffs, rparity)
        total, m = ref_induced_coadjoint(t, rho, variant)
        op = induced_coadjoint_operator(t, rho, variant)
        assert (op.domain, op.codomain, op.matrix) == (total.dual(), total, m)
        assert rmatrix_to_operator(r).matrix == ref_rmatrix_to_operator(r)


def test_products_match_their_dense_formulas():
    assert len(OPERATORS) > 50 and {t.parity for t, _ in OPERATORS} == {0, 1}
    for t, rho in OPERATORS:
        assert product_from_oop(t, rho).product == ref_product_from_oop(t, rho)
        if t.is_invertible():
            assert compatible_prelie(t, rho).product == ref_compatible_product(t, rho)


@pytest.mark.parametrize("name", ["ex3.20", "closing-prelie"])
def test_left_regular_rep_matches_its_dense_formula(name):
    for a in load_fixture(name).parts.values():
        if isinstance(a, PreLieSuperAlgebra) and a.parity_shift == 0:
            n, product = a.space.dim, a.product
            lrep = left_regular_rep(a)
            assert [m.matrix for m in lrep.action] == [
                grid(n, n, lambda k, j: product[i][j][k]) for i in range(n)
            ]


# ---------------------------------------------------------------------------
# the stored action table
#
# A representation stores its action table `nonzero`; the maps `action` are
# a view built on each read.  The adjoint's table is the bracket table and
# the left regular table the product table.


def catalog_prelies():
    """Every genuine (shift 0) pre-Lie product of the catalog, by name."""
    found = {}
    for name in fixture_names():
        for part_name, part in load_fixture(name).parts.items():
            if isinstance(part, PreLieSuperAlgebra) and part.parity_shift == EVEN:
                found[f"{name}:{part_name}"] = part
    return found


def test_the_left_regular_table_is_the_product_table():
    prelies = catalog_prelies()
    assert len(prelies) >= 2
    for name, a in prelies.items():
        lrep = left_regular_rep(a)
        assert lrep.nonzero is a.nonzero, name


def test_derived_tables_build_no_maps(monkeypatch):
    """The derived representations are written as tables: no map is built
    until a caller reads `action`, and the self-reversing test builds only
    the isomorphism it finds and its inverse."""
    rho = load_fixture("ex2.3").parts["rho"]
    prelie = next(iter(catalog_prelies().values()))
    built = _spied_builds(monkeypatch)
    double = self_reversing_double(rho)
    derived = {
        "parity_reverse_rep": parity_reverse_rep(rho),
        "direct_sum_rep": direct_sum_rep(rho, dual_rep(rho)),
        "self_reversing_double": double,
        "trivial_rep": trivial_rep(rho.algebra, rho.space),
        "left_regular_rep": left_regular_rep(prelie),
    }
    assert built == []
    assert is_self_reversing(double).found
    assert len(built) == 2
    trivial = derived["trivial_rep"]
    assert all(m.is_zero() for m in trivial.action)
    assert_checked_equal(trivial)


def rescaled(rho, p, s):
    """rho over the algebra basis with e_p replaced by s e_p:
    rho'(e_a) = f_a rho(e_a)."""
    action = (m.scale(s) if a == p else m for a, m in enumerate(rho.action))
    return Representation(rescaled_algebra(rho.algebra, p, s), rho.space, tuple(action))


# the catalog representations (with their duals and parity reverses) and the
# coadjoints of the hierarchy hosts up to dim 8
STORED_BASES = REPS + [coadjoint(g) for _, g in sorted(HIERARCHY_LEVELS.items()) if g.dim <= 8]


@st.composite
def stored_bases(draw):
    """A base representation, as it is or rescaled by a fractional scale on
    an acting basis element, so that its common lcm L is not 1."""
    rho = draw(st.sampled_from(STORED_BASES))
    acting = [a for a, row in enumerate(rho.nonzero) if any(row)]
    if acting and draw(st.booleans()):
        rho = rescaled(rho, draw(st.sampled_from(acting)), draw(st.sampled_from(BASIS_SCALES)))
        assert rho._joint[0] != 1
    return rho


def assert_checked_equal(d):
    """d equals its rebuild through the checked constructor, from its view
    and from the view's dense matrices, with the same hash."""
    P = d.algebra.space.parities
    assert [m.parity for m in d.action] == list(P)
    dense = tuple(GradedLinearMap(d.space, d.space, p, m.matrix) for p, m in zip(P, d.action))
    for action in (d.action, dense):
        rebuilt = Representation(d.algebra, d.space, action)
        assert rebuilt == d and hash(rebuilt) == hash(d)


@settings(max_examples=60, deadline=None)
@given(rho=stored_bases())
def test_derived_tables_equal_their_checked_rebuilds(rho):
    drho, srho = dual_rep(rho), parity_reverse_rep(rho)
    assert [m.matrix for m in drho.action] == ref_dual_action(rho)
    assert [m.matrix for m in srho.action] == ref_reverse_action(rho)
    for d in (drho, srho):
        assert_checked_equal(d)
    for other, summed in ((srho, self_reversing_double(rho)), (drho, direct_sum_rep(rho, drho))):
        total, action = ref_direct_sum_action(rho, other)
        assert summed.space == total and [m.matrix for m in summed.action] == action
        assert_checked_equal(summed)


CRITERION_4 = equivalence_cases()


@pytest.mark.parametrize("rho", [rho for *_, rho in CRITERION_4], ids=[c[0] for c in CRITERION_4])
def test_the_criterion_4_derived_tables_equal_their_checked_rebuilds(rho):
    # every one of the five criterion-4 representations, not a sample
    derived = {
        "itself": rho,
        "dual": dual_rep(rho),
        "parity reverse": parity_reverse_rep(rho),
        "double": self_reversing_double(rho),
        "sum with its dual": direct_sum_rep(rho, dual_rep(rho)),
    }
    for d in derived.values():
        assert_checked_equal(d)


# ---------------------------------------------------------------------------
# the stored form
#
# Maps, tensors, forms, algebras, representations and pre-Lie products store
# only their nonzero table; the public constructors take dense tables, scan
# them once and keep no copy: the dense view is built on each read.
# Each keeps one hash and one integer view, the clearing of its table.

# each stored class: its table field and the table's nesting depth
STORED = {
    GradedLinearMap: ("nonzero", 1),
    Tensor2: ("entries", 0),
    BilinearForm: ("entries", 0),
    LieSuperAlgebra: ("nonzero", 2),
    Representation: ("nonzero", 2),
    PreLieSuperAlgebra: ("nonzero", 2),
}


def assert_same_object(dense, sparse, view):
    """Two builds of one stored object: equal, with equal hashes, tables
    and dense views, and each integer view the clearing of the table."""
    field, depth = STORED[type(dense)]
    assert dense == sparse and hash(dense) == hash(sparse)
    assert getattr(dense, field) == getattr(sparse, field)
    assert getattr(dense, view) == getattr(sparse, view)
    for built in (dense, sparse):
        assert built._cleared == linalg._cleared_table(getattr(built, field), depth)


def test_each_stored_class_hashes_its_fields_once(monkeypatch):
    """A stored object hashes its fields on its first hash only: the core's
    `__hash__` is bound on each class, where a frozen dataclass would write
    its own over an inherited one.  The first hash of each fresh object
    hashes its spaces; later hashes hash nothing."""
    ex32, a0 = load_fixture("ex3.2").parts, load_fixture("closing-prelie").parts["prelie"]
    g0, rho0, t0 = ex32["algebra"], ex32["coadjoint"], ex32["T1"]
    beta0 = BilinearForm.from_terms(g0.space, {("e", "f"): 1, ("f", "e"): -1}, 1)
    hashed = []
    original = SuperSpace.__hash__

    def counting(self):
        hashed.append(self)
        return original(self)

    monkeypatch.setattr(SuperSpace, "__hash__", counting)
    g = LieSuperAlgebra._trusted(g0.space, g0.nonzero)
    # each fresh object with the number of spaces its first hash hashes; the
    # representation's algebra, hashed just before it, is not hashed again
    fresh = [
        (g, 1),
        (Representation._trusted(g, rho0.space, rho0.nonzero), 1),
        (GradedLinearMap._trusted(t0.domain, t0.codomain, t0.parity, t0.nonzero), 2),
        (Tensor2._trusted(g0.space, g0.space, (((0, 1), Fraction(1)),), 1), 2),
        (BilinearForm._trusted(beta0.space, beta0.entries, beta0.parity), 1),
        (PreLieSuperAlgebra._trusted(a0.space, a0.nonzero, a0.parity_shift), 1),
    ]
    assert {type(x) for x, _ in fresh} == set(STORED)
    for x, spaces in fresh:
        hashed.clear()
        first = hash(x)
        assert all(hash(x) == first for _ in range(3))
        assert len(hashed) == spaces, type(x).__name__


@pytest.mark.parametrize("name", NAMES)
def test_dense_algebra_equals_the_sparse_one(name):
    g = ALGEBRAS[name]
    structure = tuple(tuple(tuple(entry) for entry in row) for row in g.structure)
    dense = LieSuperAlgebra(g.space, structure)
    assert dense.structure == structure
    assert_same_object(dense, g, "structure")


def test_dense_prelie_products_equal_the_sparse_ones():
    prelies = [
        a
        for name in ("ex3.20", "closing-prelie")
        for a in load_fixture(name).parts.values()
        if isinstance(a, PreLieSuperAlgebra)
    ]
    prelies += [product_from_oop(t, rho) for t, rho in OPERATORS[:20]]
    assert {a.parity_shift for a in prelies} == {0, 1}
    for a in prelies:
        product = tuple(tuple(tuple(entry) for entry in row) for row in a.product)
        dense = PreLieSuperAlgebra(a.space, product, a.parity_shift)
        assert dense.product == product
        assert_same_object(dense, a, "product")
        assert dense != PreLieSuperAlgebra(a.space, product, 1 - a.parity_shift)


@settings(max_examples=40, deadline=None)
@given(rho=reps, parity=st.integers(0, 1), rnd=st.randoms(use_true_random=False))
def test_dense_map_equals_the_sparse_one(rho, parity, rnd):
    V, g = rho.space, rho.algebra.space
    matrix = random_matrix(rnd, V, g, parity)
    t = GradedLinearMap(V, g, parity, matrix)
    images = {
        V.labels[i]: {g.labels[k]: x for k, x in col} for i, col in enumerate(t.nonzero) if col
    }
    sparse = GradedLinearMap.from_images(V, g, parity, images)
    assert t.matrix == matrix
    assert_same_object(t, sparse, "matrix")


def test_checked_representations_equal_their_trusted_rebuilds():
    """The checked constructor writes its view from the action maps', and
    the adjoint, the coadjoint, the duals and the parity reverses write
    theirs from a source's: each equals the trusted rebuild of its table,
    hash and view included."""
    written = [make(g) for g in ALGEBRAS.values() for make in (adjoint, coadjoint)]
    for rho in REPS + written:
        trusted = Representation._trusted(rho.algebra, rho.space, rho.nonzero)
        checked = Representation(rho.algebra, rho.space, rho.action)
        assert_same_object(checked, trusted, "action")
        assert_same_object(rho, trusted, "action")


def test_public_constructors_reject_misshapen_tables():
    space = SuperSpace.make(even=["e"], odd=["f"])
    z = Fraction(0)
    square = ((z, z), (z, z))
    with pytest.raises(ValueError, match="matrix row count does not match codomain dimension"):
        GradedLinearMap(space, space, 0, square[:1])
    with pytest.raises(ValueError, match="matrix column count does not match domain dimension"):
        GradedLinearMap(space, space, 0, ((z, z), (z,)))
    cube = (square, square)
    for table in (cube[:1], (square, square[:1]), (square, ((z, z), (z,)))):
        with pytest.raises(ValueError, match="structure constant shape mismatch"):
            LieSuperAlgebra(space, table)
        with pytest.raises(ValueError, match="product table shape mismatch"):
            PreLieSuperAlgebra(space, table)


def test_both_map_constructors_run_the_one_homogeneity_check(monkeypatch):
    """The public map constructors check homogeneity once each; a chain of
    derived constructions, homogeneous by theorem, adds no check of a map
    or a tensor."""
    ex32, ex44 = load_fixture("ex3.2").parts, load_fixture("ex4.4").parts
    t, rho = ex32["T1"], ex32["coadjoint"]
    prelie = load_fixture("closing-prelie").parts["prelie"]
    checked = []
    for cls in (GradedLinearMap, Tensor2):
        original = cls.__dict__["__post_init__"]

        def counting(self, original=original):
            checked.append(self)
            return original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    space = SuperSpace.make(even=["e"], odd=["f"])
    one, z = Fraction(1), Fraction(0)
    dense = GradedLinearMap(space, space, 1, ((z, one), (one, z)))
    sparse = GradedLinearMap.from_images(space, space, 1, {"f": {"e": 1}})
    assert checked == [dense, sparse]
    swapped = suspend_map(dense)
    chain = {
        "suspend_map": swapped,
        "dual_map": dual_map(dense),
        "compose": dense.compose(sparse),
        "scale": dense.scale(3),
        "inverse": dense.inverse(),
        "relabel_domain": relabel_domain(swapped, space),
        "rmatrix_to_operator": rmatrix_to_operator(ex44["r1"]),
        "operator_to_rmatrix plain": operator_to_rmatrix(t, rho, "plain"),
        "operator_to_rmatrix dual": operator_to_rmatrix(t, rho, "dual"),
        "dual_rep": dual_rep(rho),
        "parity_reverse_rep": parity_reverse_rep(rho),
        "direct_sum_rep": direct_sum_rep(rho, rho),
        "left_regular_rep": left_regular_rep(prelie),
        "hierarchy_trace": hierarchy_trace(ex44["algebra"], ex44["r1"], "+-"),
    }
    assert all(value is not None for value in chain.values())
    assert checked == [dense, sparse]


def rebuilt(obj):
    """obj through its checked public constructor, from its dense view."""
    if isinstance(obj, GradedLinearMap):
        return GradedLinearMap(obj.domain, obj.codomain, obj.parity, obj.matrix)
    if isinstance(obj, Tensor2):
        return Tensor2(obj.left, obj.right, obj.coeffs, obj.parity)
    return BilinearForm(obj.space, obj.gram, obj.parity)


def assert_rebuilt_equal(objects):
    """Every object, built unchecked, equals its checked rebuild: the
    constructor finds it homogeneous, and the stored table is the
    canonical one, zeros dropped and cells ascending."""
    for name, obj in objects:
        assert rebuilt(obj) == obj, name


def derived_objects(rho, t, r, rnd):
    """The maps, tensors and forms the constructions derive from a map t:
    V -> g of rho, a pan-supersymmetric r over g and random scalars."""
    V, g = rho.space, rho.algebra
    c = rnd.choice(ENTRY_VALUES)
    srho, drho = parity_reverse_rep(rho), dual_rep(rho)
    square = random_map(rnd, V, V, EVEN)
    out = [
        ("suspend_map", suspend_map(t)),
        ("dual_map", dual_map(t)),
        ("scale", t.scale(c)),
        ("sum", t + t.scale(c)),
        ("compose", t.compose(square)),
        ("rmatrix_to_operator", rmatrix_to_operator(r)),
        ("operator_to_tensor", operator_to_tensor(rmatrix_to_operator(r))),
        ("twist", twist(r.tensor)),
        ("tensor scale", r.tensor.scale(c)),
        ("tensor sum", r.tensor.add(twist(r.tensor))),
        ("double_dual_embedding", double_dual_embedding(V)),
        ("extend_to_double", extend_to_double(t, rho).map),
    ]
    out += [("intertwiner", m) for m in intertwiner_space(rho, rho)]
    if square.is_invertible():
        out.append(("inverse", square.inverse()))
    if V.even_dim == V.odd_dim:
        out.append(("relabel_domain", relabel_domain(suspend_map(t), V)))
    for variant in ("plain", "dual"):
        induced = operator_to_rmatrix(t, rho, variant)
        out += [("operator_to_rmatrix " + variant, induced.tensor)]
        out += [("induced operator " + variant, rmatrix_to_operator(induced))]
    for name, rep in (("dual", drho), ("reverse", srho), ("sum", direct_sum_rep(rho, srho))):
        out += [(name + " action", m) for m in rep.action]
    out += [("ad", g.ad(i)) for i in range(g.dim)]
    return out


@settings(max_examples=60, deadline=None)
@given(rho=reps, parity=st.integers(0, 1), rnd=st.randoms(use_true_random=False))
def test_derived_maps_and_tensors_pass_the_public_check(rho, parity, rnd):
    t = random_map(rnd, rho.space, rho.algebra.space, parity)
    r = random_pan_supersymmetric(rnd, rho.algebra, rnd.randint(0, 1))
    assert_rebuilt_equal(derived_objects(rho, t, r, rnd))


def test_derived_objects_of_the_catalog_pass_the_public_check():
    """The same on the catalog's own maps, tensors, pre-Lie products and
    hierarchy levels, and on the forms of its non-degenerate tensors."""
    objects = []
    for name in fixture_names():
        parts = load_fixture(name).parts
        for part_name, part in parts.items():
            label = f"{name}:{part_name}"
            if isinstance(part, PreLieSuperAlgebra) and part.parity_shift == EVEN:
                objects += [(label + " L", m) for m in left_regular_rep(part).action]
            if isinstance(part, RMatrix):
                objects.append((label + " T_r", rmatrix_to_operator(part)))
                if rmatrix_to_operator(part).is_invertible():
                    objects.append((label + " beta", beta_form(part)))
                if is_pan_supersymmetric(part) and is_super_rmatrix(part):
                    levels = hierarchy_trace(part.algebra, part, "+-")
                    objects += [(label + " level", level.tensor) for level in levels]
            if isinstance(part, GradedLinearMap):
                objects += [(label + " T^s", suspend_map(part)), (label + " T*", dual_map(part))]
    assert len(objects) > 40
    assert_rebuilt_equal(objects)


def test_derived_spaces_are_built_once(monkeypatch):
    """sV and V* are built, and validated, on the first call that asks for
    them; later calls read the same objects."""
    built = []
    original = SuperSpace.__dict__["__post_init__"]

    def counting(self):
        built.append(self)
        return original(self)

    ex32 = load_fixture("ex3.2").parts
    t, rho = ex32["T1"], ex32["coadjoint"]
    monkeypatch.setattr(SuperSpace, "__post_init__", counting)
    calls = {
        "suspend_map": lambda: suspend_map(t),
        "operator_to_rmatrix dual": lambda: operator_to_rmatrix(t, rho, "dual"),
        "induced_coadjoint_operator plain": lambda: induced_coadjoint_operator(t, rho, "plain"),
    }
    for name, call in calls.items():
        call()
        first = len(built)
        for _ in range(49):
            call()
        assert len(built) == first, name

    for space in (rho.space, rho.algebra.space, operator_to_rmatrix(t, rho, "dual").space):
        assert space.dual() is space.dual()
        assert space.dual() == SuperSpace(tuple(l + "*" for l in space.labels), space.parities)
        sspace, perm = space.suspended_with_permutation()
        assert space.suspended() is sspace and space.suspended_with_permutation()[1] is perm
        L, P = space.labels, space.parities
        fresh = SuperSpace.make(
            even=[suspend_label(l) for l, p in zip(L, P) if p],
            odd=[suspend_label(l) for l, p in zip(L, P) if not p],
        )
        assert (sspace, perm) == (fresh, tuple(fresh.index(suspend_label(l)) for l in L))


def test_hierarchy_levels_hold_no_dense_table():
    ex44 = load_fixture("ex4.4").parts
    # walks over equal algebras share their hosts: clear the memo, so that
    # this walk builds every host it reads
    _level.cache_clear()
    tracemalloc.start()
    try:
        levels = hierarchy_trace(ex44["algebra"], ex44["r1"], "++++++")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [level.algebra.dim for level in levels] == [4, 8, 16, 32, 64, 128]
    # with dense host tables and map grids built, the peak is about 39 MiB
    assert peak < 10 * 2**20


def _retained_by_walks(read_views: bool) -> int:
    """The bytes still allocated after walking the 32 five-letter words
    from ex4.4 r1 on a cleared level memo, reading the dense `structure`
    and `coeffs` of every level first when read_views is set."""
    ex44 = load_fixture("ex4.4").parts
    words = ["".join(w) for w in itertools.product("+-", repeat=5)]
    _level.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for word in words:
            for level in hierarchy_trace(ex44["algebra"], ex44["r1"], word):
                if read_views:
                    assert level.algebra.structure and level.tensor.coeffs
        del level
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained


def test_views_read_on_shared_hosts_are_not_retained():
    """The memo shares its hosts between walks, and a view read on one is
    built on the read and kept nowhere: reading every level's views leaves
    the memo holding what the walks alone leave.  With the views kept on
    their objects, they retained about 39 MiB more."""
    walks = _retained_by_walks(False)
    assert _retained_by_walks(True) - walks <= 2**20


# each dense view of a stored table, a conversion built on every read
VIEWS = {
    GradedLinearMap: "matrix",
    Tensor2: "coeffs",
    Tensor3: "coeffs",
    LieSuperAlgebra: "structure",
    BilinearForm: "gram",
    PreLieSuperAlgebra: "product",
    Representation: "action",
}


def test_every_view_is_a_plain_property():
    """Each view is a plain `property`, so a read stores nothing: reading
    it on an object of each class leaves the object's `__dict__` as it was."""
    assert all(type(vars(cls)[view]) is property for cls, view in VIEWS.items())
    ex32, r = load_fixture("ex3.2").parts, load_fixture("ex4.4").parts["r1"]
    objects = [
        ex32["T1"],
        r.tensor,
        scybe_defect(r),
        r.algebra,
        beta_form(r),
        load_fixture("closing-prelie").parts["prelie"],
        ex32["coadjoint"],
    ]
    assert [type(obj) for obj in objects] == list(VIEWS)
    for obj in objects:
        kept = dict(vars(obj))
        assert getattr(obj, VIEWS[type(obj)])
        assert vars(obj) == kept, type(obj).__name__


TABLE_VALUES = (0, Fraction(0), 3, Fraction(1), Fraction(-1, 2), Fraction(2, 3))


def all_cells_table(n, entries):
    """The table built over all n^2 cells, each one sorted, empty or not."""
    cells = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in entries:
        if c != 0:
            cells[i][j].append((k, c))
    return tuple(tuple(tuple(sorted(cell)) for cell in row) for row in cells)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 4), data=st.data())
def test_sparse_table_equals_the_all_cells_table(n, data):
    positions = list(itertools.product(range(n), repeat=3))
    chosen = data.draw(st.lists(st.sampled_from(positions), unique=True)) if positions else []
    entries = [(ijk, data.draw(st.sampled_from(TABLE_VALUES))) for ijk in chosen]
    entries = data.draw(st.permutations(entries))  # any entry order
    want = all_cells_table(n, entries)
    assert _sparse_table(n, entries) == want and hash(_sparse_table(n, entries)) == hash(want)
    space = SuperSpace.make([f"e{i}" for i in range(n)])
    g = LieSuperAlgebra._from_entries(space, entries)
    assert g.nonzero == want
    assert g == LieSuperAlgebra._from_entries(space, reversed(entries))
    assert hash(g) == hash(LieSuperAlgebra._from_entries(space, sorted(entries)))


def test_sparse_table_of_no_entries_is_all_empty():
    assert _sparse_table(3, ()) == all_cells_table(3, ()) == (((),) * 3,) * 3
    assert _sparse_table(0, ()) == ()


# ---------------------------------------------------------------------------
# the stored form of 2-tensors
#
# A Tensor2 stores its nonzero slots in row-major order; every derived
# tensor is built from them without a dense array.

TENSOR_VALUES = ENTRY_VALUES + (Fraction(2, 3), Fraction(-5, 4))

spaces = st.builds(
    lambda e, o: SuperSpace.make([f"e{i}" for i in range(e)], [f"f{i}" for i in range(o)]),
    st.integers(0, 3),
    st.integers(0, 3),
)


def random_array(rnd, left, right, parity):
    """A dense array, explicit zeros included; parity None fills every slot."""
    return tuple(
        tuple(
            rnd.choice(TENSOR_VALUES) if parity is None or p ^ q == parity else Fraction(0)
            for q in right.parities
        )
        for p in left.parities
    )


def nonzero_slots(array):
    return tuple(((i, j), x) for i, row in enumerate(array) for j, x in enumerate(row) if x != 0)


@settings(max_examples=60, deadline=None)
@given(space=spaces, parity=st.integers(0, 1), rnd=st.randoms(use_true_random=False))
def test_dense_tensor_equals_the_sparse_one(space, parity, rnd):
    array = random_array(rnd, space, space, parity)
    L = space.labels
    terms = {(L[i], L[j]): x for i, row in enumerate(array) for j, x in enumerate(row)}
    dense = Tensor2(space, space, array, parity)
    sparse = Tensor2.from_terms(space, space, terms, parity)
    assert dense == sparse and hash(dense) == hash(sparse)
    assert dense.entries == sparse.entries == nonzero_slots(array)
    assert dense.coeffs == array
    assert sparse.coeffs == array
    assert_same_object(dense, sparse, "coeffs")
    assert_same_object(dense, Tensor2._trusted(space, space, dense.entries, parity), "coeffs")


@settings(max_examples=60, deadline=None)
@given(space=spaces, parity=st.integers(0, 1), rnd=st.randoms(use_true_random=False))
def test_dense_form_equals_the_sparse_one(space, parity, rnd):
    array = random_array(rnd, space, space, parity)
    L = space.labels
    terms = {(L[i], L[j]): x for i, row in enumerate(array) for j, x in enumerate(row)}
    dense = BilinearForm(space, array, parity)
    sparse = BilinearForm.from_terms(space, terms, parity)
    assert dense.entries == nonzero_slots(array)
    assert dense.gram == array
    assert_same_object(dense, sparse, "gram")
    assert_same_object(dense, BilinearForm._trusted(space, dense.entries, parity), "gram")


@settings(max_examples=80, deadline=None)
@given(
    left=spaces,
    right=spaces,
    parities=st.tuples(st.sampled_from((None, 0, 1)), st.sampled_from((None, 0, 1))),
    rnd=st.randoms(use_true_random=False),
)
def test_tensor_arithmetic_matches_the_dense_formulas(left, right, parities, rnd):
    pa, pb = parities
    a_array, b_array = (random_array(rnd, left, right, p) for p in parities)
    a, b = Tensor2(left, right, a_array, pa), Tensor2(left, right, b_array, pb)
    P, Q = left.parities, right.parities
    n, m = left.dim, right.dim

    swapped = twist(a)
    assert (swapped.left, swapped.right, swapped.parity) == (right, left, pa)
    assert swapped.entries == nonzero_slots(
        grid(m, n, lambda j, i: sign(P[i] * Q[j]) * a_array[i][j])
    )

    c = rnd.choice(TENSOR_VALUES)
    scaled = a.scale(c)
    assert scaled.parity == pa
    assert scaled.entries == nonzero_slots(grid(n, m, lambda i, j: c * a_array[i][j]))

    total = grid(n, m, lambda i, j: a_array[i][j] + b_array[i][j])
    found = {P[i] ^ Q[j] for (i, j), _ in nonzero_slots(total)}
    parity = pa if pa == pb else None
    if parity is None and len(found) == 1:
        parity = found.pop()
    summed = a.add(b)
    assert (summed.entries, summed.parity) == (nonzero_slots(total), parity)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(NAMES), parity=st.integers(0, 1), rnd=st.randoms(use_true_random=False))
def test_operator_to_tensor_matches_the_dense_formula(name, parity, rnd):
    space = ALGEBRAS[name].space
    P = space.parities
    t = random_map(rnd, space.dual(), space, parity)
    r = operator_to_tensor(t)
    assert (r.left, r.right, r.parity) == (space, space, parity)
    n, m = space.dim, t.matrix
    assert r.entries == nonzero_slots(grid(n, n, lambda p, q: sign(P[q]) * m[p][q]))


@functools.cache
def adjoint_host(name):
    """g |x_ad g, the positions of its two copies of g, and g's parities."""
    g = ALGEBRAS[name]
    _, alg_pos, mod_pos = merge_spaces(g.space, g.space)
    return semidirect_product(g, adjoint(g)), alg_pos, mod_pos, g.space.parities


@pytest.mark.parametrize("name", NAMES)
def test_the_bracket_table_is_the_adjoint_action_table(name):
    # ad(e_a) e_j = [e_a, e_j]: the + step hands g.nonzero to _semidirect
    # as the action table, and gets the host of the verified adjoint
    g = ALGEBRAS[name]
    fresh = LieSuperAlgebra._trusted(g.space, g.nonzero)
    ad = adjoint(fresh)
    assert ad.nonzero is fresh.nonzero
    assert adjoint(g).nonzero is g.nonzero
    assert _semidirect(g, g.space, g.nonzero) == adjoint_host(name)
    zero = RMatrix.from_terms(g, {})
    plus, minus = (hierarchy_walk(g, zero, word).algebra for word in "+-")
    assert plus == semidirect_product(g, adjoint(g))
    srho = parity_reverse_rep(adjoint(g))
    assert minus == semidirect_product(g, srho)
    # `_host` writes the table of ad^s itself; it is that representation's
    assert _host(g, "-") == _semidirect(g, srho.space, srho.nonzero)


def test_the_dual_host_is_the_plain_host_of_the_parity_reverse():
    for rho in REPS:
        assert _dual_semidirect(rho) == _plain_semidirect(parity_reverse_rep(rho))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(NAMES), parity=st.integers(0, 1), rnd=st.randoms(use_true_random=False))
def test_pan_supersymmetric_tensor_matches_the_dense_formula(name, parity, rnd):
    g = ALGEBRAS[name]
    host = adjoint_host(name)
    h, alg_pos, mod_pos, P = host
    # the nonzero entries of a source table, each with its value in the
    # source's integer view at the lcm D of their denominators
    drawn = (
        ((k, i), rnd.choice(TENSOR_VALUES))
        for k in range(g.dim)
        for i in range(g.dim)
        if P[k] ^ P[i] == parity
    )
    entries = [(ki, x) for ki, x in drawn if x]
    D = math.lcm(*(x.denominator for _, x in entries))
    scaled = [(ki, x, int(D * x)) for ki, x in entries]
    r = _pan_supersymmetric_tensor(host, D, scaled, parity)
    array = [[Fraction(0)] * h.dim for _ in range(h.dim)]
    for (k, i), x in entries:
        array[alg_pos[k]][mod_pos[i]] += x
        array[mod_pos[i]][alg_pos[k]] += sign((parity + 1) * (P[i] + 1)) * x
    assert (r.algebra, r.parity) == (h, parity)
    assert r.tensor.entries == nonzero_slots(array)
    assert is_pan_supersymmetric(r)
    # the tensor's integer view was written with it, and is a fresh clearing
    assert "_cleared" in vars(r.tensor)
    assert r.tensor._cleared == linalg._cleared_table(r.tensor.entries, 0)


# ---------------------------------------------------------------------------
# Koszul signs on rescaled bases
#
# Every construction applies its Koszul signs by negating an entry.  These
# compare each one with its dense formula on catalog representations whose
# algebra basis is rescaled by 1/2 or -3/7 and maps with non-integral
# entries, and on the catalog representations as they are with integral
# maps, so that the integer kernels clear a denominator of 1 and one above 1.

BASIS_SCALES = (HALF, Fraction(-3, 7))
INTEGRAL_VALUES = tuple(map(Fraction, (0, 1, -1, 2)))
FRACTIONAL_VALUES = (Fraction(0), HALF, Fraction(-3, 7), Fraction(1))


def rescaled_algebra(g, p, s):
    """g over the basis with e_p replaced by s e_p: c'_ab^k = c_ab^k f_a f_b / f_k."""
    n, S = g.dim, g.structure
    f = [s if a == p else 1 for a in range(n)]
    return LieSuperAlgebra(
        g.space,
        tuple(
            tuple(tuple(S[a][b][k] * f[a] * f[b] / f[k] for k in range(n)) for b in range(n))
            for a in range(n)
        ),
    )


@functools.cache
def rescaled_rep(index, p, s):
    """REPS[index] over the algebra basis with e_p replaced by s e_p:
    rho'(e_a) = f_a rho(e_a)."""
    return rescaled(REPS[index], p, s)


def map_with_values(rnd, domain, codomain, parity, values):
    """A homogeneous map with entries drawn from values; a fractional draw
    puts -3/7 at the first free position."""
    free = [
        (k, i)
        for k in range(codomain.dim)
        for i in range(domain.dim)
        if codomain.parities[k] == domain.parities[i] ^ parity
    ]
    cells = {ki: rnd.choice(values) for ki in free}
    if values is FRACTIONAL_VALUES and free:
        cells[free[0]] = Fraction(-3, 7)
    return GradedLinearMap(
        domain, codomain, parity, grid(codomain.dim, domain.dim, lambda k, i: cells.get((k, i), 0))
    )


@st.composite
def sign_cases(draw):
    """(rho, T, values, rnd): a catalog representation, rescaled with
    fractional values or as it is with integral ones, a map T: V -> g with
    entries from the values, of a parity that has a free position, and
    the random source for the test's other draws."""
    index = draw(st.integers(0, len(REPS) - 1))
    rho = REPS[index]
    if draw(st.booleans()):
        values = INTEGRAL_VALUES
    else:
        values = FRACTIONAL_VALUES
        acting = [a for a, m in enumerate(rho.action) if not m.is_zero()]
        p, s = draw(st.sampled_from(acting)), draw(st.sampled_from(BASIS_SCALES))
        rho = rescaled_rep(index, p, s)
    V, g = rho.space, rho.algebra.space
    parity = draw(st.integers(0, 1))
    if not any(q == p ^ parity for q in g.parities for p in V.parities):
        parity ^= 1
    rnd = draw(st.randoms(use_true_random=False))
    return rho, map_with_values(rnd, V, g, parity, values), values, rnd


@settings(max_examples=60, deadline=None)
@given(case=sign_cases())
def test_negation_sites_match_the_dense_formulas_on_rescaled_bases(case):
    rho, t, values, rnd = case
    g = rho.algebra
    V, n = rho.space, g.dim
    P = g.space.parities
    entries = [x for col in t.nonzero for _, x in col]
    entries += [x for m in rho.action for col in m.nonzero for _, x in col]
    assert (linalg._cleared(entries)[0] == 1) == (values is INTEGRAL_VALUES)

    d = dual_map(t)
    assert (d.domain, d.codomain, d.matrix) == (g.space.dual(), V.dual(), ref_dual_map(t))
    assert double_dual_embedding(V).matrix == ref_double_dual(V)
    assert [m.matrix for m in parity_reverse_rep(rho).action] == ref_reverse_action(rho)
    assert semidirect_product(g, rho).structure == ref_semidirect(g, rho)[1]

    op = map_with_values(rnd, g.space.dual(), g.space, t.parity, values)
    r, m = operator_to_tensor(op), op.matrix
    a = r.coeffs
    assert r.entries == nonzero_slots(grid(n, n, lambda p, q: sign(P[q]) * m[p][q]))
    assert twist(r).entries == nonzero_slots(grid(n, n, lambda j, i: sign(P[i] * P[j]) * a[i][j]))
    v = tuple(rnd.choice(values) for _ in range(V.dim))
    ustar = tuple(rnd.choice(values) for _ in range(V.dim))
    Q = V.parities
    assert pair_eval_reversed(V, v, ustar) == sum(
        (sign(Q[i]) * v[i] * ustar[i] for i in range(V.dim)), Fraction(0)
    )
    gd = g.space.dual()
    rstar = grid(n, n, lambda i, j: rnd.choice(values) if P[i] ^ P[j] == t.parity else 0)
    rstar = Tensor2(gd, gd, rstar)
    s = rstar.coeffs
    assert pair2_eval(rstar, r) == sum(
        (sign(P[j] * P[i]) * s[i][j] * a[i][j] for i in range(n) for j in range(n)),
        Fraction(0),
    )

    verdict = oracles.first_principles_oop_ok(t, rho)
    assert oop_holds(t, rho) == verdict
    for variant in ("plain", "dual"):
        total, coeffs, rparity = ref_operator_to_rmatrix(t, rho, variant)
        induced = operator_to_rmatrix(t, rho, variant)
        assert (induced.space, induced.tensor.coeffs, induced.parity) == (total, coeffs, rparity)
        total, m = ref_induced_coadjoint(t, rho, variant)
        assert induced_coadjoint_operator(t, rho, variant).matrix == m
        assert is_super_rmatrix(induced) == verdict


SKEW_VALUES = (HALF, Fraction(-3, 7), Fraction(1), Fraction(-1), Fraction(2))


@settings(max_examples=60, deadline=None)
@given(space=spaces, data=st.data())
def test_from_brackets_mirrors_each_entry_with_its_koszul_sign(space, data):
    n, P, L = space.dim, space.parities, space.labels
    given_cells = {}
    for i in range(n):
        for j in range(i, n):
            if (i == j and not P[i]) or not data.draw(st.booleans()):
                continue
            k = data.draw(st.integers(0, n - 1))
            given_cells[i, j] = {k: data.draw(st.sampled_from(SKEW_VALUES))}
    g = LieSuperAlgebra.from_brackets(
        space,
        {(L[i], L[j]): {L[k]: x for k, x in cell.items()} for (i, j), cell in given_cells.items()},
    )

    def want(i, j, k):
        if i <= j:
            return given_cells.get((i, j), {}).get(k, 0)
        return -sign(P[i] * P[j]) * given_cells.get((j, i), {}).get(k, 0)

    assert g.structure == tuple(grid(n, n, lambda j, k: want(i, j, k)) for i in range(n))
    assert check_lie_axioms(g).items[1].ok
    # one mirrored entry off by its sign is the first skew witness the
    # dense scan finds
    mirrored = [(j, i, k) for (i, j), cell in given_cells.items() if i < j for k in cell]
    if mirrored:
        a, b, c = data.draw(st.sampled_from(mirrored))
        structure = [[list(cell) for cell in row] for row in g.structure]
        structure[a][b][c] = -structure[a][b][c]
        bad = LieSuperAlgebra(space, tuple(tuple(map(tuple, row)) for row in structure))
        detail = check_lie_axioms(bad).items[1].detail
        assert detail and detail == oracles.dense_first_witnesses(bad)[1]


SMALL_NAMES = [name for name in NAMES if ALGEBRAS[name].dim <= 8]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(SMALL_NAMES),
    letter=st.sampled_from("+-"),
    scale=st.sampled_from((None, *BASIS_SCALES)),
    parity=st.integers(0, 1),
    rnd=st.randoms(use_true_random=False),
)
def test_step_matches_the_dense_formula(name, letter, scale, parity, rnd):
    """One level.  '+': g |x_ad g with the tensor of
    `_pan_supersymmetric_tensor`'s docstring,
    sum a_ji (e_j (x) e_i' + (-1)^{(|r|+1)(|e_i|+1)} e_i' (x) e_j), e_i' the
    module copy of e_i; '-': g |x_{ad^s} sg with the tensor
    sum a_ji ((-1)^{|e_i|} e_j (x) se_i + (-1)^{(|r|+1)|e_i|} se_i (x) e_j)."""
    g = ALGEBRAS[name] if scale is None else rescaled_algebra(ALGEBRAS[name], 0, scale)
    space, n, P = g.space, g.dim, g.space.parities
    values = INTEGRAL_VALUES if scale is None else FRACTIONAL_VALUES
    a = grid(n, n, lambda j, i: rnd.choice(values) if P[j] ^ P[i] == parity else 0)
    r = RMatrix(g, Tensor2(space, space, a, parity))
    level = _step(r, letter, _host(g, letter))

    ad = adjoint(g)
    if letter == "+":
        module, perm, rho = space, range(n), ad
        signs = [(1, sign((parity + 1) * (P[i] + 1))) for i in range(n)]
    else:
        module, perm = space.suspended_with_permutation()
        reversed_action = zip(P, ref_reverse_action(ad))
        rho = Representation(
            g, module, tuple(GradedLinearMap(module, module, p, m) for p, m in reversed_action)
        )
        signs = [(sign(P[i]), sign((parity + 1) * P[i])) for i in range(n)]
    total, structure = ref_semidirect(g, rho)
    _, ga, va = merge_spaces(space, module)
    coeffs = [[Fraction(0)] * total.dim for _ in range(total.dim)]
    for j in range(n):
        for i in range(n):
            left, right = signs[i]
            coeffs[ga[j]][va[perm[i]]] += left * a[j][i]
            coeffs[va[perm[i]]][ga[j]] += right * a[j][i]
    assert (level.space, level.algebra.structure) == (total, structure)
    assert level.tensor.coeffs == tuple(map(tuple, coeffs))
    assert level.parity == (parity if letter == "+" else parity ^ 1)


# ---------------------------------------------------------------------------
# one integer view per stored table


def test_each_stored_table_is_cleared_once_across_check_and_use(monkeypatch):
    """A fresh algebra with fractional constants ([f1, f2] = -7/3 e1, E = 3)
    and a fractional representation (D = 7), two maps, a tensor and a form
    over it: the checks and the kernels, run twice, clear each stored table
    once, and the representation's table, whose view is written from its
    action maps' views, never."""
    ex23 = load_fixture("ex2.3").parts["rho"]
    cleared = _count_calls(monkeypatch, "superybe.linalg", "_cleared_table")
    s, V = Fraction(-3, 7), ex23.space
    g = rescaled_algebra(ex23.algebra, 0, s)
    maps = tuple(m.scale(s if a == 0 else 1) for a, m in enumerate(ex23.action))
    t = GradedLinearMap.from_images(V, g.space, ODD, {"v1": {"f1": HALF}, "w2": {"e1": s}})
    t_ad = GradedLinearMap.from_images(g.space, g.space, EVEN, {"e1": {"e1": HALF}, "f1": {"f2": s}})
    r = RMatrix.from_terms(g, {("e1", "e1"): s, ("f1", "f2"): HALF, ("f2", "f1"): HALF})
    terms = {("e1", "e1"): HALF, ("f1", "f2"): Fraction(2, 3), ("f2", "f1"): Fraction(-2, 3)}
    beta = BilinearForm.from_terms(g.space, terms, EVEN)
    for _ in range(2):
        assert check_lie_axioms(g).ok
        rho = Representation(g, V, maps)
        assert rho._joint[0] == 21
        oop_holds(t, rho)
        oop_holds(t_ad, adjoint(g))
        is_super_rmatrix(r)
        classify_form(beta, g)
    stored = [g.nonzero, *(m.nonzero for m in maps), t.nonzero, t_ad.nonzero, r.tensor.entries, beta.entries]
    assert [sum(args[0] is table for args in cleared) for table in stored] == [1] * len(stored)
    assert len(cleared) == len(stored)
    assert rho._cleared == linalg._cleared_table(rho.nonzero, 2) and rho._cleared[0] == 7
