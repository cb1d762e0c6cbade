"""Independent oracles for the test suite.

These recompute the two central identities from scratch: the CYBE defect
by a dense triple loop that derives every sign from the parity table,
and the O-operator defect with Koszul signs computed from the parities
of the objects actually interchanged, not from the library's exponent
formulas.  The linear algebra oracles eliminate over Fraction, as the
library did before its integer kernel, and take determinants by minors;
the isomorphism oracle scans the determinant over the whole lexicographic
grid of intertwiner coefficients; the associator oracle multiplies basis
vectors through the dense product table.
They intentionally share no code with the package internals.
"""

from collections import defaultdict
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def koszul(p, q):
    """The sign produced by interchanging homogeneous objects of the
    given parities."""
    return -1 if (p % 2) and (q % 2) else 1


def naive_scybe_defect(g, tensor):
    """[[r, r]] as {(i, j, k): coefficient}, densely over all index pairs.

    First and third commutator families pick up the sign from swapping
    the second tensor leg of one factor past the first leg of the other;
    the middle family needs no swap.
    """
    space = g.space
    n = space.dim
    P = space.parities
    a, S = tensor.coeffs, g.structure
    out = defaultdict(lambda: ZERO)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    c = a[i][j] * a[k][l]
                    if c == 0:
                        continue
                    swap = koszul(P[j], P[k])
                    for m in range(n):
                        c1 = S[i][k][m]
                        if c1 != 0:
                            out[(m, j, l)] += swap * c * c1
                        c2 = S[j][k][m]
                        if c2 != 0:
                            out[(i, m, l)] += c * c2
                        c3 = S[j][l][m]
                        if c3 != 0:
                            out[(i, k, m)] += swap * c * c3
    return {key: value for key, value in out.items() if value != 0}


def first_principles_oop_ok(t, rho):
    """The O-operator identity with every sign derived by koszul() on the
    parities of the interchanged objects."""
    g = rho.algebra
    V = rho.space
    pt = t.parity
    n = V.dim
    for i in range(n):
        for j in range(n):
            tv = t.column(i)
            tw = t.column(j)
            p_tv = (pt + V.parities[i]) % 2
            p_tw = (pt + V.parities[j]) % 2
            # first term: T(v) moves past the outer map T
            s1 = koszul(p_tv, pt)
            # second term: v moves past T(w)
            s2 = koszul(V.parities[i], p_tw)
            lhs = g.bracket(tv, tw)
            first = rho.apply_vec(tv, V.basis_vector(j))
            second = rho.apply_vec(tw, V.basis_vector(i))
            inner = tuple(s1 * x - s2 * y for x, y in zip(first, second))
            rhs = t.apply(inner)
            if any(x != y for x, y in zip(lhs, rhs)):
                return False
    return True


def dense_left_symmetry_witness(product, parities, shift):
    """The first basis triple (i, j, k), in lexicographic order, at which
    (e_i, e_j, e_k) != (-1)^{(|e_i|+s)(|e_j|+s)} (e_j, e_i, e_k) for the
    associator (x, y, z) = (xy)z - x(yz) of the dense product table
    product[i][j][k] with shift s, or None.  Every product is a dense sum
    over Fraction, and the sign is koszul on the shifted parities of the
    two interchanged elements."""
    n = len(product)
    idx = range(n)
    basis = [[ONE if a == b else ZERO for a in idx] for b in idx]

    def mul(x, y):
        return [sum((x[a] * y[b] * product[a][b][c] for a in idx for b in idx), ZERO) for c in idx]

    def associator(x, y, z):
        return [p - q for p, q in zip(mul(mul(x, y), z), mul(x, mul(y, z)))]

    for i in idx:
        for j in idx:
            s = koszul(parities[i] + shift, parities[j] + shift)
            for k in idx:
                lhs = associator(basis[i], basis[j], basis[k])
                rhs = associator(basis[j], basis[i], basis[k])
                if any(a != s * b for a, b in zip(lhs, rhs)):
                    return i, j, k
    return None


def dense_first_witnesses(g):
    """The first offending detail of each axiom of `check_lie_axioms`,
    parity consistency, super skew-symmetry and the super Jacobi identity,
    in that order, "" for an axiom that holds: each one the first basis
    triple (i, j, k), in lexicographic order, of a dense scan over the
    structure constants g.structure[i][j][k].  Every bracket is a dense
    sum over Fraction, and the Jacobi sign is koszul on the parities of
    the two interchanged elements."""
    n = g.dim
    L = g.space.labels
    P = g.space.parities
    S = g.structure
    idx = range(n)
    basis = [[ONE if a == b else ZERO for a in idx] for b in idx]

    def bracket(x, y):
        pairs = [(a, b) for a in idx if x[a] != 0 for b in idx if y[b] != 0]
        return [sum((x[a] * y[b] * S[a][b][c] for a, b in pairs), ZERO) for c in idx]

    def jacobi_holds(i, j, k):
        # [e_i, [e_j, e_k]] = [[e_i, e_j], e_k] + (-1)^{|e_i||e_j|} [e_j, [e_i, e_k]]
        x, y, z = basis[i], basis[j], basis[k]
        s = koszul(P[i], P[j])
        rhs = zip(bracket(bracket(x, y), z), bracket(y, bracket(x, z)))
        return bracket(x, bracket(y, z)) == [a + s * b for a, b in rhs]

    triples = [(i, j, k) for i in idx for j in idx for k in idx]
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
            if S[i][j][k] != -koszul(P[i], P[j]) * S[j][i][k]
        ),
        "",
    )
    jacobi = next(
        (
            f"fails at triple ({L[i]}, {L[j]}, {L[k]})"
            for i, j, k in triples
            if not jacobi_holds(i, j, k)
        ),
        "",
    )
    return [parity, skew, jacobi]


# ---------------------------------------------------------------------------
# linear algebra over Fraction


def dense_rref(rows):
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


def dense_rank(rows):
    return len(dense_rref(rows)[1])


def dense_nullspace(rows, ncols=None):
    """Basis of the right nullspace, free variables set to 1 one at a time
    in column order, read off dense_rref."""
    if not rows:
        n = ncols if ncols is not None else 0
        return [tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]
    n = len(rows[0])
    red, pivots = dense_rref(rows)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


def dense_invert(rows):
    """The inverse read off dense_rref of [A | I], or None if singular."""
    n = len(rows)
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = dense_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def dense_solve(rows, rhs):
    """One solution of A x = b read off dense_rref of [A | b], free
    variables zero, or None if inconsistent."""
    n = len(rows[0]) if rows else 0
    red, pivots = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = red[r][n]
    return tuple(x)


def dense_det(rows):
    """Laplace expansion along the rows, over the remaining columns; the
    minors are memoised by their column sets."""
    n = len(rows)
    memo = {}

    def minor(i, cols):
        # the determinant of rows i.. on the columns in cols (in order)
        if i == n:
            return ONE
        if cols not in memo:
            total = ZERO
            for t, c in enumerate(cols):
                if rows[i][c] != 0:
                    rest = cols[:t] + cols[t + 1 :]
                    total += (-1) ** t * rows[i][c] * minor(i + 1, rest)
            memo[cols] = total
        return memo[cols]

    return Fraction(minor(0, tuple(range(n))))


def dense_form_flags(gram, structure, parities):
    """(supersymmetric, skew, invariant, 2-cocycle, non-degenerate) of the
    form with Gram matrix gram on the algebra with dense structure
    constants structure[i][j][k], over Fraction at every basis triple;
    the signs come from koszul on the parities interchanged."""
    n = len(gram)
    idx = range(n)

    def bracket_then_form(i, j, k):  # beta([e_i, e_j], e_k)
        return sum((structure[i][j][m] * gram[m][k] for m in idx), ZERO)

    def form_of_bracket(i, j, k):  # beta(e_i, [e_j, e_k])
        return sum((gram[i][m] * structure[j][k][m] for m in idx), ZERO)

    supersym = all(gram[i][j] == koszul(parities[i], parities[j]) * gram[j][i] for i in idx for j in idx)
    skew = all(gram[i][j] == -koszul(parities[i], parities[j]) * gram[j][i] for i in idx for j in idx)
    triples = [(i, j, k) for i in idx for j in idx for k in idx]
    invariant = all(bracket_then_form(*t) == form_of_bracket(*t) for t in triples)
    cocycle = skew and all(
        bracket_then_form(i, j, k)
        == koszul(parities[j], parities[k]) * bracket_then_form(i, k, j) + form_of_bracket(i, j, k)
        for i, j, k in triples
    )
    return supersym, skew, invariant, cocycle, dense_rank([list(r) for r in gram]) == n


# ---------------------------------------------------------------------------
# the semidirect product


def dense_semidirect(structure, g_parities, action, v_parities):
    """(parities, structure, alg_pos, mod_pos) of g |x V, from the dense
    structure constants structure[i][j][k] of g and the dense action
    matrices action[a][k][i] = rho(e_a)_{ki}, by the formula
    [(x,u), (y,v)] = ([x,y], rho(x)v - (-1)^{|u||y|} rho(y)u) on every pair
    of basis vectors.  The basis lists g then V and is sorted stably by
    parity; alg_pos and mod_pos give each old basis vector's position."""
    ng, nv = len(g_parities), len(v_parities)
    old = list(g_parities) + list(v_parities)
    order = sorted(range(ng + nv), key=lambda b: old[b])
    where = {b: n for n, b in enumerate(order)}
    N = ng + nv
    out = [[[ZERO] * N for _ in range(N)] for _ in range(N)]
    for i in range(ng):
        for j in range(ng):
            for k in range(ng):
                out[where[i]][where[j]][where[k]] = structure[i][j][k]
    for a in range(ng):
        for i in range(nv):
            swap = koszul(v_parities[i], g_parities[a])
            for k in range(nv):
                x = action[a][k][i]
                out[where[a]][where[ng + i]][where[ng + k]] = x
                out[where[ng + i]][where[a]][where[ng + k]] = -swap * x
    return (
        tuple(old[b] for b in order),
        tuple(tuple(map(tuple, row)) for row in out),
        tuple(where[i] for i in range(ng)),
        tuple(where[ng + i] for i in range(nv)),
    )


# ---------------------------------------------------------------------------
# even intertwiners and the lexicographic isomorphism grid


def dense_intertwiner_basis(rho1, rho2):
    """Basis of the even maps phi: V1 -> V2 with phi rho1(x) = rho2(x) phi,
    as dense matrices: the dense_nullspace of the equations built from the
    dense action matrices over every unknown phi[l][i] with |l| = |i|."""
    P1, P2 = rho1.space.parities, rho2.space.parities
    unknowns = [(l, i) for l in range(len(P2)) for i in range(len(P1)) if P2[l] == P1[i]]
    rows = []
    for m1, m2 in zip(rho1.action, rho2.action):
        A, B = m1.matrix, m2.matrix
        for k in range(len(P2)):
            for j in range(len(P1)):
                # coefficient of phi[l][i] in (phi A - B phi)[k][j]
                rows.append(
                    [
                        (A[i][j] if l == k else ZERO) - (B[k][l] if i == j else ZERO)
                        for l, i in unknowns
                    ]
                )
    basis = []
    for v in dense_nullspace(rows, ncols=len(unknowns)):
        phi = [[ZERO] * len(P1) for _ in P2]
        for (l, i), x in zip(unknowns, v):
            phi[l][i] = x
        basis.append(phi)
    return basis


def lexicographic_grid_dets(basis, n):
    """(t, det(sum t_a phi_a)) for every t in {0..n}^k in lexicographic
    order, k = len(basis), lazily; dense_det on each point."""

    def points(k):
        if k == 0:
            yield ()
            return
        for t in range(n + 1):
            for rest in points(k - 1):
                yield (t,) + rest

    for ts in points(len(basis)):
        grid = [
            [sum((t * phi[r][c] for t, phi in zip(ts, basis)), ZERO) for c in range(n)]
            for r in range(n)
        ]
        yield ts, dense_det(grid)


# ---------------------------------------------------------------------------
# the product an O-operator induces on its image


def dense_induced_prelie(t, rho):
    """(labels, parities, product) of T(v) * T(w) = T(v . w) on image(T).

    The product v . w = (-1)^{|T|(|v|+|T|)} rho(T v) w is summed densely
    from the matrices of T and of the action.  Well-definedness is checked
    on the dense_nullspace basis of T.  The image basis is the pivot
    columns of dense_rref(T), stably sorted into blocks, and every product
    T(v . w) is located in it by dense_solve.
    """
    V = rho.space
    P, pt, n = V.parities, t.parity, V.dim
    T = [list(row) for row in t.matrix]
    A = [m.matrix for m in rho.action]
    dot = [
        [
            [
                koszul(pt, P[i] + pt) * sum((T[a][i] * A[a][k][j] for a in range(len(A))), ZERO)
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]

    def mul(x, y):
        pairs = [(i, j) for i in range(n) for j in range(n)]
        return [sum((x[i] * y[j] * dot[i][j][k] for i, j in pairs), ZERO) for k in range(n)]

    def apply(v):
        return [sum((a * b for a, b in zip(row, v)), ZERO) for row in T]

    basis = [tuple(ONE if i == j else ZERO for i in range(n)) for j in range(n)]
    for kv in dense_nullspace(T, ncols=n):
        for e in basis:
            if any(apply(mul(kv, e))):
                raise ValueError("induced product is not well-defined (left argument)")
            if any(apply(mul(e, kv))):
                raise ValueError("induced product is not well-defined (right argument)")
    order = sorted(dense_rref(T)[1], key=lambda c: (P[c] + pt) % 2)
    columns = [[row[c] for c in order] for row in T]
    product = tuple(
        tuple(dense_solve(columns, apply(mul(basis[a], basis[b]))) for b in order) for a in order
    )
    labels = tuple(f"T({V.labels[c]})" for c in order)
    return labels, tuple((P[c] + pt) % 2 for c in order), product
