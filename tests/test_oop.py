import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superybe import (
    EVEN,
    ODD,
    GradedLinearMap,
    GridSearchCapExceeded,
    LieSuperAlgebra,
    SuperSpace,
    adjoint,
    coadjoint,
    dual_rep,
    extend_to_double,
    grid_search_oops,
    is_oop,
    is_rota_baxter,
    load_fixture,
    oop_holds,
    parity_dual_oop,
    parity_reverse_rep,
    suspend_map,
    transport_oop,
    trivial_rep,
)
from superybe.graded import rat, relabel_domain, vec_is_zero
from superybe.oop import oop_defect

from conftest import equivalence_cases, random_homogeneous_map
from oracles import first_principles_oop_ok


def dense_defect(C, A, T, parities, pt, i, j):
    """Op(v_i, v_j) by the formula of the dense `oop_defect` the grid
    search used before it was pruned, over plain tables: C[a][b][k] the
    structure constants, A[a] the matrix of rho(e_a), T the matrix of the
    map of parity pt, parities those of V:

        [T v_i, T v_j] - T(s1 rho(T v_i) v_j - s2 rho(T v_j) v_i)

    with s1 = (-1)^{(|T|+|v_i|)|T|} and s2 = (-1)^{|v_i|(|T|+|v_j|)}."""
    n, d = len(C), len(parities)
    x = [(a, T[a][i]) for a in range(n) if T[a][i] != 0]
    y = [(b, T[b][j]) for b in range(n) if T[b][j] != 0]
    s1 = (-1) ** ((pt + parities[i]) * pt)
    s2 = (-1) ** (parities[i] * (pt + parities[j]))
    out = [0] * n
    for a, xa in x:
        for b, yb in y:
            for k, c in enumerate(C[a][b]):
                out[k] += xa * yb * c
    arg = [0] * d
    for s, z, v in ((s1, x, j), (-s2, y, i)):
        for a, za in z:
            for m in range(d):
                arg[m] += s * za * A[a][m][v]
    for k in range(n):
        for m in range(d):
            out[k] -= T[k][m] * arg[m]
    return out


def scan_search(g, rho, parity, entry_set):
    """The grid search as it was before pruning: decode every index of
    range(total), first position most significant, and keep the maps all
    of whose dense defects vanish.  The defects are taken over ints: the
    structure constants and the action are scaled by the lcm D of their
    denominators and the entries by the lcm E of theirs, which multiplies
    every defect by E^2 D (it has degree 2 in T and degree 1 in (c, rho)
    together) and so keeps every verdict."""
    V, cod = rho.space, g.space
    entries = [rat(e) if not isinstance(e, int) else e for e in entry_set]
    consts = [c for plane in g.structure for row in plane for c in row]
    consts += [c for m in rho.action for row in m.matrix for c in row]
    D = math.lcm(1, *(Fraction(c).denominator for c in consts))
    E = math.lcm(1, *(Fraction(e).denominator for e in entries))
    C = [[[int(D * c) for c in row] for row in plane] for plane in g.structure]
    A = [[[int(D * c) for c in row] for row in m.matrix] for m in rho.action]
    values = [int(E * e) for e in entries]
    positions = [
        (k, i)
        for k in range(cod.dim)
        for i in range(V.dim)
        if cod.parities[k] == (V.parities[i] ^ parity)
    ]
    base = len(entries)
    found = []
    for index in range(base ** len(positions)):
        T = [[0] * V.dim for _ in range(cod.dim)]
        grid = [[Fraction(0)] * V.dim for _ in range(cod.dim)]
        for k, i in reversed(positions):
            index, digit = divmod(index, base)
            T[k][i] = values[digit]
            grid[k][i] = entries[digit]
        if not any(
            any(dense_defect(C, A, T, V.parities, parity, i, j))
            for i in range(V.dim)
            for j in range(V.dim)
        ):
            found.append(GradedLinearMap(V, cod, parity, tuple(tuple(r) for r in grid)))
    return found


def _catalog():
    """{name: (algebra, representation)}: the five algebras of acceptance
    criterion 4 with their distinguished representations, and ex3.7."""
    ex37 = load_fixture("ex3.7").parts
    cases = equivalence_cases() + [("ex3.7", ex37["algebra"], ex37["rho"])]
    return {name: (g, rho) for name, g, rho in cases}


CATALOG = _catalog()


NONZERO_POOL = tuple(Fraction(v) for v in ("-2", "-1", "-1/2", "1/2", "1", "2"))


def entry_sets(size):
    """Zero plus size - 1 values of the pool, ascending."""
    for values in itertools.combinations(NONZERO_POOL, size - 1):
        yield tuple(sorted((Fraction(0),) + values))


class TestIsOop:
    def test_printed_operators_pass(self):
        fx = load_fixture("ex3.2")
        coad = fx.parts["coadjoint"]
        assert is_oop(fx.parts["T0"], coad).ok
        assert is_oop(fx.parts["T1"], coad).ok

    def test_zero_map_passes_both_parities(self):
        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        g = fx.parts["algebra"]
        for parity in (EVEN, ODD):
            z = GradedLinearMap.zero(rho.space, g.space, parity)
            assert oop_holds(z, rho)

    def test_family_constraint_is_sharp(self):
        fam = load_fixture("ex3.7").parts
        rho = fam["rho"]
        assert oop_holds(fam["T3"](1, 1, 1, 1), rho)
        assert not oop_holds(fam["T3_shape"](1, 1, 1, 2), rho)

    def test_defect_table_localizes_failures(self):
        fx = load_fixture("ex3.2")
        g = fx.parts["algebra"]
        coad = fx.parts["coadjoint"]
        t = GradedLinearMap.from_images(
            g.space.dual(), g.space, EVEN, {"e*": {"e": 1}, "f*": {"f": 1}}
        )
        report = is_oop(t, coad)
        assert not report.ok
        bad_pairs = {pair for pair, _ in report.nonzero_defects()}
        assert bad_pairs  # at least one localized witness
        for pair, defect in report.defects:
            if pair in bad_pairs:
                assert not vec_is_zero(defect)

    def test_malformed_candidate_rejected(self):
        fx = load_fixture("ex3.2")
        g = fx.parts["algebra"]
        rho = fx.parts["coadjoint"]
        wrong = GradedLinearMap.zero(g.space, g.space, EVEN)
        with pytest.raises(ValueError):
            is_oop(wrong, rho)

    def test_matches_first_principles_signs(self, rng):
        for name in ("ex3.2", "ex2.3", "ex3.20"):
            fx = load_fixture(name)
            rho = fx.parts.get("rho") or fx.parts["coadjoint"]
            g = fx.parts["algebra"]
            for _ in range(60):
                t = random_homogeneous_map(rng, rho.space, g.space, rng.randint(0, 1))
                assert oop_holds(t, rho) == first_principles_oop_ok(t, rho)


class TestRotaBaxter:
    def test_zero_map_is_rota_baxter(self):
        g = load_fixture("ex3.2").parts["algebra"]
        assert is_rota_baxter(GradedLinearMap.zero(g.space, g.space, EVEN), g)

    def test_identity_fails_on_nonabelian(self):
        g = load_fixture("ex3.2").parts["algebra"]
        assert not is_rota_baxter(GradedLinearMap.identity(g.space), g)

    def test_everything_passes_on_abelian(self, rng):
        space = SuperSpace.make(even=["a"], odd=["c"])
        g = LieSuperAlgebra.from_brackets(space, {})
        for _ in range(20):
            t = random_homogeneous_map(rng, space, space, rng.randint(0, 1))
            assert is_rota_baxter(t, g)

    def test_agrees_with_adjoint_oop(self, rng):
        for name in ("ex3.2", "ex3.20"):
            g = load_fixture(name).parts["algebra"]
            ad = adjoint(g)
            for _ in range(60):
                t = random_homogeneous_map(rng, g.space, g.space, rng.randint(0, 1))
                assert is_rota_baxter(t, g) == oop_holds(t, ad)


class TestParityDuality:
    def test_duality_preserves_verdicts(self, rng):
        for name in ("ex3.2", "ex2.3", "ex3.20"):
            fx = load_fixture(name)
            rho = fx.parts.get("rho") or fx.parts["coadjoint"]
            g = fx.parts["algebra"]
            for _ in range(80):
                t = random_homogeneous_map(rng, rho.space, g.space, rng.randint(0, 1))
                cand = parity_dual_oop(t, rho)
                assert cand.map.parity == (t.parity ^ 1)
                assert oop_holds(t, rho) == oop_holds(cand.map, cand.rep)

    def test_true_case_stays_true(self):
        fx = load_fixture("ex3.2")
        cand = parity_dual_oop(fx.parts["T0"], fx.parts["coadjoint"])
        assert oop_holds(cand.map, cand.rep)

    def test_zero_map_dualizes_to_zero(self):
        fx = load_fixture("ex3.2")
        rho = fx.parts["coadjoint"]
        z = GradedLinearMap.zero(rho.space, fx.parts["algebra"].space, EVEN)
        cand = parity_dual_oop(z, rho)
        assert cand.map.is_zero() and oop_holds(cand.map, cand.rep)


class TestExtendToDouble:
    def test_verdict_preserved(self, rng):
        fx = load_fixture("ex3.2")
        rho = fx.parts["coadjoint"]
        g = fx.parts["algebra"]
        for t in (fx.parts["T0"], fx.parts["T1"]):
            cand = extend_to_double(t, rho)
            assert cand.map.parity == t.parity
            assert oop_holds(cand.map, cand.rep)
        for _ in range(30):
            t = random_homogeneous_map(rng, rho.space, g.space, rng.randint(0, 1))
            cand = extend_to_double(t, rho)
            assert oop_holds(t, rho) == oop_holds(cand.map, cand.rep)

    def test_commutes_with_parity_duality(self):
        fx = load_fixture("ex3.2")
        rho = fx.parts["coadjoint"]
        for t in (fx.parts["T0"], fx.parts["T1"]):
            lhs = suspend_map(extend_to_double(t, rho).map)
            dual = parity_dual_oop(t, rho)
            rhs = extend_to_double(dual.map, dual.rep).map
            assert lhs == rhs

    def test_zero_extends_to_zero(self):
        fx = load_fixture("ex3.2")
        rho = fx.parts["coadjoint"]
        z = GradedLinearMap.zero(rho.space, fx.parts["algebra"].space, ODD)
        assert extend_to_double(z, rho).map.is_zero()


class TestTransport:
    def test_printed_odd_families(self):
        fx = load_fixture("ex3.7")
        rho = fx.parts["rho"]
        phi = fx.parts["phi"]
        srho = parity_reverse_rep(rho)
        cases = [
            (fx.parts["T1"], fx.parts["T1_tilde"], (2, 5)),
            (fx.parts["T2"], fx.parts["T2_tilde"], (7,)),
            (fx.parts["T3"], fx.parts["T3_tilde"], (2, 4, 3, 6)),
        ]
        for make, make_tilde, args in cases:
            cand = transport_oop(suspend_map(make(*args)), srho, phi, rho)
            assert cand.map == make_tilde(*args)
            assert oop_holds(cand.map, cand.rep)

    def test_identity_transport_is_identity(self):
        fx = load_fixture("ex3.2")
        rho = fx.parts["coadjoint"]
        t1 = fx.parts["T1"]
        ident = GradedLinearMap.identity(rho.space)
        assert transport_oop(t1, rho, ident, rho).map == t1

    def test_random_invertible_intertwiners_preserve_the_verdict(self, rng):
        from superybe.reps import intertwiner_space

        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        srho = parity_reverse_rep(rho)
        g = fx.parts["algebra"]
        basis = intertwiner_space(rho, srho)
        assert basis
        found = 0
        for _ in range(40):
            combo = None
            for _attempt in range(20):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                candidate = basis[0].scale(coeffs[0])
                for c, b in zip(coeffs[1:], basis[1:]):
                    candidate = candidate + b.scale(c)
                if candidate.is_invertible():
                    combo = candidate
                    break
            if combo is None:
                continue
            found += 1
            t = random_homogeneous_map(rng, srho.space, g.space, rng.randint(0, 1))
            cand = transport_oop(t, srho, combo, rho)
            assert oop_holds(t, srho) == oop_holds(cand.map, cand.rep)
        assert found > 10

    def test_non_intertwiner_rejected(self):
        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        srho = parity_reverse_rep(rho)
        bogus = GradedLinearMap.from_images(
            rho.space,
            srho.space,
            EVEN,
            {"v1": {"sw1": 1}, "v2": {"sw2": 1}, "w1": {"sv1": 1}, "w2": {"sv2": 1}},
        )
        t = load_fixture("ex3.7").parts["T3"](1, 1, 1, 1)
        with pytest.raises(ValueError):
            transport_oop(suspend_map(t), srho, bogus, rho)


class TestGridSearch:
    def test_contains_printed_operator_and_zero(self):
        fx = load_fixture("ex3.2")
        g = fx.parts["algebra"]
        coad = fx.parts["coadjoint"]
        found = grid_search_oops(g, coad, EVEN, [-1, 0, 1])
        assert fx.parts["T0"] in found
        assert GradedLinearMap.zero(coad.space, g.space, EVEN) in found

    def test_abelian_returns_every_candidate(self):
        space = SuperSpace.make(even=["a"], odd=["c"])
        g = LieSuperAlgebra.from_brackets(space, {})
        rho = trivial_rep(g, SuperSpace.make(even=["u"], odd=["m"]))
        found = grid_search_oops(g, rho, EVEN, [0, 1])
        assert len(found) == 4  # two free entries, two values each

    def test_cap_guard(self):
        fx = load_fixture("ex2.3")
        with pytest.raises(GridSearchCapExceeded):
            grid_search_oops(
                fx.parts["algebra"],
                fx.parts["rho"],
                EVEN,
                list(range(100)),
                cap=10**3,
            )

    def test_printed_odd_operator_is_found(self):
        fx = load_fixture("ex3.2")
        found = grid_search_oops(fx.parts["algebra"], fx.parts["coadjoint"], ODD, [-1, 0, 1])
        assert fx.parts["T1"] in found


def _small_reps():
    """Small representations derived from the catalog: each catalog
    representation with fewer than eight free positions per parity, its
    parity reverse and its dual, the adjoint of its algebra, and a trivial
    representation."""
    out = []
    for name in ("ex3.2", "ex2.3", "ex3.20", "ex3.7"):
        g, rho = CATALOG[name]
        out += [rho, parity_reverse_rep(rho), dual_rep(rho), adjoint(g)]
        out.append(trivial_rep(g, SuperSpace.make(even=["u"], odd=["m"])))
    return out


SMALL_REPS = _small_reps()
ENTRY_POOL = (0, 1, -1, 2, Fraction(0), Fraction(1, 2), Fraction(-1, 2))


class TestPrunedSearch:
    """The pruned search against the scan it replaced, `scan_search`."""

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_same_maps_in_the_same_order_as_the_scan(self, name, parity):
        g, rho = CATALOG[name]
        for size in (2, 3):
            for entries in entry_sets(size):
                assert grid_search_oops(g, rho, parity, entries) == scan_search(
                    g, rho, parity, entries
                ), entries

    def test_ex37_even_grid_is_the_scan(self):
        g, rho = CATALOG["ex3.7"]
        found = grid_search_oops(g, rho, EVEN, [-2, -1, 0, 1, 2])
        assert len(found) == 153
        assert found == scan_search(g, rho, EVEN, [-2, -1, 0, 1, 2])

    @pytest.mark.parametrize("entries", [[], [0], [0, 0], [1, 1], [0, 1, 0], [Fraction(1, 2), 1, 0]])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_degenerate_entry_sets(self, name, entries):
        g, rho = CATALOG[name]
        for parity in (EVEN, ODD):
            found = grid_search_oops(g, rho, parity, entries)
            assert found == scan_search(g, rho, parity, entries)
            if entries == [0]:
                assert found == [GradedLinearMap.zero(rho.space, g.space, parity)]
            if entries == []:
                assert found == []

    @settings(max_examples=40, deadline=None)
    @given(
        rho=st.sampled_from(SMALL_REPS),
        parity=st.integers(0, 1),
        entries=st.lists(st.sampled_from(ENTRY_POOL), max_size=3),
    )
    def test_random_small_representations(self, rho, parity, entries):
        g = rho.algebra
        assert grid_search_oops(g, rho, parity, entries) == scan_search(g, rho, parity, entries)

    def test_no_free_position(self):
        g = LieSuperAlgebra.from_brackets(SuperSpace.make(even=["a", "b"]), {})
        rho = trivial_rep(g, SuperSpace.make(odd=["m", "n"]))
        zero = GradedLinearMap.zero(rho.space, g.space, EVEN)
        for entries in ([], [0], [1, 2]):
            assert grid_search_oops(g, rho, EVEN, entries) == [zero]

    def test_one_value_on_a_large_grid(self):
        # 1800 free positions, one value each: the grid holds one map
        space = SuperSpace.make(even=[f"a{n}" for n in range(30)], odd=[f"c{n}" for n in range(30)])
        g = LieSuperAlgebra.from_brackets(space, {})
        V = SuperSpace.make(even=[f"u{n}" for n in range(30)], odd=[f"m{n}" for n in range(30)])
        rho = trivial_rep(g, V)
        assert grid_search_oops(g, rho, EVEN, [0]) == [GradedLinearMap.zero(V, space, EVEN)]

    def test_search_builds_only_the_solutions(self, monkeypatch, oop_holds_calls):
        g, rho = CATALOG["ex3.7"]
        built = []
        original = GradedLinearMap.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(GradedLinearMap, "__post_init__", counting)
        found = grid_search_oops(g, rho, EVEN, [-2, -1, 0, 1, 2])
        assert len(found) == 153
        assert len(built) == 153
        assert oop_holds_calls == []

    def test_ex37_even_grid_within_one_and_a_half_seconds(self):
        g, rho = CATALOG["ex3.7"]
        start = time.perf_counter()
        found = grid_search_oops(g, rho, EVEN, [-2, -1, 0, 1, 2])
        assert time.perf_counter() - start < 1.5
        assert len(found) == 153


class TestDefectKernel:
    """oop_defect and the defect table of is_oop against the dense formula."""

    def test_defect_table_is_the_dense_formula(self, rng):
        for name, (g, rho) in sorted(CATALOG.items()):
            C = g.structure
            A = [m.matrix for m in rho.action]
            labels = rho.space.labels
            for _ in range(12):
                t = random_homogeneous_map(rng, rho.space, g.space, rng.randint(0, 1))
                t = t.scale(rng.choice((1, Fraction(1, 2), Fraction(-2, 3))))
                dense = {
                    (i, j): tuple(dense_defect(C, A, t.matrix, rho.space.parities, t.parity, i, j))
                    for i in range(rho.space.dim)
                    for j in range(rho.space.dim)
                }
                report = is_oop(t, rho)
                assert report.defects == tuple(
                    ((labels[i], labels[j]), d) for (i, j), d in dense.items()
                ), name
                assert report.ok == oop_holds(t, rho) == all(not any(d) for d in dense.values())
                for (i, j), d in dense.items():
                    assert oop_defect(t, rho, i, j) == d


class TestRotaBaxterCaveat:
    def test_stored_witness(self):
        fx = load_fixture("rb-caveat")
        g = fx.parts["algebra"]
        r = fx.parts["R"]
        assert is_rota_baxter(r, g)
        dual = parity_dual_oop(r, adjoint(g))
        assert oop_holds(dual.map, dual.rep)
        endo = relabel_domain(fx.parts["Rs"], g.space)
        assert endo.parity == ODD
        assert not is_rota_baxter(endo, g)
