import itertools
import math
import re
import time
from fractions import Fraction
from functools import cached_property, lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superybe import (
    EVEN,
    ODD,
    GradedLinearMap,
    GridSearchCapExceeded,
    LieSuperAlgebra,
    OOperatorCandidate,
    Representation,
    SuperSpace,
    adjoint,
    check_lie_axioms,
    coadjoint,
    compatible_prelie,
    dual_rep,
    extend_to_double,
    grid_search_oops,
    is_oop,
    is_rota_baxter,
    load_fixture,
    oop_holds,
    operator_to_rmatrix,
    parity_dual_oop,
    parity_reverse_rep,
    product_from_oop,
    same_algebra_pair,
    semidirect_product,
    subadjacent,
    suspend_map,
    transport_oop,
    trivial_rep,
)
from superybe.fileformat import parse
from superybe.graded import rat, relabel_domain, vec_is_zero
from superybe.oop import (
    GRID_SEARCH_SOLUTIONS_CAP,
    _compiled,
    _defect,
    _pairs,
    _Poly,
    oop_defect,
)

from conftest import _count_calls, equivalence_cases, random_homogeneous_map
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


def _dense_table(t, rho):
    """{(i, j): Op(v_i, v_j)} for every basis pair, by `dense_defect`."""
    C, A, P = rho.algebra.structure, [m.matrix for m in rho.action], rho.space.parities
    n = rho.space.dim
    return {
        (i, j): tuple(dense_defect(C, A, t.matrix, P, t.parity, i, j))
        for i in range(n)
        for j in range(n)
    }


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
        # every entry point that takes (T, rho) refuses a map V' -> g or
        # V -> g' with the one message of `_check_candidate`
        fx = load_fixture("ex3.7")
        g, rho, phi = fx.parts["algebra"], fx.parts["rho"], fx.parts["phi"]
        entry_points = {
            "oop_holds": oop_holds,
            "is_oop": is_oop,
            "OOperatorCandidate": OOperatorCandidate,
            "parity_dual_oop": parity_dual_oop,
            "extend_to_double": extend_to_double,
            "transport_oop": lambda t, rho: transport_oop(
                t, rho, GradedLinearMap.identity(rho.space), rho
            ),
            "product_from_oop": product_from_oop,
            "compatible_prelie": compatible_prelie,
            "operator_to_rmatrix plain": lambda t, rho: operator_to_rmatrix(t, rho, "plain"),
            "operator_to_rmatrix dual": lambda t, rho: operator_to_rmatrix(t, rho, "dual"),
            "same_algebra_pair": lambda t, rho: same_algebra_pair(t, rho, phi),
        }
        misfits = (
            GradedLinearMap.zero(g.space, g.space, EVEN),  # wrong domain
            GradedLinearMap.zero(rho.space, rho.space, ODD),  # wrong codomain
        )
        for name, call in entry_points.items():
            for wrong in misfits:
                with pytest.raises(ValueError) as info:
                    call(wrong, rho)
                assert str(info.value) == (
                    "malformed candidate: map does not fit the representation"
                ), name

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

    def test_the_adjoint_is_built_once_per_algebra(self, monkeypatch, rng):
        # the adjoint's table is the bracket table, whose grading and Jacobi
        # identity are checked once, by the report the adjoint reads
        gradings = _count_calls(monkeypatch, "superybe.liesuper", "_grading_failures")
        passes = _count_calls(monkeypatch, "superybe.liesuper", "_hom_failures")
        g = load_fixture("ex3.17").parts["gplus"]
        rebuilt = LieSuperAlgebra(g.space, g.structure)
        zero = GradedLinearMap.zero(g.space, g.space, EVEN)
        for _ in range(20):
            assert is_rota_baxter(zero, rebuilt)
            t = random_homogeneous_map(rng, g.space, g.space, rng.randint(0, 1))
            is_rota_baxter(t, rebuilt)
        # one adjoint, with one check of the bracket table, for all 40 calls
        kept = vars(rebuilt)["_adjoint"]
        assert adjoint(rebuilt) is kept and kept.nonzero is rebuilt.nonzero
        assert len(gradings) == 1 and gradings[0][1] is rebuilt.nonzero
        assert len(passes) == 1 and passes[0][1] is rebuilt._cleared[1]

    def test_a_graded_algebra_that_fails_jacobi_is_refused_as_adjoint_refuses_it(self):
        # the grading holds, so only the Jacobi witness refuses g, with the
        # error of adjoint(g), on every call
        space = SuperSpace.make(even=["x", "y", "z"])
        g = LieSuperAlgebra.from_brackets(space, {("x", "y"): {"z": 1}, ("y", "z"): {"y": 1}})
        zero = GradedLinearMap.zero(space, space, EVEN)
        message = "not a representation: fails at pair (x, y)"
        for _ in range(2):
            for call in (lambda: adjoint(g), lambda: is_rota_baxter(zero, g)):
                with pytest.raises(ValueError, match=re.escape(message)):
                    call()


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

    def test_int_entries_give_fraction_maps(self):
        fx = load_fixture("ex3.7")
        g, rho = fx.parts["algebra"], fx.parts["rho"]
        for parity in (EVEN, ODD):
            found = grid_search_oops(g, rho, parity, [-1, 0, 1])
            assert any(not t.is_zero() for t in found)
            for t in found:
                assert all(type(x) is Fraction for col in t.nonzero for _, x in col)
            assert found == grid_search_oops(g, rho, parity, ["-1", "0", "1"])

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
        original = GradedLinearMap._trusted

        # the search's maps are homogeneous by construction, so they take
        # the unchecked build path every derived map takes
        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(GradedLinearMap, "_trusted", staticmethod(counting))
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


def _free_positions(g, rho, parity):
    """The free positions (k, i) of maps of the given parity, row-major."""
    V, cod = rho.space, g.space
    return [
        (k, i)
        for k in range(cod.dim)
        for i in range(V.dim)
        if cod.parities[k] == V.parities[i] ^ parity
    ]


class TestCanonicalSearchOutput:
    """The search writes each map once, straight from its digits; the maps
    are the ones the public constructor builds, in the scan's order."""

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(CATALOG)),
        parity=st.integers(0, 1),
        nonzero=st.lists(st.sampled_from(NONZERO_POOL), min_size=1, max_size=2, unique=True),
        zero=st.booleans(),
    )
    def test_maps_order_and_tests_are_canonical(self, name, parity, nonzero, zero):
        g, rho = CATALOG[name]
        entries = [*nonzero, Fraction(0)] if zero else nonzero
        found = grid_search_oops(g, rho, parity, entries)
        for t in found:
            fresh = GradedLinearMap(rho.space, g.space, parity, t.matrix)
            assert t == fresh and hash(t) == hash(fresh)
        positions = _free_positions(g, rho, parity)
        order, tests = _compiled(rho, parity, positions)
        assert sorted(order) == sorted(positions) and len(tests) == len(order)
        for d, at_depth in enumerate(tests):
            for a, l, q in at_depth:
                assert l or q  # the test holds x_d ...
                earlier = [x for _, *xs in a for x in xs] + [x for _, x in l]
                assert all(x < d for x in earlier)  # ... and no later variable
        assert found == scan_search(g, rho, parity, entries)


class TestSolutionsCap:
    """GRID_SEARCH_SOLUTIONS_CAP bounds what a search returns.  An abelian
    algebra acting trivially prunes nothing: every candidate solves."""

    @staticmethod
    def abelian_trivial(dim_g, dim_v):
        g = LieSuperAlgebra.from_brackets(SuperSpace.make(even=[f"a{n}" for n in range(dim_g)]), {})
        return g, trivial_rep(g, SuperSpace.make(even=[f"u{n}" for n in range(dim_v)]))

    def test_one_solution_past_the_cap_is_refused_before_any_map(self, monkeypatch):
        g, rho = self.abelian_trivial(2, 3)  # 6 free positions, 2^6 solutions
        monkeypatch.setattr("superybe.oop.GRID_SEARCH_SOLUTIONS_CAP", 2**6)
        assert len(grid_search_oops(g, rho, EVEN, (0, 1))) == 2**6
        monkeypatch.setattr("superybe.oop.GRID_SEARCH_SOLUTIONS_CAP", 2**6 - 1)
        built, original = [], GradedLinearMap._trusted

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(GradedLinearMap, "_trusted", staticmethod(counting))
        with pytest.raises(GridSearchCapExceeded, match=f"solutions cap {2**6 - 1}$"):
            grid_search_oops(g, rho, EVEN, (0, 1))
        assert built == []

    def test_the_cap_refuses_the_abelian_grid(self):
        # 20 free positions over {0, 1}: 2^20 candidates, within the grid
        # cap, and every one a solution
        g, rho = self.abelian_trivial(4, 5)
        assert 2**20 > GRID_SEARCH_SOLUTIONS_CAP
        with pytest.raises(GridSearchCapExceeded, match=f"solutions cap {GRID_SEARCH_SOLUTIONS_CAP}"):
            grid_search_oops(g, rho, EVEN, (0, 1))


class TestDefectKernel:
    """oop_defect and the defect table of is_oop against the dense formula."""

    def test_defect_table_is_the_dense_formula(self, rng):
        for name, (g, rho) in sorted(CATALOG.items()):
            labels = rho.space.labels
            for _ in range(12):
                t = random_homogeneous_map(rng, rho.space, g.space, rng.randint(0, 1))
                t = t.scale(rng.choice((1, Fraction(1, 2), Fraction(-2, 3))))
                dense = _dense_table(t, rho)
                report = is_oop(t, rho)
                assert report.defects == tuple(
                    ((labels[i], labels[j]), d) for (i, j), d in dense.items()
                ), name
                assert report.ok == oop_holds(t, rho) == all(not any(d) for d in dense.values())
                for (i, j), d in dense.items():
                    assert oop_defect(t, rho, i, j) == d


def _rescaled_rep(rho, p, t, q, u):
    """rho over the bases with e_p replaced by t e_p in the algebra and v_q
    by u v_q in the module (no change where p or q is None), with f and h
    the two scale vectors: c'_ab^k = c_ab^k f_a f_b / f_k and
    rho'(e_a)_mv = f_a rho(e_a)_mv h_v / h_m."""
    g = rho.algebra
    n, d = g.space.dim, rho.space.dim
    f = [t if a == p else 1 for a in range(n)]
    h = [u if v == q else 1 for v in range(d)]
    structure = tuple(
        tuple(tuple(g.structure[a][b][k] * f[a] * f[b] / f[k] for k in range(n)) for b in range(n))
        for a in range(n)
    )
    action = tuple(
        GradedLinearMap(
            rho.space,
            rho.space,
            m.parity,
            tuple(tuple(m.matrix[r][v] * f[a] * h[v] / h[r] for v in range(d)) for r in range(d)),
        )
        for a, m in enumerate(rho.action)
    )
    return Representation(LieSuperAlgebra(g.space, structure), rho.space, action)


def _transported_map(t, rho, p, s, q, u):
    """t written over _rescaled_rep(rho, p, s, q, u): T'_ki = T_ki h_i / f_k,
    an O-operator there exactly when t is one for rho."""
    f = [s if k == p else 1 for k in range(rho.algebra.space.dim)]
    h = [u if i == q else 1 for i in range(rho.space.dim)]
    grid = tuple(
        tuple(Fraction(x) * h[i] / f[k] for i, x in enumerate(row))
        for k, row in enumerate(t.matrix)
    )
    return GradedLinearMap(t.domain, t.codomain, t.parity, grid)


@lru_cache(maxsize=None)
def _rescaled_catalog_rep(name, p, t, q, u):
    return _rescaled_rep(CATALOG[name][1], p, t, q, u)


@lru_cache(maxsize=None)
def _known_oops(name, parity):
    """The O-operators with entries in {-1, 0, 1} of a catalog rep."""
    g, rho = CATALOG[name]
    return tuple(grid_search_oops(g, rho, parity, (-1, 0, 1)))


BASIS_SCALES = (Fraction(1, 2), Fraction(-3, 7))
MAP_VALUES = (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7), Fraction(2))


def _action_lcm(rho):
    return math.lcm(*(x.denominator for m in rho.action for row in m.matrix for x in row))


def _map_lcm(t):
    return math.lcm(*(x.denominator for row in t.matrix for x in row))


@st.composite
def kernel_inputs(draw):
    """(T, rho): a catalog rep with an algebra and a module basis vector
    rescaled (or not), and on it either a known O-operator of the catalog
    rep, transported and scaled by a map value, or a sparse random map with
    entries in MAP_VALUES."""
    name = draw(st.sampled_from(sorted(CATALOG)))
    g, rho = CATALOG[name]
    p = draw(st.sampled_from((None, *range(g.space.dim))))
    q = draw(st.sampled_from((None, *range(rho.space.dim))))
    s, u = draw(st.sampled_from(BASIS_SCALES)), draw(st.sampled_from(BASIS_SCALES))
    scaled_rho = _rescaled_catalog_rep(name, p, s, q, u)
    parity = draw(st.integers(0, 1))
    if draw(st.booleans()):
        t = draw(st.sampled_from(_known_oops(name, parity)))
        t = _transported_map(t, rho, p, s, q, u).scale(draw(st.sampled_from(MAP_VALUES)))
    else:
        rnd = draw(st.randoms(use_true_random=False))
        V, cod = rho.space, g.space
        grid = tuple(
            tuple(
                rnd.choice((0, 0) + MAP_VALUES) if cod.parities[k] == V.parities[i] ^ parity else 0
                for i in range(V.dim)
            )
            for k in range(cod.dim)
        )
        t = GradedLinearMap(V, cod, parity, tuple(tuple(map(Fraction, r)) for r in grid))
    return t, scaled_rho


def _check_kernel(t, rho):
    """is_oop's table, every oop_defect and oop_holds against dense_defect
    and first_principles_oop_ok; every value a Fraction."""
    g, V = rho.algebra, rho.space
    C, A = g.structure, [m.matrix for m in rho.action]
    pairs = [(i, j) for i in range(V.dim) for j in range(V.dim)]
    dense = [tuple(dense_defect(C, A, t.matrix, V.parities, t.parity, i, j)) for i, j in pairs]
    report = is_oop(t, rho)
    assert report.defects == tuple(
        ((V.labels[i], V.labels[j]), d) for (i, j), d in zip(pairs, dense)
    )
    assert all(type(c) is Fraction for _, d in report.defects for c in d)
    for (i, j), d in zip(pairs, dense):
        single = oop_defect(t, rho, i, j)
        assert single == d and all(type(c) is Fraction for c in single)
    verdict = first_principles_oop_ok(t, rho)
    assert report.ok == oop_holds(t, rho) == verdict == all(not any(d) for d in dense)
    return verdict


class TestIntegerKernel:
    """The defect kernel runs on ints over cleared denominators: E of the
    structure constants, the action's lcm, L of both and D of the map."""

    def test_the_inputs_clear_distinct_denominators(self):
        def lcms(rho):
            assert rho._cleared[0] == _action_lcm(rho)
            return rho.algebra._cleared[0], rho._cleared[0], rho._joint[0]

        # ex2.3 with f1 halved and v1 scaled by -3/7, and a map with
        # entries 1/2 and 3/7: E = 2, action lcm 42, L = 42, D = 14
        g, rho = CATALOG["ex2.3"]
        scaled = _rescaled_catalog_rep("ex2.3", 1, Fraction(1, 2), 0, Fraction(-3, 7))
        t = GradedLinearMap.from_images(
            rho.space, g.space, ODD, {"v1": {"f1": Fraction(1, 2)}, "w2": {"e1": Fraction(3, 7)}}
        )
        assert lcms(scaled) == (2, 42, 42) and _map_lcm(t) == 14
        assert not _check_kernel(t, scaled)
        # e1 scaled by -3/7: E = 3 does not divide the action lcm 7, L = 21
        scaled = _rescaled_catalog_rep("ex2.3", 0, Fraction(-3, 7), None, 1)
        assert lcms(scaled) == (3, 7, 21)
        for t in _known_oops("ex2.3", ODD)[:12]:
            moved = _transported_map(t, rho, 0, Fraction(-3, 7), None, 1)
            assert _check_kernel(moved.scale(Fraction(1, 2)), scaled)

    @settings(max_examples=200, deadline=None)
    @given(case=kernel_inputs())
    def test_matches_the_dense_formula_and_first_principles(self, case):
        _check_kernel(*case)

    def test_known_operators_stay_operators_on_rescaled_bases(self):
        for name in sorted(CATALOG):
            g, rho = CATALOG[name]
            scaled = _rescaled_catalog_rep(name, 0, Fraction(1, 2), 0, Fraction(-3, 7))
            for parity in (EVEN, ODD):
                for t in _known_oops(name, parity)[:6]:
                    moved = _transported_map(t, rho, 0, Fraction(1, 2), 0, Fraction(-3, 7))
                    assert _check_kernel(moved.scale(Fraction(3, 7)), scaled), name

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_grid_search_on_non_integral_entries_is_the_scan(self, name, parity):
        g, rho = CATALOG[name]
        scaled = _rescaled_catalog_rep(name, 0, Fraction(1, 2), 0, Fraction(-3, 7))
        for entries in (
            (Fraction(-1, 2), 0, Fraction(1, 2)),
            (0, Fraction(1, 3), 2),
        ):
            for r in (rho, scaled):
                found = grid_search_oops(r.algebra, r, parity, entries)
                assert found == scan_search(r.algebra, r, parity, entries), entries

    def test_scaled_tables_are_built_once_per_representation(self, monkeypatch):
        original = Representation.__dict__["_joint"]
        built = []

        def counting(rho):
            built.append(rho)
            return original.func(rho)

        tables = cached_property(counting)
        tables.__set_name__(Representation, "_joint")
        monkeypatch.setattr(Representation, "_joint", tables)
        scalings = _count_calls(monkeypatch, "superybe.oop", "_defects")
        g, rho = CATALOG["ex3.7"]
        first, second = (Representation(g, rho.space, rho.action) for _ in range(2))
        t = load_fixture("ex3.7").parts["T3"](1, 2, Fraction(1, 2), 1)
        for parity in (EVEN, ODD):
            grid_search_oops(g, first, parity, (Fraction(-1, 2), 0, Fraction(1, 2)))
        assert scalings == []
        for _ in range(3):
            assert oop_holds(t, first)
            assert is_oop(t, first).ok
            assert not any(oop_defect(t, first, 0, 1))
        # one scaling of T per oop_holds, is_oop and oop_defect call
        assert len(scalings) == 9
        assert oop_holds(t, second) and oop_holds(t, second)
        assert len(built) == 2 and built[0] is first and built[1] is second


class TestSuperSkewHalf:
    """`oop_holds`, `is_rota_baxter` and the grid search read only the
    pairs of `_pairs`: the rest follow by the super skew-symmetry of Op,
    checked here on the dense formula."""

    @settings(max_examples=150, deadline=None)
    @given(case=kernel_inputs())
    def test_the_dense_defect_is_super_skew_symmetric(self, case):
        t, rho = case
        assume(rho._joint[0] != 1)
        dense = _dense_table(t, rho)
        odd = [p ^ t.parity for p in rho.space.parities]  # |T| + |v_i|
        for (i, j), d in dense.items():
            sign = -((-1) ** (odd[i] * odd[j]))
            assert dense[j, i] == tuple(sign * c for c in d)
            if i == j and not odd[i]:
                assert not any(d)
        assert set(_pairs(rho.space.parities, t.parity)) == {
            (i, j) for i, j in dense if i < j or (i == j and odd[i])
        }

    def test_verdicts_ask_only_for_the_kept_pairs(self, monkeypatch, rng):
        import superybe.oop

        asked = []
        original = superybe.oop._defect

        def recording(tables, P, parity, cols, i, j):
            asked.append((P, parity, i, j))
            return original(tables, P, parity, cols, i, j)

        monkeypatch.setattr(superybe.oop, "_defect", recording)

        def kept_only():
            assert asked
            assert all(i < j or (i == j and P[i] != parity) for P, parity, i, j in asked)
            odd_diagonals = sum(i == j for _, _, i, j in asked)
            asked.clear()
            return odd_diagonals

        diagonals = 0
        for name, (g, rho) in sorted(CATALOG.items()):
            fresh = Representation(g, rho.space, rho.action)
            for parity in (EVEN, ODD):
                for _ in range(10):
                    t = random_homogeneous_map(rng, rho.space, g.space, parity)
                    oop_holds(t, rho)
                    diagonals += kept_only()
                    r = random_homogeneous_map(rng, g.space, g.space, parity)
                    is_rota_baxter(r, g)
                    diagonals += kept_only()
                # the search asks when it compiles fresh's polynomials of
                # this parity, and a second search on them asks nothing
                grid_search_oops(g, fresh, parity, (-1, 0, Fraction(1, 2)))
                diagonals += kept_only()
                grid_search_oops(g, fresh, parity, (0, 2))
                assert asked == [], name
        assert diagonals

    def test_a_bracket_that_is_not_super_skew_is_read_on_every_pair(self):
        # [e, e] = e on one even e: the dense constructor takes it, and the
        # even diagonal pair that the super-skew half leaves out fails
        space = SuperSpace.make(even=["e"])
        g = LieSuperAlgebra(space, [[[1]]])
        rho = trivial_rep(g, SuperSpace.make(even=["v"]))
        t = GradedLinearMap.from_images(rho.space, space, EVEN, {"v": {"e": 1}})
        report = check_lie_axioms(g)
        assert [item.name for item in report.failures()][:1] == ["super skew-symmetry"]
        assert g._skew_failure == ((0, 0),)
        assert not is_oop(t, rho).ok
        assert not oop_holds(t, rho)
        assert oop_defect(t, rho, 0, 0) == (1,)
        zero = GradedLinearMap.zero(rho.space, space, EVEN)
        assert grid_search_oops(g, rho, EVEN, [0, 1]) == [zero]
        assert grid_search_oops(g, rho, EVEN, [1]) == []
        assert grid_search_oops(g, rho, EVEN, [-1, 0, 1]) == scan_search(g, rho, EVEN, [-1, 0, 1])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_verdicts_on_any_graded_dense_bracket_are_is_oops(self, data):
        # the dense constructor checks no axiom, so the bracket may fail
        # super skew-symmetry (and Jacobi); the trivial action is a
        # representation of any bracket
        space = SuperSpace.make(even=["a", "c"], odd=["b"])
        P = space.parities
        constants = st.sampled_from((-1, 0, 0, 1))
        structure = [
            [[data.draw(constants) if P[k] == P[i] ^ P[j] else 0 for k in range(3)] for j in range(3)]
            for i in range(3)
        ]
        g = LieSuperAlgebra(space, structure)
        rho = trivial_rep(g, SuperSpace.make(even=["u"], odd=["m"]))
        parity = data.draw(st.integers(0, 1))
        rng = data.draw(st.randoms(use_true_random=False))
        for _ in range(5):
            t = random_homogeneous_map(rng, rho.space, space, parity)
            assert oop_holds(t, rho) == is_oop(t, rho).ok
        found = grid_search_oops(g, rho, parity, (-1, 0, 1))
        assert found == scan_search(g, rho, parity, (-1, 0, 1))
        assert all(is_oop(t, rho).ok for t in found)


# the catalog's genuine pre-Lie products, whose sub-adjacent algebras are Lie
GENUINE_PRELIE = (
    load_fixture("ex3.20").parts["circ"],
    load_fixture("ex3.20").parts["star"],
    load_fixture("closing-prelie").parts["prelie"],
)


@st.composite
def public_algebras(draw):
    """An algebra from one of the public constructors: the dense one and
    `from_brackets`, on drawn graded constants that may break super
    skew-symmetry (dense) or the Jacobi identity (both); `parse` of the
    same brackets; `subadjacent` of a catalog product; and
    `semidirect_product` of a catalog representation."""
    kind = draw(st.sampled_from(["dense", "from_brackets", "parsed", "subadjacent", "semidirect"]))
    if kind == "subadjacent":
        return subadjacent(draw(st.sampled_from(GENUINE_PRELIE)))
    if kind == "semidirect":
        return semidirect_product(*draw(st.sampled_from([CATALOG[n] for n in ("ex3.2", "ex2.3")])))
    space = SuperSpace.make(even=["a", "c"], odd=["b"])
    L, P = space.labels, space.parities
    constants = st.sampled_from((-1, 0, 0, 1))
    if kind == "dense":
        structure = [
            [[draw(constants) if P[k] == P[i] ^ P[j] else 0 for k in range(3)] for j in range(3)]
            for i in range(3)
        ]
        return LieSuperAlgebra(space, structure)
    brackets = {
        (L[i], L[j]): {L[k]: draw(constants) for k in range(3) if P[k] == P[i] ^ P[j]}
        for i in range(3)
        for j in range(i, 3)
        if i != j or P[i]
    }
    if kind == "from_brackets":
        return LieSuperAlgebra.from_brackets(space, brackets)
    lines = [
        f"{x} {y} = " + (" + ".join(f"{c} {k}" for k, c in cell.items() if c) or "0")
        for (x, y), cell in brackets.items()
    ]
    return parse("[space]\neven = a c\nodd = b\n[bracket]\n" + "\n".join(lines) + "\n").algebra


def _images(rho):
    """The {algebra label: {label: {label: c}}} images of rho's action."""
    V = rho.space
    return {
        a: {V.labels[i]: {V.labels[k]: x for k, x in col} for i, col in enumerate(t.nonzero)}
        for a, t in zip(rho.algebra.space.labels, rho.action)
    }


@st.composite
def public_representations(draw, g):
    """A representation of g from one of the public constructors:
    `from_images` (of a trivial action, or a checked rebuild of the
    adjoint's), `adjoint`, `coadjoint`, `dual_rep` or `parity_reverse_rep`.
    The adjoint ones only where g's adjoint exists."""
    trivial = Representation.from_images(g, SuperSpace.make(even=["u"], odd=["m"]), {})
    try:
        ad = adjoint(g)
    except ValueError:
        return draw(st.sampled_from([trivial, dual_rep(trivial), parity_reverse_rep(trivial)]))
    kind = draw(st.sampled_from(["from_images", "adjoint", "coadjoint", "dual_rep", "reverse"]))
    base = draw(st.sampled_from([trivial, ad]))
    if kind == "from_images":
        return Representation.from_images(g, base.space, _images(base))
    if kind == "adjoint":
        return ad
    if kind == "coadjoint":
        return coadjoint(g)
    return dual_rep(base) if kind == "dual_rep" else parity_reverse_rep(base)


class TestEveryPublicConstructor:
    """The verdicts of `oop_holds`, the grid search and `is_rota_baxter`
    are `is_oop`'s on every algebra and representation the public
    constructors build, whatever axioms the algebra breaks."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_verdicts_are_is_oops(self, data):
        g = data.draw(public_algebras())
        rho = data.draw(public_representations(g))
        parity = data.draw(st.integers(0, 1))
        rng = data.draw(st.randoms(use_true_random=False))
        for _ in range(5):
            t = random_homogeneous_map(rng, rho.space, g.space, parity, lo=-1, hi=1)
            assert oop_holds(t, rho) == is_oop(t, rho).ok
        V, P = rho.space, g.space.parities
        free = sum(P[k] == V.parities[i] ^ parity for k in range(g.dim) for i in range(V.dim))
        entries = (-1, 0, 1) if free <= 7 else (0, 1) if free <= 11 else (1,)
        found = grid_search_oops(g, rho, parity, entries)
        assert all(oop_holds(t, rho) and is_oop(t, rho).ok for t in found)

    def test_is_rota_baxter_on_brackets_that_fail_only_skew_symmetry(self):
        # every dense 2|0 bracket over {-1, 0, 1} whose one failing axiom is
        # super skew-symmetry, against all 81 even maps over {-1, 0, 1}
        space = SuperSpace.make(even=["a", "b"])
        maps = [
            GradedLinearMap(space, space, EVEN, (m[:2], m[2:]))
            for m in itertools.product((-1, 0, 1), repeat=4)
        ]
        algebras = 0
        for c in itertools.product((-1, 0, 1), repeat=8):
            g = LieSuperAlgebra(space, [[c[0:2], c[2:4]], [c[4:6], c[6:8]]])
            if [item.name for item in check_lie_axioms(g).failures()] != ["super skew-symmetry"]:
                continue
            algebras += 1
            ad = adjoint(g)
            for r in maps:
                assert is_rota_baxter(r, g) == is_oop(r, ad).ok
        assert algebras == 32

def _evaluated(poly, point):
    """The value of a `_Poly` at the int point: x_d is point[d]."""
    return sum(c * math.prod(point[x] for x in m) for m, c in poly.items())


class TestCompiledPolynomials:
    """The grid search runs `_defect` over `_Poly` on columns of variables,
    one per free position in column-major order."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("parity", [EVEN, ODD])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_the_polynomial_defect_at_an_int_point_is_the_int_defect(self, name, parity, data):
        g, rho = CATALOG[name]
        V, cod = rho.space, g.space
        order = [
            (k, i)
            for i in range(V.dim)
            for k in range(cod.dim)
            if cod.parities[k] == V.parities[i] ^ parity
        ]
        point = data.draw(st.lists(st.integers(-6, 6), min_size=len(order), max_size=len(order)))
        variables = [[] for _ in range(V.dim)]
        ints = [[] for _ in range(V.dim)]
        for d, (k, i) in enumerate(order):
            variables[i].append((k, _Poly({(d,): 1})))
            if point[d]:
                ints[i].append((k, point[d]))
        tables, P = rho._joint, V.parities
        for i in range(V.dim):
            for j in range(V.dim):
                polys = _defect(tables, P, parity, variables, i, j)
                assert all(isinstance(p, _Poly) and p for p in polys.values())
                values = {k: _evaluated(p, point) for k, p in polys.items()}
                assert {k: v for k, v in values.items() if v} == _defect(
                    tables, P, parity, ints, i, j
                ), (i, j)

    def test_the_ring_operations_are_exact(self):
        x, y = _Poly({(0,): 1}), _Poly({(1,): 2})
        assert x * y == y * x == _Poly({(0, 1): 2})
        assert (x + y) * (x - y) == _Poly({(0, 0): 1, (1, 1): -4})
        assert 0 + x == x and 0 - x == -x == _Poly({(0,): -1}) and x * 3 == 3 * x
        assert not (x - x) and not x * 0 and x + 0 == x
        assert x * y - y * x == {} and isinstance(x * y - y * x, _Poly)

    def test_compiled_once_per_representation_and_parity(self, monkeypatch):
        g, rho = CATALOG["ex3.7"]
        fresh = Representation(g, rho.space, rho.action)
        compiled = _count_calls(monkeypatch, "superybe.oop", "_defect")
        for parity in (EVEN, ODD):
            for entries in ((0, 1), (-1, 0, 1), (Fraction(1, 2), 0)):
                assert grid_search_oops(g, fresh, parity, entries) == grid_search_oops(
                    g, rho, parity, entries
                )
        tests = fresh._grid_tests
        # each parity keeps (order, tests): six free positions, one depth each
        assert sorted(tests) == [EVEN, ODD]
        assert all(len(order) == len(depths) == 6 for order, depths in tests.values())
        # every polynomial of each parity was compiled on the first search
        asked = len(compiled)
        grid_search_oops(g, fresh, EVEN, (-2, -1, 0, 1, 2))
        assert len(compiled) == asked and fresh._grid_tests is tests

    def test_an_empty_bracket_cell_costs_no_product(self, monkeypatch):
        # an abelian algebra acting trivially: every bracket cell and every
        # action cell is empty, so compiling forms no polynomial product
        g = LieSuperAlgebra.from_brackets(SuperSpace.make(even=["a", "b"], odd=["c", "d"]), {})
        rho = trivial_rep(g, SuperSpace.make(even=["u", "w"], odd=["m"]))
        products = []
        original = _Poly.__mul__

        def counting(self, other):
            products.append(other)
            return original(self, other)

        monkeypatch.setattr(_Poly, "__mul__", counting)
        monkeypatch.setattr(_Poly, "__rmul__", counting)
        for parity in (EVEN, ODD):
            assert len(grid_search_oops(g, rho, parity, (0, 1))) == 2**6
        assert sorted(rho._grid_tests) == [EVEN, ODD] and products == []

    def test_the_cap_is_checked_before_compiling(self, monkeypatch):
        g, rho = CATALOG["ex3.7"]
        fresh = Representation(g, rho.space, rho.action)
        compiled = _count_calls(monkeypatch, "superybe.oop", "_defect")
        with pytest.raises(GridSearchCapExceeded):
            grid_search_oops(g, fresh, EVEN, range(30))
        assert compiled == [] and fresh._grid_tests == {}

    def test_one_candidate_is_tested_without_compiling(self):
        g, rho = CATALOG["ex3.7"]
        fresh = Representation(g, rho.space, rho.action)
        for parity in (EVEN, ODD):
            for entries in ([], [0], [1], [Fraction(-1, 2)]):
                found = grid_search_oops(g, fresh, parity, entries)
                assert found == scan_search(g, rho, parity, entries)
        assert fresh._grid_tests == {}


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
