from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superybe import (
    EVEN,
    ODD,
    GradedLinearMap,
    PreLieSuperAlgebra,
    SuperSpace,
    adjoint,
    check_lie_axioms,
    check_prelie,
    check_representation,
    compatible_prelie,
    identity_oop,
    induced_prelie,
    left_regular_rep,
    load_fixture,
    oop_holds,
    parity_dual_oop,
    parity_reverse_rep,
    prelie_from_oop,
    prelie_rmatrix_pair,
    product_from_oop,
    scybe_defect,
    subadjacent,
    suspend_map,
    suspended_prelie,
)
from superybe.liesuper import CheckItem
from superybe.prelie import shifted_left_symmetry_holds

import oracles


class TestCheckPrelie:
    def test_printed_compatible_product_passes(self):
        assert check_prelie(load_fixture("ex3.20").parts["star"]).ok

    def test_zero_product_passes(self):
        space = SuperSpace.make(even=["e"], odd=["f"])
        assert check_prelie(PreLieSuperAlgebra.from_products(space, {})).ok

    def test_unbalanced_mixed_products_break_left_symmetry(self):
        space = SuperSpace.make(even=["e"], odd=["f"])
        bad = PreLieSuperAlgebra.from_products(
            space,
            {
                ("e", "e"): {"e": 1},
                ("e", "f"): {"f": 2},
                ("f", "e"): {"f": 1},
                ("f", "f"): {"e": -1},
            },
        )
        report = check_prelie(bad)
        assert not report.ok
        assert "triple" in report.failures()[0].detail

    def test_first_left_symmetry_witness_is_pinned(self):
        space = SuperSpace.make(even=["e"], odd=["f"])
        bad = PreLieSuperAlgebra.from_products(
            space,
            {
                ("e", "e"): {"e": 1},
                ("e", "f"): {"f": 2},
                ("f", "e"): {"f": 1},
                ("f", "f"): {"e": -1},
            },
        )
        report = check_prelie(bad)
        assert [(item.name, item.ok, item.detail) for item in report.items] == [
            ("product grading", True, ""),
            ("left-symmetric associator", False, "fails at triple (e, f, f)"),
        ]
        assert not shifted_left_symmetry_holds(bad)

    def test_first_grading_witness_is_pinned(self):
        # e f and f e both land on the wrong parity; e f comes first
        space = SuperSpace.make(even=["e"], odd=["f"])
        bad = PreLieSuperAlgebra.from_products(
            space, {("e", "f"): {"e": 1}, ("f", "e"): {"e": 1}, ("f", "f"): {"f": 1}}
        )
        report = check_prelie(bad)
        assert [(item.name, item.ok, item.detail) for item in report.items] == [
            ("product grading", False, "e f has a component along e of wrong parity"),
            ("left-symmetric associator", True, ""),
        ]

    def test_shifted_law_fails_for_a_broken_odd_product(self):
        space = SuperSpace.make(even=["e"], odd=["f"])
        bad = PreLieSuperAlgebra.from_products(
            space, {("e", "e"): {"f": 1}, ("e", "f"): {"e": 1}}, parity_shift=ODD
        )
        assert not shifted_left_symmetry_holds(bad)

    def test_odd_product_skips_left_symmetry_but_satisfies_shifted_law(self):
        fx = load_fixture("ex3.20")
        dot = fx.parts["dot"]
        report = check_prelie(dot)
        assert report.ok  # only the grading is checked for shift 1
        assert [item.name for item in report.items] == ["product grading"]
        assert shifted_left_symmetry_holds(dot)


@st.composite
def graded_products(draw):
    """A product of dim 1-4 graded for a drawn shift, with sparse entries so
    that the associator symmetry both holds and fails."""
    shift = draw(st.integers(0, 1))
    even = draw(st.integers(0, 4))
    odd = draw(st.integers(1 if even == 0 else 0, 4 - even))
    space = SuperSpace.make(even=[f"e{i}" for i in range(even)], odd=[f"f{i}" for i in range(odd)])
    P, n = space.parities, space.dim
    entries = st.sampled_from((0, 0, 0, 0, 1, -1, 2, Fraction(1, 2))).map(Fraction)
    product = tuple(
        tuple(
            tuple(
                draw(entries) if P[k] == (P[i] + P[j] + shift) % 2 else Fraction(0)
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )
    return PreLieSuperAlgebra(space, product, shift)


@settings(max_examples=150, deadline=None)
@given(a=graded_products())
def test_associator_symmetry_matches_the_dense_oracle(a):
    witness = oracles.dense_left_symmetry_witness(a.product, a.space.parities, a.parity_shift)
    L = a.space.labels
    detail = "" if witness is None else "fails at triple ({}, {}, {})".format(*(L[x] for x in witness))
    report = check_prelie(a)
    assert report.items[0] == CheckItem("product grading", True, "")
    if a.parity_shift == EVEN:
        assert report.items[1:] == (CheckItem("left-symmetric associator", not detail, detail),)
    else:
        assert len(report.items) == 1
    assert shifted_left_symmetry_holds(a) == (witness is None)


class TestSubadjacent:
    def test_printed_bracket(self):
        fx = load_fixture("ex3.20")
        assert subadjacent(fx.parts["star"]) == fx.parts["algebra"]

    def test_supersymmetric_product_gives_abelian_bracket(self):
        space = SuperSpace.make(even=["e"])
        a = PreLieSuperAlgebra.from_products(space, {("e", "e"): {"e": 1}})
        assert subadjacent(a).is_abelian()

    def test_suspended_product_has_valid_subadjacent(self):
        fx = load_fixture("ex3.20")
        circ = fx.parts["circ"]
        assert check_lie_axioms(subadjacent(circ)).ok

    def test_odd_product_has_no_subadjacent(self):
        fx = load_fixture("ex3.20")
        with pytest.raises(ValueError):
            subadjacent(fx.parts["dot"])


class TestLeftRegular:
    def test_left_regular_is_a_representation(self):
        fx = load_fixture("closing-prelie")
        lrep = fx.parts["left_regular"]
        # construction verifies; spot-check one action value
        star = fx.parts["prelie"]
        f = star.space.index("f")
        assert lrep.action[f].image_of("f") == star.space.vector({"e": -1})

    @pytest.mark.parametrize(
        "fixture, part", [("closing-prelie", "prelie"), ("ex3.20", "circ"), ("ex3.20", "star")]
    )
    def test_left_regular_passes_the_check(self, fixture, part):
        lrep = left_regular_rep(load_fixture(fixture).parts[part])
        assert check_representation(lrep.algebra, lrep.space, lrep.action).ok

    def test_left_regular_makes_no_representation_check(self, rep_checks):
        a = load_fixture("closing-prelie").parts["prelie"]
        before = len(rep_checks)
        left_regular_rep(a)
        assert len(rep_checks) == before

    def test_identity_is_an_even_oop(self):
        fx = load_fixture("closing-prelie")
        ident = fx.parts["identity"]
        assert ident.map.parity == EVEN
        assert oop_holds(ident.map, ident.rep)

    def test_identity_on_zero_product(self):
        space = SuperSpace.make(even=["e"], odd=["f"])
        a = PreLieSuperAlgebra.from_products(space, {})
        ident = identity_oop(a)
        assert oop_holds(ident.map, ident.rep)

    def test_suspended_identity_is_an_odd_oop(self):
        fx = load_fixture("closing-prelie")
        ident = fx.parts["identity"]
        dual = parity_dual_oop(ident.map, ident.rep)
        assert dual.map.parity == ODD
        assert oop_holds(dual.map, dual.rep)


def _catalog_odd_oops():
    """{name: (T, rho)} for every odd O-operator of the catalog."""
    ex32, ex44, ex320, ex37 = (load_fixture(n).parts for n in ("ex3.2", "ex4.4", "ex3.20", "ex3.7"))
    ident = load_fixture("closing-prelie").parts["identity"]
    rb = load_fixture("rb-caveat").parts
    return {
        "ex3.2 T1": (ex32["T1"], ex32["coadjoint"]),
        "ex4.4 T1": (ex44["T1"], ex44["coadjoint"]),
        "ex3.20 T": (ex320["T"], ex320["rho"]),
        "ex3.7 T1~": (ex37["T1_tilde"](1, 2), ex37["rho"]),
        "ex3.7 T2~": (ex37["T2_tilde"](3), ex37["rho"]),
        "ex3.7 T3~": (ex37["T3_tilde"](1, 2, 3, 6), ex37["rho"]),
        "closing id^s": (suspend_map(ident.map), parity_reverse_rep(ident.rep)),
        "rb-caveat R^s": (rb["Rs"], parity_reverse_rep(adjoint(rb["algebra"]))),
    }


ODD_OOPS = _catalog_odd_oops()


@pytest.mark.parametrize("name", sorted(ODD_OOPS))
def test_suspended_product_is_the_product_of_the_parity_dual_pair(name):
    t, rho = ODD_OOPS[name]
    assert t.parity == ODD and oop_holds(t, rho)
    assert suspended_prelie(t, rho) == product_from_oop(suspend_map(t), parity_reverse_rep(rho))


class TestProductsFromOperators:
    def test_printed_odd_product(self):
        fx = load_fixture("ex3.20")
        assert product_from_oop(fx.parts["T"], fx.parts["rho"]) == fx.parts["dot"]

    def test_zero_operator_gives_zero_product(self):
        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        z = GradedLinearMap.zero(rho.space, fx.parts["algebra"].space, EVEN)
        product = product_from_oop(z, rho)
        assert all(
            c == 0 for plane in product.product for row in plane for c in row
        )

    def test_non_operator_rejected(self):
        fx = load_fixture("ex3.7")
        with pytest.raises(ValueError):
            product_from_oop(fx.parts["T3_shape"](1, 1, 1, 2), fx.parts["rho"])

    def test_suspension_gives_printed_prelie(self):
        fx = load_fixture("ex3.20")
        assert suspended_prelie(fx.parts["T"], fx.parts["rho"]) == fx.parts["circ"]

    def test_structures_from_dual_coincide(self):
        fx = load_fixture("ex3.20")
        t, rho = fx.parts["T"], fx.parts["rho"]
        dual = parity_dual_oop(t, rho)
        assert prelie_from_oop(t, rho) == product_from_oop(dual.map, dual.rep)

    def test_shifted_symmetry_for_grid_operators(self, rng):
        from superybe import grid_search_oops

        fx = load_fixture("ex3.2")
        g = fx.parts["algebra"]
        coad = fx.parts["coadjoint"]
        for parity in (EVEN, ODD):
            for t in grid_search_oops(g, coad, parity, [-1, 0, 1]):
                assert shifted_left_symmetry_holds(product_from_oop(t, coad))


class TestInducedAndCompatible:
    def test_compatible_matches_printed_table(self):
        fx = load_fixture("ex3.20")
        assert compatible_prelie(fx.parts["T"], fx.parts["rho"]) == fx.parts["star"]

    def test_identity_recovers_the_product(self):
        fx = load_fixture("closing-prelie")
        star = fx.parts["prelie"]
        ident = fx.parts["identity"]
        assert compatible_prelie(ident.map, ident.rep) == star

    def test_compatible_from_dual_coincides(self):
        fx = load_fixture("ex3.20")
        t, rho = fx.parts["T"], fx.parts["rho"]
        dual = parity_dual_oop(t, rho)
        assert compatible_prelie(t, rho) == compatible_prelie(dual.map, dual.rep)

    def test_subadjacent_of_compatible_recovers_the_algebra(self):
        fx = load_fixture("ex3.20")
        got = subadjacent(compatible_prelie(fx.parts["T"], fx.parts["rho"]))
        assert got == fx.parts["algebra"]

    def test_non_invertible_rejected_for_compatible(self):
        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        z = GradedLinearMap.zero(rho.space, fx.parts["algebra"].space, EVEN)
        with pytest.raises(ValueError):
            compatible_prelie(z, rho)

    def test_induced_product_on_a_proper_image(self):
        fx = load_fixture("ex3.7")
        rho = fx.parts["rho"]
        t = fx.parts["T3"](0, 0, 0, 1)  # rank-1 image spanned by f2
        induced = induced_prelie(t, rho)
        assert induced.space.dim == 1
        assert check_prelie(induced).ok

    def test_induced_equals_compatible_for_invertible(self):
        fx = load_fixture("ex3.20")
        t, rho = fx.parts["T"], fx.parts["rho"]
        induced = induced_prelie(t, rho)
        star = fx.parts["star"]
        # same product table up to the image labels T(w) = e, T(v) = f
        assert induced.space.labels == ("T(w)", "T(v)")
        relabel = {"T(w)": "e", "T(v)": "f"}
        for i, a in enumerate(induced.space.labels):
            for j, b in enumerate(induced.space.labels):
                got = induced.product[i][j]
                want = star.product[star.space.index(relabel[a])][
                    star.space.index(relabel[b])
                ]
                assert got == want


NONINTEGRAL = (Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3), Fraction(-5), Fraction(7, 3))
EX37 = load_fixture("ex3.7").parts


def _rank_one(x):
    """(l1, l2, l3, l4) = (x1 y1, x1 y2, x2 y1, x2 y2), so l1 l4 = l2 l3."""
    x1, x2, y1, y2 = x
    return x1 * y1, x1 * y2, x2 * y1, x2 * y2


_nonzero = st.sampled_from(NONINTEGRAL)
_rank_one_params = st.tuples(*[st.sampled_from(NONINTEGRAL + (Fraction(0),))] * 4).map(_rank_one)
EX37_OPERATORS = st.one_of(
    st.builds(EX37["T1"], _nonzero, _nonzero),
    st.builds(EX37["T2"], _nonzero),
    _rank_one_params.map(lambda l: EX37["T3"](*l)),
    st.builds(EX37["T1_tilde"], _nonzero, _nonzero),
    st.builds(EX37["T2_tilde"], _nonzero),
    _rank_one_params.map(lambda l: EX37["T3_tilde"](*l)),
)


def _catalog_induced_inputs():
    ex32, ex320 = load_fixture("ex3.2").parts, load_fixture("ex3.20").parts
    return {
        "ex3.7 T3(0, 0, 0, 1)": (EX37["T3"](0, 0, 0, 1), EX37["rho"]),
        "ex3.20 T": (ex320["T"], ex320["rho"]),
        "ex3.2 T0": (ex32["T0"], ex32["coadjoint"]),
        "ex3.2 T1": (ex32["T1"], ex32["coadjoint"]),
    }


CATALOG_INDUCED = _catalog_induced_inputs()


def assert_induced_matches_the_oracle(t, rho):
    induced = induced_prelie(t, rho)
    got = (induced.space.labels, induced.space.parities, induced.product)
    assert got == oracles.dense_induced_prelie(t, rho)


@settings(max_examples=80, deadline=None)
@given(t=EX37_OPERATORS)
def test_induced_product_matches_the_solve_oracle_on_the_ex37_families(t):
    assert_induced_matches_the_oracle(t, EX37["rho"])


@pytest.mark.parametrize("name", sorted(CATALOG_INDUCED))
def test_induced_product_matches_the_solve_oracle_on_catalog_operators(name):
    assert_induced_matches_the_oracle(*CATALOG_INDUCED[name])


class TestPrelieRMatrixPair:
    def test_closing_example_tensors(self):
        fx = load_fixture("closing-prelie")
        even_r, odd_r = fx.parts["pair"]
        assert even_r == fx.parts["r_id"]
        assert even_r.parity == EVEN and odd_r.parity == ODD
        assert scybe_defect(even_r).is_zero() and scybe_defect(odd_r).is_zero()

    def test_one_dimensional_even_zero_product(self):
        space = SuperSpace.make(even=["e"])
        a = PreLieSuperAlgebra.from_products(space, {})
        even_r, odd_r = prelie_rmatrix_pair(a)
        assert even_r.algebra.space.labels == ("e", "e*")
        coeffs = {
            (even_r.algebra.space.labels[i], even_r.algebra.space.labels[j]): c
            for (i, j), c in even_r.tensor.nonzero()
        }
        assert coeffs == {("e", "e*"): 1, ("e*", "e"): -1}
        assert scybe_defect(even_r).is_zero()
        assert scybe_defect(odd_r).is_zero()

    def test_dual_variant_matches_printed_odd_tensor_labels(self):
        fx = load_fixture("closing-prelie")
        odd_r = fx.parts["pair"][1]
        space = odd_r.algebra.space
        coeffs = {
            (space.labels[i], space.labels[j]): c for (i, j), c in odd_r.tensor.nonzero()
        }
        assert coeffs == {
            ("e", "se*"): 1,
            ("se*", "e"): 1,
            ("f", "sf*"): 1,
            ("sf*", "f"): 1,
        }
