import pytest

from superybe import (
    EVEN,
    ODD,
    GradedLinearMap,
    GridSearchCapExceeded,
    LieSuperAlgebra,
    SuperSpace,
    adjoint,
    coadjoint,
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
from superybe.graded import relabel_domain, vec_is_zero

from conftest import random_homogeneous_map
from oracles import first_principles_oop_ok


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
