import itertools
import random
import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superybe import (
    EVEN,
    ODD,
    GradedLinearMap,
    LieSuperAlgebra,
    Representation,
    SuperSpace,
    adjoint,
    check_representation,
    coadjoint,
    direct_sum_rep,
    dual_rep,
    check_lie_axioms,
    find_even_isomorphism,
    fixture_names,
    hierarchy_trace,
    is_intertwiner,
    is_rota_baxter,
    is_self_reversing,
    load_fixture,
    oop_holds,
    parity_reverse_rep,
    self_reversing_double,
    semidirect_product,
    transport_oop,
    trivial_rep,
)
from superybe import linalg
from superybe.graded import format_vector
from superybe.reps import (
    _RANDOM_FALLBACK_TRIES,
    ISO_GRID_COST_CAP,
    _intertwiner_system,
    intertwiner_space,
)
from superybe.liesuper import _semidirect
from superybe.rmatrix import HierarchyError, RMatrix, _dual_semidirect, _plain_semidirect

import oracles
from conftest import _count_calls, equivalence_cases


class TestCheckRepresentation:
    def test_adjoint_of_valid_algebra_passes(self):
        g = load_fixture("ex3.2").parts["algebra"]
        rep = adjoint(g)
        assert check_representation(g, rep.space, rep.action).ok

    def test_sl11_module_passes(self):
        rho = load_fixture("ex2.3").parts["rho"]
        assert check_representation(rho.algebra, rho.space, rho.action).ok

    def test_broken_action_fails_at_the_odd_pair(self):
        fx = load_fixture("ex2.3")
        g = fx.parts["algebra"]
        rho = fx.parts["rho"]
        # drop rho(f1) w1 = v1
        action = list(rho.action)
        f1 = g.space.index("f1")
        action[f1] = GradedLinearMap.from_images(
            rho.space, rho.space, ODD, {"v2": {"w2": 1}}
        )
        report = check_representation(g, rho.space, tuple(action))
        assert not report.ok
        assert "(f1, f2)" in report.failures()[0].detail

    def test_wrong_parity_action_fails_shape_check(self):
        g = load_fixture("ex3.2").parts["algebra"]
        space = SuperSpace.make(even=["u"], odd=["m"])
        action = (
            GradedLinearMap.zero(space, space, ODD),  # should be even for e
            GradedLinearMap.zero(space, space, ODD),
        )
        report = check_representation(g, space, action)
        assert not report.items[0].ok

    @staticmethod
    def _items(report):
        return [(item.name, item.ok, item.detail) for item in report.items]

    def test_first_homomorphism_witness_is_pinned(self):
        fx = load_fixture("ex2.3")
        g = fx.parts["algebra"]
        rho = fx.parts["rho"]
        action = list(rho.action)
        action[g.space.index("f1")] = GradedLinearMap.from_images(
            rho.space, rho.space, ODD, {"v2": {"w2": 1}}
        )
        assert self._items(check_representation(g, rho.space, tuple(action))) == [
            ("action shape and parity", True, ""),
            ("homomorphism property", False, "fails at pair (f1, f2)"),
        ]

    def test_first_shape_witness_is_pinned(self):
        fx = load_fixture("ex2.3")
        g = fx.parts["algebra"]
        rho = fx.parts["rho"]
        other = SuperSpace.make(even=["u"], odd=["m"])
        wrong_parity = GradedLinearMap.zero(rho.space, rho.space, EVEN)
        wrong_space = GradedLinearMap.zero(other, other, ODD)

        def items(action):
            return self._items(check_representation(g, rho.space, tuple(action)))

        # f1 has the wrong parity and f2 the wrong space: f1 comes first
        assert items([rho.action[0], wrong_parity, wrong_space]) == [
            ("action shape and parity", False, "action of f1 must have parity of f1"),
            ("homomorphism property", True, ""),
        ]
        assert items([rho.action[0], rho.action[1], wrong_space]) == [
            ("action shape and parity", False, "action of f2 acts on the wrong space"),
            ("homomorphism property", True, ""),
        ]
        # the wrong space is reported before the wrong parity of one map
        wrong_both = GradedLinearMap.zero(other, other, EVEN)
        assert items([rho.action[0], wrong_both, rho.action[2]]) == [
            ("action shape and parity", False, "action of f1 acts on the wrong space"),
            ("homomorphism property", True, ""),
        ]
        assert items(rho.action[:2]) == [
            ("action shape and parity", False, "expected 3 action maps, got 2"),
            ("homomorphism property", True, ""),
        ]

    def test_construction_verifies_eagerly(self):
        fx = load_fixture("ex2.3")
        g = fx.parts["algebra"]
        with pytest.raises(ValueError):
            Representation.from_images(
                g,
                fx.parts["rho"].space,
                {"e1": {"v1": {"v1": 1}}},  # not a homomorphism
            )

    def test_unknown_algebra_label_is_rejected(self):
        fx = load_fixture("ex3.2")
        g, space = fx.parts["algebra"], fx.parts["coadjoint"].space
        with pytest.raises(KeyError) as expected:
            GradedLinearMap.from_images(g.space, space, EVEN, {"ee": {}})
        for images in ({"ee": {}}, {"e": {}, "ee": {"f*": {"f*": 1}}}):
            with pytest.raises(KeyError) as got:
                Representation.from_images(g, space, images)
            assert str(got.value) == str(expected.value)
        # a label of the module is not a label of the algebra
        with pytest.raises(KeyError, match="unknown basis label 'f\\*'"):
            Representation.from_images(g, space, {"f*": {}})

    def test_omitted_algebra_labels_act_by_zero(self):
        fx = load_fixture("ex3.2")
        g, space = fx.parts["algebra"], fx.parts["coadjoint"].space
        rho = Representation.from_images(g, space, {"e": {}})
        assert all(m.is_zero() for m in rho.action)


class TestDualRep:
    def test_coadjoint_entries_forced_by_pairing(self):
        g = load_fixture("ex3.2").parts["algebra"]
        coad = coadjoint(g)
        gd = g.space.dual()
        e = g.space.index("e")
        f = g.space.index("f")
        assert format_vector(gd, coad.action[e].image_of("e*")) == "0"
        assert format_vector(gd, coad.action[e].image_of("f*")) == "-1 f*"
        assert format_vector(gd, coad.action[f].image_of("e*")) == "0"
        assert format_vector(gd, coad.action[f].image_of("f*")) == "-1 e*"

    def test_dual_of_zero_rep_is_zero(self):
        g = load_fixture("ex3.2").parts["algebra"]
        v = SuperSpace.make(even=["u"], odd=["m"])
        d = dual_rep(trivial_rep(g, v))
        assert all(m.is_zero() for m in d.action)

    def test_double_dual_isomorphic_to_original(self):
        for _, _, rho in equivalence_cases()[:3]:
            result = find_even_isomorphism(dual_rep(dual_rep(rho)), rho)
            assert result.found

    def test_theta_intertwines_with_the_double_dual(self):
        from superybe import double_dual_embedding

        for _, _, rho in equivalence_cases()[:3]:
            theta = double_dual_embedding(rho.space)
            assert is_intertwiner(theta, rho, dual_rep(dual_rep(rho)))
            assert theta.is_invertible()


class TestParityReverse:
    def test_reversed_adjoint_matches_printed_semidirect_table(self):
        fx = load_fixture("ex3.17")
        g = fx.parts["algebra"]
        srho = parity_reverse_rep(adjoint(g))
        sspace = srho.space
        e = g.space.index("e")
        f = g.space.index("f")
        # [e, sf] = sf and [f, se] = sf
        assert format_vector(sspace, srho.action[e].image_of("sf")) == "1 sf"
        assert format_vector(sspace, srho.action[f].image_of("se")) == "1 sf"
        assert srho.action[f].image_of("sf") == sspace.zero_vector()

    def test_reverse_twice_is_the_identity_construction(self):
        for _, _, rho in equivalence_cases()[:3]:
            assert parity_reverse_rep(parity_reverse_rep(rho)) == rho

    def test_reverse_of_zero_rep_is_zero(self):
        g = load_fixture("ex3.2").parts["algebra"]
        v = SuperSpace.make(even=["u"], odd=["m"])
        s = parity_reverse_rep(trivial_rep(g, v))
        assert all(m.is_zero() for m in s.action)


class TestDirectSumAndSelfReversing:
    def test_double_is_self_reversing_for_every_fixture_rep(self):
        for _, _, rho in equivalence_cases():
            result = is_self_reversing(self_reversing_double(rho))
            assert result.found
            phi = result.iso
            assert is_intertwiner(
                phi,
                self_reversing_double(rho),
                parity_reverse_rep(self_reversing_double(rho)),
            )

    def test_projection_intertwines_sum_with_summand(self):
        g = load_fixture("ex3.2").parts["algebra"]
        rho = coadjoint(g)
        other = trivial_rep(g, SuperSpace.make(even=["u"], odd=["m"]))
        total = direct_sum_rep(rho, other)
        proj = GradedLinearMap.from_images(
            total.space,
            rho.space,
            EVEN,
            {lab: {lab: 1} for lab in rho.space.labels},
        )
        assert is_intertwiner(proj, total, rho)

    def test_second_summand_is_reverse_of_first(self):
        fx = load_fixture("ex2.3")
        assert find_even_isomorphism(
            fx.parts["rho2"], parity_reverse_rep(fx.parts["rho1"])
        ).found

    def test_sum_of_summands_isomorphic_to_module(self):
        fx = load_fixture("ex2.3")
        total = direct_sum_rep(fx.parts["rho1"], fx.parts["rho2"])
        assert find_even_isomorphism(total, fx.parts["rho"]).found

    def test_colliding_labels_take_pair_notation(self):
        g = load_fixture("ex3.2").parts["algebra"]
        ad = adjoint(g)
        expected = ("(e,0)", "(0,e)", "(f,0)", "(0,f)")
        assert direct_sum_rep(ad, ad).space.labels == expected
        assert semidirect_product(g, ad).space.labels == expected
        assert direct_sum_rep(ad, coadjoint(g)).space.labels == ("e", "e*", "f", "f*")

    def test_algebra_mismatch_rejected(self):
        g1 = load_fixture("ex3.2").parts["algebra"]
        g2 = load_fixture("ex3.20").parts["algebra"]
        with pytest.raises(ValueError):
            direct_sum_rep(adjoint(g1), adjoint(g2))


class TestIsomorphismSearch:
    def test_identical_reps_give_an_isomorphism(self):
        rho = load_fixture("ex2.3").parts["rho"]
        result = find_even_isomorphism(rho, rho)
        assert result.found
        assert result.iso.compose(result.inverse) == GradedLinearMap.identity(rho.space)

    def test_printed_intertwiner_verifies(self):
        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        phi = fx.parts["phi"]
        assert is_intertwiner(phi, rho, parity_reverse_rep(rho))
        assert phi.is_invertible()

    def test_opposite_parity_lines_are_not_isomorphic(self):
        g = load_fixture("ex3.2").parts["algebra"]
        r1 = trivial_rep(g, SuperSpace.make(even=["u"]))
        r2 = trivial_rep(g, SuperSpace.make(odd=["m"]))
        assert find_even_isomorphism(r1, r2).status == "none"

    def test_search_is_symmetric(self):
        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        srho = parity_reverse_rep(rho)
        assert (
            find_even_isomorphism(rho, srho).found
            == find_even_isomorphism(srho, rho).found
        )
        g = fx.parts["algebra"]
        r1 = trivial_rep(g, SuperSpace.make(even=["u"]))
        r2 = trivial_rep(g, SuperSpace.make(odd=["m"]))
        assert (
            find_even_isomorphism(r1, r2).status
            == find_even_isomorphism(r2, r1).status
        )

    def test_returned_map_is_exact_intertwiner(self):
        for _, _, rho in equivalence_cases()[:3]:
            result = find_even_isomorphism(rho, parity_reverse_rep(parity_reverse_rep(rho)))
            assert result.found
            assert is_intertwiner(result.iso, rho, rho)
            assert result.iso.compose(result.inverse) == GradedLinearMap.identity(rho.space)

    def test_nonisomorphic_same_dimensions(self):
        g = load_fixture("ex3.2").parts["algebra"]
        rho = coadjoint(g)  # nontrivial 1|1 action
        triv = trivial_rep(g, SuperSpace.make(even=["u"], odd=["m"]))
        assert find_even_isomorphism(rho, triv).status == "none"

    def test_self_duality_detection(self):
        from superybe import adjoint, is_self_dual
        from conftest import gl11_with_supertrace

        # an even invariant non-degenerate form makes the adjoint self-dual
        gl11, _ = gl11_with_supertrace()
        assert is_self_dual(adjoint(gl11)).found
        # the [e, f] = f algebra admits no such form: not self-dual
        g = load_fixture("ex3.2").parts["algebra"]
        assert is_self_dual(adjoint(g)).status == "none"

    def test_large_intertwiner_space_fallback_finds_an_isomorphism(self):
        # trivial 3|3 self-comparison: 18 intertwiner dimensions force the
        # randomized path, which must still land on an invertible element
        space = SuperSpace.make(even=["z"])
        g = LieSuperAlgebra.from_brackets(space, {})
        big = SuperSpace.make(even=["a1", "a2", "a3"], odd=["b1", "b2", "b3"])
        rho = trivial_rep(g, big)
        result = find_even_isomorphism(rho, rho)
        assert result.found
        assert is_intertwiner(result.iso, rho, rho)

    def test_large_intertwiner_space_without_isomorphism_is_inconclusive(self):
        # 42 intertwiner dimensions but a forced zero row: no invertible
        # element exists, and off the grid the search must say so honestly
        space = SuperSpace.make(even=["z"])
        g = LieSuperAlgebra.from_brackets(space, {})
        v = SuperSpace.make(even=[f"u{i}" for i in range(7)])
        rho1 = trivial_rep(g, v)
        action = GradedLinearMap.from_images(v, v, EVEN, {"u6": {"u6": 1}})
        rho2 = Representation(g, v, (action,))
        assert find_even_isomorphism(rho1, rho2).status == "inconclusive"

    def test_over_cap_grid_takes_the_randomized_path(self, monkeypatch):
        # six intertwiner dimensions over a dim-6 space, 7^6 grid points: the
        # intertwiners map into the kernel of a nilpotent Jordan block, so
        # none is invertible, and the full grid would take 117,649 eliminations
        space = SuperSpace.make(even=["z"])
        g = LieSuperAlgebra.from_brackets(space, {})
        v = SuperSpace.make(even=[f"u{i}" for i in range(6)])
        shift = GradedLinearMap.from_images(
            v, v, EVEN, {f"u{i}": {f"u{i - 1}": 1} for i in range(1, 6)}
        )
        rho1, rho2 = trivial_rep(g, v), Representation(g, v, (shift,))
        assert len(intertwiner_space(rho1, rho2)) == 6 and 7**6 * 6**3 > ISO_GRID_COST_CAP
        inverts = _count_calls(monkeypatch, "superybe.linalg", "_inverse")
        assert find_even_isomorphism(rho1, rho2).status == "inconclusive"
        assert 0 < len(inverts) <= _RANDOM_FALLBACK_TRIES + 1

    def test_dim_99_grid_is_refused_without_a_scan(self, monkeypatch):
        # two intertwiner dimensions over a dim-99 space: 100^2 grid points,
        # each an elimination of a 99 x 99 candidate, cost 9.7e9; the
        # intertwiners E_00 and E_11 are never invertible
        space = SuperSpace.make(even=["z"])
        g = LieSuperAlgebra.from_brackets(space, {})
        v = SuperSpace.make(even=[f"u{i}" for i in range(99)])
        rho = trivial_rep(g, v)
        basis = [[((i, i), 1, 1)] for i in (0, 1)]
        monkeypatch.setattr("superybe.reps._intertwiner_basis", lambda rho1, rho2: basis)
        assert 100**2 * 99**3 > ISO_GRID_COST_CAP
        inverts = _count_calls(monkeypatch, "superybe.linalg", "_inverse")
        assert find_even_isomorphism(rho, rho).status == "inconclusive"
        assert 0 < len(inverts) <= _RANDOM_FALLBACK_TRIES + 1

    def test_catalog_grids_stay_under_the_cap(self, monkeypatch):
        # the doubles scan grids of up to 9^4 points at n = 8; a "none" proof
        # must stay a proof.  Only the ex2.3 double's grid, 9^8 points at
        # n = 8, is over the cap
        over = []
        for name, _, rho in equivalence_cases():
            double = self_reversing_double(rho)
            n, k = double.space.dim, len(intertwiner_space(double, parity_reverse_rep(double)))
            if (n + 1) ** k * n**3 > ISO_GRID_COST_CAP:
                over.append(name)
        assert over == ["ex2.3"]
        # the [e, f] = f algebra is not self-dual: a proof over the whole
        # grid {0, 1, 2}^1, after the probe
        ad = adjoint(load_fixture("ex3.2").parts["algebra"])
        assert len(intertwiner_space(ad, dual_rep(ad))) == 1
        inverts = _count_calls(monkeypatch, "superybe.graded", "_block_inverse")
        assert find_even_isomorphism(ad, dual_rep(ad)).status == "none"
        assert len(inverts) == 1 + 3

    @pytest.mark.parametrize("part", ["gplus", "gminus"])
    def test_ex317_doubles_are_found_by_the_probe(self, monkeypatch, part):
        # the lexicographic grid first meets an invertible point at its 83rd
        double = self_reversing_double(coadjoint(load_fixture("ex3.17").parts[part]))
        inverts = _count_calls(monkeypatch, "superybe.graded", "_block_inverse")
        assert is_self_reversing(double).found
        assert len(inverts) == 1

    def test_every_catalog_none_proof_scans_its_full_grid(self, monkeypatch):
        inverts = _count_calls(monkeypatch, "superybe.graded", "_block_inverse")
        grids = []
        for name, (rho1, rho2) in _iso_pairs().items():
            if rho1.space.parities != rho2.space.parities:
                continue  # no grid: the dimensions already differ
            k = len(intertwiner_space(rho1, rho2))
            inverts.clear()
            if find_even_isomorphism(rho1, rho2).status == "none" and k:
                grids.append((rho1.space.dim + 1) ** k)
                assert len(inverts) == 1 + grids[-1], name
        # the largest is the closing-prelie adjoint's double against its
        # dual, 9^4 points at n = 8
        assert len(grids) == 69 and max(grids) == 9**4

    def test_grid_points_are_tried_in_order(self, monkeypatch):
        # z acts on a 3|0 space with the eigenvalues 0, 1, 2; the probe's
        # candidate is singular, and the grid {0..3}^3 first meets an
        # invertible candidate at its 18th point
        g = LieSuperAlgebra.from_brackets(SuperSpace.make(even=["z"]), {})
        v = SuperSpace.make(even=["u0", "u1", "u2"])
        images = {"u0": {"u1": 2}, "u1": {"u1": 2}, "u2": {"u0": 1, "u1": 1, "u2": 1}}
        rho = Representation.from_images(g, v, {"z": images})
        basis = intertwiner_space(rho, rho)
        rng = random.Random(0x5EBE)
        points = [[rng.randint(1, 8 * 3) for _ in basis]]
        for ts in itertools.product(range(4), repeat=len(basis)):
            points.append(ts)
            if oracles.dense_det(_candidate(basis, ts)):
                break
        assert len(points) == 1 + 18
        inverts = _count_calls(monkeypatch, "superybe.linalg", "_inverse")
        assert find_even_isomorphism(rho, rho).found
        # each candidate is eliminated on ints, cleared by the basis's one D
        D = _basis_denominator(basis)
        assert [rows for rows, in inverts] == [_scaled(D, _candidate(basis, ts)) for ts in points]

    def test_candidates_are_summed_on_the_basis_cleared_once(self, monkeypatch):
        # an intertwiner basis with denominators: the probe's candidate is
        # eliminated as D times the dense candidate, and the isomorphism
        # and its inverse come back divided by D
        g = LieSuperAlgebra.from_brackets(SuperSpace.make(even=["z"]), {})
        v = SuperSpace.make(even=["u0", "u1", "u2"])
        images = {"u0": {"u2": 3}, "u1": {"u1": 2, "u2": 2}, "u2": {"u0": 3}}
        rho = Representation.from_images(g, v, {"z": images})
        basis = intertwiner_space(rho, rho)
        D = _basis_denominator(basis)
        assert D == 4
        rng = random.Random(0x5EBE)
        probe = [rng.randint(1, 8 * 3) for _ in basis]
        inverts = _count_calls(monkeypatch, "superybe.linalg", "_inverse")
        result = find_even_isomorphism(rho, rho)
        assert result.found
        assert [rows for rows, in inverts] == [_scaled(D, _candidate(basis, probe))]
        assert result.iso.matrix == tuple(map(tuple, _candidate(basis, probe)))
        assert result.inverse.compose(result.iso) == GradedLinearMap.identity(v)

    def test_fallback_draws_are_tried_in_order(self, monkeypatch):
        # the over-cap grid of test_over_cap_grid_takes_the_randomized_path:
        # the fallback's draws come after the probe's, from the same generator
        g = LieSuperAlgebra.from_brackets(SuperSpace.make(even=["z"]), {})
        v = SuperSpace.make(even=[f"u{i}" for i in range(6)])
        shift = GradedLinearMap.from_images(
            v, v, EVEN, {f"u{i}": {f"u{i - 1}": 1} for i in range(1, 6)}
        )
        rho1, rho2 = trivial_rep(g, v), Representation(g, v, (shift,))
        basis = intertwiner_space(rho1, rho2)
        rng = random.Random(0x5EBE)
        points = [[rng.randint(1, 8 * 6) for _ in basis]]
        for _ in range(_RANDOM_FALLBACK_TRIES):
            points.append([rng.randrange(0, 1 << 20) for _ in basis])
        inverts = _count_calls(monkeypatch, "superybe.linalg", "_inverse")
        assert find_even_isomorphism(rho1, rho2).status == "inconclusive"
        # each candidate is eliminated on ints, cleared by the basis's one D
        D = _basis_denominator(basis)
        assert [rows for rows, in inverts] == [_scaled(D, _candidate(basis, ts)) for ts in points]


def _candidate(basis, ts):
    """The rows of sum t_a phi_a, the candidate of the point ts."""
    n = len(basis[0].matrix)
    return [
        [sum(t * phi.matrix[r][c] for t, phi in zip(ts, basis)) for c in range(n)]
        for r in range(n)
    ]


def _basis_denominator(basis):
    """D, the lcm of the denominators of every entry of the basis maps."""
    return lcm(*(x.denominator for phi in basis for row in phi.matrix for x in row))


def _scaled(D, rows):
    """The rows times D, as ints."""
    scaled = [[D * x for x in row] for row in rows]
    assert all(x.denominator == 1 for row in scaled for x in row)
    return [[int(x) for x in row] for row in scaled]


# ---------------------------------------------------------------------------
# derived constructions are trusted; these tests keep the guarantee the
# constructors no longer check


@lru_cache(maxsize=None)
def _catalog_starts():
    """Every representation of the catalog fixtures, plus the adjoint and
    coadjoint of every catalog algebra, by name."""
    starts = {}
    for name in fixture_names():
        for part, value in load_fixture(name).parts.items():
            if isinstance(value, Representation):
                starts[f"{name}:{part}"] = value
            elif isinstance(value, LieSuperAlgebra):
                starts[f"{name}:ad {part}"] = adjoint(value)
                starts[f"{name}:coad {part}"] = coadjoint(value)
    return starts


_STEPS = {
    "dual": dual_rep,
    "reverse": parity_reverse_rep,
    "double": self_reversing_double,
    "sum with dual": lambda rho: direct_sum_rep(rho, dual_rep(rho)),
}


def _is_rep(rho):
    return check_representation(rho.algebra, rho.space, rho.action).ok


@settings(max_examples=60, deadline=None)
@given(
    start=st.sampled_from(sorted(_catalog_starts())),
    steps=st.lists(st.sampled_from(sorted(_STEPS)), max_size=2),
)
def test_derived_representations_pass_the_check(start, steps):
    rho = _catalog_starts()[start]
    assert _is_rep(rho)
    for step in steps:
        rho = _STEPS[step](rho)
        assert _is_rep(rho)


@settings(max_examples=20, deadline=None)
@given(start=st.sampled_from(sorted(_catalog_starts())), variant=st.sampled_from(["plain", "dual"]))
def test_semidirect_host_representations_pass_the_check(start, variant):
    """The module reps of the semidirect hosts, and the trusted adjoint and
    reversed adjoint of the host that a hierarchy step builds."""
    rho = _catalog_starts()[start]
    if variant == "plain":
        module = dual_rep(rho)
        h = _plain_semidirect(rho)[0]
    else:
        module = dual_rep(parity_reverse_rep(rho))
        h = _dual_semidirect(rho)[0]
    assert _is_rep(module)
    # the kernel runs on an unseeded copy: h may hold its algebra's report
    assert check_lie_axioms(LieSuperAlgebra._trusted(h.space, h.nonzero)).ok
    ad = adjoint(h)
    assert _is_rep(ad)
    assert _is_rep(parity_reverse_rep(ad))


def _non_jacobi_algebra():
    """A graded, super skew-symmetric algebra that breaks the Jacobi identity."""
    space = SuperSpace.make(even=["x", "y", "z"])
    return LieSuperAlgebra.from_brackets(space, {("x", "y"): {"z": 1}, ("y", "z"): {"y": 1}})


class TestTrustBoundary:
    def test_an_algebra_is_checked_once(self, monkeypatch, rep_checks):
        # one pass of the Jacobi kernel per algebra object, whatever reads
        # it and however often; none for a level or a host of a verified one
        fx = load_fixture("ex4.4")
        g = LieSuperAlgebra(fx.parts["algebra"].space, fx.parts["algebra"].structure)
        passes = _count_calls(monkeypatch, "superybe.liesuper", "_hom_failures")

        def read(h):
            zero = GradedLinearMap.zero(h.space, h.space, EVEN)
            assert is_rota_baxter(zero, h)
            kept = vars(h)["_adjoint"]  # the one adjoint is_rota_baxter reads
            for _ in range(3):
                assert check_lie_axioms(h).ok and is_rota_baxter(zero, h)
                assert adjoint(h) is kept and kept.nonzero is h.nonzero
                coad = coadjoint(h)
            return coad

        read(g)
        levels = [r.algebra for r in hierarchy_trace(g, fx.parts["r1"], "+-+")]
        hierarchy_trace(g, fx.parts["r1"], "-")
        assert len(passes) == 1 and passes[0][1] is g._cleared[1]
        for h in levels:
            coad = read(h)
            hosts = (semidirect_product(h, coad), _plain_semidirect(coad)[0], _dual_semidirect(coad)[0])
            for host in hosts:
                read(host)
        assert len(passes) == 1 and rep_checks == []
        # an equal algebra built apart is another object, checked once
        twin = LieSuperAlgebra(g.space, g.structure)
        read(twin)
        assert len(passes) == 2 and passes[1][1] is twin._cleared[1]
        # a failing algebra is checked once too, and refused on every read
        bad = _non_jacobi_algebra()
        zero = GradedLinearMap.zero(bad.space, bad.space, EVEN)
        for _ in range(3):
            assert not check_lie_axioms(bad).ok
            for call in (adjoint, coadjoint, lambda h: is_rota_baxter(zero, h)):
                with pytest.raises(ValueError, match="not a representation"):
                    call(bad)
            with pytest.raises(HierarchyError, match="super Jacobi"):
                hierarchy_trace(bad, RMatrix.from_terms(bad, {}), "+")
        assert len(passes) == 3 and passes[2][1] is bad._cleared[1]

    def test_coadjoint_checks_once(self, monkeypatch, rep_checks):
        # coadjoint reads the algebra's kept report: one check of the bracket
        # table for a fresh algebra, however often it is called, and no check of
        # the representation
        fx = load_fixture("ex3.2")
        g = LieSuperAlgebra(fx.parts["algebra"].space, fx.parts["algebra"].structure)
        gradings = _count_calls(monkeypatch, "superybe.liesuper", "_grading_failures")
        passes = _count_calls(monkeypatch, "superybe.liesuper", "_hom_failures")
        coads = [coadjoint(g) for _ in range(3)]
        assert len(gradings) == 1 and gradings[0][1] is g.nonzero
        assert len(passes) == 1 and passes[0][1] is g._cleared[1]
        assert rep_checks == []
        assert all(coad.nonzero == coads[0].nonzero for coad in coads)
        assert _is_rep(coads[0])

    def test_a_host_is_seeded_only_by_a_kept_passing_report(self):
        fx = load_fixture("ex3.2")
        space, structure = fx.parts["algebra"].space, fx.parts["algebra"].structure
        bad = _non_jacobi_algebra()
        unchecked = LieSuperAlgebra(space, structure)
        checked = LieSuperAlgebra(space, structure)
        assert not check_lie_axioms(bad).ok and check_lie_axioms(checked).ok
        for g, seeded in ((bad, False), (unchecked, False), (checked, True)):
            h, _, _ = _semidirect(g, g.space, g.nonzero)
            assert ("_report" in vars(h)) == seeded
            if seeded:
                assert check_lie_axioms(h) is check_lie_axioms(checked)
        assert "_report" not in vars(unchecked)

    def test_adjoint_of_a_non_lie_algebra_is_rejected(self):
        space = SuperSpace.make(even=["x", "y", "z"])
        g = LieSuperAlgebra.from_brackets(space, {("x", "y"): {"z": 1}, ("y", "z"): {"y": 1}})
        with pytest.raises(ValueError, match="not a representation"):
            adjoint(g)

    def test_an_ungraded_bracket_is_refused_as_its_first_ad_map(self):
        # ad(x) breaks the grading at (y, z) and (x, y); the witness is the
        # first in row-major order, as the map constructor reports it
        space = SuperSpace.make(even=["x", "z"], odd=["y"])
        brackets = {("x", "y"): {"x": 1}, ("x", "z"): {"y": 1}, ("y", "y"): {"z": 1}}
        g = LieSuperAlgebra.from_brackets(space, brackets)
        message = "inhomogeneous map: entry (x, y) nonzero but parities disagree"
        with pytest.raises(ValueError, match=re.escape(message)):
            GradedLinearMap(space, space, EVEN, g.ad(0).matrix)
        for build in (adjoint, coadjoint):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(g)

    def test_derived_constructions_make_no_check(self, rep_checks):
        rho = load_fixture("ex2.3").parts["rho"]
        rep_checks.clear()
        self_reversing_double(dual_rep(rho))
        trivial_rep(rho.algebra, rho.space)
        assert rep_checks == []


class TestHashing:
    def test_equal_representations_built_apart_hash_equal(self):
        for (name, g1, rho1), (_, g2, rho2) in zip(equivalence_cases(), equivalence_cases()):
            assert rho1 is not rho2 and g1 is not g2, name
            assert g1 == g2 and hash(g1) == hash(g2)
            assert rho1 == rho2 and hash(rho1) == hash(rho2)
            derived = (parity_reverse_rep, dual_rep, self_reversing_double)
            for make in derived:
                assert hash(make(rho1)) == hash(make(rho2))

    def test_repeated_host_lookup_hashes_no_map(self, monkeypatch):
        rho = coadjoint(load_fixture("ex3.2").parts["algebra"])
        _plain_semidirect(rho)
        _dual_semidirect(rho)
        hashed = []
        original = GradedLinearMap.__hash__

        def counting(self):
            hashed.append(self)
            return original(self)

        monkeypatch.setattr(GradedLinearMap, "__hash__", counting)
        _plain_semidirect(rho)
        _dual_semidirect(rho)
        assert hashed == []


# ---------------------------------------------------------------------------
# the intertwiner equations against their dense construction


def dense_intertwiner_system(rho1, rho2):
    """The unknowns and nonzero equation rows of phi rho1(x) = rho2(x) phi,
    built from the dense action matrices over every (i, l)."""
    V1, V2 = rho1.space, rho2.space
    positions = [
        (k, i)
        for k in range(V2.dim)
        for i in range(V1.dim)
        if V2.parities[k] == V1.parities[i]
    ]
    pos_index = {p: t for t, p in enumerate(positions)}
    rows = []
    for a in range(rho1.algebra.space.dim):
        m1 = rho1.action[a].matrix
        m2 = rho2.action[a].matrix
        for k in range(V2.dim):
            for j in range(V1.dim):
                row = [Fraction(0)] * len(positions)
                for i in range(V1.dim):
                    if m1[i][j] != 0 and (k, i) in pos_index:
                        row[pos_index[(k, i)]] += m1[i][j]
                for l in range(V2.dim):
                    if m2[k][l] != 0 and (l, j) in pos_index:
                        row[pos_index[(l, j)]] -= m2[k][l]
                if any(x != 0 for x in row):
                    rows.append(row)
    return positions, rows


def _intertwiner_pairs():
    """Each catalog start against itself, its reverse and its dual, and the
    self-reversing double of each criterion-4 representation against its
    reverse."""
    pairs = {}
    for name, rho in _catalog_starts().items():
        pairs[name + " / itself"] = (rho, rho)
        pairs[name + " / reverse"] = (rho, parity_reverse_rep(rho))
        pairs[name + " / dual"] = (rho, dual_rep(rho))
    for name, _, rho in equivalence_cases():
        double = self_reversing_double(rho)
        pairs[name + " double / reverse"] = (double, parity_reverse_rep(double))
    return pairs


def test_intertwiner_system_matches_the_dense_construction():
    """The same unknowns and rows, in the same order, each row the dense
    row times D, the lcm of the denominators of both actions' entries."""
    pairs = _intertwiner_pairs()
    assert sum(name.endswith("double / reverse") for name in pairs) == 5
    # a basis vector rescaled by -3/7 puts denominators into the equations
    for name in list(pairs)[:12]:
        rho1, rho2 = pairs[name]
        pairs[name + " rescaled"] = (rho1, _rescaled(rho2, 0, Fraction(-3, 7)))
    scales = set()
    for name, (rho1, rho2) in pairs.items():
        positions, rows = dense_intertwiner_system(rho1, rho2)
        D = lcm(*(x.denominator for rho in (rho1, rho2) for m in rho.action for x in sum(m.matrix, ())))
        scales.add(D)
        got_positions, got_rows = _intertwiner_system(rho1, rho2)
        assert got_positions == positions, name
        assert [_densified(row, len(positions)) for row in got_rows] == [
            [D * x for x in row] for row in rows
        ], name
        assert all(type(x) is int and x for row in got_rows for _, x in row), name
        basis = intertwiner_space(rho1, rho2)
        dense = oracles.dense_nullspace(rows, ncols=len(positions))
        assert len(basis) == len(dense), name
        for phi, v in zip(basis, dense):
            grid = [[Fraction(0)] * rho1.space.dim for _ in range(rho2.space.dim)]
            for (k, i), x in zip(positions, v):
                grid[k][i] = x
            assert phi.matrix == tuple(map(tuple, grid)), name
    # the rescaled copies have denominators to clear
    assert max(scales) > 1


def _densified(pairs, n):
    """The dense row of n entries with the given nonzero (t, x) pairs,
    each column at most once."""
    row = [0] * n
    for t, x in pairs:
        assert row[t] == 0
        row[t] = x
    return row


# the self-reversing double of each criterion-4 representation against its
# reverse: (components of the system's column graph, those whose rows each
# hold one entry)
_DOUBLE_SPLITS = {
    "ex3.2": (6, 4),
    "ex2.3": (24, 16),
    "ex3.20": (4, 0),
    "ex3.17+": (22, 16),
    "ex3.17-": (22, 16),
}


def _row_components(rows):
    """The nonzero rows grouped by the connected components of the columns
    they touch, two columns joined when a row holds both, by depth-first
    search; each row as its ascending list of nonzero columns."""
    supports = [sorted(c for c, x in row if x) for row in rows]
    rows_at = {}
    for r, support in enumerate(supports):
        for c in support:
            rows_at.setdefault(c, []).append(r)
    seen, components = set(), []
    for start in rows_at:
        if start in seen:
            continue
        seen.add(start)
        stack, component = [start], set()
        while stack:
            for r in rows_at[stack.pop()]:
                component.add(r)
                for c in supports[r]:
                    if c not in seen:
                        seen.add(c)
                        stack.append(c)
        components.append([supports[r] for r in sorted(component)])
    return components


def test_self_reversing_systems_are_eliminated_one_component_at_a_time(monkeypatch):
    eliminations = _count_calls(monkeypatch, "superybe.linalg", "_eliminate")
    for name, _, rho in equivalence_cases():
        double = self_reversing_double(rho)
        reverse = parity_reverse_rep(double)
        _, rows = _intertwiner_system(double, reverse)
        components = _row_components(rows)
        single = [comp for comp in components if all(len(support) == 1 for support in comp)]
        assert (len(components), len(single)) == _DOUBLE_SPLITS[name], name
        # one elimination per other component, on its rows over its columns
        shapes = sorted(
            (len(comp), len({c for support in comp for c in support}))
            for comp in components
            if comp not in single
        )
        eliminations.clear()
        intertwiner_space(double, reverse)
        assert sorted((len(m), len(m[0])) for (m,) in eliminations) == shapes, name


# ---------------------------------------------------------------------------
# the isomorphism search against the lexicographic grid oracle

_ISO_STEPS = {
    "itself": lambda rho: rho,
    "dual": dual_rep,
    "reverse": parity_reverse_rep,
    "double": self_reversing_double,
}


@lru_cache(maxsize=None)
def _iso_pairs():
    """Each catalog start, its dual, reverse and double, against itself,
    its dual and its reverse."""
    pairs = {}
    for name, rho in _catalog_starts().items():
        for step in _ISO_STEPS:
            rho1 = _ISO_STEPS[step](rho)
            for target in ("itself", "dual", "reverse"):
                pairs[f"{name} {step} / {target}"] = (rho1, _ISO_STEPS[target](rho1))
    return pairs


def _rescaled(rho, i, c):
    """rho in the basis whose i-th vector is scaled by c: D rho(x) D^-1."""
    d = [Fraction(1)] * rho.space.dim
    d[i] = c
    action = tuple(
        GradedLinearMap._from_entries(
            m.domain,
            m.codomain,
            m.parity,
            (((k, j), d[k] * x / d[j]) for (k, j), x in m._entries()),
        )
        for m in rho.action
    )
    return Representation(rho.algebra, rho.space, action)


ORACLE_POINTS = 1000  # a "none" on a larger grid is left to the full-scan test


@settings(max_examples=80, deadline=None)
@given(
    pair=st.sampled_from(sorted(_iso_pairs())),
    scales=st.tuples(*[st.sampled_from([None, Fraction(1, 2), Fraction(-3, 7)])] * 2),
    data=st.data(),
)
def test_isomorphism_search_matches_the_grid_oracle(pair, scales, data):
    rho1, rho2 = _iso_pairs()[pair]
    rho1, rho2 = (
        _rescaled(rho, data.draw(st.integers(0, rho.space.dim - 1)), c)
        if c is not None and rho.space.dim
        else rho
        for rho, c in zip((rho1, rho2), scales)
    )
    result = find_even_isomorphism(rho1, rho2)
    if result.found:
        assert is_intertwiner(result.iso, rho1, rho2)
        assert result.inverse.compose(result.iso) == GradedLinearMap.identity(rho1.space)
        assert result.iso.compose(result.inverse) == GradedLinearMap.identity(rho2.space)
    V1, V2 = rho1.space, rho2.space
    if (V1.even_dim, V1.odd_dim) != (V2.even_dim, V2.odd_dim):
        assert result.status == "none"
        return
    n = V1.dim
    basis = oracles.dense_intertwiner_basis(rho1, rho2)
    k = len(basis)
    assert k == len(intertwiner_space(rho1, rho2))
    if (n + 1) ** k * n**3 > ISO_GRID_COST_CAP:
        assert result.status in ("found", "inconclusive")
        return
    for count, (_, d) in enumerate(oracles.lexicographic_grid_dets(basis, n), 1):
        if d != 0:
            assert result.status == "found"
            return
        if count == ORACLE_POINTS:
            return
    assert result.status == "none"


def _spied_builds(monkeypatch):
    """The list of `GradedLinearMap._trusted` builds made while the test
    runs; every derived map, `_from_entries` included, is built there."""
    built = []
    original = GradedLinearMap._trusted

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(GradedLinearMap, "_trusted", staticmethod(counting))
    return built


def test_the_search_builds_no_map_before_its_hit(monkeypatch):
    """The search runs on ints from the equations to the probe: a hit builds
    the isomorphism and its inverse, and a miss builds nothing."""
    cases = []
    for name, _, rho in equivalence_cases():
        double = self_reversing_double(rho)
        cases.append((name, double, parity_reverse_rep(double), "found", 2))
    ad = adjoint(load_fixture("ex3.2").parts["algebra"])
    cases.append(("ex3.2 adjoint / dual", ad, dual_rep(ad), "none", 0))
    # the over-cap grid of test_over_cap_grid_takes_the_randomized_path
    g = LieSuperAlgebra.from_brackets(SuperSpace.make(even=["z"]), {})
    v = SuperSpace.make(even=[f"u{i}" for i in range(6)])
    shift = GradedLinearMap.from_images(
        v, v, EVEN, {f"u{i}": {f"u{i - 1}": 1} for i in range(1, 6)}
    )
    cases.append(("over cap", trivial_rep(g, v), Representation(g, v, (shift,)), "inconclusive", 0))
    built = _spied_builds(monkeypatch)
    for name, rho1, rho2, status, builds in cases:
        built.clear()
        result = find_even_isomorphism(rho1, rho2)
        assert (result.status, len(built)) == (status, builds), name
        if result.found:
            assert [args[:3] for args in built] == [
                (rho1.space, rho2.space, EVEN),
                (rho2.space, rho1.space, EVEN),
            ], name


# ---------------------------------------------------------------------------
# is_intertwiner on the tables against the definition by composition


def _composed_verdict(phi, rho1, rho2):
    """phi rho1(e_a) = rho2(e_a) phi for every a, by composing the maps of
    the action views."""
    if phi.domain != rho1.space or phi.codomain != rho2.space:
        return False
    return all(
        phi.compose(m1) == m2.compose(phi) for m1, m2 in zip(rho1.action, rho2.action)
    )


_FOREIGN = SuperSpace.make(even=["w0"], odd=["w1"])


def _fresh(rho):
    """An equal representation with no action view built yet."""
    return Representation._trusted(rho.algebra, rho.space, rho.nonzero)


def _perturbed(phi):
    """phi with 1 added to its first nonzero entry, same parity."""
    first = next(phi._entries())[0]
    entries = [(rc, y + 1 if rc == first else y) for rc, y in phi._entries()]
    return GradedLinearMap._from_entries(phi.domain, phi.codomain, phi.parity, entries)


def _odd_map(domain, codomain):
    """The odd map with every entry allowed by the parities equal to 1."""
    P, Q = domain.parities, codomain.parities
    entries = [((k, i), 1) for k in range(codomain.dim) for i in range(domain.dim) if P[i] != Q[k]]
    return GradedLinearMap._from_entries(domain, codomain, ODD, entries)


def test_is_intertwiner_reads_the_tables():
    """The table verdict equals the composed one on each found isomorphism,
    the same with one entry perturbed, its inverse, the zero and an all-ones
    odd map, and maps on the wrong spaces; no action view is built."""
    verdicts = {True: 0, False: 0}
    for name, (rho1, rho2) in _iso_pairs().items():
        result = find_even_isomorphism(rho1, rho2)
        V1, V2 = rho1.space, rho2.space
        maps = [GradedLinearMap.zero(V1, V2, ODD), _odd_map(V1, V2)]
        # a map into a foreign space, and the identity of V2, on the pair's
        # spaces only when V1 = V2
        maps += [GradedLinearMap.zero(V1, _FOREIGN, EVEN), GradedLinearMap.identity(V2)]
        if result.found and rho1.space.dim:
            maps += [result.iso, _perturbed(result.iso), result.inverse]
        for phi in maps:
            fresh1, fresh2 = _fresh(rho1), _fresh(rho2)
            verdict = is_intertwiner(phi, fresh1, fresh2)
            assert verdict == _composed_verdict(phi, rho1, rho2), name
            assert "action" not in vars(fresh1) and "action" not in vars(fresh2), name
            verdicts[verdict] += 1
    # both verdicts occur often
    assert min(verdicts.values()) > 100


def _two_abelian_reps():
    """The trivial representation of an abelian dim-1 algebra on a 1|0 space,
    and a representation of an abelian dim-2 algebra on the same space."""
    V = SuperSpace.make(even=["v"])
    g1 = LieSuperAlgebra.from_brackets(SuperSpace.make(even=["z"]), {})
    g2 = LieSuperAlgebra.from_brackets(SuperSpace.make(even=["x", "y"]), {})
    return trivial_rep(g1, V), Representation.from_images(g2, V, {"x": {"v": {"v": 1}}})


@pytest.mark.parametrize("order", [1, -1])
def test_is_intertwiner_refuses_representations_of_different_algebras(order):
    rho1, rho2 = _two_abelian_reps()[::order]
    identity = GradedLinearMap.identity(rho1.space)
    with pytest.raises(ValueError, match="^intertwiners require a common algebra$"):
        is_intertwiner(identity, rho1, rho2)


@pytest.mark.parametrize("order", [1, -1])
@pytest.mark.parametrize("same_space", [True, False])
def test_the_isomorphism_search_refuses_representations_of_different_algebras(order, same_space):
    # the refusal comes before the dimension test: on a 1|0 and a 2|0 space
    # the search once answered "none" where on one 1|0 space it refused
    g1 = LieSuperAlgebra.from_brackets(SuperSpace.make(even=["z"]), {})
    g2 = LieSuperAlgebra.from_brackets(SuperSpace.make(even=["x", "y"]), {})
    V = SuperSpace.make(even=["v"])
    W = V if same_space else SuperSpace.make(even=["w1", "w2"])
    rho1, rho2 = (trivial_rep(g1, V), trivial_rep(g2, W))[::order]
    for search in (find_even_isomorphism, intertwiner_space):
        with pytest.raises(ValueError, match="^intertwiners require a common algebra$"):
            search(rho1, rho2)


def _dense_intertwiners(rho1, rho2):
    """The dense oracle's intertwiner basis as maps."""
    V1, V2 = rho1.space, rho2.space
    return [
        GradedLinearMap(V1, V2, EVEN, tuple(tuple(row) for row in m))
        for m in oracles.dense_intertwiner_basis(rho1, rho2)
    ]


def test_the_intertwiner_system_reads_each_cached_table_once_per_object(monkeypatch):
    # each representation's action is cleared once, by its own scale: the
    # checked constructor clears g's table and the one action map, and
    # writes the representation's view from the map's; the two scales
    # differ here, so the system runs at their lcm, and the intertwiner
    # basis and the verdicts are those of the Fraction oracle
    tables = _count_calls(monkeypatch, "superybe.linalg", "_cleared_table")
    g = LieSuperAlgebra.from_brackets(SuperSpace.make(even=["z"]), {})
    V = SuperSpace.make(even=["u0", "u1"])
    rho1 = Representation.from_images(g, V, {"z": {"u0": {"u1": Fraction(1, 2)}}})
    rho2 = Representation.from_images(g, V, {"z": {"u0": {"u1": Fraction(1, 3)}}})
    assert (rho1._cleared[0], rho2._cleared[0]) == (2, 3)
    for _ in range(3):
        for a, b in ((rho1, rho2), (rho2, rho1), (rho1, rho1)):
            basis = intertwiner_space(a, b)
            assert basis == _dense_intertwiners(a, b)
            assert find_even_isomorphism(a, b).found
    assert tables == [(g.nonzero, 2), (rho1.nonzero[0], 1), (rho2.nonzero[0], 1)]


def test_transport_refuses_an_odd_isomorphism():
    # on ex2.3's reverse, an odd invertible phi commutes with the actions
    # without signs; the odd candidate it once gave failed the identity
    # that the even T satisfies
    srho = parity_reverse_rep(load_fixture("ex2.3").parts["rho"])
    images = {"sw1": {"sv2": -1}, "sw2": {"sv1": -1}, "sv1": {"sw2": -1}, "sv2": {"sw1": -1}}
    phi = GradedLinearMap.from_images(srho.space, srho.space, ODD, images)
    t = GradedLinearMap.from_images(
        srho.space,
        srho.algebra.space,
        EVEN,
        {"sw1": {"e1": -1}, "sw2": {"e1": -1}, "sv1": {"f1": 1, "f2": -1}, "sv2": {"f1": -1, "f2": 1}},
    )
    assert is_intertwiner(phi, srho, srho) and phi.is_invertible()
    assert oop_holds(t, srho)
    with pytest.raises(ValueError, match="^phi is not even$"):
        transport_oop(t, srho, phi, srho)


def test_is_self_reversing_clears_only_the_double_once(monkeypatch):
    # the reverse's integer view is written from the double's, so five
    # searches on a fresh double clear its table once and nothing else
    cleared = _count_calls(monkeypatch, "superybe.linalg", "_cleared_table")
    coad, rho = load_fixture("ex3.2").parts["coadjoint"], load_fixture("ex2.3").parts["rho"]
    # the last: a basis vector scaled by -3/7 puts denominators in the table
    for start in (coad, rho, _rescaled(rho, 0, Fraction(-3, 7))):
        double = self_reversing_double(start)
        cleared.clear()
        for _ in range(5):
            assert is_self_reversing(double).found
        assert cleared == [(double.nonzero, 2)]
    assert double._cleared[0] == 21


def test_a_coadjoint_is_not_cleared_again(monkeypatch):
    # the dual's view is rho's, signed and moved in the loop that moves its
    # table, and the adjoint's is g's: on a fresh ex3.2 algebra, checking the
    # zero operator on the coadjoint clears g's table, by the Jacobi check,
    # and the zero map's, and no table of the adjoint or the coadjoint
    ex32 = load_fixture("ex3.2").parts["algebra"]
    cleared = _count_calls(monkeypatch, "superybe.linalg", "_cleared_table")
    g = LieSuperAlgebra(ex32.space, ex32.structure)
    coad = coadjoint(g)
    zero = GradedLinearMap.zero(coad.space, g.space, EVEN)
    assert oop_holds(zero, coad)
    assert cleared == [(g.nonzero, 2), (zero.nonzero, 1)]
    assert cleared[0][0] is g.nonzero and cleared[1][0] is zero.nonzero


def test_a_checked_representation_rescales_its_action_views_once(monkeypatch):
    # the check brings the action maps' views to one scale (depth 1) and
    # then to g's (depth 2); the representation keeps the first as its view
    parts = load_fixture("ex2.3").parts
    g, rho = parts["algebra"], parts["rho"]
    action = rho.action
    for m in action:
        m._cleared
    g._cleared
    rescaled = _count_calls(monkeypatch, "superybe.linalg", "_rescaled")
    built = Representation(g, rho.space, action)
    assert [depth for depth, *_ in rescaled] == [1, 2]
    assert built._cleared == linalg._cleared_table(built.nonzero, 2)
    assert rescaled[1][2] is built._cleared


def test_transport_refuses_an_isomorphism_across_algebras():
    # transport_oop checks its isomorphism with is_intertwiner, the one
    # public path where the two representations come from the caller
    rho1, rho2 = _two_abelian_reps()
    t = GradedLinearMap.zero(rho2.space, rho2.algebra.space, EVEN)
    identity = GradedLinearMap.identity(rho1.space)
    with pytest.raises(ValueError, match="^intertwiners require a common algebra$"):
        transport_oop(t, rho2, identity, rho1)
