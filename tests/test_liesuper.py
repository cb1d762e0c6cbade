import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superybe import (
    EVEN,
    GradedLinearMap,
    LieSuperAlgebra,
    Representation,
    SuperSpace,
    adjoint,
    check_lie_axioms,
    classify_form,
    coadjoint,
    dual_rep,
    fixture_names,
    form_to_dual_map,
    grid_search_oops,
    hierarchy_walk,
    is_rota_baxter,
    load_fixture,
    oop_holds,
    rota_baxter_transport,
    semidirect_product,
    trivial_rep,
)
from superybe.liesuper import BilinearForm, _semidirect
from superybe.reps import _reversed_table

from conftest import equivalence_cases, gl11_with_supertrace, random_homogeneous_map
from oracles import dense_form_flags, dense_semidirect


class TestAxiomChecks:
    def test_ef_algebra_passes(self):
        assert check_lie_axioms(load_fixture("ex3.2").parts["algebra"]).ok

    def test_sl11_passes(self):
        assert check_lie_axioms(load_fixture("ex2.3").parts["algebra"]).ok

    def test_abelian_passes(self):
        space = SuperSpace.make(even=["a", "b"], odd=["c"])
        assert check_lie_axioms(LieSuperAlgebra.from_brackets(space, {})).ok

    def test_jacobi_failure_is_reported_with_triple(self):
        space = SuperSpace.make(even=["a", "b"], odd=["c"])
        g = LieSuperAlgebra.from_brackets(
            space, {("a", "b"): {"a": 1}, ("a", "c"): {"c": 1}}
        )
        report = check_lie_axioms(g)
        assert not report.ok
        failing = report.failures()[0]
        assert failing.name == "super Jacobi"
        assert "triple" in failing.detail

    def test_parity_inconsistency_detected(self):
        space = SuperSpace.make(even=["e"], odd=["f"])
        zero = (Fraction(0), Fraction(0))
        ef = (Fraction(0), Fraction(1))
        # [e, e] = f breaks parity consistency
        g = LieSuperAlgebra(space, ((ef, zero), (zero, zero)))
        report = check_lie_axioms(g)
        assert not report.items[0].ok
        assert report.items[0].name == "parity consistency"

    def test_from_brackets_rejects_wrong_order(self):
        space = SuperSpace.make(even=["e"], odd=["f"])
        with pytest.raises(ValueError):
            LieSuperAlgebra.from_brackets(space, {("f", "e"): {"f": 1}})

    def test_from_brackets_rejects_even_diagonal(self):
        space = SuperSpace.make(even=["e"], odd=["f"])
        with pytest.raises(ValueError):
            LieSuperAlgebra.from_brackets(space, {("e", "e"): {"e": 1}})

    def test_sign_rule_fill(self):
        g = load_fixture("ex3.2").parts["algebra"]
        e = g.space.vector({"e": 1})
        f = g.space.vector({"f": 1})
        assert g.bracket(f, e) == g.space.vector({"f": -1})
        assert g.bracket(f, f) == g.space.zero_vector()


class TestClassifyForm:
    def test_zero_form_flags(self):
        g = load_fixture("ex3.2").parts["algebra"]
        zero = BilinearForm.from_terms(g.space, {}, EVEN)
        flags = classify_form(zero, g)
        assert flags.supersymmetric and flags.skew_supersymmetric
        assert flags.invariant and flags.two_cocycle
        assert not flags.non_degenerate

    def test_sl11_even_form_not_invariant(self):
        g = load_fixture("ex2.3").parts["algebra"]
        beta = BilinearForm.from_terms(g.space, {("e1", "e1"): 1}, EVEN)
        flags = classify_form(beta, g)
        assert flags.supersymmetric
        assert not flags.invariant

    def test_flags_stable_under_block_permutation(self):
        g, beta = gl11_with_supertrace()
        flags = classify_form(beta, g)
        # swap the two odd basis elements everywhere
        space = SuperSpace.make(even=["a", "b"], odd=["y", "x"])
        perm = [0, 1, 3, 2]
        n = 4
        structure = tuple(
            tuple(
                tuple(g.structure[perm[i]][perm[j]][perm[k]] for k in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
        gram = tuple(
            tuple(beta.gram[perm[i]][perm[j]] for j in range(n)) for i in range(n)
        )
        g2 = LieSuperAlgebra(space, structure)
        assert check_lie_axioms(g2).ok
        beta2 = BilinearForm(space, gram, EVEN)
        assert classify_form(beta2, g2) == flags

    def test_supertrace_form_flags(self):
        g, beta = gl11_with_supertrace()
        flags = classify_form(beta, g)
        assert flags.supersymmetric and flags.invariant and flags.non_degenerate
        assert not flags.skew_supersymmetric

    @staticmethod
    def _oracle_cases():
        """(algebra, form) pairs with fractional Gram entries and, on the
        rescaled copies, fractional structure constants."""
        from superybe import beta_form

        rng = random.Random(20260)
        entries = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
        gl11, supertrace = gl11_with_supertrace()
        ex44 = load_fixture("ex4.4").parts
        r1_beta = beta_form(ex44["r1"])
        # a 3|0 Lie algebra and the abelian 0|2 algebra: one parity block is empty
        even_only = LieSuperAlgebra.from_brackets(
            SuperSpace.make(even=["a", "b", "c"]), {("a", "b"): {"b": 1}, ("a", "c"): {"c": -2}}
        )
        odd_only = LieSuperAlgebra.from_brackets(SuperSpace.make(odd=["x", "y"]), {})
        algebras = [g for _, g, _ in equivalence_cases()] + [gl11, ex44["algebra"]]
        algebras += [even_only, odd_only]
        cases = [(gl11, supertrace), (ex44["algebra"], r1_beta)]
        for g in algebras:
            P = g.space.parities
            n = g.dim
            for parity in (0, 1):
                raw = [
                    [rng.choice(entries) if (P[i] + P[j]) % 2 == parity else Fraction(0) for j in range(n)]
                    for i in range(n)
                ]
                for s in (0, 1, -1):  # as drawn, supersymmetrised, skew-supersymmetrised
                    gram = [
                        [raw[i][j] + (s * (-1 if P[i] & P[j] else 1) * raw[j][i] if s else 0) for j in range(n)]
                        for i in range(n)
                    ]
                    cases.append((g, BilinearForm(g.space, tuple(map(tuple, gram)), parity)))
        rescaled = []
        for g, beta in cases:
            scaled_g = LieSuperAlgebra(
                g.space, [[[Fraction(-2, 7) * c for c in cell] for cell in row] for row in g.structure]
            )
            gram = tuple(tuple(Fraction(5, 3) * x for x in row) for row in beta.gram)
            rescaled.append((scaled_g, BilinearForm(g.space, gram, beta.parity)))
        return cases + rescaled

    def test_flags_match_the_dense_oracle(self):
        seen = set()
        for g, beta in self._oracle_cases():
            flags = classify_form(beta, g)
            want = dense_form_flags(beta.gram, g.structure, g.space.parities)
            assert tuple(flags.as_dict().values()) == want
            seen.update(enumerate(want))
        # every flag is seen both true and false
        assert seen == {(f, v) for f in range(5) for v in (False, True)}


class TestSemidirect:
    def test_adjoint_double_matches_printed_table(self):
        fx = load_fixture("ex3.17")
        g = fx.parts["algebra"]
        assert semidirect_product(g, adjoint(g)) == fx.parts["gplus"]

    def test_zero_action_gives_central_module(self):
        g = load_fixture("ex3.2").parts["algebra"]
        v = SuperSpace.make(even=["u"], odd=["m"])
        h = semidirect_product(g, trivial_rep(g, v))
        # h may hold g's report: the kernel runs on an unseeded copy
        assert check_lie_axioms(LieSuperAlgebra._trusted(h.space, h.nonzero)).ok
        u = h.space.vector({"u": 1})
        for i in range(h.space.dim):
            assert h.bracket(h.space.basis_vector(i), u) == h.space.zero_vector()

    def test_output_passes_axioms_for_fixture_reps(self):
        for name in ("ex3.2", "ex2.3", "ex3.20"):
            fx = load_fixture(name)
            g = fx.parts["algebra"]
            rho = fx.parts.get("rho") or fx.parts["coadjoint"]
            h = semidirect_product(g, rho)
            assert check_lie_axioms(LieSuperAlgebra._trusted(h.space, h.nonzero)).ok


def _dense_reversed(rho):
    """The dense action matrices of rho^s on sV, rho^s(e_a)(sv) =
    (-1)^{|e_a|} s(rho(e_a)v), with sV's basis the flipped parities of V
    sorted stably; and sV's parities."""
    flipped = [1 - p for p in rho.space.parities]
    order = sorted(range(len(flipped)), key=flipped.__getitem__)
    where = {old: new for new, old in enumerate(order)}
    dense = []
    for pa, m in zip(rho.algebra.space.parities, rho.action):
        out = [[Fraction(0)] * len(order) for _ in order]
        for k, row in enumerate(m.matrix):
            for i, x in enumerate(row):
                out[where[k]][where[i]] = -x if pa else x
        dense.append(out)
    return dense, tuple(flipped[o] for o in order)


def _shear(space):
    """The even invertible map b_j = e_j + e_i, for the first two basis
    vectors i < j of one parity, or None when no parity has two."""
    for p in (0, 1):
        block = [k for k, q in enumerate(space.parities) if q == p][:2]
        if len(block) == 2:
            n = space.dim
            grid = [[Fraction(int(r == c or (r, c) == tuple(block))) for c in range(n)] for r in range(n)]
            return GradedLinearMap(space, space, EVEN, grid)
    return None


def _sheared_algebra(g, B):
    """g written in the basis b_a = B e_a: c'_ab = B^-1 [B e_a, B e_b]."""
    columns = [B.column(a) for a in range(g.dim)]
    back = B.inverse()
    return LieSuperAlgebra(
        g.space, tuple(tuple(back.apply(g.bracket(x, y)) for y in columns) for x in columns)
    )


@lru_cache(maxsize=None)
def _semidirect_cases():
    """name -> (g, V, action table, dense action matrices) for `_semidirect`:
    every catalog representation, the adjoint and coadjoint of every catalog
    algebra and of the ex4.4 hierarchy hosts up to dim 8 (so products up to
    dim 16); these again in sheared bases, whose cells hold two or more
    terms; all of them over algebras rescaled by -2/7, with the actions
    rescaled to match; and each with its dual and, through
    `reps._reversed_table`, its parity reverse."""
    reps = {}
    for name in fixture_names():
        for part, value in load_fixture(name).parts.items():
            if isinstance(value, Representation):
                reps[f"{name}:{part}"] = value
            elif isinstance(value, LieSuperAlgebra):
                reps[f"{name}:ad {part}"] = adjoint(value)
                reps[f"{name}:coad {part}"] = coadjoint(value)
    ex44 = load_fixture("ex4.4").parts
    for word in ("+", "-", "++", "+-", "-+", "--"):
        host = hierarchy_walk(ex44["algebra"], ex44["r1"], word).algebra
        reps[f"ex4.4 r1{word}:ad"] = adjoint(host)
    # cells of two or more terms: the sheared bases mix two basis vectors
    for name, rho in list(reps.items()):
        B = _shear(rho.space)
        if B is not None:
            action = tuple(B.compose(m).compose(B.inverse()) for m in rho.action)
            reps[name + " sheared"] = Representation(rho.algebra, rho.space, action)
        B = _shear(rho.algebra.space)
        if B is not None and ":ad" in name:
            reps[name + " sheared algebra"] = adjoint(_sheared_algebra(rho.algebra, B))
    c = Fraction(-2, 7)
    for name, rho in list(reps.items()):
        g = rho.algebra
        scaled = [[[c * x for x in cell] for cell in row] for row in g.structure]
        # c rho is a representation of c g
        action = tuple(m.scale(c) for m in rho.action)
        reps[name + " rescaled"] = Representation(LieSuperAlgebra(g.space, scaled), rho.space, action)
    for name, rho in list(reps.items()):
        reps[name + " dual"] = dual_rep(rho)
    cases = {}
    for name, rho in reps.items():
        g = rho.algebra
        cases[name] = (g, rho.space, rho.nonzero, [m.matrix for m in rho.action])
        sV, perm = rho.space.suspended_with_permutation()
        dense, parities = _dense_reversed(rho)
        assert sV.parities == parities
        table = _reversed_table(g.space.parities, rho.nonzero, perm)
        cases[name + " reversed"] = (g, sV, table, dense)
    return cases


def test_semidirect_cases_reach_dim_16_and_non_monotone_reversals():
    cases = _semidirect_cases()
    assert max(g.dim + V.dim for g, V, _, _ in cases.values()) == 16
    perms = [V.suspended_with_permutation()[1] for _, V, _, _ in cases.values()]
    assert any(list(perm) != sorted(perm) for perm in perms)
    algebra_cells = [cell for g, _, _, _ in cases.values() for row in g.nonzero for cell in row]
    action_cells = [cell for _, _, table, _ in cases.values() for row in table for cell in row]
    assert any(x.denominator > 1 for cell in algebra_cells for _, x in cell)
    assert any(len(cell) > 1 for cell in algebra_cells)
    assert any(len(cell) > 1 for cell in action_cells)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_semidirect_cases())))
def test_semidirect_table_matches_the_dense_formula(name):
    g, V, table, dense = _semidirect_cases()[name]
    h, alg_pos, mod_pos = _semidirect(g, V, table)
    parities, structure, want_alg, want_mod = dense_semidirect(
        g.structure, g.space.parities, dense, V.parities
    )
    assert h.space.parities == parities
    assert (alg_pos, mod_pos) == (want_alg, want_mod)
    assert h.structure == structure
    assert h == LieSuperAlgebra(h.space, structure)
    for row in h.nonzero:
        for cell in row:
            assert all(x != 0 for _, x in cell)
            assert all(a < b for (a, _), (b, _) in zip(cell, cell[1:]))


class TestFormTransport:
    def test_one_dimensional_even_abelian(self):
        space = SuperSpace.make(even=["e"])
        g = LieSuperAlgebra.from_brackets(space, {})
        beta = BilinearForm.from_terms(space, {("e", "e"): 3}, EVEN)
        phi = form_to_dual_map(beta, g)
        assert phi.image_of("e") == space.dual().vector({"e*": 3})

    def test_degenerate_form_rejected(self):
        space = SuperSpace.make(even=["e"])
        g = LieSuperAlgebra.from_brackets(space, {})
        beta = BilinearForm.from_terms(space, {}, EVEN)
        with pytest.raises(ValueError):
            form_to_dual_map(beta, g)

    @pytest.mark.parametrize(
        "terms, parity, problems",
        [
            ({("e1", "e1"): 1, ("f1", "f2"): 1, ("f2", "f1"): -1}, EVEN, "not invariant"),
            ({}, EVEN, "degenerate"),
            (
                {("e1", "e1"): 1, ("f1", "f2"): 1, ("f2", "f1"): 1},
                EVEN,
                "not supersymmetric, not invariant",
            ),
            ({("e1", "f1"): 1, ("f1", "e1"): 1}, 1, "not even, not invariant, degenerate"),
        ],
    )
    def test_refusals_name_every_failed_condition(self, terms, parity, problems):
        # on ex2.3's sl(1|1), where [f1, f2] = e1
        g = load_fixture("ex2.3").parts["algebra"]
        beta = BilinearForm.from_terms(g.space, terms, parity)
        with pytest.raises(ValueError) as refused:
            form_to_dual_map(beta, g)
        assert str(refused.value) == "form unsuitable for transport: " + problems

    def test_oop_iff_rota_baxter_random(self, rng):
        g, beta = gl11_with_supertrace()
        phi = form_to_dual_map(beta, g)
        coad = coadjoint(g)
        for _ in range(100):
            parity = rng.randint(0, 1)
            t = random_homogeneous_map(rng, g.space.dual(), g.space, parity, -1, 1)
            assert oop_holds(t, coad) == is_rota_baxter(rota_baxter_transport(t, phi), g)

    def test_oop_iff_rota_baxter_true_cases(self):
        g, beta = gl11_with_supertrace()
        phi = form_to_dual_map(beta, g)
        coad = coadjoint(g)
        found = grid_search_oops(g, coad, EVEN, [-1, 0, 1])
        assert found, "expected at least the zero operator"
        hits = 0
        for t in found[:50]:
            assert is_rota_baxter(rota_baxter_transport(t, phi), g)
            hits += 1
        assert hits > 1
