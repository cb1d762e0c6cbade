import itertools
import math
import random
import time
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superybe import (
    EVEN,
    ODD,
    DegenerateRMatrix,
    GradedLinearMap,
    HierarchyCapExceeded,
    HierarchyError,
    LieSuperAlgebra,
    RMatrix,
    SuperSpace,
    Tensor2,
    beta_cocycle_check,
    beta_form,
    check_lie_axioms,
    classify_form,
    coadjoint,
    extend_to_double,
    fileformat,
    fixture_document,
    fixture_names,
    hierarchy_trace,
    hierarchy_walk,
    induced_coadjoint_operator,
    is_intertwiner,
    is_oop,
    is_pan_supersymmetric,
    is_super_rmatrix,
    linalg,
    load_fixture,
    oop_holds,
    operator_to_rmatrix,
    operator_to_tensor,
    parity_reverse_rep,
    rmatrix_to_operator,
    same_algebra_pair,
    scybe_defect,
    self_reversing_double,
    suspend_map,
    twist,
)
from superybe.graded import _Stored, merge_spaces, sign
from superybe.liesuper import BilinearForm, _is_two_cocycle, _scaled_gram
from superybe.rmatrix import (
    HOST_CACHE_SIZE,
    _beta,
    _dual_semidirect,
    _host,
    _level,
    _plain_semidirect,
    _step,
)

from conftest import (
    _count_calls,
    equivalence_cases,
    random_homogeneous_map,
    random_pan_supersymmetric,
)
from oracles import dense_form_flags, dense_invert, naive_scybe_defect


class TestPanSupersymmetry:
    def test_printed_examples(self):
        fx = load_fixture("ex4.4")
        assert is_pan_supersymmetric(fx.parts["r0"])
        assert is_pan_supersymmetric(fx.parts["r1"])

    def test_symmetric_even_square_fails(self):
        g = load_fixture("ex3.2").parts["algebra"]
        r = RMatrix.from_terms(g, {("e", "e"): 1})
        assert not is_pan_supersymmetric(r)

    def test_equivalent_to_the_pairing_characterization(self, rng):
        # sigma(r) = -(-1)^{|r|} r holds exactly when
        # <w*, T_r(v*)> = -(-1)^{|v*||w*|} <v*, T_r(w*)> on all basis pairs
        from superybe import pair_eval, rmatrix_to_operator
        from superybe.graded import merge_spaces, sign
        from conftest import random_tensor

        for _, g, _ in equivalence_cases()[:3]:
            space = g.space
            dual = space.dual()
            for _ in range(30):
                parity = rng.randint(0, 1)
                r = RMatrix(g, random_tensor(rng, space, parity=parity))
                t = rmatrix_to_operator(r)
                pairing_skew = all(
                    pair_eval(space, dual.basis_vector(w), t.column(v))
                    == -sign(space.parities[v] * space.parities[w])
                    * pair_eval(space, dual.basis_vector(v), t.column(w))
                    for v in range(space.dim)
                    for w in range(space.dim)
                )
                assert is_pan_supersymmetric(r) == pairing_skew

    def test_generator_always_produces_pan_supersymmetric(self, rng):
        for _, g, _ in equivalence_cases()[:3]:
            for parity in (EVEN, ODD):
                for _ in range(20):
                    r = random_pan_supersymmetric(rng, g, parity)
                    assert is_pan_supersymmetric(r)


class TestScybeDefect:
    def test_solutions_have_zero_defect(self):
        fx = load_fixture("ex4.4")
        assert scybe_defect(fx.parts["r0"]).is_zero()
        assert scybe_defect(fx.parts["r1"]).is_zero()

    def test_abelian_always_solves(self, rng):
        space = SuperSpace.make(even=["a"], odd=["c"])
        g = LieSuperAlgebra.from_brackets(space, {})
        for parity in (EVEN, ODD):
            for _ in range(10):
                r = random_pan_supersymmetric(rng, g, parity)
                assert scybe_defect(r).is_zero()

    def test_mixed_tensor_has_nonzero_component(self):
        g = load_fixture("ex3.2").parts["algebra"]
        r = RMatrix.from_terms(g, {("e", "f"): 1})
        defect = scybe_defect(r)
        # the middle commutator family contributes -e (x) f (x) f
        e, f = g.space.index("e"), g.space.index("f")
        assert dict(defect.nonzero()) == {(e, f, f): Fraction(-1)}

    def test_even_square_solves_without_pan_supersymmetry(self):
        # every bracket in the expansion hits [e, e] = 0
        g = load_fixture("ex3.2").parts["algebra"]
        r = RMatrix.from_terms(g, {("e", "e"): 1})
        assert scybe_defect(r).is_zero()
        assert not is_pan_supersymmetric(r)

    def test_matches_naive_oracle_on_random_tensors(self, rng):
        for _, g, _ in equivalence_cases()[:3]:
            for _ in range(40):
                parity = rng.randint(0, 1)
                r = random_pan_supersymmetric(rng, g, parity)
                expected = naive_scybe_defect(g, r.tensor)
                got = {key: value for key, value in scybe_defect(r).nonzero()}
                assert got == expected


def _rescaled(g, p, t):
    """g in the basis with e_p replaced by t e_p:
    c'_ij^k = t^([i = p] + [j = p] - [k = p]) c_ij^k."""
    n = g.space.dim
    f, S = [t if i == p else 1 for i in range(n)], g.structure
    structure = tuple(
        tuple(tuple(S[i][j][k] * f[i] * f[j] / f[k] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    return LieSuperAlgebra(g.space, structure)


def _transported(r, g, p, t):
    """r written over _rescaled(r.algebra, p, t): a'_ij = a_ij / (f_i f_j)."""
    n = g.space.dim
    f = [t if i == p else 1 for i in range(n)]
    a = r.tensor.coeffs
    coeffs = tuple(tuple(a[i][j] / (f[i] * f[j]) for j in range(n)) for i in range(n))
    return RMatrix(g, Tensor2(g.space, g.space, coeffs, r.parity))


def _known_solutions():
    ex44 = load_fixture("ex4.4").parts
    g = ex44["algebra"]
    # ex3.2's algebra with e halved: [e', f] = 1/2 f
    half_e = _rescaled(g, g.space.index("e"), Fraction(1, 2))
    known = []
    for name in ("r0", "r1"):
        r = ex44[name]
        known += [r, _transported(r, half_e, g.space.index("e"), Fraction(1, 2))]
        for word in ("++", "+-", "-+", "--"):
            known += hierarchy_trace(g, r, word)
    known += hierarchy_trace(g, ex44["r1"], "+-+")[-1:]
    return known


KNOWN_SOLUTIONS = _known_solutions()
# catalog algebras, the hierarchy hosts of dims 4 and 8, and catalog algebras
# with one basis vector rescaled so that their structure constants are not
# all integers
DEFECT_ALGEBRAS = [g for _, g, _ in equivalence_cases()]
DEFECT_ALGEBRAS += [r.algebra for r in KNOWN_SOLUTIONS if r.space.dim in (4, 8)][:2]
DEFECT_ALGEBRAS += [
    _rescaled(g, p, t)
    for _, g, _ in equivalence_cases()
    for p in range(g.space.dim)
    for t in (Fraction(1, 2), Fraction(-3, 7))
]
# 0 twice, for sparser tensors
DEFECT_VALUES = (0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7))


@st.composite
def defect_inputs(draw):
    """A known solution, a zero tensor, or a random homogeneous tensor with
    non-integral entries (pan-supersymmetric or not)."""
    kind = draw(st.sampled_from(("known", "zero", "random", "random")))
    if kind == "known":
        return draw(st.sampled_from(KNOWN_SOLUTIONS))
    g = draw(st.sampled_from(DEFECT_ALGEBRAS))
    parity = draw(st.integers(0, 1))
    if kind == "zero":
        return RMatrix.from_terms(g, {}, parity)
    rnd = draw(st.randoms(use_true_random=False))
    n, P = g.space.dim, g.space.parities
    coeffs = [
        [Fraction(rnd.choice(DEFECT_VALUES)) if (P[i] + P[j]) % 2 == parity else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ]
    r = RMatrix(g, Tensor2(g.space, g.space, tuple(map(tuple, coeffs)), parity))
    if draw(st.booleans()):
        # r - (-1)^{|r|} sigma(r) is pan-supersymmetric
        r = RMatrix(g, r.tensor.add(twist(r.tensor).scale(-sign(parity))))
    return r


class TestIntegerKernel:
    """scybe_defect runs on cleared denominators; its values are the
    Fraction values of the dense oracle."""

    def test_the_inputs_clear_denominators(self):
        assert any(g._cleared[0] != 1 for g in DEFECT_ALGEBRAS)
        assert all(is_super_rmatrix(r) for r in KNOWN_SOLUTIONS)
        assert {r.space.dim for r in KNOWN_SOLUTIONS} == {2, 4, 8, 16}

    @settings(max_examples=150, deadline=None)
    @given(r=defect_inputs())
    def test_matches_the_naive_oracle(self, r):
        defect = scybe_defect(r)
        assert all(type(c) is Fraction for plane in defect.coeffs for row in plane for c in row)
        naive = naive_scybe_defect(r.algebra, r.tensor)
        # the same slots and values, in row-major order
        assert list(defect.nonzero()) == sorted(naive.items())
        assert is_super_rmatrix(r) == (not naive)

    @settings(max_examples=100, deadline=None)
    @given(
        g=st.sampled_from([g for g in DEFECT_ALGEBRAS if g._cleared[0] != 1]),
        parity=st.integers(0, 1),
        rnd=st.randoms(use_true_random=False),
    )
    def test_the_verdict_on_fractional_constants(self, g, parity, rnd):
        """On the rescaled algebras (E != 1) with non-integral entries, the
        verdict, which never leaves the ints, agrees with the oracle."""
        values = (Fraction(1, 2), Fraction(-3, 7), Fraction(2, 3), 1, 0)
        r = random_pan_supersymmetric(rnd, g, parity, values=values)
        naive = naive_scybe_defect(g, r.tensor)
        assert is_super_rmatrix(r) == (not naive)
        assert list(scybe_defect(r).nonzero()) == sorted(naive.items())

    def test_the_verdict_builds_no_defect_tensor(self, monkeypatch):
        """is_super_rmatrix answers on the integer sums: it neither calls
        scybe_defect nor builds a defect tensor."""
        from superybe import rmatrix

        calls = _count_calls(monkeypatch, "superybe.rmatrix", "scybe_defect")
        built = []
        monkeypatch.setattr(rmatrix, "Tensor3", lambda *args: built.append(args))
        half_e = DEFECT_ALGEBRAS[-1]
        r = random_pan_supersymmetric(random.Random(2), half_e, 0, values=(Fraction(1, 2), 1))
        for known in (*KNOWN_SOLUTIONS, r):
            is_super_rmatrix(known)
        assert calls == [] and built == []

    def test_rescaled_algebra_carries_fractional_constants(self):
        g = load_fixture("ex3.2").parts["algebra"]
        half_e = _rescaled(g, g.space.index("e"), Fraction(1, 2))
        e, f = g.space.index("e"), g.space.index("f")
        assert half_e._cleared == (2, (((), ((f, 1),)), (((f, -1),), ())))
        r = RMatrix.from_terms(half_e, {("e", "f"): Fraction(3, 7)})
        # the middle family alone: 3/7 * 3/7 * c_fe^f = -9/98 e (x) f (x) f
        assert dict(scybe_defect(r).nonzero()) == {(e, f, f): Fraction(-9, 98)}

    def test_dense_host_draws_within_one_second(self):
        # every free entry +-1 on the dim-16 r1+++ host: the 20 draws take
        # well over 1 s with Fraction arithmetic
        ex44 = load_fixture("ex4.4").parts
        host = hierarchy_walk(ex44["algebra"], ex44["r1"], "+++").algebra
        rnd = random.Random(4)
        draws = [
            random_pan_supersymmetric(rnd, host, rnd.randint(0, 1), values=(-1, 1))
            for _ in range(20)
        ]
        start = time.perf_counter()
        for r in draws:
            scybe_defect(r)
        assert time.perf_counter() - start < 1.0

    def test_scaled_table_is_built_once_per_algebra(self, monkeypatch):
        # loading the fixture checks its representations, which clears g
        g = load_fixture("ex3.2").parts["algebra"]
        # every stored table's view is the shared core's; count the algebras'
        original = _Stored.__dict__["_cleared"]
        built = []

        def counting(obj):
            if isinstance(obj, LieSuperAlgebra):
                built.append(obj)
            return original.func(obj)

        table = cached_property(counting)
        table.__set_name__(_Stored, "_cleared")
        monkeypatch.setattr(_Stored, "_cleared", table)
        rebuilt = LieSuperAlgebra(g.space, g.structure)
        rnd = random.Random(1)
        for _ in range(5):
            r = random_pan_supersymmetric(rnd, rebuilt, rnd.randint(0, 1))
            scybe_defect(r)
            is_super_rmatrix(r)
        assert len(built) == 1 and built[0] is rebuilt
        # an equal algebra built apart is another object with its own table
        twin = LieSuperAlgebra(g.space, g.structure)
        scybe_defect(RMatrix.from_terms(twin, {("f", "f"): 1}))
        assert len(built) == 2 and built[1] is twin


def _counting_blocks(monkeypatch):
    """The blocks the super-CYBE kernel yields while the test runs, one
    list per kernel call."""
    from superybe import rmatrix

    original = rmatrix._scybe_blocks
    calls = []

    def counting(r):
        scale, blocks = original(r)
        consumed = []
        calls.append(consumed)

        def counted():
            for block in blocks:
                consumed.append(block)
                yield block

        return scale, counted()

    monkeypatch.setattr(rmatrix, "_scybe_blocks", counting)
    return calls


@st.composite
def last_block_defects(draw):
    """A tensor whose defect is nonzero in the last block alone: an odd
    solution (or zero) over g, plus a h (x) w in g (+) span{h, w} with h
    even, w odd and last, and [h, w] = l w.  Brackets between the summands
    vanish, so [[r, r]] is -l a^2 h (x) w (x) w."""
    base = draw(st.sampled_from([r for r in KNOWN_SOLUTIONS if r.parity == ODD] + ["zero"]))
    if base == "zero":
        base = RMatrix.from_terms(draw(st.sampled_from(DEFECT_ALGEBRAS)), {}, ODD)
    g = base.algebra
    lam, a = (draw(st.sampled_from(DEFECT_VALUES[2:])) for _ in range(2))
    labels, P = g.space.labels, g.space.parities
    space = SuperSpace.make(
        even=[x for x, p in zip(labels, P) if p == EVEN] + ["_h"],
        odd=[x for x, p in zip(labels, P) if p == ODD] + ["_w"],
    )
    pos = [space.index(x) for x in labels]
    h, w = space.index("_h"), space.index("_w")
    structure = [
        ((pos[i], pos[j], pos[k]), c)
        for i, row in enumerate(g.nonzero)
        for j, cell in enumerate(row)
        for k, c in cell
    ]
    structure += [((h, w, w), Fraction(lam)), ((w, h, w), -Fraction(lam))]
    host = LieSuperAlgebra._from_entries(space, structure)
    terms = {(labels[i], labels[j]): x for (i, j), x in base.tensor.nonzero()}
    terms[("_h", "_w")] = a
    return RMatrix.from_terms(host, terms, ODD)


class TestBlockKernel:
    """The kernel yields one block per last slot index; the verdict stops at
    the first block with a nonzero sum, the full defect reads them all."""

    @settings(max_examples=100, deadline=None)
    @given(r=defect_inputs())
    def test_the_verdict_stops_after_the_first_nonzero_block(self, r):
        naive = naive_scybe_defect(r.algebra, r.tensor)
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting_blocks(mp)
            verdict = is_super_rmatrix(r)
        assert verdict == (not naive) and len(calls) == 1
        # a solution reads all n blocks; a non-solution whose nonzero slots
        # have least last index z0 reads the blocks 0, ..., z0
        z0 = min((z for _, _, z in naive), default=r.space.dim - 1)
        assert len(calls[0]) == z0 + 1

    def test_solutions_consume_every_block(self, monkeypatch):
        calls = _counting_blocks(monkeypatch)
        for r in KNOWN_SOLUTIONS:
            assert is_super_rmatrix(r)
        assert [len(blocks) for blocks in calls] == [r.space.dim for r in KNOWN_SOLUTIONS]

    @settings(max_examples=60, deadline=None)
    @given(r=last_block_defects())
    def test_a_defect_in_the_last_block_alone(self, r):
        n = r.space.dim
        naive = naive_scybe_defect(r.algebra, r.tensor)
        assert naive and all(z == n - 1 for _, _, z in naive)
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting_blocks(mp)
            assert not is_super_rmatrix(r)
            assert list(scybe_defect(r).nonzero()) == sorted(naive.items())
        assert [len(blocks) for blocks in calls] == [n, n]
        assert not any(v for block in calls[0][:-1] for v in block.values())

    def test_join_index_is_built_once_per_algebra(self, monkeypatch):
        original = LieSuperAlgebra.__dict__["_scaled_join"]
        built = []

        def counting(g):
            built.append(g)
            return original.func(g)

        index = cached_property(counting)
        index.__set_name__(LieSuperAlgebra, "_scaled_join")
        monkeypatch.setattr(LieSuperAlgebra, "_scaled_join", index)
        g = load_fixture("ex3.2").parts["algebra"]
        rebuilt = LieSuperAlgebra(g.space, g.structure)
        rnd = random.Random(1)
        for _ in range(5):
            r = random_pan_supersymmetric(rnd, rebuilt, rnd.randint(0, 1))
            scybe_defect(r)
            is_super_rmatrix(r)
        assert len(built) == 1 and built[0] is rebuilt
        # an equal algebra built apart is another object with its own index
        twin = LieSuperAlgebra(g.space, g.structure)
        is_super_rmatrix(RMatrix.from_terms(twin, {("f", "f"): 1}))
        assert len(built) == 2 and built[1] is twin


class TestOperatorTensorConversions:
    def test_printed_tensors_map_to_printed_operators(self):
        fx = load_fixture("ex4.4")
        assert rmatrix_to_operator(fx.parts["r0"]) == fx.parts["T0"]
        assert rmatrix_to_operator(fx.parts["r1"]) == fx.parts["T1"]

    def test_zero_tensor_gives_zero_map(self):
        g = load_fixture("ex3.2").parts["algebra"]
        r = RMatrix.from_terms(g, {})
        assert rmatrix_to_operator(r).is_zero()

    def test_inhomogeneous_terms_are_refused(self):
        # an undeclared parity defaults to even only for the zero tensor
        g = load_fixture("ex3.2").parts["algebra"]
        message = r"^tensor entry \(e, f\) violates declared parity even$"
        with pytest.raises(ValueError, match=message):
            RMatrix.from_terms(g, {("e", "e"): 1, ("e", "f"): 1})

    def test_round_trip_on_random_tensors(self, rng):
        for _, g, _ in equivalence_cases()[:3]:
            for _ in range(25):
                r = random_pan_supersymmetric(rng, g, rng.randint(0, 1))
                assert operator_to_tensor(rmatrix_to_operator(r)) == r.tensor

    def test_pan_supersymmetric_equivalence(self, rng):
        # zero defect iff the operator satisfies the identity, exactly
        for _, g, _ in equivalence_cases()[:3]:
            coad = coadjoint(g)
            for _ in range(60):
                r = random_pan_supersymmetric(rng, g, rng.randint(0, 1))
                assert is_super_rmatrix(r) == oop_holds(rmatrix_to_operator(r), coad)


class TestOperatorToRMatrix:
    def test_identity_on_prelie_gives_printed_tensor(self):
        fx = load_fixture("closing-prelie")
        assert fx.parts["pair"][0] == fx.parts["r_id"]

    def test_zero_operator_gives_zero_solution(self):
        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        z = GradedLinearMap.zero(rho.space, fx.parts["algebra"].space, EVEN)
        for variant in ("plain", "dual"):
            r = operator_to_rmatrix(z, rho, variant)
            assert r.tensor.is_zero()
            assert scybe_defect(r).is_zero()

    def test_family_operator_and_perturbation(self):
        fx = load_fixture("ex3.7")
        rho = fx.parts["rho"]
        good = fx.parts["T3"](1, 1, 1, 1)
        bad = fx.parts["T3_shape"](1, 1, 1, 2)
        for variant in ("plain", "dual"):
            assert scybe_defect(operator_to_rmatrix(good, rho, variant)).is_zero()
            assert not scybe_defect(operator_to_rmatrix(bad, rho, variant)).is_zero()

    def test_host_caches_stay_bounded(self):
        # 1,000 distinct algebras [e, f] = n f, each with its own coadjoint
        # representation, may keep at most HOST_CACHE_SIZE hosts per variant
        space = SuperSpace.make(even=["e"], odd=["f"])
        for n in range(1, 1001):
            rho = coadjoint(LieSuperAlgebra.from_brackets(space, {("e", "f"): {"f": n}}))
            zero = GradedLinearMap.zero(rho.space, space, EVEN)
            for variant in ("plain", "dual"):
                operator_to_rmatrix(zero, rho, variant)
        for cache in (_plain_semidirect, _dual_semidirect):
            info = cache.cache_info()
            assert info.maxsize == HOST_CACHE_SIZE
            assert info.currsize <= HOST_CACHE_SIZE

    def test_each_host_merges_its_spaces_once(self, monkeypatch):
        # one merge_spaces call per semidirect host, on the algebra's space
        # and the module's, whether a hierarchy step or a host-cache miss
        # builds it; a cache hit builds nothing
        merges = _count_calls(monkeypatch, "superybe.graded", "merge_spaces")
        fx = load_fixture("ex4.4")
        g, r = fx.parts["algebra"], fx.parts["r1"]
        _level.cache_clear()
        for word, module in (("+", g.space), ("-", g.space.suspended())):
            merges.clear()
            hierarchy_trace(g, r, word)
            assert merges == [(g.space, module)]
        fx = load_fixture("ex3.2")
        t, rho = fx.parts["T1"], fx.parts["coadjoint"]
        _plain_semidirect.cache_clear()
        _dual_semidirect.cache_clear()
        for variant, module in (
            ("plain", rho.space.dual()),
            ("dual", rho.space.suspended().dual()),
        ):
            merges.clear()
            operator_to_rmatrix(t, rho, variant)
            assert merges == [(rho.algebra.space, module)]
            operator_to_rmatrix(t, rho, variant)
            assert len(merges) == 1

    def test_outputs_are_always_pan_supersymmetric(self, rng):
        for name, g, rho in equivalence_cases()[:3]:
            for _ in range(20):
                t = random_homogeneous_map(rng, rho.space, g.space, rng.randint(0, 1))
                for variant in ("plain", "dual"):
                    assert is_pan_supersymmetric(operator_to_rmatrix(t, rho, variant))


# the five representations of criterion 4 and the ex3.7 module
CATALOG_REPS = [rho for _, _, rho in equivalence_cases()] + [load_fixture("ex3.7").parts["rho"]]


@settings(max_examples=60, deadline=None)
@given(
    rho=st.sampled_from(CATALOG_REPS),
    parity=st.integers(0, 1),
    rnd=st.randoms(use_true_random=False),
)
def test_dual_variant_is_the_plain_construction_on_the_parity_dual_pair(rho, parity, rnd):
    # r_{T^s} and its coadjoint operator are the plain ones of (T^s, rho^s)
    t = random_homogeneous_map(rnd, rho.space, rho.algebra.space, parity)
    ts, srho = suspend_map(t), parity_reverse_rep(rho)
    assert operator_to_rmatrix(t, rho, "dual") == operator_to_rmatrix(ts, srho, "plain")
    assert induced_coadjoint_operator(t, rho, "dual") == induced_coadjoint_operator(
        ts, srho, "plain"
    )


# entries with denominators 1, 2, 3 and 7, so that most maps clear by D != 1
FRACTIONAL_ENTRIES = tuple(Fraction(v) for v in ("0", "1", "-1", "1/2", "-2/3", "3/7"))


def _fractional_map(rnd, rho, parity):
    """A homogeneous map V -> g with entries drawn from FRACTIONAL_ENTRIES."""
    V, cod = rho.space, rho.algebra.space
    images = {
        V.labels[i]: {
            cod.labels[k]: rnd.choice(FRACTIONAL_ENTRIES)
            for k in range(cod.dim)
            if cod.parities[k] == V.parities[i] ^ parity
        }
        for i in range(V.dim)
    }
    return GradedLinearMap.from_images(V, cod, parity, images)


def _known_fractional_candidates():
    """(T, rho) with D != 1: ex3.2's T0 and T1 scaled by 3/7, and ex3.7's
    T3 with l4 = l2 l3 / l1 fractional."""
    ex32, ex37 = load_fixture("ex3.2").parts, load_fixture("ex3.7").parts
    rho32, rho37 = ex32["coadjoint"], ex37["rho"]
    return [
        (ex32["T0"].scale(Fraction(3, 7)), rho32),
        (ex32["T1"].scale(Fraction(3, 7)), rho32),
        (ex37["T3"](2, 1, 3, Fraction(3, 2)), rho37),
        (ex37["T3"](3, -1, 1, Fraction(-1, 3)), rho37),
    ]


def _assert_seeded_map(t):
    """t's integer view was written when t was built, and it is a fresh
    clearing of t's own table: D the lcm of its denominators, D x as ints."""
    assert "_cleared" in vars(t)
    D, cols = t._cleared
    assert (D, cols) == linalg._cleared_table(t.nonzero, 1)
    assert D == math.lcm(*(x.denominator for col in t.nonzero for _, x in col))
    for col, icol in zip(t.nonzero, cols, strict=True):
        assert [(k, D * x) for k, x in col] == list(icol)
        assert all(type(y) is int for _, y in icol)


def _assert_seeded_tensor(tensor):
    """The same for a 2-tensor's view of its slots."""
    assert "_cleared" in vars(tensor)
    D, slots = tensor._cleared
    values = [x for _, x in tensor.entries]
    assert (D, slots) == linalg._cleared_table(tensor.entries, 0)
    assert D == math.lcm(*(x.denominator for x in values))
    assert slots == tuple((ij, D * x) for ij, x in tensor.entries)
    assert all(type(y) is int for _, y in slots)


def _assert_seeded_rep(rho):
    """The same for a representation's view of its action table."""
    assert "_cleared" in vars(rho)
    D, table = rho._cleared
    assert (D, table) == linalg._cleared_table(rho.nonzero, 2)
    assert D == math.lcm(*(x.denominator for row in rho.nonzero for col in row for _, x in col))
    for row, irow in zip(rho.nonzero, table, strict=True):
        for col, icol in zip(row, irow, strict=True):
            assert [(k, D * x) for k, x in col] == list(icol)
            assert all(type(y) is int for _, y in icol)


def _assert_derived_views_are_fresh(t, rho):
    """Every object the correspondence derives from T, the two hierarchy
    levels of each induced tensor and rho's parity reverse carry a seeded
    view."""
    _assert_seeded_map(suspend_map(t))
    _assert_seeded_rep(parity_reverse_rep(rho))
    for variant in ("plain", "dual"):
        r = operator_to_rmatrix(t, rho, variant)
        _assert_seeded_tensor(r.tensor)
        _assert_seeded_map(rmatrix_to_operator(r))
        _assert_seeded_map(induced_coadjoint_operator(t, rho, variant))
        for letter in "+-":
            _assert_seeded_tensor(_step(r, letter, _host(r.algebra, letter)).tensor)



class TestDirectWriters:
    """`induced_coadjoint_operator` writes T_{r_T} straight from T's
    entries, and the dual variant reads T's columns through the
    suspension's permutation; both give what the two-step constructions
    give, views included."""

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.sampled_from(CATALOG_REPS),
        parity=st.integers(0, 1),
        variant=st.sampled_from(["plain", "dual"]),
        rnd=st.randoms(use_true_random=False),
    )
    def test_the_induced_operator_is_t_r_of_the_induced_tensor(self, rho, parity, variant, rnd):
        t = _fractional_map(rnd, rho, parity)
        op = induced_coadjoint_operator(t, rho, variant)
        read = rmatrix_to_operator(operator_to_rmatrix(t, rho, variant))
        assert op == read and op._cleared == read._cleared

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.sampled_from(CATALOG_REPS),
        parity=st.integers(0, 1),
        rnd=st.randoms(use_true_random=False),
    )
    def test_the_dual_tensor_is_the_plain_tensor_of_the_suspension(self, rho, parity, rnd):
        t = _fractional_map(rnd, rho, parity)
        dual = operator_to_rmatrix(t, rho, "dual")
        plain = operator_to_rmatrix(suspend_map(t), parity_reverse_rep(rho), "plain")
        assert dual == plain and dual.tensor._cleared == plain.tensor._cleared

class TestSeededViews:
    """The derived objects of the correspondence inherit their source's
    integer view, with the same D and the same signs, and are never
    cleared themselves."""

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.sampled_from(CATALOG_REPS),
        parity=st.integers(0, 1),
        rnd=st.randoms(use_true_random=False),
    )
    def test_every_seeded_view_is_a_fresh_clearing(self, rho, parity, rnd):
        _assert_derived_views_are_fresh(_fractional_map(rnd, rho, parity), rho)

    def test_known_fractional_candidates(self):
        for t, rho in _known_fractional_candidates():
            assert t._cleared[0] != 1 and oop_holds(t, rho)
            _assert_derived_views_are_fresh(t, rho)

    @pytest.mark.parametrize("scale", [Fraction(3, 7), Fraction(-2, 5)])
    def test_hierarchy_levels_are_seeded(self, scale):
        ex44 = load_fixture("ex4.4").parts
        for name in ("r0", "r1"):
            r = RMatrix(ex44["algebra"], ex44[name].tensor.scale(scale))
            for word in ("+", "-", "+-", "-+-"):
                levels = hierarchy_trace(ex44["algebra"], r, word)
                for level in levels:
                    assert level.tensor._cleared[0] == scale.denominator
                    _assert_seeded_tensor(level.tensor)

    def test_the_criterion_4_chain_clears_one_map_and_no_tensor(self, monkeypatch, rng):
        # the six statements of criterion 4 on one fresh map T: T is cleared
        # once, and T^s, r_T, r_{T^s} and the induced operators inherit it
        maps = _count_calls(monkeypatch, "superybe.linalg", "_cleared_table")
        values = _count_calls(monkeypatch, "superybe.linalg", "_cleared")
        tables = _count_calls(monkeypatch, "superybe.linalg", "_rescaled")
        for _, g, rho in equivalence_cases():
            srho = parity_reverse_rep(rho)
            zero = GradedLinearMap.zero(rho.space, g.space, EVEN)
            coad = {
                variant: coadjoint(operator_to_rmatrix(zero, rho, variant).algebra)
                for variant in ("plain", "dual")
            }

            def chain(t):
                return (
                    oop_holds(t, rho),
                    oop_holds(suspend_map(t), srho),
                    is_super_rmatrix(operator_to_rmatrix(t, rho, "plain")),
                    is_super_rmatrix(operator_to_rmatrix(t, rho, "dual")),
                    oop_holds(induced_coadjoint_operator(t, rho, "plain"), coad["plain"]),
                    oop_holds(induced_coadjoint_operator(t, rho, "dual"), coad["dual"]),
                )

            chain(zero)  # the tables of the representations and hosts, once
            for parity in (EVEN, ODD):
                t = _fractional_map(rng, rho, parity)
                for calls in (maps, values, tables):
                    calls.clear()
                verdicts = chain(t)
                assert len(set(verdicts)) == 1
                assert maps == [(t.nonzero, 1)] and values == [] and tables == []


class TestInducedCoadjointOperator:
    def test_equals_operator_of_induced_tensor(self, rng):
        for name, g, rho in equivalence_cases()[:3]:
            for _ in range(10):
                t = random_homogeneous_map(rng, rho.space, g.space, rng.randint(0, 1))
                for variant in ("plain", "dual"):
                    direct = induced_coadjoint_operator(t, rho, variant)
                    via_tensor = rmatrix_to_operator(operator_to_rmatrix(t, rho, variant))
                    assert direct == via_tensor

    def test_true_case(self):
        fx = load_fixture("ex3.2")
        t0 = fx.parts["T0"]
        coad = fx.parts["coadjoint"]
        m = induced_coadjoint_operator(t0, coad, "plain")
        h = operator_to_rmatrix(t0, coad, "plain").algebra
        assert oop_holds(m, coadjoint(h))

    def test_zero_case(self):
        fx = load_fixture("ex3.2")
        coad = fx.parts["coadjoint"]
        z = GradedLinearMap.zero(coad.space, fx.parts["algebra"].space, EVEN)
        m = induced_coadjoint_operator(z, coad, "plain")
        assert m.is_zero()


class TestBetaCocycle:
    def test_odd_nondegenerate_solution_gives_cocycle(self):
        fx = load_fixture("ex4.4")
        beta, agreement = beta_cocycle_check(fx.parts["r1"])
        assert agreement
        flags = classify_form(beta, fx.parts["algebra"])
        assert flags.two_cocycle and flags.skew_supersymmetric

    def test_degenerate_tensor_rejected(self):
        fx = load_fixture("ex4.4")
        with pytest.raises(DegenerateRMatrix):
            beta_cocycle_check(fx.parts["r0"])

    def test_beta_form_eliminates_once(self, monkeypatch):
        # one block inversion of T_r, which eliminates each of its parity
        # blocks once, and no rank: every elimination is a block's inversion
        inverts = _count_calls(monkeypatch, "superybe.graded", "_block_inverse")
        nonsingular = _count_calls(monkeypatch, "superybe.graded", "_block_nonsingular")
        ranks = _count_calls(monkeypatch, "superybe.linalg", "rank")
        blocks = _count_calls(monkeypatch, "superybe.linalg", "_inverse")
        eliminations = _count_calls(monkeypatch, "superybe.linalg", "_eliminate")
        fx = load_fixture("ex4.4")
        beta_form(fx.parts["r1"])
        assert (len(inverts), nonsingular, ranks) == (1, [], [])
        assert 0 < len(eliminations) == len(blocks) <= 2
        inverts.clear()
        with pytest.raises(DegenerateRMatrix):
            beta_form(fx.parts["r0"])
        assert (len(inverts), nonsingular, ranks) == (1, [], [])
        assert len(eliminations) == len(blocks)

    def test_beta_cocycle_check_eliminates_once(self, monkeypatch):
        # beta_form's one block inversion and nothing more: beta is
        # non-degenerate by construction, so no rank decides it again
        ex44 = load_fixture("ex4.4").parts
        host = hierarchy_walk(ex44["algebra"], ex44["r1"], "++").algebra
        rnd = random.Random(5)
        dense = None
        while dense is None or not rmatrix_to_operator(dense).is_invertible():
            dense = random_pan_supersymmetric(rnd, host, rnd.randint(0, 1), values=(-1, 1))
        inverts = _count_calls(monkeypatch, "superybe.graded", "_block_inverse")
        nonsingular = _count_calls(monkeypatch, "superybe.graded", "_block_nonsingular")
        ranks = _count_calls(monkeypatch, "superybe.linalg", "rank")
        classified = _count_calls(monkeypatch, "superybe.liesuper", "classify_form")
        # no Gram matrix is cleared again: the check reads beta's ints
        grams = _count_calls(monkeypatch, "superybe.liesuper", "_scaled_gram")
        blocks = _count_calls(monkeypatch, "superybe.linalg", "_inverse")
        eliminations = _count_calls(monkeypatch, "superybe.linalg", "_eliminate")
        for r in (ex44["r1"], dense):
            inverts.clear()
            blocks.clear()
            eliminations.clear()
            assert beta_cocycle_check(r)[1]
            assert (len(inverts), nonsingular, ranks, classified, grams) == (1, [], [], [], [])
            assert 0 < len(eliminations) == len(blocks) <= 2

    def test_beta_cocycle_check_clears_r_once(self, monkeypatch):
        # _beta and the super-CYBE kernel read one cached integer view of
        # r's slot values; the scaled tensors are fresh, with no view cached
        # yet, while a hierarchy level inherits its view and is never cleared
        ex44 = load_fixture("ex4.4").parts
        cleared = _count_calls(monkeypatch, "superybe.linalg", "_cleared_table")
        for word in ("+", "-", "++"):
            r = hierarchy_walk(ex44["algebra"], ex44["r1"], word)
            level_values = r.tensor.entries
            cleared.clear()
            beta_cocycle_check(r)  # the host's own tables are cleared here
            assert not any(args[0] == level_values for args in cleared)
            for c in (Fraction(3, 7), Fraction(-2)):
                fresh = RMatrix(r.algebra, r.tensor.scale(c))
                values = fresh.tensor.entries
                cleared.clear()
                assert beta_cocycle_check(fresh)[1]
                assert [args for args in cleared if args[0] == values] == [(values, 0)]
                cleared.clear()
                beta_cocycle_check(fresh)
                assert not any(args[0] == values for args in cleared)

    @pytest.mark.parametrize("word", ["+", "-", "++", "+-", "+++", "-+-", "----"])
    def test_hierarchy_levels_of_r1_are_verdict_true_cocycles(self, word):
        """Every level of ex4.4's r1 solves the super CYBE and is
        non-degenerate, so its beta is a 2-cocycle.  Up to dim 16 the flags
        are the dense oracle's; the dim-32 level has the library's alone."""
        ex44 = load_fixture("ex4.4").parts
        r = hierarchy_walk(ex44["algebra"], ex44["r1"], word)
        beta, agreement = beta_cocycle_check(r)
        assert agreement and is_super_rmatrix(r)
        assert beta == beta_form(r)
        flags = tuple(classify_form(beta, r.algebra).as_dict().values())
        assert flags == (False, True, False, True, True)
        if r.space.dim <= 16:
            assert flags == dense_form_flags(beta.gram, r.algebra.structure, r.space.parities)

    @settings(max_examples=100, deadline=None)
    @given(r=defect_inputs())
    def test_matches_the_dense_oracles(self, r):
        """On known solutions and random tensors, pan-supersymmetric or not,
        over the catalog algebras, the ex4.4 hosts (r1++'s among them) and
        rescaled algebras with fractional structure constants."""
        g, n, P = r.algebra, r.space.dim, r.space.parities
        a = r.tensor.coeffs
        # column i of T_r is T_r(e_i*) = (-1)^{|e_i|} sum_j a_ji e_j
        inv = dense_invert([[-a[j][i] if P[i] else a[j][i] for i in range(n)] for j in range(n)])
        if inv is None:
            with pytest.raises(DegenerateRMatrix):
                beta_cocycle_check(r)
            return
        # row i of the Gram matrix is T_r^{-1} e_i, column i of the inverse
        gram = tuple(tuple(inv[j][i] for j in range(n)) for i in range(n))
        beta, agreement = beta_cocycle_check(r)
        assert beta == BilinearForm(r.space, gram, r.parity)
        cocycle = dense_form_flags(gram, g.structure, P)[3]
        assert agreement == ((not naive_scybe_defect(g, r.tensor)) == cocycle)

    @settings(max_examples=100, deadline=None)
    @given(r=defect_inputs())
    def test_the_integer_gram_matrix_is_one_multiple_of_the_scaled_gram(self, r):
        """The Gram matrix the 2-cocycle check reads, T_r^{-1} at the lcm of
        its pivots, is `_scaled_gram`'s up to one nonzero common factor, on
        the same support, and gives the same verdict."""
        g = r.algebra
        try:
            beta, B = _beta(r)
        except DegenerateRMatrix:
            assert dense_invert(rmatrix_to_operator(r)._rows()) is None
            return
        S = _scaled_gram(beta, g)
        assert [sorted(row) for row in B] == [sorted(row) for row in S]
        assert all(type(b) is int for row in B for b in row.values())
        (i, j), _ = beta.entries[0]
        b0, s0 = B[i][j], S[i][j]
        assert b0 and all(B[i][j] * s0 == S[i][j] * b0 for i, row in enumerate(S) for j in row)
        assert _is_two_cocycle(B, g) == _is_two_cocycle(S, g)
        assert beta_cocycle_check(r) == (beta, is_super_rmatrix(r) == _is_two_cocycle(S, g))

    def test_beta_is_a_two_cocycle_on_scaled_r1_levels(self):
        # the r1 levels + and ++ of ex4.4, as they are and scaled by 3/7,
        # so that T_r and its inverse carry denominators
        ex44 = load_fixture("ex4.4").parts
        for word in ("+", "++"):
            r = hierarchy_walk(ex44["algebra"], ex44["r1"], word)
            for scale in (1, Fraction(3, 7)):
                scaled = RMatrix(r.algebra, r.tensor.scale(scale))
                assert beta_cocycle_check(scaled) == (beta_form(scaled), True), (word, scale)

    def test_scaling_inverts_the_form(self):
        fx = load_fixture("ex4.4")
        r1 = fx.parts["r1"]
        scaled = RMatrix(r1.algebra, r1.tensor.scale(Fraction(3, 2)))
        gram1, gram2 = beta_form(r1).gram, beta_form(scaled).gram
        assert all(gram2[i][j] == Fraction(2, 3) * gram1[i][j] for i in range(2) for j in range(2))
        assert beta_cocycle_check(scaled)[1]

    def test_non_pan_supersymmetric_tensor_gives_non_skew_form(self):
        # the converse direction of the skew characterization
        g = load_fixture("ex3.2").parts["algebra"]
        r = RMatrix.from_terms(g, {("e", "e"): 1, ("f", "f"): 1})
        assert not is_pan_supersymmetric(r)
        beta = beta_form(r)
        assert beta.gram[0][0] != 0  # a skew form would vanish on (e, e)

    def test_skew_supersymmetry_of_beta(self, rng):
        # for non-degenerate homogeneous pan-supersymmetric tensors
        from superybe.graded import merge_spaces, sign

        found = 0
        for _, g, _ in equivalence_cases()[:3]:
            for _ in range(100):
                r = random_pan_supersymmetric(rng, g, rng.randint(0, 1))
                try:
                    beta = beta_form(r)
                except DegenerateRMatrix:
                    # e.g. sl(1|1) admits no non-degenerate pan-supersymmetric
                    # tensor at all: the even ones kill the e1 row, and the
                    # odd ones cannot be invertible on a 1|2 space
                    continue
                found += 1
                P, n, gram = g.space.parities, g.space.dim, beta.gram
                for i in range(n):
                    for j in range(n):
                        assert gram[i][j] == -sign(P[i] * P[j]) * gram[j][i]
        assert found > 0


def _central_extension(g, omega):
    """g (+)_omega Qc, [x, y]' = [x, y] + omega(x, y) c with c central of
    omega's parity: a fresh object, whose report no construction seeds."""
    c = SuperSpace.make(odd=["c"]) if omega.parity else SuperSpace.make(even=["c"])
    total, emb, (pc,) = merge_spaces(g.space, c)
    entries = [
        ((emb[i], emb[j], emb[k]), x)
        for i, row in enumerate(g.nonzero)
        for j, cell in enumerate(row)
        for k, x in cell
    ]
    entries += [((emb[i], emb[j], pc), w) for (i, j), w in omega.entries]
    return LieSuperAlgebra._from_entries(total, entries)


def _perturbed(omega, rnd):
    """omega plus t at one homogeneous slot (i, j), i <= j, and at (j, i) by
    skew-supersymmetry, so the form stays skew-supersymmetric."""
    P, n = omega.space.parities, omega.space.dim
    slots = [
        (i, j)
        for i in range(n)
        for j in range(i, n)
        if P[i] ^ P[j] == omega.parity and (i < j or P[i])
    ]
    i, j = rnd.choice(slots)
    t = rnd.choice([1, -2, Fraction(1, 3)])
    gram = [list(row) for row in omega.gram]
    gram[i][j] += t
    if i != j:
        gram[j][i] += t if P[i] & P[j] else -t
    return BilinearForm(omega.space, gram, omega.parity)


def test_the_two_cocycle_flag_is_the_central_extensions_lie_verdict():
    # two kernels check each other: omega is a 2-cocycle of g exactly when
    # g (+)_omega Qc satisfies the Lie axioms, which runs the Jacobi kernel
    # on each fresh extension
    tensors = [
        part
        for name in fixture_names()
        for part in load_fixture(name).parts.values()
        if isinstance(part, RMatrix)
    ]
    fx = load_fixture("ex4.4")
    for word in ("+", "-", "++", "+-", "-+", "--", "+++", "+--", "-+-", "---"):
        tensors.append(hierarchy_walk(fx.parts["algebra"], fx.parts["r1"], word))
    rnd = random.Random(13)
    verdicts, nonsingular = [], 0
    for r in tensors:
        try:
            omega = beta_form(r)
        except DegenerateRMatrix:
            continue
        nonsingular += 1
        for form in [omega] + [_perturbed(omega, rnd) for _ in range(3)]:
            h = _central_extension(r.algebra, form)
            assert "_report" not in vars(h)
            verdict = check_lie_axioms(h).ok
            assert classify_form(form, r.algebra).two_cocycle == verdict
            verdicts.append(verdict)
    assert nonsingular == 16
    assert verdicts[::4] == [True] * nonsingular and False in verdicts


class TestHierarchy:
    def test_level_one_matches_printed_tables(self):
        fx = load_fixture("ex3.17")
        g = fx.parts["algebra"]
        assert hierarchy_walk(g, fx.parts["r0"], "+") == fx.parts["r0_plus"]
        assert hierarchy_walk(g, fx.parts["r0"], "-") == fx.parts["r0_minus"]
        assert hierarchy_walk(g, fx.parts["r1"], "+") == fx.parts["r1_plus"]
        assert hierarchy_walk(g, fx.parts["r1"], "-") == fx.parts["r1_minus"]

    def test_empty_word_returns_input(self):
        fx = load_fixture("ex4.4")
        g = fx.parts["algebra"]
        assert hierarchy_walk(g, fx.parts["r0"], "") == fx.parts["r0"]

    def test_non_solution_start_rejected(self):
        g = load_fixture("ex3.2").parts["algebra"]
        r = RMatrix.from_terms(g, {("f", "f"): 1, ("e", "e"): 0})
        bad = RMatrix.from_terms(g, {("e", "e"): 1})
        with pytest.raises(HierarchyError):
            hierarchy_walk(g, bad, "+")

    def test_non_lie_algebra_rejected_at_entry(self):
        space = SuperSpace.make(even=["x", "y", "z"])
        g = LieSuperAlgebra.from_brackets(space, {("x", "y"): {"z": 1}, ("y", "z"): {"y": 1}})
        zero = RMatrix.from_terms(g, {})
        with pytest.raises(HierarchyError, match="super Jacobi"):
            hierarchy_walk(g, zero, "+")

    def test_level_algebras_satisfy_the_lie_axioms(self):
        # the levels are trusted to be Lie superalgebras and hold the root's
        # report; run the kernel on an unseeded copy of each one up to dim 16
        # (every prefix of every length-3 word)
        fx = load_fixture("ex4.4")
        g = fx.parts["algebra"]
        levels = {}
        for letters in itertools.product("+-", repeat=3):
            word = "".join(letters)
            for depth, level in enumerate(hierarchy_trace(g, fx.parts["r1"], word), start=1):
                levels[word[:depth]] = level.algebra
        assert len(levels) == 14
        for word, h in levels.items():
            assert check_lie_axioms(LieSuperAlgebra._trusted(h.space, h.nonzero)).ok, word

    def test_walk_makes_no_representation_check(self, rep_checks):
        fx = load_fixture("ex4.4")
        rep_checks.clear()
        hierarchy_walk(fx.parts["algebra"], fx.parts["r1"], "++++")
        assert rep_checks == []

    def test_depth_five_walk_within_five_seconds(self):
        fx = load_fixture("ex4.4")
        start = time.perf_counter()
        r = hierarchy_walk(fx.parts["algebra"], fx.parts["r1"], "+++++")
        assert time.perf_counter() - start < 5.0
        assert r.algebra.space.dim == 64

    def test_deeper_words_keep_all_stated_properties(self):
        fx = load_fixture("ex4.4")
        g = fx.parts["algebra"]
        for start in ("r0", "r1"):
            r = fx.parts[start]
            for word in ("+-", "-+", "--", "++"):
                levels = hierarchy_trace(g, r, word)
                dim = g.space.dim
                parity = r.parity
                for letter, level in zip(word, levels):
                    dim *= 2
                    if letter == "-":
                        parity ^= 1
                    assert level.algebra.space.dim == dim
                    assert level.parity == parity
                    assert is_pan_supersymmetric(level)
                    assert scybe_defect(level).is_zero()

    def test_oversized_word_refused_before_any_step(self, semidirect_products):
        fx = load_fixture("ex4.4")
        with pytest.raises(HierarchyCapExceeded, match="dimension cap 256"):
            hierarchy_trace(fx.parts["algebra"], fx.parts["r1"], "+-" * 20)
        assert semidirect_products == []

    def test_cap_admits_dimension_256_exactly(self, semidirect_products):
        # a non-solution start fails its check, so neither word is walked
        g = load_fixture("ex3.2").parts["algebra"]
        bad = RMatrix.from_terms(g, {("e", "e"): 1})
        with pytest.raises(HierarchyError, match="pan-supersymmetric"):
            hierarchy_trace(g, bad, "+" * 7)
        with pytest.raises(HierarchyCapExceeded):
            hierarchy_trace(g, bad, "+" * 8)
        assert semidirect_products == []

    def test_long_word_over_a_dim_zero_algebra_refused_before_any_step(self, semidirect_products):
        # a dim-0 algebra never reaches the dimension cap; its walks are
        # bounded by the longest one a nonzero algebra can take
        g = LieSuperAlgebra.from_brackets(SuperSpace.make(), {})
        zero = RMatrix.from_terms(g, {})
        assert [level.algebra.dim for level in hierarchy_trace(g, zero, "+-" * 4)] == [0] * 8
        semidirect_products.clear()
        for steps in (9, 20_000):
            with pytest.raises(HierarchyCapExceeded) as refused:
                hierarchy_trace(g, zero, "+" * steps)
            message = str(refused.value)
            assert f"a {steps}-letter word is longer than 8 letters" in message
            assert "ends above" not in message
        assert semidirect_products == []

    def test_a_bad_letter_is_refused_before_any_host(self, semidirect_products):
        # on a cold level memo, "+x" builds no '+' host before it refuses x
        fx = load_fixture("ex4.4")
        _level.cache_clear()
        with pytest.raises(HierarchyError, match=r"must be \+ or -, got 'x'"):
            hierarchy_trace(fx.parts["algebra"], fx.parts["r1"], "+x")
        assert semidirect_products == []

    def test_a_bad_letter_is_refused_before_the_root_checks(self, monkeypatch):
        # over an algebra that fails Jacobi, the letter is what is reported,
        # and no Lie check runs
        space = SuperSpace.make(even=["x", "y", "z"])
        bad = LieSuperAlgebra.from_brackets(space, {("x", "y"): {"z": 1}, ("y", "z"): {"y": 1}})
        jacobi = _count_calls(monkeypatch, "superybe.liesuper", "_hom_failures")
        with pytest.raises(HierarchyError, match=r"must be \+ or -, got 'x'"):
            hierarchy_trace(bad, RMatrix.from_terms(bad, {}), "x")
        assert jacobi == []

    def test_a_walk_over_an_equal_algebra_builds_and_checks_nothing(
        self, monkeypatch, semidirect_products
    ):
        # the second parse is another algebra object, equal to the first:
        # its walk reads the first one's hosts and kept report
        text = fileformat.emit(fixture_document("ex4.4"))
        first, second = fileformat.parse(text), fileformat.parse(text)
        assert first.algebra == second.algebra and first.algebra is not second.algebra
        jacobi = _count_calls(monkeypatch, "superybe.liesuper", "_hom_failures")

        def walk(doc):
            return hierarchy_trace(doc.algebra, RMatrix(doc.algebra, doc.tensors["r1"]), "+-")

        _level.cache_clear()
        semidirect_products.clear()
        cold = walk(first)
        assert len(semidirect_products) == 2 and len(jacobi) == 1
        semidirect_products.clear()
        jacobi.clear()
        warm = walk(second)
        assert semidirect_products == [] and jacobi == []
        assert warm == cold
        assert all(w.algebra is c.algebra for w, c in zip(warm, cold))

    def test_level_cache_stays_bounded(self):
        # 40 distinct algebras [a, b] = n b, each walked along "+-", ask
        # for 120 (algebra, prefix) keys
        space = SuperSpace.make(even=["a"], odd=["b"])
        misses = _level.cache_info().misses
        for n in range(1, 41):
            g = LieSuperAlgebra.from_brackets(space, {("a", "b"): {"b": n}})
            hierarchy_trace(g, RMatrix.from_terms(g, {}), "+-")
        info = _level.cache_info()
        assert info.misses - misses == 120
        assert info.maxsize == HOST_CACHE_SIZE
        assert info.currsize <= HOST_CACHE_SIZE

    def test_an_algebra_already_walked_still_refuses_a_bad_start(self):
        fx = load_fixture("ex4.4")
        level = hierarchy_walk(fx.parts["algebra"], fx.parts["r1"], "+")
        h = level.algebra
        hierarchy_trace(h, level, "+")
        # the walked object and an unchecked equal copy
        for algebra in (h, LieSuperAlgebra._trusted(h.space, h.nonzero)):
            terms = {
                ("(e,0)", "(0,e)"): 1,
                ("(0,e)", "(e,0)"): -1,
                ("(f,0)", "(f,0)"): 1,
                ("(0,f)", "(0,f)"): 1,
            }
            not_solution = RMatrix.from_terms(algebra, terms, parity=EVEN)
            assert is_pan_supersymmetric(not_solution)
            with pytest.raises(HierarchyError, match="does not solve"):
                hierarchy_trace(algebra, not_solution, "+")
            not_pan = RMatrix.from_terms(algebra, {("(e,0)", "(e,0)"): 1})
            with pytest.raises(HierarchyError, match="pan-supersymmetric"):
                hierarchy_trace(algebra, not_pan, "+")
        # an algebra that fails Jacobi is refused on every walk, whichever
        # equal copy is given
        space = SuperSpace.make(even=["x", "y", "z"])
        brackets = {("x", "y"): {"z": 1}, ("y", "z"): {"y": 1}}
        for _ in range(2):
            bad = LieSuperAlgebra.from_brackets(space, brackets)
            for _ in range(2):
                with pytest.raises(HierarchyError, match="super Jacobi"):
                    hierarchy_trace(bad, RMatrix.from_terms(bad, {}), "+")

    def test_trace_letters_compose(self):
        fx = load_fixture("ex4.4")
        g = fx.parts["algebra"]
        r = fx.parts["r1"]
        levels = hierarchy_trace(g, r, "+-")
        step1 = hierarchy_walk(g, r, "+")
        assert levels[0] == step1
        assert levels[1] == hierarchy_walk(step1.algebra, step1, "-")


@settings(max_examples=40, deadline=None)
@given(
    start=st.sampled_from(("r0", "r1")),
    scale=st.fractions(-4, 4, max_denominator=6).filter(bool),
    word=st.text("+-", max_size=4),
)
def test_a_warm_walk_is_the_cold_walk(start, scale, word):
    # a walk whose hosts come from the level cache, over an equal copy of
    # the algebra, equals the walk that builds them, level for level
    fx = load_fixture("ex4.4")
    g = fx.parts["algebra"]
    r = RMatrix(g, fx.parts[start].tensor.scale(scale))
    hierarchy_trace(g, r, word)
    twin = LieSuperAlgebra._trusted(g.space, g.nonzero)
    warm = hierarchy_trace(twin, RMatrix(twin, r.tensor), word)
    _level.cache_clear()
    cold = hierarchy_trace(g, r, word)
    assert len(warm) == len(cold) == len(word)
    for w, c in zip(warm, cold):
        assert w.algebra == c.algebra
        assert w.tensor == c.tensor
        assert w.tensor._cleared == c.tensor._cleared


def _printed_sl11_pair(parts, l1, l2, l3, l4):
    """The closing sl(1|1) display, coefficient for coefficient."""
    h = parts["pair_algebra"]
    r_t = RMatrix.from_terms(
        h,
        {
            ("e1", "v1*"): l2,
            ("e1", "v2*"): l3,
            ("f1", "w1*"): l1,
            ("f2", "w1*"): l2,
            ("f1", "w2*"): l3,
            ("f2", "w2*"): l4,
            ("v1*", "e1"): -l2,
            ("v2*", "e1"): -l3,
            ("w1*", "f1"): l1,
            ("w1*", "f2"): l2,
            ("w2*", "f1"): l3,
            ("w2*", "f2"): l4,
        },
        parity=EVEN,
    )
    r_ts = RMatrix.from_terms(
        h,
        {
            ("e1", "w2*"): -l2,
            ("e1", "w1*"): l3,
            ("f1", "v2*"): l1,
            ("f2", "v2*"): l2,
            ("f1", "v1*"): -l3,
            ("f2", "v1*"): -l4,
            ("w2*", "e1"): -l2,
            ("w1*", "e1"): l3,
            ("v2*", "f1"): l1,
            ("v2*", "f2"): l2,
            ("v1*", "f1"): -l3,
            ("v1*", "f2"): -l4,
        },
        parity=ODD,
    )
    return r_t, r_ts


def _sl11_pair_algebra():
    space = SuperSpace(
        ("e1", "v1*", "v2*", "f1", "f2", "w1*", "w2*"), (0, 0, 0, 1, 1, 1, 1)
    )
    return LieSuperAlgebra.from_brackets(
        space,
        {
            ("e1", "v1*"): {"v1*": -1},
            ("e1", "v2*"): {"v2*": -1},
            ("e1", "w1*"): {"w1*": -1},
            ("e1", "w2*"): {"w2*": -1},
            ("v1*", "f1"): {"w1*": 1},  # [f1, v1*] = -w1*
            ("f1", "w2*"): {"v2*": 1},
            ("v2*", "f2"): {"w2*": 1},  # [f2, v2*] = -w2*
            ("f2", "w1*"): {"v1*": 1},
            ("f1", "f2"): {"e1": 1},
        },
    )


class TestSameAlgebraPair:
    def test_closing_prelie_pair(self):
        fx = load_fixture("closing-prelie")
        pair = same_algebra_pair(
            fx.parts["identity"].map, fx.parts["left_regular"], fx.parts["phi"]
        )
        assert pair == (fx.parts["r_id"], fx.parts["r_ids"])
        assert pair[0].algebra == pair[1].algebra == fx.parts["algebra"]

    def test_closing_sl11_pair_printed_tables(self):
        fx = load_fixture("ex3.7")
        rho = fx.parts["rho"]
        phi = fx.parts["phi"]
        h = _sl11_pair_algebra()
        from superybe.liesuper import check_lie_axioms

        assert check_lie_axioms(h).ok
        for params in ((1, 1, 1, 1), (1, 2, 3, 6)):
            t = fx.parts["T3"](*params)
            r_t, r_ts = same_algebra_pair(t, rho, phi)
            assert r_t.algebra == h
            expected_t, expected_ts = _printed_sl11_pair(
                {"pair_algebra": h}, *[Fraction(p) for p in params]
            )
            assert r_t == expected_t
            assert r_ts == expected_ts
            assert scybe_defect(r_t).is_zero() and scybe_defect(r_ts).is_zero()

    def test_zero_operator_gives_zero_pair(self):
        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        phi = fx.parts["phi"]
        z = GradedLinearMap.zero(rho.space, fx.parts["algebra"].space, EVEN)
        r_t, r_ts = same_algebra_pair(z, rho, phi)
        assert r_t.tensor.is_zero() and r_ts.tensor.is_zero()

    def test_bad_intertwiner_rejected(self):
        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        srho_space = rho.space.suspended()
        bogus = GradedLinearMap.from_images(
            rho.space,
            srho_space,
            EVEN,
            {"v1": {"sw1": 1}, "v2": {"sw2": 1}, "w1": {"sv1": 1}, "w2": {"sv2": 1}},
        )
        t = load_fixture("ex3.7").parts["T3"](1, 1, 1, 1)
        with pytest.raises(ValueError):
            same_algebra_pair(t, rho, bogus)

    def test_an_odd_isomorphism_is_refused(self):
        # on the ex3.2 coadjoint double, an odd invertible phi commutes with
        # the actions without signs; it once gave r_{T^s} the parity |T|
        ex32 = load_fixture("ex3.2").parts
        double = self_reversing_double(ex32["coadjoint"])
        reverse = parity_reverse_rep(double)
        images = {"e*": {"se*": 1}, "sf*": {"f*": 1}, "f*": {"sf*": -1}, "se*": {"e*": -1}}
        phi = GradedLinearMap.from_images(double.space, reverse.space, ODD, images)
        assert is_intertwiner(phi, double, reverse) and phi.is_invertible()
        t = extend_to_double(ex32["T1"], ex32["coadjoint"]).map
        assert oop_holds(t, double)
        with pytest.raises(ValueError, match="^phi is not even$"):
            same_algebra_pair(t, double, phi)
