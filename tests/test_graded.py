from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superybe import (
    EVEN,
    ODD,
    GradedLinearMap,
    SuperSpace,
    Tensor2,
    double_dual_embedding,
    dual_map,
    load_fixture,
    pair2_eval,
    pair_eval,
    pair_eval_reversed,
    suspend_map,
    twist,
)
from superybe.graded import format_vector, rat, sign, suspend_label
from superybe.liesuper import BilinearForm

from conftest import random_homogeneous_map, random_tensor


def space_ef():
    return SuperSpace.make(even=["e"], odd=["f"])


class TestSuperSpace:
    def test_canonical_order_enforced(self):
        with pytest.raises(ValueError):
            SuperSpace(("f", "e"), (1, 0))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            SuperSpace.make(even=["e", "e"])

    def test_dual_keeps_index_set_and_parities(self):
        v = space_ef()
        d = v.dual()
        assert d.labels == ("e*", "f*")
        assert d.parities == v.parities

    def test_suspension_flips_and_reorders(self):
        v = space_ef()
        sv = v.suspended()
        assert sv.labels == ("sf", "se")
        assert sv.parities == (EVEN, ODD)

    def test_suspension_of_purely_even_is_purely_odd(self):
        v = SuperSpace.make(even=["u1", "u2"])
        sv = v.suspended()
        assert sv.odd_dim == 2 and sv.even_dim == 0

    def test_suspension_is_involutive(self):
        v = SuperSpace.make(even=["e", "u"], odd=["f"])
        assert v.suspended().suspended() == v

    def test_index_reads_the_cached_positions(self):
        v = SuperSpace.make(even=["e", "u"], odd=["f"])
        assert [v.index(label) for label in ("e", "u", "f")] == [0, 1, 2]
        with pytest.raises(KeyError, match="unknown basis label 'x'"):
            v.index("x")
        # the cached dict is no field: equality and hash read labels and parities
        fresh = SuperSpace.make(even=["e", "u"], odd=["f"])
        assert v == fresh and hash(v) == hash(fresh)
        assert v != SuperSpace.make(even=["u", "e"], odd=["f"])

    def test_suspend_label_toggles(self):
        assert suspend_label("e") == "se"
        assert suspend_label("se") == "e"
        assert suspend_label("e*") == "se*"


class TestGradedLinearMap:
    def test_homogeneity_enforced(self):
        v = space_ef()
        with pytest.raises(ValueError):
            GradedLinearMap.from_images(v, v, EVEN, {"e": {"f": 1}})

    def test_homogeneity_witness_is_the_row_major_first_offender(self):
        # two offenders: (e1, f2) comes first by rows, (f1, e2) by columns
        v = SuperSpace.make(even=["e1", "e2"], odd=["f1", "f2"])
        message = (
            "inhomogeneous map: entry (e1, f2) nonzero but parities disagree "
            "with declared map parity even"
        )
        m = [[Fraction(0)] * 4 for _ in range(4)]
        m[0][3] = Fraction(1)
        m[2][1] = Fraction(-1, 2)
        m[1][1] = Fraction(3)
        with pytest.raises(ValueError) as err:
            GradedLinearMap(v, v, EVEN, tuple(tuple(r) for r in m))
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            GradedLinearMap.from_images(
                v, v, EVEN, {"e2": {"f1": "-1/2", "e2": 3}, "f2": {"e1": 1}}
            )
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            BilinearForm(v, tuple(tuple(r) for r in m), EVEN)
        assert str(err.value) == "form entry (e1, f2) violates declared parity even"

    def test_composition_adds_parities(self):
        v = space_ef()
        t = GradedLinearMap.from_images(v, v, ODD, {"e": {"f": 1}, "f": {"e": 1}})
        assert t.compose(t).parity == EVEN

    def test_suspend_map_flips_parity_and_keeps_images(self):
        fx = load_fixture("ex3.2")
        t1 = fx.parts["T1"]
        ts = suspend_map(t1)
        assert ts.parity == EVEN
        assert ts.domain.labels == ("sf*", "se*")
        g = t1.codomain
        assert format_vector(g, ts.image_of("se*")) == "1 f"
        assert format_vector(g, ts.image_of("sf*")) == "-1 e"

    def test_suspend_zero_map(self):
        v = space_ef()
        z = GradedLinearMap.zero(v, v, EVEN)
        assert suspend_map(z).is_zero()
        assert suspend_map(z).parity == ODD

    def test_suspend_map_is_involutive(self, rng):
        v = SuperSpace.make(even=["e", "u"], odd=["f"])
        w = space_ef()
        for parity in (EVEN, ODD):
            t = random_homogeneous_map(rng, v, w, parity)
            assert suspend_map(suspend_map(t)) == t

    def test_dual_of_identity_is_identity(self):
        v = space_ef()
        assert dual_map(GradedLinearMap.identity(v)) == GradedLinearMap.identity(v.dual())

    def test_dual_map_frozen_values(self):
        # forced by <T*(x*), v> = (-1)^{|T||x*|} <x*, T(v)> on basis pairs
        t1 = load_fixture("ex3.2").parts["T1"]
        ts = dual_map(t1)
        assert format_vector(ts.codomain, ts.image_of("e*")) == "-1 f**"
        assert format_vector(ts.codomain, ts.image_of("f*")) == "-1 e**"

    def test_dual_map_pairing_identity(self, rng):
        v = SuperSpace.make(even=["v1"], odd=["w1", "w2"])
        g = SuperSpace.make(even=["e"], odd=["f"])
        for parity in (EVEN, ODD):
            for _ in range(25):
                t = random_homogeneous_map(rng, v, g, parity)
                ts = dual_map(t)
                for j in range(g.dim):
                    xstar = g.dual().basis_vector(j)
                    for i in range(v.dim):
                        vec = v.basis_vector(i)
                        lhs = pair_eval(v, ts.apply(xstar), vec)
                        rhs = sign(parity * g.parities[j]) * pair_eval(g, xstar, t.apply(vec))
                        assert lhs == rhs

    def test_double_dual_via_theta(self, rng):
        v = SuperSpace.make(even=["v1"], odd=["w1", "w2"])
        g = space_ef()
        theta_v = double_dual_embedding(v)
        theta_g = double_dual_embedding(g)
        for parity in (EVEN, ODD):
            t = random_homogeneous_map(rng, v, g, parity)
            assert dual_map(dual_map(t)).compose(theta_v) == theta_g.compose(t)


class TestTensor2:
    def test_shape_mismatch(self):
        v = space_ef()
        z = Fraction(0)
        for coeffs in (((z, z),), ((z, z), (z,)), ((z, z), (z, z), (z, z))):
            with pytest.raises(ValueError, match="^tensor coefficient shape mismatch$"):
                Tensor2(v, v, coeffs)

    def test_parity_witness_is_the_row_major_first_offender(self):
        # two offenders: (e1, f2) comes first by rows, (f1, e2) by columns
        v = SuperSpace.make(even=["e1", "e2"], odd=["f1", "f2"])
        message = "tensor entry (e1, f2) violates declared parity even"
        a = [[Fraction(0)] * 4 for _ in range(4)]
        a[0][3] = Fraction(1)
        a[2][1] = Fraction(-1, 2)
        a[1][1] = Fraction(3)
        with pytest.raises(ValueError) as err:
            Tensor2(v, v, tuple(tuple(r) for r in a), EVEN)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            Tensor2.from_terms(
                v, v, {("f1", "e2"): "-1/2", ("e2", "e2"): 3, ("e1", "f2"): 1}, EVEN
            )
        assert str(err.value) == message


class TestTwistAndPairings:
    def test_twist_on_odd_square(self):
        fx = load_fixture("ex4.4")
        r0 = fx.parts["r0"].tensor
        assert twist(r0) == r0.scale(-1)

    def test_twist_fixes_even_square(self):
        v = space_ef()
        t = Tensor2.from_terms(v, v, {("e", "e"): 1})
        assert twist(t) == t

    def test_twist_is_involutive(self, rng):
        v = SuperSpace.make(even=["e", "u"], odd=["f"])
        for _ in range(25):
            t = random_tensor(rng, v)
            assert twist(twist(t)) == t

    def test_dual_basis_pairing(self):
        v = space_ef()
        d = v.dual()
        assert pair_eval(v, d.vector({"f*": 1}), v.vector({"f": 1})) == 1
        assert pair_eval(v, d.vector({"f*": 1}), v.vector({"e": 1})) == 0

    def test_gram_matrix_is_identity(self):
        v = SuperSpace.make(even=["e", "u"], odd=["f"])
        for i in range(v.dim):
            for j in range(v.dim):
                value = pair_eval(v, v.dual().basis_vector(i), v.basis_vector(j))
                assert value == (1 if i == j else 0)

    def test_reversed_pairing_sign(self):
        v = space_ef()
        d = v.dual()
        assert pair_eval_reversed(v, v.vector({"f": 1}), d.vector({"f*": 1})) == -1
        assert pair_eval_reversed(v, v.vector({"e": 1}), d.vector({"e*": 1})) == 1

    def test_two_tensor_pairing_signs(self):
        v = space_ef()
        d = v.dual()
        fe_star = Tensor2.from_terms(d, d, {("f*", "e*"): 1})
        fe = Tensor2.from_terms(v, v, {("f", "e"): 1})
        assert pair2_eval(fe_star, fe) == 1
        ff_star = Tensor2.from_terms(d, d, {("f*", "f*"): 1})
        ff = Tensor2.from_terms(v, v, {("f", "f"): 1})
        assert pair2_eval(ff_star, ff) == -1


@given(
    num=st.integers(min_value=-40, max_value=40),
    den=st.integers(min_value=1, max_value=12),
)
def test_rat_is_exact(num, den):
    value = rat(f"{num}/{den}")
    assert value == Fraction(num, den)
    assert value.denominator > 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_composition_preserves_homogeneity(data):
    even = data.draw(st.integers(min_value=0, max_value=2))
    odd = data.draw(st.integers(min_value=0, max_value=2))
    if even + odd == 0:
        even = 1
    space = SuperSpace.make(
        even=[f"a{i}" for i in range(even)], odd=[f"b{i}" for i in range(odd)]
    )
    entries = st.integers(min_value=-2, max_value=2)

    def draw_map(parity):
        grid = [[Fraction(0)] * space.dim for _ in range(space.dim)]
        for k in range(space.dim):
            for i in range(space.dim):
                if space.parities[k] == (space.parities[i] ^ parity):
                    grid[k][i] = Fraction(data.draw(entries))
        return GradedLinearMap(space, space, parity, tuple(tuple(r) for r in grid))

    p1 = data.draw(st.integers(min_value=0, max_value=1))
    p2 = data.draw(st.integers(min_value=0, max_value=1))
    s = draw_map(p1)
    t = draw_map(p2)
    composed = s.compose(t)  # the constructor re-checks homogeneity
    assert composed.parity == (p1 + p2) % 2
