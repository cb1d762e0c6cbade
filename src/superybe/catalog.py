"""Worked-example fixtures.

Every registry entry builds concrete algebras, representations,
operators, tensors and products together with a list of named, cited
expectations; running every expectation of every fixture is the golden
test suite, and the CLI demo command prints them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graded import (
    EVEN,
    ODD,
    GradedLinearMap,
    SuperSpace,
    rat,
    relabel_domain,
    suspend_map,
    twist,
)
from .liesuper import LieSuperAlgebra, check_lie_axioms
from .oop import (
    OOperatorCandidate,
    is_oop,
    is_rota_baxter,
    oop_holds,
    parity_dual_oop,
    transport_oop,
)
from .prelie import (
    PreLieSuperAlgebra,
    check_prelie,
    compatible_prelie,
    identity_oop,
    left_regular_rep,
    prelie_rmatrix_pair,
    product_from_oop,
    subadjacent,
    suspended_prelie,
)
from .reps import (
    Representation,
    adjoint,
    coadjoint,
    find_even_isomorphism,
    is_intertwiner,
    parity_reverse_rep,
)
from .rmatrix import (
    RMatrix,
    hierarchy_walk,
    is_pan_supersymmetric,
    is_super_rmatrix,
    rmatrix_to_operator,
    same_algebra_pair,
)


@dataclass(frozen=True)
class Expectation:
    label: str
    citation: str
    check: Callable[[], bool]


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    parts: dict
    expectations: tuple[Expectation, ...]

    def run(self):
        """(label, citation, ok) for every expectation."""
        return [(e.label, e.citation, bool(e.check())) for e in self.expectations]


# ---------------------------------------------------------------------------
# shared building blocks


def _algebra_ef() -> LieSuperAlgebra:
    """1|1 algebra with [e, f] = f."""
    space = SuperSpace.make(even=["e"], odd=["f"])
    return LieSuperAlgebra.from_brackets(space, {("e", "f"): {"f": 1}})


def _t0_t1(g: LieSuperAlgebra):
    gd = g.space.dual()
    t0 = GradedLinearMap.from_images(gd, g.space, EVEN, {"f*": {"f": -1}})
    t1 = GradedLinearMap.from_images(gd, g.space, ODD, {"e*": {"f": 1}, "f*": {"e": -1}})
    return t0, t1


def _algebra_ff() -> LieSuperAlgebra:
    """1|1 algebra with [f, f] = -2e."""
    space = SuperSpace.make(even=["e"], odd=["f"])
    return LieSuperAlgebra.from_brackets(space, {("f", "f"): {"e": -2}})


def _sl11() -> LieSuperAlgebra:
    space = SuperSpace.make(even=["e1"], odd=["f1", "f2"])
    return LieSuperAlgebra.from_brackets(space, {("f1", "f2"): {"e1": 1}})


def _sl11_rep(g: LieSuperAlgebra) -> Representation:
    V = SuperSpace.make(even=["v1", "v2"], odd=["w1", "w2"])
    return Representation.from_images(
        g,
        V,
        {
            "e1": {"v1": {"v1": 1}, "v2": {"v2": 1}, "w1": {"w1": 1}, "w2": {"w2": 1}},
            "f1": {"v2": {"w2": 1}, "w1": {"v1": 1}},
            "f2": {"v1": {"w1": 1}, "w2": {"v2": 1}},
        },
    )


def _sl11_phi(rho: Representation) -> GradedLinearMap:
    sV = rho.space.suspended()
    return GradedLinearMap.from_images(
        rho.space,
        sV,
        EVEN,
        {"v1": {"sw2": -1}, "v2": {"sw1": 1}, "w1": {"sv2": 1}, "w2": {"sv1": -1}},
    )


def _ff_rep(g: LieSuperAlgebra) -> Representation:
    V = SuperSpace.make(even=["v"], odd=["w"])
    return Representation.from_images(
        g,
        V,
        {
            "e": {"v": {"v": 1}, "w": {"w": 1}},
            "f": {"v": {"w": 1}, "w": {"v": -1}},
        },
    )


# ---------------------------------------------------------------------------
# fixtures


def _fix_ex32() -> Fixture:
    g = _algebra_ef()
    coad = coadjoint(g)
    t0, t1 = _t0_t1(g)
    parts = {"algebra": g, "coadjoint": coad, "T0": t0, "T1": t1}
    expectations = (
        Expectation(
            "bracket table satisfies the Lie superalgebra axioms",
            "ex3.2: [e, f] = f",
            lambda: check_lie_axioms(g).ok,
        ),
        Expectation(
            "T0 is an even O-operator for the coadjoint action",
            "ex3.2: T0(e*) = 0, T0(f*) = -f",
            lambda: t0.parity == EVEN and is_oop(t0, coad).ok,
        ),
        Expectation(
            "T1 is an odd O-operator for the coadjoint action",
            "ex3.2: T1(e*) = f, T1(f*) = -e",
            lambda: t1.parity == ODD and is_oop(t1, coad).ok,
        ),
    )
    return Fixture(
        "ex3.2",
        "1|1 algebra [e, f] = f with its even and odd coadjoint O-operators",
        parts,
        expectations,
    )


def _fix_ex44() -> Fixture:
    g = _algebra_ef()
    coad = coadjoint(g)
    t0, t1 = _t0_t1(g)
    r0 = RMatrix.from_terms(g, {("f", "f"): 1})
    r1 = RMatrix.from_terms(g, {("e", "f"): 1, ("f", "e"): 1})
    parts = {"algebra": g, "r0": r0, "r1": r1, "T0": t0, "T1": t1, "coadjoint": coad}
    expectations = (
        Expectation(
            "r0 is even with sigma(r0) = -r0",
            "ex4.4: r0 = f(x)f",
            lambda: r0.parity == EVEN
            and twist(r0.tensor) == r0.tensor.scale(-1)
            and is_pan_supersymmetric(r0),
        ),
        Expectation(
            "r1 is odd with sigma(r1) = r1",
            "ex4.4: r1 = e(x)f + f(x)e",
            lambda: r1.parity == ODD
            and twist(r1.tensor) == r1.tensor
            and is_pan_supersymmetric(r1),
        ),
        Expectation(
            "r0 and r1 solve the super CYBE",
            "ex4.4: both tensors are solutions",
            lambda: is_super_rmatrix(r0) and is_super_rmatrix(r1),
        ),
        Expectation(
            "the tensors correspond to the printed operators",
            "ex4.4: tensors of T0 and T1",
            lambda: rmatrix_to_operator(r0) == t0 and rmatrix_to_operator(r1) == t1,
        ),
    )
    return Fixture(
        "ex4.4",
        "the two tensors corresponding to the ex3.2 operators",
        parts,
        expectations,
    )


def _gplus_literal() -> LieSuperAlgebra:
    space = SuperSpace(("(e,0)", "(0,e)", "(f,0)", "(0,f)"), (0, 0, 1, 1))
    return LieSuperAlgebra.from_brackets(
        space,
        {
            ("(e,0)", "(f,0)"): {"(f,0)": 1},
            ("(e,0)", "(0,f)"): {"(0,f)": 1},
            ("(0,e)", "(f,0)"): {"(0,f)": 1},  # i.e. [(f,0), (0,e)] = (0,-f)
        },
    )


def _gminus_literal() -> LieSuperAlgebra:
    space = SuperSpace(("e", "sf", "f", "se"), (0, 0, 1, 1))
    return LieSuperAlgebra.from_brackets(
        space,
        {
            ("e", "sf"): {"sf": 1},
            ("e", "f"): {"f": 1},
            ("f", "se"): {"sf": 1},
        },
    )


def _fix_ex317() -> Fixture:
    g = _algebra_ef()
    r0 = RMatrix.from_terms(g, {("f", "f"): 1})
    r1 = RMatrix.from_terms(g, {("e", "f"): 1, ("f", "e"): 1})
    gplus = _gplus_literal()
    gminus = _gminus_literal()
    r0_plus = RMatrix.from_terms(gplus, {("(f,0)", "(0,f)"): 1, ("(0,f)", "(f,0)"): 1})
    r0_minus = RMatrix.from_terms(gminus, {("f", "sf"): -1, ("sf", "f"): -1})
    r1_plus = RMatrix.from_terms(
        gplus,
        {
            ("(f,0)", "(0,e)"): 1,
            ("(e,0)", "(0,f)"): 1,
            ("(0,e)", "(f,0)"): 1,
            ("(0,f)", "(e,0)"): 1,
        },
    )
    r1_minus = RMatrix.from_terms(
        gminus,
        {("e", "sf"): -1, ("f", "se"): 1, ("sf", "e"): 1, ("se", "f"): 1},
    )
    parts = {
        "algebra": g,
        "r0": r0,
        "r1": r1,
        "gplus": gplus,
        "gminus": gminus,
        "r0_plus": r0_plus,
        "r0_minus": r0_minus,
        "r1_plus": r1_plus,
        "r1_minus": r1_minus,
    }
    expectations = (
        Expectation(
            "the + walk from r0 lands on the printed tensor and product table",
            "ex3.17: (f,0)(x)(0,f) + (0,f)(x)(f,0)",
            lambda: hierarchy_walk(g, r0, "+") == r0_plus,
        ),
        Expectation(
            "the - walk from r0 lands on the printed tensor and product table",
            "ex3.17: -f(x)sf - sf(x)f",
            lambda: hierarchy_walk(g, r0, "-") == r0_minus,
        ),
        Expectation(
            "the + walk from r1 lands on the printed tensor",
            "ex3.17: four terms in the adjoint double",
            lambda: hierarchy_walk(g, r1, "+") == r1_plus,
        ),
        Expectation(
            "the - walk from r1 lands on the printed tensor",
            "ex3.17: -e(x)sf + f(x)se + sf(x)e + se(x)f",
            lambda: hierarchy_walk(g, r1, "-") == r1_minus,
        ),
        Expectation(
            "both level-1 algebras satisfy the axioms",
            "ex3.17: the two semidirect product tables",
            lambda: check_lie_axioms(gplus).ok and check_lie_axioms(gminus).ok,
        ),
    )
    return Fixture(
        "ex3.17",
        "level-1 hierarchy pairs of the ex4.4 tensors with printed tables",
        parts,
        expectations,
    )


def _fix_ex23() -> Fixture:
    g = _sl11()
    rho = _sl11_rep(g)
    phi = _sl11_phi(rho)
    srho = parity_reverse_rep(rho)

    V1 = SuperSpace.make(even=["v1"], odd=["w1"])
    rho1 = Representation.from_images(
        g,
        V1,
        {
            "e1": {"v1": {"v1": 1}, "w1": {"w1": 1}},
            "f1": {"w1": {"v1": 1}},
            "f2": {"v1": {"w1": 1}},
        },
    )
    V2 = SuperSpace.make(even=["v2"], odd=["w2"])
    rho2 = Representation.from_images(
        g,
        V2,
        {
            "e1": {"v2": {"v2": 1}, "w2": {"w2": 1}},
            "f1": {"v2": {"w2": 1}},
            "f2": {"w2": {"v2": 1}},
        },
    )

    parts = {
        "algebra": g,
        "rho": rho,
        "phi": phi,
        "rho1": rho1,
        "rho2": rho2,
        "coadjoint": coadjoint(g),
    }
    expectations = (
        Expectation(
            "the bracket table and the 2|2 action verify",
            "ex2.3: [f1, f2] = e1 with the listed action",
            lambda: check_lie_axioms(g).ok,
        ),
        Expectation(
            "the printed map is an invertible even intertwiner onto the reverse",
            "ex2.3/eq33: v1 -> -sw2, v2 -> sw1, w1 -> sv2, w2 -> -sv1",
            lambda: is_intertwiner(phi, rho, srho) and phi.is_invertible(),
        ),
        Expectation(
            "the representation is self-reversing",
            "ex2.3: isomorphic to its parity reverse",
            lambda: find_even_isomorphism(rho, srho).found,
        ),
        Expectation(
            "the second summand is the reverse of the first",
            "ex2.3: V2 isomorphic to sV1",
            lambda: find_even_isomorphism(rho2, parity_reverse_rep(rho1)).found,
        ),
    )
    return Fixture(
        "ex2.3",
        "sl(1|1) with its self-reversing 2|2 representation",
        parts,
        expectations,
    )


def _ex37_families(g: LieSuperAlgebra, rho: Representation):
    V = rho.space
    gs = g.space

    def t1(k1, k2):
        k1, k2 = rat(k1), rat(k2)
        if k1 == 0:
            raise ValueError("the first family needs k1 != 0")
        return GradedLinearMap.from_images(
            V, gs, EVEN, {"v1": {"e1": k1}, "v2": {"e1": k2}}
        )

    def t2(k2):
        k2 = rat(k2)
        if k2 == 0:
            raise ValueError("the second family needs k2 != 0")
        return GradedLinearMap.from_images(V, gs, EVEN, {"v2": {"e1": k2}})

    def t3_shape(l1, l2, l3, l4):
        l1, l2, l3, l4 = rat(l1), rat(l2), rat(l3), rat(l4)
        return GradedLinearMap.from_images(
            V,
            gs,
            EVEN,
            {
                "v1": {"e1": l2},
                "v2": {"e1": l3},
                "w1": {"f1": l1, "f2": l2},
                "w2": {"f1": l3, "f2": l4},
            },
        )

    def t3(l1, l2, l3, l4):
        if rat(l1) * rat(l4) != rat(l2) * rat(l3):
            raise ValueError("the third family needs l1 l4 = l2 l3")
        return t3_shape(l1, l2, l3, l4)

    def t1_tilde(k1, k2):
        k1, k2 = rat(k1), rat(k2)
        return GradedLinearMap.from_images(
            V, gs, ODD, {"w1": {"e1": k2}, "w2": {"e1": -k1}}
        )

    def t2_tilde(k2):
        k2 = rat(k2)
        return GradedLinearMap.from_images(V, gs, ODD, {"w1": {"e1": k2}})

    def t3_tilde(l1, l2, l3, l4):
        l1, l2, l3, l4 = rat(l1), rat(l2), rat(l3), rat(l4)
        return GradedLinearMap.from_images(
            V,
            gs,
            ODD,
            {
                "v1": {"f1": -l3, "f2": -l4},
                "v2": {"f1": l1, "f2": l2},
                "w1": {"e1": l3},
                "w2": {"e1": -l2},
            },
        )

    def family_member(t: GradedLinearMap) -> bool:
        """Even maps that fit one of the three printed families."""
        if t.parity != EVEN:
            return False
        e1 = gs.index("e1")
        f1 = gs.index("f1")
        f2 = gs.index("f2")
        a = t.image_of("v1")[e1]
        b = t.image_of("v2")[e1]
        w1 = t.image_of("w1")
        w2 = t.image_of("w2")
        al, be = w1[f1], w1[f2]
        ga, de = w2[f1], w2[f2]
        if al == be == ga == de == 0:
            return True  # first or second family, or zero
        return be == a and ga == b and al * de == a * b

    return {
        "T1": t1,
        "T2": t2,
        "T3": t3,
        "T3_shape": t3_shape,
        "T1_tilde": t1_tilde,
        "T2_tilde": t2_tilde,
        "T3_tilde": t3_tilde,
        "family_member": family_member,
    }


def _fix_ex37() -> Fixture:
    g = _sl11()
    rho = _sl11_rep(g)
    phi = _sl11_phi(rho)
    fam = _ex37_families(g, rho)
    parts = {"algebra": g, "rho": rho, "phi": phi, **fam}

    def transported_matches(make, make_tilde, args):
        t = make(*args)
        cand = transport_oop(suspend_map(t), parity_reverse_rep(rho), phi, rho)
        return cand.map == make_tilde(*args)

    expectations = (
        Expectation(
            "sampled members of the three even families pass the identity",
            "ex3.7: printed even families",
            lambda: oop_holds(fam["T1"](1, 2), rho)
            and oop_holds(fam["T2"](3), rho)
            and oop_holds(fam["T3"](1, 2, 3, 6), rho)
            and oop_holds(fam["T3"]("1/2", 1, 2, 4), rho),
        ),
        Expectation(
            "violating the third family's constraint breaks the identity",
            "ex3.7: l1 l4 = l2 l3 is required",
            lambda: not oop_holds(fam["T3_shape"](1, 1, 1, 2), rho),
        ),
        Expectation(
            "transport along the printed intertwiner reproduces the odd families",
            "ex3.7: the three tilde tables",
            lambda: transported_matches(fam["T1"], fam["T1_tilde"], (1, 2))
            and transported_matches(fam["T2"], fam["T2_tilde"], (3,))
            and transported_matches(fam["T3"], fam["T3_tilde"], (1, 2, 3, 6)),
        ),
        Expectation(
            "the odd families satisfy the identity for the same representation",
            "ex3.7: tilde maps are odd O-operators",
            lambda: oop_holds(fam["T1_tilde"](1, 2), rho)
            and oop_holds(fam["T2_tilde"](3), rho)
            and oop_holds(fam["T3_tilde"](1, 2, 3, 6), rho),
        ),
    )
    return Fixture(
        "ex3.7",
        "the parametric O-operator families of the sl(1|1) module and their transports",
        parts,
        expectations,
    )


def _ex320_objects():
    g = _algebra_ff()
    rho = _ff_rep(g)
    t = GradedLinearMap.from_images(rho.space, g.space, ODD, {"v": {"f": 1}, "w": {"e": 1}})
    dot = PreLieSuperAlgebra.from_products(
        rho.space,
        {("v", "v"): {"w": -1}, ("v", "w"): {"v": 1}, ("w", "v"): {"v": 1}, ("w", "w"): {"w": 1}},
        parity_shift=ODD,
    )
    sV = rho.space.suspended()
    circ = PreLieSuperAlgebra.from_products(
        sV,
        {
            ("sv", "sv"): {"sw": -1},
            ("sv", "sw"): {"sv": 1},
            ("sw", "sv"): {"sv": 1},
            ("sw", "sw"): {"sw": 1},
        },
    )
    star = PreLieSuperAlgebra.from_products(
        g.space,
        {("e", "e"): {"e": 1}, ("e", "f"): {"f": 1}, ("f", "e"): {"f": 1}, ("f", "f"): {"e": -1}},
    )
    return g, rho, t, dot, circ, star


def _fix_ex320() -> Fixture:
    g, rho, t, dot, circ, star = _ex320_objects()
    parts = {"algebra": g, "rho": rho, "T": t, "dot": dot, "circ": circ, "star": star}
    dual = parity_dual_oop(t, rho)
    expectations = (
        Expectation(
            "the printed map is an invertible odd O-operator",
            "ex3.20: T(v) = f, T(w) = e",
            lambda: t.parity == ODD and t.is_invertible() and oop_holds(t, rho),
        ),
        Expectation(
            "the induced odd product matches the printed table",
            "ex3.20: v.v = -w, v.w = v, w.v = v, w.w = w",
            lambda: product_from_oop(t, rho) == dot,
        ),
        Expectation(
            "its suspension is the printed genuine pre-Lie product",
            "ex3.20: sv o sv = -sw etc.",
            lambda: suspended_prelie(t, rho) == circ and check_prelie(circ).ok,
        ),
        Expectation(
            "the parity-dual operator induces the same product on the suspension",
            "structures from T and its dual coincide",
            lambda: product_from_oop(dual.map, dual.rep) == circ,
        ),
        Expectation(
            "the compatible product matches the printed table",
            "ex3.20: e*e = e, e*f = f, f*e = f, f*f = -e",
            lambda: compatible_prelie(t, rho) == star and check_prelie(star).ok,
        ),
        Expectation(
            "the compatible product's supercommutator recovers the bracket",
            "ex3.20: sub-adjacent bracket [f, f] = -2e",
            lambda: subadjacent(star) == g,
        ),
    )
    return Fixture(
        "ex3.20",
        "odd invertible operator on the [f, f] = -2e algebra with all induced products",
        parts,
        expectations,
    )


def _fix_closing() -> Fixture:
    g, rho, t, dot, circ, star = _ex320_objects()
    lrep = left_regular_rep(star)
    ident = identity_oop(star)
    sA = star.space.suspended()
    phi = GradedLinearMap.from_images(star.space, sA, EVEN, {"e": {"sf": 1}, "f": {"se": 1}})

    h_space = SuperSpace(("e", "e*", "f", "f*"), (0, 0, 1, 1))
    h_literal = LieSuperAlgebra.from_brackets(
        h_space,
        {
            ("e", "f"): {},
            ("f", "f"): {"e": -2},
            ("e", "e*"): {"e*": -1},
            ("e", "f*"): {"f*": -1},
            ("e*", "f"): {"f*": -1},  # [f, e*] = f*
            ("f", "f*"): {"e*": 1},
        },
    )
    r_id_literal = RMatrix.from_terms(
        h_literal,
        {("e", "e*"): 1, ("e*", "e"): -1, ("f", "f*"): 1, ("f*", "f"): 1},
    )
    r_ids_literal = RMatrix.from_terms(
        h_literal,
        {("e", "f*"): 1, ("f*", "e"): 1, ("f", "e*"): 1, ("e*", "f"): 1},
    )

    pair = prelie_rmatrix_pair(star)
    parts = {
        "prelie": star,
        "left_regular": lrep,
        "identity": ident,
        "phi": phi,
        "algebra": h_literal,
        "r_id": r_id_literal,
        "r_ids": r_ids_literal,
        "pair": pair,
    }
    expectations = (
        Expectation(
            "the identity map is an even O-operator for the left regular action",
            "closing example: id on the compatible product",
            lambda: oop_holds(ident.map, ident.rep),
        ),
        Expectation(
            "the plain variant reproduces the printed tensor and product table",
            "closing example: e(x)e* - e*(x)e + f(x)f* + f*(x)f",
            lambda: pair[0] == r_id_literal,
        ),
        Expectation(
            "the dual variant solves the super CYBE with the opposite parity",
            "closing example: the odd companion tensor",
            lambda: pair[1].parity == ODD
            and is_pan_supersymmetric(pair[1])
            and is_super_rmatrix(pair[1]),
        ),
        Expectation(
            "the left regular representation is self-reversing via the printed map",
            "closing example: phi(e) = sf, phi(f) = se",
            lambda: is_intertwiner(phi, lrep, parity_reverse_rep(lrep))
            and phi.is_invertible(),
        ),
        Expectation(
            "the same-algebra pair reproduces both printed tensors",
            "closing example: odd supersymmetric companion in the same algebra",
            lambda: same_algebra_pair(ident.map, lrep, phi)
            == (r_id_literal, r_ids_literal),
        ),
        Expectation(
            "both printed tensors solve the super CYBE",
            "closing example",
            lambda: is_super_rmatrix(r_id_literal) and is_super_rmatrix(r_ids_literal),
        ),
    )
    return Fixture(
        "closing-prelie",
        "the compatible pre-Lie product and its parity pair of tensors in one algebra",
        parts,
        expectations,
    )


def _fix_rb_caveat() -> Fixture:
    g = _algebra_ff()
    r = GradedLinearMap.from_images(g.space, g.space, EVEN, {"e": {"e": 1}, "f": {"f": 2}})
    rs = suspend_map(r)
    srho = parity_reverse_rep(adjoint(g))
    # reading R^s as an odd endomorphism of g via the block-positional
    # identification sg = g (possible here since dim g_0 = dim g_1)
    rs_endo = relabel_domain(rs, g.space)
    parts = {"algebra": g, "R": r, "Rs": rs, "Rs_endo": rs_endo}
    expectations = (
        Expectation(
            "R is a weight-0 Rota-Baxter operator",
            "rb-caveat: R(e) = e, R(f) = 2f on the [f, f] = -2e algebra",
            lambda: is_rota_baxter(r, g),
        ),
        Expectation(
            "the parity dual passes for the reversed adjoint action",
            "parity duality of O-operators",
            lambda: oop_holds(rs, srho),
        ),
        Expectation(
            "read as an odd endomorphism, the dual is NOT Rota-Baxter",
            "rb-caveat: the naive parity flip fails on g",
            lambda: not is_rota_baxter(rs_endo, g),
        ),
    )
    return Fixture(
        "rb-caveat",
        "a Rota-Baxter operator whose parity dual is not Rota-Baxter on g",
        parts,
        expectations,
    )


_REGISTRY: dict[str, Callable[[], Fixture]] = {
    "ex3.2": _fix_ex32,
    "ex4.4": _fix_ex44,
    "ex3.17": _fix_ex317,
    "ex2.3": _fix_ex23,
    "ex3.7": _fix_ex37,
    "ex3.20": _fix_ex320,
    "closing-prelie": _fix_closing,
    "rb-caveat": _fix_rb_caveat,
}


def fixture_names() -> list[str]:
    return list(_REGISTRY)


def fixture_document(name: str):
    """Export a fixture's serializable parts as a file-format document.

    Only objects expressible over the fixture's own algebra make it in:
    parametric family generators and objects living in other algebras
    (hierarchy levels, semidirect hosts) are constructions, not data.
    """
    # imported on first use: an import at load time would make `fileformat`
    # a package attribute before `superybe.__all__` is built, and export it
    from .fileformat import ALGEBRA_SPACE_NAME, Document, RawRep

    fixture = load_fixture(name)
    doc = Document()
    algebra = fixture.parts.get("algebra")
    if isinstance(algebra, LieSuperAlgebra):
        doc.spaces[ALGEBRA_SPACE_NAME] = algebra.space
        doc.algebra = algebra

    for part_name, part in fixture.parts.items():
        if part_name == "algebra" or doc.algebra is None:
            continue
        if isinstance(part, OOperatorCandidate):
            part = part.map
        if isinstance(part, Representation):
            if part.algebra != doc.algebra:
                continue
            doc.declare(part.space, "V")
            doc.reps[part_name] = RawRep(part_name, part.space, part.action)
        elif isinstance(part, GradedLinearMap):
            doc.declare(part.domain, "V")
            doc.declare(part.codomain, "W")
            doc.maps[part_name] = part
        elif isinstance(part, RMatrix):
            if part.algebra == doc.algebra:
                doc.tensors[part_name] = part.tensor
        elif isinstance(part, PreLieSuperAlgebra):
            doc.declare(part.space, "P")
            doc.prelies[part_name] = part
    return doc


def load_fixture(name: str) -> Fixture:
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None
    return builder()
