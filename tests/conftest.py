import importlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from superybe import (
    GradedLinearMap,
    LieSuperAlgebra,
    SuperSpace,
    Tensor2,
    coadjoint,
    load_fixture,
)
from superybe.liesuper import BilinearForm
from superybe.rmatrix import RMatrix


def random_homogeneous_map(rng, domain, codomain, parity, lo=-2, hi=2):
    grid = [[Fraction(0)] * domain.dim for _ in range(codomain.dim)]
    for k in range(codomain.dim):
        for i in range(domain.dim):
            if codomain.parities[k] == (domain.parities[i] ^ parity):
                grid[k][i] = Fraction(rng.randint(lo, hi))
    return GradedLinearMap(domain, codomain, parity, tuple(tuple(r) for r in grid))


def random_tensor(rng, space, lo=-2, hi=2, parity=None):
    """Random 2-tensor; homogeneous of the given parity when requested."""
    grid = [[Fraction(0)] * space.dim for _ in range(space.dim)]
    for i in range(space.dim):
        for j in range(space.dim):
            if parity is not None and (space.parities[i] + space.parities[j]) % 2 != parity:
                continue
            grid[i][j] = Fraction(rng.randint(lo, hi))
    return Tensor2(space, space, tuple(tuple(r) for r in grid), parity)


def random_pan_supersymmetric(rng, g, parity, lo=-2, hi=2, values=None):
    """sigma(r) = -(-1)^{|r|} r with free entries drawn at random: from
    values when given, else from lo..hi."""
    draw = (lambda: rng.choice(values)) if values else (lambda: rng.randint(lo, hi))
    space = g.space
    n = space.dim
    P = space.parities
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (P[i] + P[j]) % 2 != parity:
                continue
            if i == j:
                # the diagonal survives only when the twist sign is -1
                if (parity + P[i]) % 2 == 1:
                    grid[i][i] = Fraction(draw())
                continue
            value = Fraction(draw())
            grid[i][j] = value
            grid[j][i] = -(-1 if (parity + P[i] * P[j]) % 2 else 1) * value
    return RMatrix(g, Tensor2(space, space, tuple(tuple(r) for r in grid), parity))


def gl11_with_supertrace():
    """gl(1|1) and its even supersymmetric invariant non-degenerate form."""
    space = SuperSpace.make(even=["a", "b"], odd=["x", "y"])
    g = LieSuperAlgebra.from_brackets(
        space,
        {
            ("a", "x"): {"x": 1},
            ("a", "y"): {"y": -1},
            ("b", "x"): {"x": -1},
            ("b", "y"): {"y": 1},
            ("x", "y"): {"a": 1, "b": 1},
        },
    )
    beta = BilinearForm.from_terms(
        space, {("a", "a"): 1, ("b", "b"): -1, ("x", "y"): 1, ("y", "x"): -1}, 0
    )
    return g, beta


def equivalence_cases():
    """(name, algebra, distinguished representation) per catalog algebra."""
    ex32 = load_fixture("ex3.2")
    ex23 = load_fixture("ex2.3")
    ex320 = load_fixture("ex3.20")
    ex317 = load_fixture("ex3.17")
    return [
        ("ex3.2", ex32.parts["algebra"], ex32.parts["coadjoint"]),
        ("ex2.3", ex23.parts["algebra"], ex23.parts["rho"]),
        ("ex3.20", ex320.parts["algebra"], ex320.parts["rho"]),
        ("ex3.17+", ex317.parts["gplus"], coadjoint(ex317.parts["gplus"])),
        ("ex3.17-", ex317.parts["gminus"], coadjoint(ex317.parts["gminus"])),
    ]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def _count_calls(monkeypatch, module_name, function_name):
    """The list of calls to a library function made while the test runs,
    through any superybe module that binds the function."""
    original = getattr(importlib.import_module(module_name), function_name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "superybe" or name.startswith("superybe."):
            if getattr(module, function_name, None) is original:
                monkeypatch.setattr(module, function_name, counting)
    return calls


@pytest.fixture
def rep_checks(monkeypatch):
    """The representation checks made while the test runs: the calls of
    `reps._report_and_view`, which `check_representation` and the checked
    constructors run."""
    return _count_calls(monkeypatch, "superybe.reps", "_report_and_view")


@pytest.fixture
def prelie_checks(monkeypatch):
    """The check_prelie calls made while the test runs."""
    return _count_calls(monkeypatch, "superybe.prelie", "check_prelie")


@pytest.fixture
def semidirect_products(monkeypatch):
    """The semidirect hosts built while the test runs: the `_semidirect`
    calls, which `semidirect_product` and every rmatrix host make."""
    return _count_calls(monkeypatch, "superybe.liesuper", "_semidirect")


@pytest.fixture
def oop_holds_calls(monkeypatch):
    """The oop_holds calls made while the test runs."""
    return _count_calls(monkeypatch, "superybe.oop", "oop_holds")
