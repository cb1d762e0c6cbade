"""The public names of the package, README's naming of them, the
signatures other code wraps, and the caches the package docstring lists.

Deletions may only remove private names: `superybe.__all__` is pinned
here.  `GradedLinearMap.apply`, `column` and `__post_init__`,
`Representation.apply_vec` and `LieSuperAlgebra.bracket` are wrapped by
the benchmark's tracer and called by the test oracles, so they keep
their names and signatures.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import superybe
from superybe import GradedLinearMap, LieSuperAlgebra, Representation

PUBLIC_NAMES = [
    "BilinearForm", "CheckReport", "DegenerateRMatrix", "EVEN", "Fixture", "FormFlags",
    "GradedLinearMap", "GridSearchCapExceeded", "HierarchyCapExceeded", "HierarchyError",
    "LieSuperAlgebra", "ODD", "OOperatorCandidate", "OopReport", "PreLieSuperAlgebra",
    "RMatrix", "Representation", "Scalar", "SuperSpace", "Tensor2", "Tensor3", "adjoint",
    "beta_cocycle_check", "beta_form", "catalog", "check_lie_axioms", "check_prelie",
    "check_representation", "classify_form", "coadjoint", "compatible_prelie",
    "direct_sum_rep", "double_dual_embedding", "dual_map", "dual_rep", "extend_to_double",
    "find_even_isomorphism", "fixture_document", "fixture_names", "form_to_dual_map",
    "graded", "grid_search_oops", "hierarchy_trace", "hierarchy_walk", "identity_oop",
    "induced_coadjoint_operator", "induced_prelie", "is_intertwiner", "is_oop",
    "is_pan_supersymmetric", "is_rota_baxter", "is_self_dual", "is_self_reversing",
    "is_super_rmatrix", "left_regular_rep", "liesuper", "linalg", "load_fixture", "oop",
    "oop_holds", "operator_to_rmatrix", "operator_to_tensor", "pair2_eval", "pair_eval",
    "pair_eval_reversed", "parity_dual_oop", "parity_reverse_rep", "prelie",
    "prelie_from_oop", "prelie_rmatrix_pair", "product_from_oop", "rat", "reps", "rmatrix",
    "rmatrix_to_operator", "rota_baxter_transport", "same_algebra_pair", "scybe_defect",
    "self_reversing_double", "semidirect_product", "subadjacent", "suspend_map",
    "suspended_prelie", "transport_oop", "trivial_rep", "twist",
]


def test_public_names_are_pinned():
    assert sorted(superybe.__all__) == PUBLIC_NAMES


def test_wrapped_methods_keep_their_signatures():
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(GradedLinearMap.apply) == ["self", "v"]
    assert params(GradedLinearMap.column) == ["self", "i"]
    assert params(GradedLinearMap.__post_init__) == ["self"]
    assert params(Representation.apply_vec) == ["self", "x", "v"]
    assert params(LieSuperAlgebra.bracket) == ["self", "x", "y"]


README = Path(__file__).resolve().parent.parent / "README.md"
# a name in a code span, with no path or option before it: dotted, called
# (an opening parenthesis after it), or neither
_NAME = re.compile(r"(?<![\w./-])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\()?")


def _resolve(dotted: str):
    """The object a README name names in `superybe`, importing a
    submodule that the package does not import itself."""
    obj = superybe
    for part in dotted.removeprefix("superybe.").split("."):
        if not hasattr(obj, part) and inspect.ismodule(obj):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


def test_readme_names_the_public_api():
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    names = [m for span in re.findall(r"`([^`]+)`", text) for m in _NAME.findall(span)]
    unresolved = []
    for dotted, called in names:
        if "." in dotted or called:
            try:
                _resolve(dotted)
            except (AttributeError, ImportError):
                unresolved.append(dotted)
    assert unresolved == []
    parts = {part for dotted, _ in names for part in dotted.split(".")}
    assert sorted(part for part in parts if part.startswith("_")) == []
    assert sorted(set(superybe.__all__) - parts) == []


PACKAGE = Path(superybe.__file__).resolve().parent


def _kept_names() -> set:
    """Every name the package keeps a cache under: each `cached_property`
    and `lru_cache` it defines, and each `vars(x)["_name"] = ...` it writes."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = getattr(target, "attr", getattr(target, "id", None))
                    if name in ("cached_property", "lru_cache"):
                        names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Call)
                        and getattr(target.value.func, "id", None) == "vars"
                    ):
                        names.add(target.slice.value)
    return names


def test_the_package_docstring_lists_every_cache():
    """No cache is added without its row in the docstring's cache table,
    which states what it may hold."""
    table = superybe.__doc__.split("Every cache the library keeps", 1)[1]
    listed = set(re.findall(r"^    (_\w+) ", table, flags=re.M))
    assert listed == _kept_names()
    assert len(listed) == 17
