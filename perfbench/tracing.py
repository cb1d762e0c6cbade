"""Spans and counters for the traced run, installed from outside the library.

`Tracer.install` replaces every binding of each wrapped function across
the `superybe` and `superybe.*` module namespaces (modules import names
directly, e.g. `cli` imports `scybe_defect`) and wraps methods on their
classes; `uninstall` puts the originals back.  Every wrapper keeps a call
count and a self time (its duration minus the part its wrapped callees
cover).  Wrappers in SPANS also record a span (name, start, end, parent
span, op id) in memory.  The hottest leaves (LEAVES) get counts and self
times only, and `Fraction` operations get counts only.

Counts and times are kept apart per phase: "setup" for the traced set-up,
"ops" for the traced replay of the timed ops.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graded", "linalg", "liesuper", "reps", "oop", "rmatrix", "fileformat", "cli", "catalog")

# module -> attribute paths wrapped with spans
SPANS = {
    "graded": ("suspend_map", "dual_map", "twist"),
    "linalg": ("rref", "rank", "nullspace", "invert", "det", "solve"),
    "liesuper": ("check_lie_axioms", "classify_form", "semidirect_product", "form_to_dual_map"),
    "reps": (
        "check_representation", "adjoint", "coadjoint", "dual_rep", "parity_reverse_rep",
        "direct_sum_rep", "self_reversing_double", "intertwiner_space",
        "find_even_isomorphism", "is_intertwiner", "is_self_reversing",
    ),
    "oop": ("oop_holds", "is_oop", "grid_search_oops", "parity_dual_oop", "transport_oop"),
    "rmatrix": (
        "scybe_defect", "is_super_rmatrix", "is_pan_supersymmetric", "rmatrix_to_operator",
        "operator_to_rmatrix", "induced_coadjoint_operator", "beta_form", "beta_cocycle_check",
        "hierarchy_trace", "hierarchy_walk",
    ),
    "fileformat": ("parse", "emit"),
    "cli": ("main",),
    "catalog": ("load_fixture", "fixture_document"),
}

# (module, attribute path) -> trace name, for the leaves without spans
LEAVES = {
    ("graded", "GradedLinearMap.apply"): "graded.GradedLinearMap.apply",
    ("graded", "GradedLinearMap.__post_init__"): "graded.GradedLinearMap.built",
    ("liesuper", "LieSuperAlgebra.bracket"): "liesuper.bracket",
    ("reps", "Representation.apply_vec"): "reps.apply_vec",
    ("oop", "oop_defect"): "oop.oop_defect",
}

FRACTION_EQ = ("__eq__",)
FRACTION_ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


def _nnz(tensor) -> int:
    # reads numerators so that the count adds no Fraction comparisons
    return sum(1 for row in tensor.coeffs for c in row if c.numerator)


# trace name -> hook(stats, args, result) adding the work a call did
MEASURES = {
    "rmatrix.scybe_defect": lambda stats, args, result: stats.extra.update(
        {"rmatrix.scybe_defect.entry_pairs": _nnz(args[0].tensor) ** 2}
    ),
    "oop.grid_search_oops": lambda stats, args, result: stats.extra.update(
        {"oop.grid.solutions": len(result)}
    ),
    "fileformat.emit": lambda stats, args, result: stats.extra.update(
        {"fileformat.emit.bytes": len(result.encode())}
    ),
}


class PhaseStats:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.extra = Counter()


class Tracer:
    def __init__(self):
        self.phases = {"setup": PhaseStats(), "ops": PhaseStats()}
        self.stats = self.phases["setup"]
        self.spans = []  # (name, start, end, parent index or None, op id)
        self.stack = [[None, 0.0]]  # [span index, time covered by wrapped callees]
        self.op = "setup"
        self._restore = []

    def enter(self, phase: str, op):
        self.stats = self.phases[phase]
        self.op = op

    def wrap(self, name: str, fn, span: bool):
        tracer = self
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1]
            frame = [None, 0.0]
            if span:
                frame[0] = len(tracer.spans)
                tracer.spans.append(None)
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                duration = end - start
                parent[1] += duration
                stats = tracer.stats
                stats.calls[name] += 1
                stats.self_s[name] += duration - frame[1]
                if span:
                    tracer.spans[frame[0]] = (name, start, end, parent[0], tracer.op)
            if measure is not None:
                measure(tracer.stats, args, result)
            return result

        return wrapper

    def _count(self, key: str, fn):
        tracer = self

        def counted(*args):
            tracer.stats.calls[key] += 1
            return fn(*args)

        return counted

    def install(self):
        namespaces = [m for n, m in list(sys.modules.items()) if n == "superybe" or n.startswith("superybe.")]
        targets = [(module, attr, f"{module}.{attr}", True) for module, attrs in SPANS.items() for attr in attrs]
        targets += [(module, attr, name, False) for (module, attr), name in LEAVES.items()]
        for module, attr, name, span in targets:
            mod = importlib.import_module(f"superybe.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original, span))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original, span)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._restore.append((ns, key, original))
        for key, dunders in (("graded.fraction_eq", FRACTION_EQ), ("graded.fraction_arith", FRACTION_ARITH)):
            for dunder in dunders:
                original = fractions.Fraction.__dict__[dunder]
                setattr(fractions.Fraction, dunder, self._count(key, original))
                self._restore.append((fractions.Fraction, dunder, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
