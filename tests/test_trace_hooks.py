"""The benchmark's tracer hooks library names by module attribute and by
`Class.method`, and its runner empties and reads the host caches at every
set-up; every one of them must resolve, so that a refactor that moves or
renames a hooked name fails here rather than in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from superybe import SuperSpace, Tensor2, load_fixture, operator_to_rmatrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
TARGETS = [(module, attr) for module, attrs in tracing.SPANS.items() for attr in attrs]
TARGETS += list(tracing.LEAVES)


def test_every_layer_is_a_module():
    for layer in tracing.LAYERS:
        importlib.import_module(f"superybe.{layer}")
    assert {module for module, _ in TARGETS} <= set(tracing.LAYERS)


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_hooked_name_resolves(module, attr):
    mod = importlib.import_module(f"superybe.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer wraps cls.__dict__[meth]: the method must be defined
        # on the class itself, not inherited or generated elsewhere
        assert callable(vars(getattr(mod, cls_name))[meth])
    else:
        assert callable(getattr(mod, attr))


def test_entry_pair_count_reads_the_nonzero_slots():
    """`rmatrix.scybe_defect.entry_pairs` squares `_nnz` of the tensor; it
    must count the stored nonzero slots however the tensor was built."""
    space = SuperSpace.make(even=["e"], odd=["f", "g"])
    terms = {("e", "e"): 2, ("f", "g"): "1/2", ("g", "f"): "-1/2", ("f", "f"): 0}
    sparse = Tensor2.from_terms(space, space, terms)
    dense = Tensor2(space, space, sparse.coeffs, sparse.parity)
    for t in (sparse, dense):
        assert tracing._nnz(t) == len(t.entries) == 3


def test_the_runner_counts_the_host_caches():
    # run.py's main runs only under __main__, so loading it runs nothing
    run = _load("run")
    fx = load_fixture("ex3.2")
    t, rho = fx.parts["T1"], fx.parts["coadjoint"]
    run.clear_host_caches()
    assert run.host_cache_info() == (0, 0)
    for _ in range(2):
        for variant in ("plain", "dual"):
            operator_to_rmatrix(t, rho, variant)
    # (hits, misses): one miss, then one hit, per variant
    assert run.host_cache_info() == (2, 2)
