import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import superybe
from superybe.catalog import fixture_document
from superybe.cli import _build_parser, main
from superybe.fileformat import emit, parse
from superybe.rmatrix import RMatrix

EX32 = """\
[space]
even = e
odd = f

[bracket]
e f = 1 f

[rep coad on g*]
e f* = -1 f*
f f* = -1 e*

[map T0 : g* -> g parity even]
f* = -1 f

[map T1 : g* -> g parity odd]
e* = 1 f
f* = -1 e

[map bad : g* -> g parity even]
e* = 1 e
f* = 1 f

[tensor r0]
f f = 1

[tensor ref]
e f = 1
"""

PRELIE = """\
[space]
even = e
odd = f

[bracket]
f f = -2 e

[prelie A]
e e = 1 e
e f = 1 f
f e = 1 f
f f = -1 e
"""

SL11 = """\
[space]
even = e1
odd = f1 f2

[bracket]
f1 f2 = 1 e1

[space V]
even = v1 v2
odd = w1 w2

[rep rho on V]
e1 v1 = 1 v1
e1 v2 = 1 v2
e1 w1 = 1 w1
e1 w2 = 1 w2
f1 v2 = 1 w2
f1 w1 = 1 v1
f2 v1 = 1 w1
f2 w2 = 1 v2
"""


# [x, [y, z]] = [x, y] != [[x, y], z] + [y, [x, z]] = 0: Jacobi fails
NONLIE = """\
[space]
even = x y z

[bracket]
x y = 1 z
y z = 1 y

[tensor r]
"""


@pytest.fixture
def ex32_file(tmp_path):
    path = tmp_path / "ex32.sy"
    path.write_text(EX32)
    return str(path)


@pytest.fixture
def prelie_file(tmp_path):
    path = tmp_path / "prelie.sy"
    path.write_text(PRELIE)
    return str(path)


@pytest.fixture
def sl11_file(tmp_path):
    path = tmp_path / "sl11.sy"
    path.write_text(SL11)
    return str(path)


class TestValidate:
    def test_valid_file(self, ex32_file, capsys):
        assert main(["validate", ex32_file]) == 0
        out = capsys.readouterr().out
        assert "super Jacobi: PASS" in out

    def test_invalid_rep_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.sy"
        path.write_text(
            "[space]\neven = e\nodd = f\n[bracket]\ne f = 1 f\n"
            # rescaled adjoint action: fails the homomorphism property
            "[rep r on g]\ne f = 2 f\nf e = -1 f\n"
        )
        assert main(["validate", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.sy"
        path.write_text("[space]\neven = e\nodd = f\n[bracket]\ne f = 1 e\n")
        assert main(["validate", str(path)]) == 2
        assert "line 5" in capsys.readouterr().err

    def test_zero_denominator_exits_two_with_line(self, tmp_path, capsys):
        path = tmp_path / "zero.sy"
        path.write_text("[space]\neven = e\nodd = f\n[bracket]\ne f = 1/0 f\n")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and "zero denominator" in err

    def test_second_bracket_exits_two_with_line(self, tmp_path, capsys):
        path = tmp_path / "twice.sy"
        path.write_text("[space]\neven = e\nodd = f\n[bracket]\ne f = 1 f\n[bracket]\n")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 6: bracket declared twice")

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent.sy"]) == 2

    def test_form_classification_is_reported(self, tmp_path, capsys):
        path = tmp_path / "form.sy"
        path.write_text(
            "[space]\neven = a b\nodd = x y\n"
            "[bracket]\na x = 1 x\na y = -1 y\nb x = -1 x\nb y = 1 y\nx y = 1 a + 1 b\n"
            "[form str]\na a = 1\nb b = -1\nx y = 1\ny x = -1\n"
        )
        assert main(["validate", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        flags = payload["forms"]["str"]
        assert flags["supersymmetric"] and flags["invariant"] and flags["non-degenerate"]


class TestCheckOop:
    def test_passing_map(self, ex32_file, capsys):
        assert main(["check-oop", ex32_file, "--map", "T0", "--rep", "coad"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_map_lists_defects(self, ex32_file, capsys):
        assert main(["check-oop", ex32_file, "--map", "bad", "--rep", "coad"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "defect[" in out

    def test_json_report(self, ex32_file, capsys):
        assert (
            main(["check-oop", ex32_file, "--map", "T1", "--rep", "coad", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["command"] == "check-oop"
        assert payload["checks"][0]["ok"] is True

    def test_unknown_map_exits_two(self, ex32_file):
        assert main(["check-oop", ex32_file, "--map", "nope", "--rep", "coad"]) == 2


class TestCheckCybe:
    def test_solution(self, ex32_file):
        assert main(["check-cybe", ex32_file, "--tensor", "r0"]) == 0

    def test_non_solution_lists_components(self, ex32_file, capsys):
        assert main(["check-cybe", ex32_file, "--tensor", "ref"]) == 1
        out = capsys.readouterr().out
        assert "defect[" in out

    def test_json_components(self, ex32_file, capsys):
        main(["check-cybe", ex32_file, "--tensor", "ref", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["defect_components"]

    def test_inhomogeneous_tensor_exits_one(self, tmp_path, capsys):
        path = tmp_path / "mixed.sy"
        path.write_text(EX32 + "\n[tensor r]\ne e = 1\ne f = 1\n")
        assert main(["check-cybe", str(path), "--tensor", "r"]) == 1
        assert capsys.readouterr().out == "tensor r is inhomogeneous: FAIL\n"


class TestDualize:
    def test_emits_reparsable_document(self, ex32_file, capsys):
        assert main(["dualize", ex32_file, "--map", "T1", "--rep", "coad"]) == 0
        out = capsys.readouterr().out
        start = out.index("[space]")
        doc = parse(out[start:])
        assert "T1s" in doc.maps
        assert doc.maps["T1s"].parity == 0
        assert "coads" in doc.reps


class TestBuildRMatrix:
    def test_plain_variant(self, ex32_file, capsys):
        assert (
            main(["build-rmatrix", ex32_file, "--map", "T0", "--rep", "coad"]) == 0
        )
        out = capsys.readouterr().out
        start = out.index("[space]")
        doc = parse(out[start:])
        assert doc.algebra is not None
        assert "r_T0" in doc.tensors

    def test_dual_variant_of_non_operator_fails(self, ex32_file, capsys):
        code = main(
            ["build-rmatrix", ex32_file, "--map", "bad", "--rep", "coad", "--variant", "dual"]
        )
        assert code == 1


class TestHierarchy:
    def test_plus_walk_matches_printed_tensor(self, ex32_file, capsys):
        assert main(["hierarchy", ex32_file, "--tensor", "r0", "--word", "+"]) == 0
        out = capsys.readouterr().out
        start = out.index("[space]")
        doc = parse(out[start:])
        from superybe import load_fixture

        fx = load_fixture("ex3.17")
        assert doc.algebra == fx.parts["gplus"]
        assert doc.tensors["r0_+"] == fx.parts["r0_plus"].tensor

    def test_trace_emits_every_level(self, ex32_file, capsys):
        assert (
            main(["hierarchy", ex32_file, "--tensor", "r0", "--word", "+-", "--trace"]) == 0
        )
        out = capsys.readouterr().out
        assert out.count("[bracket]") == 2

    def test_non_solution_start_exits_one(self, ex32_file):
        assert main(["hierarchy", ex32_file, "--tensor", "ref", "--word", "+"]) == 1

    def test_non_lie_algebra_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nonlie.sy"
        path.write_text(NONLIE)
        assert main(["hierarchy", str(path), "--tensor", "r", "--word=+"]) == 1
        assert "super Jacobi" in capsys.readouterr().out

    def test_double_minus_word(self, ex32_file, capsys):
        from superybe import hierarchy_walk

        assert main(["hierarchy", ex32_file, "--tensor", "r0", "--word=--"]) == 0
        out = capsys.readouterr().out
        doc = parse(out[out.index("[space]") :])
        start = parse(EX32)
        r0 = RMatrix(start.algebra, start.tensors["r0"])
        assert doc.tensors["r0_--"] == hierarchy_walk(start.algebra, r0, "--").tensor

    def test_oversized_word_exits_two(self, ex32_file, semidirect_products, capsys):
        assert main(["hierarchy", ex32_file, "--tensor", "r0", "--word", "+" * 40]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "dimension cap 256" in err
        assert semidirect_products == []

    def test_long_word_over_a_dim_zero_algebra_exits_two(self, tmp_path, semidirect_products, capsys):
        # no level of a dim-0 algebra passes the dimension cap, so the
        # refusal is by length alone, and claims no overflow
        path = tmp_path / "empty.sy"
        path.write_text("[space]\neven =\nodd =\n\n[bracket]\n\n[tensor r]\n")
        assert main(["hierarchy", str(path), "--tensor", "r", "--word", "+" * 8]) == 0
        capsys.readouterr()
        semidirect_products.clear()
        for steps in (9, 20_000):
            assert main(["hierarchy", str(path), "--tensor", "r", "--word", "+" * steps]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert f"a {steps}-letter word is longer than 8 letters" in err
            assert "dim-0" not in err and "ends above" not in err
        assert semidirect_products == []

    def test_malformed_word_exits_two(self, ex32_file):
        assert main(["hierarchy", ex32_file, "--tensor", "r0", "--word", "+x"]) == 2


class TestPrelieCommand:
    def test_subadjacent(self, prelie_file, capsys):
        assert main(["prelie", prelie_file, "subadjacent"]) == 0
        out = capsys.readouterr().out
        start = out.index("[space]")
        doc = parse(out[start:])
        f = doc.algebra.space.vector({"f": 1})
        assert doc.algebra.bracket(f, f) == doc.algebra.space.vector({"e": -2})

    def test_rmatrix_pair(self, prelie_file, capsys):
        assert main(["prelie", prelie_file, "rmatrix-pair"]) == 0
        out = capsys.readouterr().out
        assert "# plain variant" in out and "# dual variant" in out

    def test_rmatrix_pair_json(self, prelie_file, capsys):
        assert main(["prelie", prelie_file, "rmatrix-pair", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "plain" in payload and "dual" in payload

    @pytest.mark.parametrize("action", ["subadjacent", "rmatrix-pair"])
    def test_prelie_identity_checked_once(self, prelie_file, prelie_checks, capsys, action):
        assert main(["prelie", prelie_file, action]) == 0
        assert len(prelie_checks) == 1

    @pytest.mark.parametrize("action", ["subadjacent", "rmatrix-pair"])
    def test_invalid_product_exits_one(self, tmp_path, prelie_checks, capsys, action):
        path = tmp_path / "bad.sy"
        path.write_text(PRELIE.replace("e f = 1 f", "e f = 2 f"))
        assert main(["prelie", str(path), action]) == 1
        assert "invalid pre-Lie product: fails at triple (e, f, f): FAIL" in capsys.readouterr().out
        assert len(prelie_checks) == 1

    @pytest.mark.parametrize("action", ["subadjacent", "rmatrix-pair"])
    def test_odd_product_exits_one(self, tmp_path, capsys, action):
        path = tmp_path / "odd.sy"
        path.write_text("[space]\neven = v\nodd = w\n\n[prelie dot]\nv v = 1 w\n")
        assert main(["prelie", str(path), action]) == 1
        assert "only a genuine (shift 0) product" in capsys.readouterr().out

    def test_from_oop(self, sl11_file, tmp_path, capsys):
        text = SL11 + "\n[map T : V -> g parity even]\nv1 = 1 e1\nw1 = 1 f2\n"
        path = tmp_path / "withmap.sy"
        path.write_text(text)
        assert (
            main(["prelie", str(path), "from-oop", "--map", "T", "--rep", "rho"]) == 0
        )
        out = capsys.readouterr().out
        assert "[prelie from_T" in out

    def test_from_oop_with_odd_operator(self, tmp_path, capsys):
        text = (
            "[space]\neven = e\nodd = f\n[bracket]\nf f = -2 e\n"
            "[space V]\neven = v\nodd = w\n"
            "[rep rho on V]\ne v = 1 v\ne w = 1 w\nf v = 1 w\nf w = -1 v\n"
            "[map T : V -> g parity odd]\nv = 1 f\nw = 1 e\n"
        )
        path = tmp_path / "odd.sy"
        path.write_text(text)
        assert main(["prelie", str(path), "from-oop", "--map", "T", "--rep", "rho"]) == 0
        out = capsys.readouterr().out
        start = out.index("[space]")
        doc = parse(out[start:])
        product = doc.prelies["from_T"]
        assert product.parity_shift == 1
        # the printed odd table: v.v = -w, v.w = v, w.v = v, w.w = w
        v = product.space.vector({"v": 1})
        w = product.space.vector({"w": 1})
        assert product.multiply(v, v) == product.space.vector({"w": -1})
        assert product.multiply(w, w) == w

    def test_from_oop_keeps_a_declared_space_named_p(self, tmp_path, capsys):
        # V*** has no expression over g and P, so the product space is
        # declared afresh, under a name the input does not use
        text = (
            "[space]\neven = e\nodd = f\n[bracket]\ne f = 1 f\n"
            "[space P]\neven = p\nodd = q\n"
            "[rep coad on g***]\ne f*** = -1 f***\nf f*** = -1 e***\n"
            "[map T0 : g*** -> g parity even]\nf*** = -1 f\n"
        )
        path = tmp_path / "p.sy"
        path.write_text(text)
        assert main(["prelie", str(path), "from-oop", "--map", "T0", "--rep", "coad"]) == 0
        out = capsys.readouterr().out
        doc = parse(out[out.index("[space]"):])
        assert doc.spaces["P"] == parse(text).spaces["P"]
        assert doc.spaces["P_"].labels == ("e***", "f***")
        assert doc.prelies["from_T0"].space == doc.spaces["P_"]
        assert "[prelie from_T0 on P_]" in out

    def test_from_oop_map_that_does_not_fit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "misfit.sy"
        retyped = "[map T0 : g -> g parity even]\nf = -1 f"
        path.write_text(EX32.replace("[map T0 : g* -> g parity even]\nf* = -1 f", retyped))
        assert main(["prelie", str(path), "from-oop", "--map", "T0", "--rep", "coad"]) == 2
        assert "map T0 does not fit rep coad" in capsys.readouterr().err


class TestSearch:
    def test_search_finds_printed_operators(self, sl11_file, capsys):
        code = main(
            [
                "search",
                sl11_file,
                "--rep",
                "rho",
                "--parity",
                "even",
                "--entries=-1,0,1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        start = out.index("[space]")
        doc = parse(out[start:])
        from superybe import load_fixture

        fx = load_fixture("ex3.7")
        rho = fx.parts["rho"]
        member = fx.parts["family_member"]
        assert doc.maps, "the zero operator at least"
        for t in doc.maps.values():
            assert member(t)

    def test_threads_flag_is_refused(self, sl11_file, capsys):
        args = ["search", sl11_file, "--rep", "rho", "--parity", "odd", "--entries=-1,0,1"]
        assert main(args) == 0
        assert main(args + ["--threads", "3"]) == 2

    def test_thread_count_variable_is_ignored(self, sl11_file, capsys, monkeypatch):
        monkeypatch.setenv("SUPERYBE_THREADS", "abc")
        args = ["search", sl11_file, "--rep", "rho", "--parity", "odd", "--entries", "0,1"]
        assert main(args) == 0

    def test_repeated_entries_are_searched_once(self, ex32_file, capsys):
        counts = {}
        for entries in ("0,1", "0,1,1", "0,1,1.0", "1,0,1"):
            args = ["search", ex32_file, "--rep", "coad", "--parity", "odd", "--json"]
            assert main(args + [f"--entries={entries}"]) == 0
            counts[entries] = json.loads(capsys.readouterr().out)["count"]
        assert counts == {"0,1": 2, "0,1,1": 2, "0,1,1.0": 2, "1,0,1": 2}

    def test_bad_entries_exit_two(self, sl11_file):
        args = ["search", sl11_file, "--rep", "rho", "--parity", "odd", "--entries", "x"]
        assert main(args) == 2

    def test_zero_denominator_entry_exits_two(self, sl11_file, capsys):
        args = ["search", sl11_file, "--rep", "rho", "--parity", "even", "--entries=0,1/0"]
        assert main(args) == 2
        assert "malformed rational '1/0'" in capsys.readouterr().err

    def test_too_many_solutions_exit_two(self, sl11_file, capsys, monkeypatch):
        args = ["search", sl11_file, "--rep", "rho", "--parity", "even", "--entries=-2,-1,0,1,2"]
        assert main(args + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 153
        monkeypatch.setattr("superybe.oop.GRID_SEARCH_SOLUTIONS_CAP", 152)
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: more than 152 solutions: the search exceeds the solutions cap 152\n"


class TestDemo:
    def test_demo_ex44(self, capsys):
        assert main(["demo", "ex4.4"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_demo_all_fixtures(self, capsys):
        from superybe import fixture_names

        for name in fixture_names():
            assert main(["demo", name]) == 0, name
        capsys.readouterr()

    def test_demo_json(self, capsys):
        assert main(["demo", "ex3.17", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_unknown_fixture_exits_two(self, capsys):
        assert main(["demo", "nope"]) == 2


def test_usage_error_exit_code():
    assert main(["not-a-command"]) == 2
    assert main([]) == 2


class TestParser:
    def test_built_once_per_process(self, ex32_file, capsys):
        _build_parser.cache_clear()
        assert main(["check-cybe", ex32_file, "--tensor", "r0"]) == 0
        assert main(["check-cybe", ex32_file, "--tensor", "ref"]) == 1
        assert _build_parser.cache_info().misses == 1

    def test_usage_error_on_a_later_call_exits_two(self, ex32_file, capsys):
        assert main(["check-cybe", ex32_file, "--tensor", "r0"]) == 0
        assert main(["check-cybe", ex32_file]) == 2
        assert main(["no-such-command"]) == 2
        assert main(["check-cybe", ex32_file, "--tensor", "r0"]) == 0


# ---------------------------------------------------------------------------
# the command contract as a table: each row runs one command in process on
# one document and names its exit code and its output lines


# [x, y] = z, [y, z] = y breaks Jacobi; x and z act on v, which breaks the
# homomorphism property; the product breaks left-symmetry
FAILS = """\
[space]
even = x y z
[bracket]
x y = 1 z
y z = 1 y
[space V]
even = v
[rep rho on V]
x v = 1 v
z v = 1 v
[space A]
even = e
odd = f
[prelie P on A]
e e = 1 e
e f = 2 f
f e = 1 f
f f = -1 e
"""

# FAILS after z -> -3/7 z and e -> 1/2 e: the structure constants have
# denominators 3 and 7 and the action 7, so the checks rescale their
# tables, and every witness must be FAILS'
RESCALED = """\
[space]
even = x y z
[bracket]
x y = -7/3 z
y z = -3/7 y
[space V]
even = v
[rep rho on V]
x v = 1 v
z v = -3/7 v
[space A]
even = e
odd = f
[prelie P on A]
e e = 1/2 e
e f = 1 f
f e = 1/2 f
f f = -2 e
"""

# gl(1|1) with its supertrace form and an odd form
GL11_FORMS = """\
[space]
even = a b
odd = x y
[bracket]
a x = 1 x
a y = -1 y
b x = -1 x
b y = 1 y
x y = 1 a + 1 b
[form str]
a a = 1
b b = -1
x y = 1
y x = -1
[form odd]
a x = 1
x a = 1
"""

EX32_TEXT = emit(fixture_document("ex3.2"))

DOCUMENTS = {
    "fails": FAILS,
    "rescaled": RESCALED,
    "gl11-forms": GL11_FORMS,
    # B is not an O-operator; its defects come in mirrored pairs
    "ex3.2-B": EX32_TEXT + "[map B : g* -> g parity even]\ne* = 1 e\nf* = 1 f\n",
    # H is T1 scaled by 3/7, an O-operator; B is not one
    "ex3.2-fractional": EX32_TEXT
    + "[map H : g* -> g parity odd]\ne* = 3/7 f\nf* = -3/7 e\n"
    + "[map B : g* -> g parity even]\ne* = 1/2 e\nf* = 2/3 f\n",
    # a coefficient longer than Python reads as an int by default
    "long-coefficient": "[space]\neven = e\nodd = f\n[bracket]\ne f = " + "1" * 5001 + " f\n",
}


FAILS_REPORT = (
    "algebra parity consistency: PASS",
    "algebra super skew-symmetry: PASS",
    "algebra super Jacobi: FAIL (fails at triple (x, y, z))",
    "rep rho action shape and parity: PASS",
    "rep rho homomorphism property: FAIL (fails at pair (x, y))",
    "prelie P product grading: PASS",
    "prelie P left-symmetric associator: FAIL (fails at triple (e, f, f))",
)

NOT_AN_OOP = "solves the super CYBE: FAIL (the map is not an O-operator)"

# (document, the command line with the document's path left out, exit
# code, output lines): the lines are the whole of stdout, with ...
# standing for any run of lines
COMMANDS = [
    ("ex3.7", "search --rep rho --parity even --entries=-1/2,0,1/2 --json", 0,
     (..., '  "count": 41', ...)),
    ("ex3.7", "search --rep rho --parity odd --entries=-1/2,0,1/2 --json", 0,
     (..., '  "count": 41', ...)),
    ("ex3.7", "search --rep rho --parity even --entries=-2,-1,0,1,2 --json", 0,
     (..., '  "count": 153', ...)),
    ("ex3.7", "search --rep rho --parity odd --entries=-2,-1,0,1,2 --json", 0,
     (..., '  "count": 153', ...)),
    # a rational costs work bounded by its length: no exponent, no integer
    # past the digit limit
    ("ex3.7", "search --rep rho --parity even --entries=0,1e10000000", 2, ()),
    ("ex3.7", "search --rep rho --parity even --entries=0,1E2", 2, ()),
    ("long-coefficient", "validate", 2, ()),
    ("ex4.4", "check-cybe --tensor r0", 0,
     ("r0 solves the super CYBE: PASS", "r0 is pan-supersymmetric: yes")),
    ("ex4.4", "check-cybe --tensor r1", 0,
     ("r1 solves the super CYBE: PASS", "r1 is pan-supersymmetric: yes")),
    ("ex4.4", "hierarchy --tensor r1 --word=+++", 0, ("walked word '+++': PASS", "[space]", ...)),
    # words that start like an option
    ("ex4.4", "hierarchy --tensor r0 --word=--", 0,
     ("walked word '--': PASS", ..., "[tensor r0_--]", ...)),
    ("ex4.4", "hierarchy --tensor r0 --word=-+ --trace", 0,
     ("walked word '-+': PASS", "# level 1: -", ..., "[tensor r0_-]", ...,
      "# level 2: -+", ..., "[tensor r0_-+]", ...)),
    # the dual variant's space holds the suspended and double-dual labels
    ("ex3.2", "build-rmatrix --map T1 --rep coadjoint --variant dual", 0,
     ("induced tensor (even) solves the super CYBE: PASS", "[space]", "even = e sf**",
      "odd = f se**", ...)),
    ("ex3.2-fractional", "build-rmatrix --map H --rep coadjoint", 0,
     ("induced tensor (odd) solves the super CYBE: PASS", ...)),
    ("ex3.2-fractional", "build-rmatrix --map H --rep coadjoint --variant dual", 0,
     ("induced tensor (even) solves the super CYBE: PASS", ...)),
    ("ex3.2-fractional", "build-rmatrix --map B --rep coadjoint", 1,
     ("induced tensor (even) " + NOT_AN_OOP, ...)),
    ("ex3.2-fractional", "build-rmatrix --map B --rep coadjoint --variant dual", 1,
     ("induced tensor (odd) " + NOT_AN_OOP, ...)),
    ("ex3.2-B", "check-oop --map B --rep coadjoint", 1,
     ("B is an O-operator (even): FAIL (nonzero defects listed below)",
      "defect[e*, f*] = 2 f", "defect[f*, e*] = -2 f", "defect[f*, f*] = 2 e")),
    ("fails", "validate", 1, FAILS_REPORT),
    ("rescaled", "validate", 1, FAILS_REPORT),
    ("gl11-forms", "validate", 0,
     ("algebra parity consistency: PASS", "algebra super skew-symmetry: PASS",
      "algebra super Jacobi: PASS", "form str: supersymmetric, invariant, non-degenerate",
      "form odd: supersymmetric")),
    ("ex3.2", "dualize --map T1 --rep coadjoint", 0,
     ("parity duality produced the suspended candidate: PASS", "[space]", ...)),
    ("ex3.20", "prelie from-oop --map T --rep rho", 0,
     ("induced product (grading shift 1) built: PASS", "[space]", ...)),
    ("closing-prelie", "prelie rmatrix-pair", 0,
     ("even tensor solves the super CYBE: PASS", "odd tensor solves the super CYBE: PASS",
      "# plain variant", ...)),
]


def _text(document: str) -> str:
    """A table document's text: an entry of DOCUMENTS, or a catalog fixture
    as `emit` writes it."""
    return DOCUMENTS.get(document) or emit(fixture_document(document))


def _run(tmp_path, capsys, text: str, command: str):
    """(exit code, stdout, stderr) of the command on a document text."""
    path = tmp_path / "document.sy"
    path.write_text(text, encoding="utf-8")
    name, *rest = shlex.split(command)
    code = main([name, str(path), *rest])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "document, command, code, lines", COMMANDS, ids=[f"{d}: {c}" for d, c, _, _ in COMMANDS]
)
def test_command(tmp_path, capsys, document, command, code, lines):
    got, out, err = _run(tmp_path, capsys, _text(document), command)
    assert got == code
    pattern = "".join(r"(?:.*\n)*" if line is ... else re.escape(line) + r"\n" for line in lines)
    assert re.fullmatch(pattern, out), (out, err)


# (document, a command that emits a document, a command on that document,
# its exit code): the emitted document, as its --json report gives it,
# passes validate, and the second command answers as the first one did
READ_BACK = [
    ("ex3.2-fractional", "build-rmatrix --map H --rep coadjoint", "check-cybe --tensor r_H", 0),
    ("ex3.2-fractional", "build-rmatrix --map H --rep coadjoint --variant dual",
     "check-cybe --tensor r_H", 0),
    ("ex3.2-fractional", "build-rmatrix --map B --rep coadjoint", "check-cybe --tensor r_B", 1),
    ("ex3.2-fractional", "build-rmatrix --map B --rep coadjoint --variant dual",
     "check-cybe --tensor r_B", 1),
    ("ex3.2", "dualize --map T1 --rep coadjoint", "check-oop --map T1s --rep coadjoints", 0),
    ("ex3.2", "build-rmatrix --map T1 --rep coadjoint --variant dual",
     "check-cybe --tensor r_T1", 0),
    ("ex4.4", "hierarchy --tensor r1 --word=+-", "check-cybe --tensor r1_+-", 0),
    # the odd product of ex3.20's T: validate is the whole check
    ("ex3.20", "prelie from-oop --map T --rep rho", "validate", 0),
]


@pytest.mark.parametrize(
    "document, command, then, code", READ_BACK, ids=[f"{d}: {c}" for d, c, _, _ in READ_BACK]
)
def test_emitted_document_reads_back(tmp_path, capsys, document, command, then, code):
    got, out, _ = _run(tmp_path, capsys, _text(document), command + " --json")
    assert got == code
    emitted = json.loads(out)["document"]
    assert _run(tmp_path, capsys, emitted, "validate")[0] == 0
    assert _run(tmp_path, capsys, emitted, then)[0] == code


class TestModuleEntryPoint:
    """`python -m superybe` runs the same command line as `superybe`."""

    @staticmethod
    def command(*argv):
        """The argv and environment of `python -m superybe argv`."""
        src = str(Path(superybe.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return [sys.executable, "-m", "superybe", *argv], {**os.environ, "PYTHONPATH": path}

    def run(self, *argv):
        args, env = self.command(*argv)
        return subprocess.run(args, capture_output=True, text=True, env=env, timeout=60)

    def test_help(self):
        done = self.run("--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: superybe")

    # merge_spaces' pair notation can give two labels one name, (0,0) from
    # the two copies of 0 or (0,y,0) from 0,y and y,0, so the first host fails
    @pytest.mark.parametrize("even", ["0", "0,y y,0"])
    def test_unexpected_error_exits_three_in_one_line(self, tmp_path, even):
        path = tmp_path / "clash.sy"
        path.write_text(f"[space]\neven = {even}\nodd =\n\n[bracket]\n\n[tensor r]\n")
        done = self.run("hierarchy", str(path), "--tensor", "r", "--word=+")
        assert done.returncode == 3
        assert done.stderr.startswith("error: duplicate basis labels")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    def test_check_cybe(self, tmp_path, capsys):
        path = tmp_path / "ex4.4.sy"
        path.write_text(emit(fixture_document("ex4.4")), encoding="utf-8")
        done = self.run("check-cybe", str(path), "--tensor", "r1")
        assert done.returncode == 0
        assert main(["check-cybe", str(path), "--tensor", "r1"]) == 0
        assert done.stdout == capsys.readouterr().out

    def test_a_closed_stdout_exits_three_in_one_line(self, tmp_path):
        # the traced ++++++ walk prints about 100 KB, more than a pipe
        # buffer holds, so the reader closes the pipe before the walk's
        # output is all written
        path = tmp_path / "ex4.4.sy"
        path.write_text(emit(fixture_document("ex4.4")), encoding="utf-8")
        args, env = self.command("hierarchy", str(path), "--tensor", "r1", "--word=++++++", "--trace")
        with subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=60)
        assert first == "walked word '++++++': PASS\n"
        assert proc.returncode == 3
        assert stderr == "error: standard output was closed\n"
        assert "Traceback" not in stderr and "Exception ignored" not in stderr
