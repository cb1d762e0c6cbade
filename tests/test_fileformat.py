import contextlib
import io
import json
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superybe import (
    EVEN,
    ODD,
    BilinearForm,
    GradedLinearMap,
    LieSuperAlgebra,
    SuperSpace,
    Tensor2,
    fixture_names,
    load_fixture,
)
from superybe.catalog import fixture_document
from superybe.cli import main
from superybe.fileformat import (
    ALGEBRA_SPACE_NAME,
    Document,
    FormatError,
    RawRep,
    emit,
    parse,
)

from conftest import gl11_with_supertrace

EX32_TEXT = """\
# the 1|1 algebra with its coadjoint operators
[space]
even = e
odd = f

[bracket]
e f = 1 f

[map T0 : g* -> g parity even]
f* = -1 f

[map T1 : g* -> g parity odd]
e* = 1 f
f* = -1 e

[tensor r0]
f f = 1

[tensor r1]
e f = 1
f e = 1
"""


def ex32_document() -> Document:
    fx = load_fixture("ex3.2")
    rfx = load_fixture("ex4.4")
    doc = Document()
    doc.spaces[ALGEBRA_SPACE_NAME] = fx.parts["algebra"].space
    doc.algebra = fx.parts["algebra"]
    doc.maps["T0"] = fx.parts["T0"]
    doc.maps["T1"] = fx.parts["T1"]
    doc.tensors["r0"] = rfx.parts["r0"].tensor
    doc.tensors["r1"] = rfx.parts["r1"].tensor
    coad = fx.parts["coadjoint"]
    doc.reps["coad"] = RawRep("coad", coad.space, coad.action)
    return doc


class TestParse:
    def test_parses_the_reference_text(self):
        doc = parse(EX32_TEXT)
        fx = load_fixture("ex3.2")
        assert doc.algebra == fx.parts["algebra"]
        assert doc.maps["T0"] == fx.parts["T0"]
        assert doc.maps["T1"] == fx.parts["T1"]
        assert doc.tensors["r0"] == load_fixture("ex4.4").parts["r0"].tensor

    def test_odd_diagonal_bracket_accepted(self):
        doc = parse("[space]\neven = e\nodd = f\n[bracket]\nf f = 1 e\n")
        f = doc.algebra.space.vector({"f": 1})
        assert doc.algebra.bracket(f, f) == doc.algebra.space.vector({"e": 1})

    def test_parity_inconsistent_bracket_reports_line(self):
        text = "[space]\neven = e\nodd = f\n[bracket]\ne f = 1 e\n"
        with pytest.raises(FormatError) as err:
            parse(text)
        assert err.value.line == 5
        assert "parity" in str(err.value)

    def test_unknown_label_reports_line(self):
        text = "[space]\neven = e\nodd = f\n[bracket]\ne q = 1 f\n"
        with pytest.raises(FormatError) as err:
            parse(text)
        assert err.value.line == 5
        assert "unknown label" in str(err.value)

    def test_malformed_rational_reports_line(self):
        text = "[space]\neven = e\nodd = f\n[tensor r]\ne e = 1.5\n"
        with pytest.raises(FormatError) as err:
            parse(text)
        assert err.value.line == 5
        assert "malformed rational" in str(err.value)

    def test_zero_denominator_reports_line(self):
        text = "[space]\neven = e\nodd = f\n[tensor r]\ne e = 1/0\n"
        with pytest.raises(FormatError) as err:
            parse(text)
        assert err.value.line == 5
        assert "zero denominator" in str(err.value)

    def test_zero_denominator_in_terms_reports_line(self):
        text = "[space]\neven = e\nodd = f\n[bracket]\ne f = 3/0 f\n"
        with pytest.raises(FormatError) as err:
            parse(text)
        assert err.value.line == 5

    def test_out_of_order_bracket_rejected(self):
        text = "[space]\neven = e\nodd = f\n[bracket]\nf e = -1 f\n"
        with pytest.raises(FormatError) as err:
            parse(text)
        assert "out of order" in str(err.value)

    def test_derived_space_expressions(self):
        text = (
            "[space]\neven = e\nodd = f\n[bracket]\ne f = 1 f\n"
            "[map T : sg* -> g parity even]\nse* = 1 f\n"
        )
        doc = parse(text)
        t = doc.maps["T"]
        assert t.domain.labels == ("sf*", "se*")
        assert t.parity == EVEN

    def test_rep_section_round_trip(self):
        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        doc = Document()
        doc.spaces[ALGEBRA_SPACE_NAME] = fx.parts["algebra"].space
        doc.algebra = fx.parts["algebra"]
        doc.spaces["V"] = rho.space
        doc.reps["rho"] = RawRep("rho", rho.space, rho.action)
        again = parse(emit(doc))
        assert again == doc
        assert again.reps["rho"].verify(doc.algebra) == rho

    def test_rep_verify_checks_once(self, rep_checks):
        rho = load_fixture("ex2.3").parts["rho"]
        raw = RawRep("rho", rho.space, rho.action)
        rep_checks.clear()
        assert raw.verify(rho.algebra) == rho
        assert len(rep_checks) == 1

    def test_rep_verify_rejects_a_non_representation(self):
        fx = load_fixture("ex2.3")
        rho = fx.parts["rho"]
        raw = RawRep("bad", rho.space, (rho.action[1],) * len(rho.action))
        with pytest.raises(ValueError, match="rep bad"):
            raw.verify(fx.parts["algebra"])

    def test_prelie_shift_inference(self):
        fx = load_fixture("ex3.20")
        doc = Document()
        doc.spaces[ALGEBRA_SPACE_NAME] = fx.parts["algebra"].space
        doc.algebra = fx.parts["algebra"]
        doc.spaces["V"] = fx.parts["rho"].space
        doc.prelies["dot"] = fx.parts["dot"]
        doc.prelies["star"] = fx.parts["star"]
        again = parse(emit(doc))
        assert again.prelies["dot"].parity_shift == ODD
        assert again.prelies["star"].parity_shift == EVEN
        assert again == doc

    def test_form_section(self):
        g, beta = gl11_with_supertrace()
        doc = Document()
        doc.spaces[ALGEBRA_SPACE_NAME] = g.space
        doc.algebra = g
        doc.forms["str"] = beta
        again = parse(emit(doc))
        assert again.forms["str"] == beta

    def test_form_sections_emit_their_stored_slots(self):
        # the supertrace form and the odd form of the gl(1|1) document CI classifies
        g, beta = gl11_with_supertrace()
        odd = BilinearForm.from_terms(g.space, {("a", "x"): 1, ("x", "a"): 1}, ODD)
        doc = Document({ALGEBRA_SPACE_NAME: g.space}, g, forms={"str": beta, "odd": odd})
        text = emit(doc)
        assert "gram" not in beta.__dict__ and "gram" not in odd.__dict__
        again = parse(text)
        assert again.forms == {"str": beta, "odd": odd}
        assert [f.parity for f in again.forms.values()] == [EVEN, ODD]
        assert not any("gram" in f.__dict__ for f in again.forms.values())

    def test_entry_outside_section_rejected(self):
        with pytest.raises(FormatError):
            parse("e f = 1 f\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n[space]  # trailing\neven = e\nodd = f\n"
        doc = parse(text)
        assert doc.spaces[ALGEBRA_SPACE_NAME].labels == ("e", "f")


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_random_documents_round_trip(data):
    even = data.draw(st.integers(min_value=0, max_value=3))
    odd = data.draw(st.integers(min_value=0, max_value=3))
    if even + odd == 0:
        even = 1
    space = SuperSpace.make(
        even=[f"a{i}" for i in range(even)], odd=[f"b{i}" for i in range(odd)]
    )
    n = space.dim
    rationals = st.fractions(
        min_value=-3, max_value=3, max_denominator=4
    )
    brackets = {}
    for i in range(n):
        for j in range(i, n):
            if i == j and space.parities[i] == EVEN:
                continue  # even diagonals must vanish
            target = (space.parities[i] + space.parities[j]) % 2
            terms = {}
            for k in range(n):
                if space.parities[k] == target and data.draw(st.booleans()):
                    terms[space.labels[k]] = data.draw(rationals)
            if terms:
                brackets[(space.labels[i], space.labels[j])] = terms
    doc = Document()
    doc.spaces[ALGEBRA_SPACE_NAME] = space
    # the format does not require Jacobi, only parity and skew-symmetry
    doc.algebra = LieSuperAlgebra.from_brackets(space, brackets)
    tensor_terms = {}
    for i in range(n):
        for j in range(n):
            if data.draw(st.booleans()):
                tensor_terms[(space.labels[i], space.labels[j])] = data.draw(rationals)
    doc.tensors["t"] = Tensor2.from_terms(space, space, tensor_terms)
    text = emit(doc)
    assert parse(text) == doc
    assert emit(parse(text)) == text


@lru_cache(maxsize=None)
def _fixture_text(name: str) -> str:
    return emit(fixture_document(name))


# the characters the format gives meaning to, plus label and digit samples
FORMAT_CHARS = "[]=+-*/:#|()\n\t 0123456789abefsuvwxy"
# tokens on the edges of the grammar, and of its rationals
FORMAT_TOKENS = ("/0", " 1/0", "0/0", "--", " = ", " + ", "[", "]", " -> ", " parity odd", "*", "s", "\n[space]\n")
RATIONAL_EDGES = ("1/0", "-3/0", "0/0", "1/", "/2", "--1", "+1", "1.5", "1e3", "\u00bd", "\u0663", "1/-2")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_fixture_documents_parse_or_raise_format_error(data):
    text = _fixture_text(data.draw(st.sampled_from(fixture_names())))
    snippets = st.one_of(
        st.sampled_from(FORMAT_TOKENS),
        st.text(alphabet=FORMAT_CHARS, min_size=1, max_size=8),
        st.text(max_size=3),
    )
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        kind = data.draw(st.sampled_from(("insert", "delete", "token", "number", "line")))
        if kind in ("insert", "delete"):
            at = data.draw(st.integers(min_value=0, max_value=len(text)))
            if kind == "insert":
                text = text[:at] + data.draw(snippets) + text[at:]
            else:
                text = text[:at] + text[at + data.draw(st.integers(min_value=1, max_value=8)) :]
        elif kind == "token":
            parts = re.split(r"(\s+)", text)  # tokens at the even indices
            i = 2 * data.draw(st.integers(min_value=0, max_value=len(parts) // 2))
            parts[i] = data.draw(snippets)
            text = "".join(parts)
        elif kind == "number":
            spans = [m.span() for m in re.finditer(r"-?[0-9]+(/[0-9]+)?", text)]
            if spans:
                a, b = data.draw(st.sampled_from(spans))
                text = text[:a] + data.draw(st.sampled_from(RATIONAL_EDGES)) + text[b:]
        else:
            lines = text.split("\n")
            i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
            j = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines.insert(j, lines[i])
            text = "\n".join(lines)
    try:
        doc = parse(text)
    except FormatError:
        return
    assert isinstance(doc, Document)


class TestRoundTrip:
    def test_catalog_document_round_trips(self):
        doc = ex32_document()
        assert parse(emit(doc)) == doc

    def test_emitted_text_is_stable(self):
        doc = ex32_document()
        text = emit(doc)
        assert emit(parse(text)) == text

    def test_reference_text_normalizes_to_itself_after_one_pass(self):
        text = emit(parse(EX32_TEXT))
        assert emit(parse(text)) == text

    def test_every_fixture_exports_and_round_trips(self):
        for name in fixture_names():
            doc = fixture_document(name)
            assert doc.algebra is not None, name
            again = parse(emit(doc))
            assert again == doc, name

    def test_exported_fixture_contains_its_objects(self):
        doc = fixture_document("ex4.4")
        assert {"T0", "T1"} <= set(doc.maps)
        assert {"r0", "r1"} <= set(doc.tensors)
        assert "coadjoint" in doc.reps
        closing = fixture_document("closing-prelie")
        assert "prelie" in closing.prelies
        assert {"r_id", "r_ids"} <= set(closing.tensors)

    def test_semidirect_labels_survive_round_trip(self):
        fx = load_fixture("ex3.17")
        doc = Document()
        doc.spaces[ALGEBRA_SPACE_NAME] = fx.parts["gplus"].space
        doc.algebra = fx.parts["gplus"]
        doc.tensors["r"] = fx.parts["r0_plus"].tensor
        again = parse(emit(doc))
        assert again == doc


# every error of an `a b = ...` line, per section kind, with its line
PAIR_SECTIONS = {
    "bracket": ("[bracket]", "e f = 1 f", "bracket lines look like 'a b = terms'",
                "duplicate bracket entry [e, f]"),
    "tensor": ("[tensor r]", "e f = 1", "tensor lines look like 'a b = rational'",
               "duplicate tensor entry e f"),
    "prelie": ("[prelie A]", "e f = 1 f", "product lines look like 'a b = terms'",
               "duplicate product entry e f"),
    "form": ("[form b]", "e f = 1", "form lines look like 'a b = rational'",
             "duplicate form entry e f"),
}


@pytest.mark.parametrize("kind", sorted(PAIR_SECTIONS))
@pytest.mark.parametrize(
    "case", ["one label", "three labels", "unknown left", "unknown right", "duplicate"]
)
def test_pair_line_errors_per_section(kind, case):
    header, good, shape, duplicate = PAIR_SECTIONS[kind]
    rhs = good.split("=", 1)[1]
    bad, message = {
        "one label": ("e =" + rhs, shape),
        "three labels": ("e f e =" + rhs, shape),
        "unknown left": ("x f =" + rhs, "unknown label 'x'"),
        "unknown right": ("e y =" + rhs, "unknown label 'y'"),
        "duplicate": (good, duplicate),
    }[case]
    text = f"[space]\neven = e\nodd = f\n\n{header}\n{good}\n{bad}\n"
    with pytest.raises(FormatError) as err:
        parse(text)
    assert (err.value.line, err.value.message) == (7, message)


# every FormatError the parser raises: document -> (line, message)
SPACE = "[space]\neven = e\nodd = f\n"  # lines 1-3
PARSE_ERRORS = {
    # document structure
    "empty header": ("[ ]\n", 1, "empty section header"),
    "unknown kind": (SPACE + "[frob]\n", 4, "unknown section kind 'frob'"),
    "entry outside": ("e = 1\n", 1, "entry outside of any section"),
    "no equals sign": (SPACE + "[bracket]\ne f 1 f\n", 5, "expected 'lhs = rhs'"),
    # [space]
    "space two names": ("[space a b]\n", 1, "space header takes at most one name"),
    "space entry key": ("[space]\neven = e\nboth = f\n", 3,
                        "space entries are 'even = ...' or 'odd = ...'"),
    "space repeated label": ("[space]\neven = e e\n", 1, "duplicate basis labels in ('e', 'e')"),
    "space label both parities": (SPACE + "[space V]\neven = v\nodd = v\n", 4,
                                  "duplicate basis labels in ('v', 'v')"),
    # emit would write lines that name these labels, and parse refuses them
    "space label with equals sign": ("[space]\neven = a=b\n", 2,
                                     "unreadable basis label 'a=b': a label may not hold '=' "
                                     "or start with '['"),
    "space label opening a header": (SPACE + "[space V]\neven = v\nodd = w [x]\n", 6,
                                     "unreadable basis label '[x]': a label may not hold '=' "
                                     "or start with '['"),
    "space declared twice": (SPACE + "[space]\neven = x\n", 4, "space 'g' declared twice"),
    "named space declared twice": (SPACE + "[space V]\neven = v\n[space V]\nodd = w\n", 6,
                                   "space 'V' declared twice"),
    # a redeclared space is refused when it closes, after its lines are read
    "redeclared space bad line": (SPACE + "[space]\nfoo = x\n", 5,
                                  "space entries are 'even = ...' or 'odd = ...'"),
    # [bracket]
    "bracket without space": ("[bracket]\n", 1, "the algebra's [space] section is missing"),
    "bracket arguments": (SPACE + "[bracket x]\n", 4, "bracket header takes no arguments"),
    "bracket out of order": (SPACE + "[bracket]\nf e = 1 f\n", 5,
                             "bracket entry [f, e] out of order; give the i <= j pair"),
    "bracket parity": (SPACE + "[bracket]\ne f = 1 e\n", 5,
                       "parity-inconsistent entry: [e, f] cannot contain e"),
    # a second [bracket] once replaced the algebra silently
    "bracket declared twice": (SPACE + "[bracket]\ne f = 1 f\n[bracket]\n", 6,
                               "bracket declared twice"),
    "bracket even diagonal": (SPACE + "[bracket]\ne e = 1 e\n", 5, "[e, e] must vanish for even e"),
    # terms
    "malformed rational": (SPACE + "[bracket]\ne f = x f\n", 5, "malformed rational 'x'"),
    "zero denominator": (SPACE + "[bracket]\ne f = 1/0 f\n", 5, "zero denominator in '1/0'"),
    "coefficient without label": (SPACE + "[bracket]\ne f = 1\n", 5,
                                  "coefficient without a basis label"),
    "unknown term label": (SPACE + "[bracket]\ne f = 1 z\n", 5, "unknown label 'z'"),
    "missing plus": (SPACE + "[bracket]\ne f = 1 f 2 f\n", 5, "expected '+' between terms, got '2'"),
    "dangling plus": (SPACE + "[bracket]\ne f = 1 f +\n", 5, "dangling '+' at end of line"),
    # [rep]
    "rep header one name": (SPACE + "[rep r]\n", 4, "expected [rep NAME on SPACE]"),
    "rep header not on": (SPACE + "[rep r at g]\n", 4, "expected [rep NAME on SPACE]"),
    "rep header before space": ("[rep r]\n", 1, "expected [rep NAME on SPACE]"),
    "rep without space": ("[rep r on g]\n", 1, "the algebra's [space] section is missing"),
    "rep unknown space": (SPACE + "[rep r on h*]\n", 4, "unknown space 'h'"),
    "rep declared twice": (SPACE + "[rep r on g]\n[rep r on g*]\n", 5, "rep 'r' declared twice"),
    "rep line shape": (SPACE + "[rep r on g]\ne = 1 e\n", 5, "rep lines look like 'x v = terms'"),
    "rep unknown algebra label": (SPACE + "[rep r on g]\nx e = 1 e\n", 5, "unknown label 'x'"),
    "rep unknown module label": (SPACE + "[rep r on g*]\ne e = 1 e*\n", 5, "unknown label 'e'"),
    "rep parity": (SPACE + "[rep r on g]\ne e = 1 f\n", 5,
                   "parity-inconsistent entry: e e cannot contain f"),
    "rep duplicate": (SPACE + "[rep r on g]\ne e = 1 e\ne e = 1 e\n", 6, "duplicate rep entry e e"),
    # a rep line's terms are read before its duplicate check
    "rep duplicate bad terms": (SPACE + "[rep r on g]\ne e = 1 e\ne e = 1 z\n", 6,
                                "unknown label 'z'"),
    # [map]
    "map header shape": (SPACE + "[map T g* -> g]\n", 4,
                         "expected [map NAME : SRC -> DST parity even|odd]"),
    "map unknown parity": (SPACE + "[map T : g* -> g parity neither]\n", 4,
                           "unknown parity 'neither'"),
    "map unknown source": (SPACE + "[map T : h -> g parity even]\n", 4, "unknown space 'h'"),
    "map unknown target": (SPACE + "[map T : g -> sk parity even]\n", 4, "unknown space 'k'"),
    "map declared twice": (SPACE + "[map T : g -> g parity even]\n[map T : g -> g parity odd]\n",
                           5, "map 'T' declared twice"),
    "map unknown label": (SPACE + "[map T : g* -> g parity even]\ne = 1 e\n", 5,
                          "unknown label 'e'"),
    "map duplicate": (SPACE + "[map T : g* -> g parity even]\ne* = 1 e\ne* = 1 e\n", 6,
                      "duplicate map entry e*"),
    # a map line's duplicate check comes before its terms
    "map duplicate bad terms": (SPACE + "[map T : g* -> g parity even]\ne* = 1 e\ne* = 1 z\n", 6,
                                "duplicate map entry e*"),
    "map parity": (SPACE + "[map T : g* -> g parity even]\ne* = 1 f\n", 5,
                   "parity-inconsistent entry: image of e* cannot contain f"),
    # [tensor]
    "tensor header": (SPACE + "[tensor]\n", 4, "expected [tensor NAME]"),
    "tensor without space": ("[tensor r]\n", 1, "the algebra's [space] section is missing"),
    "tensor declared twice": (SPACE + "[tensor r]\n[tensor r]\n", 5, "tensor 'r' declared twice"),
    "tensor rational": (SPACE + "[tensor r]\ne f = 1 f\n", 5, "malformed rational '1 f'"),
    # the pair is checked before the rational
    "tensor duplicate bad rational": (SPACE + "[tensor r]\ne f = 1\ne f = x\n", 6,
                                      "duplicate tensor entry e f"),
    "tensor unknown label bad rational": (SPACE + "[tensor r]\nx f = y\n", 5, "unknown label 'x'"),
    # [prelie]
    "prelie header": (SPACE + "[prelie A at g]\n", 4, "expected [prelie NAME (on SPACE)]"),
    "prelie header on nothing": (SPACE + "[prelie A on]\n", 4, "expected [prelie NAME (on SPACE)]"),
    "prelie without space": ("[prelie]\n", 1, "unknown space 'g'"),
    "prelie unknown space": (SPACE + "[prelie A on h]\n", 4, "unknown space 'h'"),
    "prelie declared twice": (SPACE + "[prelie]\n[prelie A]\n", 5, "prelie 'A' declared twice"),
    "prelie shifts": (SPACE + "[prelie A]\ne e = 1 e\ne f = 1 e\n", 6,
                      "parity-inconsistent entry: e f mixes grading shifts"),
    # [form]
    "form header": (SPACE + "[form]\n", 4, "expected [form NAME]"),
    "form without space": ("[form b]\n", 1, "the algebra's [space] section is missing"),
    "form declared twice": (SPACE + "[form b]\n[form b]\n", 5, "form 'b' declared twice"),
    "form rational": (SPACE + "[form b]\ne e = 1/0\n", 5, "zero denominator in '1/0'"),
    # refused when the section closes, on its header line
    "form mixes parities": (SPACE + "[form b]\ne e = 1\ne f = 1\n", 4, "form 'b' mixes parities"),
    "form mixes parities next header": (SPACE + "[form b]\ne e = 1\ne f = 1\n[tensor r]\n", 4,
                                        "form 'b' mixes parities"),
}


# the cases `LieSuperAlgebra.from_brackets` refuses too, with the same
# message: the bracket entry of each case's refused line
FROM_BRACKETS_REFUSALS = {
    "bracket out of order": {("f", "e"): {"f": 1}},
    "bracket even diagonal": {("e", "e"): {"e": 1}},
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_every_parse_error_with_its_line(case):
    text, line, message = PARSE_ERRORS[case]
    with pytest.raises(FormatError) as err:
        parse(text)
    assert (err.value.line, err.value.message) == (line, message)
    if case in FROM_BRACKETS_REFUSALS:
        space = SuperSpace.make(even=["e"], odd=["f"])
        with pytest.raises(ValueError) as err:
            LieSuperAlgebra.from_brackets(space, FROM_BRACKETS_REFUSALS[case])
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# parse builds every map, rep action and algebra from its checked lines with
# no second scan; each must equal the public constructor's object


def _terms(rhs: str) -> dict:
    """The {label: coefficient} of a terms line, summed by Fraction(token)."""
    tokens = [t for t in rhs.split() if t != "+"]
    out: dict = {}
    if tokens != ["0"]:
        for c, label in zip(tokens[::2], tokens[1::2]):
            out[label] = out.get(label, 0) + Fraction(c)
    return out


def _public_objects(doc: Document, text: str):
    """(algebra, maps, rep actions) of a well-formed document, each built by
    the checked public constructor (`LieSuperAlgebra.from_brackets`,
    `GradedLinearMap.from_images`) from the terms of its lines; the spaces
    are the parsed document's."""
    sections = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            sections.append((line[1:-1].split(), []))
        elif line:
            lhs, rhs = line.split("=", 1)
            sections[-1][1].append((tuple(lhs.split()), rhs))
    g = doc.spaces.get(ALGEBRA_SPACE_NAME)
    algebra, maps, reps = None, {}, {}
    for header, raw_lines in sections:
        if header[0] not in ("bracket", "map", "rep"):
            continue
        lines = [(lhs, _terms(rhs)) for lhs, rhs in raw_lines]
        if header[0] == "bracket":
            algebra = LieSuperAlgebra.from_brackets(g, dict(lines))
        elif header[0] == "map":  # map NAME : SRC -> DST parity P
            src, dst = doc.resolve_space(header[3]), doc.resolve_space(header[5])
            parity = EVEN if header[7] == "even" else ODD
            images = {lhs[0]: terms for lhs, terms in lines}
            maps[header[1]] = GradedLinearMap.from_images(src, dst, parity, images)
        elif header[0] == "rep":  # rep NAME on SPACE
            space = doc.resolve_space(header[3])
            images: dict = {}
            for (a, v), terms in lines:
                images.setdefault(a, {})[v] = terms
            reps[header[1]] = tuple(
                GradedLinearMap.from_images(space, space, p, images.get(a, {}))
                for a, p in zip(g.labels, g.parities)
            )
    return algebra, maps, reps


def _assert_parse_matches_public_constructors(text: str) -> Document:
    doc = parse(text)
    algebra, maps, reps = _public_objects(doc, text)
    assert doc.algebra == algebra
    assert doc.maps == maps
    assert {name: raw.action for name, raw in doc.reps.items()} == reps
    return doc


@pytest.mark.parametrize("name", fixture_names())
def test_parsed_fixture_objects_equal_the_public_constructors(name):
    doc = _assert_parse_matches_public_constructors(_fixture_text(name))
    assert doc.algebra is not None


def test_parsed_hierarchy_outputs_equal_the_public_constructors(tmp_path):
    words = ("+", "-", "++", "+-", "-+", "--")
    walked = 0
    for name in fixture_names():
        fixture = fixture_document(name)
        path = tmp_path / f"{name}.sy"
        path.write_text(_fixture_text(name), encoding="utf-8")
        for tensor in fixture.tensors:
            for word in words:
                argv = ["hierarchy", str(path), "--tensor", tensor, f"--word={word}", "--json"]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                if code == 0:
                    text = json.loads(out.getvalue())["document"]
                    doc = _assert_parse_matches_public_constructors(text)
                    assert doc.algebra.dim == fixture.algebra.dim << len(word)
                    walked += 1
    assert walked >= 2 * len(words)


def _coefficient(p: int, q: int, form: str) -> str:
    """p/q written as the grammar allows: a bare or zero-padded numerator,
    a fraction that need not be in lowest terms, or negative zero."""
    if form == "int":
        return str(p)
    if form == "padded":
        return f"{'-' if p < 0 else ''}00{abs(p)}"
    if form == "negative zero":
        return "-0" if q == 1 else f"-0/{q}"
    return f"{p}/{q}"


@st.composite
def _generated_documents(draw):
    """Documents with a bracket, a map and a rep on a small space whose lines
    write coefficients as p/q, 007 and -0, repeat labels and cancel terms
    (`1 f + -1 f`), also on labels of the wrong parity."""
    even = draw(st.integers(min_value=0, max_value=2))
    odd = draw(st.integers(min_value=1 if even == 0 else 0, max_value=2))
    labels = [f"e{i}" for i in range(even)] + [f"f{i}" for i in range(odd)]
    parities = [EVEN] * even + [ODD] * odd
    coefficients = st.builds(
        _coefficient,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["int", "padded", "negative zero", "fraction"]),
    )

    def line(target):
        """A terms line whose surviving terms have parity target."""
        terms = []
        for k in draw(st.lists(st.integers(0, len(labels) - 1), max_size=4)):
            c = draw(coefficients)
            if parities[k] == target and draw(st.booleans()):
                terms.append(f"{c} {labels[k]}")
            else:
                # cancelled, or a zero coefficient: nothing survives
                negated = c[1:] if c.startswith("-") else "-" + c
                terms += [f"{c} {labels[k]}", f"{negated} {labels[k]}"]
        return " + ".join(draw(st.permutations(terms))) if terms else "0"

    text = ["[space]", "even = " + " ".join(labels[:even]), "odd = " + " ".join(labels[even:])]
    text.append("[bracket]")
    for i in range(len(labels)):
        for j in range(i, len(labels)):
            if draw(st.booleans()):
                target = (parities[i] + parities[j]) % 2
                if i == j and parities[i] == EVEN:
                    target = None  # even diagonals must vanish: only cancelled terms
                text.append(f"{labels[i]} {labels[j]} = {line(target)}")
    map_parity = draw(st.sampled_from([EVEN, ODD]))
    text.append(f"[map T : g -> g parity {'even' if map_parity == EVEN else 'odd'}]")
    for i in draw(st.permutations(range(len(labels)))):
        if draw(st.booleans()):
            text.append(f"{labels[i]} = {line((parities[i] + map_parity) % 2)}")
    text.append("[rep rho on g]")
    for a in range(len(labels)):
        for v in range(len(labels)):
            if draw(st.booleans()):
                text.append(f"{labels[a]} {labels[v]} = {line((parities[a] + parities[v]) % 2)}")
    return "\n".join(text) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=_generated_documents())
def test_parsed_generated_objects_equal_the_public_constructors(text):
    _assert_parse_matches_public_constructors(text)
