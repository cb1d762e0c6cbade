"""Plain-text file format for superalgebra data.

Line-oriented and hand-authorable: a `[space]` section declares the
algebra's basis, `[bracket]` its structure constants (i <= j entries
only, the rest follow from the sign rule), and optional `[space NAME]`,
`[rep NAME on SPACE]`, `[map NAME : SRC -> DST parity P]`,
`[tensor NAME]`, `[prelie NAME]` and `[form NAME]` sections carry the
other objects.  Each section is declared once: a second `[bracket]`, or
a second section of one kind and name, is a FormatError, as is a
`[space]` label that holds `=` or starts with `[`, which no later line
could name.  `#` starts a comment.  emit() produces a canonical text
whose parse returns equal objects.

Each object is built once, from its checked lines: every term is checked
for parity as it is read, and a line becomes a finished sparse cell, so
algebras and maps are built by `_trusted` with no second scan.  A
`[bracket]` line is written by `liesuper._write_bracket`, which refuses
it with `LieSuperAlgebra.from_brackets`' message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .graded import (
    EVEN,
    ODD,
    GradedLinearMap,
    SuperSpace,
    Tensor2,
    _format_pairs,
    _infer_parity,
    parity_name,
)
from .liesuper import BilinearForm, LieSuperAlgebra, _write_bracket
from .prelie import PreLieSuperAlgebra
from .reps import Representation

ALGEBRA_SPACE_NAME = "g"


class FormatError(Exception):
    def __init__(self, message: str, line: "int | None" = None):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class RawRep:
    """A parsed action table; verification happens on demand."""

    name: str
    space: SuperSpace
    action: tuple[GradedLinearMap, ...]

    def verify(self, algebra: LieSuperAlgebra) -> Representation:
        rho = Representation.__new__(Representation)
        return rho._checked(algebra, self.space, self.action, f"rep {self.name}")


@dataclass
class Document:
    spaces: "dict[str, SuperSpace]" = field(default_factory=dict)
    algebra: "LieSuperAlgebra | None" = None
    reps: "dict[str, RawRep]" = field(default_factory=dict)
    maps: "dict[str, GradedLinearMap]" = field(default_factory=dict)
    tensors: "dict[str, Tensor2]" = field(default_factory=dict)
    prelies: "dict[str, PreLieSuperAlgebra]" = field(default_factory=dict)
    forms: "dict[str, BilinearForm]" = field(default_factory=dict)

    def resolve_space(self, expr: str) -> SuperSpace:
        """A declared name, or a derived expression: trailing * takes the
        dual, a leading s suspends (declared names win over derivation)."""
        if expr in self.spaces:
            return self.spaces[expr]
        if expr.endswith("*"):
            return self.resolve_space(expr[:-1]).dual()
        if expr.startswith("s") and len(expr) > 1:
            return self.resolve_space(expr[1:]).suspended()
        raise KeyError(f"unknown space {expr!r}")

    def space_expression(self, space: SuperSpace) -> str:
        """Shortest expression over the declared spaces matching `space`."""
        candidates = []
        for name, base in self.spaces.items():
            derived = {
                name: base,
                name + "*": base.dual(),
                name + "**": base.dual().dual(),
                "s" + name: base.suspended(),
                "s" + name + "*": base.dual().suspended(),
                "s" + name + "**": base.dual().dual().suspended(),
            }
            for expr, value in derived.items():
                if value == space:
                    candidates.append(expr)
        if not candidates:
            raise KeyError("space is not expressible over the declared spaces")
        return min(candidates, key=len)

    def declare(self, space: SuperSpace, hint: str) -> str:
        """The shortest expression for `space`; if it has none, declare it
        under `hint`, with `_` appended until the name is free."""
        try:
            return self.space_expression(space)
        except KeyError:
            pass
        name = hint
        while name in self.spaces:
            name += "_"
        self.spaces[name] = space
        return name


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_HEADER_RE = re.compile(r"^\[(.*)\]$")
_MAP_HEADER_RE = re.compile(r"^map\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\s+parity\s+(\S+)$")


def _parse_rational(token: str, line: int) -> Fraction:
    m = _RATIONAL_RE.match(token)
    if not m:
        raise FormatError(f"malformed rational {token!r}", line)
    p, q = m.groups()
    try:
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in {token!r}", line) from None
    except ValueError:  # an integer longer than sys.get_int_max_str_digits()
        raise FormatError(f"rational of {len(token)} characters is too long", line) from None


def _parse_terms(rhs: str, space: SuperSpace, line: int) -> "dict[str, Fraction]":
    tokens = rhs.split()
    if tokens == ["0"]:
        return {}
    positions = space._positions
    terms: dict[str, Fraction] = {}
    i = 0
    while i < len(tokens):
        coeff = _parse_rational(tokens[i], line)
        if i + 1 >= len(tokens):
            raise FormatError("coefficient without a basis label", line)
        label = tokens[i + 1]
        if label not in positions:
            raise FormatError(f"unknown label {label!r}", line)
        if label in terms:
            terms[label] += coeff
        else:
            terms[label] = coeff
        i += 2
        if i < len(tokens):
            if tokens[i] != "+":
                raise FormatError(f"expected '+' between terms, got {tokens[i]!r}", line)
            i += 1
            if i == len(tokens):
                raise FormatError("dangling '+' at end of line", line)
    return terms


# section kind -> (the shape of its `a b = ...` lines, the name of one entry)
_PAIR_LINES = {
    "bracket": ("bracket lines look like 'a b = terms'", "bracket entry [{a}, {b}]"),
    "tensor": ("tensor lines look like 'a b = rational'", "tensor entry {a} {b}"),
    "prelie": ("product lines look like 'a b = terms'", "product entry {a} {b}"),
    "form": ("form lines look like 'a b = rational'", "form entry {a} {b}"),
}


def _pair_key(kind: str, lhs: str, space: SuperSpace, entries, line: int) -> "tuple[str, str]":
    """The labels (a, b) on the left of an `a b = ...` line: two labels
    of the space, as a pair the section has not given before."""
    shape, entry = _PAIR_LINES[kind]
    parts = lhs.split()
    if len(parts) != 2:
        raise FormatError(shape, line)
    for lab in parts:
        if lab not in space._positions:
            raise FormatError(f"unknown label {lab!r}", line)
    a, b = parts
    if (a, b) in entries:
        raise FormatError("duplicate " + entry.format(a=a, b=b), line)
    return a, b


def _algebra_space(doc: Document, line: int) -> SuperSpace:
    if ALGEBRA_SPACE_NAME not in doc.spaces:
        raise FormatError("the algebra's [space] section is missing", line)
    return doc.spaces[ALGEBRA_SPACE_NAME]


def _resolve(doc: Document, expr: str, line: int) -> SuperSpace:
    try:
        return doc.resolve_space(expr)
    except KeyError as exc:
        raise FormatError(str(exc.args[0]), line) from None


def _declare_once(taken: bool, what: str, line: int) -> None:
    if taken:
        raise FormatError(f"{what} declared twice", line)


def _graded_column(rhs: str, space: SuperSpace, target: int, what: str, line: int):
    """The nonzero terms of a line, each checked to have parity `target`,
    as (position, coefficient) pairs in ascending position: a finished
    cell of a `nonzero` table."""
    positions, P = space._positions, space.parities
    column = []
    for lab, c in _parse_terms(rhs, space, line).items():
        if c:
            k = positions[lab]
            if P[k] != target:
                raise FormatError(f"parity-inconsistent entry: {what} cannot contain {lab}", line)
            column.append((k, c))
    return tuple(sorted(column))


def _table(cells: dict, labels) -> tuple:
    """The cells `_graded_column` gave, keyed by label, in the order of
    `labels`; a label with no line gets the empty cell."""
    return tuple(cells.get(lab, ()) for lab in labels)


# A section opener checks its header and returns (entry, close): entry(lhs,
# rhs, line) reads one `lhs = rhs` line, close() builds the section's object
# into the document when the next header or the end of the text comes.


def _open_space(doc: Document, inner: str, tokens: list, line: int):
    if len(tokens) > 2:
        raise FormatError("space header takes at most one name", line)
    name = tokens[1] if len(tokens) == 2 else ALGEBRA_SPACE_NAME
    labels: dict = {"even": [], "odd": []}

    def entry(lhs, rhs, lineno):
        if lhs not in labels:
            raise FormatError("space entries are 'even = ...' or 'odd = ...'", lineno)
        for label in rhs.split():
            # no later line could name the label: it would split at its '='
            # or read as a section header
            if "=" in label or label.startswith("["):
                raise FormatError(
                    f"unreadable basis label {label!r}: a label may not hold '=' "
                    "or start with '['",
                    lineno,
                )
        labels[lhs].extend(rhs.split())

    def close():
        _declare_once(name in doc.spaces, f"space {name!r}", line)
        try:
            doc.spaces[name] = SuperSpace.make(**labels)
        except ValueError as exc:
            raise FormatError(str(exc), line) from None

    return entry, close


def _open_bracket(doc: Document, inner: str, tokens: list, line: int):
    space = _algebra_space(doc, line)
    if len(tokens) != 1:
        raise FormatError("bracket header takes no arguments", line)
    _declare_once(doc.algebra is not None, "bracket", line)
    P = space.parities
    given: set = set()
    rows = [[()] * space.dim for _ in range(space.dim)]

    def entry(lhs, rhs, lineno):
        # an out-of-order pair is never stored, so it is never a duplicate
        a, b = _pair_key("bracket", lhs, space, given, lineno)
        i, j = space.index(a), space.index(b)
        cell = _graded_column(rhs, space, P[i] ^ P[j], f"[{a}, {b}]", lineno)
        try:
            _write_bracket(rows, space, i, j, cell)
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
        given.add((a, b))

    def close():
        doc.algebra = LieSuperAlgebra._trusted(space, tuple(map(tuple, rows)))

    return entry, close


def _open_rep(doc: Document, inner: str, tokens: list, line: int):
    if len(tokens) != 4 or tokens[2] != "on":
        raise FormatError("expected [rep NAME on SPACE]", line)
    g_space = _algebra_space(doc, line)
    space = _resolve(doc, tokens[3], line)
    name = tokens[1]
    _declare_once(name in doc.reps, f"rep {name!r}", line)
    columns: dict = {}

    def entry(lhs, rhs, lineno):
        parts = lhs.split()
        if len(parts) != 2:
            raise FormatError("rep lines look like 'x v = terms'", lineno)
        a, v = parts
        for lab, labelled in ((a, g_space), (v, space)):
            if lab not in labelled._positions:
                raise FormatError(f"unknown label {lab!r}", lineno)
        target = (g_space.parities[g_space.index(a)] + space.parities[space.index(v)]) % 2
        cell = _graded_column(rhs, space, target, f"{a} {v}", lineno)
        column = columns.setdefault(a, {})
        if v in column:
            raise FormatError(f"duplicate rep entry {a} {v}", lineno)
        column[v] = cell

    def close():
        action = tuple(
            GradedLinearMap._trusted(space, space, p, _table(columns.get(lab, {}), space.labels))
            for lab, p in zip(g_space.labels, g_space.parities)
        )
        doc.reps[name] = RawRep(name, space, action)

    return entry, close


def _open_map(doc: Document, inner: str, tokens: list, line: int):
    m = _MAP_HEADER_RE.match(inner)
    if not m:
        raise FormatError("expected [map NAME : SRC -> DST parity even|odd]", line)
    name, src_expr, dst_expr, par = m.groups()
    if par not in ("even", "odd"):
        raise FormatError(f"unknown parity {par!r}", line)
    src, dst = _resolve(doc, src_expr, line), _resolve(doc, dst_expr, line)
    _declare_once(name in doc.maps, f"map {name!r}", line)
    parity = EVEN if par == "even" else ODD
    columns: dict = {}

    def entry(lhs, rhs, lineno):
        if lhs not in src._positions:
            raise FormatError(f"unknown label {lhs!r}", lineno)
        if lhs in columns:
            raise FormatError(f"duplicate map entry {lhs}", lineno)
        target = (src.parities[src.index(lhs)] + parity) % 2
        columns[lhs] = _graded_column(rhs, dst, target, f"image of {lhs}", lineno)

    def close():
        doc.maps[name] = GradedLinearMap._trusted(src, dst, parity, _table(columns, src.labels))

    return entry, close


def _open_slots(doc: Document, inner: str, tokens: list, line: int):
    """A `[tensor NAME]` or `[form NAME]` section of `a b = rational` lines,
    read into the object's nonzero slots, row-major, with the one parity
    `_infer_parity` finds in them.  A form of no slot is even, and a form of
    two parities is refused; a tensor of either has parity None."""
    kind = tokens[0]
    if len(tokens) != 2:
        raise FormatError(f"expected [{kind} NAME]", line)
    space = _algebra_space(doc, line)
    name = tokens[1]
    objects = doc.tensors if kind == "tensor" else doc.forms
    _declare_once(name in objects, f"{kind} {name!r}", line)
    values: dict = {}

    def entry(lhs, rhs, lineno):
        key = _pair_key(kind, lhs, space, values, lineno)  # the pair before the rational
        values[key] = _parse_rational(rhs, lineno)

    def close():
        index = space._positions
        slots = tuple(sorted(((index[a], index[b]), c) for (a, b), c in values.items() if c))
        parity = _infer_parity(space, space, slots)
        if kind == "tensor":
            objects[name] = Tensor2._trusted(space, space, slots, parity)
        elif parity is None and slots:
            raise FormatError(f"form {name!r} mixes parities", line)
        else:
            objects[name] = BilinearForm._trusted(space, slots, EVEN if parity is None else parity)

    return entry, close


def _open_prelie(doc: Document, inner: str, tokens: list, line: int):
    name, space_expr = "A", ALGEBRA_SPACE_NAME
    if len(tokens) == 2:
        name = tokens[1]
    elif len(tokens) == 4 and tokens[2] == "on":
        name, space_expr = tokens[1], tokens[3]
    elif len(tokens) != 1:
        raise FormatError("expected [prelie NAME (on SPACE)]", line)
    space = _resolve(doc, space_expr, line)
    _declare_once(name in doc.prelies, f"prelie {name!r}", line)
    entries: dict = {}
    shift = None  # the grading shift, fixed by the first nonzero term

    def entry(lhs, rhs, lineno):
        nonlocal shift
        a, b = _pair_key("prelie", lhs, space, entries, lineno)
        terms = _parse_terms(rhs, space, lineno)
        base = (space.parities[space.index(a)] + space.parities[space.index(b)]) % 2
        for lab, c in terms.items():
            if c == 0:
                continue
            term_shift = (space.parities[space.index(lab)] - base) % 2
            if shift is None:
                shift = term_shift
            elif shift != term_shift:
                raise FormatError(
                    f"parity-inconsistent entry: {a} {b} mixes grading shifts", lineno
                )
        entries[a, b] = terms

    def close():
        doc.prelies[name] = PreLieSuperAlgebra.from_products(
            space, entries, shift if shift is not None else EVEN
        )

    return entry, close


_OPENERS = {
    "space": _open_space,
    "bracket": _open_bracket,
    "rep": _open_rep,
    "map": _open_map,
    "tensor": _open_slots,
    "prelie": _open_prelie,
    "form": _open_slots,
}


def parse(text: str) -> Document:
    doc = Document()
    entry = close = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        header = _HEADER_RE.match(content)
        if header:
            if close is not None:
                close()
            inner = header.group(1).strip()
            tokens = inner.split()
            if not tokens:
                raise FormatError("empty section header", lineno)
            if tokens[0] not in _OPENERS:
                raise FormatError(f"unknown section kind {tokens[0]!r}", lineno)
            entry, close = _OPENERS[tokens[0]](doc, inner, tokens, lineno)
            continue
        if entry is None:
            raise FormatError("entry outside of any section", lineno)
        lhs, eq, rhs = content.partition("=")
        if not eq:
            raise FormatError("expected 'lhs = rhs'", lineno)
        entry(lhs.strip(), rhs.strip(), lineno)
    if close is not None:
        close()
    return doc


def _emit_slots(out: list, header: str, left: SuperSpace, right: SuperSpace, entries) -> None:
    """A `[tensor]` or `[form]` section: one line per stored nonzero slot."""
    out.append(header)
    out.extend(f"{left.labels[i]} {right.labels[j]} = {c}" for (i, j), c in entries)
    out.append("")


def emit(doc: Document) -> str:
    out: list[str] = []

    for name, space in doc.spaces.items():
        out.append("[space]" if name == ALGEBRA_SPACE_NAME else f"[space {name}]")
        evens = [l for l, p in zip(space.labels, space.parities) if p == EVEN]
        odds = [l for l, p in zip(space.labels, space.parities) if p == ODD]
        out.append("even = " + " ".join(evens))
        out.append("odd = " + " ".join(odds))
        out.append("")

    if doc.algebra is not None:
        space = doc.algebra.space
        out.append("[bracket]")
        for i, row in enumerate(doc.algebra.nonzero):
            for j in range(i, space.dim):
                if row[j]:
                    out.append(
                        f"{space.labels[i]} {space.labels[j]} = {_format_pairs(space, row[j])}"
                    )
        out.append("")

    for name, raw in doc.reps.items():
        expr = doc.space_expression(raw.space)
        out.append(f"[rep {name} on {expr}]")
        g_space = doc.spaces[ALGEBRA_SPACE_NAME]
        for alab, m in zip(g_space.labels, raw.action):
            for vlab, col in zip(raw.space.labels, m.nonzero):
                if col:
                    out.append(f"{alab} {vlab} = {_format_pairs(raw.space, col)}")
        out.append("")

    for name, m in doc.maps.items():
        src = doc.space_expression(m.domain)
        dst = doc.space_expression(m.codomain)
        out.append(f"[map {name} : {src} -> {dst} parity {parity_name(m.parity)}]")
        for lab, col in zip(m.domain.labels, m.nonzero):
            if col:
                out.append(f"{lab} = {_format_pairs(m.codomain, col)}")
        out.append("")

    for name, t in doc.tensors.items():
        _emit_slots(out, f"[tensor {name}]", t.left, t.right, t.entries)

    for name, a in doc.prelies.items():
        g_space = doc.spaces.get(ALGEBRA_SPACE_NAME)
        if g_space is not None and a.space == g_space:
            out.append(f"[prelie {name}]")
        else:
            out.append(f"[prelie {name} on {doc.space_expression(a.space)}]")
        L = a.space.labels
        for i, row in enumerate(a.nonzero):
            for j, cell in enumerate(row):
                if cell:
                    out.append(f"{L[i]} {L[j]} = {_format_pairs(a.space, cell)}")
        out.append("")

    for name, b in doc.forms.items():
        _emit_slots(out, f"[form {name}]", b.space, b.space, b.entries)

    return "\n".join(out).rstrip() + "\n"
