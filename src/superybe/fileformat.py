"""Plain-text file format for superalgebra data.

Line-oriented and hand-authorable: a `[space]` section declares the
algebra's basis, `[bracket]` its structure constants (i <= j entries
only, the rest follow from the sign rule), and optional `[space NAME]`,
`[rep NAME on SPACE]`, `[map NAME : SRC -> DST parity P]`,
`[tensor NAME]`, `[prelie NAME]` and `[form NAME]` sections carry the
other objects.  `#` starts a comment.  emit() produces a canonical text
whose parse returns equal objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .graded import (
    EVEN,
    ODD,
    ZERO,
    GradedLinearMap,
    SuperSpace,
    Tensor2,
    parity_name,
)
from .liesuper import BilinearForm, LieSuperAlgebra
from .prelie import PreLieSuperAlgebra
from .reps import Representation, check_representation

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
        report = check_representation(algebra, self.space, self.action)
        if not report.ok:
            raise ValueError(f"rep {self.name}: {report.failures()[0].detail}")
        return Representation._trusted(algebra, self.space, self.action)


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


_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")
_HEADER_RE = re.compile(r"^\[(.*)\]$")
_MAP_HEADER_RE = re.compile(r"^map\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\s+parity\s+(\S+)$")


def _parse_rational(token: str, line: int) -> Fraction:
    if not _RATIONAL_RE.match(token):
        raise FormatError(f"malformed rational {token!r}", line)
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in {token!r}", line) from None


def _parse_terms(rhs: str, space: SuperSpace, line: int) -> "dict[str, Fraction]":
    tokens = rhs.split()
    if tokens == ["0"]:
        return {}
    terms: dict[str, Fraction] = {}
    i = 0
    while i < len(tokens):
        coeff = _parse_rational(tokens[i], line)
        if i + 1 >= len(tokens):
            raise FormatError("coefficient without a basis label", line)
        label = tokens[i + 1]
        if label not in space.labels:
            raise FormatError(f"unknown label {label!r}", line)
        terms[label] = terms.get(label, ZERO) + coeff
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
        if lab not in space.labels:
            raise FormatError(f"unknown label {lab!r}", line)
    a, b = parts
    if (a, b) in entries:
        raise FormatError("duplicate " + entry.format(a=a, b=b), line)
    return a, b


class _Section:
    def __init__(self, kind: str, line: int, **data):
        self.kind = kind
        self.line = line
        self.data = data


def parse(text: str) -> Document:
    doc = Document()
    section: "_Section | None" = None

    def algebra_space(lineno: int) -> SuperSpace:
        if ALGEBRA_SPACE_NAME not in doc.spaces:
            raise FormatError("the algebra's [space] section is missing", lineno)
        return doc.spaces[ALGEBRA_SPACE_NAME]

    def finalize():
        nonlocal section
        if section is None:
            return
        s, section = section, None
        if s.kind == "space":
            if s.data["name"] in doc.spaces:
                raise FormatError(f"space {s.data['name']!r} declared twice", s.line)
            try:
                doc.spaces[s.data["name"]] = SuperSpace.make(
                    even=s.data["even"], odd=s.data["odd"]
                )
            except ValueError as exc:
                raise FormatError(str(exc), s.line) from None
        elif s.kind == "bracket":
            space = doc.spaces[ALGEBRA_SPACE_NAME]
            try:
                doc.algebra = LieSuperAlgebra.from_brackets(space, s.data["entries"])
            except ValueError as exc:
                raise FormatError(str(exc), s.line) from None
        elif s.kind == "rep":
            g_space = doc.spaces[ALGEBRA_SPACE_NAME]
            space = s.data["space"]
            action = []
            for a, lab in enumerate(g_space.labels):
                images = s.data["columns"].get(lab, {})
                action.append(
                    GradedLinearMap.from_images(space, space, g_space.parities[a], images)
                )
            doc.reps[s.data["name"]] = RawRep(s.data["name"], space, tuple(action))
        elif s.kind == "map":
            doc.maps[s.data["name"]] = GradedLinearMap.from_images(
                s.data["src"], s.data["dst"], s.data["parity"], s.data["columns"]
            )
        elif s.kind == "tensor":
            space = doc.spaces[ALGEBRA_SPACE_NAME]
            doc.tensors[s.data["name"]] = Tensor2.from_terms(
                space, space, s.data["entries"]
            )
        elif s.kind == "prelie":
            shift = s.data["shift"][0]
            doc.prelies[s.data["name"]] = PreLieSuperAlgebra.from_products(
                s.data["space"], s.data["entries"], shift if shift is not None else EVEN
            )
        elif s.kind == "form":
            space = doc.spaces[ALGEBRA_SPACE_NAME]
            entries = s.data["entries"]
            parities = {
                (space.parities[space.index(a)] + space.parities[space.index(b)]) % 2
                for (a, b), c in entries.items()
                if c != 0
            }
            if len(parities) > 1:
                raise FormatError(f"form {s.data['name']!r} mixes parities", s.line)
            parity = parities.pop() if parities else EVEN
            doc.forms[s.data["name"]] = BilinearForm.from_terms(space, entries, parity)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        header = _HEADER_RE.match(content)
        if header:
            finalize()
            inner = header.group(1).strip()
            tokens = inner.split()
            if not tokens:
                raise FormatError("empty section header", lineno)
            kind = tokens[0]
            if kind == "space":
                if len(tokens) == 1:
                    name = ALGEBRA_SPACE_NAME
                elif len(tokens) == 2:
                    name = tokens[1]
                else:
                    raise FormatError("space header takes at most one name", lineno)
                section = _Section("space", lineno, name=name, even=[], odd=[])
            elif kind == "bracket":
                algebra_space(lineno)
                if len(tokens) != 1:
                    raise FormatError("bracket header takes no arguments", lineno)
                section = _Section("bracket", lineno, entries={})
            elif kind == "rep":
                if len(tokens) != 4 or tokens[2] != "on":
                    raise FormatError("expected [rep NAME on SPACE]", lineno)
                algebra_space(lineno)
                try:
                    space = doc.resolve_space(tokens[3])
                except KeyError as exc:
                    raise FormatError(str(exc.args[0]), lineno) from None
                if tokens[1] in doc.reps:
                    raise FormatError(f"rep {tokens[1]!r} declared twice", lineno)
                section = _Section("rep", lineno, name=tokens[1], space=space, columns={})
            elif kind == "map":
                m = _MAP_HEADER_RE.match(inner)
                if not m:
                    raise FormatError(
                        "expected [map NAME : SRC -> DST parity even|odd]", lineno
                    )
                name, src_expr, dst_expr, par = m.groups()
                if par not in ("even", "odd"):
                    raise FormatError(f"unknown parity {par!r}", lineno)
                try:
                    src = doc.resolve_space(src_expr)
                    dst = doc.resolve_space(dst_expr)
                except KeyError as exc:
                    raise FormatError(str(exc.args[0]), lineno) from None
                if name in doc.maps:
                    raise FormatError(f"map {name!r} declared twice", lineno)
                section = _Section(
                    "map",
                    lineno,
                    name=name,
                    src=src,
                    dst=dst,
                    parity=EVEN if par == "even" else ODD,
                    columns={},
                )
            elif kind == "tensor":
                if len(tokens) != 2:
                    raise FormatError("expected [tensor NAME]", lineno)
                algebra_space(lineno)
                if tokens[1] in doc.tensors:
                    raise FormatError(f"tensor {tokens[1]!r} declared twice", lineno)
                section = _Section("tensor", lineno, name=tokens[1], entries={})
            elif kind == "prelie":
                name = "A"
                space_expr = ALGEBRA_SPACE_NAME
                if len(tokens) == 2:
                    name = tokens[1]
                elif len(tokens) == 4 and tokens[2] == "on":
                    name = tokens[1]
                    space_expr = tokens[3]
                elif len(tokens) != 1:
                    raise FormatError("expected [prelie NAME (on SPACE)]", lineno)
                try:
                    space = doc.resolve_space(space_expr)
                except KeyError as exc:
                    raise FormatError(str(exc.args[0]), lineno) from None
                if name in doc.prelies:
                    raise FormatError(f"prelie {name!r} declared twice", lineno)
                section = _Section(
                    "prelie", lineno, name=name, space=space, entries={}, shift=[None]
                )
            elif kind == "form":
                if len(tokens) != 2:
                    raise FormatError("expected [form NAME]", lineno)
                algebra_space(lineno)
                if tokens[1] in doc.forms:
                    raise FormatError(f"form {tokens[1]!r} declared twice", lineno)
                section = _Section("form", lineno, name=tokens[1], entries={})
            else:
                raise FormatError(f"unknown section kind {kind!r}", lineno)
            continue

        if section is None:
            raise FormatError("entry outside of any section", lineno)
        if "=" not in content:
            raise FormatError("expected 'lhs = rhs'", lineno)
        lhs, rhs = (part.strip() for part in content.split("=", 1))

        if section.kind == "space":
            if lhs == "even":
                section.data["even"].extend(rhs.split())
            elif lhs == "odd":
                section.data["odd"].extend(rhs.split())
            else:
                raise FormatError("space entries are 'even = ...' or 'odd = ...'", lineno)
        elif section.kind == "bracket":
            space = doc.spaces[ALGEBRA_SPACE_NAME]
            # an out-of-order pair is never stored, so it is never a duplicate
            a, b = _pair_key("bracket", lhs, space, section.data["entries"], lineno)
            i, j = space.index(a), space.index(b)
            if i > j:
                raise FormatError(
                    f"bracket entry [{a}, {b}] out of order; give the i <= j pair", lineno
                )
            terms = _parse_terms(rhs, space, lineno)
            target = (space.parities[i] + space.parities[j]) % 2
            for lab, c in terms.items():
                if c != 0 and space.parities[space.index(lab)] != target:
                    raise FormatError(
                        f"parity-inconsistent entry: [{a}, {b}] cannot contain {lab}", lineno
                    )
            if i == j and space.parities[i] == EVEN and any(c != 0 for c in terms.values()):
                raise FormatError(f"[{a}, {a}] must vanish for even {a}", lineno)
            section.data["entries"][(a, b)] = terms
        elif section.kind == "rep":
            space = section.data["space"]
            g_space = doc.spaces[ALGEBRA_SPACE_NAME]
            parts = lhs.split()
            if len(parts) != 2:
                raise FormatError("rep lines look like 'x v = terms'", lineno)
            a, v = parts
            if a not in g_space.labels:
                raise FormatError(f"unknown label {a!r}", lineno)
            if v not in space.labels:
                raise FormatError(f"unknown label {v!r}", lineno)
            terms = _parse_terms(rhs, space, lineno)
            target = (
                g_space.parities[g_space.index(a)] + space.parities[space.index(v)]
            ) % 2
            for lab, c in terms.items():
                if c != 0 and space.parities[space.index(lab)] != target:
                    raise FormatError(
                        f"parity-inconsistent entry: {a} {v} cannot contain {lab}", lineno
                    )
            columns = section.data["columns"].setdefault(a, {})
            if v in columns:
                raise FormatError(f"duplicate rep entry {a} {v}", lineno)
            columns[v] = terms
        elif section.kind == "map":
            src = section.data["src"]
            dst = section.data["dst"]
            if lhs not in src.labels:
                raise FormatError(f"unknown label {lhs!r}", lineno)
            if lhs in section.data["columns"]:
                raise FormatError(f"duplicate map entry {lhs}", lineno)
            terms = _parse_terms(rhs, dst, lineno)
            target = (src.parities[src.index(lhs)] + section.data["parity"]) % 2
            for lab, c in terms.items():
                if c != 0 and dst.parities[dst.index(lab)] != target:
                    raise FormatError(
                        f"parity-inconsistent entry: image of {lhs} cannot contain {lab}",
                        lineno,
                    )
            section.data["columns"][lhs] = terms
        elif section.kind in ("tensor", "form"):
            entries = section.data["entries"]
            key = _pair_key(section.kind, lhs, doc.spaces[ALGEBRA_SPACE_NAME], entries, lineno)
            entries[key] = _parse_rational(rhs.strip(), lineno)
        elif section.kind == "prelie":
            space = section.data["space"]
            a, b = _pair_key("prelie", lhs, space, section.data["entries"], lineno)
            terms = _parse_terms(rhs, space, lineno)
            base = (space.parities[space.index(a)] + space.parities[space.index(b)]) % 2
            for lab, c in terms.items():
                if c == 0:
                    continue
                shift = (space.parities[space.index(lab)] - base) % 2
                if section.data["shift"][0] is None:
                    section.data["shift"][0] = shift
                elif section.data["shift"][0] != shift:
                    raise FormatError(
                        f"parity-inconsistent entry: {a} {b} mixes grading shifts", lineno
                    )
            section.data["entries"][(a, b)] = terms

    finalize()
    return doc


def _format_pairs(space: SuperSpace, pairs) -> str:
    """Terms from (index, coefficient) pairs with nonzero coefficients."""
    terms = [f"{c} {space.labels[k]}" for k, c in pairs]
    return " + ".join(terms) if terms else "0"


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
        out.append(f"[tensor {name}]")
        for (i, j), c in t.nonzero():
            out.append(f"{t.left.labels[i]} {t.right.labels[j]} = {c}")
        out.append("")

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
        out.append(f"[form {name}]")
        n = b.space.dim
        for i in range(n):
            for j in range(n):
                if b.gram[i][j] != 0:
                    out.append(f"{b.space.labels[i]} {b.space.labels[j]} = {b.gram[i][j]}")
        out.append("")

    return "\n".join(out).rstrip() + "\n"
