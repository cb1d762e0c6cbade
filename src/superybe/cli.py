"""Command-line driver.

Exposes every check and construction over the plain-text file format:
validate, check-oop, check-cybe, dualize, build-rmatrix, hierarchy,
prelie, search and demo.  Exit code 0 means every check passed, 1 a
mathematical check failed, 2 a usage or parse error, 3 any other error
(reported in one line, never as a traceback).  --json mirrors the plain
report 1:1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import catalog
from .fileformat import ALGEBRA_SPACE_NAME, Document, FormatError, RawRep, emit, parse
from .graded import (
    EVEN,
    ODD,
    GradedLinearMap,
    Tensor2,
    format_vector,
    parity_name,
    suspend_map,
)
from .liesuper import check_lie_axioms, classify_form
from .oop import GridSearchCapExceeded, grid_search_oops, is_oop
from .prelie import check_prelie, prelie_rmatrix_pair, product_from_oop, subadjacent
from .reps import Representation, check_representation, parity_reverse_rep
from .rmatrix import (
    HierarchyCapExceeded,
    HierarchyError,
    RMatrix,
    hierarchy_trace,
    is_pan_supersymmetric,
    is_super_rmatrix,
    operator_to_rmatrix,
    scybe_defect,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


class UsageError(Exception):
    pass


class CheckFailed(Exception):
    """A mathematical precondition did not hold; exit code 1."""


class Reporter:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.checks: list[dict] = []
        self.lines: list[str] = []
        self.extra: dict = {}

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": ok, "detail": detail})
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        self.lines.append(f"{name}: {status}{suffix}")

    def note(self, line: str):
        self.lines.append(line)

    def document(self, text: str, key: str = "document"):
        self.extra[key] = text
        self.lines.append(text.rstrip())

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def finish(self, command: str) -> int:
        code = EXIT_OK if self.ok else EXIT_CHECK_FAILED
        if self.as_json:
            payload = {"command": command, "ok": self.ok, "exit": code, "checks": self.checks}
            payload.update(self.extra)
            print(json.dumps(payload, indent=2, default=str))
        else:
            for line in self.lines:
                print(line)
        return code


def _load_document(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _named(mapping: dict, name: str, what: str):
    if name not in mapping:
        known = ", ".join(mapping) or "none"
        raise UsageError(f"unknown {what} {name!r} (declared: {known})")
    return mapping[name]


def _require_algebra(doc: Document):
    if doc.algebra is None:
        raise UsageError("the file declares no [bracket] section")
    return doc.algebra


def _verified_rep(doc: Document, name: str) -> Representation:
    raw = _named(doc.reps, name, "rep")
    algebra = _require_algebra(doc)
    try:
        return raw.verify(algebra)
    except ValueError as exc:
        raise CheckFailed(str(exc)) from None


def _tensor_rmatrix(doc: Document, name: str) -> RMatrix:
    tensor = _named(doc.tensors, name, "tensor")
    algebra = _require_algebra(doc)
    if tensor.parity is None and not tensor.is_zero():
        raise CheckFailed(f"tensor {name} is inhomogeneous")
    if tensor.parity is None:
        tensor = Tensor2._trusted(tensor.left, tensor.right, (), EVEN)
    return RMatrix(algebra, tensor)


def _fitting_map(doc: Document, args) -> tuple[GradedLinearMap, Representation]:
    """The --map and the verified --rep; the map must go from V to g."""
    t = _named(doc.maps, args.map, "map")
    rho = _verified_rep(doc, args.rep)
    if t.domain != rho.space or t.codomain != rho.algebra.space:
        raise UsageError(f"map {args.map} does not fit rep {args.rep}")
    return t, rho


def _document_for_algebra(algebra, tensors=None) -> str:
    return emit(Document({ALGEBRA_SPACE_NAME: algebra.space}, algebra, tensors=tensors or {}))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args, rep: Reporter) -> None:
    doc = _load_document(args.file)
    algebra = doc.algebra
    if algebra is not None:
        report = check_lie_axioms(algebra)
        for item in report.items:
            rep.check(f"algebra {item.name}", item.ok, item.detail)
    for name, raw in doc.reps.items():
        if algebra is None:
            raise UsageError("a [rep] section needs a [bracket] section")
        report = check_representation(algebra, raw.space, raw.action)
        for item in report.items:
            rep.check(f"rep {name} {item.name}", item.ok, item.detail)
    for name, a in doc.prelies.items():
        report = check_prelie(a)
        for item in report.items:
            rep.check(f"prelie {name} {item.name}", item.ok, item.detail)
    for name, beta in doc.forms.items():
        if algebra is None:
            raise UsageError("a [form] section needs a [bracket] section")
        flags = classify_form(beta, algebra)
        rep.note(f"form {name}: " + ", ".join(k for k, v in flags.as_dict().items() if v))
        rep.extra.setdefault("forms", {})[name] = flags.as_dict()
    if not rep.checks and not doc.forms:
        rep.note("nothing to validate")


def _cmd_check_oop(args, rep: Reporter) -> None:
    doc = _load_document(args.file)
    t, rho = _fitting_map(doc, args)
    report = is_oop(t, rho)
    rep.check(
        f"{args.map} is an O-operator ({parity_name(t.parity)})",
        report.ok,
        "" if report.ok else "nonzero defects listed below",
    )
    defects = []
    for (a, b), d in report.nonzero_defects():
        value = format_vector(rho.algebra.space, d)
        rep.note(f"defect[{a}, {b}] = {value}")
        defects.append({"pair": [a, b], "value": value})
    rep.extra["defects"] = defects


def _cmd_check_cybe(args, rep: Reporter) -> None:
    doc = _load_document(args.file)
    r = _tensor_rmatrix(doc, args.tensor)
    defect = scybe_defect(r)
    rep.check(f"{args.tensor} solves the super CYBE", defect.is_zero())
    pan = is_pan_supersymmetric(r)
    rep.note(f"{args.tensor} is pan-supersymmetric: {'yes' if pan else 'no'}")
    rep.extra["pan_supersymmetric"] = pan
    components = []
    space = r.space
    for (i, j, k), c in defect.nonzero():
        line = f"defect[{space.labels[i]}, {space.labels[j]}, {space.labels[k]}] = {c}"
        rep.note(line)
        components.append(
            {"slot": [space.labels[i], space.labels[j], space.labels[k]], "value": str(c)}
        )
    rep.extra["defect_components"] = components


def _cmd_dualize(args, rep: Reporter) -> None:
    doc = _load_document(args.file)
    t, rho = _fitting_map(doc, args)
    ts = suspend_map(t)
    srho = parity_reverse_rep(rho)
    out = Document(dict(doc.spaces), doc.algebra)
    out.maps[args.map + "s"] = ts
    out.reps[args.rep + "s"] = RawRep(args.rep + "s", srho.space, srho.action)
    rep.check("parity duality produced the suspended candidate", True)
    rep.document(emit(out))


def _cmd_build_rmatrix(args, rep: Reporter) -> None:
    doc = _load_document(args.file)
    t, rho = _fitting_map(doc, args)
    r = operator_to_rmatrix(t, rho, args.variant)
    solves = is_super_rmatrix(r)
    rep.check(
        f"induced tensor ({parity_name(r.parity)}) solves the super CYBE",
        solves,
        "" if solves else "the map is not an O-operator",
    )
    rep.document(_document_for_algebra(r.algebra, tensors={"r_" + args.map: r.tensor}))


def _cmd_hierarchy(args, rep: Reporter) -> None:
    doc = _load_document(args.file)
    # argparse before Python 3.13 strips the value of --word=-- to an empty
    # list, and 3.13 keeps '--'; no other value arrives as a list
    word = "--" if args.word == [] else args.word
    bad = set(word) - {"+", "-"}
    if bad:
        raise UsageError(f"hierarchy words use only + and -, got {''.join(sorted(bad))!r}")
    r = _tensor_rmatrix(doc, args.tensor)
    algebra = r.algebra
    try:
        levels = hierarchy_trace(algebra, r, word)
    except HierarchyError as exc:
        raise CheckFailed(str(exc)) from None
    except HierarchyCapExceeded as exc:
        raise UsageError(str(exc)) from None
    rep.check(f"walked word {word!r}", True)
    if args.trace:
        for depth, level in enumerate(levels, start=1):
            rep.note(f"# level {depth}: {word[:depth]}")
            rep.document(
                _document_for_algebra(
                    level.algebra, tensors={args.tensor + "_" + word[:depth]: level.tensor}
                ),
                key=f"level{depth}",
            )
    else:
        final = levels[-1] if levels else r
        rep.document(
            _document_for_algebra(final.algebra, tensors={args.tensor + "_" + word: final.tensor})
        )


def _cmd_prelie(args, rep: Reporter) -> None:
    doc = _load_document(args.file)
    if args.action in ("subadjacent", "rmatrix-pair"):
        if args.prelie is None:
            if len(doc.prelies) != 1:
                raise UsageError("give --prelie NAME (the file declares several or none)")
            a = next(iter(doc.prelies.values()))
        else:
            a = _named(doc.prelies, args.prelie, "prelie")
        # both constructions check the pre-Lie identity first
        try:
            if args.action == "subadjacent":
                g = subadjacent(a)
            else:
                even_r, odd_r = prelie_rmatrix_pair(a)
        except ValueError as exc:
            raise CheckFailed(str(exc)) from None
        if args.action == "subadjacent":
            rep.check("sub-adjacent bracket satisfies the axioms", check_lie_axioms(g).ok)
            rep.document(_document_for_algebra(g))
        else:
            rep.check("even tensor solves the super CYBE", is_super_rmatrix(even_r))
            rep.check("odd tensor solves the super CYBE", is_super_rmatrix(odd_r))
            rep.note("# plain variant")
            rep.document(
                _document_for_algebra(even_r.algebra, tensors={"r_id": even_r.tensor}),
                key="plain",
            )
            rep.note("# dual variant")
            rep.document(
                _document_for_algebra(odd_r.algebra, tensors={"r_ids": odd_r.tensor}),
                key="dual",
            )
    else:  # from-oop
        if not args.map or not args.rep:
            raise UsageError("from-oop needs --map and --rep")
        t, rho = _fitting_map(doc, args)
        try:
            product = product_from_oop(t, rho)
        except ValueError as exc:
            raise CheckFailed(str(exc)) from None
        rep.check(
            f"induced product (grading shift {product.parity_shift}) built", True
        )
        out = Document(dict(doc.spaces), doc.algebra)
        out.declare(product.space, "P")
        out.prelies["from_" + args.map] = product
        rep.document(emit(out))


def _cmd_search(args, rep: Reporter) -> None:
    doc = _load_document(args.file)
    rho = _verified_rep(doc, args.rep)
    algebra = rho.algebra
    parity = EVEN if args.parity == "even" else ODD
    entries = []
    for token in args.entries.split(","):
        token = token.strip()
        if token:
            try:
                # an exponent would make the work grow with its value, not
                # with the token's length
                if "e" in token.lower():
                    raise ValueError(token)
                entries.append(Fraction(token))
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"malformed rational {token!r} in --entries")
    if not entries:
        raise UsageError("--entries needs at least one rational")
    entries = list(dict.fromkeys(entries))  # a repeated value would find each O-operator twice
    try:
        found = grid_search_oops(algebra, rho, parity, entries)
    except GridSearchCapExceeded as exc:
        raise UsageError(str(exc)) from None
    rep.check(f"search finished: {len(found)} O-operator(s)", True)
    out = Document(dict(doc.spaces), doc.algebra)
    for idx, t in enumerate(found):
        out.maps[f"oop{idx}"] = t
    rep.document(emit(out))
    rep.extra["count"] = len(found)


def _cmd_demo(args, rep: Reporter) -> None:
    try:
        fixture = catalog.load_fixture(args.name)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from None
    rep.note(f"# {fixture.name}: {fixture.description}")
    tensors = {}
    for part_name, part in fixture.parts.items():
        if isinstance(part, RMatrix):
            defect = scybe_defect(part)
            nonzero = sum(1 for _ in defect.nonzero())
            rep.note(f"tensor {part_name} = {part.tensor}")
            rep.note(f"SCYBE defect: {nonzero}")
            tensors[part_name] = {"tensor": str(part.tensor), "defect_terms": nonzero}
    if tensors:
        rep.extra["tensors"] = tensors
    for label, citation, ok in fixture.run():
        rep.check(f"{label} [{citation}]", ok)


# ---------------------------------------------------------------------------
# argument parsing


# one parser per process: building it costs more than a short command
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superybe",
        description="exact checks and constructions for Lie superalgebra data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.set_defaults(handler=handler)

    p = sub.add_parser("validate", help="axiom and representation checks")
    p.add_argument("file")
    common(p, _cmd_validate)

    p = sub.add_parser("check-oop", help="O-operator identity with defect table")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--rep", required=True)
    common(p, _cmd_check_oop)

    p = sub.add_parser("check-cybe", help="super CYBE defect of a tensor")
    p.add_argument("file")
    p.add_argument("--tensor", required=True)
    common(p, _cmd_check_cybe)

    p = sub.add_parser("dualize", help="emit the parity-dual candidate")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--rep", required=True)
    common(p, _cmd_dualize)

    p = sub.add_parser("build-rmatrix", help="induced tensor in a semidirect product")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--variant", choices=["plain", "dual"], default="plain")
    common(p, _cmd_build_rmatrix)

    p = sub.add_parser("hierarchy", help="walk the +/- tree of tensors")
    p.add_argument("file")
    p.add_argument("--tensor", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--trace", action="store_true", help="emit every level")
    common(p, _cmd_hierarchy)

    p = sub.add_parser("prelie", help="pre-Lie constructions")
    p.add_argument("file")
    p.add_argument("action", choices=["subadjacent", "rmatrix-pair", "from-oop"])
    p.add_argument("--prelie", default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--rep", default=None)
    common(p, _cmd_prelie)

    p = sub.add_parser("search", help="grid search for O-operators")
    p.add_argument("file")
    p.add_argument("--rep", required=True)
    p.add_argument("--parity", choices=["even", "odd"], required=True)
    p.add_argument("--entries", required=True, help="comma-separated rationals")
    common(p, _cmd_search)

    p = sub.add_parser("demo", help="run a catalog fixture's expectations")
    p.add_argument("name")
    common(p, _cmd_demo)

    return parser


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    reporter = Reporter(getattr(args, "json", False))
    try:
        args.handler(args, reporter)
    except (FormatError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailed as exc:
        reporter.check(str(exc), False)
        reporter.finish(args.command)
        return EXIT_CHECK_FAILED
    except Exception as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR
    return reporter.finish(args.command)


def main(argv=None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # the reader closed standard output: point its descriptor at the
        # null device, so the interpreter's last flush has nowhere to fail
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print("error: standard output was closed", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
