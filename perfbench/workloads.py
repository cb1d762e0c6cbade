"""The four benchmark workloads.

A workload is built from a seed; building it is the set-up that `setup_s`
times, in laps the workload marks with `ctx.lap()`.  It then offers a
`prologue` (ops run once, first) and `cycles`, POOL_CYCLES of them: every
op of every cycle is one pass, which the runner repeats.  A cycle is a
list of ops with a fixed mix of op kinds, so that every cycle has the same
latency profile and only the drawn inputs and their order depend on the
seed.  The mix also places the p50 and p90 ranks inside one size class
each, so that the percentiles do not jump between classes from seed to
seed.  The runner hands the first result of each op to `check`, which
returns the indices of the ops that failed.

Library calls go through the `superybe` package (or module) namespace at
call time, never through names imported into this file, so that the
wrappers the traced run installs see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import superybe as sy
import superybe.cli
import superybe.fileformat

EVEN, ODD = 0, 1
ZERO = Fraction(0)
SMALL_INTS = (-2, -1, 0, 1, 2)
UNITS = (-1, 1)
NONZERO_RATIONALS = tuple(Fraction(v) for v in ("-2", "-1", "-1/2", "1/2", "1", "2"))


@dataclass(frozen=True)
class Op:
    """One closed-loop request: `fn(*args)`, labelled for the checks."""

    kind: str
    key: str
    fn: Callable
    args: tuple
    known: bool = False  # a printed or constructed solution: its verdict must be true

    def __call__(self):
        return self.fn(*self.args)


def catalog_reps():
    """({name: (algebra, representation)}, {fixture name: fixture}) for the
    catalog representations: the five algebras of acceptance criterion 4
    plus the ex3.7 module."""
    fx = {name: sy.load_fixture(name) for name in ("ex3.2", "ex2.3", "ex3.20", "ex3.17", "ex3.7")}
    gplus, gminus = fx["ex3.17"].parts["gplus"], fx["ex3.17"].parts["gminus"]
    return {
        "ex3.2": (fx["ex3.2"].parts["algebra"], fx["ex3.2"].parts["coadjoint"]),
        "ex2.3": (fx["ex2.3"].parts["algebra"], fx["ex2.3"].parts["rho"]),
        "ex3.20": (fx["ex3.20"].parts["algebra"], fx["ex3.20"].parts["rho"]),
        "ex3.17+": (gplus, sy.coadjoint(gplus)),
        "ex3.17-": (gminus, sy.coadjoint(gminus)),
        "ex3.7": (fx["ex3.7"].parts["algebra"], fx["ex3.7"].parts["rho"]),
    }, fx


# the five algebras of criterion 4; ex3.7 shares the sl(1|1) algebra of ex2.3
FIVE_ALGEBRAS = ("ex3.2", "ex2.3", "ex3.20", "ex3.17+", "ex3.17-")


def random_map(rng, domain, codomain, parity):
    grid = [[ZERO] * domain.dim for _ in range(codomain.dim)]
    for k in range(codomain.dim):
        for i in range(domain.dim):
            if codomain.parities[k] == domain.parities[i] ^ parity:
                grid[k][i] = Fraction(rng.choice(SMALL_INTS))
    return sy.GradedLinearMap(domain, codomain, parity, tuple(map(tuple, grid)))


def random_pan_supersymmetric(rng, g, parity, values=SMALL_INTS):
    """sigma(r) = -(-1)^{|r|} r with free entries drawn from `values`."""
    space = g.space
    n, P = space.dim, space.parities
    grid = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (P[i] + P[j]) % 2 != parity:
                continue
            if i == j:
                # the diagonal survives only when the twist sign is -1
                if (parity + P[i]) % 2 == 1:
                    grid[i][i] = Fraction(rng.choice(values))
                continue
            value = Fraction(rng.choice(values))
            grid[i][j] = value
            grid[j][i] = (1 if (parity + P[i] * P[j]) % 2 else -1) * value
    return sy.RMatrix(g, sy.Tensor2(space, space, tuple(map(tuple, grid)), parity))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def solutions_digest(found) -> str:
    """Digest of an ordered solution list: a dropped, added or reordered
    solution changes it."""
    return digest("\n".join(" ".join(str(x) for row in t.matrix for x in row) for t in found))


def _cycles(rng, count, make_cycle, lap):
    cycles = []
    for _ in range(count):
        cycle = make_cycle(rng)
        rng.shuffle(cycle)
        cycles.append(cycle)
        lap()
    return cycles


# ---------------------------------------------------------------------------
# equivalence


@dataclass(frozen=True)
class _Case:
    g: object
    rho: object
    srho: object
    coad: object
    coad_plain: object
    coad_dual: object


def _chain(case: _Case, t):
    """The six statements of criterion 4; all evaluated, none short-circuits."""
    return (
        sy.oop_holds(t, case.rho),
        sy.oop_holds(sy.suspend_map(t), case.srho),
        sy.is_super_rmatrix(sy.operator_to_rmatrix(t, case.rho, "plain")),
        sy.is_super_rmatrix(sy.operator_to_rmatrix(t, case.rho, "dual")),
        sy.oop_holds(sy.induced_coadjoint_operator(t, case.rho, "plain"), case.coad_plain),
        sy.oop_holds(sy.induced_coadjoint_operator(t, case.rho, "dual"), case.coad_dual),
    )


def _tensor_check(r, coad):
    return (sy.is_super_rmatrix(r), sy.oop_holds(sy.rmatrix_to_operator(r), coad))


class Equivalence:
    """Verification traffic of criterion 4: many small verdicts.

    A cycle of 20 ops holds one random chain per case, two known-solution
    chains (ex3.2 T0/T1 scaled, an ex3.7 family member), one random
    pan-supersymmetric tensor (entries +-1) per algebra and parity, and two
    known tensors (ex4.4 r0/r1 scaled).  Random maps are nearly all rejected
    early by `oop_holds`; `scybe_defect` never exits early.  p50 falls among
    the tensor checks on the dim-4 ex3.17 algebras, whose cost the fixed
    parities and +-1 entries keep steady; p90 among the chains.
    """

    POOL_CYCLES = 48
    ORACLE_SAMPLE = 24

    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        rng = random.Random(seed)
        reps, fx = catalog_reps()
        self.cases = {}
        for name, (g, rho) in reps.items():
            zero = sy.GradedLinearMap.zero(rho.space, g.space, EVEN)
            # warm-up: fills the semidirect host caches of both variants;
            # a lap per step keeps each lap short
            coad = {}
            for variant in ("plain", "dual"):
                host = sy.operator_to_rmatrix(zero, rho, variant).algebra
                ctx.lap()
                coad[variant] = sy.coadjoint(host)
                ctx.lap()
            self.cases[name] = _Case(
                g, rho, sy.parity_reverse_rep(rho), sy.coadjoint(g), coad["plain"], coad["dual"],
            )
            ctx.lap()
        self.t0_t1 = (fx["ex3.2"].parts["T0"], fx["ex3.2"].parts["T1"])
        self.family = fx["ex3.7"].parts
        r0r1 = sy.load_fixture("ex4.4").parts
        self.r0_r1 = (r0r1["r0"].tensor, r0r1["r1"].tensor)
        self.prologue = []
        self.cycles = _cycles(rng, self.POOL_CYCLES, self._cycle, ctx.lap)
        self.rng = rng

    def _family_member(self, rng):
        fam = self.family
        k1, k2, l1, l2, l3 = (rng.choice(NONZERO_RATIONALS) for _ in range(5))
        l4 = l2 * l3 / l1
        return rng.choice((
            lambda: fam["T1"](k1, k2), lambda: fam["T2"](k2),
            lambda: fam["T3"](l1, l2, l3, l4), lambda: fam["T1_tilde"](k1, k2),
            lambda: fam["T2_tilde"](k2), lambda: fam["T3_tilde"](l1, l2, l3, l4),
        ))()

    def _cycle(self, rng):
        ops = []
        for name, case in self.cases.items():
            t = random_map(rng, case.rho.space, case.g.space, rng.randint(0, 1))
            ops.append(Op("chain", name, _chain, (case, t)))
        scaled = rng.choice(self.t0_t1).scale(rng.choice(NONZERO_RATIONALS))
        ops.append(Op("chain", "ex3.2", _chain, (self.cases["ex3.2"], scaled), known=True))
        ops.append(Op("chain", "ex3.7", _chain, (self.cases["ex3.7"], self._family_member(rng)), known=True))
        for name in FIVE_ALGEBRAS:
            case = self.cases[name]
            for parity in (EVEN, ODD):
                r = random_pan_supersymmetric(rng, case.g, parity, UNITS)
                ops.append(Op("tensor", name, _tensor_check, (r, case.coad)))
        case = self.cases["ex3.2"]
        for _ in range(2):
            tensor = rng.choice(self.r0_r1).scale(rng.choice(NONZERO_RATIONALS))
            ops.append(Op("tensor", "ex3.2", _tensor_check, (sy.RMatrix(case.g, tensor), case.coad), known=True))
        return ops

    def check(self, records):
        failed = set()
        for index, (op, verdicts) in enumerate(records):
            if len(set(verdicts)) != 1 or (op.known and not verdicts[0]):
                failed.add(index)
        # dense oracles of the test suite on a seeded sample of the inputs
        first = {}
        for index, (op, verdicts) in enumerate(records):
            first.setdefault(id(op), (index, op, verdicts[0]))
        oracles = self.ctx.oracles
        sample = self.rng.sample(sorted(first.values(), key=lambda e: e[0]), min(self.ORACLE_SAMPLE, len(first)))
        for index, op, verdict in sample:
            if op.kind == "chain":
                case, t = op.args
                r = sy.operator_to_rmatrix(t, case.rho, "plain")
                ok = oracles.first_principles_oop_ok(t, case.rho) == verdict
                ok = ok and (not oracles.naive_scybe_defect(r.algebra, r.tensor)) == verdict
            else:
                r, _ = op.args
                naive = oracles.naive_scybe_defect(r.algebra, r.tensor)
                ok = naive == dict(sy.scybe_defect(r).nonzero()) and (not naive) == verdict
            if not ok:
                failed.add(index)
        return failed

    def summary(self, records):
        true = sum(1 for _, verdicts in records if verdicts[0] is True)
        known = sum(1 for op, _ in records if op.known)
        return {"true_verdict_share": true / len(records), "known_solution_share": known / len(records)}


# ---------------------------------------------------------------------------
# grid-search

# A cycle of 110 ops holds 32 seeded grids with 5^2 candidates (DRAWN,
# DRAWS per representation and parity; about 2 ms each), every odd 2^6
# grid of ex2.3 eight times (48 ops, about 10 ms), every even one twice (12
# ops, about 16 ms), every 2^8 grid of ex3.17- once (12 ops, 44-55 ms) and
# every even 2^8 grid of ex3.17+ once (6 ops, 55-72 ms).  The p50 rank
# falls in the middle of the odd ex2.3 class and the p90 rank in the middle
# of the ex3.17- class, away from the steps between classes; these classes
# are enumerated in full, so the seed moves neither percentile.
DRAWN = (("ex3.2", 5), ("ex3.20", 5))
DRAWS = 8
# (representation, entry-set size, (repeats of even grids, of odd grids))
ENUMERATED = (("ex2.3", 2, (2, 8)), ("ex3.17-", 2, (1, 1)), ("ex3.17+", 2, (1, 0)))
EX37_GRID = ("ex3.7", EVEN, (-2, -1, 0, 1, 2))  # 15,625 candidates, 153 solutions


def grid_key(rep: str, parity: int, entries) -> str:
    return f"{rep}|{parity}|{','.join(str(e) for e in entries)}"


def entry_sets(size: int):
    """Every entry set of the given size: zero plus nonzero pool values,
    in ascending order."""
    for values in itertools.combinations(NONZERO_RATIONALS, size - 1):
        yield tuple(sorted((ZERO,) + values))


def grid_universe():
    """Every grid the workload can draw, for recording the digests."""
    yield EX37_GRID
    for rep, size, *_ in DRAWN + ENUMERATED:
        for parity in (EVEN, ODD):
            for entries in entry_sets(size):
                yield rep, parity, entries


class GridSearch:
    """Exhaustive searches: each op is one `grid_search_oops` call.

    Nearly every candidate is rejected; each costs one map construction
    plus one early-exiting `oop_holds`.  The prologue is the ex3.7 even
    {-2..2} grid, run once per run.  Nothing here verifies a
    representation or touches `rmatrix`.
    """

    POOL_CYCLES = 1

    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        rng = random.Random(seed)
        self.reps, fx = catalog_reps()
        self.family_member = fx["ex3.7"].parts["family_member"]
        self.sets = {size: list(entry_sets(size)) for _, size, *_ in DRAWN + ENUMERATED}
        self.prologue = [self._op(*EX37_GRID)]
        self.cycles = _cycles(rng, self.POOL_CYCLES, self._cycle, ctx.lap)

    def _op(self, rep, parity, entries):
        g, rho = self.reps[rep]
        return Op("grid", grid_key(rep, parity, entries), sy.grid_search_oops, (g, rho, parity, entries))

    def _cycle(self, rng):
        ops = [
            self._op(rep, parity, rng.choice(self.sets[size]))
            for rep, size in DRAWN
            for parity in (EVEN, ODD)
            for _ in range(DRAWS)
        ]
        ops += [
            self._op(rep, parity, entries)
            for rep, size, repeats in ENUMERATED
            for parity in (EVEN, ODD)
            for entries in self.sets[size]
            for _ in range(repeats[parity])
        ]
        return ops

    def check(self, records):
        expected = self.ctx.expected["grid"]
        failed = set()
        verified = {}
        for index, (op, found) in enumerate(records):
            got = solutions_digest(found)
            if op.key not in verified:
                _, rho, _, _ = op.args
                ok = all(self.ctx.oracles.first_principles_oop_ok(t, rho) for t in found)
                if op.key == grid_key(*EX37_GRID):
                    ok = ok and len(found) == 153 and all(self.family_member(t) for t in found)
                verified[op.key] = ok
            if not verified[op.key] or got != expected.get(op.key):
                failed.add(index)
        return failed

    def summary(self, records):
        return {"solutions_found": sum(len(found) for _, found in records)}


# ---------------------------------------------------------------------------
# hierarchy

# The word "--" is left out: on Python 3.11 argparse drops a "--" option
# value, so `superybe hierarchy --word=--` walks nothing and then fails with
# a TypeError traceback (exit 1).  Add it back once the CLI accepts it.
SHORT_WORDS = tuple(
    w for w in ("".join(p) for n in (1, 2) for p in itertools.product("+-", repeat=n)) if w != "--"
)
LONG_WORDS = tuple("".join(w) for w in itertools.product("+-", repeat=3))
# Each shorter word runs SHORT_REPEATS times per tensor and cycle: 126 ops,
# p50 inside the block of one length-2 walk, p90 among the cheapest
# length-3 walks, away from the step to the walks with two "-" letters.
SHORT_REPEATS = 11


def run_cli(argv):
    """`superybe ARGV` in process; returns (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = superybe.cli.main(argv)
    return code, out.getvalue()


def hierarchy_key(tensor: str, word: str) -> str:
    return f"{tensor}|{word}"


def hierarchy_argv(path, tensor, word):
    # "--word=W": a word starting with "-" would otherwise read as an option
    return ["hierarchy", str(path), "--tensor", tensor, f"--word={word}", "--json"]


class Hierarchy:
    """Construction traffic: `superybe hierarchy FILE --tensor r --word=W --json`.

    FILE is the ex4.4 fixture document.  A cycle walks every length-3 word
    once per tensor and every shorter word SHORT_REPEATS times per tensor,
    so each cycle holds all 26 (tensor, word) pairs.  Depth 4 stays out
    while a walk of it costs seconds.
    """

    POOL_CYCLES = 1

    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        rng = random.Random(seed)
        self.path = ctx.workdir / "ex4.4.txt"
        self.path.write_text(sy.fileformat.emit(sy.fixture_document("ex4.4")), encoding="utf-8")
        run_cli(hierarchy_argv(self.path, "r0", "+"))  # warm-up of the CLI path
        self.prologue = []
        self.cycles = _cycles(rng, self.POOL_CYCLES, self._cycle, ctx.lap)

    def _op(self, tensor, word):
        return Op("walk", hierarchy_key(tensor, word), run_cli, (hierarchy_argv(self.path, tensor, word),))

    def _cycle(self, rng):
        ops = [self._op(t, w) for t in ("r0", "r1") for w in LONG_WORDS]
        ops += [self._op(t, w) for t in ("r0", "r1") for w in SHORT_WORDS for _ in range(SHORT_REPEATS)]
        return ops

    def check(self, records):
        expected = self.ctx.expected["hierarchy"]
        failed = set()
        verified = {}
        for index, (op, (code, stdout)) in enumerate(records):
            try:
                document = json.loads(stdout)["document"]
            except (ValueError, KeyError):
                failed.add(index)
                continue
            if code != 0 or expected.get(op.key) != digest(document):
                failed.add(index)
                continue
            if op.key not in verified:
                verified[op.key] = self._solves(op.key, document)
            if not verified[op.key]:
                failed.add(index)
        return failed

    @staticmethod
    def _solves(key, document):
        """The emitted document parses, and its final tensor is a
        pan-supersymmetric solution of the super CYBE."""
        tensor, word = key.split("|")
        doc = sy.fileformat.parse(document)
        r = sy.RMatrix(doc.algebra, doc.tensors[f"{tensor}_{word}"])
        return sy.is_pan_supersymmetric(r) and sy.scybe_defect(r).is_zero()

    def summary(self, records):
        return {}


# ---------------------------------------------------------------------------
# forms

# (algebra, draws per cycle).  With the five self-reversing tests a cycle has
# 20 ops: p50 among the dim-8 draws, p90 among the dim-16 draws.
FORM_DRAWS = (
    ("ex3.2", 1), ("ex2.3", 1), ("ex3.20", 1), ("ex3.17+", 1), ("ex3.17-", 1),
    ("r1++", 6), ("r1+++", 4),
)
# Draws over the hierarchy hosts are dense (every free entry +-1) and
# non-degenerate, so that these size classes always run the full check at
# a steady cost and the percentiles inside them do not depend on the seed.
# Degenerate draws still come from the catalog algebras.  Set-up draws a
# bank of DENSE_BANK candidates per host and tests every one, so that its
# work does not depend on how many of a seed's draws are degenerate (about
# 57% on r1++ and 43% on r1+++); the draws take the non-degenerate ones in
# order, which a pass needs 30 and 20 of.
DENSE_BANK = {"r1++": 110, "r1+++": 60}


def _cocycle(r):
    try:
        return sy.beta_cocycle_check(r)[1]
    except sy.DegenerateRMatrix:
        return "degenerate"


class Forms:
    """Mid-size dense inputs: 2-cocycle checks and self-reversing tests.

    Kind 1 is `beta_cocycle_check` on seeded pan-supersymmetric tensors
    over the catalog algebras and the ex4.4 r1 hierarchy hosts at `++`
    (dim 8) and `+++` (dim 16).  Kind 2 is `is_self_reversing` on the
    self-reversing double of each catalog representation.  The only
    workload where `linalg` does real work.
    """

    POOL_CYCLES = 5

    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        rng = random.Random(seed)
        reps, fx = catalog_reps()
        ex44 = sy.load_fixture("ex4.4").parts
        self.algebras = {name: reps[name][0] for name in FIVE_ALGEBRAS}
        for word in ("++", "+++"):
            self.algebras["r1" + word] = sy.hierarchy_walk(ex44["algebra"], ex44["r1"], word).algebra
            ctx.lap()
        self.doubles = {name: sy.self_reversing_double(reps[name][1]) for name in FIVE_ALGEBRAS}
        self.bank = {}
        for name, size in DENSE_BANK.items():
            candidates = []
            for k in range(size):
                candidates.append(self._dense(rng, name))
                if k % 10 == 9:
                    ctx.lap()
            self.bank[name] = iter([r for r in candidates if r is not None])
        self.prologue = []
        self.cycles = _cycles(rng, self.POOL_CYCLES, self._cycle, ctx.lap)

    def _dense(self, rng, name):
        """A dense draw over a hierarchy host, or None if it is degenerate."""
        r = random_pan_supersymmetric(rng, self.algebras[name], rng.randint(0, 1), UNITS)
        return r if sy.rmatrix_to_operator(r).is_invertible() else None

    def _draw(self, rng, name):
        if name not in DENSE_BANK:
            return random_pan_supersymmetric(rng, self.algebras[name], rng.randint(0, 1))
        r = next(self.bank[name], None)
        while r is None:  # the bank ran out: draw on until non-degenerate
            r = self._dense(rng, name)
        return r

    def _cycle(self, rng):
        ops = [
            Op("cocycle", name, _cocycle, (self._draw(rng, name),))
            for name, count in FORM_DRAWS
            for _ in range(count)
        ]
        ops += [Op("self-reversing", name, sy.is_self_reversing, (double,)) for name, double in self.doubles.items()]
        return ops

    def check(self, records):
        failed = set()
        first = {}
        for index, (op, result) in enumerate(records):
            if op.kind == "cocycle":
                ok = result is True or result == "degenerate"
            else:
                if id(op) not in first:
                    first[id(op)] = (result, self._iso_ok(op.args[0], result))
                want, verified = first[id(op)]
                ok = verified and result == want
            if not ok:
                failed.add(index)
        return failed

    @staticmethod
    def _iso_ok(double, result):
        if not result.found:
            return False
        reverse = sy.parity_reverse_rep(double)
        identity = sy.GradedLinearMap.identity(double.space)
        return sy.is_intertwiner(result.iso, double, reverse) and result.inverse.compose(result.iso) == identity

    def summary(self, records):
        cocycles = [result for op, result in records if op.kind == "cocycle"]
        degenerate = sum(1 for result in cocycles if result == "degenerate")
        return {"degenerate_draws": degenerate, "cocycle_draws": len(cocycles)}


WORKLOADS = {
    "equivalence": Equivalence,
    "grid-search": GridSearch,
    "hierarchy": Hierarchy,
    "forms": Forms,
}
