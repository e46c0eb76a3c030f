"""The four workloads: seeded inputs, one timed operation each, checks.

An operation's ``run(L)`` is timed: it starts from source text and calls
the program only through the ``Layers`` object L.  Its ``check(result,
ctx)`` is not timed: it compares the result with the oracles and returns
True, or False for the one known fault that is counted as a failed
operation (the sampler shortfall); any other disagreement raises
CheckError.  Oracle verdicts depend only on the inputs, so each
operation computes them once and keeps them.
"""

import contextlib
import io
import os
import random

import oracles
import terms
from terms import Builder, to_source


class CheckError(Exception):
    pass


def expect(ok, what, *args):
    if not ok:
        raise CheckError(what % args if args else what)


class Ctx:
    """What a check may use: the program's functions untraced, the
    counters of the current round, and whether they are being kept."""

    def __init__(self, raw, root):
        self.raw = raw
        self.root = root
        self.counting = False
        self.counts = {}
        self._compiled = {}

    def count(self, name, amount=1):
        if self.counting:
            self.counts[name] = self.counts.get(name, 0) + amount

    def printed_type(self, node):
        return terms.parse(self.raw.print_type(node))

    def printed_value(self, node):
        from coinfer.term_core import print_value

        return terms.parse(print_value(node))

    def compiled_counts(self, text):
        """Clause heads of `coinfer compile` on the program, by predicate."""
        if text not in self._compiled:
            work = os.path.join(self.root, "bench", "out", "work")
            os.makedirs(work, exist_ok=True)
            path = os.path.join(work, "program-%d.prog" % len(self._compiled))
            with open(path, "w") as handle:
                handle.write(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = self.raw.cli_main(["compile", path])
            expect(rc == 0, "coinfer compile exited %d", rc)
            counts = {}
            for line in out.getvalue().splitlines():
                if line.endswith(").") and ":-" not in line:
                    pred = line.split("(", 1)[0]
                    counts[pred] = counts.get(pred, 0) + 1
            self._compiled[text] = counts
        return self._compiled[text]


# ---------------------------------------------------------------------------
# subtyping

CHAIN_N = 50
SPINE_N = 30


class SubtypeOp:
    """Parse both sides, canonicalize both, decide subtype, and derive
    when it holds, as `coinfer subtype --trace` does."""

    def __init__(self, family, left, right, verdict=None):
        self.family = family
        self.left, self.right = left, right
        self.left_src, self.right_src = to_source(left), to_source(right)
        self.verdict = verdict
        self.oracle = None

    def run(self, L):
        cl = L.canonicalize(L.type_from_source(self.left_src))
        cr = L.canonicalize(L.type_from_source(self.right_src))
        holds = L.subtype(cl, cr)
        return cl, cr, holds, (L.derive(cl, cr) if holds else None)

    def check(self, result, ctx):
        cl, cr, holds, derivation = result
        if self.oracle is None:
            self.oracle = (oracles.bisimilar(self.left, self.right),
                           oracles.not_empty(self.left))
        same, inhabited = self.oracle
        expect((cl is cr) == same, "canonicalize %s bisimilarity (%s)",
               "disagrees with" if same else "merged despite no", self.family)
        if self.verdict is not None:
            expect(holds == self.verdict, "subtype gave %s, expected %s (%s)",
                   holds, self.verdict, self.family)
        if holds:
            expect(derivation is not None, "subtype holds but derive found nothing")
        else:
            expect(ctx.raw.derive(cl, cr) is None, "derive found a derivation subtype rejects")
        if holds and inhabited:
            w = ctx.raw.witness(cl)
            expect(w is not None, "no witness for an inhabited left side")
            expect(oracles.member(ctx.printed_value(w), self.right),
                   "unsound: the left witness is not in the right side (%s)", self.family)
        ctx.count("subtype.holds", int(holds))
        if ctx.counting:
            ctx.count("canonicalize.nodes_in", terms.size(self.left) + terms.size(self.right))
            ctx.count("canonicalize.nodes_out", terms.size(ctx.printed_type(cl))
                      + terms.size(ctx.printed_type(cr)))
            if derivation is not None:
                ctx.count("derive.nodes", len(derivation.to_dict()["nodes"]))
        return True


def _nat(b):
    n = b.union()
    b.set(n, ("union", b.obj("zero"), b.obj("succ", [("pred", n)])))
    return n


def _leaf_pool(b, k):
    """Distinct non-empty alternatives whose member sets are disjoint."""
    return [b.int, lambda: b.obj("p"), lambda: b.obj("q", [("x", b.int())]),
            lambda: _nat(b)][k]()


def _distribution(rng, fields):
    """obj(k, [f_i: A_i \\/ B_i]) against the union of every combination,
    and against that union with one combination dropped."""
    names = ["f%d" % i for i in range(fields)]
    alts = [rng.sample(range(4), 2) for _ in names]
    b = Builder()
    left = b.obj("k", [(f, b.union(_leaf_pool(b, a), _leaf_pool(b, c)))
                       for f, (a, c) in zip(names, alts)])
    combos = [[]]
    for pair in alts:
        combos = [c + [x] for c in combos for x in pair]
    rng.shuffle(combos)
    lg = b.graph(left)

    def cover(chosen):
        rb = Builder()
        disjuncts = [rb.obj("k", [(f, _leaf_pool(rb, x)) for f, x in zip(names, combo)])
                     for combo in chosen]
        root = disjuncts[-1]
        for d in reversed(disjuncts[:-1]):
            root = rb.union(d, root)
        return rb.graph(root)

    return lg, cover(combos), cover(combos[1:])


def _empties(rng):
    """The empty type in several forms."""
    out = []
    out.append(terms.parse("B = B \\/ B; root B"))
    out.append(terms.parse("B = B \\/ B; X = obj(a, [f: B]); root X"))
    out.append(terms.parse("X = Y \\/ Y; Y = X \\/ X; root X"))
    out.append(terms.parse("B = B \\/ B; X = obj(a, [f: X, g: B]); root X"))
    out.append(terms.parse("B = B \\/ B; U = B \\/ obj(b, [f: int, g: B]); root U"))
    deep = terms.chain(12)
    nodes = list(deep[0])
    nodes[0] = ("union", 0, 0)  # the innermost int becomes B = B \/ B
    out.append(terms.inflate((nodes, deep[1]), rng))
    return out


NUMBERS = {
    "zer": "Z = obj(zero, []); root Z",
    "nat": "Z = obj(zero, []); N = Z \\/ obj(succ, [pred: N]); root N",
    "pos": "Z = obj(zero, []); P = obj(succ, [pred: Z]) \\/ obj(succ, [pred: P]); root P",
    "evn": "E = obj(zero, []) \\/ obj(succ, [pred: obj(succ, [pred: E])]); root E",
    "odd": "O = obj(succ, [pred: obj(zero, [])])"
           " \\/ obj(succ, [pred: obj(succ, [pred: O])]); root O",
    "bot": "B = B \\/ B; root B",
}


def numbers():
    """The zero/succ family of the paper's examples, plus the empty type."""
    return {name: terms.parse(text) for name, text in NUMBERS.items()}


def _included(small, big):
    """Inclusion of the number types' member sets: the numerals up to 6
    and the infinite succ chain decide it for types of period at most 2."""
    values = [oracles.numeral(k) for k in range(7)]
    values.append(terms.parse("V = obj(succ, [pred -> V]); root V"))
    return all(oracles.member(v, big) for v in values if oracles.member(v, small))


def subtyping(seed):
    rng = random.Random(seed)
    ops = []
    kinds = numbers()
    for _ in range(3):
        for left in kinds.values():
            for right in kinds.values():
                ops.append(SubtypeOp("numbers", terms.inflate(left, rng),
                                     terms.inflate(right, rng), _included(left, right)))
    # The op counts place op_p50_ms inside the numbers ops and op_p90_ms
    # inside spine_n, whose make-up does not depend on the seed.
    for family, make, n, copies in (("chain_n", terms.chain, CHAIN_N, 2),
                                    ("chain_2n", terms.chain, 2 * CHAIN_N, 2),
                                    ("spine_n", terms.spine, SPINE_N, 7),
                                    ("spine_2n", terms.spine, 2 * SPINE_N, 2)):
        t = make(n)
        for _ in range(copies):
            copy = terms.inflate(t, rng)
            ops.append(SubtypeOp(family, t, copy, True))
            ops.append(SubtypeOp(family, copy, t, True))
    for i in range(10):
        t = terms.random_type(rng, 6 + i % 6, empty_share=0.1)
        u = terms.random_type(rng, 6 + (i * 5) % 6, empty_share=0.1)
        copy = terms.inflate(t, rng)
        ops.append(SubtypeOp("random", t, copy, True))
        ops.append(SubtypeOp("random", copy, t, True))
        ops.append(SubtypeOp("random", t, u))
        ops.append(SubtypeOp("random", t, terms.union_of(t, u), True))
    for i in range(6):
        left, full, partial = _distribution(rng, 3 if i % 3 == 0 else 2)
        ops.append(SubtypeOp("distribution", left, full, True))
        ops.append(SubtypeOp("distribution", left, partial, False))
    for empty in _empties(rng):
        ops.append(SubtypeOp("empty_left", empty, terms.parse("T = int; root T"), True))
        ops.append(SubtypeOp("empty_left", empty, terms.random_type(rng, 10), True))
    for i in range(8):
        b = Builder()
        fields = [("f", _nat(b))] + ([("g", b.int())] if i % 2 else [])
        left = b.graph(b.obj("a", fields))
        nodes, root = terms.random_type(rng, 6 + i)
        nodes[root] = ("obj", "b", nodes[root][2])  # random_type roots are objects
        ops.append(SubtypeOp("class_mismatch", left, (nodes, root), False))
    return ops


# ---------------------------------------------------------------------------
# inhabitation

FAN_N = 20
SAMPLE_COUNT = 3


class InhabitOp:
    """Parse a type, then not_empty, witness, member on seeded members
    and non-members, and sample_values."""

    def __init__(self, family, graph, rng, sample_seed):
        self.family = family
        self.graph = graph
        self.src = to_source(graph)
        values = oracles.Values(graph)
        members = [values.member(rng, 4) for _ in range(2)]
        members = [v for v in members if v is not None]
        outsiders = [oracles.Values.mutate(v, rng) for v in members]
        if not members:
            outsiders = [terms.parse("V = obj(a, []); root V"), terms.parse("V = 7; root V")]
        self.values = members + outsiders
        self.value_srcs = [to_source(v, values=True) for v in self.values]
        self.sample_seed = sample_seed
        self.oracle = None

    def run(self, L):
        t = L.type_from_source(self.src)
        inhabited = L.not_empty(t)
        w = L.witness(t)
        verdicts = [L.member(L.value_from_source(v), t) for v in self.value_srcs]
        try:
            samples = L.sample_values(t, SAMPLE_COUNT, self.sample_seed)
        except ValueError:
            samples = None
        return inhabited, w, verdicts, samples

    def check(self, result, ctx):
        inhabited, w, verdicts, samples = result
        if self.oracle is None:
            self.oracle = (oracles.not_empty(self.graph),
                           [oracles.member(v, self.graph) for v in self.values],
                           oracles.infinitely_many(self.graph))
        live, members, infinite = self.oracle
        expect(inhabited == live, "not_empty gave %s, the fixpoint %s (%s)",
               inhabited, live, self.family)
        expect((w is None) != live, "witness disagrees with emptiness (%s)", self.family)
        if w is not None:
            wg = ctx.printed_value(w)
            expect(oracles.member(wg, self.graph), "the witness is not a member (%s)", self.family)
            ctx.count("witness.nodes", terms.size(wg))
        expect(verdicts == members, "member gave %s, the fixpoint %s (%s)",
               verdicts, members, self.family)
        expect((samples is None) != live, "sample_values disagrees with emptiness")
        distinct = []
        for v in samples or ():
            vg = ctx.printed_value(v)
            expect(oracles.member(vg, self.graph), "a sampled value is not a member (%s)",
                   self.family)
            expect(not any(oracles.bisimilar(vg, d) for d in distinct),
                   "sample_values repeated a value (%s)", self.family)
            distinct.append(vg)
        ctx.count("sample_values.values", len(distinct))
        return not (infinite and len(distinct) < SAMPLE_COUNT)


def _random_of_kind(rng, n, kind):
    """A random type with empty parts whose members are, by the oracles,
    none ("empty"), infinitely many ("infinite") or not shown to be
    infinitely many ("finite"); the three cost very different amounts to
    sample, so every round has the same number of each."""
    while True:
        t = terms.random_type(rng, n, empty_share=0.25)
        if not oracles.not_empty(t):
            got = "empty"
        elif oracles.infinitely_many(t):
            got = "infinite"
        else:
            got = "finite"
        if got == kind:
            return t


def inhabitation(seed):
    rng = random.Random(seed)
    ops = []
    # The Baseline shapes sample with seed 0, as the Baseline table does.
    # The op counts place op_p50_ms inside the numbers ops and op_p90_ms
    # inside fan_n, whose make-up does not depend on the seed.
    for family, graph, copies in (("fan_n", terms.fan(FAN_N), 14),
                                  ("fan_2n", terms.fan(2 * FAN_N), 4),
                                  ("cyclic_chain", terms.cyclic_chain(150), 2),
                                  ("union_tower", terms.union_tower(48), 3)):
        for _ in range(copies):
            ops.append(InhabitOp(family, graph, rng, 0))
    for k in range(18):
        for t in numbers().values():
            ops.append(InhabitOp("numbers", terms.inflate(t, rng), rng, k))
    for i in range(20):
        kind = ("empty", "infinite", "infinite", "finite")[i % 4]
        t = _random_of_kind(rng, 6 + i % 6, kind)
        ops.append(InhabitOp("random_" + kind, t, rng, rng.randrange(1000)))
    # Past the 60-node walk budget of the sampler: fails on every seed, so
    # its inputs are fixed.
    ops.append(InhabitOp("fan_60", terms.fan(60), random.Random(0), 0))
    return ops


# ---------------------------------------------------------------------------
# inference

FWD_N = 4

NUMERALS = """class Zero {
  add(n) { return n; }
}
class Succ {
  pred;
  Succ(n) { this.pred = n; }
  add(n) { return pred.add(new Succ(n)); }
}
"""

_EVEN_ODD = [
    "E = obj(zero,[]) \\/ obj(succ,[pred: O]); O = obj(succ,[pred: E]); ",
    "E = obj(zero, []) \\/ obj(succ, [pred: obj(succ, [pred: E])]); "
    "O = obj(succ, [pred: obj(zero, [])]) \\/ obj(succ, [pred: obj(succ, [pred: O])]); ",
]


def fwd_program(n, cls, meth):
    lines = ["class %s0 { %s(x) { return x; } }" % (cls, meth)]
    for i in range(1, n):
        lines.append("class %s%d extends %s%d { %s(x) { return new %s%d().%s(x); } }"
                     % (cls, i, cls, i - 1, meth, cls, i - 1, meth))
    return "\n".join(lines) + "\n"


BOXES = """class {box} {{ {val}; {box}(v) {{ this.{val} = v; }} get() {{ return {val}; }} put(x) {{ return new {box}(x); }} }}
class {sub} extends {box} {{ }}
class {wrap} {{ item; {wrap}(i) {{ this.item = i; }} open() {{ return item.get(); }} rewrap() {{ return new {wrap}(new {box}(item.get())); }} }}
"""


class InferOp:
    """Parse a class program and a query, compile, solve."""

    def __init__(self, family, program, query, answer_ok, max_depth=64):
        self.family = family
        self.program, self.query = program, query
        self.answer_ok = answer_ok
        self.max_depth = max_depth
        self.expected = None

    def run(self, L):
        from coinfer.cosld_engine import SolverConfig

        clauses = L.compile_program(L.parse_program(self.program))
        query = L.parse_query(self.query)
        return clauses, L.solve(query, clauses, SolverConfig(max_depth=self.max_depth))

    def check(self, result, ctx):
        from coinfer.cosld_engine import logic_to_type

        clauses, solved = result
        if self.expected is None:
            self.expected = oracles.clause_counts(self.program)
            compiled = ctx.compiled_counts(self.program)
            for pred, n in self.expected.items():
                expect(compiled.get(pred, 0) == n, "%d %s facts, expected %d",
                       compiled.get(pred, 0), pred, n)
        facts = sum(self.expected.values())
        methods = self.expected["dec_meth"]
        classes = self.expected["extends"]
        # 12 fixed runtime clauses, one constructor a class, one clause a method
        expect(len(clauses) == facts + 12 + classes + methods,
               "%d clauses, expected %d", len(clauses), facts + 12 + classes + methods)
        expect(solved.answers, "no answer (%s)", self.family)
        for answer in solved.answers:
            term = logic_to_type(answer.bindings["R"])
            expect(term is not None, "answer R is not a ground type (%s)", self.family)
            expect(self.answer_ok(ctx.printed_type(term)), "wrong answer (%s)", self.family)
        ctx.count("compile_program.clauses", len(clauses))
        ctx.count("solve.steps", solved.steps)
        ctx.count("solve.steps." + self.family, solved.steps)
        ctx.count("solve.answers", len(solved.answers))
        ctx.count("solve.subsumptions", len(solved.subsumptions))
        return True


_INT = terms.parse("T = int; root T")

_TYPE_POOL = [
    "int",
    "obj(k, [])",
    "obj(k, [x: int])",
    "obj(j, [y: obj(k, [])])",
]


def _field_query(rng, names, kind):
    """A query of one of seven shapes over the box program, and the graph
    its answer must be."""
    t1, t2 = rng.sample(range(len(_TYPE_POOL)), 2)
    src1, src2 = _TYPE_POOL[t1], _TYPE_POOL[t2]
    g1 = terms.parse("T = %s; root T" % src1)
    g2 = terms.parse("T = %s; root T" % src2)
    box, sub, wrap, val = names["box"], names["sub"], names["wrap"], names["val"]
    prelude = "T1 = %s; T2 = %s; " % (src1, src2)
    b = Builder()
    if kind == 0:
        return prelude + "invoke(obj(%s,[%s: T1]), get, [], R)" % (box, val), g1
    if kind == 1:
        return (prelude + "invoke(obj(%s,[%s: T1]), put, [T2], R)" % (box, val),
                b.graph(b.obj(box, [(val, b.graft(g2))])))
    if kind == 2:
        return prelude + "invoke(obj(%s,[%s: T1]), get, [], R)" % (sub, val), g1
    if kind == 3:
        return (prelude + "invoke(obj(%s,[%s: T1]) \\/ obj(%s,[%s: T2]), get, [], R)"
                % (box, val, sub, val), terms.union_of(g1, g2))
    if kind == 4:
        return prelude + "field_acc(obj(%s,[%s: T1]), %s, R)" % (box, val, val), g1
    if kind == 5:
        return (prelude + "invoke(obj(%s,[item: obj(%s,[%s: T1])]), open, [], R)"
                % (wrap, sub, val), g1)
    inner = b.obj(box, [(val, b.graft(g1))])
    return (prelude + "invoke(obj(%s,[item: obj(%s,[%s: T1])]), rewrap, [], R)"
            % (wrap, sub, val), b.graph(b.obj(wrap, [("item", inner)])))


def inference(seed):
    rng = random.Random(seed)
    ops = []
    cls, meth = rng.choice(["c", "k", "node"]), rng.choice(["m", "run", "fwd"])
    for family, n, copies in (("fwd_n", FWD_N, 16), ("fwd_2n", 2 * FWD_N, 6)):
        query = "invoke(obj(%s%d,[]), %s, [int], R)" % (cls, n - 1, meth)
        for _ in range(copies):
            ops.append(InferOp(family, fwd_program(n, cls, meth), query,
                               lambda r: oracles.bisimilar(r, _INT), max_depth=512))
    for i in range(16):
        prelude = _EVEN_ODD[i % 2]
        atom = "invoke(E, add, [O], R)" if i % 4 < 2 else "invoke(O, add, [E], R)"
        ops.append(InferOp("numerals", NUMERALS, prelude + atom, oracles.odd_numerals_only))
    programs = []
    for k in range(3):
        names = {"box": "box%d" % k, "sub": "sub%d" % k, "wrap": "wrap%d" % k,
                 "val": rng.choice(["val", "item", "v"])}
        programs.append((BOXES.format(**names), names))
    for i in range(66):
        text, names = programs[i % 3]
        query, want = _field_query(rng, names, i % 7)
        ops.append(InferOp("field_access", text, query,
                           lambda r, want=want: oracles.bisimilar(r, want)))
    return ops


# ---------------------------------------------------------------------------
# the README CLI tour

_EVN_ODD_QUERY = """
    EVN = obj(zero,[]) \\/ obj(succ,[pred: ODD]);
    ODD = obj(succ,[pred: EVN]);
    invoke(EVN, add, [ODD], R)"""

# (arguments, exit code, documented output lines, whole output or a prefix)
TOUR = [
    (["parse", "nat.ty"], 0,
     ["T0 = obj(zero, []) \\/ obj(succ, [pred: T0]);", "root T0"], "all"),
    (["subtype", "odd.ty", "nat.ty"], 0, ["subtype"], "all"),
    (["empty", "bot.ty"], 1, ["empty"], "all"),
    (["empty", "nat.ty", "--witness"], 0,
     ["not empty", "T0 = obj(zero, []);", "root T0"], "all"),
    (["sample", "odd.ty", "--count", "2", "--seed", "1"], 0,
     ["T0 = obj(succ, [pred -> obj(zero, [])]);", "root T0", "",
      "T0 = obj(succ, [pred -> obj(succ, [pred -> T0])]);", "root T0"], "all"),
    (["subtype", "bot.ty", "nat.ty", "--trace"], 0,
     ["subtype",
      "#0 T0 = T0 \\/ T0; root T0  <=  T0 = obj(zero, []) \\/ obj(succ, [pred: T0]);"
      " root T0   [∨L]",
      "  cycle to #0 (labels: ∨L)",
      "  cycle to #0 (labels: ∨L)"], "all"),
    (["compile", "numerals.prog"], 0,
     ["class(object).", "class(zero).", "class(succ)."], "prefix"),
    (["solve", "numerals.prog", "--query", _EVN_ODD_QUERY], 0,
     ["R = T1 where T0 = obj(succ,[pred:obj(zero,[])\\/obj(succ,[pred:T0])]);"
      " T1 = T0\\/T1"], "contains"),
    (["solve", "numerals.prog", "--no-subsumption", "--max-depth", "16",
      "--query", _EVN_ODD_QUERY], 3,
     ["inconclusive: depth budget exhausted"], "all"),
]

TOUR_FILES = ("nat.ty", "odd.ty", "bot.ty", "numerals.prog")


class TourOp:
    """One pass through the README CLI tour via coinfer.cli.main."""

    family = "tour"

    def __init__(self, tour_dir):
        self.commands = [([os.path.join(tour_dir, a) if a in TOUR_FILES else a
                           for a in args], code, lines, how)
                         for args, code, lines, how in TOUR]

    def run(self, L):
        results = []
        for args, _, _, _ in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = L.cli_main(args)
            results.append((rc, out.getvalue()))
        return results

    def check(self, result, ctx):
        for (args, code, lines, how), (rc, out) in zip(self.commands, result):
            got = out.splitlines()
            expect(rc == code, "coinfer %s exited %d, expected %d", args[0], rc, code)
            if how == "all":
                ok = got == lines
            elif how == "prefix":
                ok = got[:len(lines)] == lines
            else:
                ok = all(line in got for line in lines)
            expect(ok, "coinfer %s printed %r", " ".join(args[:2]), got[:6])
        return True


def cli_tour(seed, root):
    tour_dir = os.path.join(root, "bench", "tour")
    return [TourOp(tour_dir) for _ in range(100)]


WORKLOADS = {
    "subtyping": lambda seed, root: subtyping(seed),
    "inhabitation": lambda seed, root: inhabitation(seed),
    "inference": lambda seed, root: inference(seed),
    "cli_tour": cli_tour,
}
