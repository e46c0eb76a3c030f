"""Shared helpers: independent oracles and random graph generators.

The oracles here deliberately use different algorithms than the
library: product-graph search for equality instead of canonicalization,
and plain Kleene iteration over every reachable judgment for subtyping
and membership instead of the library's component-wise engine and
counter refutation, so each pair can check each other.
"""

import json
import random
from dataclasses import dataclass

from coinfer.term_core import (
    IntType,
    IntValue,
    ObjType,
    ObjValue,
    UnionType,
)

CLASS_POOL = ("a", "b", "c")
FIELD_POOL = ("f", "g", "h")


def local_shape(node):
    if isinstance(node, IntType):
        return ("int",)
    if isinstance(node, ObjType):
        return ("obj", node.class_name, tuple(sorted(node.fields)))
    if isinstance(node, UnionType):
        return ("union",)
    if isinstance(node, IntValue):
        return ("intval", node.value)
    if isinstance(node, ObjValue):
        return ("objval", node.class_name, tuple(sorted(node.fields)))
    raise TypeError(node)


def node_children(node):
    if isinstance(node, (IntType, IntValue)):
        return ()
    if isinstance(node, (ObjType, ObjValue)):
        return tuple(node.fields[f] for f in sorted(node.fields))
    return (node.left, node.right)


def trees_equal_oracle(t1, t2):
    """True iff the two graphs unfold to the same infinite tree.

    Product-graph search: the unfoldings differ iff some reachable pair
    of positions disagrees on its local constructor.
    """
    seen = set()
    todo = [(t1, t2)]
    while todo:
        a, b = todo.pop()
        if (a.uid, b.uid) in seen:
            continue
        seen.add((a.uid, b.uid))
        if local_shape(a) != local_shape(b):
            return False
        todo.extend(zip(node_children(a), node_children(b)))
    return True


def _nu_mu(items, holds):
    """nu X. mu Y. {i in items : holds(i, X, Y)}, by plain Kleene
    iteration: the inner least fixpoint from the empty set, the outer
    greatest one from all items."""
    x = set(items)
    while True:
        y = set()
        while True:
            grown = {i for i in items if holds(i, x, y)}
            if grown == y:
                break
            y = grown
        if y == x:
            return x
        x = y


def inhabited_oracle(t):
    """uids of the inhabited nodes reachable from t: int is inhabited, an
    object when all its fields are (greatest fixpoint, so infinite
    values count), a union when one of its sides is (least fixpoint, so
    a cycle of unions alone is empty)."""
    nodes = {}
    todo = [t]
    while todo:
        n = todo.pop()
        if n.uid not in nodes:
            nodes[n.uid] = n
            todo.extend(node_children(n))

    def holds(uid, x, y):
        n = nodes[uid]
        if isinstance(n, IntType):
            return True
        if isinstance(n, ObjType):
            return all(c.uid in x for c in n.fields.values())
        return n.left.uid in y or n.right.uid in y

    return _nu_mu(list(nodes), holds)


def subtype_oracle(t1, t2):
    """The paper's subtyping rules, written out apart from the library.

    A judgment holds in nu X. mu Y over all judgments reachable from
    (t1, t2): the union-left, object and distribution rules read their
    premises from X, the two union-right rules from Y, so every cycle of
    a derivation applies one of the former.  An uninhabited non-union
    left side is below anything; a union on the left is split first."""
    live = inhabited_oracle(t1)
    variants = {}

    def variant(l, fname, branch):
        fields = dict(l.fields, **{fname: branch})
        key = (l.class_name, tuple((f, fields[f].uid) for f in sorted(fields)))
        if key not in variants:
            variants[key] = ObjType(l.class_name, fields)
            if all(c.uid in live for c in fields.values()):
                live.add(variants[key].uid)
        return variants[key]

    def options(l, r):
        if isinstance(l, UnionType):
            return [("or-left", [(l.left, r), (l.right, r)])]
        if l.uid not in live:
            return [("empty", [])]
        out = []
        if isinstance(l, IntType) and isinstance(r, IntType):
            out.append(("int", []))
        if isinstance(l, ObjType):
            unions = [f for f in sorted(l.fields) if isinstance(l.fields[f], UnionType)]
            if unions:
                u = l.fields[unions[0]]
                out.append(("distr", [(variant(l, unions[0], u.left), r),
                                      (variant(l, unions[0], u.right), r)]))
            if (isinstance(r, ObjType) and r.class_name == l.class_name
                    and set(r.fields) <= set(l.fields)):
                out.append(("obj", [(l.fields[f], r.fields[f]) for f in r.fields]))
        if isinstance(r, UnionType):
            out.append(("or-right", [(l, r.left)]))
            out.append(("or-right", [(l, r.right)]))
        return out

    rules = {}
    todo = [(t1, t2)]
    while todo:
        j = todo.pop()
        if j not in rules:
            rules[j] = options(*j)
            for _, premises in rules[j]:
                todo.extend(premises)

    def holds(j, x, y):
        return any(all(p in (y if rule == "or-right" else x) for p in premises)
                   for rule, premises in rules[j])

    return (t1, t2) in _nu_mu(list(rules), holds)


def member_oracle(v, t):
    """The paper's membership, written out apart from the library.

    The pair (v, t) holds in nu X. mu Y over all (value, type) pairs
    reachable from it: an int pair when the value is an integer, an
    object pair when the classes agree, the value has every field of the
    type and each field pair is in X, a union pair when one of its sides
    is in Y, so a cycle of unions alone holds nothing."""
    pairs = {}  # (value uid, type uid) -> (value, type, premise keys or None)
    todo = [(v, t)]
    while todo:
        a, b = todo.pop()
        key = (a.uid, b.uid)
        if key in pairs:
            continue
        if isinstance(b, UnionType):
            kids = [(a, b.left), (a, b.right)]
        elif (isinstance(b, ObjType) and isinstance(a, ObjValue)
              and a.class_name == b.class_name and set(b.fields) <= set(a.fields)):
            kids = [(a.fields[f], b.fields[f]) for f in b.fields]
        else:
            kids = None
        pairs[key] = (a, b, kids and [(c.uid, d.uid) for c, d in kids])
        todo.extend(kids or ())

    def holds(key, x, y):
        a, b, premises = pairs[key]
        if isinstance(b, IntType):
            return isinstance(a, IntValue)
        if premises is None:
            return False
        if isinstance(b, UnionType):
            return any(p in y for p in premises)
        return all(p in x for p in premises)

    return (v.uid, t.uid) in _nu_mu(list(pairs), holds)


def rename_unify_oracle(goal, clause, trail):
    """Resolve goal against clause by renaming the whole clause apart and
    unifying the goal with the renamed head, as the solver once did: each
    argument goal first, the head's [K:V] record patterns last by the
    solver's lookup.  Returns the renamed body, or None when the head does
    not unify; bindings are left on the trail.  Only unification and
    lookup come from the solver, so this checks its head matching."""
    from coinfer.cosld_engine import _lookup, _unify
    from coinfer.horn_compiler import Atom, ListTerm, ObjTerm, Record, UnionTerm, Var

    fresh = {}

    def cp(t):
        if isinstance(t, Var):
            if id(t) not in fresh:
                fresh[id(t)] = Var(t.name)
            return fresh[id(t)]
        if isinstance(t, UnionTerm):
            return UnionTerm(cp(t.left), cp(t.right))
        if isinstance(t, ObjTerm):
            return ObjTerm(cp(t.cls), cp(t.rec))
        if isinstance(t, Record):
            return Record([(k if isinstance(k, str) else cp(k), cp(v)) for k, v in t.pairs],
                          None if t.tail is None else cp(t.tail))
        if isinstance(t, ListTerm):
            return ListTerm([cp(x) for x in t.items], None if t.tail is None else cp(t.tail))
        return t  # constants and integers

    head = [cp(a) for a in clause.head.args]
    body = [Atom(b.pred, [cp(a) for a in b.args]) for b in clause.body]
    seen = set()
    later = []
    for x, y in zip(goal.args, head):
        if (isinstance(y, Record) and y.tail is None and len(y.pairs) == 1
                and isinstance(y.pairs[0][0], Var)):
            later.append((y, x))
        elif not _unify(x, y, trail, seen):
            return None
    if all(_lookup(pattern, x, trail, seen) for pattern, x in later):
        return body
    return None


def unstamped(query):
    """The query's atom with every term copied through copy_term, which
    makes each node anew: the same terms, and the same sharing, with no
    stamp on them."""
    from coinfer.cosld_engine import copy_term
    from coinfer.horn_compiler import Atom

    memo = {}
    return Atom(query.atom.pred, [copy_term(a, memo) for a in query.atom.args])


def reference_solve(query, clauses, config=None):
    """solve as it was before its stack of choice points: the search
    recursed through nested generators, one per goal entered and one per
    goal sequence.  Clause selection, head matching, subsumption and
    answer capture come from the solver, so this checks the search order,
    the budgets and the counts.  A head's [K:V] pattern fails here on a
    closed record of several fields whose key nothing binds, as it did."""
    from coinfer import cosld_engine as ce
    from coinfer.horn_compiler import Atom

    class Nested(ce._Engine):
        def prove_atom(self, atom, anc, limit):
            self.steps += 1
            if self.steps > self.config.max_steps:
                self.steps_exhausted = True
                return
            cfg = self.config
            node = anc
            while node is not None:
                anc_atom = node[0]
                if anc_atom.pred == atom.pred and len(anc_atom.args) == len(atom.args):
                    if cfg.coinduction_enabled:
                        mark = len(self.trail)
                        seen = set()
                        if all(ce._unify(x, y, self.trail, seen)
                               for x, y in zip(atom.args, anc_atom.args)):
                            yield
                        ce._undo(self.trail, mark)
                    table = cfg.variance.get(atom.pred)
                    if (cfg.subsumption_enabled and table is not None
                            and len(table) == len(atom.args)):
                        mark = len(self.trail)
                        ok, obligations = self._subsume(anc_atom, atom, table)
                        if ok:
                            self.subsumptions.append((atom.pred, tuple(obligations)))
                            yield
                        ce._undo(self.trail, mark)
                node = node[1]
            depth = anc[2] if anc is not None else 0
            if depth >= limit:
                self.depth_hit = True
                return
            child = (atom, anc, depth + 1)
            for clause in self._candidates(atom, ce._goal_key(atom)):
                mark = len(self.trail)
                m = ce._match_head(atom, clause.head, self.trail)
                if m is not None:
                    body = [Atom(b.pred, [ce._instance(a, m) for a in b.args])
                            for b in clause.body]
                    yield from self.prove_seq(body, 0, child, limit)
                ce._undo(self.trail, mark)

        def prove_seq(self, atoms, i, anc, limit):
            if i == len(atoms):
                yield
                return
            if not self._bound_fact(atoms[i]):
                for j in range(i + 1, len(atoms)):
                    if self._bound_fact(atoms[j]):
                        atoms = atoms[:i] + [atoms[j]] + atoms[i:j] + atoms[j + 1:]
                        break
            for _ in self.prove_atom(atoms[i], anc, limit):
                yield from self.prove_seq(atoms, i + 1, anc, limit)

    if config is None:
        config = ce.SolverConfig()
    atom = query.atom if isinstance(query, ce.Query) else query
    engine = Nested(clauses, config)
    qvars = list(ce._vars(atom.args))
    answers, complete, depth_hit_any, final_hit = [], False, False, False
    for limit in ce._stages(config):
        engine.depth_hit = engine.steps_exhausted = False
        stage_answers = []
        cap_hit = False
        try:
            for _ in engine.prove_atom(atom, None, limit):
                ans = ce._capture(atom, qvars)
                if not any(ce._atoms_equal(ans.atom, old.atom) for old in stage_answers):
                    stage_answers.append(ans)
                    if len(stage_answers) >= config.max_answers:
                        cap_hit = True
                        break
        finally:
            ce._undo(engine.trail, 0)
        pruned = engine.depth_hit or engine.steps_exhausted
        depth_hit_any = depth_hit_any or pruned
        clean = not pruned and not cap_hit
        if stage_answers or clean:
            answers, complete, final_hit = stage_answers, clean, pruned
            break
    else:
        final_hit, complete = depth_hit_any, False
    return ce.SolveResult(answers, complete, final_hit, engine.steps, engine.subsumptions)


def random_type(rng, size):
    """Random connected type graph with at most `size` nodes (cycles allowed)."""
    kinds = [rng.choice(("int", "obj", "union")) for _ in range(size)]
    nodes = []
    for kind in kinds:
        if kind == "int":
            nodes.append(IntType())
        elif kind == "obj":
            nodes.append(ObjType(rng.choice(CLASS_POOL)))
        else:
            nodes.append(UnionType())
    for node in nodes:
        if isinstance(node, UnionType):
            node.left = rng.choice(nodes)
            node.right = rng.choice(nodes)
        elif isinstance(node, ObjType):
            names = rng.sample(FIELD_POOL, rng.randint(0, len(FIELD_POOL)))
            node.fields = dict(sorted((f, rng.choice(nodes)) for f in names))
    return nodes[0]


def random_acyclic_type(rng, size, classes=CLASS_POOL):
    """Random acyclic type graph of `size` nodes: each node's children are
    drawn from the nodes made before it, so subterms are shared and
    repeated shapes are common; the last node made is the root."""
    nodes = [IntType()]
    for _ in range(size - 1):
        kind = rng.choice(("int", "obj", "obj", "union"))
        if kind == "int":
            node = IntType()
        elif kind == "obj":
            names = rng.sample(FIELD_POOL, rng.randint(0, len(FIELD_POOL)))
            node = ObjType(rng.choice(classes), {f: rng.choice(nodes) for f in names})
        else:
            node = UnionType(rng.choice(nodes), rng.choice(nodes))
        nodes.append(node)
    return nodes[-1]


def random_connected_type(rng, size):
    """Random type graph in which all `size` nodes are reachable from the
    returned root: each node after the first fills a free child slot of
    an earlier one, and the slots left over point anywhere (cycles)."""
    nodes = []
    slots = []  # (node, field name or "left"/"right") still unassigned
    for i in range(size):
        kind = rng.choice(("int", "obj", "obj", "union"))
        # an int opens no slot: keep one open for the next node
        if kind == "int" and len(slots) < 2 and i + 1 < size:
            kind = "obj"
        if kind == "int":
            node = IntType()
        elif kind == "obj":
            node = ObjType(rng.choice(CLASS_POOL))
            node.fields = {f: None for f in
                           sorted(rng.sample(FIELD_POOL, rng.randint(1, len(FIELD_POOL))))}
        else:
            node = UnionType()
        if nodes:
            holder, slot = slots.pop(rng.randrange(len(slots)))
            _fill(holder, slot, node)
        nodes.append(node)
        if kind == "obj":
            slots.extend((node, f) for f in node.fields)
        elif kind == "union":
            slots.extend(((node, "left"), (node, "right")))
    for holder, slot in slots:
        _fill(holder, slot, rng.choice(nodes))
    return nodes[0]


def _fill(holder, slot, child):
    if isinstance(holder, UnionType):
        setattr(holder, slot, child)
    else:
        holder.fields[slot] = child


def random_value(rng, size, max_int=5):
    """Random connected value graph with at most `size` nodes."""
    nodes = []
    for _ in range(size):
        if rng.random() < 0.4:
            nodes.append(IntValue(rng.randint(-max_int, max_int)))
        else:
            nodes.append(ObjValue(rng.choice(CLASS_POOL)))
    for node in nodes:
        if isinstance(node, ObjValue):
            names = rng.sample(FIELD_POOL, rng.randint(0, len(FIELD_POOL)))
            node.fields = dict(sorted((f, rng.choice(nodes)) for f in names))
    return nodes[0]


# The Baseline shapes of ROADMAP.md.

def chain(n):
    """int under n objects obj(a, [f: ...])."""
    t = IntType()
    for _ in range(n):
        t = ObjType("a", {"f": t})
    return t


def spine(n):
    """int under n unions, each with obj(a, [f: int]) on its left."""
    t = IntType()
    for _ in range(n):
        t = UnionType(ObjType("a", {"f": IntType()}), t)
    return t


def fan(n):
    """Node i is obj(a, [f: node i+1, g: node 0]); the last f is int."""
    nodes = [ObjType("a") for _ in range(n)]
    for i, node in enumerate(nodes):
        node.fields = {"f": nodes[i + 1] if i + 1 < n else IntType(), "g": nodes[0]}
    return nodes[0]


def union_tower(n):
    """int under n unions whose two sides coincide."""
    t = IntType()
    for _ in range(n):
        t = UnionType(t, t)
    return t


def seeded(seed):
    return random.Random(seed)


_FAMILY_DECLS = """
Zer = obj(zero, []);
Nat = Zer \\/ obj(succ, [pred: Nat]);
Pos = obj(succ, [pred: Zer]) \\/ obj(succ, [pred: Pos]);
Evn = Zer \\/ obj(succ, [pred: obj(succ, [pred: Evn])]);
Odd = obj(succ, [pred: Zer]) \\/ obj(succ, [pred: obj(succ, [pred: Odd])]);
Bot = Bot \\/ Bot;
root %s
"""


def number_types():
    """The zero/succ family: zer, nat, pos, evn, odd, plus the empty type."""
    from coinfer.term_core import type_from_source

    return {name.lower(): type_from_source(_FAMILY_DECLS % name)
            for name in ("Zer", "Nat", "Pos", "Evn", "Odd", "Bot")}


def _shell(node):
    if isinstance(node, IntType):
        return IntType()
    if isinstance(node, UnionType):
        return UnionType()
    if isinstance(node, ObjType):
        return ObjType(node.class_name)
    if isinstance(node, IntValue):
        return IntValue(node.value)
    return ObjValue(node.class_name)


def inflate(t, rng, copies=2):
    """Bisimilar graph with every node duplicated and edges re-wired
    randomly among the duplicates (representation noise)."""
    from coinfer.term_core import subterm_closure

    nodes = list(subterm_closure(t))
    clones = {n.uid: [_shell(n) for _ in range(copies)] for n in nodes}
    for n in nodes:
        for clone in clones[n.uid]:
            if isinstance(n, UnionType):
                clone.left = rng.choice(clones[n.left.uid])
                clone.right = rng.choice(clones[n.right.uid])
            elif isinstance(n, (ObjType, ObjValue)):
                clone.fields = {f: rng.choice(clones[c.uid])
                                for f, c in n.fields.items()}
    return clones[t.uid][0]


# The term reader as it was before it built the graph in one pass: the
# parser made a tree of syntactic expressions, and resolve_names made the
# graph from it in a second walk.  JSON went through the same expressions,
# and term_to_json printed the text and parsed it back.  The reader and
# writer in term_core must agree with it on text, node numbering and
# errors.

@dataclass
class IntExpr:
    pass


@dataclass
class RefExpr:
    name: str


@dataclass
class ObjExpr:
    class_name: str
    fields: list  # of (name, expr)


@dataclass
class UnionExpr:
    left: object
    right: object


@dataclass
class IntLitExpr:
    value: int


@dataclass
class ObjValExpr:
    class_name: str
    fields: list


def _reference_expr(toks, i, values, refs, fail):
    from coinfer.term_core import _expected, _kind

    sep = "->" if values else ":"
    make = ObjValExpr if values else ObjExpr
    stack = []
    parts = []
    while True:
        t = toks[i]
        if t == "obj":
            if toks[i + 1] != "(":
                _expected(fail, toks, i + 1, "'('")
            cls = toks[i + 2]
            if _kind(cls) != "IDENT":
                _expected(fail, toks, i + 2, "class name")
            if toks[i + 3] != ",":
                _expected(fail, toks, i + 3, "','")
            if toks[i + 4] != "[":
                _expected(fail, toks, i + 4, "'['")
            f = toks[i + 5]
            if f == "]":
                if toks[i + 6] != ")":
                    _expected(fail, toks, i + 6, "')'")
                i += 7
                atom = make(cls, [])
            else:
                if _kind(f) != "IDENT":
                    _expected(fail, toks, i + 5, "field name")
                if toks[i + 6] != sep:
                    _expected(fail, toks, i + 6, "'%s'" % sep)
                stack.append(["[", parts, cls, [], {f}, f])
                parts = []
                i += 7
                continue
        elif t[:1].isupper() and t[0].isalpha():
            refs.append(t)
            i += 1
            atom = RefExpr(t)
        elif t == "(":
            stack.append(["(", parts])
            parts = []
            i += 1
            continue
        elif t == "int":
            if values:
                fail(i, "'int' is a type, not a value")
            i += 1
            atom = IntExpr()
        elif _kind(t) == "INT":
            if not values:
                fail(i, "integer literals only appear in value terms")
            i += 1
            atom = IntLitExpr(int(t))
        elif _kind(t) == "IDENT":
            fail(i, "unexpected identifier %r" % t)
        else:
            _expected(fail, toks, i, "a term")
        while True:
            if toks[i] == "\\/" and not values:
                parts.append(atom)
                i += 1
                break
            while parts:
                atom = UnionExpr(parts.pop(), atom)
            if not stack:
                return atom, i
            frame = stack.pop()
            parts = frame[1]
            if frame[0] == "(":
                if toks[i] != ")":
                    _expected(fail, toks, i, "')'")
                i += 1
                continue
            fields, seen = frame[3], frame[4]
            fields.append((frame[5], atom))
            if toks[i] == ",":
                f = toks[i + 1]
                if _kind(f) != "IDENT":
                    _expected(fail, toks, i + 1, "field name")
                if f in seen:
                    fail(i + 1, "duplicate field %s" % f)
                seen.add(f)
                if toks[i + 2] != sep:
                    _expected(fail, toks, i + 2, "'%s'" % sep)
                frame[5] = f
                stack.append(frame)
                parts = []
                i += 3
                break
            if toks[i] != "]":
                _expected(fail, toks, i, "']'")
            if toks[i + 1] != ")":
                _expected(fail, toks, i + 1, "')'")
            i += 2
            atom = make(frame[2], fields)


def _reference_system(src, values):
    """(bindings name -> expression, root) of equation-system text."""
    from functools import partial

    from coinfer.term_core import _TYPE_TOKENS, TermError, _expected, _fail, _kind, scan

    toks = scan(src, _TYPE_TOKENS)
    fail = partial(_fail, src, toks)
    bindings, refs, i = {}, [], 0
    while toks[i] != "root":
        name = toks[i]
        if _kind(name) != "VAR":
            fail(i, "expected a declaration 'VAR = ...' or 'root VAR'")
        if name in bindings:
            fail(i, "duplicate binding for %s" % name)
        if toks[i + 1] != "=":
            _expected(fail, toks, i + 1, "'='")
        refs.append([])
        bindings[name], i = _reference_expr(toks, i + 2, values, refs[-1], fail)
        if toks[i] != ";":
            _expected(fail, toks, i, "';'")
        i += 1
    root = toks[i + 1]
    if _kind(root) != "VAR":
        _expected(fail, toks, i + 1, "root variable name")
    end = i + 3 if toks[i + 2] == ";" else i + 2
    if toks[end]:
        _expected(fail, toks, end, "end of input")
    for names in refs:
        for name in reversed(names):
            if name not in bindings:
                raise TermError("unbound variable %s" % name)
    if root not in bindings:
        fail(i + 1, "unbound root variable %s" % root)
    return bindings, root


def _reference_graph(bindings, values):
    """name -> node of expression bindings: one node per bound expression
    (aliases share it), made in binding order, then the inner expressions
    in a last-in-first-out walk."""
    from coinfer.term_core import TermError

    reps = {}
    for name in bindings:
        seen = [name]
        expr = bindings[name]
        while isinstance(expr, RefExpr):
            if expr.name in seen:
                raise TermError(
                    "variable cycle %s has no unique solution" % " = ".join(seen + [expr.name]))
            seen.append(expr.name)
            expr = bindings[expr.name]
        for alias in seen:
            reps[alias] = expr

    def make_node(expr):
        if isinstance(expr, (IntExpr, ObjExpr)):
            if values:
                raise TermError("type expression in a value system")
            return IntType() if isinstance(expr, IntExpr) else ObjType(expr.class_name)
        if isinstance(expr, UnionExpr):
            if values:
                raise TermError("union is not a value constructor")
            return UnionType()
        if not values:
            raise TermError("value expression in a type system")
        if isinstance(expr, IntLitExpr):
            return IntValue(expr.value)
        return ObjValue(expr.class_name)

    by_expr, named = {}, {}
    for name, expr in reps.items():
        if id(expr) not in by_expr:
            by_expr[id(expr)] = (make_node(expr), expr)
        named[name] = by_expr[id(expr)][0]
    pending = list(by_expr.values())

    def subnode(expr):
        if isinstance(expr, RefExpr):
            return named[expr.name]
        node = make_node(expr)
        pending.append((node, expr))
        return node

    while pending:
        node, expr = pending.pop()
        if isinstance(expr, UnionExpr):
            node.left = subnode(expr.left)
            node.right = subnode(expr.right)
        elif isinstance(expr, (ObjExpr, ObjValExpr)):
            node.fields = dict(sorted((f, subnode(sub)) for f, sub in expr.fields))
    return named


def _reference_from_json(data, values):
    from coinfer.term_core import TermError

    kind = data["kind"]
    if kind == "int":
        return IntExpr()
    if kind == "ref":
        return RefExpr(data["name"])
    if kind == "union":
        return UnionExpr(_reference_from_json(data["left"], values),
                         _reference_from_json(data["right"], values))
    if kind in ("obj", "objval"):
        fields = [(f, _reference_from_json(e, values)) for f, e in data["fields"].items()]
        return (ObjExpr if kind == "obj" else ObjValExpr)(data["class"], fields)
    if kind == "intval":
        return IntLitExpr(data["value"])
    raise TermError("unknown term kind %r" % kind)


def _reference_to_json(expr):
    if isinstance(expr, IntExpr):
        return {"kind": "int"}
    if isinstance(expr, RefExpr):
        return {"kind": "ref", "name": expr.name}
    if isinstance(expr, UnionExpr):
        return {"kind": "union", "left": _reference_to_json(expr.left),
                "right": _reference_to_json(expr.right)}
    if isinstance(expr, IntLitExpr):
        return {"kind": "intval", "value": expr.value}
    return {"kind": "objval" if isinstance(expr, ObjValExpr) else "obj",
            "class": expr.class_name,
            "fields": {f: _reference_to_json(e) for f, e in expr.fields}}


def reference_reader(text, values=False):
    """The root node of a type (or value) read from equation-system text,
    or from its JSON form when the text starts with "{", by the old
    two-pass reader."""
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        bindings = {name: _reference_from_json(e, values)
                    for name, e in data["bindings"].items()}
        root = data["root"]
    else:
        bindings, root = _reference_system(text, values)
    return _reference_graph(bindings, values)[root]


def reference_term_to_json(t):
    """term_to_json as it was: print the term, read the text back into
    expressions, and write those."""
    from coinfer.term_core import ValueTerm, _format_term

    values = isinstance(t, ValueTerm)
    bindings, root = _reference_system(_format_term(t, values), values)
    return json.dumps({"root": root,
                       "bindings": {name: _reference_to_json(e) for name, e in bindings.items()}},
                      indent=2)
