"""Goal-directed resolution over rational terms.

Clauses are resolved depth-first, leftmost goal first, with two extra ways
for a goal to succeed besides clause expansion: unifying with an ancestor
goal on the current path (the usual cyclic-proof rule), and being subsumed
by an ancestor goal under a per-argument variance discipline, where ordered
positions are compared with the subtyping relation instead of unified.
Unification builds rational bindings (a variable may be bound to a term
containing itself), so answers can be cyclic graphs; they are reported as
copies detached from the solver state.

Search runs under a depth budget with iterative deepening.  Exhausting the
budget is reported as inconclusive (depth_hit), never as failure.
"""

import re
import sys
from contextlib import contextmanager
from functools import partial

from .horn_compiler import (
    Atom,
    Const,
    HornClause,
    IntTerm,
    ListTerm,
    ObjTerm,
    Record,
    UnionTerm,
    Var,
)
from .subtyping import subtype
from .term_core import (
    IntType, ObjType, TermError, TokenParser, UnionType, parse_type, resolve_names, token_kind,
    token_spans,
)


class EngineError(Exception):
    pass


DEFAULT_VARIANCE = {"invoke": ("inv", "inv", "contra", "co")}

_FAIL = object()


class SolverConfig:
    def __init__(self, max_depth=64, subsumption_enabled=True,
                 coinduction_enabled=True, variance=None, max_answers=8,
                 max_steps=1_000_000, iterative=True):
        if max_depth <= 0 or max_answers <= 0 or max_steps <= 0:
            raise EngineError("budgets must be positive")
        self.max_depth = max_depth
        self.subsumption_enabled = subsumption_enabled
        self.coinduction_enabled = coinduction_enabled
        self.variance = DEFAULT_VARIANCE if variance is None else dict(variance)
        self.max_answers = max_answers
        self.max_steps = max_steps
        self.iterative = iterative


class Answer:
    def __init__(self, atom, bindings):
        self.atom = atom
        self.bindings = bindings


class SolveResult:
    def __init__(self, answers, complete, depth_hit, steps, subsumptions):
        self.answers = answers
        self.complete = complete
        self.depth_hit = depth_hit
        self.steps = steps
        self.subsumptions = subsumptions


class Query:
    def __init__(self, atom, types, vars):
        self.atom = atom
        self.types = types
        self.vars = vars


# ---------------------------------------------------------------------------
# terms: dereference, normal forms, unification

def deref(t):
    while isinstance(t, Var) and t.ref is not None:
        t = t.ref
    return t


def _bind(trail, v, t):
    v.ref = t
    trail.append(v)


def _undo(trail, mark):
    while len(trail) > mark:
        trail.pop().ref = None


def _norm_seq(t):
    """Flatten a list spine to (items, tail) where tail is None or an
    unbound variable.  Empty closed records count as nil."""
    items = []
    seen = set()
    t = deref(t)
    while True:
        if isinstance(t, ListTerm):
            if id(t) in seen:
                return _FAIL
            seen.add(id(t))
            items.extend(t.items)
            if t.tail is None:
                return items, None
            t = deref(t.tail)
        elif isinstance(t, Record) and not t.pairs:
            if t.tail is None:
                return items, None
            if id(t) in seen:
                return _FAIL
            seen.add(id(t))
            t = deref(t.tail)
        elif isinstance(t, Var):
            return items, t
        else:
            return _FAIL


def _norm_rec(t):
    """Flatten a record spine to (pairs, varkey pairs, tail).  Pairs with a
    key variable already bound to a name are folded into the plain pairs."""
    pairs = {}
    varkeys = []
    seen = set()
    t = deref(t)
    while True:
        if isinstance(t, Record):
            if id(t) in seen:
                return _FAIL
            seen.add(id(t))
            for k, v in t.pairs:
                key = deref(k) if isinstance(k, Var) else k
                if isinstance(key, Const):
                    key = key.name
                if isinstance(key, str):
                    if key in pairs:
                        return _FAIL
                    pairs[key] = v
                elif isinstance(key, Var):
                    varkeys.append((key, v))
                else:
                    return _FAIL
            if t.tail is None:
                return pairs, varkeys, None
            t = deref(t.tail)
        elif isinstance(t, ListTerm) and not t.items:
            if t.tail is None:
                return pairs, varkeys, None
            if id(t) in seen:
                return _FAIL
            seen.add(id(t))
            t = deref(t.tail)
        elif isinstance(t, Var):
            return pairs, varkeys, t
        else:
            return _FAIL


def _nil():
    return ListTerm([])


def _unify(a, b, trail, seen):
    a = deref(a)
    b = deref(b)
    if a is b:
        return True
    if isinstance(a, Var):
        _bind(trail, a, b)
        return True
    if isinstance(b, Var):
        _bind(trail, b, a)
        return True
    pair = (id(a), id(b))
    if pair in seen:
        return True
    seen.add(pair)
    if isinstance(a, Const):
        return isinstance(b, Const) and a.name == b.name
    if isinstance(a, IntTerm):
        return isinstance(b, IntTerm) and a.value == b.value
    if isinstance(a, UnionTerm):
        return (isinstance(b, UnionTerm)
                and _unify(a.left, b.left, trail, seen)
                and _unify(a.right, b.right, trail, seen))
    if isinstance(a, ObjTerm):
        return (isinstance(b, ObjTerm)
                and _unify(a.cls, b.cls, trail, seen)
                and _unify(a.rec, b.rec, trail, seen))
    if isinstance(a, (ListTerm, Record)) and isinstance(b, (ListTerm, Record)):
        if isinstance(a, ListTerm) or isinstance(b, ListTerm):
            na, nb = _norm_seq(a), _norm_seq(b)
            if na is not _FAIL and nb is not _FAIL:
                return _unify_seqs(na, nb, trail, seen)
        ra, rb = _norm_rec(a), _norm_rec(b)
        if ra is _FAIL or rb is _FAIL:
            return False
        return _unify_recs(ra, rb, trail, seen)
    return False


def _unify_seqs(na, nb, trail, seen):
    items_a, tail_a = na
    items_b, tail_b = nb
    n = min(len(items_a), len(items_b))
    for x, y in zip(items_a, items_b):
        if not _unify(x, y, trail, seen):
            return False
    if len(items_a) > n:
        if tail_b is None:
            return False
        _bind(trail, tail_b, ListTerm(items_a[n:], tail_a))
        return True
    if len(items_b) > n:
        if tail_a is None:
            return False
        _bind(trail, tail_a, ListTerm(items_b[n:], tail_b))
        return True
    if tail_a is None and tail_b is None:
        return True
    if tail_a is None:
        _bind(trail, tail_b, _nil())
        return True
    if tail_b is None:
        _bind(trail, tail_a, _nil())
        return True
    if tail_a is not tail_b:
        _bind(trail, tail_a, tail_b)
    return True


def _is_key_pattern(pairs, varkeys, tail):
    return not pairs and len(varkeys) == 1 and tail is None


def _unify_recs(ra, rb, trail, seen):
    pairs_a, var_a, tail_a = ra
    pairs_b, var_b, tail_b = rb
    if var_a or var_b:
        # only the singleton [Key:Value] pattern is supported; it matches
        # records with exactly one field
        if _is_key_pattern(*ra) and len(pairs_b) == 1 and not var_b:
            key_var, val = var_a[0]
            other, other_val = next(iter(pairs_b.items()))
            if tail_b is not None:
                _bind(trail, tail_b, Record([]))
            _bind(trail, key_var, Const(other))
            return _unify(val, other_val, trail, seen)
        if _is_key_pattern(*rb) and len(pairs_a) == 1 and not var_a:
            key_var, val = var_b[0]
            other, other_val = next(iter(pairs_a.items()))
            if tail_a is not None:
                _bind(trail, tail_a, Record([]))
            _bind(trail, key_var, Const(other))
            return _unify(val, other_val, trail, seen)
        return False
    for key in pairs_a.keys() & pairs_b.keys():
        if not _unify(pairs_a[key], pairs_b[key], trail, seen):
            return False
    only_a = {k: v for k, v in pairs_a.items() if k not in pairs_b}
    only_b = {k: v for k, v in pairs_b.items() if k not in pairs_a}
    if only_a and tail_b is None:
        return False
    if only_b and tail_a is None:
        return False
    if tail_a is None and tail_b is None:
        return True
    if tail_a is None:
        _bind(trail, tail_b, Record(sorted(only_a.items())))
        return True
    if tail_b is None:
        _bind(trail, tail_a, Record(sorted(only_b.items())))
        return True
    if not only_a and not only_b:
        if tail_a is not tail_b:
            _bind(trail, tail_a, tail_b)
        return True
    if tail_a is tail_b:
        return False
    rest = Var("R")
    _bind(trail, tail_a, Record(sorted(only_b.items()), rest))
    _bind(trail, tail_b, Record(sorted(only_a.items()), rest))
    return True


def unify_rational(a, b):
    """Unify two terms without an occurs check; bindings stay in place on
    success and are rolled back on failure."""
    trail = []
    if _unify(a, b, trail, set()):
        return True
    _undo(trail, 0)
    return False


# ---------------------------------------------------------------------------
# copies, equality, conversions

def copy_term(t, memo=None):
    """Deep copy with bindings resolved, preserving cycles and sharing."""
    if memo is None:
        memo = {}

    def cp(t):
        t = deref(t)
        if isinstance(t, (Const, IntTerm)):
            return t
        key = id(t)
        if key in memo:
            return memo[key]
        if isinstance(t, Var):
            fresh = Var(t.name)
            memo[key] = fresh
            return fresh
        if isinstance(t, UnionTerm):
            shell = UnionTerm(None, None)
            memo[key] = shell
            shell.left = cp(t.left)
            shell.right = cp(t.right)
            return shell
        if isinstance(t, ObjTerm):
            shell = ObjTerm(None, None)
            memo[key] = shell
            shell.cls = cp(t.cls)
            shell.rec = cp(t.rec)
            return shell
        if isinstance(t, Record):
            norm = _norm_rec(t)
            shell = Record([])
            memo[key] = shell
            if norm is _FAIL:
                shell.pairs = [(k if isinstance(k, str) else cp(k), cp(v))
                               for k, v in t.pairs]
                shell.tail = cp(t.tail) if t.tail is not None else None
            else:
                pairs, varkeys, tail = norm
                shell.pairs = ([(k, cp(v)) for k, v in sorted(pairs.items())]
                               + [(cp(k), cp(v)) for k, v in varkeys])
                shell.tail = cp(tail) if tail is not None else None
            return shell
        if isinstance(t, ListTerm):
            norm = _norm_seq(t)
            shell = ListTerm([])
            memo[key] = shell
            if norm is _FAIL:
                shell.items = [cp(x) for x in t.items]
                shell.tail = cp(t.tail) if t.tail is not None else None
            else:
                items, tail = norm
                shell.items = [cp(x) for x in items]
                shell.tail = cp(tail) if tail is not None else None
            return shell
        raise TypeError(t)

    return cp(t)


def _copy_atom(atom, memo):
    return Atom(atom.pred, [copy_term(a, memo) for a in atom.args])


def logic_equal(a, b):
    """Bisimulation equality: same infinite unfolding, with a consistent
    bijection between unbound variables."""
    fwd, bwd = {}, {}

    def eq(a, b, seen):
        a = deref(a)
        b = deref(b)
        if a is b:
            return True
        if isinstance(a, Var) or isinstance(b, Var):
            if not (isinstance(a, Var) and isinstance(b, Var)):
                return False
            if fwd.get(id(a)) is not None or bwd.get(id(b)) is not None:
                return fwd.get(id(a)) is b and bwd.get(id(b)) is a
            fwd[id(a)] = b
            bwd[id(b)] = a
            return True
        pair = (id(a), id(b))
        if pair in seen:
            return True
        seen.add(pair)
        if isinstance(a, Const):
            return isinstance(b, Const) and a.name == b.name
        if isinstance(a, IntTerm):
            return isinstance(b, IntTerm) and a.value == b.value
        if isinstance(a, UnionTerm):
            return (isinstance(b, UnionTerm)
                    and eq(a.left, b.left, seen)
                    and eq(a.right, b.right, seen))
        if isinstance(a, ObjTerm):
            return (isinstance(b, ObjTerm)
                    and eq(a.cls, b.cls, seen)
                    and eq(a.rec, b.rec, seen))
        if isinstance(a, (ListTerm, Record)) and isinstance(b, (ListTerm, Record)):
            na, nb = _norm_seq(a), _norm_seq(b)
            if na is not _FAIL and nb is not _FAIL:
                if len(na[0]) != len(nb[0]):
                    return False
                if (na[1] is None) != (nb[1] is None):
                    return False
                if na[1] is not None and not eq(na[1], nb[1], seen):
                    return False
                return all(eq(x, y, seen) for x, y in zip(na[0], nb[0]))
            ra, rb = _norm_rec(a), _norm_rec(b)
            if ra is _FAIL or rb is _FAIL:
                return False
            pa, va, ta = ra
            pb, vb, tb = rb
            if set(pa) != set(pb) or len(va) != len(vb):
                return False
            if (ta is None) != (tb is None):
                return False
            if ta is not None and not eq(ta, tb, seen):
                return False
            if va:
                if len(va) != 1:
                    return False
                if not eq(va[0][0], vb[0][0], seen):
                    return False
                if not eq(va[0][1], vb[0][1], seen):
                    return False
            return all(eq(pa[k], pb[k], seen) for k in pa)
        return False

    return eq(a, b, set())


def _atoms_equal(a, b):
    if a.pred != b.pred or len(a.args) != len(b.args):
        return False
    return logic_equal(ListTerm(a.args), ListTerm(b.args))


class _NotAType(Exception):
    pass


def logic_to_type(t):
    """Convert a ground logic term into a type graph; None when the term
    contains variables, open rows, or non-type constructors."""
    memo = {}

    def conv(t):
        t = deref(t)
        key = id(t)
        if key in memo:
            return memo[key]
        if isinstance(t, Const):
            if t.name != "int":
                raise _NotAType
            node = IntType()
            memo[key] = node
            return node
        if isinstance(t, UnionTerm):
            node = UnionType()
            memo[key] = node
            node.left = conv(t.left)
            node.right = conv(t.right)
            return node
        if isinstance(t, ObjTerm):
            cls = deref(t.cls)
            if not isinstance(cls, Const):
                raise _NotAType
            norm = _norm_rec(t.rec)
            if norm is _FAIL:
                raise _NotAType
            pairs, varkeys, tail = norm
            if varkeys or tail is not None:
                raise _NotAType
            node = ObjType(cls.name)
            memo[key] = node
            node.fields = {k: conv(v) for k, v in sorted(pairs.items())}
            return node
        raise _NotAType

    try:
        return conv(t)
    except _NotAType:
        return None


def type_to_logic(t, memo=None):
    """Convert a type graph into a ground logic term, preserving cycles.

    Calls that pass the same memo dict share the terms of shared nodes.
    Terms are made in one walk and linked in a second, so a deep type
    costs no recursion."""
    if memo is None:
        memo = {}
    made = []  # (type node, its term) still to link to the children's terms
    todo = [t]
    while todo:
        n = todo.pop()
        if id(n) in memo:
            continue
        if isinstance(n, IntType):
            memo[id(n)] = Const("int")
            continue
        if isinstance(n, UnionType):
            term = UnionTerm(None, None)
            todo += (n.left, n.right)
        elif isinstance(n, ObjType):
            term = ObjTerm(Const(n.class_name), None)
            todo.extend(n.fields.values())
        else:
            raise TypeError(n)
        memo[id(n)] = term
        made.append((n, term))
    for n, term in made:
        if isinstance(n, UnionType):
            term.left, term.right = memo[id(n.left)], memo[id(n.right)]
        else:
            term.rec = Record([(k, memo[id(v)]) for k, v in sorted(n.fields.items())])
    return memo[id(t)]


# ---------------------------------------------------------------------------
# the solver

def _collect_vars(atom):
    out = []
    seen = set()
    stack = list(reversed(atom.args))
    visited = set()
    while stack:
        t = stack.pop()
        t = deref(t)
        if id(t) in visited:
            continue
        visited.add(id(t))
        if isinstance(t, Var):
            if id(t) not in seen:
                seen.add(id(t))
                out.append(t)
        elif isinstance(t, UnionTerm):
            stack.extend((t.right, t.left))
        elif isinstance(t, ObjTerm):
            stack.extend((t.rec, t.cls))
        elif isinstance(t, Record):
            for k, v in reversed(t.pairs):
                stack.append(v)
                if isinstance(k, Var):
                    stack.append(k)
            if t.tail is not None:
                stack.append(t.tail)
        elif isinstance(t, ListTerm):
            if t.tail is not None:
                stack.append(t.tail)
            stack.extend(reversed(t.items))
    return out


def _rename_clause(clause):
    m = {}

    def cp(t):
        if isinstance(t, Var):
            fresh = m.get(id(t))
            if fresh is None:
                fresh = Var(t.name)
                m[id(t)] = fresh
            return fresh
        if isinstance(t, (Const, IntTerm)):
            return t
        if isinstance(t, UnionTerm):
            return UnionTerm(cp(t.left), cp(t.right))
        if isinstance(t, ObjTerm):
            return ObjTerm(cp(t.cls), cp(t.rec))
        if isinstance(t, Record):
            return Record([(k if isinstance(k, str) else cp(k), cp(v))
                           for k, v in t.pairs],
                          cp(t.tail) if t.tail is not None else None)
        if isinstance(t, ListTerm):
            return ListTerm([cp(x) for x in t.items],
                            cp(t.tail) if t.tail is not None else None)
        raise TypeError(t)

    head = Atom(clause.head.pred, [cp(a) for a in clause.head.args])
    body = [Atom(b.pred, [cp(a) for a in b.args]) for b in clause.body]
    return HornClause(head, body)


def _first_key(t):
    """Principal functor of a first argument, for clause indexing: the
    constant's name, the constructor class of an obj, union or integer
    term, or None for a variable, list or record (which may unify with
    terms of other shapes)."""
    t = deref(t)
    if isinstance(t, Const):
        return t.name
    if isinstance(t, (ObjTerm, UnionTerm, IntTerm)):
        return type(t)
    return None


class _Engine:
    def __init__(self, clauses, config):
        self.config = config
        # First-argument index: (pred, arity) -> (all clauses, {key: the
        # clauses with that key or none}, the clauses with no key), each
        # list of (clause, ground) in clause order.  A ground clause has no
        # variables, so it is used without renaming.
        self.index = {}
        for c in clauses:
            entry = (c, not any(_collect_vars(a) for a in [c.head] + c.body))
            every, by_key, unkeyed = self.index.setdefault(
                (c.head.pred, len(c.head.args)), ([], {}, []))
            every.append(entry)
            key = _first_key(c.head.args[0]) if c.head.args else None
            if key is None:
                unkeyed.append(entry)
                for into in by_key.values():
                    into.append(entry)
            else:
                by_key.setdefault(key, list(unkeyed)).append(entry)
        preds = {p for p, _ in self.index}
        for pred in config.variance:
            if pred not in preds:
                raise EngineError(
                    "variance entry for undeclared predicate %r" % pred)
        # predicates defined by ground facts alone (class, extends, dec_*,
        # not_dec_*): a goal on one with constant arguments binds nothing
        self.fact_preds = {pk for pk, (every, _, _) in self.index.items()
                           if all(ground and not c.body for c, ground in every)}
        self.trail = []
        self.steps = 0
        self.subsumptions = []
        self.depth_hit = False
        self.steps_exhausted = False

    def _candidates(self, atom):
        entry = self.index.get((atom.pred, len(atom.args)))
        if entry is None:
            return ()
        every, by_key, unkeyed = entry
        key = _first_key(atom.args[0]) if atom.args else None
        if key is None:
            return every
        return by_key.get(key, unkeyed)

    def _bound_fact(self, atom):
        return ((atom.pred, len(atom.args)) in self.fact_preds
                and all(isinstance(deref(a), Const) for a in atom.args))

    def _unify_atom(self, a, b):
        if a.pred != b.pred or len(a.args) != len(b.args):
            return False
        seen = set()
        for x, y in zip(a.args, b.args):
            if not _unify(x, y, self.trail, seen):
                return False
        return True

    def _sub_position(self, small, large, obligations):
        s, l = deref(small), deref(large)
        ns, nl = _norm_seq(s), _norm_seq(l)
        if (ns is not _FAIL and nl is not _FAIL
                and ns[1] is None and nl[1] is None
                and len(ns[0]) == len(nl[0])):
            return all(self._sub_position(x, y, obligations)
                       for x, y in zip(ns[0], nl[0]))
        st, lt = logic_to_type(s), logic_to_type(l)
        if st is not None and lt is not None:
            if subtype(st, lt):
                obligations.append((st, lt))
                return True
            return False
        return _unify(small, large, self.trail, set())

    def _subsume(self, ancestor, current, table):
        obligations = []
        for v, anc_arg, cur_arg in zip(table, ancestor.args, current.args):
            if v == "inv":
                if not _unify(anc_arg, cur_arg, self.trail, set()):
                    return False, None
            elif v == "contra":
                if not self._sub_position(cur_arg, anc_arg, obligations):
                    return False, None
            elif v == "co":
                if not self._sub_position(anc_arg, cur_arg, obligations):
                    return False, None
            else:
                raise EngineError("unknown variance %r" % (v,))
        return True, obligations

    def _prove_atom(self, atom, anc, limit):
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
                    if self._unify_atom(atom, anc_atom):
                        yield
                    _undo(self.trail, mark)
                table = cfg.variance.get(atom.pred)
                if (cfg.subsumption_enabled and table is not None
                        and len(table) == len(atom.args)):
                    mark = len(self.trail)
                    ok, obligations = self._subsume(anc_atom, atom, table)
                    if ok:
                        self.subsumptions.append((atom.pred, tuple(obligations)))
                        yield
                    _undo(self.trail, mark)
            node = node[1]
        depth = anc[2] if anc is not None else 0
        if depth >= limit:
            self.depth_hit = True
            return
        child = (atom, anc, depth + 1)
        for clause, ground in self._candidates(atom):
            fresh = clause if ground else _rename_clause(clause)
            mark = len(self.trail)
            if self._unify_atom(atom, fresh.head):
                yield from self._prove_seq(fresh.body, 0, child, limit)
            _undo(self.trail, mark)

    def _prove_seq(self, atoms, i, anc, limit):
        if i == len(atoms):
            yield
            return
        # Prove a bound ground-fact goal first.  It binds nothing, succeeds
        # at most once per matching fact and is never its own ancestor, so
        # the answers and their order stay the same; a failing one cuts the
        # branch before the goals it jumped over are explored.
        if not self._bound_fact(atoms[i]):
            for j in range(i + 1, len(atoms)):
                if self._bound_fact(atoms[j]):
                    atoms = atoms[:i] + [atoms[j]] + atoms[i:j] + atoms[j + 1:]
                    break
        for _ in self._prove_atom(atoms[i], anc, limit):
            yield from self._prove_seq(atoms, i + 1, anc, limit)


@contextmanager
def recursion_headroom():
    """Raise the recursion limit to 10000, if lower, for the block or the
    decorated call, and restore the caller's limit however it ends.  The
    search recurses through nested generators, and answers are copied and
    printed by walks as deep as their terms."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10000))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _stages(config):
    if not config.iterative:
        return [config.max_depth]
    out = []
    d = 8
    while d < config.max_depth:
        out.append(d)
        d *= 2
    out.append(config.max_depth)
    return out


def _capture(atom, qvars):
    memo = {}
    copied = _copy_atom(atom, memo)
    bindings = {}
    for v in qvars:
        name = v.name
        while name in bindings:
            name += "'"
        bindings[name] = copy_term(v, memo)
    return Answer(copied, bindings)


@recursion_headroom()
def solve(query, clauses, config=None):
    """Run the query against the clause set.  The result carries every
    distinct answer found in the first productive deepening stage, whether
    the search space was exhausted (complete), and whether the depth budget
    pruned anything (depth_hit)."""
    if config is None:
        config = SolverConfig()
    atom = query.atom if isinstance(query, Query) else query
    engine = _Engine(clauses, config)
    qvars = _collect_vars(atom)
    answers = []
    complete = False
    depth_hit_any = False
    final_hit = False
    for limit in _stages(config):
        engine.depth_hit = False
        engine.steps_exhausted = False
        stage_answers = []
        cap_hit = False
        try:
            for _ in engine._prove_atom(atom, None, limit):
                ans = _capture(atom, qvars)
                if not any(_atoms_equal(ans.atom, old.atom)
                           for old in stage_answers):
                    stage_answers.append(ans)
                    if len(stage_answers) >= config.max_answers:
                        cap_hit = True
                        break
        finally:
            _undo(engine.trail, 0)
        pruned = engine.depth_hit or engine.steps_exhausted
        depth_hit_any = depth_hit_any or pruned
        clean = not pruned and not cap_hit
        if stage_answers or clean:
            answers = stage_answers
            complete = clean
            final_hit = pruned
            break
    else:
        final_hit = depth_hit_any
        complete = False
    return SolveResult(answers, complete, final_hit, engine.steps,
                       engine.subsumptions)


def check_answer(query, answer, expected):
    """True when the answer's result position is a subtype of the expected
    type; the result must be a ground type term."""
    atom = answer.atom
    if not atom.args:
        raise ValueError("answer atom has no result position")
    result = logic_to_type(atom.args[-1])
    if result is None:
        raise ValueError("answer result is not a ground type")
    return subtype(result, expected)


# ---------------------------------------------------------------------------
# query parsing

# One pattern for term_core.scan: whitespace and comments, then a token.
_QTOKEN = re.compile(r"""[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (\\/|:-|[()\[\],:;=|.]|[^\W\d]\w*|[0-9]+|.|\Z)""", re.VERBOSE)
_QKINDS = {t: t for t in ("\\/", ":-", "(", ")", "[", "]", ",", ":", ";", "=", "|", ".")}
_QKINDS[""] = "EOF"


_query_kind = partial(token_kind, fixed=_QKINDS, var=lambda c: c.isupper() or c == "_",
                      digit="0123456789".__contains__)


class _QueryParser(TokenParser):
    def __init__(self, source):
        super().__init__(source, _QTOKEN, _query_kind, EngineError)

    def split_prelude(self):
        """Consume leading 'VAR = ... ;' equations, returning their source
        text and the declared names in order."""
        pieces = []
        names = []
        spans = None
        while self.peek()[0] == "VAR" and self.peek(1)[0] == "=":
            start_tok = self.next()
            names.append(start_tok[1])
            self.next()  # =
            depth = 0
            while True:
                t = self.next()
                if t[0] == "EOF":
                    self.err("unterminated type equation for %s" % start_tok[1], t)
                if t[0] in ("(", "["):
                    depth += 1
                elif t[0] in (")", "]"):
                    depth -= 1
                elif t[0] == ";" and depth == 0:
                    break
            spans = spans or token_spans(self.src, _QTOKEN)
            pieces.append(self.src[spans[start_tok[2]][0]:spans[t[2]][1]])
        return " ".join(pieces), names

    def atom(self, type_terms):
        name = self.expect("IDENT")
        self.expect("(")
        args = []
        if self.peek()[0] != ")":
            while True:
                args.append(self.term(type_terms))
                if self.peek()[0] == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        if self.peek()[0] == ".":
            self.next()
        self.expect("EOF")
        return Atom(name[1], args)

    def term(self, type_terms):
        parts = [self.primary(type_terms)]
        while self.peek()[0] == "\\/":
            self.next()
            parts.append(self.primary(type_terms))
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = UnionTerm(p, out)
        return out

    def primary(self, type_terms):
        t = self.peek()
        if t[0] == "(":
            self.next()
            inner = self.term(type_terms)
            self.expect(")")
            return inner
        if t[0] == "INT":
            self.next()
            return IntTerm(int(t[1]))
        if t[0] == "VAR":
            self.next()
            if t[1] in type_terms:
                return type_terms[t[1]]
            return self.vars.setdefault(t[1], Var(t[1]))
        if t[0] == "IDENT":
            self.next()
            if self.peek()[0] == "(":
                if t[1] != "obj":
                    self.err("only obj(...) may be used as a compound term", t)
                self.next()
                cls = self.term(type_terms)
                self.expect(",")
                rec = self.term(type_terms)
                self.expect(")")
                return ObjTerm(cls, rec)
            return Const(t[1])
        if t[0] == "[":
            return self.sequence(type_terms)
        self.err("expected a term, found %r" % (t[1] or "end of input"), t)

    def sequence(self, type_terms):
        self.next()  # [
        if self.peek()[0] == "]":
            self.next()
            return ListTerm([])
        is_record = (self.peek()[0] in ("IDENT", "VAR")
                     and self.peek(1)[0] == ":")
        if is_record:
            pairs = []
            while True:
                k = self.next()
                if k[0] == "IDENT":
                    key = k[1]
                elif k[0] == "VAR":
                    key = self.vars.setdefault(k[1], Var(k[1]))
                else:
                    self.err("expected a field name", k)
                self.expect(":")
                pairs.append((key, self.term(type_terms)))
                if self.peek()[0] == ",":
                    self.next()
                    continue
                break
            tail = None
            if self.peek()[0] == "|":
                self.next()
                tail = self.term(type_terms)
            self.expect("]")
            return Record(pairs, tail)
        items = [self.term(type_terms)]
        while self.peek()[0] == ",":
            self.next()
            items.append(self.term(type_terms))
        tail = None
        if self.peek()[0] == "|":
            self.next()
            tail = self.term(type_terms)
        self.expect("]")
        return ListTerm(items, tail)


def parse_query(source):
    """Parse '(NAME = type;)* atom' into a Query.  Equations use the type
    syntax and may be mutually recursive; their names denote ground type
    terms inside the atom, all other capitalized names are variables."""
    parser = _QueryParser(source)
    parser.vars = {}
    prelude, names = parser.split_prelude()
    types = {}
    if names:
        # one resolve builds every declared name; an error in the prelude
        # is reported against the first of them
        try:
            named = resolve_names(parse_type("%s root %s;" % (prelude, names[0])))
        except TermError as exc:
            raise EngineError("in type equation for %s: %s" % (names[0], exc))
        types = {name: named[name] for name in names}
    memo = {}  # the names share one graph, and so do their terms
    logic = {name: type_to_logic(t, memo) for name, t in types.items()}
    atom = parser.atom(logic)
    return Query(atom, types, parser.vars)


# ---------------------------------------------------------------------------
# answer formatting

def _format_logic(root):
    """Render a term, naming nodes that lie on cycles and emitting one
    equation per named node."""
    names = {}
    order = []

    onpath = set()
    visited = set()

    def kids(t):
        if isinstance(t, UnionTerm):
            return (t.left, t.right)
        if isinstance(t, ObjTerm):
            return (t.cls, t.rec)
        if isinstance(t, Record):
            out = [v for _, v in t.pairs]
            if t.tail is not None:
                out.append(t.tail)
            return tuple(out)
        if isinstance(t, ListTerm):
            out = list(t.items)
            if t.tail is not None:
                out.append(t.tail)
            return tuple(out)
        return ()

    stack = [(deref(root), iter(kids(deref(root))))]
    onpath.add(id(deref(root)))
    visited.add(id(deref(root)))
    while stack:
        node, it = stack[-1]
        advanced = False
        for child in it:
            child = deref(child)
            if id(child) in onpath:
                if id(child) not in names:
                    names[id(child)] = "T%d" % len(names)
                    order.append(child)
                continue
            if id(child) in visited:
                continue
            visited.add(id(child))
            onpath.add(id(child))
            stack.append((child, iter(kids(child))))
            advanced = True
            break
        if not advanced:
            onpath.discard(id(node))
            stack.pop()

    def ref(t, owner=None):
        t = deref(t)
        if id(t) in names and t is not owner:
            return names[id(t)]
        return body(t)

    def body(t):
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Const):
            return t.name
        if isinstance(t, IntTerm):
            return str(t.value)
        if isinstance(t, UnionTerm):
            left = ref(t.left)
            if (isinstance(deref(t.left), UnionTerm)
                    and id(deref(t.left)) not in names):
                left = "(%s)" % left
            return "%s\\/%s" % (left, ref(t.right))
        if isinstance(t, ObjTerm):
            return "obj(%s,%s)" % (ref(t.cls), ref(t.rec))
        if isinstance(t, Record):
            inner = ",".join("%s:%s" % (k if isinstance(k, str) else k.name,
                                        ref(v))
                             for k, v in t.pairs)
            if t.tail is not None:
                return "[%s|%s]" % (inner, ref(t.tail))
            return "[%s]" % inner
        if isinstance(t, ListTerm):
            inner = ",".join(ref(x) for x in t.items)
            if t.tail is not None:
                return "[%s|%s]" % (inner, ref(t.tail))
            return "[%s]" % inner
        raise TypeError(t)

    main = ref(deref(root))
    equations = ["%s = %s" % (names[id(node)], body(node)) for node in order]
    return main, equations


def format_term_text(t):
    main, equations = _format_logic(t)
    if equations:
        return "%s where %s" % (main, "; ".join(equations))
    return main


def format_answer(answer):
    """One line per query variable; ground queries print the whole atom."""
    if not answer.bindings:
        args = ",".join(format_term_text(a) for a in answer.atom.args)
        return "%s(%s)" % (answer.atom.pred, args)
    return "\n".join("%s = %s" % (name, format_term_text(t))
                     for name, t in answer.bindings.items())
