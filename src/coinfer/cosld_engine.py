"""Goal-directed resolution over rational terms.

Clauses are resolved depth-first, leftmost goal first, with two extra ways
for a goal to succeed besides clause expansion: unifying with an ancestor
goal on the current path (the usual cyclic-proof rule), and being subsumed
by an ancestor goal under a per-argument variance discipline, where ordered
positions are compared with the subtyping relation instead of unified.
Unification builds rational bindings (a variable may be bound to a term
containing itself), so answers can be cyclic graphs; they are reported as
copies detached from the solver state.

A clause is never renamed whole.  Its stored head is matched against the
goal: a clause variable's first occurrence takes the goal's subterm,
structure meeting an unbound goal variable is built and bound to it, and
lists and records are built and unified.  Only when the head matches is
the body renamed, through the same map.  Each binding is made as
unifying the goal with a renamed head would make it, so unbound answer
variables keep the clause's names.

The search is one loop over an explicit stack of choice points, in the
manner of the WAM's continuation and choice-point stacks: each goal
entered gets one generator of its ways to succeed, and a continuation is
a linked list of (goals, next index, ancestors) frames.  Unification,
copying, equality, conversion, printing and query parsing keep explicit
stacks too, so neither the depth of a proof nor that of a term costs
recursion.

Search runs under a depth budget with iterative deepening.  Exhausting the
budget is reported as inconclusive (depth_hit), never as failure.
"""

import re
from collections import Counter

from .horn_compiler import (
    Atom,
    Const,
    IntTerm,
    ListTerm,
    ObjTerm,
    Record,
    UnionTerm,
    Var,
    _kids,
    deref,
    format_term_text,
)
from .subtyping import subtype
from .term_core import (
    IntType, ObjType, ParseError, TermError, TokenParser, UnionType, canonical_images,
    canonicalize, link_equations, parse_equations, token_kind, token_position,
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


_SEQ = (ListTerm, Record)


def _unify(a, b, trail, seen):
    """Unify a and b over rational trees: a loop over term pairs, with an
    explicit stack of the pairs still to do, each pair of compound nodes
    entered once (seen), so cycles and depth cost no recursion.  Two
    stamped nodes are ground, and unify exactly when they are bisimilar,
    that is when their stamps are one canonical node (Courcelle,
    "Fundamental properties of infinite trees", TCS 1983).  A spine's tail
    bindings sit below its item pairs on the stack and are made after
    them."""
    todo = []
    while True:
        while type(a) is Var and a.ref is not None:
            a = a.ref
        while type(b) is Var and b.ref is not None:
            b = b.ref
        kind = type(a)
        if a is b:
            pass
        elif kind is Var:
            _bind(trail, a, b)
        elif type(b) is Var:
            _bind(trail, b, a)
        elif kind is Const or kind is IntTerm:
            if type(b) is not kind or (a.name != b.name if kind is Const else a.value != b.value):
                return False
        elif (pair := (id(a), id(b))) not in seen:
            seen.add(pair)
            if (kind is UnionTerm or kind is ObjTerm) and type(b) is kind:
                stamp = a.stamp
                if stamp is None or b.stamp is None:
                    if kind is UnionTerm:
                        todo.append((a.right, b.right))
                        a, b = a.left, b.left
                    else:
                        todo.append((a.rec, b.rec))
                        a, b = a.cls, b.cls
                    continue
                if stamp is not b.stamp:
                    return False
            elif not (kind in _SEQ and type(b) in _SEQ and _unify_rows(a, b, todo, trail)):
                return False
        while todo:
            a, b = todo.pop()
            if a is not None:
                break
            _bind(trail, *b)  # a tail binding (variable, term)
        else:
            return True


def _unify_rows(a, b, todo, trail):
    """Push the pairs that unify list or record a with b, and the tail
    bindings to make after them; False when their shapes cannot unify."""
    if type(a) is ListTerm and type(b) is ListTerm and a.tail is None and b.tail is None:
        # two closed lists, the common case, need no flattening
        if len(a.items) != len(b.items):
            return False
        todo += reversed(list(zip(a.items, b.items)))
        return True
    if type(a) is ListTerm or type(b) is ListTerm:
        na, nb = _norm_seq(a), _norm_seq(b)
        if na is not _FAIL and nb is not _FAIL:
            (items_a, tail_a), (items_b, tail_b) = na, nb
            n = min(len(items_a), len(items_b))
            if len(items_a) > n:
                if tail_b is None:
                    return False
                todo.append((None, (tail_b, ListTerm(items_a[n:], tail_a))))
            elif len(items_b) > n:
                if tail_a is None:
                    return False
                todo.append((None, (tail_a, ListTerm(items_b[n:], tail_b))))
            elif tail_a is None and tail_b is not None:
                todo.append((None, (tail_b, _nil())))
            elif tail_b is None and tail_a is not None:
                todo.append((None, (tail_a, _nil())))
            elif tail_a is not tail_b:
                todo.append((None, (tail_a, tail_b)))
            todo += reversed(list(zip(items_a, items_b)))
            return True
    ra, rb = _norm_rec(a), _norm_rec(b)
    if ra is _FAIL or rb is _FAIL:
        return False
    (pairs_a, var_a, tail_a), (pairs_b, var_b, tail_b) = ra, rb
    if var_a or var_b:
        # only the singleton [Key:Value] pattern is supported; it matches
        # records with exactly one field
        if not var_b and len(pairs_b) == 1 and not pairs_a and len(var_a) == 1 and tail_a is None:
            (key_var, val), ((other, other_val),) = var_a[0], pairs_b.items()
            tail = tail_b
        elif not var_a and len(pairs_a) == 1 and not pairs_b and len(var_b) == 1 and tail_b is None:
            (key_var, val), ((other, other_val),) = var_b[0], pairs_a.items()
            tail = tail_a
        else:
            return False
        if tail is not None:
            _bind(trail, tail, Record([]))
        _bind(trail, key_var, Const(other))
        todo.append((val, other_val))
        return True
    if tail_a is None and tail_b is None:
        if pairs_a.keys() != pairs_b.keys():
            return False
    else:
        only_a = {k: v for k, v in pairs_a.items() if k not in pairs_b}
        only_b = {k: v for k, v in pairs_b.items() if k not in pairs_a}
        if only_a and tail_b is None or only_b and tail_a is None:
            return False
        if tail_a is None:
            todo.append((None, (tail_b, Record(sorted(only_a.items())))))
        elif tail_b is None:
            todo.append((None, (tail_a, Record(sorted(only_b.items())))))
        elif only_a or only_b:
            if tail_a is tail_b:
                return False
            rest = Var("R")
            todo += ((None, (tail_b, Record(sorted(only_a.items()), rest))),
                     (None, (tail_a, Record(sorted(only_b.items()), rest))))
        elif tail_a is not tail_b:
            todo.append((None, (tail_a, tail_b)))
    shared = sorted(pairs_a.keys() & pairs_b.keys())  # key order, not a set's hash order
    todo += reversed([(pairs_a[k], pairs_b[k]) for k in shared])
    return True


def _lookup(pattern, other, trail, seen):
    """Unify a clause head's [K:V] record pattern, such as rec_acc's [F:T],
    with a goal's argument, after the head's other arguments: once they
    bind K to a field name, V unifies with that field of a closed record of
    any width, or of an open record that lists it.  Otherwise it is plain
    unification, under which an unbound key matches one-field records;
    _field_goals cuts a wider closed record to each of its fields."""
    (key, val), = pattern.pairs
    key, rec = deref(key), _norm_rec(other)
    if (isinstance(key, Const) and rec is not _FAIL and not rec[1]
            and (rec[2] is None or key.name in rec[0])):
        return key.name in rec[0] and _unify(val, rec[0][key.name], trail, seen)
    return _unify(other, pattern, trail, seen)


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
    """Deep copy with bindings resolved, preserving cycles and sharing;
    lists and records are copied flattened.  Each copy is made holding its
    source's children and relinked in a second pass, so depth costs no
    recursion."""
    if memo is None:
        memo = {}
    made = []
    todo = [t]
    while todo:
        s = deref(todo.pop())
        kind = type(s)
        if kind is Const or kind is IntTerm or id(s) in memo:
            continue
        if kind is Var:
            memo[id(s)] = Var(s.name)
            continue
        if kind is UnionTerm:
            shell = UnionTerm(s.left, s.right)
        elif kind is ObjTerm:
            shell = ObjTerm(s.cls, s.rec)
        elif kind is Record:
            norm = _norm_rec(s)
            shell = (Record(s.pairs, s.tail) if norm is _FAIL
                     else Record(sorted(norm[0].items()) + norm[1], norm[2]))
        else:
            norm = _norm_seq(s)
            shell = ListTerm(s.items, s.tail) if norm is _FAIL else ListTerm(*norm)
        memo[id(s)] = shell
        made.append(shell)
        todo += _kids(shell)

    def cp(x):
        x = deref(x)
        return x if type(x) is Const or type(x) is IntTerm else memo[id(x)]

    for shell in made:
        kind = type(shell)
        if kind is UnionTerm:
            shell.left, shell.right = cp(shell.left), cp(shell.right)
        elif kind is ObjTerm:
            shell.cls, shell.rec = cp(shell.cls), cp(shell.rec)
        else:
            if kind is Record:
                shell.pairs = [(k if type(k) is str else cp(k), cp(v)) for k, v in shell.pairs]
            else:
                shell.items = [cp(x) for x in shell.items]
            if shell.tail is not None:
                shell.tail = cp(shell.tail)
    return cp(t)


def _copy_atom(atom, memo):
    return Atom(atom.pred, [copy_term(a, memo) for a in atom.args])


def logic_equal(a, b):
    """Bisimulation equality: same infinite unfolding, with a consistent
    bijection between unbound variables.  An explicit stack of pairs, each
    pair of nodes entered once, in the order a depth-first walk meets them."""
    fwd, bwd = {}, {}
    seen = set()
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        a, b = deref(a), deref(b)
        if a is b:
            continue
        kind = type(a)
        if kind is Var or type(b) is Var:
            if kind is not type(b):
                return False
            if fwd.get(id(a)) is not None or bwd.get(id(b)) is not None:
                if fwd.get(id(a)) is not b or bwd.get(id(b)) is not a:
                    return False
            fwd[id(a)] = b
            bwd[id(b)] = a
            continue
        pair = (id(a), id(b))
        if pair in seen:
            continue
        seen.add(pair)
        if kind is UnionTerm and type(b) is UnionTerm:
            todo += ((a.right, b.right), (a.left, b.left))
        elif kind is ObjTerm and type(b) is ObjTerm:
            todo += ((a.rec, b.rec), (a.cls, b.cls))
        elif kind in _SEQ and type(b) in _SEQ:
            na, nb = _norm_seq(a), _norm_seq(b)
            if na is not _FAIL and nb is not _FAIL:
                (ia, ta), (ib, tb) = na, nb
                if len(ia) != len(ib):
                    return False
                kids = list(zip(ia, ib))
            else:
                ra, rb = _norm_rec(a), _norm_rec(b)
                if ra is _FAIL or rb is _FAIL:
                    return False
                (pa, va, ta), (pb, vb, tb) = ra, rb
                if set(pa) != set(pb) or len(va) != len(vb) or len(va) > 1:
                    return False
                kids = [(va[0][0], vb[0][0]), (va[0][1], vb[0][1])] if va else []
                kids += [(pa[k], pb[k]) for k in pa]
            if (ta is None) != (tb is None):
                return False
            todo += reversed(kids)  # the tail first, then a key pattern, then the rest
            if ta is not None:
                todo.append((ta, tb))
        elif not (kind is type(b) and (a.name == b.name if kind is Const
                                       else kind is IntTerm and a.value == b.value)):
            return False
    return True


def _atoms_equal(a, b):
    if a.pred != b.pred or len(a.args) != len(b.args):
        return False
    return logic_equal(ListTerm(a.args), ListTerm(b.args))


def logic_to_type(t):
    """Convert a ground logic term into a type graph; None when the term
    contains variables, open rows, or non-type constructors.  The graph is
    new, stamped terms included, so a caller may change it."""
    return _to_type(t, False)


def _to_type(t, stamped):
    """logic_to_type; with stamped, a stamped term is its stamp, a
    canonical node whose term is not walked.  Nodes are made in the order
    of a depth-first walk and linked in a second pass, as type_to_logic
    does, so depth costs no recursion."""
    memo = {}
    made = []  # nodes made, holding their terms' children until linked
    todo = [t]
    while todo:
        s = deref(todo.pop())
        if id(s) in memo:
            continue
        kind = type(s)
        if kind is Const and s.name == "int":
            node = IntType()
        elif kind is not UnionTerm and kind is not ObjTerm:
            return None
        elif stamped and s.stamp is not None:
            memo[id(s)] = s.stamp
            continue
        elif kind is UnionTerm:
            node = UnionType(s.left, s.right)
            todo += (s.right, s.left)
        else:
            cls, norm = deref(s.cls), _norm_rec(s.rec)
            if type(cls) is not Const or norm is _FAIL or norm[1] or norm[2] is not None:
                return None
            node = ObjType(cls.name, norm[0])
            todo += reversed(node.fields.values())
        memo[id(s)] = node
        made.append(node)
    for node in made:
        if type(node) is UnionType:
            node.left, node.right = memo[id(deref(node.left))], memo[id(deref(node.right))]
        elif type(node) is ObjType:
            node.fields = {f: memo[id(deref(k))] for f, k in node.fields.items()}
    return memo[id(deref(t))]


def type_to_logic(t, memo=None, images=None):
    """Convert a type graph into a ground logic term, preserving cycles.

    Calls that pass the same memo dict share the terms of shared nodes.
    With images, a map from node uid to canonical node such as
    canonical_images gives, each obj and union term is stamped with its
    node's image.  Terms are made in one walk and linked in a second, so a
    deep type costs no recursion."""
    if memo is None:
        memo = {}
    made = []  # (type node, its term) still to link to the children's terms
    todo = [t]
    while todo:
        n = todo.pop()
        if id(n) in memo:
            continue
        kind = type(n)
        if kind is IntType:
            memo[id(n)] = Const("int")
            continue
        if kind is UnionType:
            term = UnionTerm(None, None)
            todo += (n.left, n.right)
        elif kind is ObjType:
            term = ObjTerm(Const(n.class_name), None)
            todo.extend(n.fields.values())
        else:
            raise TypeError(n)
        memo[id(n)] = term
        made.append((n, term))
    for n, term in made:
        if type(n) is UnionType:
            term.left, term.right = memo[id(n.left)], memo[id(n.right)]
        else:
            term.rec = Record([(k, memo[id(v)]) for k, v in sorted(n.fields.items())])
        if images is not None:
            term.stamp = images[n.uid]
    return memo[id(t)]


# ---------------------------------------------------------------------------
# the solver

def _vars(terms):
    """Each distinct unbound variable the terms reach, once, in the order
    of a depth-first walk; a generator, so a caller that needs only the
    first one stops there."""
    stack = list(reversed(terms))
    visited = set()
    while stack:
        t = deref(stack.pop())
        kind = type(t)
        if kind is Const or kind is IntTerm or id(t) in visited:
            continue
        visited.add(id(t))
        if kind is Var:
            yield t
        else:
            stack += reversed(_kids(t))


def _instance(t, m):
    """Clause term t with each variable replaced by its term in m; a
    variable not in m yet gets a fresh one of the same name, added to m.
    As in copy_term, each copy is made holding its source's children and
    relinked when its turn comes, so depth costs no recursion, and shared
    or cyclic structure is copied once.  An empty closed list or record
    holds no variable and is not copied."""
    kind = type(t)
    if kind is Var:
        term = m.get(t)
        if term is None:
            term = m[t] = Var(t.name)
        return term
    if kind is Const or kind is IntTerm:
        return t
    copies = {}
    made = []
    root = _sub(t, m, copies, made)
    for c in made:  # made grows as copies are met
        kind = type(c)
        if kind is ListTerm:
            c.items = [_sub(x, m, copies, made) for x in c.items]
            if c.tail is not None:
                c.tail = _sub(c.tail, m, copies, made)
        elif kind is ObjTerm:
            c.cls, c.rec = _sub(c.cls, m, copies, made), _sub(c.rec, m, copies, made)
        elif kind is Record:
            c.pairs = [(k if type(k) is str else _sub(k, m, copies, made),
                        _sub(v, m, copies, made)) for k, v in c.pairs]
            if c.tail is not None:
                c.tail = _sub(c.tail, m, copies, made)
        else:
            c.left, c.right = _sub(c.left, m, copies, made), _sub(c.right, m, copies, made)
    return root


def _sub(x, m, copies, made):
    """_instance's term for a subterm x of a clause term: a variable's term
    in m, a constant itself, or x's copy in copies, made holding x's
    children and added to made the first time x is met."""
    kind = type(x)
    if kind is Var:
        term = m.get(x)
        if term is None:
            term = m[x] = Var(x.name)
        return term
    if kind is Const or kind is IntTerm:
        return x
    c = copies.get(id(x))
    if c is None:
        if kind is ListTerm:
            if not x.items and x.tail is None:
                return x
            c = ListTerm(x.items, x.tail)
        elif kind is ObjTerm:
            c = ObjTerm(x.cls, x.rec)
        elif kind is Record:
            if not x.pairs and x.tail is None:
                return x
            c = Record(x.pairs, x.tail)
        elif kind is UnionTerm:
            c = UnionTerm(x.left, x.right)
        else:
            raise TypeError(x)
        copies[id(x)] = c
        made.append(c)
    return c


def _match(h, g, m, trail, seen):
    """Match stored clause term h against goal term g, as _unify(g, h')
    would for a renamed copy h' of h, copying only what g leaves open.  m
    maps the clause's variables to their terms: a variable's first
    occurrence takes g's subterm (an unbound goal variable is bound to a
    fresh variable, as unification with a renamed one binds it), a later
    one unifies with it.  Structure meeting an unbound goal variable is
    built from m and bound to it; a list or record is built and unified.
    The pairs are taken from an explicit stack, left to right, and each
    pair of obj or union nodes is entered once, so neither depth nor a
    cycle costs recursion."""
    todo = entered = None  # made for the first pair of obj or union nodes
    while True:
        kind = type(h)
        if kind is Var:
            term = m.get(h)
            if term is not None:
                if not _unify(g, term, trail, seen):
                    return False
            else:
                g = deref(g)
                if type(g) is Var:
                    term = Var(h.name)
                    _bind(trail, g, term)
                    g = term
                m[h] = g
        elif kind is Record or kind is ListTerm:
            if not _unify(g, _instance(h, m), trail, seen):
                return False
        else:
            g = deref(g)
            if type(g) is Var:
                _bind(trail, g, _instance(h, m))
            elif type(g) is not kind:
                return False
            elif kind is Const:
                if g.name != h.name:
                    return False
            elif kind is IntTerm:
                if g.value != h.value:
                    return False
            else:
                if todo is None:
                    todo, entered = [], set()
                if (pair := (id(h), id(g))) not in entered:
                    entered.add(pair)
                    if kind is ObjTerm:
                        todo.append((h.rec, g.rec))
                        h, g = h.cls, g.cls
                    else:
                        todo.append((h.right, g.right))
                        h, g = h.left, g.left
                    continue
        if not todo:
            return True
        h, g = todo.pop()


def _is_lookup(h):
    return (type(h) is Record and h.tail is None and len(h.pairs) == 1
            and type(h.pairs[0][0]) is Var)


def _field_goals(goal, i):
    """The goals a clause whose head has a [K:V] pattern at argument i
    resolves: when the goal's argument i is a closed record of several
    fields, one goal per field in key order, that record cut to the field,
    so a K that nothing binds takes each field in turn; a K bound to a name
    matches its own field alone, as its lookup in the whole record would.
    Otherwise the goal itself."""
    norm = _norm_rec(goal.args[i])
    if norm is _FAIL or norm[1] or norm[2] is not None or len(norm[0]) < 2:
        return (goal,)
    args = goal.args
    return [Atom(goal.pred, args[:i] + [Record([pair])] + args[i + 1:])
            for pair in sorted(norm[0].items())]


def _match_head(goal, head, trail):
    """Resolve goal against a stored clause head without renaming the
    clause.  The head's [K:V] patterns, such as rec_acc's [F:T], are
    looked up last, by _lookup.  Returns the map from the clause's
    variables to their terms, through which the body is then renamed, or
    None when the head does not match; bindings are left on the trail."""
    m = {}
    seen = set()
    later = ()
    for h, g in zip(head.args, goal.args):
        if type(h) is Record and _is_lookup(h):
            later += ((_instance(h, m), g),)
        elif not _match(h, g, m, trail, seen):
            return None
    for pattern, g in later:
        if not _lookup(pattern, g, trail, seen):
            return None
    return m


def _ground_head(head):
    for a in head.args:
        if type(a) is not Const:
            return next(_vars(head.args), None) is None
    return True


def _first_key(t):
    """Principal functor of a first argument, for clause indexing: the
    constant's name, the constructor class of an obj, union or integer
    term, or None for a variable, list or record (which may unify with
    terms of other shapes)."""
    while type(t) is Var and t.ref is not None:
        t = t.ref
    kind = type(t)
    if kind is Const:
        return t.name
    if kind is ObjTerm or kind is UnionTerm or kind is IntTerm:
        return kind
    return None


def _goal_key(atom):
    """Key of a goal's first argument, for the ancestor check: the stamp
    of a stamped term, else the constant's name, the integer, the class of
    an obj or union term, or None for a variable, list or record.  Two
    goals whose keys do not meet (_KEY_KIND) cannot unify."""
    if not atom.args:
        return None
    t = deref(atom.args[0])
    kind = type(t)
    if kind is ObjTerm or kind is UnionTerm:
        return kind if t.stamp is None else t.stamp
    if kind is Const:
        return t.name
    if kind is IntTerm:
        return t.value
    return None


# the term class of a stamp: a stamped term meets an unstamped one of its class
_KEY_KIND = {ObjType: ObjTerm, UnionType: UnionTerm}


class _Engine:
    def __init__(self, clauses, config):
        self.config = config
        # First-argument index: (pred, arity) -> (all clauses, {key: the
        # clauses with that key or none}, the clauses with no key), each
        # list in clause order.
        self.index = {}
        # predicates defined by ground facts alone (class, extends, dec_*,
        # not_dec_*): a goal on one with constant arguments binds nothing
        rules = set()  # the other predicates
        # clause -> an argument of its head that is a [K:V] pattern
        self.lookups = {}
        for c in clauses:
            args = c.head.args
            pk = (c.head.pred, len(args))
            entry = self.index.get(pk)
            if entry is None:
                entry = self.index[pk] = ([], {}, [])
            every, by_key, unkeyed = entry
            every.append(c)
            key = _first_key(args[0]) if args else None
            if key is None:
                unkeyed.append(c)
                for into in by_key.values():
                    into.append(c)
            else:
                into = by_key.get(key)
                if into is None:
                    into = by_key[key] = list(unkeyed)
                into.append(c)
            if c.body or not _ground_head(c.head):
                rules.add(pk)
                for i, h in enumerate(args):
                    if type(h) is Record and _is_lookup(h):
                        self.lookups[c] = i
        preds = {p for p, _ in self.index}
        for pred in config.variance:
            if pred not in preds:
                raise EngineError(
                    "variance entry for undeclared predicate %r" % pred)
        self.fact_preds = self.index.keys() - rules
        self.fact_goals = {}  # clause -> the positions of its body goals on fact_preds
        self.verdicts = {}  # (canonical small, canonical large) -> subtype verdict
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

    def _sub_position(self, small, large, obligations):
        """Whether small sits below large: closed lists of one length item
        by item, ground types by subtyping (each holding pair goes to
        obligations), and anything else by unification.  The pairs are
        taken from an explicit stack, left to right.  A stamped term
        converts to its stamp, and the verdict on each pair of canonical
        types is kept for the solve."""
        todo = [(small, large)]
        while todo:
            small, large = todo.pop()
            s, l = deref(small), deref(large)
            ns, nl = _norm_seq(s), _norm_seq(l)
            if (ns is not _FAIL and nl is not _FAIL
                    and ns[1] is None and nl[1] is None
                    and len(ns[0]) == len(nl[0])):
                todo += reversed(list(zip(ns[0], nl[0])))
                continue
            st, lt = _to_type(s, True), _to_type(l, True)
            if st is not None and lt is not None:
                pair = (canonicalize(st), canonicalize(lt))
                holds = self.verdicts.get(pair)
                if holds is None:
                    holds = self.verdicts[pair] = subtype(*pair)
                if not holds:
                    return False
                obligations.append((st, lt))
            elif not _unify(small, large, self.trail, set()):
                return False
        return True

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

    def _ways(self, atom, anc, limit, then):
        """The choice point of goal atom: a generator that yields, once per
        way the goal succeeds, the continuation to run next, with the way's
        bindings on the trail, and undoes them when resumed.  A goal closes
        a cycle by unifying with an ancestor or being subsumed by one, and
        otherwise continues with the renamed body of each matching clause,
        whose goals have it as their nearest ancestor.

        An ancestor is a node (atom, next ancestor, depth, key of the
        atom's first argument).  One whose key does not meet the goal's
        is skipped without unifying, and without trying subsumption when
        the first argument is invariant; nearest first either way."""
        cfg, trail = self.config, self.trail
        pred, arity = atom.pred, len(atom.args)
        key = _goal_key(atom)
        subsume = None  # found with the first ancestor on pred
        node = anc
        while node is not None:
            anc_atom = node[0]
            if anc_atom.pred == pred and len(anc_atom.args) == arity:
                if subsume is None:
                    table = cfg.variance.get(pred)
                    subsume = (cfg.subsumption_enabled and table is not None
                               and len(table) == arity)
                    keyed = subsume and table[0] == "inv"  # it unifies the first arguments
                other = node[3]
                meet = (other is key or other is None or key is None or other == key
                        or _KEY_KIND.get(type(other)) is key or _KEY_KIND.get(type(key)) is other)
                if meet and cfg.coinduction_enabled:
                    mark = len(trail)
                    seen = set()
                    if all(_unify(x, y, trail, seen)
                           for x, y in zip(atom.args, anc_atom.args)):
                        yield then
                    _undo(trail, mark)
                if subsume and (meet or not keyed):
                    mark = len(trail)
                    ok, obligations = self._subsume(anc_atom, atom, table)
                    if ok:
                        self.subsumptions.append((pred, tuple(obligations)))
                        yield then
                    _undo(trail, mark)
            node = node[1]
        depth = anc[2] if anc is not None else 0
        if depth >= limit:
            self.depth_hit = True
            return
        child = (atom, anc, depth + 1, key)
        for clause in self._candidates(atom):
            i = self.lookups.get(clause)
            for goal in (atom,) if i is None else _field_goals(atom, i):
                mark = len(trail)
                m = _match_head(goal, clause.head, trail)
                if m is not None:
                    body = [Atom(b.pred, [_instance(a, m) for a in b.args])
                            for b in clause.body]
                    if not body:
                        yield then
                    else:
                        facts = self.fact_goals.get(clause)
                        if facts is None:
                            facts = self.fact_goals[clause] = tuple(
                                [j for j, b in enumerate(body)
                                 if (b.pred, len(b.args)) in self.fact_preds])
                        yield body, 0, child, then, facts
                _undo(trail, mark)

    def _proofs(self, goal, limit):
        """Yield once per proof of goal, with its bindings in place.  One
        loop runs a frame's next goal, pushing that goal's choice point,
        and resumes the newest choice point for the frame to run next."""
        choices = []
        # goals, next index, ancestors, continuation, and the positions of
        # the goals on fact predicates, ascending
        frame = ([goal], 0, None, None, ())
        while True:
            if frame is None:
                yield
            else:
                goals, i, anc, then, facts = frame
                # Prove a bound ground-fact goal first.  It binds nothing,
                # succeeds at most once per matching fact and is never its
                # own ancestor, so the answers and their order stay the same;
                # a failing one cuts the branch before the goals it jumped
                # over are explored.  Only goals on fact predicates are read.
                if facts and facts[-1] > i and not self._bound_fact(goals[i]):
                    for j in facts:
                        if j > i and self._bound_fact(goals[j]):
                            goals = goals[:i] + [goals[j]] + goals[i:j] + goals[j + 1:]
                            facts = tuple([p + 1 if p < j else p for p in facts
                                           if p >= i and p != j])
                            break
                self.steps += 1
                if self.steps > self.config.max_steps:
                    self.steps_exhausted = True
                else:
                    after = (goals, i + 1, anc, then, facts) if i + 1 < len(goals) else then
                    choices.append(self._ways(goals[i], anc, limit, after))
            while choices:
                frame = next(choices[-1], _FAIL)
                if frame is not _FAIL:
                    break
                choices.pop()
            else:
                return


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


def solve(query, clauses, config=None):
    """Run the query against the clause set.  The result carries every
    distinct answer found in the first productive deepening stage, whether
    the search space was exhausted (complete), and whether the depth budget
    pruned anything (depth_hit)."""
    if config is None:
        config = SolverConfig()
    atom = query.atom if isinstance(query, Query) else query
    engine = _Engine(clauses, config)
    qvars = list(_vars(atom.args))
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
            for _ in engine._proofs(atom, limit):
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


_DIGIT = "0123456789".__contains__


def _query_var(c):
    return c.isupper() or c == "_"


def _query_kind(text):
    return _QKINDS.get(text) or token_kind(text, _QKINDS, _query_var, _DIGIT)


class _QueryParser(TokenParser):
    def __init__(self, source):
        super().__init__(source, _QTOKEN, _query_kind, EngineError)
        self.built = []  # the obj and union terms the atom writes, children first

    def prelude(self):
        """Parse the leading 'VAR = type;' equations where they stand and
        return the graph of each declared name.  Names are the query's
        variables, so they may start with "_".  A parse error names the
        equation it stands in, an unbound variable the equation that
        refers to it.  One link builds them all, so an alias cycle is
        reported against the first."""
        texts, toks = self.texts, self.toks
        eq = None  # the equation being read

        def more(i):
            nonlocal eq
            starts = toks[i][0] == "VAR" and texts[i + 1] == "="
            if starts:
                eq = texts[i]
            return starts

        def fail(k, msg):
            raise ParseError(msg, *token_position(self.src, _QTOKEN, k))

        if not more(self.i):
            return {}
        first = eq
        try:
            bindings, self.i, unbound = parse_equations(texts, self.i, False, fail, more,
                                                        underscore=True)
            if unbound is not None:
                eq, name = unbound
                raise TermError("unbound variable %s" % name)
            eq = first
            return link_equations(bindings)
        except TermError as exc:
            raise EngineError("in type equation for %s: %s" % (eq, exc))

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
        """One term.  An LL(1) loop over an explicit stack of open
        parentheses, obj(...) arguments, lists, records and tails, so
        nesting depth costs no recursion.

        term := primary ('\\/' primary)*, right associative
        primary := '(' term ')' | INT | VAR | IDENT | 'obj' '(' term ',' term ')'
                 | '[' ']' | '[' key ':' term (',' key ':' term)* ('|' term)? ']'
                 | '[' term (',' term)* ('|' term)? ']'
        """
        stack = []  # [kind, the outer term's primaries, ...] per open frame
        parts = []  # the primaries before each '\/' of the innermost open term
        while True:
            t = self.next()
            kind = t[0]
            if kind == "INT":
                term = IntTerm(int(t[1]))
            elif kind == "VAR":
                term = (type_terms[t[1]] if t[1] in type_terms
                        else self.vars.setdefault(t[1], Var(t[1])))
            elif kind == "IDENT" and not self.at("("):
                term = Const(t[1])
            elif kind == "[" and self.at("]"):
                self.next()
                term = ListTerm([])
            else:
                if kind == "IDENT":
                    if t[1] != "obj":
                        self.err("only obj(...) may be used as a compound term", t)
                    self.next()
                    stack.append(["obj", parts, None])
                elif kind == "[" and self.peek()[0] in ("IDENT", "VAR") and self.peek(1)[0] == ":":
                    stack.append([Record, parts, [], self.key()])
                elif kind == "[":
                    stack.append([ListTerm, parts, []])
                elif kind == "(":
                    stack.append(["(", parts])
                else:
                    self.err("expected a term, found %r" % (t[1] or "end of input"), t)
                parts = []
                continue
            # a primary is complete: continue its union, or close the term
            # and with it the innermost open frame
            while True:
                if self.at("\\/"):
                    self.next()
                    parts.append(term)
                    break
                while parts:
                    term = UnionTerm(parts.pop(), term)
                    self.built.append(term)
                if not stack:
                    return term
                frame = stack.pop()
                kind, parts = frame[0], frame[1]
                if kind == "(":
                    self.expect(")")
                    continue
                if kind == "obj":
                    if frame[2] is None:
                        self.expect(",")
                        frame[2] = term
                        stack.append(frame)
                        parts = []
                        break
                    self.expect(")")
                    term = ObjTerm(frame[2], term)
                    self.built.append(term)
                    continue
                if kind == "|":
                    self.expect("]")
                    term = frame[2](frame[3], term)
                    continue
                frame[2].append((frame[3], term) if kind is Record else term)
                if self.at(","):
                    self.next()
                    if kind is Record:
                        frame[3] = self.key()
                    stack.append(frame)
                    parts = []
                    break
                if self.at("|"):
                    self.next()
                    stack.append(["|", parts, kind, frame[2]])
                    parts = []
                    break
                self.expect("]")
                term = kind(frame[2])

    def key(self):
        """A record key and its ':'; a variable key is a query variable."""
        k = self.next()
        if k[0] == "IDENT":
            key = k[1]
        elif k[0] == "VAR":
            key = self.vars.setdefault(k[1], Var(k[1]))
        else:
            self.err("expected a field name", k)
        self.expect(":")
        return key


def parse_query(source):
    """Parse '(NAME = type;)* atom' into a Query.  Equations use the type
    syntax and may be mutually recursive; their names denote ground type
    terms inside the atom, all other capitalized names are variables."""
    parser = _QueryParser(source)
    parser.vars = {}
    types = parser.prelude()
    memo = {}  # the names share one graph, and so do their terms
    # one canonicalization for the whole graph stamps every term
    images = canonical_images(list(types.values())) if types else None
    logic = {name: type_to_logic(t, memo, images) for name, t in types.items()}
    atom = parser.atom(logic)
    _stamp_ground(parser.built)
    return Query(atom, types, parser.vars)


def _stamp_ground(built):
    """Stamp the ground obj and union terms a query writes inline, given
    children first, when it writes a union: the solver splits a union into
    one goal per alternative, each checked against the others as
    ancestors, and stamps make those checks identity tests.  Without a
    union the terms are met by one chain of goals, and stamping them costs
    more than it saves.  A term is ground when each of its children is
    int or stamped; its stamp is the canonical node of the node
    logic_to_type would make of it, one hash-consing step over its
    children's canonical nodes."""
    if not any(type(t) is UnionTerm for t in built):
        return

    def stamp(t):
        if type(t) is Const:
            return canonicalize(IntType()) if t.name == "int" else None
        return getattr(t, "stamp", None)

    for t in built:
        if type(t) is UnionTerm:
            left, right = stamp(t.left), stamp(t.right)
            node = left and right and UnionType(left, right)
        else:
            norm = _norm_rec(t.rec)
            if type(t.cls) is not Const or norm is _FAIL or norm[1] or norm[2] is not None:
                continue
            fields = {k: stamp(v) for k, v in norm[0].items()}
            node = None not in fields.values() and ObjType(t.cls.name, fields)
        if node:
            t.stamp = canonicalize(node)


# ---------------------------------------------------------------------------
# answer formatting

def format_answer(answer):
    """One line per query variable the answer constrains.  A variable left
    unbound that no other binding reaches is left out; when no line is
    left, as for a ground query, the whole atom is printed."""
    terms = answer.bindings.values()
    reach = Counter()  # variable -> the bindings that reach it; walked only when needed
    if any(isinstance(deref(t), Var) for t in terms):
        reach.update(id(v) for t in terms for v in _vars([t]))
    lines = ["%s = %s" % (name, format_term_text(t))
             for name, t in answer.bindings.items()
             if not (isinstance(deref(t), Var) and reach[id(deref(t))] == 1)]
    if lines:
        return "\n".join(lines)
    args = ",".join(format_term_text(a) for a in answer.atom.args)
    return "%s(%s)" % (answer.atom.pred, args)
