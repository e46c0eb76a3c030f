"""Regular (rational) type and value terms as finite cyclic term graphs.

A term is a node in a graph; cycles encode the infinite unfoldings.  Two
terms denote the same infinite tree iff they are bisimilar, and
canonicalize() interns one node per bisimulation class so that equality
of canonical nodes is plain identity.
"""

from __future__ import annotations

import itertools
import json as _json
import re
from collections import Counter
from dataclasses import dataclass

_uids = itertools.count(1)


class TermError(Exception):
    pass


class ParseError(TermError):
    def __init__(self, msg, line, col):
        super().__init__("line %d, col %d: %s" % (line, col, msg))
        self.line = line
        self.col = col


class BudgetExceeded(Exception):
    """A search exhausted its configured memo budget (not a judgment)."""


# ---------------------------------------------------------------------------
# term graph nodes

class TypeTerm:
    """Node of a type term graph.  Nodes compare and hash by identity."""

    __slots__ = ("uid",)

    def __init__(self):
        self.uid = next(_uids)


class IntType(TypeTerm):
    __slots__ = ()

    def __repr__(self):
        return "<type#%d int>" % self.uid


class ObjType(TypeTerm):
    __slots__ = ("class_name", "fields")

    def __init__(self, class_name, fields=None):
        super().__init__()
        self.class_name = class_name
        # field name -> TypeTerm, kept sorted by name
        self.fields = dict(sorted((fields or {}).items()))

    def __repr__(self):
        return "<type#%d obj %s/%d>" % (self.uid, self.class_name, len(self.fields))


class UnionType(TypeTerm):
    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        super().__init__()
        self.left = left
        self.right = right

    def __repr__(self):
        return "<type#%d union>" % self.uid


class ValueTerm:
    """Node of a value term graph (integer or cyclic object value)."""

    __slots__ = ("uid",)

    def __init__(self):
        self.uid = next(_uids)


class IntValue(ValueTerm):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = value

    def __repr__(self):
        return "<val#%d %d>" % (self.uid, self.value)


class ObjValue(ValueTerm):
    __slots__ = ("class_name", "fields")

    def __init__(self, class_name, fields=None):
        super().__init__()
        self.class_name = class_name
        self.fields = dict(sorted((fields or {}).items()))

    def __repr__(self):
        return "<val#%d obj %s/%d>" % (self.uid, self.class_name, len(self.fields))


def _children(node):
    if isinstance(node, (IntType, IntValue)):
        return ()
    if isinstance(node, (ObjType, ObjValue)):
        return tuple(node.fields[f] for f in sorted(node.fields))
    return (node.left, node.right)


def _shape(node):
    """Local constructor signature, ignoring children."""
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
    raise TypeError("not a term node: %r" % (node,))


def subterm_closure(t):
    """All distinct nodes reachable from t (including t itself), in the
    order a depth-first walk discovers them."""
    seen = {}
    todo = [t]
    while todo:
        n = todo.pop()
        if n.uid in seen:
            continue
        seen[n.uid] = n
        todo.extend(_children(n))
    return list(seen.values())


# ---------------------------------------------------------------------------
# syntactic equation systems (the parsed form)

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


@dataclass
class EquationSystem:
    """Bindings VAR -> syntactic expression, plus a root variable.

    Guardedness is not required: ``X = X \\/ X`` is legal and denotes the
    all-union infinite tree.  Only pure variable alias cycles (``X = X``)
    are rejected, at resolve time, since they denote no unique tree.
    """

    bindings: dict
    root: str


# ---------------------------------------------------------------------------
# scanner / parser

def scan(src, pattern):
    """Token texts of src, ending with "" at the end of input.

    Each match of a grammar's pattern skips whitespace and comments in its
    prefix and captures, in its one group, a token or else one character
    that starts no token; parsers reject the latter.  The list is built
    in C: no Python runs per token.
    """
    toks = pattern.findall(src)
    if len(toks) > 1 and not toks[-2]:
        del toks[-1]  # after trailing space the search meets the end twice
    return toks


def token_spans(src, pattern):
    """Source offsets (start, end) of each token of scan(src, pattern)."""
    return [m.span(1) for m in pattern.finditer(src)]


def token_position(src, pattern, k):
    """(line, col) of token k of scan(src, pattern), both from 1.

    Comments do not advance the column, which only shows in the end of
    input: it sits before a trailing comment.
    """
    m = next(itertools.islice(pattern.finditer(src), k, None))
    pos = m.start(1)
    if pos == len(src):
        tail = src[max(m.start(), src.rfind("\n") + 1):].lstrip(" \t\r")
        pos -= len(tail)
    line_start = src.rfind("\n", 0, pos) + 1
    return src.count("\n", 0, line_start) + 1, pos - line_start + 1


def token_kind(text, fixed, var=str.isupper, digit=str.isdecimal):
    """Kind of a token: fixed[text] for a grammar's symbols and keywords and
    for "" (EOF); else VAR or IDENT by var() of a first letter or "_", INT
    by digit() of the first character or a "-"; None for a character that
    starts no token."""
    kind = fixed.get(text)
    if kind is None:
        c = text[0]
        if c.isalpha() or c == "_":
            kind = "VAR" if var(c) else "IDENT"
        elif digit(c) or (c == "-" and len(text) > 1):
            kind = "INT"
    return kind


class TokenParser:
    """Cursor over the tokens (kind, text, index) of a grammar, for a
    recursive-descent parser; token positions are found only for errors,
    which it raises as error("line L, col C: message")."""

    def __init__(self, src, pattern, kind, error):
        self.src, self.pattern, self.error = src, pattern, error
        texts = scan(src, pattern)
        kinds = {t: kind(t) for t in set(texts)}  # names and symbols recur
        self.toks = [(kinds[t], t, k) for k, t in enumerate(texts)]
        self.i = 0
        for tok in self.toks:
            if tok[0] is None:
                self.err("unexpected character %r" % tok[1][0], tok)

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, kind):
        return self.toks[self.i][0] == kind

    def err(self, msg, tok=None):
        line, col = token_position(self.src, self.pattern, (tok or self.peek())[2])
        raise self.error("line %d, col %d: %s" % (line, col, msg))

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            self.err("expected %r, found %r" % (kind, t[1] or "end of input"), t)
        return t


# Symbols come before integers so that "->" is an arrow and "-3" a
# negative literal.  \w also matches numerals such as "½" and "²", which
# token_kind rejects.
_TYPE_TOKENS = re.compile(r"""[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (->|\\/|[=;()\[\],:]|[^\W\d]\w*|-?\d+|.|\Z)""", re.VERBOSE)
_TYPE_KINDS = {t: t for t in ("->", "\\/", "=", ";", "(", ")", "[", "]", ",", ":")}
_TYPE_KINDS[""] = "EOF"


def _kind(text):
    return token_kind(text, _TYPE_KINDS)


def _fail(src, toks, k, msg):
    """Raise the ParseError of token k, unless a character that starts no
    token comes anywhere in src: the first such wins, as in a scanner
    that stops at it."""
    for j, text in enumerate(toks):
        if _kind(text) is None:
            k, msg = j, "unexpected character %r" % text[0]
            break
    raise ParseError(msg, *token_position(src, _TYPE_TOKENS, k))


def _expected(src, toks, k, what):
    _fail(src, toks, k, "expected %s, found %r" % (what, toks[k] or "end of input"))


def _parse_expr(src, toks, i, values, refs):
    """The expression that starts at token i, and the index after it;
    appends the names it refers to to refs.

    expr := atom ('\\/' atom)*, right associative; values have no unions.
    atom := '(' expr ')' | VAR | INT | 'int'
          | 'obj' '(' IDENT ',' '[' (IDENT sep expr (',' IDENT sep expr)*)? ']' ')'
    An LL(1) loop over an explicit stack of open parentheses and open
    object fields, so nesting depth costs no recursion.
    """
    sep = "->" if values else ":"
    make = ObjValExpr if values else ObjExpr
    stack = []  # ["(", outer parts] or ["[", outer parts, class, fields, seen, field]
    parts = []  # the atoms before each '\\/' of the innermost open expression
    while True:
        t = toks[i]
        if t == "obj":
            if toks[i + 1] != "(":
                _expected(src, toks, i + 1, "'('")
            cls = toks[i + 2]
            if _kind(cls) != "IDENT":
                _expected(src, toks, i + 2, "class name")
            if toks[i + 3] != ",":
                _expected(src, toks, i + 3, "','")
            if toks[i + 4] != "[":
                _expected(src, toks, i + 4, "'['")
            f = toks[i + 5]
            if f == "]":
                if toks[i + 6] != ")":
                    _expected(src, toks, i + 6, "')'")
                i += 7
                atom = make(cls, [])
            else:
                if _kind(f) != "IDENT":
                    _expected(src, toks, i + 5, "field name")
                if toks[i + 6] != sep:
                    _expected(src, toks, i + 6, "'%s'" % sep)
                stack.append(["[", parts, cls, [], {f}, f])
                parts = []
                i += 7
                continue
        elif t[:1].isupper() and t[0].isalpha():  # _kind(t) == "VAR", inlined
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
                _fail(src, toks, i, "'int' is a type, not a value")
            i += 1
            atom = IntExpr()
        elif _kind(t) == "INT":
            if not values:
                _fail(src, toks, i, "integer literals only appear in value terms")
            i += 1
            atom = IntLitExpr(int(t))
        elif _kind(t) == "IDENT":
            _fail(src, toks, i, "unexpected identifier %r" % t)
        else:
            _expected(src, toks, i, "a term")
        # an atom is complete: continue its union, or close the expression
        # and with it the innermost open frame
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
                    _expected(src, toks, i, "')'")
                i += 1
                continue
            fields, seen = frame[3], frame[4]
            fields.append((frame[5], atom))
            if toks[i] == ",":
                f = toks[i + 1]
                if _kind(f) != "IDENT":
                    _expected(src, toks, i + 1, "field name")
                if f in seen:
                    _fail(src, toks, i + 1, "duplicate field %s" % f)
                seen.add(f)
                if toks[i + 2] != sep:
                    _expected(src, toks, i + 2, "'%s'" % sep)
                frame[5] = f
                stack.append(frame)
                parts = []
                i += 3
                break
            if toks[i] != "]":
                _expected(src, toks, i, "']'")
            if toks[i + 1] != ")":
                _expected(src, toks, i + 1, "')'")
            i += 2
            atom = make(frame[2], fields)


def _parse_system(src, values):
    """system := (VAR '=' expr ';')* 'root' VAR ';'?"""
    toks = scan(src, _TYPE_TOKENS)
    bindings = {}
    refs = []  # per binding, the names it refers to in source order
    i = 0
    while toks[i] != "root":
        name = toks[i]
        if _kind(name) != "VAR":
            _fail(src, toks, i, "expected a declaration 'VAR = ...' or 'root VAR'")
        if name in bindings:
            _fail(src, toks, i, "duplicate binding for %s" % name)
        if toks[i + 1] != "=":
            _expected(src, toks, i + 1, "'='")
        refs.append([])
        bindings[name], i = _parse_expr(src, toks, i + 2, values, refs[-1])
        if toks[i] != ";":
            _expected(src, toks, i, "';'")
        i += 1
    root = toks[i + 1]
    if _kind(root) != "VAR":
        _expected(src, toks, i + 1, "root variable name")
    end = i + 3 if toks[i + 2] == ";" else i + 2
    if toks[end]:
        _expected(src, toks, end, "end of input")
    for names in refs:  # from each end, as a stack walk of the expressions meets them
        for name in reversed(names):
            if name not in bindings:
                raise TermError("unbound variable %s" % name)
    if root not in bindings:
        _fail(src, toks, i + 1, "unbound root variable %s" % root)
    return EquationSystem(bindings, root)


def parse_type(source):
    """Parse equation-system text into an EquationSystem of type expressions."""
    return _parse_system(source, values=False)


def parse_value(source):
    """Parse equation-system text into an EquationSystem of value expressions."""
    return _parse_system(source, values=True)


# ---------------------------------------------------------------------------
# resolving a system into a term graph

def _representatives(system):
    """Chase pure-variable aliases; reject alias cycles like X = Y; Y = X."""
    reps = {}
    for name in system.bindings:
        seen = [name]
        expr = system.bindings[name]
        while isinstance(expr, RefExpr):
            if expr.name in seen:
                raise TermError(
                    "variable cycle %s has no unique solution" % " = ".join(seen + [expr.name]))
            seen.append(expr.name)
            expr = system.bindings[expr.name]
        for alias in seen:
            reps[alias] = expr
    return reps


def resolve_names(system, values=False):
    """The term graph of every name an equation system binds: name -> node."""
    reps = _representatives(system)

    def make_node(expr):
        if isinstance(expr, IntExpr):
            if values:
                raise TermError("type expression in a value system")
            return IntType()
        if isinstance(expr, ObjExpr):
            if values:
                raise TermError("type expression in a value system")
            return ObjType(expr.class_name)
        if isinstance(expr, UnionExpr):
            if values:
                raise TermError("union is not a value constructor")
            return UnionType()
        if isinstance(expr, IntLitExpr):
            if not values:
                raise TermError("value expression in a type system")
            return IntValue(expr.value)
        if isinstance(expr, ObjValExpr):
            if not values:
                raise TermError("value expression in a type system")
            return ObjValue(expr.class_name)
        raise TypeError(expr)

    # one node per distinct bound expression; aliases share it
    by_expr = {}
    named = {}
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


def resolve(system):
    """Build the type term graph denoted by an equation system."""
    return resolve_names(system)[system.root]


def resolve_value(system):
    """Build the value term graph denoted by an equation system."""
    return resolve_names(system, values=True)[system.root]


def type_from_source(source):
    return resolve(parse_type(source))


def value_from_source(source):
    return resolve_value(parse_value(source))


# ---------------------------------------------------------------------------
# bisimulation minimization and canonical interning

_canonical = {}        # key of a component's start block -> its canonical node
_canonical_uids = set()
_START_CANDIDATES = 4  # start blocks serialized and compared per component


def _partition(nodes):
    """Coarsest bisimulation-stable partition; returns node uid -> block id.

    Blocks start as the local shapes.  Each pass signs the dirty nodes
    (at first all of them) by their children's block ids as they stood
    at the start of the pass, and only then splits every block whose
    members disagree.  The largest part keeps the block's id, so a node
    moves to a block at most half the size of its old one, O(log n)
    times, and only the parents of moved nodes are dirty in the next
    pass: O(m log n) in all (Hopcroft 1971; Valmari & Lehtinen 2008).
    Members no dirty node touched keep the block's last shared signature.
    """
    index = {n.uid: i for i, n in enumerate(nodes)}
    kids = [[index[c.uid] for c in _children(n)] for n in nodes]
    parents = [[] for _ in nodes]
    for i, ks in enumerate(kids):
        for c in ks:
            parents[c].append(i)
    shapes = {}
    block = [shapes.setdefault(_shape(n), len(shapes)) for n in nodes]
    members = [set() for _ in shapes]
    for i, b in enumerate(block):
        members[b].add(i)
    shared = [None] * len(members)  # block id -> signature of its clean members
    dirty = range(len(nodes))
    while dirty:
        signed = {}  # block id -> signature -> dirty members
        for i in dirty:
            sig = tuple([block[c] for c in kids[i]])
            signed.setdefault(block[i], {}).setdefault(sig, []).append(i)
        moved = []
        for b, parts in signed.items():
            old = shared[b]
            clean = len(members[b]) - sum(map(len, parts.values()))
            if len(parts) == 1 and (not clean or old in parts):
                shared[b] = next(iter(parts))
                continue
            sizes = {sig: len(part) for sig, part in parts.items()}
            if clean:
                sizes[old] = sizes.get(old, 0) + clean
            keep = max(sizes, key=sizes.get)
            shared[b] = keep
            for sig in sizes:
                if sig == keep:
                    continue
                part = parts.get(sig, [])
                if clean and sig == old:
                    touched = {i for p in parts.values() for i in p}
                    part = part + [i for i in members[b] if i not in touched]
                nb = len(members)
                members.append(set(part))
                shared.append(sig)
                members[b].difference_update(part)
                for i in part:
                    block[i] = nb
                moved.extend(part)
        dirty = {p for i in moved for p in parents[i]}
    return {n.uid: block[i] for i, n in enumerate(nodes)}


def _scc_order(block_ids, block_children):
    """Tarjan over the block graph, iterative; yields SCCs bottom-up."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    sccs = []
    counter = itertools.count()
    for start in block_ids:
        if start in index:
            continue
        work = [(start, iter(block_children[start]))]
        index[start] = low[start] = next(counter)
        stack.append(start)
        onstack.add(start)
        while work:
            b, it = work[-1]
            advanced = False
            for c in it:
                if c not in index:
                    index[c] = low[c] = next(counter)
                    stack.append(c)
                    onstack.add(c)
                    work.append((c, iter(block_children[c])))
                    advanced = True
                    break
                if c in onstack:
                    low[b] = min(low[b], index[c])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[b])
            if low[b] == index[b]:
                scc = []
                while True:
                    m = stack.pop()
                    onstack.discard(m)
                    scc.append(m)
                    if m == b:
                        break
                sccs.append(scc)
    return sccs


def _serialize_block(start, block_children, block_shape, canon_of_block):
    """Flat canonical serialization of the part of the block graph reachable
    from `start` that has no canonical node yet; canonical exits are cited
    by uid.  Iterative so deep chains do not recurse."""
    order = {}
    out = []
    todo = [("visit", start)]
    while todo:
        op, b = todo.pop()
        if op == "ref":
            out.append(("r", order[b]))
            continue
        if b in canon_of_block:
            out.append(("x", canon_of_block[b].uid))
            continue
        if b in order:
            out.append(("r", order[b]))
            continue
        order[b] = len(order)
        kids = block_children[b]
        out.append(("n", block_shape[b], len(kids)))
        for c in reversed(kids):
            todo.append(("visit", c))
    return tuple(out)


def _scc_key(scc, block_children, block_shape, canon_of_block):
    """(start block, intern key) of a strongly connected component of the
    quotient: the key is the serialization from a start block chosen from
    the structure alone, so every presentation of the component picks the
    same one, and one key stands for the whole component.

    Colours start as the shape plus the canonical uids of the exits.
    While the rarest colour (least count, then least colour) has more
    than a few blocks, colours are refined by the children's colours,
    ranked in sorted order.  Of the blocks with the rarest colour, the one
    with the least serialization is the start.  The blocks of a component
    of the quotient are pairwise distinct, so refining always makes
    progress and two blocks never serialize alike.
    """
    def key(b):
        return _serialize_block(b, block_children, block_shape, canon_of_block)

    if len(scc) == 1:
        return scc[0], key(scc[0])
    inside = set(scc)
    colour = {b: (block_shape[b], tuple(-1 if c in inside else canon_of_block[c].uid
                                        for c in block_children[b]))
              for b in scc}
    while True:
        counts = Counter(colour.values())
        rarest = min(counts, key=lambda c: (counts[c], c))
        if counts[rarest] <= _START_CANDIDATES:
            keys = {b: key(b) for b in scc if colour[b] == rarest}
            start = min(keys, key=keys.get)
            return start, keys[start]
        rank = {c: i for i, c in enumerate(sorted(counts))}
        refined = {b: (rank[colour[b]], tuple(rank[colour[c]] for c in block_children[b]
                                              if c in inside))
                   for b in scc}
        assert len(set(refined.values())) > len(counts), \
            "component of the quotient is not minimal"
        colour = refined


def canonicalize(t):
    """Return the canonical node for t's bisimulation class.

    Canonical nodes are interned globally: bisimilar inputs map to the
    identical node object, so node identity after canonicalization is
    bisimulation equality.
    """
    if t.uid in _canonical_uids:
        return t
    nodes = subterm_closure(t)
    block = _partition(nodes)

    rep = {}
    for n in nodes:
        rep.setdefault(block[n.uid], n)
    block_children = {b: tuple(block[c.uid] for c in _children(n))
                      for b, n in rep.items()}
    block_shape = {b: _shape(n) for b, n in rep.items()}

    canon_of_block = {}
    for scc in _scc_order(list(rep), block_children):
        start, key = _scc_key(scc, block_children, block_shape, canon_of_block)
        hit = _canonical.get(key)
        if hit is not None:
            # both graphs are minimal and deterministic: walk them in step
            todo = [(start, hit)]
            while todo:
                b, node = todo.pop()
                if b not in canon_of_block:
                    canon_of_block[b] = node
                    todo.extend(zip(block_children[b], _children(node)))
            continue
        fresh = {}
        for b in scc:
            shape = block_shape[b]
            if shape[0] == "int":
                fresh[b] = IntType()
            elif shape[0] == "union":
                fresh[b] = UnionType()
            elif shape[0] == "obj":
                fresh[b] = ObjType(shape[1])
            elif shape[0] == "intval":
                fresh[b] = IntValue(shape[1])
            else:
                fresh[b] = ObjValue(shape[1])
        for b in scc:
            node = fresh[b]
            kids = [canon_of_block.get(c) or fresh[c] for c in block_children[b]]
            shape = block_shape[b]
            if shape[0] == "union":
                node.left, node.right = kids
            elif shape[0] in ("obj", "objval"):
                node.fields = dict(zip(shape[2], kids))
        for b in scc:
            canon_of_block[b] = fresh[b]
            _canonical_uids.add(fresh[b].uid)
        _canonical[key] = fresh[start]
    return canon_of_block[block[t.uid]]


def equal(t1, t2):
    """Bisimulation equality: same infinite unfolding (fields unordered)."""
    return canonicalize(t1) is canonicalize(t2)


# ---------------------------------------------------------------------------
# printing terms back to equation-system text

def _naming_pass(root):
    """Nodes that need a binding: the root, shared nodes, and cycle targets."""
    named = {root.uid}
    state = {}  # uid -> "open" | "done"
    todo = [("enter", root)]
    while todo:
        op, n = todo.pop()
        if op == "exit":
            state[n.uid] = "done"
            continue
        st = state.get(n.uid)
        if st is not None:
            named.add(n.uid)
            continue
        state[n.uid] = "open"
        todo.append(("exit", n))
        for c in reversed(_children(n)):
            todo.append(("enter", c))
    return named


def _format_term(root, values):
    named = _naming_pass(root)
    names = {}
    lines = []
    sep = " -> " if values else ": "

    def name_of(node):
        if node.uid not in names:
            names[node.uid] = "T%d" % len(names)
            lines.append(None)  # reserve slot to keep discovery order
            slot = len(lines) - 1
            lines[slot] = "%s = %s;" % (names[node.uid], fmt(node, inline=True))
        return names[node.uid]

    def fmt(node, inline=False, parens=False):
        if node.uid in named and not inline:
            return name_of(node)
        if isinstance(node, IntType):
            return "int"
        if isinstance(node, IntValue):
            return str(node.value)
        if isinstance(node, (ObjType, ObjValue)):
            inner = ", ".join("%s%s%s" % (f, sep, fmt(node.fields[f]))
                              for f in sorted(node.fields))
            return "obj(%s, [%s])" % (node.class_name, inner)
        body = "%s \\/ %s" % (fmt(node.left, parens=True), fmt(node.right))
        return "(%s)" % body if parens else body

    rootname = name_of(root)
    lines.append("root " + rootname)
    return "\n".join(lines)


def print_type(t):
    """Equation-system text for a type graph; parses back to a bisimilar term."""
    return _format_term(t, values=False)


def print_value(v):
    return _format_term(v, values=True)


# ---------------------------------------------------------------------------
# JSON form (same structure as the text syntax: bindings + root)

def _expr_to_json(expr):
    if isinstance(expr, IntExpr):
        return {"kind": "int"}
    if isinstance(expr, RefExpr):
        return {"kind": "ref", "name": expr.name}
    if isinstance(expr, UnionExpr):
        return {"kind": "union", "left": _expr_to_json(expr.left),
                "right": _expr_to_json(expr.right)}
    if isinstance(expr, ObjExpr):
        return {"kind": "obj", "class": expr.class_name,
                "fields": {f: _expr_to_json(e) for f, e in expr.fields}}
    if isinstance(expr, IntLitExpr):
        return {"kind": "intval", "value": expr.value}
    if isinstance(expr, ObjValExpr):
        return {"kind": "objval", "class": expr.class_name,
                "fields": {f: _expr_to_json(e) for f, e in expr.fields}}
    raise TypeError(expr)


def _expr_from_json(data, values):
    kind = data["kind"]
    if kind == "int":
        return IntExpr()
    if kind == "ref":
        return RefExpr(data["name"])
    if kind == "union":
        return UnionExpr(_expr_from_json(data["left"], values),
                         _expr_from_json(data["right"], values))
    if kind == "obj":
        return ObjExpr(data["class"],
                       [(f, _expr_from_json(e, values)) for f, e in data["fields"].items()])
    if kind == "intval":
        return IntLitExpr(data["value"])
    if kind == "objval":
        return ObjValExpr(data["class"],
                          [(f, _expr_from_json(e, values)) for f, e in data["fields"].items()])
    raise TermError("unknown term kind %r" % kind)


def term_to_json(t):
    """JSON text with the same bindings/root shape as the textual syntax."""
    values = isinstance(t, ValueTerm)
    system = (parse_value if values else parse_type)(_format_term(t, values))
    return _json.dumps({
        "root": system.root,
        "bindings": {name: _expr_to_json(e) for name, e in system.bindings.items()},
    }, indent=2)


def type_from_json(text):
    data = _json.loads(text)
    bindings = {name: _expr_from_json(e, values=False)
                for name, e in data["bindings"].items()}
    return resolve(EquationSystem(bindings, data["root"]))


def value_from_json(text):
    data = _json.loads(text)
    bindings = {name: _expr_from_json(e, values=True)
                for name, e in data["bindings"].items()}
    return resolve_value(EquationSystem(bindings, data["root"]))
