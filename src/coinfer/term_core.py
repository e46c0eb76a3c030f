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
import threading
from collections import Counter
from functools import partial

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
        self.uid = next(_uids)
        self.class_name = class_name
        # field name -> TypeTerm, kept sorted by name
        self.fields = dict(sorted(fields.items())) if fields else {}

    def __repr__(self):
        return "<type#%d obj %s/%d>" % (self.uid, self.class_name, len(self.fields))


class UnionType(TypeTerm):
    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.uid = next(_uids)
        self.left = left
        self.right = right

    def __repr__(self):
        return "<type#%d union>" % self.uid


class ValueTerm:
    """Node of a value term graph (integer or cyclic object value)."""

    __slots__ = ("uid",)


class IntValue(ValueTerm):
    __slots__ = ("value",)

    def __init__(self, value):
        self.uid = next(_uids)
        self.value = value

    def __repr__(self):
        return "<val#%d %d>" % (self.uid, self.value)


class ObjValue(ValueTerm):
    __slots__ = ("class_name", "fields")

    def __init__(self, class_name, fields=None):
        self.uid = next(_uids)
        self.class_name = class_name
        self.fields = dict(sorted(fields.items())) if fields else {}

    def __repr__(self):
        return "<val#%d obj %s/%d>" % (self.uid, self.class_name, len(self.fields))


# dispatch on the exact node class: the hottest helpers run no isinstance chain
_CHILDREN = {
    IntType: lambda node: (),
    UnionType: lambda node: (node.left, node.right),
    ObjType: lambda node: tuple([node.fields[f] for f in sorted(node.fields)]),
    IntValue: lambda node: (),
    ObjValue: lambda node: tuple([node.fields[f] for f in sorted(node.fields)]),
}


def _obj_local(tag):
    def local(node):
        names = sorted(node.fields)
        return (tag, node.class_name, tuple(names)), tuple([node.fields[f] for f in names])
    return local


_LOCAL = {  # (local constructor signature, ignoring children; the children)
    IntType: lambda node: (("int",), ()),
    UnionType: lambda node: (("union",), (node.left, node.right)),
    ObjType: _obj_local("obj"),
    IntValue: lambda node: (("intval", node.value), ()),
    ObjValue: _obj_local("objval"),
}


def _children(node):
    return _CHILDREN[type(node)](node)


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


def union_alternatives(t):
    """The non-union nodes t reaches through union edges alone, each once,
    left side first.  A type denotes the union of its alternatives, so a
    union-only cycle, which has none, is empty."""
    alts, seen, stack = [], set(), [t]
    while stack:
        n = stack.pop()
        if n.uid not in seen:
            seen.add(n.uid)
            if type(n) is UnionType:
                stack += (n.right, n.left)
            else:
                alts.append(n)
    return alts


# ---------------------------------------------------------------------------
# equation systems

class EquationSystem:
    """Bindings VAR -> term graph node, plus a root variable.

    Guardedness is not required: ``X = X \\/ X`` is legal and denotes the
    all-union infinite tree.  Only pure variable alias cycles (``X = X``)
    are rejected, when the system is read, since they denote no unique
    tree.
    """

    __slots__ = ("bindings", "root")

    def __init__(self, bindings, root):
        self.bindings = bindings
        self.root = root


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
    parser's LL(1) loops; texts holds the token texts alone.  Token
    positions are found only for errors, which it raises as
    error("line L, col C: message")."""

    def __init__(self, src, pattern, kind, error):
        self.src, self.pattern, self.error = src, pattern, error
        self.texts = scan(src, pattern)
        kinds = {t: kind(t) for t in set(self.texts)}  # names and symbols recur
        self.toks = [(kinds[t], t, k) for k, t in enumerate(self.texts)]
        self.i = 0
        if None in kinds.values():
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


def _expected(fail, toks, k, what):
    fail(k, "expected %s, found %r" % (what, toks[k] or "end of input"))


def parse_equations(toks, i, values, fail, more, underscore=False):
    """Equations VAR '=' expr ';' from token i while more(i) holds, each
    expression read by one LL(1) loop over an explicit stack of open
    parentheses and objects, so nesting costs no recursion.  Returns the
    bindings name -> node or, for an alias, the name it stands for; the
    index after them; and the first name they refer to but do not bind,
    as (binding that refers to it, name), or None.  Names stay in their
    slots, and nodes get no uid and keep their fields as (name, child)
    pairs in source order, until link_equations.  fail(k, msg) raises the
    error of token k; with underscore a name may also start with "_".

    expr := atom ('\\/' atom)*, right associative; values have no unions.
    atom := '(' expr ')' | VAR | INT | 'int'
          | 'obj' '(' IDENT ',' '[' (IDENT sep expr (',' IDENT sep expr)*)? ']' ')'
    """
    sep = "->" if values else ":"
    obj = ObjValue if values else ObjType
    new = object.__new__
    bindings = {}
    refs = []   # per binding, the names it refers to in source order
    stack = []  # [outer parts] for '(', [outer parts, class, fields, seen, field] for 'obj'
    parts = []  # the atoms before each '\\/' of the innermost open expression
    while more(i):
        name = toks[i]
        if not (name[:1].isupper() and name[0].isalpha() or underscore and name[:1] == "_"):
            fail(i, "expected a declaration 'VAR = ...' or 'root VAR'")
        if name in bindings:
            fail(i, "duplicate binding for %s" % name)
        if toks[i + 1] != "=":
            _expected(fail, toks, i + 1, "'='")
        names = []
        refs.append(names)
        i += 2
        while True:
            t = toks[i]
            c = t[:1]
            if t == "obj":
                if toks[i + 1] != "(":
                    _expected(fail, toks, i + 1, "'('")
                cls = toks[i + 2]
                if not (cls[:1].isalpha() and not cls[0].isupper() or cls[:1] == "_"):
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
                    atom = new(obj)
                    atom.class_name, atom.fields = cls, []
                else:
                    if not (f[:1].isalpha() and not f[0].isupper() or f[:1] == "_"):
                        _expected(fail, toks, i + 5, "field name")
                    if toks[i + 6] != sep:
                        _expected(fail, toks, i + 6, "'%s'" % sep)
                    stack.append([parts, cls, [], None, f])
                    parts = []
                    i += 7
                    continue
            elif c.isupper() and c.isalpha() or underscore and c == "_":  # a name
                names.append(t)
                i += 1
                atom = t
            elif t == "(":
                stack.append([parts])
                parts = []
                i += 1
                continue
            elif c.isdecimal() or c == "-" and t[1:2].isdecimal():
                if not values:
                    fail(i, "integer literals only appear in value terms")
                i += 1
                atom = new(IntValue)
                atom.value = int(t)
            elif t == "int":
                if values:
                    fail(i, "'int' is a type, not a value")
                i += 1
                atom = new(IntType)
            elif c.isalpha() or c == "_":
                fail(i, "unexpected identifier %r" % t)
            else:
                _expected(fail, toks, i, "a term")
            # an atom is complete: continue its union, or close the expression
            # and with it the innermost open parenthesis or object
            while True:
                if toks[i] == "\\/" and not values:
                    parts.append(atom)
                    i += 1
                    break
                while parts:
                    union = new(UnionType)
                    union.left, union.right = parts.pop(), atom
                    atom = union
                if not stack:
                    break
                frame = stack[-1]
                if len(frame) == 1:
                    stack.pop()
                    parts = frame[0]
                    if toks[i] != ")":
                        _expected(fail, toks, i, "')'")
                    i += 1
                    continue
                fields = frame[2]
                fields.append((frame[4], atom))
                if toks[i] == ",":
                    f = toks[i + 1]
                    if not (f[:1].isalpha() and not f[0].isupper() or f[:1] == "_"):
                        _expected(fail, toks, i + 1, "field name")
                    seen = frame[3] = frame[3] or {fields[0][0]}  # made at the second field
                    if f in seen:
                        fail(i + 1, "duplicate field %s" % f)
                    seen.add(f)
                    if toks[i + 2] != sep:
                        _expected(fail, toks, i + 2, "'%s'" % sep)
                    frame[4] = f
                    i += 3
                    break
                if toks[i] != "]":
                    _expected(fail, toks, i, "']'")
                if toks[i + 1] != ")":
                    _expected(fail, toks, i + 1, "')'")
                i += 2
                stack.pop()
                parts = frame[0]
                atom = new(obj)
                atom.class_name, atom.fields = frame[1], fields
            if not (stack or parts):  # no union and no object goes on: the expression ends
                break
        bindings[name] = atom
        if toks[i] != ";":
            _expected(fail, toks, i, "';'")
        i += 1
    for eq, names in zip(bindings, refs):  # from each end, as a stack walk meets them
        for name in reversed(names):
            if name not in bindings:
                return bindings, i, (eq, name)
    return bindings, i, None


def link_equations(bindings):
    """name -> node, in binding order, for read equations whose names are
    all bound.  One pass chases aliases, rejecting alias cycles like
    X = Y; Y = X, swaps each name left in a slot for its node, and numbers
    the nodes: each bound node as the names in binding order reach it,
    then a last-in-first-out walk, a union's left child before its right,
    an object's fields in source order.  Samplers break ties by uid."""
    named = dict.fromkeys(bindings)
    pending = []
    uids = _uids
    for name in bindings:
        if named[name] is not None:
            continue
        chain = [name]
        node = bindings[name]
        while type(node) is str and named[node] is None:
            if node in chain:
                raise TermError(
                    "variable cycle %s has no unique solution" % " = ".join(chain + [node]))
            chain.append(node)
            node = bindings[node]
        if type(node) is str:
            node = named[node]
        else:
            node.uid = next(uids)
            pending.append(node)
        for alias in chain:
            named[alias] = node
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind is UnionType:
            slots = ((0, node.left), (1, node.right))
        elif kind is ObjType or kind is ObjValue:
            slots = node.fields
        else:
            continue
        kids = []
        for f, sub in slots:
            if type(sub) is str:
                sub = named[sub]
            else:
                sub.uid = next(uids)
                pending.append(sub)
            kids.append((f, sub))
        if kind is UnionType:
            node.left, node.right = kids[0][1], kids[1][1]
        else:
            node.fields = dict(sorted(kids))
    return named


def _parse_system(src, values):
    """system := (VAR '=' expr ';')* 'root' VAR ';'?"""
    toks = scan(src, _TYPE_TOKENS)
    fail = partial(_fail, src, toks)
    bindings, i, unbound = parse_equations(toks, 0, values, fail, lambda i: toks[i] != "root")
    root = toks[i + 1]
    if _kind(root) != "VAR":
        _expected(fail, toks, i + 1, "root variable name")
    end = i + 3 if toks[i + 2] == ";" else i + 2
    if toks[end]:
        _expected(fail, toks, end, "end of input")
    if unbound is not None:
        raise TermError("unbound variable %s" % unbound[1])
    if root not in bindings:
        fail(i + 1, "unbound root variable %s" % root)
    return EquationSystem(link_equations(bindings), root)


def parse_type(source):
    """Read equation-system text into an EquationSystem of type nodes."""
    return _parse_system(source, values=False)


def parse_value(source):
    """Read equation-system text into an EquationSystem of value nodes."""
    return _parse_system(source, values=True)


def resolve(system):
    """The term graph an equation system denotes: its root's node."""
    return system.bindings[system.root]


resolve_value = resolve


def type_from_source(source):
    return resolve(parse_type(source))


def value_from_source(source):
    return resolve(parse_value(source))


# ---------------------------------------------------------------------------
# bisimulation minimization and canonical interning

_canonical = {}        # key of a component's start block -> its canonical node
_canonical_uids = set()
_by_summary = {}       # summary -> canonical node on a cycle, or a list when they collide
_lock = threading.Lock()  # taken to add canonical nodes, never to read them
_START_CANDIDATES = 4  # start blocks serialized and compared per component
_SUMMARY_ROUNDS = 3    # signing rounds in a summary


def _partition(kids, shapes):
    """Coarsest bisimulation-stable partition of the nodes 0..n-1 with the
    given children (as indices) and shapes; returns a block id per node.

    Blocks start as the local shapes.  Each pass signs the dirty nodes
    (at first all of them) by their children's block ids as they stood
    at the start of the pass, and only then splits every block whose
    members disagree.  The largest part keeps the block's id, so a node
    moves to a block at most half the size of its old one, O(log n)
    times, and only the parents of moved nodes are dirty in the next
    pass: O(m log n) in all (Hopcroft 1971; Valmari & Lehtinen 2008).
    Members no dirty node touched keep the block's last shared signature.
    """
    parents = [[] for _ in kids]
    for i, ks in enumerate(kids):
        for c in ks:
            parents[c].append(i)
    ids = {}
    block = [ids.setdefault(shape, len(ids)) for shape in shapes]
    members = [set() for _ in ids]
    for i, b in enumerate(block):
        members[b].add(i)
    shared = [None] * len(members)  # block id -> signature of its clean members
    dirty = range(len(kids))
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
    return block


def _scc_order(block_ids, block_children):
    """Tarjan over the block graph, iterative; yields SCCs bottom-up.  A
    node whose component is out has lowlink infinity, so the lowlinks a
    node takes from the nodes it reaches need no on-stack test."""
    low = {}
    stack = []
    sccs = []
    for start in block_ids:
        if start in low:
            continue
        work = [(start, iter(block_children[start]), len(low), len(stack))]
        low[start] = len(low)
        stack.append(start)
        while work:
            b, it, num, pos = work[-1]
            for c in it:
                lc = low.get(c)
                if lc is None:
                    work.append((c, iter(block_children[c]), len(low), len(stack)))
                    low[c] = len(low)
                    stack.append(c)
                    break
                if lc < low[b]:
                    low[b] = lc
            else:
                work.pop()
                if low[b] == num:
                    scc = stack[pos:]
                    del stack[pos:]
                    low.update(dict.fromkeys(scc, float("inf")))
                    sccs.append(scc[::-1])
                elif low[b] < low[work[-1][0]]:
                    low[work[-1][0]] = low[b]
    return sccs


def _serialize_block(start, block_children, block_shape, canon_of_block):
    """Flat canonical serialization of the part of the block graph reachable
    from `start` that has no canonical node yet; canonical exits are cited
    by uid.  Iterative so deep chains do not recurse."""
    order = {}
    out = []
    todo = [start]
    while todo:
        b = todo.pop()
        if b in canon_of_block:
            out.append(("x", canon_of_block[b].uid))
        elif b in order:
            out.append(("r", order[b]))
        else:
            order[b] = len(order)
            kids = block_children[b]
            out.append(("n", block_shape[b], len(kids)))
            todo.extend(reversed(kids))
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


# shape tag -> node class, whose constructor takes shape[1:2]
_NODE = {"int": IntType, "union": UnionType, "obj": ObjType,
         "intval": IntValue, "objval": ObjValue}


def _attach(node, shape, kids):
    """Give a fresh node of a shape its children, in _children order."""
    if shape[0] == "union":
        node.left, node.right = kids
    elif len(shape) == 3:
        node.fields = dict(zip(shape[2], kids))
    return node


def _intern(shape, kids):
    """The canonical node of a shape over canonical children, interned
    under its local key, the shape and the children's uids.  Every
    canonical node is found under its local key, the nodes of a cycle
    too; a component's key, which _scc_key gives, starts with a tuple
    tagged "n" and is never a local key.  A miss is checked again under
    _lock, so two threads never make two nodes of one class."""
    key = (shape, *[c.uid for c in kids])
    hit = _canonical.get(key)
    if hit is None:
        with _lock:
            hit = _canonical.get(key)
            if hit is None:
                hit = _attach(_NODE[shape[0]](*shape[1:2]), shape, kids)
                _canonical_uids.add(hit.uid)
                _canonical[key] = hit
    return hit


def _add_component(scc, start, key, block_children, block_shape, canon_of_block, summary):
    """The node of block start in a component of the quotient that no key
    found: made under _lock, unless another thread made it first.  Every
    node is attached before any is published: each under its local key
    and filed under its summary, and the start under the component's key
    last.  So every canonical node on a cycle is filed."""
    with _lock:
        hit = _canonical.get(key)
        if hit is not None:
            return hit
        fresh = {b: _NODE[block_shape[b][0]](*block_shape[b][1:2]) for b in scc}
        kids = {b: [canon_of_block.get(c) or fresh[c] for c in block_children[b]] for b in scc}
        for b in scc:
            _attach(fresh[b], block_shape[b], kids[b])
        for b in scc:
            node = fresh[b]
            _canonical_uids.add(node.uid)
            _canonical[(block_shape[b], *[c.uid for c in kids[b]])] = node
            filed = _by_summary.get(summary[b])
            if filed is None:
                _by_summary[summary[b]] = node
            elif type(filed) is list:
                filed.append(node)
            else:
                _by_summary[summary[b]] = [filed, node]
        _canonical[key] = fresh[start]
        return fresh[start]


def _number(roots, leaves):
    """One depth-first walk on an explicit stack over the closure of the
    roots: (index, shapes, kids, canon, acyclic), the position of each
    node by uid, and each position's shape, children and canonical node.
    With leaves, a canonical node is a closed leaf, its own canonical
    node, whose children are not read.  A node is hash-consed when it
    closes, after all its children, if they all have a canonical node: so
    every node that reaches no cycle gets one, and acyclic says whether
    that is every node.
    """
    index = {}
    shapes, kids, canon = [], [], []
    acyclic = True
    closed = _canonical_uids if leaves else ()
    todo = roots[::-1]
    while todo:
        n = todo.pop()
        if type(n) is int:  # node number n closes
            ks = [canon[index[c.uid]] for c in kids[n]]
            if None in ks:  # a child is on a cycle or reaches one
                acyclic = False
            else:
                canon[n] = _intern(shapes[n], ks)
            continue
        uid = n.uid
        if uid in index:
            continue
        i = index[uid] = len(shapes)
        if uid in closed:
            shapes.append(None)
            kids.append(())
            canon.append(n)
            continue
        todo.append(i)
        shape, ks = _LOCAL[type(n)](n)
        shapes.append(shape)
        kids.append(ks)
        canon.append(None)
        todo += ks
    return index, shapes, kids, canon, acyclic


def _summaries(shapes, kids):
    """A summary per position: its shape, signed _SUMMARY_ROUNDS times
    with its children's summaries and hashed, as a pass of _partition
    signs a node with its children's blocks.  Bisimilar nodes get equal
    summaries however they are presented, and a summary is one machine
    word.  Plain loops: a comprehension per position costs a call."""
    sig = shapes
    for _ in range(_SUMMARY_ROUNDS):
        signed = []
        for s, ks in zip(sig, kids):
            row = [s]
            for c in ks:
                row.append(sig[c])
            signed.append(hash(tuple(row)))
        sig = signed
    return sig


def _lookup(roots, index, shapes, kids, image, summary):
    """Whether every root's class is interned already; if so, image then
    maps every position of their closure to its canonical node.

    A depth-first walk from the roots maps each position when it closes,
    after its children, to the node found under its local key.  A
    position reached again while still open is on a cycle, and its image,
    if its class is interned, is a canonical node on a cycle too, all of
    which are filed under their summaries.  A candidate filed under its
    summary is confirmed by a walk of the position and it in lockstep, as
    Hopcroft and Karp test deterministic automata for equivalence ("A
    linear algorithm for testing equivalence of finite automata", 1971):
    each position met is mapped to one canonical node, shapes equal and
    children paired in order, so a walk that completes is a bisimulation.
    Two distinct canonical nodes are never bisimilar, so a position met
    again with another node disproves the candidate, and the walk's pairs
    are undone.  The walks undone meet a bounded multiple of the
    positions, so the lookup is linear.
    """
    budget = 4 * len(shapes) + 16
    opened = set()
    todo = [index[r.uid] for r in reversed(roots)]
    while todo:
        i = todo.pop()
        if i < 0:  # position ~i closes, its children mapped
            i = ~i
            if image[i] is None:
                image[i] = _canonical.get((shapes[i], *[image[c].uid for c in kids[i]]))
                if image[i] is None:
                    return False
            continue
        if image[i] is not None:
            continue
        if i not in opened:
            opened.add(i)
            todo.append(~i)
            todo += kids[i]
            continue
        found = _by_summary.get(summary[i])  # i is on a cycle
        for cand in (() if found is None else reversed(found) if type(found) is list
                     else (found,)):
            made = []
            pairs = [(i, cand)]
            while pairs:
                j, node = pairs.pop()
                had = image[j]
                if had is None:
                    shape, ks = _LOCAL[type(node)](node)
                    if shape != shapes[j]:
                        break
                    image[j] = node
                    made.append(j)
                    pairs += zip(kids[j], ks)
                elif had is not node:
                    break
            else:
                break  # confirmed
            for j in made:
                image[j] = None
            budget -= len(made) + 1
            if budget < 0:
                return False
        else:
            return False
    return True


def _canonical_nodes(roots):
    """(index, canon): the position of each node of the roots' closure by
    uid, and the canonical node of each position.

    Canonical nodes are leaves of the walk, so only the part of the
    closure not yet canonical is read.  When that part has no cycle, its
    nodes are hash-consed bottom-up with no partition (Filliatre &
    Conchon, "Type-safe modular hash-consing", 2006), which is exact
    because every canonical node is interned under its local key.  A
    cyclic closure that met no canonical node is looked up first
    (_lookup): a node on a cycle by its summary, confirmed by a lockstep
    walk, and the nodes above by their local keys.  Only a miss is
    minimized by _partition, and each component of the quotient is
    interned under one key, its nodes filed under their summaries.  A new
    cycle can be bisimilar to a canonical node it reaches (Mauborgne, "An
    incremental unique representation for regular trees", 2000): when the
    walk met one, the whole closure is walked again, canonical nodes'
    children too, and partitioned with them.
    """
    index, shapes, kids, canon, acyclic = _number(roots, leaves=True)
    if acyclic:
        return index, canon
    met = None in shapes  # the walk met a canonical node
    if met:
        index, shapes, kids, canon, _ = _number(roots, leaves=False)
    kids = [[index[c.uid] for c in ks] for ks in kids]
    summary = _summaries(shapes, kids)
    if not met and _lookup(roots, index, shapes, kids, canon, summary):
        return index, canon
    block = _partition(kids, shapes)
    rep = {b: i for i, b in enumerate(block)}  # any member: the partition is stable
    block_children = {b: tuple([block[c] for c in kids[i]]) for b, i in rep.items()}
    block_shape = {b: shapes[i] for b, i in rep.items()}

    canon_of_block = {}
    for scc in _scc_order(list(rep), block_children):
        b = scc[0]
        if len(scc) == 1 and b not in block_children[b]:
            # canon holds only exact nodes: hash-consed, or confirmed by a lookup
            canon_of_block[b] = canon[rep[b]] or _intern(
                block_shape[b], [canon_of_block[c] for c in block_children[b]])
            continue
        start, key = _scc_key(scc, block_children, block_shape, canon_of_block)
        hit = _canonical.get(key) or _add_component(
            scc, start, key, block_children, block_shape, canon_of_block,
            {b: summary[rep[b]] for b in scc})
        # both graphs are minimal and deterministic: walk them in step
        todo = [(start, hit)]
        while todo:
            b, node = todo.pop()
            if b not in canon_of_block:
                canon_of_block[b] = node
                todo.extend(zip(block_children[b], _children(node)))
    return index, [canon_of_block[b] for b in block]


def canonicalize(t):
    """Return the canonical node for t's bisimulation class.

    Canonical nodes are interned globally: bisimilar inputs map to the
    identical node object, so node identity after canonicalization is
    bisimulation equality.  See _canonical_nodes.
    """
    if t.uid in _canonical_uids:
        return t
    return _canonical_nodes([t])[1][0]


def canonical_images(roots):
    """uid -> canonical node, for every node the roots reach: one
    canonicalization of their closure, however many roots share it."""
    index, canon = _canonical_nodes(roots)
    return dict(zip(index, canon))


def equal(t1, t2):
    """Bisimulation equality: same infinite unfolding (fields unordered)."""
    return canonicalize(t1) is canonicalize(t2)


# ---------------------------------------------------------------------------
# printing terms back to equation-system text

def _named_nodes(root):
    """The bindings a printed term gets: uid -> name "T<k>" for the root,
    shared nodes and cycle targets, numbered in the order a depth-first
    walk from the root first enters them; and those nodes in that order."""
    named = {root.uid}  # and every node the walk reaches again
    seen = set()
    preorder = []
    todo = [root]
    while todo:
        n = todo.pop()
        if n.uid in seen:
            named.add(n.uid)
            continue
        seen.add(n.uid)
        preorder.append(n)
        todo.extend(reversed(_children(n)))
    order = [n for n in preorder if n.uid in named]
    return {n.uid: "T%d" % k for k, n in enumerate(order)}, order


def _format_term(root, values):
    """Equation-system text: one binding per named node; every other node
    is written inline.  The walks keep explicit stacks, so depth costs no
    recursion."""
    names, order = _named_nodes(root)
    sep = " -> " if values else ": "

    def parts(n, parens):
        """n written out: text, and (child, in parentheses) for each child."""
        if isinstance(n, IntType):
            return ["int"]
        if isinstance(n, IntValue):
            return [str(n.value)]
        if isinstance(n, (ObjType, ObjValue)):
            out = ["obj(%s, [" % n.class_name]
            for k, f in enumerate(sorted(n.fields)):
                out += [", " * (k > 0) + f + sep, (n.fields[f], False)]
            return out + ["])"]
        out = [(n.left, True), " \\/ ", (n.right, False)]
        return ["("] + out + [")"] if parens else out

    lines = []
    for node in order:
        text = []
        todo = parts(node, False)[::-1]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                text.append(item)
            elif item[0].uid in names:
                text.append(names[item[0].uid])
            else:
                todo.extend(reversed(parts(*item)))
        lines.append("%s = %s;" % (names[node.uid], "".join(text)))
    lines.append("root " + names[root.uid])
    return "\n".join(lines)


def print_type(t):
    """Equation-system text for a type graph; parses back to a bisimilar term."""
    return _format_term(t, values=False)


def print_value(v):
    return _format_term(v, values=True)


# ---------------------------------------------------------------------------
# JSON form (same structure as the text syntax: bindings + root)
#
#   {"root": NAME, "bindings": {NAME: expr, ...}}
#   expr := {"kind": "int"} | {"kind": "ref", "name": NAME}
#         | {"kind": "union", "left": expr, "right": expr}
#         | {"kind": "obj" | "objval", "class": NAME, "fields": {NAME: expr, ...}}
#         | {"kind": "intval", "value": INT}

_JSON_DEPTH = 64  # levels a binding inlines below its top node, at most


def term_to_dict(t):
    """The JSON form as dicts: the bindings print_type or print_value
    writes, in the same order and under the same names.  A node that
    would be inlined more than _JSON_DEPTH levels deep gets a binding of
    its own, under the next free name, so no encoder recurses deeper."""
    names, order = _named_nodes(t)
    bindings = {}
    for node in order:  # order grows as deep nodes are named
        todo = [(node, bindings, names[node.uid], 0)]
        while todo:
            n, holder, key, depth = todo.pop()
            if depth > _JSON_DEPTH:
                names[n.uid] = "T%d" % len(order)
                order.append(n)
                holder[key] = {"kind": "ref", "name": names[n.uid]}
                continue
            kind = type(n)
            kids = ()
            if kind is IntType:
                expr = {"kind": "int"}
            elif kind is IntValue:
                expr = {"kind": "intval", "value": n.value}
            elif kind is UnionType:
                expr = {"kind": "union", "left": None, "right": None}
                kids = ((n.right, expr, "right"), (n.left, expr, "left"))
            else:
                fields = dict.fromkeys(sorted(n.fields))
                expr = {"kind": "objval" if kind is ObjValue else "obj",
                        "class": n.class_name, "fields": fields}
                kids = [(n.fields[f], fields, f) for f in reversed(fields)]
            holder[key] = expr
            for c, into, slot in kids:
                if c.uid in names:
                    into[slot] = {"kind": "ref", "name": names[c.uid]}
                else:
                    todo.append((c, into, slot, depth + 1))
    return {"root": names[t.uid], "bindings": bindings}


def term_to_json(t):
    """JSON text of term_to_dict(t)."""
    return _json.dumps(term_to_dict(t), indent=2)


_JSON_NODE = {"int": IntType, "union": UnionType, "obj": ObjType,
              "intval": IntValue, "objval": ObjValue}
_WRONG_SORT = {  # (values?, kind) -> the error of a constructor of the other sort
    (True, "int"): "type expression in a value system",
    (True, "obj"): "type expression in a value system",
    (True, "union"): "union is not a value constructor",
    (False, "intval"): "value expression in a type system",
    (False, "objval"): "value expression in a type system",
}


def _from_json(text, values):
    """The root node of a JSON term.  Its nodes are made on an explicit
    stack in the order they are written, names left in their slots, and
    linked by link_equations.  A malformed input raises TermError: a shape
    fault when it is read, then an unbound name, the root, an alias cycle,
    and a constructor of the other sort last, in the order of node uids."""
    try:
        data = _json.loads(text)
    except ValueError as exc:
        raise TermError("invalid JSON: %s" % exc) from None
    except RecursionError:
        raise TermError("invalid JSON: nesting too deep") from None
    if (type(data) is not dict or type(data.get("root")) is not str
            or type(data.get("bindings")) is not dict):
        raise TermError('a JSON term is an object with a name string "root" and '
                        'an object "bindings"')
    bindings = {}
    refs = []
    wrong = []  # (node, error) for each constructor of the other sort
    new = object.__new__
    todo = [(bindings, name, expr) for name, expr in reversed(data["bindings"].items())]
    while todo:
        holder, slot, expr = todo.pop()
        if type(expr) is not dict or "kind" not in expr:
            raise TermError('a term is a JSON object with a "kind", not %.60s'
                            % _json.dumps(expr))
        kind = expr["kind"]
        if kind == "ref":
            node = expr.get("name")
            if type(node) is not str:
                raise TermError('a ref has a name string "name"')
            refs.append(node)
        elif type(kind) is not str or kind not in _JSON_NODE:
            raise TermError("unknown term kind %r" % kind)
        else:
            node = new(_JSON_NODE[kind])
            if (values, kind) in _WRONG_SORT:
                wrong.append((node, _WRONG_SORT[values, kind]))
            if kind == "union":
                if "left" not in expr or "right" not in expr:
                    raise TermError('a union has a "left" and a "right" term')
                node.left = node.right = None
                todo += [(node, "right", expr["right"]), (node, "left", expr["left"])]
            elif kind == "intval":
                node.value = expr.get("value")
                if type(node.value) is not int:
                    raise TermError('an intval has an integer "value"')
            elif kind != "int":
                node.class_name, fields = expr.get("class"), expr.get("fields")
                if type(node.class_name) is not str or type(fields) is not dict:
                    raise TermError('an %s has a name string "class" and an object "fields"'
                                    % kind)
                node.fields = [[f, None] for f in fields]
                todo += [(pair, 1, sub) for pair, sub
                         in zip(node.fields[::-1], list(fields.values())[::-1])]
        if type(holder) is UnionType:
            setattr(holder, slot, node)
        else:  # the bindings, or an object's [field, child] pair
            holder[slot] = node
    for name in refs:
        if name not in bindings:
            raise TermError("unbound variable %s" % name)
    root = data["root"]
    if root not in bindings:
        raise TermError("unbound root variable %s" % root)
    named = link_equations(bindings)
    if wrong:
        raise TermError(min(wrong, key=lambda w: w[0].uid)[1])
    return named[root]


def type_from_json(text):
    return _from_json(text, values=False)


def value_from_json(text):
    return _from_json(text, values=True)
