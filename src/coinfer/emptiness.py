"""Linear-time emptiness of regular types, with witness construction.

A node is inhabited when it is an int, an object whose fields all are,
or a union that reaches an inhabited non-union along union edges alone.
inhabited decides every node of a closure in one pass: the emptiness
marking of tree automata (Comon et al., TATA, ch. 1), that is Dowling
and Gallier's counter Horn-SAT, with union-only cycles condensed.  A
depth-first walk notes each edge from a union back to a union on its
path; without one, every node is inhabited.  Otherwise union-only cycles
are condensed into strongly connected components, and deaths spread by
counters along reversed edges from the components without exits: an
object dies with its first field, a component with its last exit.

A witness takes one value per node, so cycles close by sharing, and a
fresh 0 at every int.  A union takes the side of lower rank, the left
one on a tie; a node's rank is its distance along union edges to an
inhabited non-union, so a witness never enters a union-only cycle.
"""

from coinfer.term_core import IntType, IntValue, ObjType, ObjValue, UnionType, _components


def _inhabited(t):
    """(uid -> node for the inhabited nodes of t's closure, number of
    nodes the walk took up along edges)."""
    nodes = {}
    on_path = set()  # the unions whose subtrees the walk is in
    cyclic = False
    todo = [t]
    visits = 0
    while todo:
        n = todo.pop()
        if type(n) is int:  # the walk leaves the union with this uid
            on_path.discard(n)
            continue
        visits += 1
        if n.uid in nodes:
            continue
        nodes[n.uid] = n
        if type(n) is UnionType:
            on_path.add(n.uid)
            left, right = n.left, n.right
            if (type(left) is UnionType and left.uid in on_path
                    or type(right) is UnionType and right.uid in on_path):
                cyclic = True
            todo += (n.uid, right, left)
        elif type(n) is ObjType:
            todo += n.fields.values()
    if not cyclic:
        return nodes, visits

    union_kids = {u: [c.uid for c in (n.left, n.right) if type(c) is UnionType]
                  for u, n in nodes.items() if type(n) is UnionType}
    rep = {u: -1 - k  # union uid -> the key of its component; keys are negative
           for k, scc in enumerate(_components(union_kids, union_kids.__getitem__))
           for u in scc}
    need = {}     # key -> deaths that kill it: 1 for an object, the exits of a component
    waiting = {}  # key -> the keys told when it dies, once per edge
    for n in nodes.values():
        if type(n) is ObjType:
            key, exits = n.uid, n.fields.values()
            need[key] = 1
        elif type(n) is UnionType:
            key = rep[n.uid]
            exits = [c for c in (n.left, n.right) if rep.get(c.uid) != key]
            need[key] = need.get(key, 0) + len(exits)
        else:
            continue
        for c in exits:
            waiting.setdefault(rep.get(c.uid, c.uid), []).append(key)
    dying = [key for key, k in need.items() if k == 0]
    dead = set(dying)
    while dying:
        for key in waiting.get(dying.pop(), ()):
            need[key] -= 1
            if need[key] == 0:
                dead.add(key)
                dying.append(key)
    return {u: n for u, n in nodes.items() if rep.get(u, u) not in dead}, visits


def inhabited(t):
    """uid -> node for the inhabited nodes of t's closure."""
    return _inhabited(t)[0]


def not_empty(t):
    """True iff the type is inhabited by at least one value."""
    return t.uid in _inhabited(t)[0]


def not_empty_with_stats(t):
    """(verdict, number of nodes the pass's walk took up along edges)."""
    live, visits = _inhabited(t)
    return t.uid in live, visits


def _ranks(live):
    """uid -> rank for the nodes of live, breadth first from the
    non-unions along reversed union edges."""
    parents = {}
    for u, n in live.items():
        if type(n) is UnionType:
            for c in (n.left, n.right):
                parents.setdefault(c.uid, []).append(u)
    rank = {u: 0 for u, n in live.items() if type(n) is not UnionType}
    frontier = list(rank)
    while frontier:
        nxt = []
        for c in frontier:
            for p in parents.get(c, ()):
                if p not in rank:
                    rank[p] = rank[c] + 1
                    nxt.append(p)
        frontier = nxt
    return rank


def _witness(node, live, memo, rank):
    """node's witness value.  memo (object or union uid -> value) and rank
    (filled on first need) carry over between calls on one live set.  An
    object value is made when first reached and filled in from a flat
    list, so a deep value needs no deep stack."""
    out = {}
    todo = [(out, [(None, node)])]  # (the fields to fill in, (name, type) pairs)
    while todo:
        fields, pairs = todo.pop()
        for f, n in pairs:
            chain = []  # the unions passed on the way to a non-union
            while type(n) is UnionType and n.uid not in memo:
                chain.append(n.uid)
                left, right = n.left, n.right
                # the cases that settle the ranks without computing them
                if (right.uid not in live or left is right
                        or type(left) is not UnionType and left.uid in live):
                    n = left
                elif left.uid not in live:
                    n = right
                else:
                    if not rank:
                        rank.update(_ranks(live))
                    n = left if rank[left.uid] <= rank[right.uid] else right
            if type(n) is IntType:
                v = IntValue(0)
            elif n.uid in memo:
                v = memo[n.uid]
            else:
                v = memo[n.uid] = ObjValue(n.class_name)
                todo.append((v.fields, sorted(n.fields.items())))
            for u in chain:
                memo[u] = v
            fields[f] = v
    return out[None]


def witnesses(live):
    """A function from a node of live (as inhabited returns it) to its
    witness.  Values are made on demand and shared between calls."""
    memo, rank = {}, {}
    return lambda node: _witness(node, live, memo, rank)


def witness(t):
    """An inhabitant of t (possibly cyclic), or None if t is empty."""
    live = _inhabited(t)[0]
    return _witness(t, live, {}, {}) if t.uid in live else None
