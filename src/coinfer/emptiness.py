"""Linear-time emptiness of regular types, with witness extraction.

A type is inhabited iff it admits a derivation of the "not empty"
judgment in which no infinite (cyclic) branch consists of union steps
alone: every cycle must pass through an object node.  The checker walks
the term graph once, keeping the current path on an explicit stack that
answers "is the cycle back to this node contractive?" in O(1).

True results whose justification is fully contained in the subtree below
the node are cached for the rest of the call; provisional trues (those
leaning on a cycle to a node still under exploration) and all false
results are recomputed, since they may depend on the path.

inhabited answers the same question for every node of a closure in one
pass, for callers that ask about many nodes of one type.
"""

from bisect import bisect_left

from coinfer.term_core import (
    IntType,
    IntValue,
    ObjType,
    ObjValue,
    UnionType,
    _scc_order,
    subterm_closure,
)

_INF = float("inf")


class PathStack:
    """Path of in-progress nodes with O(1) contractive-cycle queries.

    Tracks, alongside the entries, the positions of object entries in
    ascending order; a cycle back to position q is contractive iff the
    deepest object position is at least q.  Entries live in flat lists,
    so a push allocates no container of its own.
    """

    def __init__(self):
        self._uids = []     # uid of the entry at each position
        self._pos = {}      # uid -> position
        self._objs = []     # ascending positions of object entries
        self._vals = []     # pending object values, parallel to _objs

    def __len__(self):
        return len(self._uids)

    def push(self, node, pending=None):
        pos = len(self._uids)
        self._uids.append(node.uid)
        self._pos[node.uid] = pos
        if isinstance(node, (ObjType, ObjValue)):
            self._objs.append(pos)
            self._vals.append(pending)
        return pos

    def pop(self):
        del self._pos[self._uids.pop()]
        if self._objs and self._objs[-1] == len(self._uids):
            self._objs.pop()
            self._vals.pop()

    def position_of(self, uid):
        return self._pos.get(uid)

    def is_contractive(self, uid):
        """Does the cycle back to uid's entry pass through an object?"""
        return bool(self._objs) and self._objs[-1] >= self._pos[uid]

    def knot_value(self, uid):
        """Pending value at the first object entry at or after uid's entry.

        Unions pass witness values through unchanged, so this is the value
        the cycle target will end up denoting.
        """
        return self._vals[bisect_left(self._objs, self._pos[uid])]


def _search(root, build_value):
    """(verdict, witness or None, visit count) for root.

    Open nodes sit on an explicit stack kept as parallel flat lists
    (node, path position, sorted field names, next child, lowlink,
    pending value), so that a deep walk leaves few containers for the
    cyclic garbage collector to rescan.  A child's result (ok, lowlink,
    value) is folded into the top frame: a union answers with its first
    inhabited branch, an object fails on its first empty field and
    otherwise takes the least lowlink.  The lowlink is the path position
    of the deepest cycle target a true result leans on, or infinity when
    it leans on none; a true result whose lowlink is not above its own
    position is context-free and memoized.
    """
    path = PathStack()
    memo = {}  # uid -> witness value (or None); only context-free trues
    visits = 0
    nodes, positions, names, nexts, lows, pendings = [], [], [], [], [], []
    node = root
    while True:
        visits += 1
        uid = node.uid
        at = path.position_of(uid)
        if uid in memo:
            ok, low, val = True, _INF, memo[uid]
        elif at is not None:
            if path.is_contractive(uid):
                ok, low, val = True, at, path.knot_value(uid) if build_value else None
            else:
                ok, low, val = False, _INF, None
        elif isinstance(node, IntType):
            ok, low, val = True, _INF, IntValue(0) if build_value else None
        else:
            pending = None
            if isinstance(node, UnionType):
                keys = None
                first = node.left
            else:
                if build_value:
                    pending = ObjValue(node.class_name)
                    pending.fields = {}
                # a tuple of strings drops out of the collector's view
                keys = tuple(sorted(node.fields))
                first = node.fields[keys[0]] if keys else None
            pos = path.push(node, pending)
            if first is not None:
                nodes.append(node)
                positions.append(pos)
                names.append(keys)
                nexts.append(0)
                lows.append(_INF)
                pendings.append(pending)
                node = first
                continue
            path.pop()
            memo[uid] = pending
            ok, low, val = True, _INF, pending
        # fold the result into the open frames until one has a child to visit
        while nodes:
            top = nodes[-1]
            keys = names[-1]
            if keys is None:  # union: the left branch failed, try the right
                if not ok and nexts[-1] == 0:
                    nexts[-1] = 1
                    node = top.right
                    break
            elif not ok:
                low, val = _INF, None
            else:
                if low < lows[-1]:
                    lows[-1] = low
                pending = pendings[-1]
                i = nexts[-1]
                if pending is not None:
                    pending.fields[keys[i]] = val
                i += 1
                if i < len(keys):
                    nexts[-1] = i
                    node = top.fields[keys[i]]
                    break
                low, val = lows[-1], pending
            nodes.pop()
            names.pop()
            nexts.pop()
            lows.pop()
            pendings.pop()
            path.pop()
            pos = positions.pop()
            if ok and low >= pos:
                memo[top.uid] = val
                low = _INF
        else:
            return ok, val, visits


def not_empty(t):
    """True iff the type is inhabited by at least one value."""
    ok, _, _ = _search(t, build_value=False)
    return ok


def not_empty_with_stats(t):
    """(verdict, node visit count) for measuring traversal cost."""
    ok, _, visits = _search(t, build_value=False)
    return ok, visits


def witness(t):
    """An inhabitant of t (possibly cyclic), or None if t is empty."""
    ok, val, _ = _search(t, build_value=True)
    return val if ok else None


def inhabited(t):
    """The uids of the inhabited nodes of t's closure, in one linear pass.

    This is the greatest set where int is inhabited, an object is when
    all of its fields are, and a union is when it reaches an inhabited
    non-union along union edges alone.  The union-only edges are
    condensed into strongly connected components; a component lives
    while one of its exits (edges leaving it) does, so starting from
    everything alive, deaths propagate along reversed edges: an object
    dies with any field, a component when its count of live exits hits
    zero.  A component without exits (``B = B \\/ B``) is dead at once.
    """
    nodes = {n.uid: n for n in subterm_closure(t)}
    unions = [n.uid for n in nodes.values() if isinstance(n, UnionType)]
    union_kids = {u: [c.uid for c in (nodes[u].left, nodes[u].right)
                      if isinstance(c, UnionType)] for u in unions}
    rep = {}  # uid -> its component's key; components get negative keys
    for k, scc in enumerate(_scc_order(unions, union_kids)):
        for u in scc:
            rep[u] = -1 - k
    waiting = {}  # key -> dependents to notify when it dies
    live_exits = {}
    for u in unions:
        key = rep[u]
        live_exits.setdefault(key, 0)
        for c in (nodes[u].left, nodes[u].right):
            target = rep.get(c.uid, c.uid)
            if target != key:
                live_exits[key] += 1
                waiting.setdefault(target, []).append(key)
    for n in nodes.values():
        if isinstance(n, ObjType):
            for c in n.fields.values():
                waiting.setdefault(rep.get(c.uid, c.uid), []).append(n.uid)
    dying = [key for key, count in live_exits.items() if count == 0]
    dead = set(dying)
    while dying:
        for p in waiting.get(dying.pop(), ()):
            if p in dead:
                continue
            if p < 0:
                live_exits[p] -= 1
                if live_exits[p]:
                    continue
            dead.add(p)
            dying.append(p)
    return {u for u in nodes if rep.get(u, u) not in dead}
