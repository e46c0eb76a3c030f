"""Membership of values in regular types, and value sampling.

member decides v ∈ t over pairs (value node, non-union type node).  A
type node's alternatives are the non-union nodes it reaches through
union edges alone, so a union-only cycle is empty.  An int pair needs an
integer value; an object pair the type's class and fields in the value,
and each of its fields is a group of alternative pairs.  Where every
group leaves one consistent pair, membership is a deterministic walk
(Comon et al., TATA, ch. 1) that follows it, and fails at a group with
none.  A group with two hands the call to one greatest fixpoint, whose
counters spread refutation (Dowling and Gallier 1984; Liu and Smolka,
ICALP 1998): a group dies when all of its alternatives have, a pair with
any of its groups, and v ∈ t iff some alternative of t survives.  Every
cycle left passes through an object rule, so nothing tracks paths, and
both cost time linear in the pair edges and count the pairs they make.

sample_values draws members of a type: the canonical witness first, one
deliberately cyclic value when the type admits any, then seeded random
walks over the inhabited part of the type graph.  One SCC pass over
that part finds the nodes that reach no choice the walks could make,
component by component bottom-up, and the object nodes on cycles.  Such
a node takes its witness at no cost; when the root is one, sampling
stops after the witness.
"""

import random
from collections import deque

from coinfer.emptiness import inhabited, witnesses
from coinfer.term_core import (
    BudgetExceeded,
    IntType,
    IntValue,
    ObjType,
    ObjValue,
    UnionType,
    _components,
    canonicalize,
    subterm_closure,
    union_alternatives,
)

DEFAULT_LIMIT = 1_000_000


def member(v, t, limit=DEFAULT_LIMIT):
    """True iff the value inhabits the type, by the walk of the module
    docstring.  A group with two consistent pairs, or more than limit
    pairs examined, hands the whole call to _member_fixpoint, which
    raises BudgetExceeded when it makes more than limit pairs."""
    alts_of = {}  # type uid -> its alternatives
    ok = {}       # (value uid, alternative uid) examined -> consistent
    todo = [(v, t)]
    while todo:
        a, b = todo.pop()
        alts = alts_of.get(b.uid) if type(b) is UnionType else (b,)
        if alts is None:
            alts = alts_of[b.uid] = union_alternatives(b)
        live, fresh = 0, None
        for s in alts:
            key = (a.uid, s.uid)
            good = ok.get(key)
            if good is None:
                if len(ok) >= limit:
                    return _member_fixpoint(v, t, limit)
                good = ok[key] = (type(a) is IntValue if type(s) is IntType else
                                  type(a) is ObjValue and a.class_name == s.class_name
                                  and s.fields.keys() <= a.fields.keys())
                if good:
                    fresh = s
            live += good
        if live != 1:
            return live > 1 and _member_fixpoint(v, t, limit)
        if type(fresh) is ObjType:
            todo += [(a.fields[f], c) for f, c in fresh.fields.items()]
    return True


def _member_fixpoint(v, t, limit=DEFAULT_LIMIT):
    """member as the counter-driven greatest fixpoint of the module
    docstring; creating more than limit pairs raises BudgetExceeded."""
    alts_of = {}   # type uid -> its alternatives
    ids = {}       # (value uid, type uid) -> pair id
    dead = []      # pair id -> refuted
    waiting = []   # pair id -> ids of the groups that list it
    owner = []     # group id -> the pair it is a field of, -1 for the root
    alive = []     # group id -> its alternatives not refuted yet
    todo = []      # object pairs still to expand: (pair id, value, type)
    dying = []     # refuted pairs whose groups have not heard of it yet

    def group(p, v, t):
        """Add the group of pairs (v, s), s an alternative of t, as a
        premise of pair p; False when all of them are refuted already."""
        alts = alts_of.get(t.uid)
        if alts is None:
            alts = alts_of[t.uid] = union_alternatives(t)
        g = len(owner)
        live = 0
        for s in alts:
            key = (v.uid, s.uid)
            q = ids.get(key)
            if q is None:
                q = ids[key] = len(dead)
                if q >= limit:
                    raise BudgetExceeded("membership budget of %d pairs" % limit)
                waiting.append([])
                if type(s) is IntType:
                    dead.append(type(v) is not IntValue)
                else:
                    dead.append(type(v) is not ObjValue or v.class_name != s.class_name
                                or not s.fields.keys() <= v.fields.keys())
                    todo.append((q, v, s))
            if not dead[q]:
                live += 1
                waiting[q].append(g)
        owner.append(p)
        alive.append(live)
        return live > 0

    if not group(-1, v, t):
        return False
    while todo:
        p, v, s = todo.pop()
        if dead[p]:
            continue
        for f, c in s.fields.items():
            if not group(p, v.fields[f], c):
                dead[p] = True
                dying.append(p)
                break
        while dying:
            for g in waiting[dying.pop()]:
                alive[g] -= 1
                if not alive[g]:
                    q = owner[g]
                    if q < 0:
                        return False
                    if not dead[q]:
                        dead[q] = True
                        dying.append(q)
    return True


# ---------------------------------------------------------------------------
# sampling

def _viable_graph(t, live):
    """The part of t's graph the sampler walks, read in one SCC pass:
    node -> viable children (a union's inhabited sides, an object's
    fields) for the nodes t reaches through viable edges; the set of
    those that reach no int and no union whose two inhabited sides are
    different nodes, marked bottom-up by component; and the object nodes
    on a cycle.  The sampler builds objects with exactly the type's
    fields, so all it can build for a node of the set is the node's
    witness.  Sides that are different but bisimilar nodes still count
    as a choice: the graph is not canonicalized here."""
    kids = {}

    def viable(n):
        if type(n) is UnionType:
            ks = [c for c in (n.left, n.right) if c.uid in live]
        elif type(n) is ObjType:
            ks = list(n.fields.values())
        else:
            ks = []
        kids[n] = ks
        return ks

    reach, on_cycle = set(), []
    for scc in _components([t], viable):
        if any(type(n) is IntType or not reach.isdisjoint(kids[n])
               or type(n) is UnionType and len(kids[n]) == 2 and kids[n][0] is not kids[n][1]
               for n in scc):
            reach.update(scc)
        if len(scc) > 1 or scc[0] in kids[scc[0]]:
            on_cycle += [n for n in scc if type(n) is ObjType]
    return kids, kids.keys() - reach, on_cycle


def _find_obj_cycle(t, kids, on_cycle):
    """The forced route t -> ... -> O -> ... -> O through viable edges,
    where O is the least-uid object node on a cycle, or None when no
    object node is on one."""
    if not on_cycle:
        return None
    goal = min(on_cycle, key=lambda n: n.uid)

    def bfs(starts):
        parents = {}
        queue = deque(starts)
        seen = set(queue)
        while queue:
            n = queue.popleft()
            if n is goal:
                out = [n]
                while out[-1] in parents:
                    out.append(parents[out[-1]])
                return out[::-1]
            for c in kids[n]:
                if c not in seen:
                    seen.add(c)
                    parents[c] = n
                    queue.append(c)
        return None

    return bfs([t]) + bfs(kids[goal])


def _forced_cyclic(t, kids, on_cycle, wit):
    """A member of t whose value graph is cyclic, or None if t has none.

    Follows a route ending in a repeated object node; the repeat ties the
    knot, fields off the route take witness values.  The route's objects
    are made in one forward pass and filled in one backward pass, so a
    long cycle costs no recursion.
    """
    route = _find_obj_cycle(t, kids, on_cycle)
    if route is None:
        return None
    # the object value made for each route position, None for unions
    vals = [ObjValue(n.class_name) if type(n) is ObjType else None for n in route[:-1]]
    nxt_val = vals[route.index(route[-1])]  # the value of route[i + 1]; unions pass it through
    for i in range(len(vals) - 1, -1, -1):
        val = vals[i]
        if val is None:
            continue
        node, nxt = route[i], route[i + 1]
        route_field = next(f for f, c in node.fields.items() if c is nxt)
        for f, c in node.fields.items():
            val.fields[f] = nxt_val if f == route_field else wit(c)
        nxt_val = val
    return nxt_val


WALK_BUDGET = 60


def _random_walk(t, rng, kids, wit, max_nodes, fixed):
    """One random member of t: union sides, integers and whether to tie a
    knot back to an object still under construction are drawn from rng.
    A node in `fixed` (one without choice) takes its witness at once;
    after max_nodes steps on other nodes every remaining position does."""
    budget = max_nodes
    pending = {}  # type uid -> stack of object values under construction
    stack = []    # (object type, its value, field names still to fill)
    node = t
    while True:
        if node not in fixed:
            budget -= 1
        if budget <= 0 or node in fixed:
            val = wit(node)
        elif type(node) is IntType:
            val = IntValue(rng.randint(-999, 999))
        elif type(node) is UnionType:
            node = rng.choice(kids[node])
            continue
        elif pending.get(node.uid) and rng.random() < 0.25:
            val = pending[node.uid][-1]
        else:
            val = ObjValue(node.class_name)
            pending.setdefault(node.uid, []).append(val)
            stack.append((node, val, deque(node.fields)))
            val = None
        while stack:
            obj, into, todo = stack[-1]
            if val is not None:
                into.fields[todo.popleft()] = val
            if todo:
                break
            stack.pop()
            pending[obj.uid].pop()
            val = into
        if not stack:
            return val
        node = obj.fields[todo[0]]


def _bisimilar_to_any(v, earlier, budget):
    """True if value v is bisimilar to one of the earlier values, False if
    to none of them, None if the comparisons took more than `budget`
    steps.

    Each comparison is Hopcroft and Karp's test for deterministic
    automata (1971): pair the roots, then walk the product breadth-first,
    merging the two nodes of each pair in a union-find.  A pair whose
    nodes differ in class and field names, or in their integer, tells the
    values apart; a pair already merged is skipped.  A step is one
    comparison begun or one merge.
    """
    def find(u):
        while u in parent:
            up = parent[u]
            if up in parent:  # path halving
                up = parent[u] = parent[up]
            u = up
        return u

    for e in earlier:
        if v is e:
            return True
        budget -= 1
        parent = {v.uid: e.uid}  # uid -> uid of a node merged with it
        queue = deque([(v, e)])
        while queue:
            a, b = queue.popleft()
            if type(a) is not type(b):
                break
            if type(a) is IntValue:
                if a.value != b.value:
                    break
                continue
            if a.class_name != b.class_name or a.fields.keys() != b.fields.keys():
                break
            for f, x in a.fields.items():
                y = b.fields[f]
                rx, ry = find(x.uid), find(y.uid)
                if rx != ry:
                    budget -= 1
                    if budget < 0:
                        return None
                    parent[rx] = ry
                    queue.append((x, y))
        else:
            return True
        if budget < 0:
            return None
    return False


class _Distinct:
    """Sampled values, told apart up to bisimilarity: add(v) is False when
    v is bisimilar to a value added before.

    Bisimilar values reach the same integers, so v is compared only with
    the values whose set of integers equals its own, by the walks of
    _bisimilar_to_any.  The walks of one add get a budget linear in the
    size of v.  Once it runs out, this add and every later one compare
    canonical nodes instead, so an add never costs much more than
    canonicalizing v.  Until then nothing enters the intern table.
    """

    def __init__(self):
        self.by_ints = {}  # frozenset of integers -> the values added
        self.canon = None  # canonical uids of the values added, once used

    def add(self, v):
        if self.canon is None:
            nodes = subterm_closure(v)
            ints = frozenset(n.value for n in nodes if type(n) is IntValue)
            same = self.by_ints.setdefault(ints, [])
            dup = _bisimilar_to_any(v, same, 4 * len(nodes) + 16)
            if dup is not None:
                if not dup:
                    same.append(v)
                return not dup
            self.canon = {canonicalize(e).uid
                          for values in self.by_ints.values() for e in values}
        c = canonicalize(v).uid
        if c in self.canon:
            return False
        self.canon.add(c)
        return True


def sample_values(t, count, seed):
    """Up to `count` distinct members of t, deterministic for a seed.

    The canonical witness comes first, then a cyclic member when the type
    admits one, then random walks.  When t reaches no int and no union
    with two different inhabited sides, the sampler has no choice, and it
    returns the witness alone, since it could build nothing else.  Raises
    ValueError on an empty type.  Every emitted value is re-checked with
    member.
    """
    live = inhabited(t)
    if t.uid not in live:
        raise ValueError("cannot sample values of an empty type")
    if count <= 0:
        return []
    rng = random.Random(seed)
    wit = witnesses(live)
    out = []
    distinct = _Distinct()

    def emit(v):
        if v is not None and distinct.add(v):
            if not member(v, t):
                raise AssertionError("sampler produced a non-member")
            out.append(v)

    emit(wit(t))
    if len(out) == count:
        return out
    kids, fixed, on_cycle = _viable_graph(t, live)
    if t in fixed:
        return out
    emit(_forced_cyclic(t, kids, on_cycle, wit))
    # one step more than the inhabited closure lets a walk reach every
    # node of it, so deep leaves get random values too
    budget = max(WALK_BUDGET, len(live) + 1)
    attempts = 0
    while len(out) < count and attempts < 30 * count:
        attempts += 1
        emit(_random_walk(t, rng, kids, wit, budget, fixed))
    return out[:count]
