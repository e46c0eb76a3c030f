import pytest

from coinfer.emptiness import not_empty, not_empty_with_stats, witness
from coinfer.interpretation import member
from coinfer.term_core import (
    IntType,
    IntValue,
    ObjType,
    ObjValue,
    UnionType,
    subterm_closure,
    type_from_source,
)

from conftest import member_oracle, random_type, seeded

NAT = "N = obj(zero, []) \\/ obj(succ, [pred: N]); root N"
BOT = "B = B \\/ B; root B"


# --- independent oracles ---------------------------------------------------
#
# Oracle 1: two nested fixpoints over the node set.  A node is inhabited
# iff it reaches int or a knot through finitely many union steps (inner
# least fixpoint) where object nodes require all fields inhabited in the
# previous outer round (greatest fixpoint).
#
# Oracle 2: exhaustive witness search that builds a value graph directly,
# tying a knot whenever it revisits a node with an object pending below.

def fixpoint_nonempty(t):
    nodes = list(subterm_closure(t))
    z = {n.uid for n in nodes}
    while True:
        y = set()
        while True:
            grown = False
            for n in nodes:
                if n.uid in y:
                    continue
                if isinstance(n, IntType):
                    ok = True
                elif isinstance(n, UnionType):
                    ok = n.left.uid in y or n.right.uid in y
                else:
                    ok = all(f.uid in z for f in n.fields.values())
                if ok:
                    y.add(n.uid)
                    grown = True
            if not grown:
                break
        if y == z:
            return t.uid in z
        z = y


def search_witness(t, max_objs=None):
    """Depth-first witness construction, exponential but exhaustive."""
    if max_objs is None:
        max_objs = 2 * len(subterm_closure(t))
    pos = {}
    objs = []  # (position, pending ObjValue)

    def go(node):
        if node.uid in pos:
            back = pos[node.uid]
            # unions pass values through unchanged, so the value at the
            # cycle target is the first pending object at or after it
            for p, pending in objs:
                if p >= back:
                    return pending
            return None
        if isinstance(node, IntType):
            return IntValue(0)
        here = len(pos)
        pos[node.uid] = here
        try:
            if isinstance(node, UnionType):
                got = go(node.left)
                if got is None:
                    got = go(node.right)
                return got
            if len(objs) >= max_objs:
                return None
            pending = ObjValue(node.class_name)
            pending.fields = {}
            objs.append((here, pending))
            for f in sorted(node.fields):
                got = go(node.fields[f])
                if got is None:
                    objs.pop()
                    return None
                pending.fields[f] = got
            objs.pop()
            return pending
        finally:
            del pos[node.uid]

    return go(t)


# --- fixed examples --------------------------------------------------------

def test_int_nonempty():
    assert not_empty(IntType())


def test_bottom_empty():
    bot = type_from_source(BOT)
    assert not not_empty(bot)
    assert witness(bot) is None


def test_object_with_empty_field_is_empty():
    t = type_from_source(
        "X = obj(c1, [f: obj(c2, [g: B])]); B = B \\/ B; root X")
    assert not not_empty(t)


def test_nat_nonempty_with_finite_witness():
    nat = type_from_source(NAT)
    assert fixpoint_nonempty(nat)
    assert search_witness(nat) is not None
    assert not_empty(nat)
    w = witness(nat)
    assert w is not None


def test_all_cyclic_obj_nonempty():
    t = type_from_source("T = obj(succ, [pred: T]); root T")
    assert fixpoint_nonempty(t)
    assert search_witness(t) is not None
    assert not_empty(t)
    w = witness(t)
    assert isinstance(w, ObjValue)
    # the only witness is the cyclic value: follow pred far enough to loop
    seen = set()
    cur = w
    while cur.uid not in seen:
        seen.add(cur.uid)
        cur = cur.fields["pred"]
    assert isinstance(cur, ObjValue)


def test_empty_field_among_nonempty_ones():
    # true through one branch of a union must not leak past a failing field
    t = type_from_source(
        "A = obj(c, [f: D, g: B]); D = A \\/ A; B = B \\/ B; root A")
    assert not fixpoint_nonempty(t)
    assert not not_empty(t)
    d = t.fields["f"]
    assert not not_empty(d)


def test_true_through_memoized_union_member():
    t = type_from_source("V = U \\/ V; U = V \\/ int; root V")
    assert fixpoint_nonempty(t)
    assert not_empty(t)
    assert isinstance(witness(t), IntValue)


def test_nested_unions_of_bottom():
    t = type_from_source(
        "A = B \\/ C; B = C \\/ C; C = A \\/ B; root A")
    assert not fixpoint_nonempty(t)
    assert not not_empty(t)


def test_witness_is_deep_when_needed():
    # third successor of zero, reachable only through two pred hops
    t = type_from_source(
        "T = obj(succ, [pred: obj(succ, [pred: obj(zero, [])])]); root T")
    w = witness(t)
    assert w.fields["pred"].fields["pred"].class_name == "zero"


# --- witnesses read off the inhabited set ----------------------------------

def test_witness_of_a_union_cycle_takes_the_lower_rank():
    # U and W reach int and the object only through each other; each
    # takes its side of rank 0, never the union-only cycle
    source = "U = W \\/ int; W = U \\/ obj(a, []); root %s"
    u = type_from_source(source % "U")
    w = type_from_source(source % "W")
    assert isinstance(witness(u), IntValue) and member_oracle(witness(u), u)
    assert witness(w).class_name == "a" and member_oracle(witness(w), w)


def test_witness_of_large_ring_and_union_tower():
    n = 100_000
    nodes = [ObjType("a") for _ in range(n)]
    for i, node in enumerate(nodes):
        node.fields = {"f": nodes[i + 1] if i + 1 < n else nodes[0]}
    w = witness(nodes[0])
    assert member_oracle(w, nodes[0])
    for n in (500, 100_000):
        tower = IntType()
        for _ in range(n):
            tower = UnionType(tower, tower)
        w = witness(tower)
        assert isinstance(w, IntValue) and member(w, tower)
        if n == 500:  # the oracle's plain iteration climbs one union a round
            assert member_oracle(w, tower)


# --- randomized agreement ----------------------------------------------------

def test_agrees_with_fixpoint_oracle():
    rng = seeded(555)
    for _ in range(1500):
        t = random_type(rng, rng.randint(1, 12))
        assert not_empty(t) == fixpoint_nonempty(t)


def test_agrees_with_witness_search():
    rng = seeded(556)
    for _ in range(600):
        t = random_type(rng, rng.randint(1, 12))
        found = search_witness(t) is not None
        assert not_empty(t) == found


def test_witness_presence_matches_verdict():
    rng = seeded(557)
    for _ in range(500):
        t = random_type(rng, rng.randint(1, 10))
        assert (witness(t) is not None) == not_empty(t)


def test_visit_counts_linear_on_chains():
    # obj chain: n nodes, n edges (last node loops to itself)
    prev = None
    for n in (100, 1000):
        nodes = [ObjType("a") for _ in range(n)]
        for i, node in enumerate(nodes):
            node.fields = {"f": nodes[i + 1] if i + 1 < n else nodes[0]}
        ok, visits = not_empty_with_stats(nodes[0])
        assert ok
        assert visits <= 4 * n
    # union chain ending in int
    for n in (100, 1000):
        tail = IntType()
        cur = tail
        for _ in range(n):
            cur = UnionType(cur, cur)
        ok, visits = not_empty_with_stats(cur)
        assert ok
        assert visits <= 4 * (2 * n)
