import os
import subprocess
import sys
import time

import pytest

from coinfer import interpretation, term_core
from coinfer.emptiness import inhabited, not_empty, witness
from coinfer.interpretation import member, sample_values
from coinfer.term_core import (
    BudgetExceeded,
    IntType,
    IntValue,
    ObjType,
    ObjValue,
    UnionType,
    canonicalize,
    print_type,
    print_value,
    subterm_closure,
    type_from_source,
    value_from_source,
)

from conftest import (
    CLASS_POOL,
    FIELD_POOL,
    chain,
    fan,
    inflate,
    member_oracle,
    number_types,
    random_type,
    random_value,
    seeded,
    trees_equal_oracle,
    union_tower,
)

NAT = "N = obj(zero, []) \\/ obj(succ, [pred: N]); root N"
BOT = "B = B \\/ B; root B"
VINF = "V = obj(succ, [pred -> V]); root V"


# Oracle: inductive membership for acyclic values.  A repeated
# value/type pair on the path means the type side looped through unions
# without consuming any value structure, which can never succeed.

def inductive_member(v, t, path=frozenset()):
    key = (v.uid, t.uid)
    if key in path:
        return False
    if isinstance(t, IntType):
        return isinstance(v, IntValue)
    if isinstance(t, UnionType):
        return (inductive_member(v, t.left, path | {key})
                or inductive_member(v, t.right, path | {key}))
    return (isinstance(v, ObjValue)
            and v.class_name == t.class_name
            and all(f in v.fields for f in t.fields)
            and all(inductive_member(v.fields[f], t.fields[f]) for f in t.fields))


def tree_value(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return IntValue(rng.randint(-5, 5))
    node = ObjValue(rng.choice(CLASS_POOL))
    names = rng.sample(FIELD_POOL, rng.randint(0, len(FIELD_POOL)))
    node.fields = dict(sorted((f, tree_value(rng, depth - 1)) for f in names))
    return node


def has_cycle(v):
    state = {}

    def walk(n):
        if state.get(n.uid) == "open":
            return True
        if n.uid in state:
            return False
        state[n.uid] = "open"
        kids = n.fields.values() if isinstance(n, ObjValue) else ()
        hit = any(walk(c) for c in kids)
        state[n.uid] = "done"
        return hit

    return walk(v)


# --- fixed examples ----------------------------------------------------------

def test_integer_in_int():
    assert member(IntValue(0), IntType())
    assert member(IntValue(-17), IntType())


def test_cyclic_value_in_recursive_type():
    vinf = value_from_source(VINF)
    nat = type_from_source(NAT)
    assert member(vinf, nat)


def test_nothing_in_bottom():
    bot = type_from_source(BOT)
    assert not member(IntValue(0), bot)
    assert not member(value_from_source(VINF), bot)
    for v in sample_values(type_from_source(NAT), 5, seed=1):
        assert not member(v, bot)


def test_any_integer_in_int_union_loop():
    t = type_from_source("T = int \\/ T; root T")
    for i in (-3, 0, 7, 123456):
        assert member(IntValue(i), t)


def test_value_may_have_extra_fields():
    v = value_from_source("V = obj(c, [f -> 1, g -> 2]); root V")
    t = type_from_source("T = obj(c, [f: int]); root T")
    assert member(v, t)


def test_class_names_must_match():
    v = value_from_source("V = obj(c, [f -> 1]); root V")
    t = type_from_source("T = obj(d, [f: int]); root T")
    assert not member(v, t)


def test_type_field_missing_from_value():
    v = value_from_source("V = obj(c, []); root V")
    t = type_from_source("T = obj(c, [f: int]); root T")
    assert not member(v, t)


def test_finite_value_needs_matching_depth():
    two = value_from_source(
        "V = obj(succ, [pred -> obj(succ, [pred -> obj(zero, [])])]); root V")
    nat = type_from_source(NAT)
    evn = type_from_source(
        "E = obj(zero, []) \\/ obj(succ, [pred: obj(succ, [pred: E])]); root E")
    assert member(two, nat)
    assert member(two, evn)
    one = value_from_source("V = obj(succ, [pred -> obj(zero, [])]); root V")
    assert member(one, nat)
    assert not member(one, evn)


def doubled_cycle(n):
    """n values obj(a, [f -> next, g -> next]) closed into one cycle."""
    nodes = [ObjValue("a") for _ in range(n)]
    for i, node in enumerate(nodes):
        node.fields = {"f": nodes[(i + 1) % n], "g": nodes[(i + 1) % n]}
    return nodes[0]


DOUBLED = "T = obj(a, [f: T, g: T]); root T"


@pytest.mark.parametrize("n", [20, 200])
def test_member_on_shared_cycles_is_fast(n):
    # each node reaches the next one by two fields: a search that
    # re-derives path-dependent judgments doubles its work per node
    v, t = doubled_cycle(n), type_from_source(DOUBLED)
    start = time.perf_counter()
    assert member(v, t)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "doubled cycle %d took %.2fs" % (n, elapsed)


def test_member_budget_raises():
    with pytest.raises(BudgetExceeded):
        member(value_from_source(VINF), type_from_source(NAT), limit=1)


def follow(t, rng, union_steps=8):
    """A value shaped by type t: random union sides, random integers, and
    object values shared per object type node, so a cyclic type gives a
    cyclic value.  Usually a member; not always, since a union side may
    lead into an empty part."""
    made = {}

    def build(node):
        steps = 0
        while isinstance(node, UnionType) and steps < union_steps:
            node = rng.choice((node.left, node.right))
            steps += 1
        if isinstance(node, IntType):
            return IntValue(rng.randint(-2, 2))
        if isinstance(node, UnionType):
            return IntValue(0)
        if node.uid in made and rng.random() < 0.8:
            return made[node.uid]
        val = made[node.uid] = ObjValue(node.class_name)
        val.fields = {f: build(c) for f, c in node.fields.items()}
        return val

    return build(t)


def tricky_type(rng):
    """A random cyclic type, often under unions of unions that hold a
    union-only cycle to it, an empty union-only cycle and an object with
    no fields."""
    t = random_type(rng, rng.randint(1, 8))
    if rng.random() < 0.5:
        loop, empty = UnionType(), UnionType()
        loop.left, loop.right = loop, t
        empty.left = empty.right = empty
        t = UnionType(UnionType(empty, loop), ObjType(rng.choice(CLASS_POOL), {}))
    return t


FIXPOINT = interpretation._member_fixpoint


def count_handovers(monkeypatch):
    """The calls member hands to the fixpoint from now on."""
    calls = []

    def counting(*args):
        calls.append(args)
        return FIXPOINT(*args)

    monkeypatch.setattr(interpretation, "_member_fixpoint", counting)
    return calls


def test_member_agrees_with_fixpoint_oracle(monkeypatch):
    handed = count_handovers(monkeypatch)
    rng = seeded(2024)
    calls = members = cyclic = 0
    for _ in range(700):
        t = tricky_type(rng)
        values = [random_value(rng, rng.randint(1, 6), max_int=2), follow(t, rng)]
        values.append(mutated(values[-1], rng))
        w = witness(t)
        if w is not None:
            values += [w, inflate(w, rng)]
        for v in values:
            expect = member_oracle(v, t)
            assert member(v, t) == expect == FIXPOINT(v, t), (print_type(t), print_value(v))
            calls += 1
            members += expect
            cyclic += expect and has_cycle(v)
    assert members > 1000 and cyclic > 200
    assert 100 < len(handed) < calls - 2000  # both the walk and the fixpoint answer


# --- where the walk hands over to the fixpoint ---------------------------------

# a union deep in the value: the walk follows n s-objects to the end's x
LONG = ("L = obj(s, [n: L]) \\/ obj(end, [x: U]);"
        " U = obj(c, [p: int]) \\/ obj(c, [q: int]) \\/ obj(c, [p: int, q: int]); root L")


def long_value(n, tail):
    chain = "".join("V%d = obj(s, [n -> V%d]); " % (i, i + 1) for i in range(n))
    return value_from_source(chain + "V%d = obj(end, [x -> %s]); root V0" % (n, tail))


@pytest.mark.parametrize("tail, verdict, handed", [
    ("obj(c, [q -> 2])", True, False),                         # one alternative fits
    ("obj(c, [r -> 2])", False, False),                        # none fits
    ("obj(c, [p -> 1, q -> 2])", True, True),                  # all three fit
    ("obj(c, [p -> 1, q -> obj(d, [])])", True, True),         # three fit, one holds
    ("obj(c, [p -> obj(d, []), q -> obj(d, [])])", False, True),  # three fit, none holds
    ("obj(c, [p -> obj(c, []), r -> 1])", False, False),       # the one that fits fails below
])
def test_union_deep_in_a_long_value(monkeypatch, tail, verdict, handed):
    calls = count_handovers(monkeypatch)
    t = type_from_source(LONG)
    for n in (0, 3, 100):
        v = long_value(n, tail)
        assert member(v, t) == verdict == member_oracle(v, t) == FIXPOINT(v, t)
    v = long_value(5000, tail)  # the oracle is quadratic here
    assert member(v, t) == verdict == FIXPOINT(v, t)
    assert bool(calls) == handed


@pytest.mark.parametrize("value, verdict, handed", [
    ("obj(c, [p -> 1])", True, False),
    ("obj(c, [q -> 1])", False, False),
    ("obj(c, [p -> 1, q -> obj(e, [])])", True, True),
    ("obj(c, [p -> obj(e, []), r -> 1])", False, True),  # fits [p] and [p, r], both fail
    ("obj(c, [])", False, False),
    ("obj(d, [p -> 1])", False, False),
])
def test_same_class_alternatives_with_different_fields(monkeypatch, value, verdict, handed):
    calls = count_handovers(monkeypatch)
    t = type_from_source(
        "T = obj(c, [p: int]) \\/ obj(c, [q: obj(e, [])]) \\/ obj(c, [p: int, r: int]); root T")
    v = value_from_source("V = %s; root V" % value)
    assert member(v, t) == verdict == member_oracle(v, t) == FIXPOINT(v, t)
    assert bool(calls) == handed


def test_bisimilar_duplicate_alternatives(monkeypatch):
    # a type joined with its inflated copy offers each alternative twice,
    # as two bisimilar nodes, so a member fits both
    calls = count_handovers(monkeypatch)
    rng = seeded(20)
    for name, t in number_types().items():
        twice, wide = UnionType(t, inflate(t, rng)), inflate(t, rng)
        values = [v for v in (witness(t), follow(t, rng), follow(wide, rng)) if v is not None]
        values += [mutated(v, rng) for v in values]
        for v in values + [inflate(v, rng) for v in values]:
            expect = member_oracle(v, t)
            assert member(v, twice) == expect == FIXPOINT(v, twice), name
            assert member(v, wide) == expect == FIXPOINT(v, wide), name
    assert len(calls) > 20
    calls.clear()
    assert member(ObjValue("a"), UnionType(ObjType("a"), ObjType("a"))) and len(calls) == 1


def pairs_needed(v, t):
    """The least limit under which the fixpoint decides v ∈ t."""
    low, high = 0, 1
    while True:
        try:
            FIXPOINT(v, t, limit=high)
            break
        except BudgetExceeded:
            low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            FIXPOINT(v, t, limit=mid)
            high = mid
        except BudgetExceeded:
            low = mid
    return high


def test_member_budget_at_the_pairs_examined():
    nat, t = type_from_source(NAT), type_from_source(LONG)
    cases = [(long_value(n, tail), t) for n in (0, 40)
             for tail in ("obj(c, [q -> 2])", "obj(c, [p -> 1, q -> 2])")]
    cases += [(sample, nat) for sample in sample_values(nat, 4, seed=3)]
    cases += [(doubled_cycle(30), type_from_source(DOUBLED))]
    for v, t in cases:
        n = pairs_needed(v, t)
        with pytest.raises(BudgetExceeded):
            member(v, t, limit=n - 1)
        assert member(v, t, limit=n) and member(v, t, limit=n + 1)


# --- sampling ----------------------------------------------------------------

def test_sample_int_gives_distinct_integers():
    vals = sample_values(IntType(), 3, seed=11)
    assert len(vals) == 3
    assert len({v.value for v in vals}) == 3


def test_sample_nat_includes_zero_object():
    vals = sample_values(type_from_source(NAT), 3, seed=7)
    zero = ObjValue("zero")
    assert any(canonicalize(v) is canonicalize(zero) for v in vals)


def test_sample_includes_cyclic_value_when_admitted():
    nat = type_from_source(NAT)
    vals = sample_values(nat, 10, seed=3)
    vinf = value_from_source(VINF)
    cyclic = [v for v in vals if has_cycle(v)]
    assert cyclic
    assert all(canonicalize(v) is canonicalize(vinf) for v in cyclic)


def test_sample_on_empty_type_rejected():
    with pytest.raises(ValueError):
        sample_values(type_from_source(BOT), 3, seed=1)


def test_sample_deterministic_per_seed():
    t = type_from_source(NAT)
    a = [canonicalize(v).uid for v in sample_values(t, 8, seed=42)]
    b = [canonicalize(v).uid for v in sample_values(t, 8, seed=42)]
    assert a == b


def test_sample_finite_type_returns_fewer():
    t = type_from_source("T = obj(zero, []); root T")
    vals = sample_values(t, 5, seed=2)
    assert len(vals) == 1


@pytest.mark.parametrize("shape, n", [(fan, 60), (union_tower, 60), (union_tower, 1500)])
def test_sample_reaches_past_sixty_nodes(shape, n):
    # the int sits under n objects or unions: a walk must get that deep
    # to draw a random integer instead of falling back to the witness,
    # and at 1500 it must not recurse
    t = shape(n)
    vals = sample_values(t, 3, seed=0)
    assert len({canonicalize(v).uid for v in vals}) == 3
    assert all(member(v, t) for v in vals)


def test_samples_all_members():
    rng = seeded(888)
    produced = 0
    for _ in range(120):
        t = random_type(rng, rng.randint(1, 8))
        if not not_empty(t):
            continue
        for v in sample_values(t, 5, seed=rng.randint(0, 10**6)):
            produced += 1
            assert member(v, t)
    assert produced > 100


_NON_MEMBER_SCRIPT = """
from coinfer import interpretation
from coinfer.term_core import type_from_source
interpretation.member = lambda v, t: False
try:
    interpretation.sample_values(type_from_source("T = int; root T"), 2, 0)
except AssertionError as exc:
    print(exc)
"""


def test_sampler_recheck_holds_under_python_O():
    # the member re-check is no assert statement, which -O would remove
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(interpretation.__file__)))
    out = subprocess.run([sys.executable, "-O", "-c", _NON_MEMBER_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "sampler produced a non-member"


# --- properties ---------------------------------------------------------------

def test_witness_always_member():
    rng = seeded(999)
    for _ in range(400):
        t = random_type(rng, rng.randint(1, 10))
        w = witness(t)
        if w is not None:
            assert member(w, t)


def test_union_membership_splits():
    rng = seeded(123)
    for _ in range(250):
        t1 = random_type(rng, rng.randint(1, 5))
        t2 = random_type(rng, rng.randint(1, 5))
        u = UnionType(t1, t2)
        v = tree_value(rng, 3)
        assert member(v, u) == (member(v, t1) or member(v, t2))


def test_member_invariant_under_canonicalize():
    rng = seeded(321)
    for _ in range(250):
        t = random_type(rng, rng.randint(1, 8))
        v = random_value(rng, rng.randint(1, 6))
        assert member(v, t) == member(canonicalize(v), canonicalize(t))


def test_acyclic_agreement_with_inductive_oracle():
    rng = seeded(777)
    for _ in range(500):
        t = random_type(rng, rng.randint(1, 8))
        v = tree_value(rng, 3)
        assert member(v, t) == inductive_member(v, t)


def test_sample_long_chain_is_fast():
    # the cyclic-member search makes one SCC pass, not one BFS per node
    t = chain(3000)
    start = time.perf_counter()
    vals = sample_values(t, 3, seed=0)
    elapsed = time.perf_counter() - start
    assert len({canonicalize(v).uid for v in vals}) == 3
    assert elapsed < 1.0, "chain 3000 took %.2fs" % elapsed


# --- types the sampler can build only one value of ---------------------------

def cyclic_chain(n, with_int=False):
    """n objects whose f fields close one cycle; with_int adds g: int."""
    nodes = [ObjType("a") for _ in range(n)]
    for i, node in enumerate(nodes):
        node.fields = {"f": nodes[(i + 1) % n]}
        if with_int:
            node.fields["g"] = IntType()
    return nodes[0]


@pytest.mark.parametrize("make", [
    lambda: cyclic_chain(150),
    lambda: type_from_source("T = obj(zero, []); root T"),
    lambda: inflate(type_from_source("T = obj(zero, []); root T"), seeded(5)),
    lambda: inflate(cyclic_chain(20), seeded(6)),
    lambda: type_from_source("B = B \\/ B; T = obj(c, [f: B \\/ obj(z, [])]); root T"),
], ids=["cyclic_chain_150", "zero", "zero_inflated", "cyclic_chain_inflated",
        "union_one_empty_side"])
def test_one_value_shapes_return_the_witness(make):
    t = make()
    vals = sample_values(t, 5, seed=3)
    assert [print_value(v) for v in vals] == [print_value(witness(t))]


def test_long_cyclic_chain_returns_the_witness_fast():
    t = cyclic_chain(3000)
    start = time.perf_counter()
    vals = sample_values(t, 3, seed=0)
    elapsed = time.perf_counter() - start
    assert len(vals) == 1 and canonicalize(vals[0]) is canonicalize(witness(t))
    assert elapsed < 1.0, "cyclic chain 3000 took %.2fs" % elapsed


@pytest.mark.parametrize("source, count", [
    (NAT, 3),
    ("T = obj(a, []) \\/ obj(b, []); root T", 2),
    ("T = obj(a, [f: int]); root T", 3),
])
def test_a_choice_still_draws_more_values(source, count):
    t = type_from_source(source)
    vals = sample_values(t, count, seed=1)
    assert len({canonicalize(v).uid for v in vals}) == count
    assert all(member(v, t) for v in vals)


def test_walks_spend_no_budget_where_there_is_no_choice():
    # from the inhabitation workload, seed 819, operation 148: the f field
    # and the N4 loop under g hold one value each; a walk that spent steps
    # unfolding them would run out before the union under g or the int
    # under h, and every walk would repeat the witness
    t = type_from_source("""
        N0 = obj(b, [f: N6, g: N2, h: N1]);
        N6 = obj(c, [g: N7, h: N7]);
        N2 = obj(b, [f: N4, g: N3, h: N4]);
        N1 = int;
        N7 = obj(a, [h: N4]);
        N4 = obj(c, [f: N4, g: N5]);
        N3 = N8 \\/ N9;
        N5 = obj(c, [g: N10, h: N4]);
        N8 = obj(b, [g: N10]);
        N9 = obj(b, [f: N9]);
        N10 = obj(a, []);
        root N0;""")
    vals = sample_values(t, 3, 715)
    assert len(vals) == 3
    assert all(member_oracle(v, t) for v in vals)
    assert not any(trees_equal_oracle(a, b) for i, a in enumerate(vals) for b in vals[:i])


def test_forced_cyclic_member_on_a_long_cycle_does_not_recurse():
    # the int leaves the sampler a choice, so the cyclic member is built
    t = cyclic_chain(1500, with_int=True)
    vals = sample_values(t, 3, seed=0)
    assert len({canonicalize(v).uid for v in vals}) == 3
    assert all(member(v, t) for v in vals)


# --- the sampler's one pass over the viable graph -------------------------------

def viable_oracle(t, live):
    """By brute force, one depth-first walk per node along viable edges (a
    union's inhabited sides, an object's fields): the uids of the nodes t
    reaches, of those that reach no int and no union whose two inhabited
    sides are different nodes, and of the objects that reach themselves."""
    def edges(n):
        if type(n) is UnionType:
            return [c for c in (n.left, n.right) if c.uid in live]
        return list(n.fields.values()) if type(n) is ObjType else []

    def reached(starts):
        seen, todo = {}, list(starts)
        while todo:
            n = todo.pop()
            if n.uid not in seen:
                seen[n.uid] = n
                todo += edges(n)
        return seen

    nodes = reached([t])
    fixed = {u for u, n in nodes.items()
             if not any(type(m) is IntType or type(m) is UnionType
                        and len({c.uid for c in edges(m)}) == 2
                        for m in reached([n]).values())}
    cyclic = {u for u, n in nodes.items() if type(n) is ObjType and u in reached(edges(n))}
    return set(nodes), fixed, cyclic


def viable_shapes():
    rng = seeded(31)
    yield from (random_type(rng, rng.randint(2, 12)) for _ in range(400))
    yield from (inflate(random_type(rng, rng.randint(2, 8)), rng) for _ in range(100))
    yield from (fan(12), cyclic_chain(10), cyclic_chain(10, with_int=True), union_tower(10))
    yield from (inflate(shape, rng) for shape in (fan(6), cyclic_chain(5), union_tower(5)))


def test_viable_graph_agrees_with_brute_force():
    cycles = 0
    for t in viable_shapes():
        live = inhabited(t)
        if t.uid not in live:
            continue
        nodes, fixed, cyclic = viable_oracle(t, live)
        kids, got_fixed, on_cycle = interpretation._viable_graph(t, live)
        assert {n.uid for n in kids} == nodes
        assert {n.uid for n in got_fixed} == fixed
        assert sorted(n.uid for n in on_cycle) == sorted(cyclic)
        route = interpretation._find_obj_cycle(t, kids, on_cycle)
        if not cyclic:
            assert route is None
            continue
        cycles += 1
        assert route[0] is t and route[-1].uid == min(cyclic)
        assert route[-1] in route[:-1]
        assert all(b in kids[a] for a, b in zip(route, route[1:]))
    assert cycles > 50


def test_a_union_of_one_node_twice_is_no_choice():
    # N7 = N4 \/ N4 offers the walks nothing to choose: the N4..N7 cycle
    # takes its witness at no cost, so the walks reach the root's int field
    # instead of spending their budget there and always taking h -> 0
    t = type_from_source(
        "N0 = obj(b, [f: N3, g: N2, h: N1]); N1 = int; N2 = obj(b, [g: N2, h: N4]);"
        " N3 = obj(c, [h: N5]); N4 = obj(c, [f: N6, h: N7]); N5 = obj(c, [f: N6, h: N7]);"
        " N6 = obj(a, [h: N7]); N7 = N4 \\/ N4; root N0;")
    live = inhabited(t)
    kids, fixed, _ = interpretation._viable_graph(t, live)
    assert kids.keys() - fixed == {t, t.fields["h"]}
    for seed in range(5):
        assert len(sample_values(t, 3, seed)) == 3


def test_sample_values_walks_the_viable_graph_once(monkeypatch):
    calls = []
    components = interpretation._components

    def counting(*args):
        calls.append(args)
        return components(*args)

    monkeypatch.setattr(interpretation, "_components", counting)
    for t in viable_shapes():
        if not_empty(t):
            del calls[:]
            sample_values(t, 3, seed=2)
            assert len(calls) <= 1


# --- telling sampled values apart ---------------------------------------------

def mutated(v, rng):
    """A copy of value v with one node changed: an integer moved by one, a
    class renamed or a field dropped."""
    c = inflate(v, rng, copies=1)
    n = rng.choice(subterm_closure(c))
    if isinstance(n, IntValue):
        n.value += 1
    elif n.fields and rng.random() < 0.5:
        del n.fields[rng.choice(sorted(n.fields))]
    else:
        n.class_name += "x"
    return c


def test_walk_agrees_with_oracle_and_canonicalize():
    rng = seeded(4711)
    bisimilar = 0
    for _ in range(300):
        a = random_value(rng, rng.randint(1, 9), max_int=2)
        others = [inflate(a, rng), mutated(a, rng), random_value(rng, rng.randint(1, 9), max_int=2)]
        for b in others:
            same = trees_equal_oracle(a, b)
            bisimilar += same
            assert (canonicalize(a) is canonicalize(b)) == same
            assert interpretation._bisimilar_to_any(a, [b], 10**6) is same
            assert interpretation._bisimilar_to_any(b, others, 10**6) is True
            seen = interpretation._Distinct()
            assert seen.add(b)
            assert seen.add(a) is not same
            assert not seen.add(inflate(a, rng))
    assert bisimilar > 300  # every inflated copy, and some other pairs


def _sample_texts(t, count):
    return [print_value(v) for v in sample_values(t, count, seed=count)]


# count -> (fixed shapes, number of random types).  Shapes whose values
# are long are left out where both paths together take seconds.
FALLBACK_CASES = {
    3: (("nat", "pos", "evn", "odd", "zer", "fan 20", "fan 40", "fan 58", "fan 150",
         "tower 48", "tower 1500", "chain 3000"), 300),
    10: (("nat", "pos", "evn", "odd", "zer", "fan 20", "fan 40", "fan 58", "fan 150",
          "tower 48", "tower 1500"), 60),
    100: (("nat", "odd", "fan 20", "fan 58", "tower 48"), 3),
}


def _shape(name):
    kind, _, n = name.partition(" ")
    if not n:
        return number_types()[name]
    return {"fan": fan, "tower": union_tower, "chain": chain}[kind](int(n))


@pytest.mark.parametrize("count", sorted(FALLBACK_CASES))
def test_canonical_fallback_gives_the_same_samples(count, monkeypatch):
    # the canonical uids that take over when the walks run out of steps
    # keep the same values as the walks would
    names, randoms = FALLBACK_CASES[count]
    cases = [(name, _shape(name)) for name in names]
    rng = seeded(5150)
    while len(cases) < len(names) + randoms:
        t = random_type(rng, rng.randint(1, 10))
        if not_empty(t):
            cases.append(("random %d" % len(cases), t))
    walked = {name: _sample_texts(t, count) for name, t in cases}
    walk = interpretation._bisimilar_to_any
    for first_out in (0, 3):  # out of steps from the first add, or from the fourth on
        calls = []

        def give_up(v, earlier, budget):
            calls.append(v)
            return None if len(calls) > first_out else walk(v, earlier, budget)

        monkeypatch.setattr(interpretation, "_bisimilar_to_any", give_up)
        for name, t in cases:
            del calls[:]
            assert _sample_texts(t, count) == walked[name], (name, first_out)


@pytest.mark.parametrize("name", ["zer", "nat", "pos", "evn", "odd", "fan 40"])
def test_sampling_leaves_the_intern_table_alone(name):
    t = _shape(name)
    before = (len(term_core._canonical), len(term_core._canonical_uids))
    for seed in range(5):
        assert sample_values(t, 3, seed)
    assert (len(term_core._canonical), len(term_core._canonical_uids)) == before
