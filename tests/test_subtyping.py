import pytest

from coinfer.emptiness import not_empty
from coinfer.interpretation import member, sample_values
import coinfer.subtyping as subtyping
from coinfer.subtyping import (
    BackEdge,
    Derivation,
    DerivationNode,
    _Engine,
    derive,
    equivalent,
    subtype,
)
from coinfer.term_core import (
    BudgetExceeded,
    IntType,
    ObjType,
    UnionType,
    canonicalize,
    subterm_closure,
    type_from_source,
    union_alternatives,
)

from conftest import (
    inflate,
    number_types,
    random_connected_type,
    random_type,
    seeded,
    subtype_oracle,
)

BOT = "B = B \\/ B; root B"


def bot():
    return type_from_source(BOT)


# --- derivation validity oracle ---------------------------------------------
#
# Checks that every node of a trace instantiates one of the rules and
# that every back-edge's cycle contains a rule other than the two
# right-union expansions.

NONCONTRACTIVE = {"∨R1", "∨R2"}


def first_union_field(l):
    for f in sorted(l.fields):
        if isinstance(l.fields[f], UnionType):
            return f
    return None


def expected_premises(node):
    l, r, rule = node.left, node.right, node.rule
    if rule == "int":
        assert isinstance(l, IntType) and isinstance(r, IntType)
        return []
    if rule == "empty":
        assert not isinstance(l, UnionType)
        assert not not_empty(l)
        return []
    if rule == "∨L":
        assert isinstance(l, UnionType)
        return [(l.left, r), (l.right, r)]
    if rule == "∨R1":
        assert isinstance(r, UnionType)
        return [(l, r.left)]
    if rule == "∨R2":
        assert isinstance(r, UnionType)
        return [(l, r.right)]
    if rule == "obj":
        assert isinstance(l, ObjType) and isinstance(r, ObjType)
        assert l.class_name == r.class_name
        assert set(r.fields) <= set(l.fields)
        return [(l.fields[f], r.fields[f]) for f in sorted(r.fields)]
    if rule == "distr":
        assert isinstance(l, ObjType)
        f = first_union_field(l)
        assert f is not None
        return [("variant", l, f, branch, r)
                for branch in (l.fields[f].left, l.fields[f].right)]
    raise AssertionError("unknown rule %r" % rule)


def check_trace(d):
    assert isinstance(d, Derivation)
    seen = set()

    def walk(node):
        if node.uid in seen:
            return
        seen.add(node.uid)
        exp = expected_premises(node)
        assert len(exp) == len(node.children)
        for want, child in zip(exp, node.children):
            got = child.target if isinstance(child, BackEdge) else child
            assert isinstance(got, DerivationNode)
            if isinstance(want, tuple) and want and want[0] == "variant":
                _, l, f, branch, r = want
                assert isinstance(got.left, ObjType)
                assert got.left.class_name == l.class_name
                assert set(got.left.fields) == set(l.fields)
                assert got.left.fields[f].uid == branch.uid
                for other in l.fields:
                    if other != f:
                        assert got.left.fields[other].uid == l.fields[other].uid
                assert got.right.uid == r.uid
            else:
                assert got.left.uid == want[0].uid
                assert got.right.uid == want[1].uid
            if isinstance(child, BackEdge):
                assert child.labels, "back-edge with no cycle labels"
                assert not child.labels <= NONCONTRACTIVE
            else:
                walk(child)

    walk(d.root)


# --- fixed judgments ----------------------------------------------------------

def test_int_subtype_int():
    assert subtype(IntType(), IntType())


def test_int_not_subtype_bottom():
    assert not subtype(IntType(), bot())


def test_bottom_below_everything():
    rng = seeded(2024)
    for _ in range(100):
        assert subtype(bot(), random_type(rng, rng.randint(1, 10)))


def test_object_with_empty_field_below_bottom():
    t = type_from_source("X = obj(c, [f1: B, f2: int]); B = B \\/ B; root X")
    assert subtype(t, bot())
    assert subtype_oracle(t, bot())


def test_nested_empty_object_requires_empty_rule():
    t = type_from_source("X = obj(c1, [f: obj(c2, [g: B])]); B = B \\/ B; root X")
    assert subtype(t, bot())
    assert subtype_oracle(t, bot())
    d = derive(t, bot())
    labels = set()

    def collect(node, acc):
        if node.uid in acc:
            return
        acc.add(node.uid)
        labels.add(node.rule)
        for c in node.children:
            if not isinstance(c, BackEdge):
                collect(c, acc)

    collect(d.root, set())
    assert "empty" in labels


def test_two_succ_of_odd_below_odd():
    types = number_types()
    odd = types["odd"]
    succ2 = type_from_source(
        "S = obj(succ, [pred: obj(succ, [pred: Odd])]);"
        "Odd = obj(succ, [pred: Zer]) \\/ obj(succ, [pred: obj(succ, [pred: Odd])]);"
        "Zer = obj(zero, []); root S")
    assert subtype(succ2, odd)


def test_int_union_loop_collapses_to_int():
    t = type_from_source("T = int \\/ T; root T")
    assert subtype(t, IntType())
    assert subtype(IntType(), t)


def test_nat_not_below_evn():
    types = number_types()
    assert not subtype(types["nat"], types["evn"])


def test_distributivity_equivalence():
    a = type_from_source(
        "A = obj(c, [f: obj(x, []) \\/ int]); root A")
    b = type_from_source(
        "B = obj(c, [f: obj(x, [])]) \\/ obj(c, [f: int]); root B")
    assert subtype(a, b)
    assert subtype(b, a)
    assert subtype_oracle(a, b)
    assert subtype_oracle(b, a)


def test_number_tower():
    types = number_types()
    for small, big in [("pos", "nat"), ("evn", "nat"), ("odd", "nat"),
                       ("odd", "pos"), ("bot", "evn")]:
        assert subtype(types[small], types[big]), (small, big)
    for big, small in [("nat", "pos"), ("nat", "evn"), ("pos", "evn"),
                       ("evn", "odd"), ("odd", "evn")]:
        assert not subtype(types[big], types[small]), (big, small)


def test_equivalences():
    assert equivalent(bot(), type_from_source(
        "X = obj(c, [f1: B, f2: int]); B = B \\/ B; root X"))
    assert equivalent(IntType(), IntType())
    types = number_types()
    assert not equivalent(types["nat"], types["pos"])
    # evn \/ odd is below nat, but the converse containment (true
    # semantically) is not derivable: distribution only reaches fields
    # whose type is a union at the top level
    evn_or_odd = UnionType(types["evn"], types["odd"])
    assert subtype(evn_or_odd, types["nat"])
    assert not subtype(types["nat"], evn_or_odd)


def test_budget_is_an_error_not_false():
    types = number_types()
    with pytest.raises(BudgetExceeded):
        subtype(types["nat"], types["evn"], memo_limit=3)


def test_budget_admits_exactly_the_judgments_entered():
    # memo_limit=n passes for the n judgments the walk enters and n-1
    # raises; the total pins how many the walk enters on these pairs
    rng = seeded(4646)
    entered = held = 0
    for k in range(60):
        t1 = random_connected_type(rng, rng.randint(4, 10))
        t2 = inflate(t1, rng) if k % 2 else random_connected_type(rng, rng.randint(4, 10))
        n = len(_Engine(t1, t2, 10**6).verdict)
        verdict = _Engine(t1, t2, n).holds()
        with pytest.raises(BudgetExceeded):
            _Engine(t1, t2, n - 1)
        entered += n
        held += verdict
    assert (entered, held) == (1167, 31)


# --- derivation traces ---------------------------------------------------------

def test_trace_union_of_ints():
    t = type_from_source("T = int \\/ int; root T")
    d = derive(t, IntType())
    assert d is not None
    assert d.root.rule == "∨L"
    assert [c.rule for c in d.root.children] == ["int", "int"]
    check_trace(d)


def test_trace_absent_when_not_subtype():
    assert derive(IntType(), bot()) is None


def test_trace_bottom_below_int_cycles_on_union_left():
    d = derive(bot(), IntType())
    assert d is not None
    assert d.root.rule == "∨L"
    backs = [c for c in d.root.children if isinstance(c, BackEdge)]
    assert backs
    for b in backs:
        assert b.labels == {"∨L"}
    check_trace(d)


def test_traces_valid_on_random_pairs():
    rng = seeded(31337)
    produced = 0
    for _ in range(300):
        t1 = random_type(rng, rng.randint(1, 7))
        t2 = random_type(rng, rng.randint(1, 7))
        verdict = subtype(t1, t2)
        assert verdict == subtype_oracle(t1, t2)
        d = derive(t1, t2)
        assert (d is not None) == verdict
        if d is not None:
            check_trace(d)
            produced += 1
    assert produced > 40


def cyclic_union_field_pairs():
    """Random connected 11- to 14-node cyclic types, whose objects may
    hold several union-valued fields, each against a bisimilar copy."""
    rng = seeded(11)
    for _ in range(200):
        t = random_connected_type(rng, rng.randint(11, 14))
        yield t, inflate(t, rng)


def test_derive_within_subtype_budget_on_cyclic_union_fields():
    # a depth-first search for the derivation re-derives judgments whose
    # verdict depended on the path above them, and ran out of budget here
    held = 0
    for t, u in cyclic_union_field_pairs():
        if subtype(t, u, memo_limit=100_000):
            held += 1
            d = derive(t, u, memo_limit=100_000)
            assert d is not None
            check_trace(d)
    assert held > 100


def test_oracle_agrees_on_cyclic_union_fields():
    for t, u in cyclic_union_field_pairs():
        assert subtype(t, u, memo_limit=100_000) == subtype_oracle(t, u)


def test_every_judgment_lies_in_the_finite_judgment_space():
    # the termination argument: a judgment pairs a node of the right
    # root's closure with a node of the left root's closure or with a
    # distribution variant, an object of a left-closure object's class and
    # field names whose fields are all left-closure nodes
    rng = seeded(29)
    pairs = [(random_type(rng, rng.randint(1, 10)), random_type(rng, rng.randint(1, 10)))
             for _ in range(400)]
    pairs += [(u, t) for t, u in cyclic_union_field_pairs()]
    variants = 0
    for t1, t2 in pairs:
        engine = _Engine(t1, t2, 100_000)
        left = {n.uid for n in subterm_closure(canonicalize(t1))}
        right = {n.uid for n in subterm_closure(canonicalize(t2))}
        shapes = {(n.class_name, tuple(n.fields)) for n in subterm_closure(canonicalize(t1))
                  if isinstance(n, ObjType)}
        for l, r in engine.verdict:
            assert r.uid in right
            if l.uid not in left:
                variants += 1
                assert isinstance(l, ObjType)
                assert (l.class_name, tuple(l.fields)) in shapes
                assert all(f.uid in left for f in l.fields.values())
    assert variants > 100


def test_trace_serialization_shapes():
    d = derive(bot(), IntType())
    data = d.to_dict()
    assert data["root"] == 0
    assert isinstance(data["nodes"], list)
    kinds = {c["kind"] for n in data["nodes"] for c in n["children"]}
    assert "back" in kinds
    text = d.format_text()
    assert "cycle to" in text


# --- algebraic properties --------------------------------------------------------

def test_reflexivity_random():
    rng = seeded(404)
    for _ in range(400):
        t = random_type(rng, rng.randint(1, 10))
        assert subtype(t, t)


def test_join_laws_random():
    rng = seeded(405)
    for _ in range(200):
        t1 = random_type(rng, rng.randint(1, 6))
        t2 = random_type(rng, rng.randint(1, 6))
        u = UnionType(t1, t2)
        assert subtype(t1, u)
        assert subtype(t2, u)
        s = random_type(rng, rng.randint(1, 6))
        assert subtype(u, s) == (subtype(t1, s) and subtype(t2, s))


def test_empty_left_always_below():
    rng = seeded(406)
    checked = 0
    for _ in range(300):
        t1 = random_type(rng, rng.randint(1, 8))
        if not_empty(t1):
            continue
        t2 = random_type(rng, rng.randint(1, 8))
        assert subtype(t1, t2)
        checked += 1
    assert checked > 10


def test_width_subtyping_reduces_to_field():
    rng = seeded(407)
    for _ in range(150):
        s = random_type(rng, rng.randint(1, 5))
        s2 = random_type(rng, rng.randint(1, 5))
        u = random_type(rng, rng.randint(1, 5))
        wide = ObjType("c", {"f": s, "g": u})
        narrow = ObjType("c", {"f": s2})
        if not_empty(wide):
            assert subtype(wide, narrow) == subtype(s, s2)


def test_soundness_spot_check():
    rng = seeded(408)
    pairs = 0
    for _ in range(250):
        t1 = random_type(rng, rng.randint(1, 8))
        t2 = random_type(rng, rng.randint(1, 8))
        if not subtype(t1, t2) or not not_empty(t1):
            continue
        pairs += 1
        for v in sample_values(t1, 5, seed=rng.randint(0, 10**6)):
            assert member(v, t2)
    assert pairs > 20


def test_representation_independence():
    rng = seeded(409)
    for _ in range(100):
        t1 = random_type(rng, rng.randint(1, 6))
        t2 = random_type(rng, rng.randint(1, 6))
        v1 = subtype(t1, t2)
        assert subtype(inflate(t1, rng), inflate(t2, rng)) == v1
        assert subtype(canonicalize(t1), canonicalize(t2)) == v1


def test_transitivity_sampled_report():
    # transitivity is not asserted by the rule system; sample and report
    rng = seeded(410)
    counterexamples = []
    tried = 0
    for _ in range(400):
        a = random_type(rng, rng.randint(1, 5))
        b = random_type(rng, rng.randint(1, 5))
        c = random_type(rng, rng.randint(1, 5))
        if subtype(a, b) and subtype(b, c):
            tried += 1
            if not subtype(a, c):
                counterexamples.append((a, b, c))
    assert tried > 30
    if counterexamples:
        print("transitivity counterexamples found: %d of %d"
              % (len(counterexamples), tried))


def test_memo_reuse_across_branches_stays_sound():
    # the same judgment reached under two different paths must not leak
    # a context-dependent verdict through the cache
    t1 = type_from_source("V = U \\/ V; U = V \\/ int; root V")
    assert subtype(IntType(), t1)
    assert subtype(t1, IntType())
    t2 = type_from_source(
        "A = obj(c, [f: D, g: B]); D = A \\/ A; B = B \\/ B; root A")
    assert subtype(t2, bot())
    d2 = type_from_source("D2 = D2 \\/ D2; root D2")
    assert equivalent(t2, d2)
    for left, right in [(IntType(), t1), (t1, IntType()), (t2, bot()),
                        (t2, d2), (d2, t2)]:
        assert subtype_oracle(left, right)


# --- deciding a pair by its roots' union alternatives ------------------------

def test_engine_proves_reflexivity():
    # subtype settles t <= t and alternative-included pairs without the
    # engine because the engine derives a <= a for every node a
    rng = seeded(412)
    graphs = list(number_types().values())
    graphs += [random_type(rng, rng.randint(1, 10)) for _ in range(2000)]
    graphs += [random_connected_type(rng, rng.randint(4, 14)) for _ in range(1000)]
    for t in graphs:
        c = canonicalize(t)
        assert _Engine(c, c, 100_000).holds(), t


def union_of(items, rng):
    """The items joined by unions in a random nesting."""
    items = list(items)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i:i + 2] = [UnionType(items[i], items[i + 1])]
    return items[0]


def with_field_changed(t, rng):
    """A copy of t with one object field pointing at a random type, or
    None when t reaches no object with fields."""
    t = inflate(t, rng, copies=1)
    objs = [n for n in subterm_closure(t) if isinstance(n, ObjType) and n.fields]
    if not objs:
        return None
    o = rng.choice(objs)
    o.fields[rng.choice(sorted(o.fields))] = random_type(rng, rng.randint(1, 4))
    return t


def alternative_pairs():
    """Pairs built to be settled by the roots' union alternatives, or to
    just miss: a type against a bisimilar copy, against its union with
    another, union spines against permuted and re-nested ones, union-only
    cycles on the left, and each with one alternative dropped or one
    field changed."""
    rng = seeded(413)
    empties = [bot(), type_from_source("A = C \\/ A; C = A \\/ A; root A"),
               type_from_source("A = A \\/ (A \\/ A); root A")]
    for _ in range(80):
        t = random_type(rng, rng.randint(1, 6))
        u = random_type(rng, rng.randint(1, 6))
        yield t, inflate(t, rng)
        yield t, UnionType(t, u)
        yield t, UnionType(u, inflate(t, rng))
        yield UnionType(u, t), UnionType(t, u)
        items = [random_type(rng, rng.randint(1, 4)) for _ in range(rng.randint(2, 5))]
        spine = union_of(items, rng)
        shuffled = rng.sample(items, len(items))
        yield spine, union_of(shuffled, rng)
        yield spine, union_of(shuffled[1:], rng)
        yield union_of(shuffled[1:], rng), spine
        changed = with_field_changed(spine, rng)
        if changed is not None:
            yield spine, changed
            yield changed, spine
        changed = with_field_changed(t, rng)
        if changed is not None:
            yield t, changed
        e = rng.choice(empties)
        yield e, t
        yield UnionType(e, t), t
        yield UnionType(e, t), UnionType(u, e)


def settled_by_alternatives(t1, t2):
    left, right = canonicalize(t1), canonicalize(t2)
    return left is right or set(union_alternatives(left)) <= set(union_alternatives(right))


def test_alternatives_agree_with_engine_oracle_and_derive():
    settled = missed = 0
    for t1, t2 in alternative_pairs():
        verdict = subtype(t1, t2)
        assert verdict == _Engine(t1, t2, 100_000).holds() == subtype_oracle(t1, t2)
        assert (derive(t1, t2) is not None) == verdict
        if settled_by_alternatives(t1, t2):
            assert verdict
            settled += 1
        else:
            missed += 1
    assert settled > 600 and missed > 200, (settled, missed)


def test_alternatives_settle_pairs_without_the_engine(monkeypatch):
    built = []

    class Counting(_Engine):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(subtyping, "_Engine", Counting)
    rng = seeded(414)
    for _ in range(50):
        t = random_type(rng, rng.randint(1, 8))
        u = random_type(rng, rng.randint(1, 8))
        assert subtype(t, inflate(t, rng))
        assert subtype(t, UnionType(u, t))
    assert subtype(bot(), IntType())
    assert built == []
    types = number_types()
    assert subtype(types["evn"], types["nat"])
    assert len(built) == 1
