import json
import os
import subprocess
import sys

import pytest

import coinfer
from coinfer.interpretation import sample_values
from coinfer.term_core import (
    IntType,
    IntValue,
    ObjType,
    ObjValue,
    ParseError,
    TermError,
    UnionType,
    _TYPE_TOKENS,
    _named_nodes,
    canonical_images,
    canonicalize,
    equal,
    parse_type,
    parse_value,
    print_type,
    print_value,
    resolve,
    resolve_value,
    scan,
    subterm_closure,
    term_to_json,
    type_from_json,
    type_from_source,
    union_alternatives,
    value_from_json,
    value_from_source,
)

from conftest import (
    _FAMILY_DECLS,
    chain,
    fan,
    inflate,
    number_types,
    random_acyclic_type,
    random_connected_type,
    random_type,
    random_value,
    reference_reader,
    reference_term_to_json,
    seeded,
    spine,
    trees_equal_oracle,
)

NAT = "N = obj(zero, []) \\/ obj(succ, [pred: N]); root N"
EVN = "E = obj(zero, []) \\/ obj(succ, [pred: obj(succ, [pred: E])]); root E"


def test_parse_int():
    t = type_from_source("X = int; root X")
    assert isinstance(t, IntType)


def test_parse_nat_graph_has_three_nodes():
    t = type_from_source(NAT)
    assert isinstance(t, UnionType)
    assert len(subterm_closure(t)) == 3
    succ = t.right
    assert isinstance(succ, ObjType)
    assert succ.fields["pred"] is t


def test_union_right_associative():
    t = type_from_source("A = int \\/ obj(a, []) \\/ obj(b, []); root A")
    assert isinstance(t, UnionType)
    assert isinstance(t.left, IntType)
    assert isinstance(t.right, UnionType)


def test_parens_override_associativity():
    t = type_from_source("A = (int \\/ obj(a, [])) \\/ obj(b, []); root A")
    assert isinstance(t.left, UnionType)
    assert isinstance(t.right, ObjType)


def test_unguarded_union_is_legal():
    t = type_from_source("X = X \\/ X; root X")
    assert isinstance(t, UnionType)
    assert t.left is t and t.right is t


def test_pure_alias_cycle_rejected():
    with pytest.raises(TermError):
        type_from_source("X = Y; Y = X; root X")
    with pytest.raises(TermError):
        type_from_source("X = X; root X")


def test_alias_chain_resolves():
    t = type_from_source("X = Y; Y = int; root X")
    assert isinstance(t, IntType)


def test_aliases_share_one_node():
    t = type_from_source("A = B \\/ C; B = obj(a, []); C = B; root A")
    assert t.left is t.right


def test_unbound_variable_rejected():
    with pytest.raises(TermError):
        type_from_source("X = Y \\/ int; root X")
    with pytest.raises((TermError, ParseError)):
        type_from_source("X = int; root Y")


def test_duplicate_binding_rejected():
    with pytest.raises(ParseError):
        parse_type("X = int; X = int; root X")


def test_duplicate_field_rejected():
    with pytest.raises(ParseError):
        parse_type("X = obj(a, [f: int, f: int]); root X")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_type("X = int;\nY % int; root X")
    assert exc.value.line == 2
    assert exc.value.col == 3


def test_comments_and_whitespace():
    t = type_from_source("# natural numbers\nN = obj(zero, [])  # zero case\n  \\/ obj(succ, [pred: N]);\nroot N")
    assert isinstance(t, UnionType)


def test_value_parse_with_arrows_and_negatives():
    v = value_from_source("V = obj(succ, [pred -> -3]); root V")
    assert isinstance(v, ObjValue)
    assert v.fields["pred"].value == -3


def test_cyclic_value():
    v = value_from_source("V = obj(succ, [pred -> V]); root V")
    assert v.fields["pred"] is v


def test_value_rejects_union():
    with pytest.raises(ParseError):
        parse_value("V = 0 \\/ 1; root V")


def test_value_rejects_int_keyword():
    with pytest.raises(ParseError):
        parse_value("V = int; root V")


def test_type_rejects_int_literal():
    with pytest.raises(ParseError):
        parse_type("X = 3; root X")


# --- equality -----------------------------------------------------------

def test_bottom_representations_equal():
    a = type_from_source("A = B \\/ B; B = A \\/ A; root A")
    b = type_from_source("Bot = Bot \\/ Bot; root Bot")
    assert trees_equal_oracle(a, b)
    assert equal(a, b)


def test_nat_equals_its_unrolling():
    nat = type_from_source(NAT)
    unrolled = type_from_source(
        "N = obj(zero, []) \\/ obj(succ, [pred: M]);"
        "M = obj(zero, []) \\/ obj(succ, [pred: N]); root N")
    assert trees_equal_oracle(nat, unrolled)
    assert equal(nat, unrolled)


def test_nat_not_equal_evn():
    nat = type_from_source(NAT)
    evn = type_from_source(EVN)
    assert not trees_equal_oracle(nat, evn)
    assert not equal(nat, evn)


def test_field_order_irrelevant():
    a = type_from_source("X = obj(a, [f: int, g: obj(b, [])]); root X")
    b = type_from_source("X = obj(a, [g: obj(b, []), f: int]); root X")
    assert equal(a, b)


def test_int_values_equal_by_value():
    assert equal(IntValue(7), IntValue(7))
    assert not equal(IntValue(7), IntValue(8))


def test_cycle_phase_alignment():
    a = type_from_source("A = obj(a, [f: B]); B = obj(b, [f: A]); root A")
    b = type_from_source("B = obj(b, [f: A]); A = obj(a, [f: B]); root B")
    assert not equal(a, b)
    b_shifted = type_from_source("B = obj(b, [f: A]); A = obj(a, [f: B]); root A")
    assert equal(a, b_shifted)


# --- canonicalization ---------------------------------------------------

def test_canonicalize_idempotent():
    t = type_from_source(NAT)
    c = canonicalize(t)
    assert canonicalize(c) is c
    assert canonicalize(t) is c


def test_canonicalize_minimizes():
    unrolled = type_from_source(
        "N = obj(zero, []) \\/ obj(succ, [pred: M]);"
        "M = obj(zero, []) \\/ obj(succ, [pred: N]); root N")
    assert len(subterm_closure(unrolled)) == 6
    assert len(subterm_closure(canonicalize(unrolled))) == 3


def test_canonicalize_merges_cycle_to_single_node():
    t = type_from_source("A = obj(a, [f: B]); B = obj(a, [f: A]); root A")
    c = canonicalize(t)
    assert len(subterm_closure(c)) == 1
    assert c.fields["f"] is c


def test_subterm_closure_frozen_sizes():
    assert len(subterm_closure(type_from_source("T = int \\/ T; root T"))) == 2
    assert len(subterm_closure(type_from_source(NAT))) == 3
    assert len(subterm_closure(type_from_source(EVN))) == 4


_INFLATE_SCRIPT = """
import sys
# objects allocated first move every later node to another address
garbage = [[object()] * (i % 7) for i in range(int(sys.argv[1]))]
from conftest import inflate, number_types, seeded
from coinfer.term_core import print_type
rng = seeded(5)
for name, t in sorted(number_types().items()):
    print(print_type(inflate(t, rng)))
"""


def test_subterm_closure_order_replays_seeded_inflate():
    # discovery order, not memory order: two processes build the same graph
    t = type_from_source(EVN)
    assert subterm_closure(t)[0] is t
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(coinfer.__file__)), os.path.dirname(__file__)]))
    outs = [subprocess.run([sys.executable, "-c", _INFLATE_SCRIPT, str(n)], env=env,
                           capture_output=True, text=True, check=True).stdout
            for n in (0, 50001)]
    assert outs[0] and outs[0] == outs[1]


def test_cli_import_leaves_dataclasses_out():
    # dataclasses and what it imports (inspect, ast, dis) cost about 10 ms
    # of every coinfer start
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(coinfer.__file__)))
    out = subprocess.run([sys.executable, "-c", "import sys, coinfer.cli;"
                          " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_union_alternatives_left_first_each_once():
    t = type_from_source("U = (A \\/ int) \\/ (B \\/ A \\/ U); A = obj(a, []);"
                         " B = B \\/ B; root U")
    assert [print_type(a) for a in union_alternatives(t)] == [
        "T0 = obj(a, []);\nroot T0", "T0 = int;\nroot T0"]
    assert union_alternatives(type_from_source("B = B \\/ B; root B")) == []
    a = type_from_source("A = obj(a, [f: A \\/ int]); root A")
    assert union_alternatives(a) == [a]


def test_canonical_values():
    a = value_from_source("V = obj(succ, [pred -> V]); root V")
    b = value_from_source("V = obj(succ, [pred -> W]); W = obj(succ, [pred -> V]); root V")
    assert equal(a, b)
    assert canonicalize(a) is canonicalize(b)


# --- printing and serialization round trips ------------------------------

ROUND_TRIP_SOURCES = [
    "X = int; root X",
    NAT,
    EVN,
    "P = obj(succ, [pred: obj(zero, [])]) \\/ obj(succ, [pred: P]); root P",
    "X = X \\/ X; root X",
    "A = obj(a, [f: A, g: int \\/ A]); root A",
    "A = (int \\/ obj(b, [])) \\/ obj(a, [f: int]); root A",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_print_parse_round_trip(src):
    t = type_from_source(src)
    again = type_from_source(print_type(t))
    assert trees_equal_oracle(t, again)
    assert equal(t, again)


@pytest.mark.parametrize("src", [
    "V = 42; root V",
    "V = obj(zero, []); root V",
    "V = obj(succ, [pred -> V]); root V",
    "V = obj(a, [f -> 1, g -> obj(b, [])]); root V",
])
def test_value_print_parse_round_trip(src):
    v = value_from_source(src)
    again = value_from_source(print_value(v))
    assert equal(v, again)


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_json_round_trip(src):
    t = type_from_source(src)
    again = type_from_json(term_to_json(t))
    assert equal(t, again)


def test_value_json_round_trip():
    v = value_from_source("V = obj(succ, [pred -> V]); root V")
    again = value_from_json(term_to_json(v))
    assert equal(v, again)


# --- randomized agreement with the oracle --------------------------------

def test_equal_agrees_with_oracle_on_random_graphs():
    rng = seeded(20260819)
    pool = [random_type(rng, rng.randint(1, 8)) for _ in range(60)]
    pool += [type_from_source(src) for src in ROUND_TRIP_SOURCES]
    for _ in range(400):
        t1 = rng.choice(pool)
        t2 = rng.choice(pool)
        assert equal(t1, t2) == trees_equal_oracle(t1, t2)


def test_canonicalize_preserves_meaning_random():
    rng = seeded(97)
    for _ in range(200):
        t = random_type(rng, rng.randint(1, 10))
        c = canonicalize(t)
        assert trees_equal_oracle(t, c)
        assert len(subterm_closure(c)) <= len(subterm_closure(t))


# --- the acyclic path of canonicalize ------------------------------------

def test_canonicalize_acyclic_agrees_with_oracle():
    rng = seeded(611)
    pool = []
    for _ in range(150):
        t = random_acyclic_type(rng, rng.randint(1, 12))
        c = canonicalize(t)
        assert trees_equal_oracle(t, c)
        assert len(subterm_closure(c)) <= len(subterm_closure(t))
        assert canonicalize(inflate(t, rng, rng.randint(2, 3))) is c
        pool.append((t, c))
    for _ in range(400):
        (t1, c1), (t2, c2) = rng.choice(pool), rng.choice(pool)
        assert (c1 is c2) == trees_equal_oracle(t1, t2)


@pytest.mark.parametrize("acyclic_first", [True, False])
def test_interning_does_not_depend_on_path_order(acyclic_first):
    # the same acyclic g, fresh in each case, canonicalized alone (no
    # partition) and inside a cyclic graph (partition): one node object
    rng = seeded(612 + acyclic_first)
    classes = ("order%d" % acyclic_first,)
    for _ in range(20):
        g = random_acyclic_type(rng, rng.randint(2, 8), classes)
        nat = type_from_source(NAT)
        if acyclic_first:
            cg = canonicalize(g)
            cu = canonicalize(UnionType(inflate(g, rng), nat))
        else:
            cu = canonicalize(UnionType(inflate(g, rng), nat))
            cg = canonicalize(g)
        assert cu.left is cg
        assert cu.right is canonicalize(nat)


def test_fresh_node_above_a_canonical_cycle_merges_with_it():
    # a canonical node is walked through, not taken as a leaf: the fresh
    # obj(a, [f: c]) is bisimilar to the canonical cycle c itself
    c = canonicalize(type_from_source("T = obj(a, [f: T]); root T"))
    assert canonicalize(ObjType("a", {"f": c})) is c
    assert canonicalize(UnionType(ObjType("a", {"f": c}), IntType())).left is c


def test_acyclic_closure_never_partitions(monkeypatch):
    import coinfer.term_core as term_core

    calls = []
    real = term_core._partition

    def counting(kids, shapes):
        calls.append(len(kids))
        return real(kids, shapes)

    monkeypatch.setattr(term_core, "_partition", counting)
    rng = seeded(613)
    for _ in range(50):
        canonicalize(random_acyclic_type(rng, rng.randint(1, 12)))
    canonicalize(value_from_source("V = obj(a, [f -> 1, g -> obj(b, [h -> 1])]); root V"))
    assert calls == []
    canonicalize(type_from_source("T = obj(once, [f: T, g: int]); root T"))
    assert calls == [2]


def test_intern_table_grows_by_new_components():
    # one key per new component of the minimal graph, one uid per new node,
    # and one local key per node of a new cyclic component
    import coinfer.term_core as term_core

    rng = seeded(614)
    for k in range(60):
        t = (random_acyclic_type if k % 2 else random_type)(rng, rng.randint(1, 10))
        for n in subterm_closure(t):
            if isinstance(n, ObjType) and rng.random() < 0.5:
                n.class_name = "grow%d" % k
        keys, uids = len(term_core._canonical), len(term_core._canonical_uids)
        first = IntType().uid  # nodes made by this call come later
        c = canonicalize(t)
        kids = {n.uid: [m.uid for m in term_core._children(n)]
                for n in subterm_closure(c) if n.uid > first}
        new = term_core._scc_order(list(kids), {u: [m for m in ks if m in kids]
                                                for u, ks in kids.items()})
        cyclic = sum(len(scc) for scc in new if len(scc) > 1 or scc[0] in kids[scc[0]])
        assert len(term_core._canonical_uids) - uids == len(kids)
        assert len(term_core._canonical) - keys == len(new) + cyclic
        canonicalize(inflate(t, rng))
        assert (len(term_core._canonical), len(term_core._canonical_uids)) == \
            (keys + len(new) + cyclic, uids + len(kids))


def test_print_round_trip_random():
    rng = seeded(4242)
    for _ in range(100):
        t = random_type(rng, rng.randint(1, 10))
        assert equal(t, type_from_source(print_type(t)))
    for _ in range(100):
        v = random_value(rng, rng.randint(1, 8))
        assert equal(v, value_from_source(print_value(v)))


def test_large_flat_system_parses():
    lines = ["X0 = int;"]
    for i in range(1, 3000):
        lines.append("X%d = obj(a, [f: X%d]);" % (i, i - 1))
    lines.append("root X2999")
    t = type_from_source("\n".join(lines))
    assert len(subterm_closure(t)) == 3000


# --- the one-pass reader against the old two-pass one ---------------------

def _scrambled_source(t, rng, values):
    """Text for t's graph written otherwise than print_type does: the
    nodes print_type names and a random share of the others get bindings
    under random names, in random order, with alias bindings among them
    and references through the aliases; fields come in random order and
    some atoms in parentheses."""
    sep = " -> " if values else ": "
    nodes = subterm_closure(t)
    must = _named_nodes(t)[0]
    named = [n for n in nodes if n.uid in must or rng.random() < 0.3]
    labels = rng.sample(range(10 * len(nodes) + 10), 3 * len(nodes))
    names = {n.uid: ["N%d" % labels.pop()] for n in named}
    bindings = []
    for n in named:
        for _ in range(rng.choice((0, 0, 1, 2))):  # an alias of the node or of an alias
            alias = "A%d" % labels.pop()
            bindings.append("%s = %s;" % (alias, rng.choice(names[n.uid])))
            names[n.uid].append(alias)

    def write(n, top=False):
        if not top and n.uid in names:
            text = rng.choice(names[n.uid])
        elif isinstance(n, IntType):
            text = "int"
        elif isinstance(n, IntValue):
            text = str(n.value)
        elif isinstance(n, (ObjType, ObjValue)):
            fields = list(n.fields)
            rng.shuffle(fields)
            text = "obj(%s, [%s])" % (n.class_name, ", ".join(
                f + sep + write(n.fields[f]) for f in fields))
        else:
            left = write(n.left)
            if isinstance(n.left, UnionType) and n.left.uid not in names:
                left = "(%s)" % left
            return left + " \\/ " + write(n.right)
        return "(%s)" % text if rng.random() < 0.1 else text

    bindings += ["%s = %s;" % (names[n.uid][0], write(n, top=True)) for n in named]
    rng.shuffle(bindings)
    return "\n".join(bindings + ["root %s" % rng.choice(names[t.uid])])


def _mutated(src, rng):
    """src with one or two edits: a token dropped, two swapped, one
    duplicated, or a name replaced by another name or an unbound one."""
    toks = scan(src, _TYPE_TOKENS)[:-1]
    names = sorted({t for t in toks if t[:1].isupper()}) + ["Z0", "Z1"]
    for _ in range(rng.choice((1, 1, 2))):
        k, j = rng.randrange(len(toks)), rng.randrange(len(toks))
        how = rng.choice(("drop", "swap", "dup", "name", "name"))
        if how == "drop":
            del toks[k]
        elif how == "swap":
            toks[k], toks[j] = toks[j], toks[k]
        elif how == "dup":
            toks.insert(k, toks[j])
        else:
            k = rng.choice([i for i, t in enumerate(toks) if t[:1].isupper()] or [k])
            toks[k] = rng.choice(names)
        if len(toks) < 2:
            break
    return " ".join(toks)


def _json_mutated(text, rng):
    """The JSON form with one or two expressions broken: a key dropped, a
    kind changed, a name unbound, a constructor of the other sort put in,
    or a part replaced by a number."""
    data = json.loads(text)
    for _ in range(rng.choice((1, 1, 2))):
        exprs = []
        todo = list(data["bindings"].values())
        while todo:
            e = todo.pop()
            if type(e) is dict:
                exprs.append(e)
                fields = e.get("fields")
                todo += [e.get("left"), e.get("right")]
                todo += fields.values() if type(fields) is dict else ()
        e = rng.choice(exprs)
        how = rng.choice(("drop", "kind", "name", "sort", "sort", "number", "root"))
        if how == "drop" and e:
            del e[rng.choice(sorted(e))]
        elif how == "kind":
            e["kind"] = rng.choice(("int", "obj", "union", "intval", "objval", "ref", "bool"))
        elif how in ("name", "sort"):
            e.clear()
            e.update(rng.choice([
                {"kind": "ref", "name": rng.choice(sorted(data["bindings"]) + ["T99"])},
                {"kind": "int"}, {"kind": "intval", "value": 1},
                {"kind": "objval", "class": "a", "fields": {}},
                {"kind": "union", "left": {"kind": "int"}, "right": {"kind": "int"}}]))
        elif how == "number":
            for k in ("left", "right", "fields", "value", "class"):
                if k in e:
                    e[k] = 5
                    break
        elif "root" in data:
            del data["root"]
    return json.dumps(data)


def _read(reader, text, values):
    """What a reader makes of text: its graph, or its error."""
    try:
        return reader(text, values), None
    except TermError as exc:
        return None, (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None))


def _new_reader(text, values):
    if text.startswith("{"):
        return (value_from_json if values else type_from_json)(text)
    return (value_from_source if values else type_from_source)(text)


def _assert_same_graph(new, old, values, seed):
    printer = print_value if values else print_type
    assert printer(new) == printer(old)
    a, b = subterm_closure(new), subterm_closure(old)
    assert [type(n) for n in a] == [type(n) for n in b]
    assert (sorted(range(len(a)), key=lambda k: a[k].uid)
            == sorted(range(len(b)), key=lambda k: b[k].uid))
    if not values:
        samples = []
        for t in (new, old):
            try:
                samples.append([print_value(v) for v in sample_values(t, 3, seed)])
            except ValueError as exc:
                samples.append(str(exc))
        assert samples[0] == samples[1]


# inputs with several faults, where the order of the checks shows
SEVERAL_FAULTS = [
    ("X = obj(a, [f: Q, g: R]); root X", False),
    ("X = Y; Y = X; Z = Q \\/ R; root W", False),
    ("X = Y; Y = X; root W", False),
    (json.dumps({"root": "A", "bindings": {
        "A": {"kind": "objval", "class": "a", "fields": {"f": {"kind": "int"}}},
        "B": {"kind": "union", "left": {"kind": "intval", "value": 1},
              "right": {"kind": "ref", "name": "A"}}}}), True),
]


def test_reader_agrees_with_reference():
    rng = seeded(14)
    terms = [(t, False) for t in number_types().values()]
    terms += [(chain(40), False), (spine(40), False), (fan(12), False)]
    for size in range(1, 13):
        terms += [(random_type(rng, size), False), (random_connected_type(rng, size), False),
                  (random_acyclic_type(rng, size), False), (random_value(rng, size), True)]
    terms += [(inflate(t, rng), values) for t, values in terms[:30]]
    sources = [(_FAMILY_DECLS % name, False) for name in ("Zer", "Nat", "Evn", "Bot")]
    for t, values in terms:
        sources.append(((print_value if values else print_type)(t), values))
        sources += [(_scrambled_source(t, rng, values), values) for _ in range(3)]
    broken = [(_mutated(src, rng), values) for src, values in rng.sample(sources, 250)]
    broken += SEVERAL_FAULTS
    read = 0
    for k, (src, values) in enumerate(sources + broken):
        new, new_error = _read(_new_reader, src, values)
        old, old_error = _read(reference_reader, src, values)
        assert new_error == old_error, src
        if new is None:
            continue
        read += 1
        _assert_same_graph(new, old, values, k)
        text = term_to_json(new)
        assert text == reference_term_to_json(old)
        _assert_same_graph(_read(_new_reader, text, values)[0],
                           reference_reader(text, values), values, k)
        bad = _json_mutated(text, rng)
        new, new_error = _read(_new_reader, bad, values)
        try:
            old, old_error = _read(reference_reader, bad, values)
        except (KeyError, TypeError, AttributeError):
            old = old_error = None  # the old reader failed without a TermError
            assert new_error is not None, bad
        if old_error is not None or old is not None:
            assert new_error == old_error, bad
        if new is not None:
            _assert_same_graph(new, old, values, k)
    assert read > len(sources)  # some mutated sources still read


def _agree(src, values):
    """The error of src, the same from the reader as from the reference,
    which reads the same graph when there is none."""
    new, new_error = _read(_new_reader, src, values)
    old, old_error = _read(reference_reader, src, values)
    assert new_error == old_error, src
    if new is not None:
        _assert_same_graph(new, old, values, 0)
    return new_error


def test_reader_agrees_on_a_long_flat_value_with_comments():
    rng = seeded(1000)
    eqs = []
    for k in range(1000):
        if k % 3 == 2:
            eqs.append("N%d = %d;" % (k, rng.randint(-9, 9)))
        else:
            inner = rng.choice(("N%d" % rng.randrange(1000), "obj(d, [])", "obj(e, [h -> -4])"))
            eqs.append("N%d = obj(c%d, [f -> N%d, g -> %s]);" % (k, k % 4, (k + 1) % 1000, inner))
    toks = scan(" ".join(eqs) + " root N0;", _TYPE_TOKENS)[:-1]
    gaps = (" ", "\n", " # a comment -> ] ;\n", "\t#\n  ")
    src = "".join(t + rng.choice(gaps) for t in toks)
    assert _agree(src, True) is None
    for _ in range(40):  # one token dropped, the comments kept
        k = rng.randrange(len(toks))
        bad = "".join(t + rng.choice(gaps) for j, t in enumerate(toks) if j != k)
        _agree(bad, True)


@pytest.mark.parametrize("prelude", [
    "_X = obj(a, [f: _Y, g: _X \\/ int]); _Y = int \\/ (obj(b, []) \\/ _X);",
    "_X = _Y; _Y = obj(a, [f: _Y, g: _Y]);",
    "_X = obj(a, [f: _Y, g: int, f: int]); _Y = int;",
    "_X = obj(a, [f: _Z]);",
    "_X = obj(a, [f: (_X]);",
    "_X = _Y; _Y = _X;",
    "_X = obj(a, [f: 3]);",
])
def test_underscore_names_in_a_query_prelude_agree_with_reference(prelude):
    # the reference reads the prelude with each "_" as "Q": the lengths,
    # and so the positions, stay the same
    from coinfer.cosld_engine import EngineError, parse_query

    old, old_error = _read(reference_reader, prelude.replace("_", "Q") + " root QX", False)
    try:
        got = parse_query(prelude + " p(_X)").types["_X"]
    except EngineError as exc:
        assert old_error is not None
        assert str(exc).split(": ", 1)[1] == old_error[1].replace("Q", "_")
    else:
        assert old_error is None
        _assert_same_graph(got, old, False, 0)


@pytest.mark.parametrize("src, values", [
    ("X = obj(a, [f: int, g: int, f: int]); root X", False),
    ("X = obj(a, [f: X, g: X, g: X \\/ int]); root X", False),
    ("V = obj(a, [f -> 1, g -> V, f -> obj(b, [])]); root V", True),
    ("V = obj(a, [f -> obj(a, [h -> 1, k -> 2, h -> 3]), g -> V]); root V", True),
])
def test_duplicate_field_in_third_position(src, values):
    error = _agree(src, values)
    assert error is not None and "duplicate field" in error[1]


# ---------------------------------------------------------------------------
# canonical nodes are leaves of the canonicalizing walk

EVEN_ODD = "E = obj(zero, []) \\/ obj(succ, [pred: O]); O = obj(succ, [pred: E]); root %s"


def test_new_node_over_a_cycle_finds_its_canonical_node():
    # every node of a canonical cycle is interned under its local key, so
    # a new node whose canonical children reach into one finds it
    even = canonicalize(type_from_source(EVEN_ODD % "E"))
    odd = canonicalize(type_from_source(EVEN_ODD % "O"))
    assert canonicalize(ObjType("succ", {"pred": even})) is odd
    assert canonicalize(UnionType(ObjType("zero"), ObjType("succ", {"pred": odd}))) is even


def test_new_cycle_bisimilar_to_a_canonical_node_it_reaches():
    # Mauborgne's pitfall: X = obj(a, [f: X, g: Y*]) is Y* itself
    y = canonicalize(type_from_source("Y = obj(a, [f: Y, g: Y]); root Y"))
    x = ObjType("a")
    x.fields = {"f": x, "g": y}
    assert canonicalize(x) is y
    x1, x2 = ObjType("a"), ObjType("a")  # two new nodes on the cycle
    x1.fields, x2.fields = {"f": x2, "g": y}, {"f": x1, "g": x1}
    assert canonicalize(x2) is y
    z = ObjType("a")  # not bisimilar: a new canonical node
    z.fields = {"f": z, "g": canonicalize(IntType())}
    cz = canonicalize(z)
    assert cz is not y and trees_equal_oracle(cz, z) and canonicalize(cz) is cz


@pytest.mark.parametrize("seed", range(6))
def test_canonicalize_grafted_onto_canonical_nodes(seed):
    # a graph whose edges reach canonical nodes gets the node an inflated
    # copy with no canonical node in it gets
    rng = seeded(7300 + seed)
    for _ in range(40):
        targets = subterm_closure(canonicalize(random_type(rng, rng.randint(1, 8))))
        t = random_type(rng, rng.randint(1, 8))
        for n in subterm_closure(t):  # t's own nodes, before the grafts
            if isinstance(n, ObjType):
                for f in n.fields:
                    if rng.random() < 0.3:
                        n.fields[f] = rng.choice(targets)
        c = canonicalize(t)
        assert trees_equal_oracle(t, c)
        assert canonicalize(inflate(t, rng)) is c


def test_canonical_images_of_several_roots():
    # one canonicalization over all roots maps every node they reach
    rng = seeded(7400)
    for _ in range(30):
        roots = [random_type(rng, rng.randint(1, 8)) for _ in range(3)]
        roots.append(rng.choice(subterm_closure(roots[0])))
        images = canonical_images(roots)
        nodes = {n.uid: n for r in roots for n in subterm_closure(r)}
        assert images.keys() == nodes.keys()
        for uid, n in nodes.items():
            assert images[uid] is canonicalize(inflate(n, rng))


# ---------------------------------------------------------------------------
# a cyclic closure is looked up by summary before it is partitioned

def _count_partitions(monkeypatch):
    import coinfer.term_core as term_core

    calls = []
    real = term_core._partition

    def counting(kids, shapes):
        calls.append(len(kids))
        return real(kids, shapes)

    monkeypatch.setattr(term_core, "_partition", counting)
    return calls


def _renamed(t, name):
    """t with every class renamed, so its classes are not interned yet."""
    for n in subterm_closure(t):
        if isinstance(n, ObjType):
            n.class_name = name
    return t


def _fresh_table(monkeypatch):
    """Run the test on an intern table of its own, empty at first."""
    import coinfer.term_core as term_core

    for name, empty in (("_canonical", {}), ("_canonical_uids", set()), ("_by_summary", {})):
        monkeypatch.setattr(term_core, name, empty)


@pytest.mark.parametrize("seed", range(4))
def test_cyclic_copies_get_one_node_cold_or_warm(seed, monkeypatch):
    # a copy whose class is new is partitioned, and a second copy is found
    # by its summary and local keys
    _fresh_table(monkeypatch)
    calls = _count_partitions(monkeypatch)
    rng = seeded(7500 + seed)
    cyclic = 0
    for k in range(40):
        t = random_type(rng, rng.randint(2, 9))
        first, second = inflate(t, rng), inflate(t, rng)
        del calls[:]
        cold = canonicalize(first)
        partitioned = len(calls)
        warm = canonicalize(second)
        assert warm is cold and trees_equal_oracle(t, cold)
        assert len(calls) == partitioned
        cyclic += partitioned
    assert cyclic > 10


def test_lookup_gives_up_after_a_bounded_walk(monkeypatch):
    # cycles of unions alone share one summary down to its rounds: a
    # lookup refutes a bounded number of them, then partitions, and still
    # gets the node interned for its class
    import coinfer.term_core as term_core

    _fresh_table(monkeypatch)
    empty = canonicalize(type_from_source("B = B \\/ B; root B"))
    rounds = term_core._SUMMARY_ROUNDS
    for k in range(40):  # unions above a cycle, then obj(k) past the rounds
        src = "T = %s; root T" % ("(T \\/ " * (rounds + 1) + "obj(tower%d, [])" % k
                                  + ")" * (rounds + 1))
        canonicalize(type_from_source(src))
    assert len(term_core._by_summary[_summary(empty)]) > 40
    calls = _count_partitions(monkeypatch)
    assert canonicalize(type_from_source("X = Y \\/ X; Y = X \\/ X; root X")) is empty
    assert len(calls) == 1


def _summary(t):
    import coinfer.term_core as term_core

    index, shapes, kids, _, _ = term_core._number([t], leaves=False)
    kids = [[index[c.uid] for c in ks] for ks in kids]
    return term_core._summaries(shapes, kids)[index[t.uid]]


def test_equal_summaries_of_distinct_classes_give_distinct_nodes():
    # p and q differ only one edge past the summary's rounds below the
    # root: one is a candidate for the other, and the walk refutes it
    import coinfer.term_core as term_core

    rounds = term_core._SUMMARY_ROUNDS
    src = "P = %s; root P" % ("obj(sa, [f: " * (rounds + 1) + "obj(%s, [f: P])" + "])" * (rounds + 1))
    p, q = type_from_source(src % "sb"), type_from_source(src % "sc")
    assert _summary(p) == _summary(q)
    cp, cq = canonicalize(p), canonicalize(q)
    assert cp is not cq
    assert canonicalize(inflate(p, seeded(1))) is cp
    assert canonicalize(inflate(q, seeded(2))) is cq


def test_forced_summary_collisions_change_no_node(monkeypatch):
    # with no signing round every node of a shape collides with every
    # other; the lockstep walk alone must tell the classes apart
    import coinfer.term_core as term_core

    _fresh_table(monkeypatch)
    monkeypatch.setattr(term_core, "_SUMMARY_ROUNDS", 0)
    evn, odd, nat = (canonicalize(type_from_source(src))
                     for src in (EVEN_ODD % "E", EVEN_ODD % "O", NAT))
    assert _summary(evn) == _summary(nat) and len({evn, odd, nat}) == 3
    for src, node in ((EVEN_ODD % "E", evn), (EVEN_ODD % "O", odd), (NAT, nat), (EVN, evn)):
        assert canonicalize(inflate(type_from_source(src), seeded(3))) is node
    rng = seeded(7600)
    pool = []
    for k in range(60):
        t = _renamed(random_type(rng, rng.randint(2, 8)), "clash%d" % (k % 3))
        c = canonicalize(inflate(t, rng))
        assert trees_equal_oracle(t, c) and canonicalize(inflate(t, rng)) is c
        pool.append((t, c))
    for _ in range(300):
        (t1, c1), (t2, c2) = rng.choice(pool), rng.choice(pool)
        assert (c1 is c2) == trees_equal_oracle(t1, t2)


def test_fresh_mauborgne_cycle_is_found_by_summary(monkeypatch):
    # X = obj(a, [f: X, g: Y]) is Y: X's summary is Y*'s, and the walk
    # confirms it with no partition
    y = canonicalize(type_from_source("Y = obj(maub, [f: Y, g: Y]); root Y"))
    calls = _count_partitions(monkeypatch)
    x = type_from_source("X = obj(maub, [f: X, g: Y]); Y = obj(maub, [f: Y, g: Y]); root X")
    assert canonicalize(x) is y
    x1 = type_from_source("A = obj(maub, [f: B, g: A]); B = obj(maub, [f: A, g: B]); root B")
    assert canonicalize(x1) is y
    assert calls == []


def test_canonical_images_agree_with_the_partition_path(monkeypatch):
    # several roots looked up share one image: node for node, the nodes
    # the partition path gives
    import coinfer.term_core as term_core

    _fresh_table(monkeypatch)
    rng = seeded(7700)
    real = term_core._lookup
    calls = _count_partitions(monkeypatch)
    for k in range(30):
        roots = [random_type(rng, rng.randint(2, 8)) for _ in range(3)]
        roots.append(rng.choice(subterm_closure(roots[0])))
        monkeypatch.setattr(term_core, "_lookup", lambda *args: False)
        partitioned = canonical_images(roots)
        monkeypatch.setattr(term_core, "_lookup", real)
        del calls[:]
        looked_up = canonical_images([inflate(r, rng) for r in roots] + roots)
        assert {u: looked_up[u] for u in partitioned} == partitioned
        assert calls == []


def test_threads_get_one_node_per_class():
    # every thread canonicalizes its own copies of the same new classes,
    # all at once and switching often: each class gets one node
    import threading
    import time

    rng = seeded(7800)
    types = [_renamed(random_type(rng, rng.randint(3, 9)), "thread%d" % (k % 5))
             for k in range(60)]
    workers = 2 * (os.cpu_count() or 2) + 1
    copies = [[inflate(t, rng) for t in types] for _ in range(workers)]
    start = threading.Barrier(workers)
    got = [None] * workers

    def work(w):
        start.wait(timeout=30)
        got[w] = [canonicalize(t) for t in copies[w]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,), daemon=True)
                   for w in range(workers)]
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(0.1, 30 - (time.perf_counter() - began)))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and None not in got
    for nodes in got[1:]:
        assert len(nodes) == len(types) and all(a is b for a, b in zip(nodes, got[0]))
    for t, c in zip(types, got[0]):
        assert trees_equal_oracle(t, c) and canonicalize(inflate(t, rng)) is c
