import os
import subprocess
import sys

import pytest

import coinfer
from coinfer.term_core import (
    IntType,
    IntValue,
    ObjType,
    ObjValue,
    ParseError,
    TermError,
    UnionType,
    canonicalize,
    equal,
    parse_type,
    parse_value,
    print_type,
    print_value,
    resolve,
    resolve_value,
    subterm_closure,
    term_to_json,
    type_from_json,
    type_from_source,
    value_from_json,
    value_from_source,
)

from conftest import random_type, random_value, seeded, trees_equal_oracle

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
