import json
import sys

import pytest

from coinfer.cli import main
from coinfer.term_core import (
    equal,
    type_from_json,
    type_from_source,
    value_from_json,
    value_from_source,
)
from coinfer.interpretation import member

BOT = "B = B \\/ B; root B;"
INT = "T = int; root T;"
NAT = "Z = obj(zero, []); N = Z \\/ obj(succ, [pred: N]); root N;"
ODD = ("O = obj(succ, [pred: obj(zero, [])])"
       " \\/ obj(succ, [pred: obj(succ, [pred: O])]); root O;")
EVN = ("E = obj(zero, [])"
       " \\/ obj(succ, [pred: obj(succ, [pred: E])]); root E;")

ZERO_SUCC = """
class Zero {
  add(n) { return n; }
}
class Succ {
  pred;
  Succ(n) { this.pred = n; }
  add(n) { return pred.add(new Succ(n)); }
}
"""

ZER_QUERY = ("Z = obj(zero, []); "
             "O = obj(succ, [pred: obj(zero, [])])"
             " \\/ obj(succ, [pred: obj(succ, [pred: O])]); "
             "invoke(Z, add, [O], R)")

EVN_QUERY = ("E = obj(zero, [])"
             " \\/ obj(succ, [pred: obj(succ, [pred: E])]); "
             "O = obj(succ, [pred: obj(zero, [])])"
             " \\/ obj(succ, [pred: obj(succ, [pred: O])]); "
             "invoke(E, add, [O], R)")


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_subtype_bottom_below_int(tmp_path, capsys):
    bot = put(tmp_path, "bot.ty", BOT)
    i = put(tmp_path, "int.ty", INT)
    assert main(["subtype", bot, i]) == 0
    assert "subtype" in capsys.readouterr().out


def test_subtype_int_not_below_bottom(tmp_path, capsys):
    bot = put(tmp_path, "bot.ty", BOT)
    i = put(tmp_path, "int.ty", INT)
    assert main(["subtype", i, bot]) == 1
    assert "not" in capsys.readouterr().out


def test_subtype_trace_prints_derivation(tmp_path, capsys):
    bot = put(tmp_path, "bot.ty", BOT)
    i = put(tmp_path, "int.ty", INT)
    assert main(["subtype", bot, i, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "<=" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_subtype_trace_canonicalizes_each_input_once(tmp_path, capsys, monkeypatch, fmt):
    # each input's closure goes through the canonicalizing walk once; a
    # class interned already is looked up there and needs no partition
    import coinfer.term_core as term_core

    calls = {"_canonical_nodes": 0, "_partition": 0}

    def counting(name):
        real = getattr(term_core, name)

        def count(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(term_core, name, count)

    counting("_canonical_nodes")
    counting("_partition")
    odd = put(tmp_path, "odd.ty", ODD)
    nat = put(tmp_path, "nat.ty", NAT)
    assert main(["subtype", odd, nat, "--trace", "--format", fmt]) == 0
    assert ("derivation" if fmt == "json" else "<=") in capsys.readouterr().out
    assert calls["_canonical_nodes"] == 2 and calls["_partition"] <= 2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("pair,code", [(("odd.ty", "nat.ty"), 0), (("nat.ty", "odd.ty"), 1)])
def test_subtype_trace_runs_the_engine_once(tmp_path, capsys, monkeypatch, fmt, pair, code):
    import coinfer.subtyping as subtyping

    built = []

    class Counting(subtyping._Engine):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(subtyping, "_Engine", Counting)
    paths = {"odd.ty": put(tmp_path, "odd.ty", ODD), "nat.ty": put(tmp_path, "nat.ty", NAT)}
    assert main(["subtype", paths[pair[0]], paths[pair[1]], "--trace", "--format", fmt]) == code
    out = capsys.readouterr().out
    assert ("derivation" in out if fmt == "json" else "<=" in out) == (code == 0)
    assert len(built) == 1


def test_subtype_budget_reported_as_exit3(tmp_path, capsys):
    evn = put(tmp_path, "evn.ty", EVN)
    nat = put(tmp_path, "nat.ty", NAT)
    rc = main(["subtype", evn, nat, "--memo-limit", "1"])
    assert rc == 3
    assert "budget" in capsys.readouterr().err
    # the budget bounds the judgments walked; nat <= nat is settled by
    # its union alternatives and walks none
    assert main(["subtype", nat, nat, "--memo-limit", "1"]) == 0
    assert capsys.readouterr().out.strip() == "subtype"


@pytest.mark.parametrize("argv, option", [
    (["subtype", "{evn}", "{nat}", "--memo-limit", "0"], "--memo-limit"),
    (["member", "{zero}", "{nat}", "--memo-limit", "-1"], "--memo-limit"),
    (["sample", "{nat}", "--count", "0"], "--count"),
    (["sample", "{nat}", "--count", "-3", "--format", "json"], "--count"),
])
def test_budgets_below_one_are_usage_errors(tmp_path, capsys, argv, option):
    files = {"evn": put(tmp_path, "evn.ty", EVN), "nat": put(tmp_path, "nat.ty", NAT),
             "zero": put(tmp_path, "zero.val", "V = obj(zero, []); root V;")}
    assert main([a.format(**files) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: %s must be positive\n" % option


def test_empty_bottom_prints_empty(tmp_path, capsys):
    bot = put(tmp_path, "bot.ty", BOT)
    assert main(["empty", bot]) == 1
    assert capsys.readouterr().out.strip() == "empty"


def test_empty_inhabited_with_witness(tmp_path, capsys):
    nat = put(tmp_path, "nat.ty", NAT)
    assert main(["empty", nat, "--witness"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].strip() == "not empty"
    wit = value_from_source("\n".join(out.splitlines()[1:]))
    assert member(wit, type_from_source(NAT))


def test_parse_text_round_trip(tmp_path, capsys):
    nat = put(tmp_path, "nat.ty", NAT)
    assert main(["parse", nat]) == 0
    printed = capsys.readouterr().out
    assert equal(type_from_source(printed), type_from_source(NAT))


def test_parse_json_round_trip(tmp_path, capsys):
    nat = put(tmp_path, "nat.ty", NAT)
    assert main(["parse", nat, "--format", "json"]) == 0
    blob = capsys.readouterr().out
    assert equal(type_from_json(blob), type_from_source(NAT))


def test_json_files_accepted_as_input(tmp_path, capsys):
    nat = put(tmp_path, "nat.ty", NAT)
    main(["parse", nat, "--format", "json"])
    blob = capsys.readouterr().out
    jf = put(tmp_path, "nat.json", blob)
    assert main(["subtype", jf, nat]) == 0
    capsys.readouterr()


def test_parse_value_file(tmp_path, capsys):
    vf = put(tmp_path, "two.val",
             "V = obj(succ, [pred -> obj(succ, [pred -> obj(zero, [])])]); root V;")
    assert main(["parse", vf, "--value"]) == 0
    printed = capsys.readouterr().out
    assert member(value_from_source(printed), type_from_source(NAT))


def test_parse_error_is_usage_error(tmp_path, capsys):
    bad = put(tmp_path, "bad.ty", "T = obj(; root T;")
    assert main(["parse", bad]) == 2
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("text,message", [
    ('{"bindings": {"T0": {"kind": "int"}}}', '"root"'),
    ('{"root": "T0", "bindings": {"T0": {"kind": "ref", "name": "T1"}}}',
     "unbound variable T1"),
    ('{"root": "T0", "bindings": {"T0": {"kind": "obj", "class": "a"}}}', '"fields"'),
    ('{"root": "T0", "bindings": {"T0": {"kind": "union", "left": {"kind": "int"},'
     ' "right": 5}}}', "not 5"),
    ('{"root": ', "invalid JSON"),
    ('{"root": "T0", "bindings": {"T0": {"kind": "obj", "class": 7, "fields": {}}}}',
     '"class"'),
    ('{"root": "T0", "bindings": {"T0": {"kind": "ref", "name": ["T0"]}}}', '"name"'),
    ('{"root": "T0", "bindings": {"T0": {"kind": "intval", "value": "1"}}}', '"value"'),
    ('{"root": "T0", "bindings": {"T0": {"kind": "set"}}}', "unknown term kind 'set'"),
    ('{"root": "T0", "bindings": {"T0": {"kind": "intval", "value": 1}}}',
     "value expression in a type system"),
    ('{"root": "T0", "bindings": {"T0": {"kind": "ref", "name": "T0"}}}',
     "variable cycle T0 = T0"),
    ('{"root": "T0", "bindings": [{"kind": "int"}]}', '"bindings"'),
], ids=["no_root", "unbound_ref", "obj_without_fields", "union_side_not_object",
        "invalid_json", "class_not_string", "name_not_string", "intval_not_int",
        "unknown_kind", "value_in_type", "alias_cycle", "bindings_not_object"])
def test_malformed_json_term_is_usage_error(tmp_path, capsys, text, message):
    bad = put(tmp_path, "bad.json", text)
    assert main(["parse", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("depth", [3000, 10_000])
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, depth):
    # a union whose left side nests `depth` unions deep
    text = ('{"root": "T0", "bindings": {"T0": '
            + '{"kind": "union", "left": ' * depth + '{"kind": "int"}'
            + ', "right": {"kind": "int"}}' * depth + "}}")
    bad = put(tmp_path, "deep.json", text)
    assert main(["parse", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid JSON: nesting too deep\n"


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "nope.ty")]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_repeated_main_calls_print_the_same(tmp_path, capsys):
    # main reuses one parser across calls; its answers must not drift
    nat = put(tmp_path, "nat.ty", NAT)
    outs = []
    for _ in range(2):
        assert main(["sample", nat, "--count", "3", "--seed", "2"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert main(["frobnicate"]) == 2
    assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out
    assert main(["sample", nat, "--count", "3", "--seed", "2"]) == 0
    assert capsys.readouterr().out == outs[0]


def test_compile_prints_clause_program(tmp_path, capsys):
    prog = put(tmp_path, "prog.src", ZERO_SUCC)
    assert main(["compile", prog]) == 0
    out = capsys.readouterr().out
    assert "subclass(X,Y) :- extends(X,Z),subclass(Z,Y)." in out
    assert "new(object,[],obj(object,[]))." in out
    assert ("has_meth(succ,add,[This,N],V2) :- field_acc(This,pred,V0),"
            "new(succ,[N],V1),invoke(V0,add,[V1],V2)." in out)


def test_compile_json_matches_text(tmp_path, capsys):
    prog = put(tmp_path, "prog.src", ZERO_SUCC)
    main(["compile", prog])
    text_lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert main(["compile", prog, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["clauses"] == text_lines


def test_compile_bad_program_is_usage_error(tmp_path, capsys):
    prog = put(tmp_path, "prog.src", "class A extends Missing { }")
    assert main(["compile", prog]) == 2
    capsys.readouterr()


def test_member_positive_and_negative(tmp_path, capsys):
    nat = put(tmp_path, "nat.ty", NAT)
    zero = put(tmp_path, "zero.val", "V = obj(zero, []); root V;")
    num = put(tmp_path, "num.val", "V = 7; root V;")
    assert main(["member", zero, nat]) == 0
    assert main(["member", num, nat]) == 1
    capsys.readouterr()


def test_member_on_shared_cycles(tmp_path, capsys):
    # 20 values, each reaching the next by two fields, closed into a cycle
    n = 20
    eqs = "".join("V%d = obj(a, [f -> V%d, g -> V%d]); " % (i, (i + 1) % n, (i + 1) % n)
                  for i in range(n))
    value = put(tmp_path, "doubled.val", eqs + "root V0;")
    t = put(tmp_path, "doubled.ty", "T = obj(a, [f: T, g: T]); root T;")
    assert main(["member", value, t]) == 0
    assert capsys.readouterr().out == "member\n"


def test_sample_values_all_members(tmp_path, capsys):
    nat = put(tmp_path, "nat.ty", NAT)
    assert main(["sample", nat, "--count", "5", "--seed", "3",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert 1 <= len(data["values"]) <= 5
    t = type_from_source(NAT)
    for blob in data["values"]:
        assert member(value_from_json(json.dumps(blob)), t)


def test_sample_deterministic_for_seed(tmp_path, capsys):
    nat = put(tmp_path, "nat.ty", NAT)
    main(["sample", nat, "--count", "4", "--seed", "9"])
    first = capsys.readouterr().out
    main(["sample", nat, "--count", "4", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_sample_seeded_output_pinned(tmp_path, capsys):
    # the README's `sample odd.ty --count 2 --seed 1` plus two random walks
    odd = put(tmp_path, "odd.ty", ODD)
    assert main(["sample", odd, "--count", "4", "--seed", "1"]) == 0
    assert capsys.readouterr().out.split("\n\n") == [
        "T0 = obj(succ, [pred -> obj(zero, [])]);\nroot T0",
        "T0 = obj(succ, [pred -> obj(succ, [pred -> T0])]);\nroot T0",
        "T0 = obj(succ, [pred -> obj(succ, [pred -> obj(succ, [pred -> obj(zero, [])])])]);"
        "\nroot T0",
        "T0 = obj(succ, [pred -> obj(succ, [pred -> obj(succ, [pred -> obj(succ, "
        "[pred -> obj(succ, [pred -> obj(zero, [])])])])])]);\nroot T0\n",
    ]


def test_sample_empty_type_is_negative(tmp_path, capsys):
    bot = put(tmp_path, "bot.ty", BOT)
    assert main(["sample", bot]) == 1
    assert "empty" in capsys.readouterr().err


def test_solve_ground_receiver(tmp_path, capsys):
    prog = put(tmp_path, "prog.src", ZERO_SUCC)
    assert main(["solve", prog, "--query", ZER_QUERY]) == 0
    out = capsys.readouterr().out
    assert "R =" in out


def test_solve_json_answer_round_trips(tmp_path, capsys):
    prog = put(tmp_path, "prog.src", ZERO_SUCC)
    assert main(["solve", prog, "--query", ZER_QUERY,
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["complete"] is True
    assert len(data["answers"]) == 1
    r = data["answers"][0]["bindings"]["R"]
    assert r["kind"] == "type"
    back = type_from_json(json.dumps(r["term"]))
    assert equal(back, type_from_source(ODD))


def test_solve_expectation_check(tmp_path, capsys):
    prog = put(tmp_path, "prog.src", ZERO_SUCC)
    odd = put(tmp_path, "odd.ty", ODD)
    evn = put(tmp_path, "evn.ty", EVN)
    assert main(["solve", prog, "--query", ZER_QUERY, "--expect", odd]) == 0
    assert main(["solve", prog, "--query", ZER_QUERY, "--expect", evn]) == 1
    capsys.readouterr()


def test_solve_union_receiver_needs_subsumption(tmp_path, capsys):
    prog = put(tmp_path, "prog.src", ZERO_SUCC)
    assert main(["solve", prog, "--query", EVN_QUERY]) == 0
    out = capsys.readouterr().out
    assert "R =" in out
    rc = main(["solve", prog, "--query", EVN_QUERY, "--no-subsumption",
               "--max-depth", "16"])
    assert rc == 3
    assert "inconclusive" in capsys.readouterr().out


def test_solve_no_answers_is_negative(tmp_path, capsys):
    prog = put(tmp_path, "prog.src", ZERO_SUCC)
    assert main(["solve", prog, "--query", "dec_field(zero, F)"]) == 1
    assert "no answers" in capsys.readouterr().out


PAIR = """
class Pair { fst; snd; Pair(a, b) { this.fst = a; this.snd = b; } second() { return this.snd; } }
"""


@pytest.mark.parametrize("query,answer", [
    ("invoke(obj(pair,[fst:int,snd:obj(k,[])]), second, [], R)", "R = obj(k,[])"),
    ("field_acc(obj(pair,[fst:int,snd:obj(k,[])]), fst, R)", "R = int"),
])
def test_solve_multi_field_record_access(tmp_path, capsys, query, answer):
    prog = put(tmp_path, "pair.prog", PAIR)
    assert main(["solve", prog, "--query", query]) == 0
    assert capsys.readouterr().out.splitlines() == [answer]


def test_solve_open_record_access(tmp_path, capsys):
    prog = put(tmp_path, "pair.prog", PAIR)
    query = "rec_acc([fst:int,snd:obj(k,[])|Q], snd, T)"
    assert main(["solve", prog, "--query", query]) == 0
    # the tail Q stays unbound and no other binding reaches it
    assert capsys.readouterr().out.splitlines() == ["T = obj(k,[])"]
    assert main(["solve", prog, "--query", query, "--format", "json"]) == 0
    answer, = json.loads(capsys.readouterr().out)["answers"]
    assert answer["text"] == "T = obj(k,[])"
    assert sorted(answer["bindings"]) == ["Q", "T"]


def test_solve_bad_query_is_usage_error(tmp_path, capsys):
    prog = put(tmp_path, "prog.src", ZERO_SUCC)
    assert main(["solve", prog, "--query", "invoke("]) == 2
    capsys.readouterr()


def test_non_ascii_digit_in_program_is_usage_error(tmp_path, capsys):
    # "²" passes str.isdigit but is no decimal numeral
    prog = put(tmp_path, "prog.src", "class A { m() { return ²; } }")
    assert main(["compile", prog]) == 2
    assert "unexpected character" in capsys.readouterr().err
    assert main(["solve", prog, "--query", "class(a)"]) == 2
    assert "unexpected character" in capsys.readouterr().err


def test_non_ascii_digit_in_query_is_usage_error(tmp_path, capsys):
    prog = put(tmp_path, "prog.src", ZERO_SUCC)
    assert main(["solve", prog, "--query", "invoke(², add, [], R)"]) == 2
    assert "line 1, col 8: unexpected character" in capsys.readouterr().err


def test_solve_prints_deep_answer(tmp_path, capsys):
    # the answer is as deep as the query's type; printing it recurses on
    # that depth after the search has ended
    prog = put(tmp_path, "id.src", "class Id { m(x) { return x; } }")
    deep = "obj(a,[f: " * 450 + "int" + "])" * 450
    query = "T = %s; invoke(obj(id,[]), m, [T], R)" % deep
    limit = sys.getrecursionlimit()
    assert main(["solve", prog, "--query", query]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "R = " + "obj(a,[f:" * 450 + "int" + "])" * 450
    assert sys.getrecursionlimit() == limit
