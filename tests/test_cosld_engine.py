import gc
import itertools
import random
import re
import sys
import time

import pytest

from coinfer.horn_compiler import (
    Atom,
    Const,
    HornClause,
    IntTerm,
    ListTerm,
    ObjTerm,
    Record,
    UnionTerm,
    Var,
    compile_program,
    parse_program,
)
from coinfer import cosld_engine
from coinfer.cosld_engine import (
    EngineError,
    SolverConfig,
    check_answer,
    copy_term,
    deref,
    format_answer,
    format_term_text,
    logic_equal,
    logic_to_type,
    parse_query,
    solve,
    type_to_logic,
    unify_rational,
)
from coinfer.term_core import canonicalize, equal, type_from_source
from coinfer.subtyping import equivalent, subtype

from conftest import number_types, reference_solve, rename_unify_oracle, unstamped

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


def clauses_for(source):
    return compile_program(parse_program(source))


def ground(pred, *names):
    return Atom(pred, [Const(n) for n in names])


# ---------------------------------------------------------------------------
# bottom-up oracle for the constant-argument fragment of a clause set

DATALOG_PREDS = {
    "class": 1,
    "extends": 2,
    "subclass": 2,
    "dec_field": 2,
    "not_dec_field": 2,
    "has_field": 2,
    "dec_meth": 2,
    "not_dec_meth": 2,
}


def _const_only(atom):
    return (atom.pred in DATALOG_PREDS
            and all(isinstance(a, (Const, Var)) for a in atom.args))


def datalog_saturate(clauses):
    """Naive bottom-up fixpoint of the clauses whose atoms carry only
    constants and variables, with variables ranging over every constant
    in the fragment."""
    rules = [c for c in clauses
             if _const_only(c.head) and all(_const_only(b) for b in c.body)]
    universe = set()
    for c in rules:
        for atom in [c.head] + c.body:
            for a in atom.args:
                if isinstance(a, Const):
                    universe.add(a.name)
    universe = sorted(universe)

    def instances(clause):
        names = []
        for atom in [clause.head] + clause.body:
            for a in atom.args:
                if isinstance(a, Var) and a.name not in names:
                    names.append(a.name)
        for combo in itertools.product(universe, repeat=len(names)):
            sub = dict(zip(names, combo))
            yield (_subst(clause.head, sub),
                   [_subst(b, sub) for b in clause.body])

    def _subst(atom, sub):
        return (atom.pred,
                tuple(sub[a.name] if isinstance(a, Var) else a.name
                      for a in atom.args))

    facts = set()
    changed = True
    while changed:
        changed = False
        for clause in rules:
            for head, body in instances(clause):
                if head not in facts and all(b in facts for b in body):
                    facts.add(head)
                    changed = True
    return facts, universe


def sld_config(**kw):
    base = dict(subsumption_enabled=False, coinduction_enabled=False,
                iterative=False, max_depth=24)
    base.update(kw)
    return SolverConfig(**base)


def random_class_program(rng):
    n = rng.randint(2, 4)
    names = ["C%d" % i for i in range(n)]
    lines = []
    for i, nm in enumerate(names):
        sup = rng.choice(["object"] + names[:i])
        fields = [f for f in ("f", "g") if rng.random() < 0.5]
        meths = [m for m in ("m", "k") if rng.random() < 0.5]
        lines.append("class %s extends %s {" % (nm, sup))
        for f in fields:
            lines.append("  %s;" % f)
        if fields:
            params = ["x%d" % j for j in range(len(fields))]
            assigns = " ".join("this.%s = %s;" % (f, p)
                               for f, p in zip(fields, params))
            lines.append("  %s(%s) { %s }" % (nm, ", ".join(params), assigns))
        for m in meths:
            lines.append("  %s() { return this; }" % m)
        lines.append("}")
    return "\n".join(lines)


def test_oracle_agreement_on_constant_queries():
    rng = random.Random(20)
    sources = [ZERO_SUCC] + [random_class_program(rng) for _ in range(10)]
    for src in sources:
        clauses = clauses_for(src)
        facts, universe = datalog_saturate(clauses)
        cfg = sld_config()
        for pred, arity in sorted(DATALOG_PREDS.items()):
            for combo in itertools.product(universe, repeat=arity):
                res = solve(ground(pred, *combo), clauses, cfg)
                assert res.complete and not res.depth_hit
                assert bool(res.answers) == ((pred, combo) in facts), \
                    "%s(%s) disagrees with bottom-up oracle" % (pred, ",".join(combo))


def test_subclass_answers_are_deduplicated():
    clauses = clauses_for(ZERO_SUCC)
    res = solve(ground("subclass", "succ", "object"), clauses, SolverConfig())
    assert len(res.answers) == 1
    assert res.complete


# ---------------------------------------------------------------------------
# unification over rational terms

def test_unify_cyclic_self_reference():
    x = Var("X")
    cyc = UnionTerm(Const("int"), None)
    cyc.right = x
    assert unify_rational(x, cyc)
    t = logic_to_type(copy_term(x))
    assert equal(t, type_from_source("T = int \\/ T; root T;"))


def test_unify_object_field():
    y = Var("Y")
    a = ObjTerm(Const("c"), Record([("f", Const("int"))]))
    b = ObjTerm(Const("c"), Record([("f", y)]))
    assert unify_rational(a, b)
    assert deref(y).name == "int"


def test_unify_row_extension():
    r, n, r2 = Var("R"), Var("N"), Var("R2")
    a = ObjTerm(Const("c"), r)
    b = ObjTerm(Const("c"), Record([("pred", n)], r2))
    assert unify_rational(a, b)
    bound = deref(r)
    assert isinstance(bound, Record)
    assert [k for k, _ in bound.pairs] == ["pred"]
    assert deref(bound.tail) is deref(r2)


def test_unify_open_record_against_closed():
    r = Var("R")
    a = Record([("f", Const("int"))], r)
    b = Record([("f", Const("int")), ("g", Const("bool"))])
    assert unify_rational(a, b)
    rest = deref(r)
    assert isinstance(rest, Record)
    assert rest.tail is None and [k for k, _ in rest.pairs] == ["g"]


def test_unify_open_records_share_fresh_row():
    r1, r2 = Var("R1"), Var("R2")
    a = Record([("f", Const("int"))], r1)
    b = Record([("g", Const("int"))], r2)
    assert unify_rational(a, b)
    ra, rb = deref(r1), deref(r2)
    assert [k for k, _ in ra.pairs] == ["g"]
    assert [k for k, _ in rb.pairs] == ["f"]
    assert deref(ra.tail) is deref(rb.tail)


def test_unify_closed_width_mismatch_fails():
    a = Record([("f", Const("int"))])
    b = Record([("f", Const("int")), ("g", Const("int"))])
    assert not unify_rational(a, b)


def test_unify_variable_key_singleton():
    f, t = Var("F"), Var("T")
    pat = Record([(f, t)])
    rec = Record([("pred", Const("int"))])
    assert unify_rational(pat, rec)
    assert deref(f).name == "pred"
    assert deref(t).name == "int"
    f2, t2 = Var("F"), Var("T")
    two = Record([("a", Const("int")), ("b", Const("int"))])
    assert not unify_rational(Record([(f2, t2)]), two)


def test_unify_bisimilar_cycles():
    a = UnionTerm(Const("int"), None)
    a.right = a
    inner = UnionTerm(Const("int"), None)
    b = UnionTerm(Const("int"), inner)
    inner.right = b
    assert unify_rational(a, b)


def test_unify_empty_list_and_empty_record():
    assert unify_rational(ListTerm([]), Record([]))


# ---------------------------------------------------------------------------
# rows: what a list or record spine spells

def cyclic_list(item):
    tail = Var("T")
    tail.ref = ListTerm([item], tail)
    return tail.ref


def bound_key(name):
    key = Var("K")
    key.ref = Const(name)
    return key


@pytest.mark.parametrize("make, other, text", [
    (lambda: ListTerm([Const("a")], Record([("f", Const("int"))])),
     lambda: ListTerm([Const("a")], Var("T")), "[a|[f:int]]"),
    (lambda: Record([("f", Const("int"))], ListTerm([Const("a")])),
     lambda: Record([("f", Const("int"))], Var("T")), "[f:int|[a]]"),
    (lambda: cyclic_list(Const("a")),
     lambda: ListTerm([Const("a"), Const("a")], Var("T")), "T0 where T0 = [a|T0]"),
    (lambda: Record([(bound_key("f"), Const("a")), ("f", Const("int"))]),
     lambda: Record([("f", Const("int"))]), "[f:a,f:int]"),
], ids=["list_ending_in_a_record", "record_ending_in_a_list", "cyclic_list",
        "bound_key_repeats_a_key"])
def test_spines_that_spell_no_row(make, other, text):
    """Such a spine is no list and no record: it neither unifies nor is
    equal even with a copy of itself, nor unifies with an open row, and a
    copy keeps it as written."""
    a = make()
    assert cosld_engine._row(a) is cosld_engine._FAIL
    assert not logic_equal(a, make())
    assert not unify_rational(a, make())
    assert not unify_rational(a, other())
    copy = copy_term(a)
    assert type(copy) is type(a)
    assert format_term_text(copy) == text


def test_record_spine_through_an_empty_list():
    rec = Record([("f", Const("int"))], ListTerm([], Record([("g", Const("a"))])))
    flat = Record([("g", Const("a")), ("f", Const("int"))])
    assert logic_equal(rec, flat)
    assert format_term_text(copy_term(rec)) == "[f:int,g:a]"
    tail = Var("T")
    assert unify_rational(Record([("f", Const("int"))], ListTerm([], tail)), flat)
    assert format_term_text(deref(tail)) == "[g:a]"


@pytest.mark.parametrize("nil", [ListTerm([]), Record([])], ids=["list", "record"])
def test_empty_row_against_an_open_empty_record(nil):
    # the tail is bound to an empty list beside a list, an empty record
    # beside a record
    tail = Var("R")
    rec = Record([], tail)
    assert not logic_equal(nil, rec)
    assert unify_rational(nil, rec)
    assert type(deref(tail)) is type(nil)
    assert logic_equal(nil, rec)
    assert format_term_text(copy_term(rec)) == "[]"


# ---------------------------------------------------------------------------
# conversions

def test_type_logic_round_trip():
    types = number_types()
    for name in ("zer", "nat", "pos", "evn", "odd"):
        t = types[name]
        back = logic_to_type(type_to_logic(t))
        assert equal(back, t)


def test_logic_to_type_rejects_free_variables():
    assert logic_to_type(ObjTerm(Const("c"), Record([("f", Var("X"))]))) is None
    assert logic_to_type(ObjTerm(Const("c"), Var("R"))) is None


# ---------------------------------------------------------------------------
# solving

def test_solve_new_succ_builds_record():
    clauses = clauses_for(ZERO_SUCC)
    n, x = Var("N"), Var("X")
    res = solve(Atom("new", [Const("succ"), ListTerm([n]), x]), clauses,
                SolverConfig())
    assert res.complete and len(res.answers) == 1
    obj = deref(res.answers[0].bindings["X"])
    assert isinstance(obj, ObjTerm) and deref(obj.cls).name == "succ"
    rec = deref(obj.rec)
    assert rec.tail is None
    assert [k for k, _ in rec.pairs] == ["pred"]
    # the constructor argument flows through unchanged
    assert deref(rec.pairs[0][1]) is deref(res.answers[0].bindings["N"])


def test_solve_new_zero_closes_row():
    clauses = clauses_for(ZERO_SUCC)
    x = Var("X")
    res = solve(Atom("new", [Const("zero"), ListTerm([]), x]), clauses,
                SolverConfig())
    assert res.complete and len(res.answers) == 1
    t = logic_to_type(res.answers[0].bindings["X"])
    assert equal(t, type_from_source("T = obj(zero, []); root T;"))


def test_solve_multi_field_constructor():
    src = """
    class Pair {
        f; g;
        Pair(a, b) { this.f = a; this.g = b; }
    }
    """
    clauses = clauses_for(src)
    a, b, x = Var("A"), Var("B"), Var("X")
    res = solve(Atom("new", [Const("pair"), ListTerm([a, b]), x]), clauses,
                SolverConfig())
    assert len(res.answers) == 1
    rec = deref(deref(res.answers[0].bindings["X"]).rec)
    assert sorted(k for k, _ in rec.pairs) == ["f", "g"] and rec.tail is None


PAIR = """
class Pair {
    fst; snd;
    Pair(a, b) { this.fst = a; this.snd = b; }
    second() { return this.snd; }
}
"""
PAIR_TYPE = "T = obj(pair, [fst: int, snd: obj(k, [])]); root T;"


@pytest.mark.parametrize("pred,middle,expect", [
    ("invoke", [Const("second"), ListTerm([])], "obj(k, [])"),
    ("field_acc", [Const("fst")], "int"),
    ("field_acc", [Const("snd")], "obj(k, [])"),
], ids=["invoke_second", "field_acc_fst", "field_acc_snd"])
def test_multi_field_record_access(pred, middle, expect):
    # rec_acc's [F:T] pattern is unified after the key F: the bound field
    # name is then looked up in a record of any width
    pair = type_to_logic(type_from_source(PAIR_TYPE))
    res = solve(Atom(pred, [pair] + middle + [Var("R")]), clauses_for(PAIR), SolverConfig())
    assert res.complete and len(res.answers) == 1
    got = logic_to_type(res.answers[0].bindings["R"])
    assert equal(got, type_from_source("T = %s; root T;" % expect))


def test_multi_field_record_access_missing_field_fails():
    pair = type_to_logic(type_from_source(PAIR_TYPE))
    res = solve(Atom("field_acc", [pair, Const("thd"), Var("R")]), clauses_for(PAIR),
                SolverConfig())
    assert res.answers == [] and res.complete


def test_multi_field_record_access_unbound_field_enumerates_fields():
    # has_field binds the field name before rec_acc runs
    pair = type_to_logic(type_from_source(PAIR_TYPE))
    res = solve(Atom("field_acc", [pair, Var("F"), Var("R")]), clauses_for(PAIR),
                SolverConfig())
    assert res.complete
    assert [deref(a.bindings["F"]).name for a in res.answers] == ["fst", "snd"]


@pytest.mark.parametrize("key,expect", [("snd", "obj(k, [])"), ("fst", "int"), ("thd", None)])
def test_bound_key_looked_up_in_open_record(key, expect):
    # a bound key present among an open record's known fields is looked
    # up there; an absent key keeps plain unification, which fails on the
    # known fields the one-field pattern lacks
    known = deref(type_to_logic(type_from_source(PAIR_TYPE)).rec).pairs
    rec = Record(list(known), Var("Q"))
    res = solve(Atom("rec_acc", [rec, Const(key), Var("T")]), clauses_for(PAIR),
                SolverConfig())
    assert res.complete
    if expect is None:
        assert res.answers == []
    else:
        assert len(res.answers) == 1
        got = logic_to_type(res.answers[0].bindings["T"])
        assert equal(got, type_from_source("T = %s; root T;" % expect))


def test_unbound_key_over_multi_field_record_enumerates_fields():
    # a [K:V] pattern whose key nothing binds meets a closed record of two
    # fields: one way per field, in key order; a one-field record gives one
    rec = deref(type_to_logic(type_from_source(PAIR_TYPE)).rec)
    clauses = clauses_for(PAIR)
    res = solve(Atom("rec_acc", [rec, Var("K"), Var("V")]), clauses, SolverConfig())
    assert res.complete
    assert [format_answer(a) for a in res.answers] == ["K = fst\nV = int",
                                                       "K = snd\nV = obj(k,[])"]
    one = Record([("fst", type_to_logic(type_from_source("T = int; root T;")))])
    res = solve(Atom("rec_acc", [one, Var("K"), Var("V")]), clauses, SolverConfig())
    assert [deref(a.bindings["K"]).name for a in res.answers] == ["fst"]


def test_record_bound_by_a_goal_is_not_looked_up():
    # only a clause head's [K:V] pattern is a lookup: the one-field record
    # rec_acc binds R to stays closed, so the wider record of p's fact
    # does not unify with it
    r, k, t = Var("R"), Var("K"), Var("T")
    wide = Record([("fst", IntTerm(1)), ("snd", IntTerm(2))])
    clauses = clauses_for(PAIR) + [
        HornClause(Atom("p", [wide, Const("fst")])),
        HornClause(Atom("q", [r, k]), [Atom("rec_acc", [r, k, t]), Atom("p", [r, k])]),
    ]
    res = solve(Atom("q", [Var("R"), Var("K")]), clauses, SolverConfig())
    assert res.answers == [] and res.complete


def test_solve_invoke_on_zero():
    clauses = clauses_for(ZERO_SUCC)
    types = number_types()
    zer, odd = type_to_logic(types["zer"]), type_to_logic(types["odd"])
    r = Var("R")
    res = solve(Atom("invoke", [zer, Const("add"), ListTerm([odd]), r]),
                clauses, SolverConfig())
    assert res.complete and len(res.answers) == 1
    assert equal(logic_to_type(res.answers[0].bindings["R"]), types["odd"])


def test_solve_invoke_evn_odd_with_subsumption():
    clauses = clauses_for(ZERO_SUCC)
    types = number_types()
    evn, odd = type_to_logic(types["evn"]), type_to_logic(types["odd"])
    res = solve(Atom("invoke", [evn, Const("add"), ListTerm([odd]), Var("R")]),
                clauses, SolverConfig())
    assert res.answers, "expected an answer within the default depth"
    got = logic_to_type(res.answers[0].bindings["R"])
    assert got is not None
    assert equivalent(got, types["odd"])
    assert res.subsumptions
    for pred, obligations in res.subsumptions:
        for smaller, larger in obligations:
            assert subtype(smaller, larger)


def test_solve_invoke_without_subsumption_exhausts_depth():
    clauses = clauses_for(ZERO_SUCC)
    types = number_types()
    evn, odd = type_to_logic(types["evn"]), type_to_logic(types["odd"])
    res = solve(Atom("invoke", [evn, Const("add"), ListTerm([odd]), Var("R")]),
                clauses, SolverConfig(subsumption_enabled=False))
    assert res.answers == []
    assert res.depth_hit and not res.complete


def test_answers_are_stable_under_rechecking():
    clauses = clauses_for(ZERO_SUCC)
    types = number_types()
    evn, odd = type_to_logic(types["evn"]), type_to_logic(types["odd"])
    res = solve(Atom("invoke", [evn, Const("add"), ListTerm([odd]), Var("R")]),
                clauses, SolverConfig())
    again = solve(res.answers[0].atom, clauses, SolverConfig())
    assert again.answers


def test_depth_limit_reported_as_inconclusive():
    chain = []
    for i in range(6):
        sup = "object" if i == 0 else "C%d" % (i - 1)
        body = "f;" if i == 0 else ""
        chain.append("class C%d extends %s { %s }" % (i, sup, body))
    clauses = clauses_for("\n".join(chain))
    shallow = solve(ground("has_field", "c5", "f"), clauses,
                    SolverConfig(max_depth=3, iterative=False))
    assert shallow.answers == [] and shallow.depth_hit and not shallow.complete
    deep = solve(ground("has_field", "c5", "f"), clauses, SolverConfig())
    assert deep.answers and deep.complete


def test_variance_table_must_cover_known_predicates():
    clauses = clauses_for(ZERO_SUCC)
    cfg = SolverConfig(variance={"frobnicate": ("inv", "co")})
    with pytest.raises(EngineError):
        solve(ground("class", "zero"), clauses, cfg)


EVN_ODD = ("EVN = obj(zero,[]) \\/ obj(succ,[pred: ODD]); ODD = obj(succ,[pred: EVN]);"
           " invoke(EVN, add, [ODD], R)")


@pytest.mark.parametrize("table, message", [
    (("inv", "bogus", "contra", "co"), "unknown variance 'bogus'"),
    (("inv", "inv", "contra"), "variance entry for 'invoke' has 3 positions, not 4"),
], ids=["unknown_name", "no_arity"])
def test_a_bad_variance_table_is_refused_before_the_search(table, message, monkeypatch):
    # a wrong length would turn subsumption off for the predicate, and an
    # unknown name would surface only at the first subsumption attempt
    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(cosld_engine._Engine, "_proofs", no_search)
    cfg = SolverConfig(variance={"invoke": table})
    with pytest.raises(EngineError, match="^%s$" % re.escape(message)):
        solve(parse_query(EVN_ODD), clauses_for(ZERO_SUCC), cfg)


def test_the_default_variance_table_passes_over_an_undefined_invoke():
    # the default table names invoke, which a hand-built clause set need
    # not define; a table the caller passes is still checked in full
    clauses = [HornClause(Atom("p", [IntTerm(k)])) for k in (1, 2, 3)]
    res = solve(Atom("p", [IntTerm(2)]), clauses)
    assert [format_answer(a) for a in res.answers] == ["p(2)"] and res.complete
    with pytest.raises(EngineError, match="^variance entry for undeclared predicate 'invoke'$"):
        solve(Atom("p", [IntTerm(2)]), clauses,
              SolverConfig(variance=cosld_engine.DEFAULT_VARIANCE))


def test_check_answer_directions():
    clauses = clauses_for(ZERO_SUCC)
    types = number_types()
    evn, odd = type_to_logic(types["evn"]), type_to_logic(types["odd"])
    query = Atom("invoke", [evn, Const("add"), ListTerm([odd]), Var("R")])
    res = solve(query, clauses, SolverConfig())
    answer = res.answers[0]
    assert check_answer(query, answer, types["odd"])
    assert not check_answer(query, answer, types["evn"])

    free = solve(Atom("new", [Const("succ"), ListTerm([Var("N")]), Var("X")]),
                 clauses, SolverConfig())
    with pytest.raises(ValueError):
        check_answer(query, free.answers[0], types["odd"])


def test_check_answer_reflexive_and_separating():
    clauses = clauses_for(ZERO_SUCC)
    types = number_types()
    zer, odd = type_to_logic(types["zer"]), type_to_logic(types["odd"])
    query = Atom("invoke", [zer, Const("add"), ListTerm([odd]), Var("R")])
    res = solve(query, clauses, SolverConfig())
    assert check_answer(query, res.answers[0], types["odd"])
    assert check_answer(query, res.answers[0], types["nat"])
    assert not check_answer(query, res.answers[0], types["evn"])


def test_parse_query_with_type_prelude():
    types = number_types()
    q = parse_query(
        "EVN = obj(zero, []) \\/ obj(succ, [pred: obj(succ, [pred: EVN])]);"
        " invoke(EVN, add, [EVN], R)")
    assert q.atom.pred == "invoke"
    assert equal(logic_to_type(q.atom.args[0]), types["evn"])
    # both mentions of EVN share one graph
    args = deref(q.atom.args[2])
    assert deref(args.items[0]) is deref(q.atom.args[0])
    assert isinstance(deref(q.atom.args[3]), Var)
    assert "R" in q.vars


def test_parse_query_rejects_garbage():
    with pytest.raises(EngineError):
        parse_query("invoke(")
    with pytest.raises(EngineError):
        parse_query("X = obj(zero, []); ")


@pytest.mark.parametrize("k", [451, 3000])
def test_parse_query_long_prelude_parses_once(k):
    # one resolve for all declared names, not one parse per name, and
    # no recursion on the chain's depth
    prelude = "".join("T%d = obj(a, [f: T%d]); " % (i, i + 1) for i in range(k - 1))
    source = prelude + "T%d = int; invoke(T0, m, [T%d], R)" % (k - 1, k - 1)
    start = time.perf_counter()
    q = parse_query(source)
    elapsed = time.perf_counter() - start
    assert len(q.types) == k
    assert q.types["T%d" % (k - 2)].fields["f"] is q.types["T%d" % (k - 1)]
    assert elapsed < 1.0, "a %d-equation prelude took %.2fs" % (k, elapsed)


@pytest.mark.parametrize("query", [
    "_X = obj(a, [f: _Y]); _Y = int; p(_X)",
    "_X = obj(a, [f: _Y]); _Y = int; field_acc(_X, f, R)",
    "_P = obj(pair, [fst: _I, snd: _K \\/ _I]); _I = int; _K = obj(k, []); field_acc(_P, F, R)",
])
def test_parse_query_prelude_takes_underscore_names(query):
    # a prelude binds the names the query grammar calls variables
    plain = re.sub(r"\b_", "", query)
    clauses = clauses_for(PAIR + "class A { f; A(x) { this.f = x; } }")
    got, want = (solve(parse_query(q).atom, clauses, SolverConfig()) for q in (query, plain))
    assert [format_answer(a) for a in got.answers] == [format_answer(a) for a in want.answers]
    assert got.complete == want.complete
    assert "field_acc" not in query or got.answers


def test_parse_query_prelude_error_names_its_equation():
    # a parse error names the equation it stands in, an unbound variable
    # the equation that refers to it; a resolve error names the first
    for query, message in [
            ("X = int; Y = obj(a, [f: Z]); invoke(X, m, [], R)",
             "in type equation for Y: unbound variable Z"),
            ("X = obj(a, [f: int]);\n  Y = (int; p(X)",
             "in type equation for Y: line 2, col 11: expected ')', found ';'"),
            ("X = int; Y = Z; p(X)", "in type equation for Y: unbound variable Z"),
            ("X = int Y = int; p(X)",
             "in type equation for X: line 1, col 9: expected ';', found 'Y'"),
            ("X = Y; Y = X; p(X)", "in type equation for X: variable cycle X = Y = X"),
    ]:
        with pytest.raises(EngineError) as err:
            parse_query(query)
        assert str(err.value).startswith(message), (query, str(err.value))


def test_format_answer_prints_equations_for_cycles():
    clauses = clauses_for(ZERO_SUCC)
    types = number_types()
    evn, odd = type_to_logic(types["evn"]), type_to_logic(types["odd"])
    res = solve(Atom("invoke", [evn, Const("add"), ListTerm([odd]), Var("R")]),
                clauses, SolverConfig())
    text = format_answer(res.answers[0])
    assert "R =" in text
    assert "where" in text and "\\/" in text

    simple = solve(Atom("new", [Const("zero"), ListTerm([]), Var("X")]),
                   clauses, SolverConfig())
    text = format_answer(simple.answers[0])
    assert text.strip() == "X = obj(zero,[])"


def test_logic_equal_distinguishes_and_identifies():
    a = UnionTerm(Const("int"), None)
    a.right = a
    b = UnionTerm(Const("int"), None)
    b.right = b
    assert logic_equal(a, b)
    c = UnionTerm(Const("bool"), None)
    c.right = c
    assert not logic_equal(a, c)


# ---------------------------------------------------------------------------
# clause indexing and goal selection

def forwarding_program(n):
    """Class Ci inherits m from C(i-1) and overrides it to call C(i-1)'s."""
    lines = ["class C0 { m(x) { return x; } }"]
    for i in range(1, n):
        lines.append("class C%d extends C%d { m(x) { return new C%d().m(x); } }"
                     % (i, i - 1, i - 1))
    return "\n".join(lines)


def solve_forwarding(n):
    clauses = clauses_for(forwarding_program(n))
    query = parse_query("invoke(obj(c%d,[]), m, [int], R)" % (n - 1))
    return solve(query, clauses, SolverConfig(max_depth=512))


def test_forwarding_hierarchy_scales():
    start = time.perf_counter()
    res = solve_forwarding(32)
    elapsed = time.perf_counter() - start
    assert len(res.answers) == 1
    int_type = type_from_source("T = int; root T;")
    assert equal(logic_to_type(res.answers[0].bindings["R"]), int_type)
    assert res.steps <= 1500
    assert elapsed < 1.0, "fwd 32 took %.2fs" % elapsed


def test_forwarding_hierarchy_step_count():
    # the not_dec_meth check of the inheritance clause runs before the
    # recursive has_meth goal it follows, so dead branches stop at once
    assert solve_forwarding(8).steps <= 120


BOXES = """
class Box { v; Box(x) { this.v = x; } get() { return v; } }
class Sub extends Box { }
"""


def test_union_receiver_search_completes():
    clauses = clauses_for(BOXES)
    query = parse_query("T1 = int; T2 = obj(k, []); "
                        "invoke(obj(box,[v:T1]) \\/ obj(sub,[v:T2]), get, [], R)")
    res = solve(query, clauses, SolverConfig())
    assert [format_answer(a) for a in res.answers] == ["R = int\\/obj(k,[])"]
    assert res.complete and not res.depth_hit


def test_readme_numerals_answers_unchanged():
    query = parse_query("EVN = obj(zero,[]) \\/ obj(succ,[pred: ODD]);"
                        " ODD = obj(succ,[pred: EVN]);"
                        " invoke(EVN, add, [ODD], R)")
    res = solve(query, clauses_for(ZERO_SUCC), SolverConfig())
    assert [format_answer(a) for a in res.answers] == [
        "R = T1 where T0 = obj(succ,[pred:obj(zero,[])\\/obj(succ,[pred:T0])]);"
        " T1 = T0\\/T1",
        "R = T0\\/T1 where T0 = obj(succ,[pred:obj(zero,[])\\/obj(succ,[pred:T0])]);"
        " T1 = obj(succ,[pred:obj(succ,[pred:T0])])\\/T1",
    ]


def test_solve_restores_recursion_limit():
    clauses = clauses_for(ZERO_SUCC)
    outer = sys.getrecursionlimit()
    sys.setrecursionlimit(2000)
    try:
        solve(ground("class", "zero"), clauses, SolverConfig())
        assert sys.getrecursionlimit() == 2000
        cfg = SolverConfig(variance={"frobnicate": ("inv", "co")})
        with pytest.raises(EngineError):
            solve(ground("class", "zero"), clauses, cfg)
        assert sys.getrecursionlimit() == 2000
    finally:
        sys.setrecursionlimit(outer)


# ---------------------------------------------------------------------------
# matching a goal against a stored clause head

@pytest.mark.parametrize("program,query,answers", [
    (ZERO_SUCC, "invoke(obj(zero,[]), add, [X], R)", ["X = N\nR = N"]),
    (PAIR, "new(pair, [X, Y], V)", ["X = A\nY = B\nV = obj(pair,[fst:A,snd:B])"]),
], ids=["numerals_add", "pair_new"])
def test_unbound_answer_variables_keep_clause_names(program, query, answers):
    # goal variables are bound to the clause's variables, never the other
    # way, so an answer that leaves them open prints the clause's names
    res = solve(parse_query(query), clauses_for(program), SolverConfig())
    assert [format_answer(a) for a in res.answers] == answers
    assert res.steps == 3 and res.complete and not res.depth_hit


@pytest.mark.parametrize("query,answer,names", [
    ("rec_acc([fst:int,snd:obj(k,[])|Q], snd, T)", "T = obj(k,[])", ["Q", "T"]),
    ("rec_acc([fst:int|Q], fst, int)", "rec_acc([fst:int|Q],fst,int)", ["Q"]),
], ids=["tail_left_out", "atom_when_none_left"])
def test_answer_leaves_out_unconstrained_variables(query, answer, names):
    # Q stays unbound and no other binding reaches it, so the text says
    # nothing about it; the bindings still hold every query variable
    res = solve(parse_query(query), clauses_for(PAIR), SolverConfig())
    assert [format_answer(a) for a in res.answers] == [answer]
    assert list(res.answers[0].bindings) == names


README_QUERIES = [
    (ZERO_SUCC, "EVN = obj(zero,[]) \\/ obj(succ,[pred: ODD]); ODD = obj(succ,[pred: EVN]);"
                " invoke(EVN, add, [ODD], R)"),
    (ZERO_SUCC, "invoke(obj(zero,[]), add, [X], R)"),
    (ZERO_SUCC, "new(succ, [N], X)"),
    (PAIR, "new(pair, [X, Y], V)"),
    (PAIR, "invoke(obj(pair,[fst:int,snd:obj(k,[])]), second, [], R)"),
    (PAIR, "rec_acc([fst:int,snd:obj(k,[])|Q], snd, T)"),
    (PAIR, "rec_acc([fst:int], K, V)"),
    (PAIR, "field_acc(obj(pair,[fst:int,snd:obj(k,[])]), F, T)"),
    (PAIR, "field_acc(obj(pair,[fst:int|Q]), fst, T)"),
]

BOX_FWD = """
class {box} {{ {val}; {box}(v) {{ this.{val} = v; }} get() {{ return {val}; }} put(x) {{ return new {box}(x); }} }}
class {sub} extends {box} {{ }}
class Wrap {{ item; Wrap(i) {{ this.item = i; }} open() {{ return item.get(); }} rewrap() {{ return new Wrap(new {box}(item.get())); }} }}
"""


def box_fwd_queries(seed):
    """A seeded box program with a forwarding hierarchy beside it, and
    queries over both."""
    rng = random.Random(seed)
    names = {"box": rng.choice(["Box", "Cell"]), "sub": rng.choice(["Sub", "Inner"]),
             "val": rng.choice(["v", "item", "val"])}
    n = rng.randint(2, 6)
    program = BOX_FWD.format(**names) + forwarding_program(n)
    box, sub, val = names["box"].lower(), names["sub"].lower(), names["val"]
    t1, t2 = rng.sample(["int", "obj(k, [])", "obj(k, [x: int])", "obj(j, [y: obj(k, [])])"], 2)
    prelude = "T1 = %s; T2 = %s; " % (t1, t2)
    atoms = [
        "invoke(obj(%s,[%s: T1]), get, [], R)" % (box, val),
        "invoke(obj(%s,[%s: T1]), put, [T2], R)" % (box, val),
        "invoke(obj(%s,[%s: T1]) \\/ obj(%s,[%s: T2]), get, [], R)" % (box, val, sub, val),
        "field_acc(obj(%s,[%s: T1]), F, R)" % (sub, val),
        "invoke(obj(wrap,[item: obj(%s,[%s: T1])]), open, [], R)" % (sub, val),
        "invoke(obj(wrap,[item: obj(%s,[%s: T1])]), rewrap, [], R)" % (sub, val),
        "invoke(obj(c%d,[]), m, [T1], R)" % (n - 1),
        "new(%s, [X], V)" % box,
    ]
    return [(program, prelude + atom) for atom in atoms]


def test_head_matching_agrees_with_rename_and_unify(monkeypatch):
    # every (goal, clause) pair the solver meets is resolved both ways, on
    # the same goal: by the oracle, whose bindings are then undone, and by
    # the matcher, which the search goes on with
    match_head = cosld_engine._match_head
    outcomes = []

    def snapshot(goal, body):
        return copy_term(ListTerm([ListTerm(a.args) for a in [goal] + body]))

    def both(goal, head, trail):
        clause = clause_of[id(head)]
        mark = len(trail)
        body = rename_unify_oracle(goal, clause, trail)
        want = body is not None and snapshot(goal, body)
        cosld_engine._undo(trail, mark)
        m = match_head(goal, head, trail)
        assert (m is not None) == (body is not None), format_term_text(ListTerm(goal.args))
        if m is not None:
            inst = dict(m)
            got = snapshot(goal, [Atom(b.pred, [cosld_engine._instance(a, inst) for a in b.args])
                                  for b in clause.body])
            assert logic_equal(got, want)
            assert format_term_text(got) == format_term_text(want)
        outcomes.append(m is not None)
        return m

    monkeypatch.setattr(cosld_engine, "_match_head", both)
    cases = README_QUERIES + [case for seed in range(4) for case in box_fwd_queries(seed)]
    for program, query in cases:
        clauses = clauses_for(program)
        clause_of = {id(c.head): c for c in clauses}
        res = solve(parse_query(query), clauses, SolverConfig())
        assert res.answers, query
    assert outcomes.count(True) > 500 and outcomes.count(False) > 100


def _outcome(res):
    return ([format_answer(a) for a in res.answers], res.complete, res.depth_hit, res.steps,
            [(pred, len(obligations)) for pred, obligations in res.subsumptions])


def test_goal_stack_agrees_with_nested_generators():
    # the stack of choice points finds the same answers in the same order,
    # with the same budgets hit, steps taken and subsumptions made, as the
    # nested generators it replaced
    configs = [SolverConfig(), SolverConfig(subsumption_enabled=False, max_depth=16),
               SolverConfig(max_steps=40), SolverConfig(max_answers=1)]
    cases = [(clauses_for(program), parse_query(query), cfg)
             for program, query in README_QUERIES
             + [case for seed in range(3) for case in box_fwd_queries(seed)]
             for cfg in configs]
    cases.append((clauses_for(forwarding_program(8)),
                   parse_query("invoke(obj(c7,[]), m, [int], R)"), SolverConfig(max_depth=512)))
    cases += [(clauses_for(ZERO_SUCC), parse_query(query), SolverConfig(max_depth=depth))
              for query in ("invoke(obj(zero,[]), add, [X], R)", "new(succ, [N], X)",
                            "EVN = obj(zero,[]) \\/ obj(succ,[pred: ODD]); "
                            "ODD = obj(succ,[pred: EVN]); invoke(ODD, add, [EVN], R)",
                            "E = obj(zero, []) \\/ obj(succ, [pred: obj(succ, [pred: E])]); "
                            "O = obj(succ, [pred: obj(zero, [])]) \\/ "
                            "obj(succ, [pred: obj(succ, [pred: O])]); invoke(E, add, [O], R)")
              for depth in (4, 16, 64)]
    rng = random.Random(20)
    for src in [random_class_program(rng) for _ in range(4)]:
        clauses = clauses_for(src)
        universe = sorted({a.name for c in clauses for a in c.head.args if type(a) is Const})
        for pred, arity in sorted(DATALOG_PREDS.items()):
            for combo in itertools.product(universe, repeat=arity):
                cases += [(clauses, ground(pred, *combo), cfg)
                          for cfg in (sld_config(), SolverConfig())]
    assert len(cases) > 1000
    for clauses, query, cfg in cases:
        assert _outcome(solve(query, clauses, cfg)) == _outcome(reference_solve(query, clauses, cfg))


# ---------------------------------------------------------------------------
# prelude terms stamped with their canonical type

def _terms(atom):
    """Every compound term the atom's arguments reach, once each."""
    out, seen, todo = [], set(), list(atom.args)
    while todo:
        t = deref(todo.pop())
        if type(t) in (Var, Const, IntTerm) or id(t) in seen:
            continue
        seen.add(id(t))
        out.append(t)
        todo.extend(cosld_engine._kids(t))
    return out


def union_receiver(n, inline=False):
    """field_acc on a union of n boxes, each holding its own class, named
    in the prelude or written inline."""
    alts = " \\/ ".join("obj(box, [v: obj(c%d, [])])" % i for i in range(n))
    return parse_query(("field_acc(%s, v, R)" if inline else "U = %s; field_acc(U, v, R)")
                       % alts)


def test_prelude_terms_carry_their_canonical_node():
    q = parse_query("E = obj(zero,[]) \\/ obj(succ,[pred: O]); O = obj(succ,[pred: E]);"
                    " X = int; invoke(E, add, [O, X, obj(k, [])], R)")
    e, _, args, _ = q.atom.args
    assert e.stamp is canonicalize(q.types["E"])
    assert args.items[0].stamp is canonicalize(q.types["O"])
    assert e.right.rec.pairs[0][1] is args.items[0]  # the names share their terms
    assert type(args.items[1]) is Const and args.items[2].stamp is None  # inline: unstamped
    stamped = [t for t in _terms(q.atom) if type(t) in (ObjTerm, UnionTerm)
               and t is not args.items[2]]
    assert len(stamped) == 4 and all(t.stamp is not None for t in stamped)
    # in a query that writes a union, the ground terms written inline are
    # stamped too, and so is a union over a prelude name
    u = parse_query("K = obj(k, []); p(obj(k, []) \\/ obj(j, [f: int]), K \\/ obj(j, [f: int]),"
                    " obj(i, [f: X]))").atom.args
    kj = type_from_source("U = obj(k, []) \\/ obj(j, [f: int]); root U")
    assert u[0].stamp is canonicalize(kj) and u[1].stamp is u[0].stamp
    assert u[0].left.stamp is canonicalize(type_from_source("K = obj(k, []); root K"))
    assert u[2].stamp is None  # not ground
    # answers are copies: no stamp leaves the solver
    res = solve(parse_query(README_QUERIES[0][1]), clauses_for(ZERO_SUCC), SolverConfig())
    assert res.answers
    for answer in res.answers:
        for term in [ListTerm(answer.atom.args)] + list(answer.bindings.values()):
            assert all(getattr(t, "stamp", None) is None for t in _terms(Atom("p", [term])))


def test_stamped_terms_unify_by_identity():
    q = parse_query("A = obj(a, [f: A]); B = obj(a, [f: obj(a, [f: B])]); C = obj(a, [f: D]);"
                    " D = obj(b, []); p(A, B, C)")
    a, b, c = q.atom.args
    assert a is not b and a.stamp is b.stamp
    trail = []
    assert cosld_engine._unify(a, b, trail, set()) and trail == []
    assert not cosld_engine._unify(a, c, trail, set())
    # an unstamped copy is walked, with the same verdicts
    a2, b2, c2 = unstamped(q).args
    assert unify_rational(a2, b) and not unify_rational(c2, a)


STAMP_QUERIES = [
    (ZERO_SUCC, "E = obj(zero, []) \\/ obj(succ, [pred: obj(succ, [pred: E])]); "
                "O = obj(succ, [pred: obj(zero, [])]) \\/ obj(succ, [pred: obj(succ, [pred: O])]);"
                " invoke(E, add, [O], R)"),  # not minimal
    (ZERO_SUCC, "A = obj(succ, [pred: B]); B = obj(succ, [pred: C]) \\/ obj(zero, []);"
                " C = obj(succ, [pred: A]); invoke(A, add, [B], R)"),  # mutually recursive
    (ZERO_SUCC, "X = Y; Y = obj(zero, []) \\/ obj(succ, [pred: X]); invoke(X, add, [Y], R)"),
    (PAIR, "T = int; K = obj(k, []); P = obj(pair, [fst: T, snd: K]);"
           " invoke(P, second, [], R)"),
    (PAIR, "P = obj(pair, [fst: int, snd: obj(k, [])]); Q = obj(pair, [fst: int, snd: obj(k, [])]);"
           " field_acc(P \\/ Q, F, T)"),
    (PAIR, "K = obj(k, []); field_acc(obj(pair, [fst: int, snd: K]) \\/ obj(pair, [fst: X,"
           " snd: obj(k, [])]), F, T)"),  # ground terms inline, some inside a term with a variable
]


def test_stamps_change_no_outcome():
    # the same answers in the same order, budgets, steps and subsumptions
    # with the prelude's stamps as with an unstamped copy of the query
    configs = [SolverConfig(), SolverConfig(subsumption_enabled=False, max_depth=16),
               SolverConfig(max_steps=40), SolverConfig(max_answers=1)]
    cases = [(clauses_for(program), parse_query(query))
             for program, query in README_QUERIES + STAMP_QUERIES
             + [case for seed in range(3) for case in box_fwd_queries(seed)]]
    boxes = clauses_for(BOXES.replace("class Sub extends Box { }", ""))
    cases += [(boxes, union_receiver(50)), (boxes, union_receiver(50, inline=True))]
    for clauses, query in cases:
        for cfg in configs:
            got = _outcome(solve(query, clauses, cfg))
            assert got == _outcome(solve(unstamped(query), clauses, cfg))
            assert got == _outcome(reference_solve(query, clauses, cfg))


def test_subsumption_decides_each_canonical_pair_once(monkeypatch):
    pairs = []

    def counting(small, large):
        pairs.append((small, large))
        return subtype(small, large)

    monkeypatch.setattr(cosld_engine, "subtype", counting)
    query, clauses = parse_query(README_QUERIES[0][1]), clauses_for(ZERO_SUCC)
    res = solve(query, clauses, SolverConfig())
    obligations = sum(len(o) for _, o in res.subsumptions)
    assert pairs and len(pairs) == len(set(pairs)) < obligations
    assert all(canonicalize(s) is s and canonicalize(t) is t for s, t in pairs)
    monkeypatch.undo()
    assert _outcome(res) == _outcome(solve(unstamped(query), clauses, SolverConfig()))


@pytest.mark.parametrize("term,key", [
    ("obj(a, [])", cosld_engine.ObjTerm), ("A", None), ("a", "a"), ("3", 3),
    ("[a]", None), ("[f: a]", None), ("obj(a, []) \\/ obj(b, [])", cosld_engine.UnionTerm),
])
def test_goal_key(term, key):
    # a stamped term keys by its stamp, an unstamped one by its class; a
    # union written inline is stamped
    q = parse_query("p(%s)" % term)
    assert cosld_engine._goal_key(unstamped(q)) == key
    stamp = getattr(q.atom.args[0], "stamp", None)
    assert (stamp is not None) == (key is cosld_engine.UnionTerm)
    assert cosld_engine._goal_key(q.atom) == (key if stamp is None else stamp)
    stamped = parse_query("T = obj(a, []); p(T)").atom
    assert cosld_engine._goal_key(stamped) is stamped.args[0].stamp
    assert cosld_engine._goal_key(Atom("p", [])) is None


def test_integer_first_arguments_select_clauses_by_value(monkeypatch):
    # the goal key indexes clauses: an integer selects the facts with its
    # value (and the unkeyed ones), not every integer-headed fact
    clauses = [HornClause(Atom("p", [IntTerm(k)])) for k in (1, 2, 3)]
    cfg = SolverConfig(variance={})  # no invoke clause
    calls = []
    match_head = cosld_engine._match_head

    def counting(goal, head, trail):
        calls.append(head)
        return match_head(goal, head, trail)

    monkeypatch.setattr(cosld_engine, "_match_head", counting)
    res = solve(Atom("p", [IntTerm(2)]), clauses, cfg)
    assert len(calls) == 1 and calls[0] is clauses[1].head
    monkeypatch.undo()
    for goal in (Atom("p", [IntTerm(2)]), Atom("p", [Var("X")])):
        assert _outcome(solve(goal, clauses, cfg)) == _outcome(reference_solve(goal, clauses, cfg))
    assert [format_answer(a) for a in solve(Atom("p", [Var("X")]), clauses, cfg).answers] == [
        "X = 1", "X = 2", "X = 3"]
    assert [format_answer(a) for a in res.answers] == ["p(2)"]


# ---------------------------------------------------------------------------
# ground-fact-first selection, linear in the body

def _new_args_program(n):
    params = ", ".join("x%d" % i for i in range(n))
    return ("class A { f; A(x) { this.f = x; } }\n"
            "class B { k(%s) { return x0; } m(y) { return this.k(%s); } }\n"
            % (params, ", ".join(["new A(y)"] * n)))


def test_bound_fact_selection_is_linear_in_the_body():
    # each step reads only the body goals on fact predicates, so a body of
    # n goals costs O(n), not O(n²), in fact checks.  The collector is off
    # while a solve is timed: its full passes over the live goals grow
    # with them, and this checks the solver's own work.
    def run(n):
        clauses = clauses_for(_new_args_program(n))
        query = parse_query("invoke(obj(b,[]), m, [int], R)")
        best = None
        for _ in range(3):
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                res = solve(query, clauses, SolverConfig())
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            best = elapsed if best is None else min(best, elapsed)
        assert [format_answer(a) for a in res.answers] == ["R = obj(a,[f:int])"]
        return res.steps, best

    (steps2, t2), (steps4, t4) = run(2000), run(4000)
    assert (steps2, steps4) == (6006, 12006)
    assert t4 / t2 <= 2.5, "2000 -> 4000 new arguments: %.2fs -> %.2fs" % (t2, t4)


# ---------------------------------------------------------------------------
# walkers and parsers on terms deeper than the recursion limit

DEEP = 10_000


def deep_term(leaf, n=DEEP):
    """obj(a,[f:obj(a,[f: ... leaf ...])]), n objects deep."""
    for _ in range(n):
        leaf = ObjTerm(Const("a"), Record([("f", leaf)]))
    return leaf


DEEP_TEXT = "obj(a,[f:" * DEEP + "int" + "])" * DEEP


def test_deep_terms_exceed_the_recursion_limit():
    assert sys.getrecursionlimit() < DEEP


def test_unify_rational_deep():
    x = Var("X")
    assert unify_rational(deep_term(x), deep_term(Const("int")))
    assert deref(x).name == "int"
    assert not unify_rational(deep_term(Const("int")), deep_term(IntTerm(1)))


def test_copy_term_deep():
    x = Var("X")
    t = deep_term(x)
    assert unify_rational(x, Const("int"))
    copy = copy_term(t)
    for _ in range(DEEP):
        copy = copy.rec.pairs[0][1]
    assert type(copy) is Const and copy.name == "int"


def test_logic_equal_deep():
    assert logic_equal(deep_term(Const("int")), deep_term(Const("int")))
    assert not logic_equal(deep_term(Const("int")), deep_term(Var("X")))


def test_logic_to_type_deep():
    t = logic_to_type(deep_term(Const("int")))
    assert equal(t, type_from_source("T = %s; root T" % DEEP_TEXT))
    assert logic_to_type(deep_term(Var("X"))) is None


def test_format_term_text_deep():
    assert format_term_text(deep_term(Const("int"))) == DEEP_TEXT


def test_query_parser_deep():
    atom = parse_query("p([%s|Q], X)" % DEEP_TEXT).atom
    assert format_term_text(ListTerm(atom.args)) == "[[%s|Q],X]" % DEEP_TEXT


def test_program_parser_deep():
    program = parse_program("class A { x; A(x) { this.x = x; } m() { return %s1%s.x; } }"
                            % ("new A(" * DEEP, ")" * DEEP))
    [clause] = [c for c in compile_program(program) if c.head.pred == "has_meth"
                and isinstance(c.head.args[0], Const)]
    assert len(clause.body) == DEEP + 1
    assert [b.pred for b in clause.body[-2:]] == ["new", "field_acc"]
    assert format_term_text(clause.head.args[-1]) == "V%d" % DEEP


@pytest.mark.parametrize("n", [3000, DEEP])
def test_deep_clause_head_matches_without_recursion(n):
    # a hand-built clause head n objects deep: built for an unbound goal
    # variable (_instance), and matched against a goal of the same shape
    # (_match), under the default recursion limit
    t = deep_term(Const("int"), n)
    clauses = [HornClause(Atom("p", [t]))]
    res = solve(Atom("p", [Var("X")]), clauses, SolverConfig(variance={}))
    [answer] = res.answers
    assert logic_equal(answer.bindings["X"], t)
    res = solve(Atom("p", [deep_term(Var("Y"), n)]), clauses, SolverConfig(variance={}))
    [answer] = res.answers
    assert format_term_text(answer.bindings["Y"]) == "int"
