import re

import pytest

from coinfer.cosld_engine import format_answer, parse_query, solve
from coinfer.horn_compiler import (
    ProgramError,
    compile_program,
    format_clause,
    parse_program,
)

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

# the runtime and program clauses expected for the Zero/Succ listing;
# variable names are immaterial (compared up to consistent renaming)
GOLDEN = """
class(object).
class(zero).
class(succ).
extends(zero,object).
extends(succ,object).
subclass(X,X) :- class(X).
subclass(X,object) :- class(X).
subclass(X,Y) :- extends(X,Z),subclass(Z,Y).
field_acc(obj(C,R),F,T) :- has_field(C,F),rec_acc(R,F,T).
field_acc(T1\\/T2,F,FT1\\/FT2) :- field_acc(T1,F,FT1),field_acc(T2,F,FT2).
rec_acc([F:T],F,T).
invoke(obj(C,R),M,A,RT) :- has_meth(C,M,[obj(C,R)|A],RT).
invoke(T1\\/T2,M,A,RT1\\/RT2) :- invoke(T1,M,A,RT1),invoke(T2,M,A,RT2).
new(object,[],obj(object,[])).
new(zero,[],obj(zero,R)) :- extends(zero,P),new(P,[],obj(P,R)).
new(succ,[N],obj(succ,[pred:N|R])) :- extends(succ,P),new(P,[],obj(P,R)).
dec_field(succ,pred).
not_dec_field(object,pred).
not_dec_field(zero,pred).
has_field(C,F) :- dec_field(C,F).
has_field(C,F) :- extends(C,P),has_field(P,F),not_dec_field(C,F).
dec_meth(zero,add).
dec_meth(succ,add).
not_dec_meth(object,add).
has_meth(zero,add,[This,N],N).
has_meth(succ,add,[This,N],R) :- field_acc(This,pred,P),new(succ,[N],S),invoke(P,add,[S],R).
has_meth(C,M,A,R) :- extends(C,P),has_meth(P,M,A,R),not_dec_meth(C,M).
"""

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|:-|\\/|[()\[\],.:|]")


def alpha_normal(clause_text):
    """Token tuple with variables renumbered by first occurrence."""
    names = {}
    out = []
    for tok in _TOKEN.findall(clause_text):
        if tok[0].isupper() or tok[0] == "_":
            out.append(names.setdefault(tok, "v%d" % len(names)))
        else:
            out.append(tok)
    return tuple(out)


def normalized_set(lines):
    return sorted(alpha_normal(l) for l in lines if l.strip())


def compile_to_lines(source):
    return [format_clause(c) for c in compile_program(parse_program(source))]


def test_golden_zero_succ():
    got = normalized_set(compile_to_lines(ZERO_SUCC))
    want = normalized_set(GOLDEN.strip().splitlines())
    assert got == want


def test_empty_program_is_runtime_only():
    lines = compile_to_lines("")
    preds = [l.split("(")[0] for l in lines]
    assert "class" in preds  # class(object).
    assert any(l.startswith("new(object,[],obj(object,[]))") for l in lines)
    assert not any(p in ("dec_field", "dec_meth", "not_dec_field", "not_dec_meth")
                   for p in preds)


def test_empty_input_parses():
    p = parse_program("   \n  ")
    assert p.classes == []


def test_extends_undeclared_rejected():
    with pytest.raises(ProgramError):
        parse_program("class A extends B { }")


def test_new_undeclared_rejected():
    with pytest.raises(ProgramError):
        parse_program("class A { m() { return new B(); } }")


def test_extends_forward_reference_ok():
    p = parse_program("class A extends B { } class B { }")
    assert [c.name for c in p.classes] == ["a", "b"]
    assert p.classes[0].superclass == "b"


def test_inheritance_cycle_rejected():
    with pytest.raises(ProgramError):
        parse_program("class A extends B { } class B extends A { }")
    with pytest.raises(ProgramError):
        parse_program(
            "class A extends B { } class B extends C { } class C extends B { }")


def test_duplicate_class_rejected():
    with pytest.raises(ProgramError):
        parse_program("class A { } class A { }")


def test_duplicate_field_rejected():
    with pytest.raises(ProgramError):
        parse_program("class A { f; f; }")


def test_duplicate_method_rejected():
    with pytest.raises(ProgramError):
        parse_program("class A { m() { return this; } m() { return this; } }")


def test_constructor_must_assign_declared_fields():
    with pytest.raises(ProgramError):
        parse_program("class A { A(x) { this.g = x; } }")


def test_constructor_assigns_params_only():
    with pytest.raises(ProgramError):
        parse_program("class A { f; A(x) { this.f = y; } }")


def test_method_returning_param_becomes_fact():
    lines = compile_to_lines("class Zero { add(n) { return n; } }")
    assert "has_meth(zero,add,[This,N],N)." in lines


def test_integer_literal_compiles_to_int_constant():
    lines = compile_to_lines("class A { m() { return 42; } }")
    assert "has_meth(a,m,[This],int)." in lines


def test_explicit_this_field_access():
    lines = compile_to_lines("class A { f; A(x) { this.f = x; } m() { return this.f; } }")
    assert "has_meth(a,m,[This],V0) :- field_acc(This,f,V0)." in lines


def test_bare_field_access_reads_this():
    lines = compile_to_lines("class A { f; A(x) { this.f = x; } m() { return f; } }")
    assert "has_meth(a,m,[This],V0) :- field_acc(This,f,V0)." in lines


def test_this_method_result():
    lines = compile_to_lines("class A { m() { return this; } }")
    assert "has_meth(a,m,[This],This)." in lines


def test_chained_calls_thread_fresh_variables():
    lines = compile_to_lines(
        "class A { f; A(x) { this.f = x; } m(y) { return f.m(y).m(new A(y)); } }")
    want = ("has_meth(a,m,[This,Y],V3) :- field_acc(This,f,V0),"
            "invoke(V0,m,[Y],V1),new(a,[Y],V2),invoke(V1,m,[V2],V3).")
    assert want in lines


def test_fresh_variables_avoid_param_names():
    lines = compile_to_lines("class A { m(v0) { return v0.g(); } }")
    hit = [l for l in lines if l.startswith("has_meth(a,m,")]
    assert hit == ["has_meth(a,m,[This,V0],V1) :- invoke(V0,g,[],V1)."]


def test_inherited_fields_threaded_through_parent():
    lines = compile_to_lines("""
class A { f; A(x) { this.f = x; } }
class B extends A { g; B(y) { this.g = y; } }
""")
    assert "new(a,[X],obj(a,[f:X|R])) :- extends(a,P),new(P,[],obj(P,R))." in lines
    assert "new(b,[Y],obj(b,[g:Y|R])) :- extends(b,P),new(P,[],obj(P,R))." in lines


def test_constructor_renames_fresh_names_its_params_took():
    # the parameters take R and P, so the row and parent variables are renamed
    program = "class Box { v; w; Box(r, p) { this.v = r; this.w = p; } }"
    assert ("new(box,[R,P],obj(box,[v:R,w:P|R0])) :- extends(box,P0),new(P0,[],obj(P0,R0))."
            in compile_to_lines(program))
    clauses = compile_program(parse_program(program))
    result = solve(parse_query("new(box, [int, obj(a,[])], X)"), clauses)
    assert [format_answer(a) for a in result.answers] == ["X = obj(box,[v:int,w:obj(a,[])])"]


def test_default_constructor_emitted():
    lines = compile_to_lines("class A { m() { return this; } }")
    assert "new(a,[],obj(a,R)) :- extends(a,P),new(P,[],obj(P,R))." in lines


def test_every_body_predicate_has_a_head():
    clauses = compile_program(parse_program(ZERO_SUCC))
    heads = {c.head.pred for c in clauses}
    uses = {a.pred for c in clauses for a in c.body}
    assert uses <= heads


def test_compile_deterministic():
    a = compile_to_lines(ZERO_SUCC)
    b = compile_to_lines(ZERO_SUCC)
    assert a == b


def test_not_dec_universe_covers_all_classes():
    lines = compile_to_lines("""
class A { f; m() { return this; } }
class B { g; }
""")
    assert "not_dec_field(object,f)." in lines
    assert "not_dec_field(object,g)." in lines
    assert "not_dec_field(a,g)." in lines
    assert "not_dec_field(b,f)." in lines
    assert "not_dec_meth(object,m)." in lines
    assert "not_dec_meth(b,m)." in lines
    assert "not_dec_field(a,f)." not in lines
    assert "not_dec_meth(a,m)." not in lines
