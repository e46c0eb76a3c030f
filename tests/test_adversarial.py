"""Adversarial front-end inputs: deep nesting, a long record and a long
union, through the library parsers and through `coinfer empty`, `member`
and `solve`, and the deep chain through the printers of `coinfer parse`,
`empty --witness` and `sample` and through `derive` and `subtype --trace`.
A 3000-deep inline query atom and a method body 3000 `new`s deep go
through `coinfer solve` and `compile`.  Each gets a verdict or a
documented exit code (0 positive, 1 negative, 3 a limit ran out), never a
traceback.
"""

import json

import pytest

from conftest import trees_equal_oracle

from coinfer.cli import main
from coinfer.interpretation import member
from coinfer.subtyping import derive
from coinfer.term_core import (
    IntType,
    IntValue,
    ObjType,
    ObjValue,
    UnionType,
    type_from_json,
    type_from_source,
    value_from_source,
)

N = 10000


def nest(n, leaf, sep=":"):
    """obj(a, [f: obj(a, [f: ... leaf ...])]), n objects deep."""
    return "obj(a, [f%s " % sep * n + leaf + "])" * n


# name -> (type body, value body, member verdict, solve exit).  The type
# body is bound to T.  The solver, and the walks that copy, compare and
# print its answers, keep explicit stacks, so every `solve` answers.
CORPUS = {
    "deep_3000": (nest(3000, "int"), nest(3000, "1", " ->"), True, 0),
    "deep_10000": (nest(N, "int"), nest(N, "1", " ->"), True, 0),
    "parens_10000": ("(" * N + "int" + ")" * N, "(" * N + "7" + ")" * N, True, 0),
    "record_10000": ("obj(r, [%s])" % ", ".join("f%d: int" % i for i in range(N)),
                     "obj(r, [%s])" % ", ".join("f%d -> %d" % (i, i) for i in range(N)),
                     True, 0),
    "union_10000": (" \\/ ".join("obj(c%d, [])" % i for i in range(N)),
                    "obj(c%d, [])" % (N - 1), True, 0),
    # a cycle through 3000 levels whose innermost object has an empty field
    "cyclic_empty_3000": (nest(3000, "obj(a, [f: T, g: U])") + "; U = U \\/ U",
                          nest(3000, "1", " ->"), False, 0),
}
EMPTY = {"cyclic_empty_3000"}


def type_text(name):
    return "T = %s; root T" % CORPUS[name][0]


def value_text(name):
    return "V = %s; root V" % CORPUS[name][1]


def test_deep_types_and_values_parse_without_recursion():
    for n in (3000, N):
        t = type_from_source("T = %s; root T" % nest(n, "int"))
        v = value_from_source("V = %s; root V" % nest(n, "1", " ->"))
        for _ in range(n):
            assert isinstance(t, ObjType) and isinstance(v, ObjValue)
            t, v = t.fields["f"], v.fields["f"]
        assert isinstance(t, IntType) and v.value == 1


def test_nested_parentheses_parse():
    assert isinstance(type_from_source(type_text("parens_10000")), IntType)
    assert value_from_source(value_text("parens_10000")).value == 7


def test_long_record_and_union_parse():
    t = type_from_source(type_text("record_10000"))
    v = value_from_source(value_text("record_10000"))
    assert len(t.fields) == len(v.fields) == N
    assert isinstance(v.fields["f9999"], IntValue) and v.fields["f9999"].value == 9999
    u = type_from_source(type_text("union_10000"))
    for i in range(N - 1):
        assert isinstance(u, UnionType) and u.left.class_name == "c%d" % i
        u = u.right
    assert u.class_name == "c%d" % (N - 1)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("adversarial")
    paths = {}
    for name in CORPUS:
        for kind, text in (("ty", type_text(name)), ("val", value_text(name))):
            path = root / ("%s.%s" % (name, kind))
            path.write_text(text)
            paths[name, kind] = str(path)
    prog = root / "id.prog"
    prog.write_text("class Id { m(x) { return x; } }")
    paths["prog"] = str(prog)
    return paths


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_verdicts_and_exit_codes(name, files, capsys):
    body, _, is_member, solve_exit = CORPUS[name]
    empty = name in EMPTY
    assert main(["empty", files[name, "ty"]]) == (1 if empty else 0)
    out = capsys.readouterr()
    assert out.out == ("empty\n" if empty else "not empty\n") and out.err == ""

    assert main(["member", files[name, "val"], files[name, "ty"]]) == (0 if is_member else 1)
    out = capsys.readouterr()
    assert out.out == ("member\n" if is_member else "not a member\n") and out.err == ""

    query = "T = %s; invoke(obj(id, []), m, [T], R)" % body
    assert main(["solve", files["prog"], "--query", query]) == solve_exit
    out = capsys.readouterr()
    assert out.out.startswith("R = ") and out.err == ""


def test_deep_inline_query_atom(files, capsys):
    # no prelude: the query parser reads the 3000 levels itself
    query = "invoke(obj(id, []), m, [%s], R)" % nest(3000, "int").replace(" ", "")
    assert main(["solve", files["prog"], "--query", query]) == 0
    out = capsys.readouterr()
    assert out.out == "R = %s\n" % nest(3000, "int").replace(" ", "") and out.err == ""


def test_deep_new_method_compiles_and_solves(tmp_path, capsys):
    prog = tmp_path / "deep_new.prog"
    prog.write_text("class A { x; A(x) { this.x = x; } m() { return %s1%s; } }"
                    % ("new A(" * 3000, ")" * 3000))
    assert main(["compile", str(prog)]) == 0
    out = capsys.readouterr()
    [meth] = [line for line in out.out.splitlines() if line.startswith("has_meth(a,m,")]
    assert meth.startswith("has_meth(a,m,[This],V2999) :- new(a,[int],V0),new(a,[V0],V1),")
    assert meth.endswith(",new(a,[V2998],V2999).") and out.err == ""
    assert main(["solve", str(prog), "--query", "invoke(obj(a,[x:int]), m, [], R)"]) == 0
    out = capsys.readouterr()
    assert out.out == "R = %sint%s\n" % ("obj(a,[x:" * 3000, "])" * 3000) and out.err == ""


def test_deep_answer_as_json(files, capsys):
    # deep terms get bindings of their own, so the encoder stays shallow
    query = "T = %s; invoke(obj(id, []), m, [T], R)" % CORPUS["deep_3000"][0]
    assert main(["solve", files["prog"], "--query", query, "--format", "json"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    term = json.loads(out.out)["answers"][0]["bindings"]["R"]["term"]
    assert len(term["bindings"]) > 3000 // 65
    back = type_from_json(json.dumps(term))
    assert trees_equal_oracle(back, type_from_source(type_text("deep_3000")))


def test_deep_chain_prints_and_parses_back(files, capsys):
    # the printers keep explicit stacks, so depth costs no recursion
    t = type_from_source(type_text("deep_3000"))
    assert main(["parse", files["deep_3000", "ty"]]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert trees_equal_oracle(type_from_source(out.out), t)

    assert main(["empty", files["deep_3000", "ty"], "--witness"]) == 0
    out = capsys.readouterr()
    verdict, text = out.out.split("\n", 1)
    assert verdict == "not empty" and out.err == ""
    assert member(value_from_source(text), t)

    assert main(["sample", files["deep_3000", "ty"], "--count", "3", "--seed", "0"]) == 0
    out = capsys.readouterr()
    texts = out.out.split("\n\n")
    assert len(texts) == 3 and out.err == ""
    values = [value_from_source(text) for text in texts]
    assert all(member(v, t) for v in values)
    assert not any(trees_equal_oracle(a, b) for i, a in enumerate(values) for b in values[:i])


def test_memory_error_is_resource_exit(files, capsys, monkeypatch):
    # a MemoryError carries no message; the line names the exception
    def out_of_memory(t):
        raise MemoryError()

    monkeypatch.setattr("coinfer.cli.not_empty", out_of_memory)
    assert main(["empty", files["record_10000", "ty"]]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == "resource exhausted: MemoryError\n"


def test_derivation_of_deep_chains(files, capsys, monkeypatch):
    # each node prints its whole subterm, so printing a deep derivation
    # is quadratic by design; a constant printer leaves only the walks
    monkeypatch.setattr("coinfer.subtyping._inline", lambda t: "T")
    t = type_from_source(type_text("deep_3000"))
    d = derive(t, type_from_source(type_text("deep_3000")))
    assert d is not None and len(d.nodes) == 3001
    node = d.root
    for _ in range(3000):
        assert node.rule == "obj"
        [node] = node.children
    assert node.rule == "int" and node.children == []
    assert len(d.format_text().split("\n")) == 3001
    assert [n["id"] for n in d.to_dict()["nodes"]] == list(range(3001))

    assert main(["subtype", files["deep_3000", "ty"], files["deep_3000", "ty"], "--trace"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("subtype\n#0 T  <=  T   [obj]\n") and out.err == ""
