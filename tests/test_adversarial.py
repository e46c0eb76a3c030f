"""Adversarial front-end inputs: deep nesting, a long record and a long
union, through the library parsers and through `coinfer empty`, `member`
and `solve`.  Each gets a verdict or a documented exit code (0 positive,
1 negative, 3 a limit ran out), never a traceback.
"""

import pytest

from coinfer.cli import main
from coinfer.term_core import (
    IntType,
    IntValue,
    ObjType,
    ObjValue,
    UnionType,
    type_from_source,
    value_from_source,
)

N = 10000


def nest(n, leaf, sep=":"):
    """obj(a, [f: obj(a, [f: ... leaf ...])]), n objects deep."""
    return "obj(a, [f%s " % sep * n + leaf + "])" * n


# name -> (type body, value body, member verdict, solve exit).  The type
# body is bound to T.  `solve` exits 3 where unifying or copying the
# answer recurses once per nesting level and runs out of recursion depth.
CORPUS = {
    "deep_3000": (nest(3000, "int"), nest(3000, "1", " ->"), True, 3),
    "deep_10000": (nest(N, "int"), nest(N, "1", " ->"), True, 3),
    "parens_10000": ("(" * N + "int" + ")" * N, "(" * N + "7" + ")" * N, True, 0),
    "record_10000": ("obj(r, [%s])" % ", ".join("f%d: int" % i for i in range(N)),
                     "obj(r, [%s])" % ", ".join("f%d -> %d" % (i, i) for i in range(N)),
                     True, 0),
    "union_10000": (" \\/ ".join("obj(c%d, [])" % i for i in range(N)),
                    "obj(c%d, [])" % (N - 1), True, 3),
    # a cycle through 3000 levels whose innermost object has an empty field
    "cyclic_empty_3000": (nest(3000, "obj(a, [f: T, g: U])") + "; U = U \\/ U",
                          nest(3000, "1", " ->"), False, 3),
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
    if solve_exit == 0:
        assert out.out.startswith("R = ") and out.err == ""
    else:
        assert out.out == ""
        assert out.err.startswith("resource exhausted: ") and out.err.count("\n") == 1


def test_parse_of_deep_chain_is_resource_exit(files, capsys):
    # printing still recurses on depth; the CLI reports it in one line
    assert main(["parse", files["deep_3000", "ty"]]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("resource exhausted: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


def test_memory_error_is_resource_exit(files, capsys, monkeypatch):
    # a MemoryError carries no message; the line names the exception
    def out_of_memory(t):
        raise MemoryError()

    monkeypatch.setattr("coinfer.cli.not_empty", out_of_memory)
    assert main(["empty", files["record_10000", "ty"]]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == "resource exhausted: MemoryError\n"
