"""Compile an untyped class-based language to Horn clauses.

A program is a set of classes with fields, a constructor that assigns
constructor parameters to fields, and methods of the form
`name(params) { return expr; }`.  Each method becomes one has_meth
clause whose body threads intermediate results through fresh variables;
each constructor becomes a new clause extending the parent's record with
the class's own fields.  A fixed runtime clause set defines subclassing,
field and method lookup (including inheritance), field access and method
invocation lifted over unions, and object construction.

Negative conditions (a class does not redeclare an inherited member) are
precomputed as ground not_dec_field / not_dec_meth facts over the
program's class and member-name universes, keeping everything pure Horn.
"""

import re
from functools import partial

from .term_core import TokenParser, token_kind


class ProgramError(Exception):
    pass


# ---------------------------------------------------------------------------
# logic terms and clauses

class Var:
    __slots__ = ("name", "ref")

    def __init__(self, name):
        self.name = name
        self.ref = None  # bound term, or None; managed by the solver

    def __repr__(self):
        return "Var(%s)" % self.name


class Const:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "Const(%s)" % self.name


class IntTerm:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "IntTerm(%d)" % self.value


class ObjTerm:
    __slots__ = ("cls", "rec")

    def __init__(self, cls, rec):
        self.cls = cls
        self.rec = rec


class Record:
    """[k1:v1, ..., kn:vn | tail]; tail None means closed.  Keys are
    field-name strings or variables (for patterns like [F:T])."""

    __slots__ = ("pairs", "tail")

    def __init__(self, pairs, tail=None):
        self.pairs = list(pairs)
        self.tail = tail


class ListTerm:
    __slots__ = ("items", "tail")

    def __init__(self, items, tail=None):
        self.items = list(items)
        self.tail = tail


class UnionTerm:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Atom:
    __slots__ = ("pred", "args")

    def __init__(self, pred, args):
        self.pred = pred
        self.args = list(args)

    def __repr__(self):
        return "Atom(%s/%d)" % (self.pred, len(self.args))


class HornClause:
    __slots__ = ("head", "body")

    def __init__(self, head, body=()):
        self.head = head
        self.body = list(body)


def format_term(t):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name
    if isinstance(t, IntTerm):
        return str(t.value)
    if isinstance(t, ObjTerm):
        return "obj(%s,%s)" % (format_term(t.cls), format_term(t.rec))
    if isinstance(t, Record):
        inner = ",".join("%s:%s" % (k.name if isinstance(k, Var) else k,
                                    format_term(v))
                         for k, v in t.pairs)
        if t.tail is not None:
            return "[%s|%s]" % (inner, format_term(t.tail))
        return "[%s]" % inner
    if isinstance(t, ListTerm):
        inner = ",".join(format_term(x) for x in t.items)
        if t.tail is not None:
            return "[%s|%s]" % (inner, format_term(t.tail))
        return "[%s]" % inner
    if isinstance(t, UnionTerm):
        left = format_term(t.left)
        if isinstance(t.left, UnionTerm):
            left = "(%s)" % left
        return "%s\\/%s" % (left, format_term(t.right))
    raise TypeError("not a logic term: %r" % (t,))


def format_atom(a):
    return "%s(%s)" % (a.pred, ",".join(format_term(t) for t in a.args))


def format_clause(c):
    if not c.body:
        return format_atom(c.head) + "."
    return "%s :- %s." % (format_atom(c.head),
                          ",".join(format_atom(a) for a in c.body))


# ---------------------------------------------------------------------------
# program AST and parser

class Program:
    def __init__(self, classes):
        self.classes = classes


class ClassDecl:
    def __init__(self, name, superclass, fields, constructor, methods):
        self.name = name
        self.superclass = superclass
        self.fields = fields
        self.constructor = constructor
        self.methods = methods


class Constructor:
    def __init__(self, params, assigns):
        self.params = params
        self.assigns = assigns  # list of (field name, param name)


class Method:
    def __init__(self, name, params, body):
        self.name = name
        self.params = params
        self.body = body


class ThisExpr:
    pass


class IdentExpr:
    def __init__(self, name):
        self.name = name


class IntLit:
    def __init__(self, value):
        self.value = value


class NewExpr:
    def __init__(self, cls, args):
        self.cls = cls
        self.args = args


class FieldExpr:
    def __init__(self, recv, name):
        self.recv = recv
        self.name = name


class CallExpr:
    def __init__(self, recv, name, args):
        self.recv = recv
        self.name = name
        self.args = args


# One pattern for term_core.scan: whitespace and comments, then a token.
_PTOKEN = re.compile(r"""[ \t\r\n]*(?:(?:\#|//)[^\n]*[ \t\r\n]*)*
    ([{}();,.=]|[^\W\d]\w*|[0-9]+|.|\Z)""", re.VERBOSE)
_PKINDS = {t: t for t in ("{", "}", "(", ")", ";", ",", ".", "=",
                          "class", "extends", "this", "new", "return")}
_PKINDS[""] = "EOF"


_program_kind = partial(token_kind, fixed=_PKINDS, var=lambda c: False,
                        digit="0123456789".__contains__)


class _ProgramParser(TokenParser):
    def __init__(self, source):
        super().__init__(source, _PTOKEN, _program_kind, ProgramError)

    def program(self):
        classes = []
        while not self.at("EOF"):
            classes.append(self.class_decl())
        return Program(classes)

    def class_decl(self):
        self.expect("class")
        name_tok = self.expect("IDENT")
        source_name = name_tok[1]
        superclass = "object"
        if self.at("extends"):
            self.next()
            superclass = self.expect("IDENT")[1].lower()
        self.expect("{")
        fields = []
        constructor = None
        methods = []
        while not self.at("}"):
            t = self.peek()
            if t[0] == "IDENT" and self.toks[self.i + 1][0] == ";":
                fname = self.next()[1]
                self.next()
                if fname in fields:
                    self.err("duplicate field %s" % fname, t)
                fields.append(fname)
            elif t[0] == "IDENT" and self.toks[self.i + 1][0] == "(":
                if t[1] == source_name:
                    if constructor is not None:
                        self.err("duplicate constructor", t)
                    constructor = self.constructor_decl(fields)
                else:
                    m = self.method_decl()
                    if any(x.name == m.name for x in methods):
                        self.err("duplicate method %s" % m.name, t)
                    methods.append(m)
            else:
                self.err("expected a field, constructor, or method declaration", t)
        self.next()
        return ClassDecl(source_name.lower(), superclass, fields, constructor, methods)

    def params(self):
        self.expect("(")
        out = []
        if not self.at(")"):
            while True:
                p = self.expect("IDENT")[1]
                if p in out:
                    self.err("duplicate parameter %s" % p)
                out.append(p)
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect(")")
        return out

    def constructor_decl(self, declared_fields):
        self.next()  # constructor name
        params = self.params()
        self.expect("{")
        assigns = []
        while not self.at("}"):
            tok = self.expect("this")
            self.expect(".")
            f = self.expect("IDENT")[1]
            self.expect("=")
            rhs = self.expect("IDENT")[1]
            self.expect(";")
            if f not in declared_fields:
                self.err("constructor assigns undeclared field %s" % f, tok)
            if rhs not in params:
                self.err("constructor may only assign parameters, got %s" % rhs, tok)
            if any(g == f for g, _ in assigns):
                self.err("field %s assigned twice" % f, tok)
            assigns.append((f, rhs))
        self.next()
        return Constructor(params, assigns)

    def method_decl(self):
        name = self.next()[1]
        params = self.params()
        self.expect("{")
        self.expect("return")
        body = self.expr()
        self.expect(";")
        self.expect("}")
        return Method(name, params, body)

    def expr(self):
        e = self.primary()
        while self.at("."):
            self.next()
            name = self.expect("IDENT")[1]
            if self.at("("):
                e = CallExpr(e, name, self.args())
            else:
                e = FieldExpr(e, name)
        return e

    def primary(self):
        t = self.peek()
        if t[0] == "this":
            self.next()
            return ThisExpr()
        if t[0] == "new":
            self.next()
            cls = self.expect("IDENT")[1]
            return NewExpr(cls.lower(), self.args())
        if t[0] == "IDENT":
            self.next()
            return IdentExpr(t[1])
        if t[0] == "INT":
            self.next()
            return IntLit(int(t[1]))
        self.err("expected an expression, found %r" % (t[1] or "end of input"), t)

    def args(self):
        self.expect("(")
        out = []
        if not self.at(")"):
            while True:
                out.append(self.expr())
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect(")")
        return out


def _new_targets(expr, acc):
    if isinstance(expr, NewExpr):
        acc.append(expr.cls)
        for a in expr.args:
            _new_targets(a, acc)
    elif isinstance(expr, FieldExpr):
        _new_targets(expr.recv, acc)
    elif isinstance(expr, CallExpr):
        _new_targets(expr.recv, acc)
        for a in expr.args:
            _new_targets(a, acc)


def parse_program(source):
    """Parse source text into a Program; raises ProgramError."""
    program = _ProgramParser(source).program()
    names = set()
    for c in program.classes:
        if c.name in names or c.name == "object":
            raise ProgramError("duplicate class %s" % c.name)
        names.add(c.name)
    declared = names | {"object"}
    for c in program.classes:
        if c.superclass not in declared:
            raise ProgramError("class %s extends undeclared class %s"
                               % (c.name, c.superclass))
        targets = []
        for m in c.methods:
            _new_targets(m.body, targets)
        for target in targets:
            if target not in declared:
                raise ProgramError("new of undeclared class %s in class %s"
                                   % (target, c.name))
    parent = {c.name: c.superclass for c in program.classes}
    for start in parent:
        cur = start
        for _ in range(len(parent) + 1):
            cur = parent.get(cur, "object")
            if cur == "object":
                break
        else:
            raise ProgramError("inheritance cycle through class %s" % start)
    return program


# ---------------------------------------------------------------------------
# compilation

def _cap(name):
    return name[0].upper() + name[1:]


def _named_fresh(base, used):
    if base not in used:
        used.add(base)
        return Var(base)
    i = 0
    while "%s%d" % (base, i) in used:
        i += 1
    name = "%s%d" % (base, i)
    used.add(name)
    return Var(name)


def _runtime_lookup_rules():
    c, f = Var("C"), Var("F")
    p = Var("P")
    has_field = [
        HornClause(Atom("has_field", [c, f]), [Atom("dec_field", [c, f])]),
    ]
    c2, f2, p2 = Var("C"), Var("F"), Var("P")
    has_field.append(HornClause(
        Atom("has_field", [c2, f2]),
        [Atom("extends", [c2, p2]), Atom("has_field", [p2, f2]),
         Atom("not_dec_field", [c2, f2])]))
    return has_field


def _runtime_core():
    out = []
    x, y, z = Var("X"), Var("Y"), Var("Z")
    out.append(HornClause(Atom("subclass", [x, x]), [Atom("class", [x])]))
    x2 = Var("X")
    out.append(HornClause(Atom("subclass", [x2, Const("object")]),
                          [Atom("class", [x2])]))
    x3, y3, z3 = Var("X"), Var("Y"), Var("Z")
    out.append(HornClause(Atom("subclass", [x3, y3]),
                          [Atom("extends", [x3, z3]), Atom("subclass", [z3, y3])]))

    c, r, f, t = Var("C"), Var("R"), Var("F"), Var("T")
    out.append(HornClause(
        Atom("field_acc", [ObjTerm(c, r), f, t]),
        [Atom("has_field", [c, f]), Atom("rec_acc", [r, f, t])]))
    t1, t2, f2, ft1, ft2 = Var("T1"), Var("T2"), Var("F"), Var("FT1"), Var("FT2")
    out.append(HornClause(
        Atom("field_acc", [UnionTerm(t1, t2), f2, UnionTerm(ft1, ft2)]),
        [Atom("field_acc", [t1, f2, ft1]), Atom("field_acc", [t2, f2, ft2])]))
    fr, tr = Var("F"), Var("T")
    out.append(HornClause(Atom("rec_acc", [Record([(fr, tr)]), fr, tr]), []))

    c4, r4, m4, a4, rt4 = Var("C"), Var("R"), Var("M"), Var("A"), Var("RT")
    out.append(HornClause(
        Atom("invoke", [ObjTerm(c4, r4), m4, a4, rt4]),
        [Atom("has_meth", [c4, m4, ListTerm([ObjTerm(c4, r4)], a4), rt4])]))
    u1, u2, m5, a5, rt1, rt2 = (Var("T1"), Var("T2"), Var("M"), Var("A"),
                                Var("RT1"), Var("RT2"))
    out.append(HornClause(
        Atom("invoke", [UnionTerm(u1, u2), m5, a5, UnionTerm(rt1, rt2)]),
        [Atom("invoke", [u1, m5, a5, rt1]), Atom("invoke", [u2, m5, a5, rt2])]))

    out.append(HornClause(
        Atom("new", [Const("object"), ListTerm([]),
                     ObjTerm(Const("object"), Record([]))]), []))
    return out


def _constructor_clause(c):
    ctor = c.constructor or Constructor([], [])
    used = set()
    params = {}
    param_list = []
    for p in ctor.params:
        v = _named_fresh(_cap(p), used)
        params[p] = v
        param_list.append(v)
    assigned = dict(ctor.assigns)
    pairs = [(f, params[assigned[f]]) for f in c.fields if f in assigned]
    row = _named_fresh("R", used)
    parent = _named_fresh("P", used)
    rec = Record(pairs, row) if pairs else row
    head = Atom("new", [Const(c.name), ListTerm(param_list),
                        ObjTerm(Const(c.name), rec)])
    body = [Atom("extends", [Const(c.name), parent]),
            Atom("new", [parent, ListTerm([]), ObjTerm(parent, row)])]
    return HornClause(head, body)


def _method_clause(c, m):
    used = {"This"}
    this = Var("This")
    env = {}
    param_list = [this]
    for p in m.params:
        v = _named_fresh(_cap(p), used)
        env[p] = v
        param_list.append(v)
    atoms = []
    counter = [0]

    def fresh():
        while "V%d" % counter[0] in used:
            counter[0] += 1
        name = "V%d" % counter[0]
        counter[0] += 1
        used.add(name)
        return Var(name)

    def compile_expr(e):
        if isinstance(e, IntLit):
            return Const("int")
        if isinstance(e, ThisExpr):
            return this
        if isinstance(e, IdentExpr):
            if e.name in env:
                return env[e.name]
            v = fresh()
            atoms.append(Atom("field_acc", [this, Const(e.name), v]))
            return v
        if isinstance(e, FieldExpr):
            recv = compile_expr(e.recv)
            v = fresh()
            atoms.append(Atom("field_acc", [recv, Const(e.name), v]))
            return v
        if isinstance(e, NewExpr):
            args = [compile_expr(a) for a in e.args]
            v = fresh()
            atoms.append(Atom("new", [Const(e.cls), ListTerm(args), v]))
            return v
        if isinstance(e, CallExpr):
            recv = compile_expr(e.recv)
            args = [compile_expr(a) for a in e.args]
            v = fresh()
            atoms.append(Atom("invoke", [recv, Const(e.name), ListTerm(args), v]))
            return v
        raise TypeError(e)

    result = compile_expr(m.body)
    head = Atom("has_meth", [Const(c.name), Const(m.name),
                             ListTerm(param_list), result])
    return HornClause(head, atoms)


def compile_program(program):
    """Horn clauses for the program plus the fixed runtime set."""
    out = []
    out.append(HornClause(Atom("class", [Const("object")]), []))
    for c in program.classes:
        out.append(HornClause(Atom("class", [Const(c.name)]), []))
    for c in program.classes:
        out.append(HornClause(
            Atom("extends", [Const(c.name), Const(c.superclass)]), []))
    out.extend(_runtime_core())
    for c in program.classes:
        out.append(_constructor_clause(c))

    all_classes = ["object"] + [c.name for c in program.classes]
    field_universe = []
    for c in program.classes:
        for f in c.fields:
            if f not in field_universe:
                field_universe.append(f)
    declared_fields = {(c.name, f) for c in program.classes for f in c.fields}
    for c in program.classes:
        for f in c.fields:
            out.append(HornClause(
                Atom("dec_field", [Const(c.name), Const(f)]), []))
    for cname in all_classes:
        for f in field_universe:
            if (cname, f) not in declared_fields:
                out.append(HornClause(
                    Atom("not_dec_field", [Const(cname), Const(f)]), []))
    out.extend(_runtime_lookup_rules())

    meth_universe = []
    for c in program.classes:
        for m in c.methods:
            if m.name not in meth_universe:
                meth_universe.append(m.name)
    declared_meths = {(c.name, m.name) for c in program.classes for m in c.methods}
    for c in program.classes:
        for m in c.methods:
            out.append(HornClause(
                Atom("dec_meth", [Const(c.name), Const(m.name)]), []))
    for cname in all_classes:
        for mname in meth_universe:
            if (cname, mname) not in declared_meths:
                out.append(HornClause(
                    Atom("not_dec_meth", [Const(cname), Const(mname)]), []))
    for c in program.classes:
        for m in c.methods:
            out.append(_method_clause(c, m))
    cm, mm, am, rm, pm = Var("C"), Var("M"), Var("A"), Var("R"), Var("P")
    out.append(HornClause(
        Atom("has_meth", [cm, mm, am, rm]),
        [Atom("extends", [cm, pm]), Atom("has_meth", [pm, mm, am, rm]),
         Atom("not_dec_meth", [cm, mm])]))
    return out
