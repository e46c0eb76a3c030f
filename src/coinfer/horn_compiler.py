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

The logic terms the clauses are made of, and the one printer of logic
terms, which clauses and solver answers share, are defined here too.
"""

import re

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
    """obj(cls, rec).  stamp is None, or for a ground term made from a
    type node, the canonical TypeTerm of that node; the solver reads it."""

    __slots__ = ("cls", "rec", "stamp")

    def __init__(self, cls, rec):
        self.cls = cls
        self.rec = rec
        self.stamp = None


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
    """left \\/ right; stamp as for ObjTerm."""

    __slots__ = ("left", "right", "stamp")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.stamp = None


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


def deref(t):
    while type(t) is Var and t.ref is not None:
        t = t.ref
    return t


def _kids(t):
    """The subterms of a logic term in writing order: a union's sides, an
    obj's class and record, a record's variable keys each before its
    value, a list's items, and then the tail of a record or list."""
    kind = type(t)
    if kind is UnionTerm:
        return (t.left, t.right)
    if kind is ObjTerm:
        return (t.cls, t.rec)
    if kind is Record:
        out = []
        for k, v in t.pairs:
            if type(k) is Var:
                out.append(k)
            out.append(v)
    elif kind is ListTerm:
        out = list(t.items)
    else:
        return ()
    if t.tail is not None:
        out.append(t.tail)
    return out


_LEAVES = (Var, Const, IntTerm)


def _text(t, names):
    """Term t written out in full, its named subterms by name.  A stack of
    text pieces and subterms still to write, so depth costs no recursion."""
    if type(t) is Var or type(t) is Const:
        return t.name
    out = []
    todo = [t]
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is str:
            out.append(item)
            continue
        while kind is Var and item.ref is not None:
            item = item.ref
            kind = type(item)
        if kind is Var or kind is Const:
            out.append(item.name)
        elif kind is IntTerm:
            out.append(str(item.value))
        elif item is not t and id(item) in names:
            out.append(names[id(item)])
        elif kind is ObjTerm:
            out.append("obj(")
            todo += (")", item.rec, ",", item.cls)
        elif kind is UnionTerm:
            left = deref(item.left)
            if type(left) is UnionTerm and id(left) not in names:
                out.append("(")
                todo += (item.right, ")\\/", left)
            else:
                todo += (item.right, "\\/", left)
        else:  # a record or a list
            parts = ["["]
            for k, x in enumerate(item.pairs if kind is Record else item.items):
                if kind is Record:
                    key, x = x
                    parts.append("," * (k > 0) + (key if type(key) is str else key.name) + ":")
                elif k:
                    parts.append(",")
                parts.append(x)
            if item.tail is not None:
                parts += ("|", item.tail)
            parts.append("]")
            todo += reversed(parts)
        t = None  # from now on a named node is written by name
    return "".join(out)


def _format_logic(roots):
    """Render terms, naming the nodes a depth-first walk from each root in
    turn meets again on its own path, T<k> in the order it meets them: the
    text of each root, and one equation per named node.  Both walks keep
    explicit stacks, so depth costs no recursion."""
    roots = [deref(root) for root in roots]
    names = {}
    order = []
    state = {}  # id -> True while on the walk's path, False once left
    for root in roots:
        if type(root) in _LEAVES or id(root) in state:
            continue
        state[id(root)] = True
        stack = [(root, iter(_kids(root)))]
        while stack:
            node, it = stack[-1]
            for child in it:
                child = deref(child)
                if type(child) in _LEAVES:  # no cycle passes through a leaf
                    continue
                seen = state.get(id(child))
                if seen is None:
                    state[id(child)] = True
                    stack.append((child, iter(_kids(child))))
                    break
                if seen and id(child) not in names:
                    names[id(child)] = "T%d" % len(names)
                    order.append(child)
            else:
                state[id(node)] = False
                stack.pop()
    texts = [names[id(root)] if id(root) in names else _text(root, names) for root in roots]
    return texts, ["%s = %s" % (names[id(node)], _text(node, names)) for node in order]


def format_term_text(t):
    """A term's text, then "where" and the equations of its named nodes."""
    (main,), equations = _format_logic([t])
    if equations:
        return "%s where %s" % (main, "; ".join(equations))
    return main


def format_atom(a):
    texts, equations = _format_logic(a.args)
    text = "%s(%s)" % (a.pred, ",".join(texts))
    return "%s where %s" % (text, "; ".join(equations)) if equations else text


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
        self.body = body  # post-order expression nodes, see _ProgramParser.expr


# One pattern for term_core.scan: whitespace and comments, then a token.
_PTOKEN = re.compile(r"""[ \t\r\n]*(?:(?:\#|//)[^\n]*[ \t\r\n]*)*
    ([{}();,.=]|[^\W\d]\w*|[0-9]+|.|\Z)""", re.VERBOSE)
_PKINDS = {t: t for t in ("{", "}", "(", ")", ";", ",", ".", "=",
                          "class", "extends", "this", "new", "return")}
_PKINDS[""] = "EOF"


_DIGIT = "0123456789".__contains__


def _no_var(c):
    return False


def _program_kind(text):
    """The program grammar has no variables: every name is an IDENT."""
    return _PKINDS.get(text) or token_kind(text, _PKINDS, _no_var, _DIGIT)


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
        """An expression as a post-order list of nodes: ("this",), ("int",),
        ("ident", name), ("field", name), ("call", name, n) and
        ("new", class, n, token index), each applied to the values of the
        nodes before it: a field to one, a call to its receiver and n
        arguments, a new to n arguments.  An LL(1) loop over an explicit
        stack of open argument lists, so nesting costs no recursion.

        expr := primary ('.' IDENT args?)*
        primary := 'this' | 'new' IDENT args | IDENT | INT
        args := '(' (expr (',' expr)*)? ')'
        """
        out = []
        stack = []  # open argument lists: [kind, name, arguments read, ...]
        while True:
            t = self.next()
            frame = None  # an argument list still to open
            if t[0] == "new":
                frame = ["new", self.expect("IDENT")[1].lower(), 0, t[2]]
            elif t[0] in ("this", "INT"):
                out.append(("int",) if t[0] == "INT" else ("this",))
            elif t[0] == "IDENT":
                out.append(("ident", t[1]))
            else:
                self.err("expected an expression, found %r" % (t[1] or "end of input"), t)
            while True:
                if frame is not None:
                    self.expect("(")
                    if not self.at(")"):
                        stack.append(frame)
                        break
                    self.next()
                    out.append(tuple(frame))
                    frame = None
                if self.at("."):
                    self.next()
                    name = self.expect("IDENT")[1]
                    if self.at("("):
                        frame = ["call", name, 0]
                    else:
                        out.append(("field", name))
                    continue
                if not stack:
                    return out
                frame = stack.pop()
                frame[2] += 1
                if self.at(","):
                    self.next()
                    stack.append(frame)
                    break
                self.expect(")")
                out.append(tuple(frame))
                frame = None


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
        undeclared = [node for m in c.methods for node in m.body
                      if node[0] == "new" and node[1] not in declared]
        if undeclared:  # the first in the source
            raise ProgramError("new of undeclared class %s in class %s"
                               % (min(undeclared, key=lambda node: node[3])[1], c.name))
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

    values = []  # of the nodes read, the ones no later node has taken
    for node in m.body:
        kind = node[0]
        if kind == "int":
            values.append(Const("int"))
        elif kind == "this":
            values.append(this)
        elif kind == "ident" and node[1] in env:
            values.append(env[node[1]])
        else:
            v = fresh()
            if kind == "ident" or kind == "field":
                recv = this if kind == "ident" else values.pop()
                atoms.append(Atom("field_acc", [recv, Const(node[1]), v]))
            else:
                args = ListTerm(values[len(values) - node[2]:])
                del values[len(values) - node[2]:]
                if kind == "new":
                    atoms.append(Atom("new", [Const(node[1]), args, v]))
                else:
                    atoms.append(Atom("invoke", [values.pop(), Const(node[1]), args, v]))
            values.append(v)
    result, = values
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
