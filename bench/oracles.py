"""Independent oracles over the benchmark's own graphs (see terms.py).

Each oracle is a computation made apart from the program, with a
different algorithm from the one the program uses:

- bisimilar: product-graph search (the program partitions and interns);
- inhabited: a nested fixpoint, greatest over objects and least over
  unions (the program runs a depth-first search with a path stack);
- member: the same nested fixpoint over (value, type) pairs;
- odd_numerals_only: membership of unfolded unary numerals;
- clause_counts: the fact counts compile_program must produce, counted
  from the program text.
"""

import re

from terms import Builder, children, reachable


def _shape(node):
    if node[0] == "obj":
        return ("obj", node[1], tuple(f for f, _ in node[2]))
    if node[0] == "union":
        return ("union",)
    return node


def bisimilar(g1, g2):
    """Same infinite unfolding: no reachable pair of positions disagrees
    on its local constructor."""
    n1, n2 = g1[0], g2[0]
    seen = set()
    todo = [(g1[1], g2[1])]
    while todo:
        pair = todo.pop()
        if pair in seen:
            continue
        seen.add(pair)
        a, b = n1[pair[0]], n2[pair[1]]
        if _shape(a) != _shape(b):
            return False
        todo.extend(zip(children(a), children(b)))
    return True


def _nested_fixpoint(objs, unions, obj_kids, union_kids, leaf):
    """ν over object positions, μ over union positions.

    obj_kids[o] lists the positions an object needs (all of them);
    union_kids[u] the positions a union may use (any of them); leaf(p)
    gives the fixed truth of every other position.  Returns (truth,
    choice): truth maps each position to its value and choice maps each
    true union to a child that made it true earlier in the least
    fixpoint, so following choices never loops through unions alone.
    """
    big = {o: True for o in objs}
    while True:
        small = {u: False for u in unions}
        choice = {}

        def val(p):
            if p in big:
                return big[p]
            if p in small:
                return small[p]
            return leaf(p)

        changed = True
        while changed:
            changed = False
            for u in unions:
                if small[u]:
                    continue
                for c in union_kids[u]:
                    if val(c):
                        small[u] = True
                        choice[u] = c
                        changed = True
                        break
        nxt = {o: all(val(c) for c in obj_kids[o]) for o in objs}
        if nxt == big:
            truth = {p: val(p) for p in list(objs) + list(unions)}
            return truth, choice
        big = nxt


def _inhabitation(graph):
    nodes = graph[0]
    order = reachable(graph)
    objs = [i for i in order if nodes[i][0] == "obj"]
    unions = [i for i in order if nodes[i][0] == "union"]
    truth, choice = _nested_fixpoint(
        objs, unions,
        {o: children(nodes[o]) for o in objs},
        {u: children(nodes[u]) for u in unions},
        lambda p: True)
    for i in order:
        truth.setdefault(i, True)  # int
    return truth, choice


def inhabited(graph):
    """Reachable type positions that have at least one member."""
    truth, _ = _inhabitation(graph)
    return {i for i, ok in truth.items() if ok}


def not_empty(graph):
    return graph[1] in inhabited(graph)


def infinitely_many(graph):
    """True when an int is reachable through inhabited positions: every
    integer then gives a distinct member.  (Sufficient, not necessary.)"""
    nodes, root = graph
    live = inhabited(graph)
    if root not in live:
        return False
    seen = {root}
    todo = [root]
    while todo:
        i = todo.pop()
        if nodes[i][0] == "int":
            return True
        for c in children(nodes[i]):
            if c in live and c not in seen:
                seen.add(c)
                todo.append(c)
    return False


class Values:
    """Seeded members of a type, built from the inhabitation fixpoint."""

    def __init__(self, graph):
        self.graph = graph
        self.truth, self.choice = _inhabitation(graph)

    def _settle(self, t):
        nodes = self.graph[0]
        while nodes[t][0] == "union":
            t = self.choice[t]
        return t

    def member(self, rng, depth):
        """A member of the root type: random union choices and integers
        down to `depth` objects, the fixpoint's witness below that."""
        nodes, root = self.graph
        if not self.truth[root]:
            return None
        b = Builder()
        wit = {}

        def witness(t):
            t = self._settle(t)
            if t not in wit:
                if nodes[t][0] == "int":
                    wit[t] = b.num(0)
                else:
                    wit[t] = b.add(None)
                    fields = [(f, witness(c)) for f, c in nodes[t][2]]
                    b.set(wit[t], ("obj", nodes[t][1], tuple(fields)))
            return wit[t]

        def walk(t, left):
            steps = 0
            while nodes[t][0] == "union" and steps < 8:
                live = [c for c in children(nodes[t]) if self.truth[c]]
                t = rng.choice(live)
                steps += 1
            if nodes[t][0] == "union" or left == 0:
                return witness(t)
            if nodes[t][0] == "int":
                return b.num(rng.randint(-50, 50))
            fields = [(f, walk(c, left - 1)) for f, c in nodes[t][2]]
            return b.obj(nodes[t][1], fields)

        return b.graph(walk(root, depth))

    @staticmethod
    def mutate(value, rng):
        """The value with one position replaced by an object of a class
        no generated type uses; usually a non-member."""
        nodes, root = value
        nodes = list(nodes)
        victim = rng.choice(reachable(value))
        nodes[victim] = ("obj", "zz", ())
        return (nodes, root)


def member(value, graph):
    """Value membership as a nested fixpoint over (value, type) pairs."""
    vn, tn = value[0], graph[0]
    start = (value[1], graph[1])
    pairs = [start]
    seen = {start}
    obj_kids = {}
    union_kids = {}
    fixed = {}
    for p in pairs:
        v, t = vn[p[0]], tn[p[1]]
        if t[0] == "int":
            fixed[p] = v[0] == "num"
            continue
        if t[0] == "union":
            kids = [(p[0], t[1]), (p[0], t[2])]
            union_kids[p] = kids
        elif v[0] != "obj" or v[1] != t[1] or not set(dict(t[2])) <= set(dict(v[2])):
            fixed[p] = False
            continue
        else:
            vf = dict(v[2])
            kids = [(vf[f], c) for f, c in t[2]]
            obj_kids[p] = kids
        for k in kids:
            if k not in seen:
                seen.add(k)
                pairs.append(k)
    truth, _ = _nested_fixpoint(list(obj_kids), list(union_kids),
                                obj_kids, union_kids, fixed.__getitem__)
    return fixed[start] if start in fixed else truth[start]


def numeral(k):
    """The value succ^k(zero)."""
    b = Builder()
    t = b.obj("zero")
    for _ in range(k):
        t = b.obj("succ", [("pred", t)])
    return b.graph(t)


def odd_numerals_only(graph, depth=12):
    """Parity check: the numerals up to `depth` in the type are exactly
    odd ones (and there is at least one)."""
    members = [k for k in range(depth + 1) if member(numeral(k), graph)]
    return bool(members) and all(k % 2 == 1 for k in members)


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|//[^\n]*|#[^\n]*|\S")


def clause_counts(program_text):
    """Facts compile_program emits, counted from the class declarations:
    class/extends per class, dec_* per declared member, and not_dec_*
    for every (class, name) pair of the name universe that does not
    declare the name (object included)."""
    toks = [t for t in _TOKEN.findall(program_text) if t[0] not in "/#"]
    classes = []  # (fields, methods)
    i = 0
    while i < len(toks):
        if toks[i] != "class":
            raise ValueError("expected a class declaration, found %r" % toks[i])
        name = toks[i + 1]
        i += 2
        if toks[i] == "extends":
            i += 2
        i += 1  # '{'

        fields, methods = [], []
        while toks[i] != "}":
            member_name = toks[i]
            if toks[i + 1] == ";":
                fields.append(member_name)
                i += 2
                continue
            if member_name != name:
                methods.append(member_name)
            depth = 0
            while True:  # skip the parameter list and the body
                i += 1
                if toks[i] in "({":
                    depth += 1
                elif toks[i] in ")}":
                    depth -= 1
                    if depth == 0 and toks[i] == "}":
                        break
            i += 1
        classes.append((fields, methods))
        i += 1
    n = len(classes) + 1
    field_names = {f for fields, _ in classes for f in fields}
    meth_names = {m for _, methods in classes for m in methods}
    dec_field = sum(len(fields) for fields, _ in classes)
    dec_meth = sum(len(methods) for _, methods in classes)
    return {
        "class": n,
        "extends": n - 1,
        "dec_field": dec_field,
        "not_dec_field": n * len(field_names) - dec_field,
        "dec_meth": dec_meth,
        "not_dec_meth": n * len(meth_names) - dec_meth,
    }
