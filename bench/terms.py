"""The benchmark's own term graphs: generators, a printer and a parser.

Inputs are generated here as graphs, printed as equation-system source
text and handed to the program only as text.  Outputs come back as text
too (print_type / print_value) and are parsed here, so every check runs
on a representation the program never built.

A graph is ``(nodes, root)``: ``nodes`` is a list of tuples

    ("int",)                       the type int
    ("num", k)                     the integer value k
    ("obj", cls, ((f, i), ...))    object type or value, fields sorted
    ("union", i, j)                union type

and ``root`` an index into it.
"""


CLASSES = ("a", "b", "c")
FIELDS = ("f", "g", "h")


class Builder:
    """Append-only node list; ``obj`` and ``union`` may name children that
    are filled in later with ``set``, so cycles are easy to tie."""

    def __init__(self):
        self.nodes = []

    def add(self, node):
        self.nodes.append(node)
        return len(self.nodes) - 1

    def int(self):
        return self.add(("int",))

    def num(self, k):
        return self.add(("num", k))

    def obj(self, cls, fields=()):
        return self.add(("obj", cls, tuple(sorted(fields))))

    def union(self, left=None, right=None):
        return self.add(("union", left, right))

    def set(self, i, node):
        self.nodes[i] = node

    def graft(self, graph):
        """Copy another graph in; returns the index of its root here."""
        nodes, root = graph
        base = len(self.nodes)
        for node in nodes:
            self.nodes.append(_shift(node, base))
        return root + base

    def graph(self, root):
        return (list(self.nodes), root)


def _shift(node, base):
    if node[0] == "obj":
        return ("obj", node[1], tuple((f, c + base) for f, c in node[2]))
    if node[0] == "union":
        return ("union", node[1] + base, node[2] + base)
    return node


def children(node):
    if node[0] == "obj":
        return [c for _, c in node[2]]
    if node[0] == "union":
        return [node[1], node[2]]
    return []


def reachable(graph):
    """Indices reachable from the root, in discovery order."""
    nodes, root = graph
    seen = {root}
    order = [root]
    for i in order:
        for c in children(nodes[i]):
            if c not in seen:
                seen.add(c)
                order.append(c)
    return order


def size(graph):
    return len(reachable(graph))


# ---------------------------------------------------------------------------
# printing as source text

def to_source(graph, values=False):
    """Equation-system text: one binding per reachable node."""
    nodes, root = graph
    sep = " -> " if values else ": "
    out = []
    for i in reachable(graph):
        node = nodes[i]
        if node[0] == "int":
            body = "int"
        elif node[0] == "num":
            body = str(node[1])
        elif node[0] == "union":
            body = "N%d \\/ N%d" % (node[1], node[2])
        else:
            body = "obj(%s, [%s])" % (node[1], ", ".join(
                "%s%sN%d" % (f, sep, c) for f, c in node[2]))
        out.append("N%d = %s;" % (i, body))
    out.append("root N%d;" % root)
    return "\n".join(out)


# ---------------------------------------------------------------------------
# parsing the program's printed terms

_SYMBOLS = ("->", "\\/", "=", ";", "(", ")", "[", "]", ",", ":")


def _tokens(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(sym)
                i += len(sym)
                break
        else:
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if not (word[0].isalnum() or word[0] == "_" or
                    (word[0] == "-" and word[1:].isdigit())):
                raise ValueError("unexpected text %r" % word)
            toks.append(word)
            i = j
    return toks


def parse(text):
    """Parse printed equation-system text (types or values) into a graph.

    Iterative, so deeply nested printed terms parse without recursion.
    """
    toks = _tokens(text) + ["<end>"]
    pos = 0
    b = Builder()
    refs = {}  # placeholder index -> the name it cites

    def take(expected=None):
        nonlocal pos
        tok = toks[pos]
        if expected is not None and tok != expected:
            raise ValueError("expected %r, found %r" % (expected, tok))
        pos += 1
        return tok

    def fold(parts):
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = b.union(p, out)
        return out

    def expression():
        # frames: ["expr", parts, in_parens] or ["obj", cls, fields, field]
        stack = [["expr", [], False]]
        while True:
            tok = take()
            if tok == "(":
                stack.append(["expr", [], True])
                continue
            if tok == "obj":
                take("(")
                cls = take()
                take(",")
                take("[")
                if toks[pos] != "]":
                    field = take()
                    take()  # ':' or '->'
                    stack.append(["obj", cls, [], field])
                    stack.append(["expr", [], False])
                    continue
                take("]")
                take(")")
                value = b.obj(cls)
            elif tok == "int":
                value = b.int()
            elif tok[0].isupper():
                value = b.add(None)
                refs[value] = tok
            else:
                value = b.num(int(tok))
            # a complete atom: attach it, closing every construct it ends
            while True:
                frame = stack[-1]
                frame[1].append(value)
                if toks[pos] == "\\/":
                    take()
                    break
                stack.pop()
                value = fold(frame[1])
                if frame[2]:
                    take(")")
                    continue
                if not stack:
                    return value
                owner = stack[-1]
                owner[2].append((owner[3], value))
                if toks[pos] == ",":
                    take()
                    owner[3] = take()
                    take()
                    stack.append(["expr", [], False])
                    break
                take("]")
                take(")")
                stack.pop()
                value = b.obj(owner[1], owner[2])

    bindings = {}
    while toks[pos] != "root":
        name = take()
        take("=")
        bindings[name] = expression()
        take(";")
    take("root")
    root = bindings[take()]

    def real(i):
        for _ in range(len(refs) + 1):
            if i not in refs:
                return i
            i = bindings[refs[i]]
        raise ValueError("alias cycle in printed term")

    nodes = []
    for node in b.nodes:
        if node is None or node[0] in ("int", "num"):
            nodes.append(node)
        elif node[0] == "obj":
            nodes.append(("obj", node[1],
                          tuple(sorted((f, real(c)) for f, c in node[2]))))
        else:
            nodes.append(("union", real(node[1]), real(node[2])))
    return (nodes, real(root))


# ---------------------------------------------------------------------------
# generators: the ROADMAP Baseline shapes, random graphs and rewirings

def chain(n):
    """int wrapped in n objects: obj(a, [f: ... obj(a, [f: int])])."""
    b = Builder()
    t = b.int()
    for _ in range(n):
        t = b.obj("a", [("f", t)])
    return b.graph(t)


def spine(n):
    """n unions down a spine: obj(a, [f: int]) \\/ (... \\/ int)."""
    b = Builder()
    t = b.int()
    for _ in range(n):
        t = b.union(b.obj("a", [("f", b.int())]), t)
    return b.graph(t)


def fan(n):
    """Node i is obj(a, [f: node i+1, g: node 0]); the last f is int."""
    b = Builder()
    ids = [b.add(None) for _ in range(n)]
    end = b.int()
    for i in range(n):
        b.set(ids[i], ("obj", "a", (("f", ids[i + 1] if i + 1 < n else end),
                                    ("g", ids[0]))))
    return b.graph(ids[0])


def cyclic_chain(n):
    """Criterion 5's chain: n objects whose f fields close one cycle."""
    b = Builder()
    ids = [b.add(None) for _ in range(n)]
    for i in range(n):
        b.set(ids[i], ("obj", "a", (("f", ids[(i + 1) % n]),)))
    return b.graph(ids[0])


def union_tower(n):
    """Criterion 5's union: int under n unions whose two sides coincide."""
    b = Builder()
    t = b.int()
    for _ in range(n):
        t = b.union(t, t)
    return b.graph(t)


def random_type(rng, n, empty_share=0.0):
    """Random type graph of exactly n reachable nodes, cycles allowed.

    A random spanning tree keeps every node reachable; a few more edges go
    anywhere, so the graph has cycles.  Unions join only non-unions, an
    object has at most one union-valued field and at most one field off
    the tree: with more cycles and more distribution variants the
    program's derive gets exponentially slower and exhausts its budget.
    With empty_share > 0 that share of the int leaves become
    ``B = B \\/ B``, the empty type, so parts of the graph are uninhabited.
    """
    kinds = ["obj"]
    tree = [[]]
    capacity = {"obj": 3, "union": 2, "int": 0}
    slots = 3

    def can_adopt(j, kind):
        if len(tree[j]) >= capacity[kinds[j]] or kind != "union":
            return len(tree[j]) < capacity[kinds[j]]
        return kinds[j] == "obj" and all(kinds[c] != "union" for c in tree[j])

    for i in range(1, n):
        pick = rng.random()
        kind = "union" if pick < 0.3 else "int" if pick < 0.5 else "obj"
        if slots <= 1:
            kind = "obj"
        parents = [j for j in range(i) if can_adopt(j, kind)]
        if not parents:
            kind = "obj"
            parents = [j for j in range(i) if can_adopt(j, kind)]
        tree[rng.choice(parents)].append(i)
        kinds.append(kind)
        tree.append([])
        slots += capacity[kind] - 1
    plain = [j for j in range(n) if kinds[j] != "union"]
    nodes = []
    for i, kind in enumerate(kinds):
        if kind == "int":
            nodes.append(("union", i, i) if rng.random() < empty_share else ("int",))
        elif kind == "union":
            ends = tree[i] + [rng.choice(plain) for _ in range(2 - len(tree[i]))]
            rng.shuffle(ends)
            nodes.append(("union", ends[0], ends[1]))
        else:
            extra = rng.randint(0, min(1, 3 - len(tree[i])))
            has_union = any(kinds[c] == "union" for c in tree[i])
            targets = list(tree[i])
            for _ in range(extra):
                t = rng.randrange(n)
                if kinds[t] == "union":
                    if has_union:
                        t = rng.choice(plain)
                    has_union = True
                targets.append(t)
            names = rng.sample(FIELDS, len(targets))
            nodes.append(("obj", rng.choice(CLASSES), tuple(sorted(zip(names, targets)))))
    return (nodes, 0)


def inflate(graph, rng, copies=2):
    """A bisimilar graph: every reachable node duplicated `copies` times,
    each edge re-aimed at a random duplicate of its old target."""
    nodes, root = graph
    order = reachable(graph)
    base = {i: k * copies for k, i in enumerate(order)}
    out = []
    for i in order:
        node = nodes[i]
        for _ in range(copies):
            if node[0] == "obj":
                out.append(("obj", node[1], tuple(
                    (f, base[c] + rng.randrange(copies)) for f, c in node[2])))
            elif node[0] == "union":
                out.append(("union", base[node[1]] + rng.randrange(copies),
                            base[node[2]] + rng.randrange(copies)))
            else:
                out.append(node)
    return (out, base[root] + rng.randrange(copies))


def union_of(left, right):
    """left \\/ right, both copied into one graph."""
    b = Builder()
    i = b.graft(left)
    j = b.graft(right)
    return b.graph(b.union(i, j))
