"""Coinductive subtyping of regular union/object types.

A judgment t1 <= t2 holds iff it has a cyclic derivation in which every
cycle applies at least one rule other than the two right-union
expansions.  Rule options per judgment:

  - left union: commit to the union-left split (it is invertible)
  - left empty (checked once per node): the empty rule, a leaf
  - int vs int: the int axiom
  - left object: distribute the first union-valued field (by name),
    then the object rule when classes match and the right side's fields
    are a subset, then the two right-union expansions
  - int vs union: the two right-union expansions

Left sides generated by distribution live in a finite space (same class,
field types drawn from the original left closure), so the set of
reachable judgments is finite; the solvers assert this on every new
judgment, which is the termination argument.

subtype explores the reachable judgments once and then evaluates the
cycle condition per strongly connected component: the component's
verdict set is the largest one where every held judgment has a rule
option whose premises all hold, and where following only non-guarding
options (the right-union expansions) cannot loop forever.  Each
judgment is visited once, so verdicts cost linear memo space.

derive searches for a derivation tree depth-first instead, closing a
cycle whenever it reaches a judgment already on the search path
(accepted iff the path segment since that judgment applied a guarding
rule), sharing finished subtrees and emitting explicit back-edges; each
back-edge carries the set of rule labels on its cycle.
"""

import itertools
from dataclasses import dataclass, field

from coinfer.emptiness import inhabited
from coinfer.term_core import (
    BudgetExceeded,
    IntType,
    ObjType,
    UnionType,
    canonicalize,
    print_type,
    subterm_closure,
)

_INF = float("inf")

DEFAULT_MEMO_LIMIT = 1_000_000

R_INT = "int"
R_OR_L = "∨L"
R_OR_R1 = "∨R1"
R_OR_R2 = "∨R2"
R_OBJ = "obj"
R_DISTR = "distr"
R_EMPTY = "empty"

CONTRACTIVE_RULES = frozenset({R_OR_L, R_OBJ, R_DISTR})

_node_ids = itertools.count(1)


@dataclass
class DerivationNode:
    left: object
    right: object
    rule: str = None
    children: list = field(default_factory=list)
    uid: int = field(default_factory=lambda: next(_node_ids))


@dataclass
class BackEdge:
    target: DerivationNode
    labels: frozenset = frozenset()


def _inline(t):
    return print_type(t).replace("\n", " ")


class Derivation:
    """A finite cyclic subtyping derivation."""

    def __init__(self, root):
        self.root = root
        self._annotate()

    def _annotate(self):
        """Fill each back-edge's label set: the rules applied on the path
        from its target down to its source, inclusive."""
        on_path = []
        index = {}
        done = set()

        def walk(node):
            index[node.uid] = len(on_path)
            on_path.append(node)
            for i, child in enumerate(node.children):
                if isinstance(child, BackEdge):
                    start = index[child.target.uid]
                    labels = frozenset(n.rule for n in on_path[start:])
                    assert not labels <= {R_OR_R1, R_OR_R2}, \
                        "non-contractive cycle in a finished derivation"
                    node.children[i] = BackEdge(child.target, labels)
                elif child.uid not in done:
                    walk(child)
            on_path.pop()
            del index[node.uid]
            done.add(node.uid)

        walk(self.root)

    def _ordered_nodes(self):
        order = []
        seen = set()

        def walk(node):
            if node.uid in seen:
                return
            seen.add(node.uid)
            order.append(node)
            for child in node.children:
                if not isinstance(child, BackEdge):
                    walk(child)

        walk(self.root)
        return order

    def to_dict(self):
        nodes = self._ordered_nodes()
        idx = {n.uid: i for i, n in enumerate(nodes)}
        out = []
        for n in nodes:
            children = []
            for c in n.children:
                if isinstance(c, BackEdge):
                    children.append({"kind": "back", "node": idx[c.target.uid],
                                     "labels": sorted(c.labels)})
                else:
                    children.append({"kind": "premise", "node": idx[c.uid]})
            out.append({"id": idx[n.uid], "rule": n.rule,
                        "left": _inline(n.left), "right": _inline(n.right),
                        "children": children})
        return {"root": 0, "nodes": out}

    def format_text(self):
        nodes = self._ordered_nodes()
        idx = {n.uid: i for i, n in enumerate(nodes)}
        lines = []
        printed = set()

        def walk(node, depth):
            pad = "  " * depth
            i = idx[node.uid]
            if node.uid in printed:
                lines.append("%s#%d (shared, see above)" % (pad, i))
                return
            printed.add(node.uid)
            lines.append("%s#%d %s  <=  %s   [%s]"
                         % (pad, i, _inline(node.left), _inline(node.right), node.rule))
            for c in node.children:
                if isinstance(c, BackEdge):
                    lines.append("%s  cycle to #%d (labels: %s)"
                                 % (pad, idx[c.target.uid], ", ".join(sorted(c.labels))))
                else:
                    walk(c, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


class _RuleSpace:
    """The judgment space shared by both solvers: canonical roots, the
    subterm closures they range over, distribution variants, and the
    rule options applicable to one judgment."""

    def __init__(self, t1, t2, limit):
        self.left_root = canonicalize(t1)
        self.right_root = canonicalize(t2)
        self.limit = limit
        left = subterm_closure(self.left_root)
        self.left_space = {n.uid for n in left}
        self.right_space = {n.uid for n in subterm_closure(self.right_root)}
        self.variants = {}
        for n in left:
            if isinstance(n, ObjType):
                self.variants[self._variant_key(n.class_name, n.fields)] = n
        self.live = inhabited(self.left_root)
        self.count = 0

    @staticmethod
    def _variant_key(cls, fields):
        return (cls, tuple((f, t.uid) for f, t in sorted(fields.items())))

    def _variant(self, l, fname, branch):
        fields = dict(l.fields)
        fields[fname] = branch
        key = self._variant_key(l.class_name, fields)
        node = self.variants.get(key)
        if node is None:
            assert all(t.uid in self.left_space for t in fields.values()), \
                "distribution left the original subterm space"
            node = ObjType(l.class_name, fields)
            self.variants[key] = node
            self.left_space.add(node.uid)
            if all(t.uid in self.live for t in fields.values()):
                self.live.add(node.uid)
        return node

    def _options(self, l, r):
        if isinstance(l, UnionType):
            return [(R_OR_L, [(l.left, r), (l.right, r)])]
        if l.uid not in self.live:
            return [(R_EMPTY, [])]
        opts = []
        if isinstance(l, IntType):
            if isinstance(r, IntType):
                opts.append((R_INT, []))
        else:
            fname = next((f for f in sorted(l.fields)
                          if isinstance(l.fields[f], UnionType)), None)
            if fname is not None:
                u = l.fields[fname]
                opts.append((R_DISTR, [(self._variant(l, fname, u.left), r),
                                       (self._variant(l, fname, u.right), r)]))
            if (isinstance(r, ObjType) and r.class_name == l.class_name
                    and set(r.fields) <= set(l.fields)):
                opts.append((R_OBJ, [(l.fields[f], r.fields[f])
                                     for f in sorted(r.fields)]))
        if isinstance(r, UnionType):
            opts.append((R_OR_R1, [(l, r.left)]))
            opts.append((R_OR_R2, [(l, r.right)]))
        return opts

    def _charge(self, l, r):
        assert l.uid in self.left_space, "judgment outside left space"
        assert r.uid in self.right_space, "judgment outside right space"
        self.count += 1
        if self.count > self.limit:
            raise BudgetExceeded(
                "subtyping search budget of %d judgments" % self.limit)


class _Decider(_RuleSpace):
    """Boolean subtyping: explore every reachable judgment once, then
    settle verdicts per strongly connected component of the judgment
    graph, dependencies first."""

    def run(self):
        rootkey, opts = self._explore()
        decided = {}
        for comp in self._components(rootkey, opts):
            self._settle(comp, opts, decided)
        return decided[rootkey]

    def _explore(self):
        rootkey = (self.left_root.uid, self.right_root.uid)
        opts = {}
        todo = [(self.left_root, self.right_root)]
        while todo:
            l, r = todo.pop()
            key = (l.uid, r.uid)
            if key in opts:
                continue
            self._charge(l, r)
            options = []
            for rule, premises in self._options(l, r):
                options.append((rule, [(pl.uid, pr.uid) for pl, pr in premises]))
                todo.extend(premises)
            opts[key] = options
        return rootkey, opts

    @staticmethod
    def _components(rootkey, opts):
        """Strongly connected components of the judgment graph, in an
        order where each component's external successors come first."""
        index = {}
        low = {}
        onstack = set()
        pending = []
        counter = itertools.count()

        def enter(key):
            index[key] = low[key] = next(counter)
            onstack.add(key)
            pending.append(key)
            return (key, iter([c for _, kids in opts[key] for c in kids]))

        stack = [enter(rootkey)]
        while stack:
            key, children = stack[-1]
            pushed = False
            for child in children:
                if child not in index:
                    stack.append(enter(child))
                    pushed = True
                    break
                if child in onstack and index[child] < low[key]:
                    low[key] = index[child]
            if pushed:
                continue
            stack.pop()
            if stack and low[key] < low[stack[-1][0]]:
                low[stack[-1][0]] = low[key]
            if low[key] == index[key]:
                comp = []
                while True:
                    member = pending.pop()
                    onstack.discard(member)
                    comp.append(member)
                    if member == key:
                        break
                yield comp

    def _settle(self, comp, opts, decided):
        """Verdicts for one component: start from everything holding,
        repeatedly keep only the judgments justified by some option --
        premises outside the component by their settled verdict, guarded
        premises inside it by the current approximation, unguarded ones
        only once justified themselves this round, so a cycle of nothing
        but right-union expansions can never support itself."""
        members = frozenset(comp)
        live = members
        while True:
            settled = set()
            changed = True
            while changed:
                changed = False
                for j in comp:
                    if j in settled:
                        continue
                    if self._justified(opts[j], members, live, settled, decided):
                        settled.add(j)
                        changed = True
            if len(settled) == len(live):
                break
            live = settled
        for j in comp:
            decided[j] = j in live

    @staticmethod
    def _justified(options, members, live, settled, decided):
        for rule, kids in options:
            inside = live if rule in CONTRACTIVE_RULES else settled
            for k in kids:
                if (k in inside if k in members else decided[k]):
                    continue
                break
            else:
                return True
        return False


class _Solver(_RuleSpace):
    """Trace-building subtyping: depth-first search for one derivation,
    recording the tree with shared subtrees and explicit back-edges."""

    def __init__(self, t1, t2, limit):
        super().__init__(t1, t2, limit)
        self.path = {}    # (l uid, r uid) -> (position, in-progress node)
        self.anchors = []  # ascending positions currently running a contractive rule
        self.memo = {}    # (l uid, r uid) -> (verdict, fragment)

    def _set_anchor(self, pos, rule):
        if self.anchors and self.anchors[-1] == pos:
            if rule not in CONTRACTIVE_RULES:
                self.anchors.pop()
        elif rule in CONTRACTIVE_RULES:
            self.anchors.append(pos)

    def _expand(self, l, r, pos, node):
        false_low = _INF
        for rule, premises in self._options(l, r):
            self._set_anchor(pos, rule)
            node.rule = rule
            node.children = []
            low = _INF
            failed = False
            for pl, pr in premises:
                ok, plow, frag = yield (pl, pr)
                if not ok:
                    false_low = min(false_low, plow)
                    failed = True
                    break
                low = min(low, plow)
                node.children.append(frag)
            if not failed:
                return (True, low, node)
        return (False, false_low, None)

    def _classify(self, l, r):
        key = (l.uid, r.uid)
        hit = self.memo.get(key)
        if hit is not None:
            return ("done", (hit[0], _INF, hit[1]))
        here = self.path.get(key)
        if here is not None:
            q, pnode = here
            if self.anchors and self.anchors[-1] >= q:
                return ("done", (True, q, BackEdge(pnode)))
            return ("done", (False, q, None))
        self._charge(l, r)
        pos = len(self.path)
        node = DerivationNode(l, r)
        self.path[key] = (pos, node)
        return ("run", (self._expand(l, r, pos, node), key, pos))

    def run(self):
        kind, payload = self._classify(self.left_root, self.right_root)
        if kind == "done":
            return payload[0], payload[2]
        stack = [payload]
        sent = None
        while stack:
            gen, key, pos = stack[-1]
            try:
                child = gen.send(sent) if sent is not None else next(gen)
            except StopIteration as fin:
                ok, low, frag = fin.value
                del self.path[key]
                if self.anchors and self.anchors[-1] == pos:
                    self.anchors.pop()
                stack.pop()
                if low >= pos:
                    # the verdict never looked below this judgment, so no
                    # search context can change it: safe to keep for good
                    self.memo[key] = (ok, frag)
                    low = _INF
                sent = (ok, low, frag)
                continue
            kind, payload = self._classify(*child)
            if kind == "done":
                sent = payload
            else:
                stack.append(payload)
                sent = None
        return sent[0], sent[2]


def subtype(t1, t2, memo_limit=DEFAULT_MEMO_LIMIT):
    """True iff a contractive derivation of t1 <= t2 exists.

    Raises BudgetExceeded (never returns false) when the reachable
    judgment space outgrows memo_limit entries.
    """
    return _Decider(t1, t2, memo_limit).run()


def derive(t1, t2, memo_limit=DEFAULT_MEMO_LIMIT):
    """A Derivation witnessing t1 <= t2, or None when it does not hold.

    The search re-derives judgments whose verdict depended on the path
    above them, so it can need more budget than subtype on the same pair.
    """
    ok, root = _Solver(t1, t2, memo_limit).run()
    return Derivation(root) if ok else None


def equivalent(t1, t2, memo_limit=DEFAULT_MEMO_LIMIT):
    """Mutual subtyping."""
    return (subtype(t1, t2, memo_limit=memo_limit)
            and subtype(t2, t1, memo_limit=memo_limit))
