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
reachable judgments is finite, which is the termination argument:
every premise is a child of its judgment's nodes or a variant built
from left-closure fields.  tests/test_subtyping.py checks it on random
pairs (test_every_judgment_lies_in_the_finite_judgment_space).  Such a
left side is hash-consed: its class and field nodes are canonical, so
it is the node interned under them (Filliatre & Conchon 2006), shared
by every engine.

One engine answers both subtype and derive; subtype runs it only when
the roots' union alternatives do not settle the pair.  It walks the
judgment graph with term_core's strongly connected component generator
(Tarjan), which emptiness and the sampler use too, and settles each
component as soon as the walk closes it: the component's verdict set is
the largest one where every held judgment has a rule option whose
premises all hold, and where following only non-guarding options (the
right-union expansions) cannot loop forever.  Each judgment is entered
once, so verdicts cost linear memo space.  A judgment's premises are
read lazily, each after the components closed below the one before are
settled: an option is dropped as soon as one of its premises is settled
false, and a judgment stops trying options once one option's premises
all hold.

For each held judgment the engine keeps the option that justified it in
the final round of its component.  derive reads the derivation off those
options in one depth-first walk: an edge to a judgment on the walk's
path becomes a back-edge, labelled with the rules applied on its cycle,
and an edge to a finished judgment a shared node.  In a component's
final round a non-guarding option justifies a judgment only after its
premise was justified, so every cycle of chosen options applies a
guarding rule.
"""

from coinfer.emptiness import inhabited
from coinfer.term_core import (
    BudgetExceeded,
    IntType,
    ObjType,
    UnionType,
    _components,
    _intern,
    canonicalize,
    print_type,
    union_alternatives,
)

DEFAULT_MEMO_LIMIT = 1_000_000

R_INT = "int"
R_OR_L = "∨L"
R_OR_R1 = "∨R1"
R_OR_R2 = "∨R2"
R_OBJ = "obj"
R_DISTR = "distr"
R_EMPTY = "empty"

CONTRACTIVE_RULES = frozenset({R_OR_L, R_OBJ, R_DISTR})


class DerivationNode:
    __slots__ = ("left", "right", "rule", "uid", "children")

    def __init__(self, left, right, rule, uid):
        self.left, self.right, self.rule = left, right, rule
        self.uid = uid  # position in the derivation's node list
        self.children = []  # premises (DerivationNode) and BackEdges


class BackEdge:
    __slots__ = ("target", "labels")

    def __init__(self, target, labels):
        self.target = target
        self.labels = labels  # the rules applied on the cycle it closes


def _inline(t):
    return print_type(t).replace("\n", " ")


class Derivation:
    """A finite cyclic subtyping derivation.  `nodes` holds each node
    once, root first, in the order a depth-first walk along premises
    meets them; a node's uid is its index there."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.root = nodes[0]

    def to_dict(self):
        out = []
        for n in self.nodes:
            children = []
            for c in n.children:
                if isinstance(c, BackEdge):
                    children.append({"kind": "back", "node": c.target.uid,
                                     "labels": sorted(c.labels)})
                else:
                    children.append({"kind": "premise", "node": c.uid})
            out.append({"id": n.uid, "rule": n.rule,
                        "left": _inline(n.left), "right": _inline(n.right),
                        "children": children})
        return {"root": 0, "nodes": out}

    def format_text(self):
        lines = []
        printed = set()
        todo = [(self.root, 0)]
        while todo:
            item, depth = todo.pop()
            pad = "  " * depth
            if isinstance(item, BackEdge):
                lines.append("%scycle to #%d (labels: %s)"
                             % (pad, item.target.uid, ", ".join(sorted(item.labels))))
            elif item.uid in printed:
                lines.append("%s#%d (shared, see above)" % (pad, item.uid))
            else:
                printed.add(item.uid)
                lines.append("%s#%d %s  <=  %s   [%s]" % (
                    pad, item.uid, _inline(item.left), _inline(item.right), item.rule))
                todo.extend((c, depth + 1) for c in reversed(item.children))
        return "\n".join(lines)


class _Engine:
    """The judgments reachable from one pair, walked once.  A judgment is
    a (left node, right node) pair of the canonical roots' closures, or
    of distribution variants on the left.  `verdict` maps every judgment
    the walk entered to its verdict; `chosen` maps each held one to the
    (rule, premises) option that justified it."""

    def __init__(self, t1, t2, limit):
        left_root = canonicalize(t1)
        right_root = canonicalize(t2)
        self.root = (left_root, right_root)
        self.limit = limit
        self.live = inhabited(left_root)
        self.splits = {}  # left object uid -> its two distribution variants, or None
        self.kept = {}  # entered judgment -> the options kept for settling
        self.verdict = {}
        self.chosen = {}
        for comp in _components([self.root], self._premises):
            self._settle(comp)

    def holds(self):
        return self.verdict[self.root]

    def _variant(self, l, fname, branch):
        """l with field fname set to branch: the canonical node of its
        local key, found or made by _intern, as l and branch are canonical
        and every canonical node is interned under its local key."""
        kids = [branch if f == fname else t for f, t in l.fields.items()]
        node = _intern(("obj", l.class_name, tuple(l.fields)), kids)
        if all(t.uid in self.live for t in kids):
            self.live[node.uid] = node
        return node

    def _split(self, l):
        """l with its first union-valued field (by name) set to either
        side of the union, or None when no field is a union."""
        if l.uid in self.splits:
            return self.splits[l.uid]
        split = None
        for fname, u in l.fields.items():
            if type(u) is UnionType:
                split = (self._variant(l, fname, u.left), self._variant(l, fname, u.right))
                break
        self.splits[l.uid] = split
        return split

    def _options(self, l, r):
        if type(l) is UnionType:
            return [(R_OR_L, [(l.left, r), (l.right, r)])]
        if l.uid not in self.live:
            return [(R_EMPTY, [])]
        opts = []
        if type(l) is IntType:
            if type(r) is IntType:
                opts.append((R_INT, []))
        else:
            split = self._split(l)
            if split is not None:
                opts.append((R_DISTR, [(split[0], r), (split[1], r)]))
            if (type(r) is ObjType and r.class_name == l.class_name
                    and r.fields.keys() <= l.fields.keys()):
                opts.append((R_OBJ, [(l.fields[f], c) for f, c in r.fields.items()]))
        if type(r) is UnionType:
            opts.append((R_OR_R1, [(l, r.left)]))
            opts.append((R_OR_R2, [(l, r.right)]))
        return opts

    def _premises(self, j):
        """The premises of j's options that the walk must enter, in order,
        each read once the components closed below the one before are
        settled.  An option is dropped at a premise settled false and kept
        for settling otherwise; once a kept option's premises all hold, the
        later options cannot matter.  A premise still open is in j's
        component."""
        l, r = j
        if len(self.kept) >= self.limit:
            raise BudgetExceeded(
                "subtyping search budget of %d judgments" % self.limit)
        verdict = self.verdict
        usable = self.kept[j] = []
        for option in self._options(l, r):
            for k in option[1]:
                held = verdict.get(k)
                if held is None:
                    yield k
                    held = verdict.get(k)
                if held is False:
                    break  # this option can never hold
            else:
                usable.append(option)
                if all(verdict.get(k) for k in option[1]):
                    return  # holds for good

    def _settle(self, comp):
        """Verdicts for one component: start from everything holding,
        repeatedly keep only the judgments justified by some option --
        premises outside the component by their settled verdict, guarded
        premises inside it by the current approximation, unguarded ones
        only once justified themselves this round, so a cycle of nothing
        but right-union expansions can never support itself."""
        verdict, kept = self.verdict, self.kept
        members = frozenset(comp)
        live = members
        while True:
            settled = {}  # judgment -> the option that justified it
            changed = True
            while changed:
                changed = False
                for j in comp:
                    if j in settled:
                        continue
                    for option in kept[j]:
                        inside = live if option[0] in CONTRACTIVE_RULES else settled
                        for k in option[1]:
                            if not (k in inside if k in members else verdict[k]):
                                break
                        else:
                            settled[j] = option
                            changed = True
                            break
            if len(settled) == len(live):
                break
            live = settled
        for j in comp:
            verdict[j] = j in live
        self.chosen.update(settled)


def subtype(t1, t2, memo_limit=DEFAULT_MEMO_LIMIT):
    """True iff a contractive derivation of t1 <= t2 exists.

    When the canonical roots are one node, or every union alternative of
    t1 is one of t2, the pair holds without a walk: left-union steps
    split t1 into its alternatives, right-union steps along a shortest
    union path reach each one in t2, and a <= a holds for every node a.
    A union-only cycle has no alternatives, so it is below everything.
    Any other pair runs the engine.

    memo_limit bounds the judgments the engine walks; pairs settled by
    their alternatives walk none.  Raises BudgetExceeded (never returns
    false) when the reachable judgment space outgrows it.
    """
    left, right = canonicalize(t1), canonicalize(t2)
    if left is right:
        return True
    if type(left) is UnionType or type(right) is UnionType:  # else each is its own
        alts = set(union_alternatives(right))
        if all(a in alts for a in union_alternatives(left)):
            return True
    return _Engine(left, right, memo_limit).holds()


def derive(t1, t2, memo_limit=DEFAULT_MEMO_LIMIT):
    """A Derivation witnessing t1 <= t2, or None when it does not hold.

    Runs subtype's engine, with the same budget, and reads the
    derivation off the option that justified each held judgment: one
    depth-first walk from the root, where a premise on the walk's path
    becomes a back-edge and a premise already finished a shared node.
    """
    engine = _Engine(t1, t2, memo_limit)
    if not engine.holds():
        return None
    chosen = engine.chosen
    nodes = {}    # judgment -> its DerivationNode, in the order the walk makes them
    depth = {}    # judgment on the walk's path -> its depth there
    rules = []    # the rules applied along the path

    def open_node(j):
        rule, premises = chosen[j]
        node = nodes[j] = DerivationNode(j[0], j[1], rule, len(nodes))
        depth[j] = len(rules)
        rules.append(rule)
        return j, node, iter(premises)

    frames = [open_node(engine.root)]
    while frames:
        j, node, premises = frames[-1]
        for k in premises:
            at = depth.get(k)
            if at is not None:
                labels = frozenset(rules[at:])
                assert not labels <= {R_OR_R1, R_OR_R2}, \
                    "non-contractive cycle in a finished derivation"
                node.children.append(BackEdge(nodes[k], labels))
            elif k in nodes:
                node.children.append(nodes[k])
            else:
                frames.append(open_node(k))
                node.children.append(frames[-1][1])
                break
        else:
            frames.pop()
            del depth[j]
            rules.pop()
    return Derivation(list(nodes.values()))


def equivalent(t1, t2, memo_limit=DEFAULT_MEMO_LIMIT):
    """Mutual subtyping."""
    return (subtype(t1, t2, memo_limit=memo_limit)
            and subtype(t2, t1, memo_limit=memo_limit))
