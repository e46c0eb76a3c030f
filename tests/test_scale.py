"""Scale checks: canonicalization and the inhabited-set pass on graphs
far larger than the unit tests use, against the independent oracles of
conftest, plus time bounds on the Baseline shapes and one long cycle."""

import time

import pytest

from conftest import (
    chain,
    fan,
    inflate,
    inhabited_oracle,
    node_children,
    random_connected_type,
    random_type,
    seeded,
    spine,
    trees_equal_oracle,
    union_tower,
)

from coinfer.emptiness import inhabited
from coinfer.term_core import IntType, ObjType, canonicalize, subterm_closure


def _canonical_map(t, c):
    """Original node uid -> the canonical node it must map to, found by
    walking t and its canonical form c in step."""
    image = {}
    todo = [(t, c)]
    while todo:
        a, b = todo.pop()
        if a.uid in image:
            assert image[a.uid] is b, "a node maps to two canonical nodes"
            continue
        image[a.uid] = b
        todo.extend(zip(node_children(a), node_children(b)))
    return image


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_canonicalize_large_random_graphs_against_oracle(seed):
    rng = seeded(9100 + seed)
    t = random_connected_type(rng, 1000)
    nodes = sorted(subterm_closure(t), key=lambda n: n.uid)
    assert len(nodes) == 1000
    c = canonicalize(t)
    assert trees_equal_oracle(t, c)
    image = _canonical_map(t, c)
    canon = sorted(subterm_closure(c), key=lambda n: n.uid)
    assert len(canon) == len({n.uid for n in image.values()})
    # identity of images is bisimilarity: sampled pairs, same-shape ones too
    for _ in range(300):
        a, b = rng.choice(nodes), rng.choice(nodes)
        assert trees_equal_oracle(a, b) == (image[a.uid] is image[b.uid])
    for _ in range(100):
        a, b = rng.choice(canon), rng.choice(canon)
        assert trees_equal_oracle(a, b) == (a is b)
    for copies in (2, 3):
        assert canonicalize(inflate(t, rng, copies)) is c
    # every node canonicalizes to its image, also entered from inside a cycle
    for n in rng.sample(nodes, 20):
        assert canonicalize(n) is image[n.uid]


def two_marks(n):
    """A cycle of n objects obj(a, [f: next]) but for two obj(b, ...)
    about half-way apart: the classes differ only by the distance to the
    next mark, so plain refinement needs about n/2 rounds."""
    classes = ["a"] * n
    classes[0] = classes[n // 2 + 1] = "b"
    nodes = [ObjType(c) for c in classes]
    for i, node in enumerate(nodes):
        node.fields = {"f": nodes[(i + 1) % n]}
    return nodes[0]


@pytest.mark.parametrize("shape", [chain, spine, fan, two_marks])
def test_canonicalize_baseline_shapes_at_4000(shape):
    t = shape(4000)
    start = time.monotonic()
    c = canonicalize(t)
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, "%s 4000 took %.2fs" % (shape.__name__, elapsed)
    assert trees_equal_oracle(t, c)
    assert canonicalize(inflate(t, seeded(4000))) is c


def test_canonicalize_cycle_entered_anywhere():
    # fresh copies entered at each node must land on the one interned cycle
    n = 40
    c = canonicalize(two_marks(n))
    expect = c
    for k in range(n):
        entry = two_marks(n)
        for _ in range(k):
            entry = entry.fields["f"]
        assert canonicalize(entry) is expect
        expect = expect.fields["f"]
    assert expect is c


def test_new_cycle_over_a_canonical_ring_partitions_only_itself(monkeypatch):
    # a one-node cycle over a canonical 2·10**4-node ring is closed on its
    # own: the ring is an exit, so neither walked again nor partitioned
    import coinfer.term_core as term_core

    n = 20_000
    nodes = [ObjType("ringmark" if i == 0 else "ring") for i in range(n)]
    for i, node in enumerate(nodes):
        node.fields = {"f": nodes[(i + 1) % n]}
    ring = canonicalize(nodes[0])
    sizes = []
    real = term_core._partition

    def counting(kids, shapes):
        sizes.append(len(kids))
        return real(kids, shapes)

    monkeypatch.setattr(term_core, "_partition", counting)
    best = float("inf")
    for k in range(3):
        x = ObjType("over%d" % k)
        x.fields = {"f": x, "g": ring}
        start = time.perf_counter()
        c = canonicalize(x)
        best = min(best, time.perf_counter() - start)
        assert c.fields["f"] is c and c.fields["g"] is ring
    assert sizes == [1, 1, 1]
    assert best < 0.01, "a new cycle over a canonical ring took %.4fs" % best


def _assert_inhabited_matches(t):
    # not_empty reads inhabited, so the independent oracle is the reference
    assert set(inhabited(t)) == inhabited_oracle(t)


def test_inhabited_matches_not_empty_on_random_types():
    rng = seeded(7704)  # criterion 4's types
    for _ in range(5_000):
        _assert_inhabited_matches(random_type(rng, rng.randint(1, 12)))


@pytest.mark.parametrize("shape", [chain, spine, fan, union_tower])
def test_inhabited_matches_not_empty_on_baseline_shapes(shape):
    _assert_inhabited_matches(shape(60))


def diamond_ladder(rungs):
    """Rung i is obj(a, [f: x, g: y]) where x = obj(b, [h: rung i+1]) and
    y = obj(c, [h: rung i+1]); the last rung is int.  3·rungs+1 nodes,
    2**rungs paths from the root to the int."""
    t = IntType()
    for _ in range(rungs):
        t = ObjType("a", {"f": ObjType("b", {"h": t}), "g": ObjType("c", {"h": t})})
    return t


@pytest.mark.parametrize("shape,n,size", [(chain, 100_000, 100_001),
                                          (diamond_ladder, 40, 121)])
def test_canonicalize_acyclic_in_linear_time(shape, n, size):
    # each node is entered once, on an explicit stack: 10**5 levels and
    # 2**40 paths cost no recursion and no path enumeration
    t = shape(n)
    start = time.monotonic()
    c = canonicalize(t)
    elapsed = time.monotonic() - start
    assert elapsed < 3.0, "%s %d took %.2fs" % (shape.__name__, n, elapsed)
    assert len(subterm_closure(c)) == size
    assert canonicalize(shape(n)) is c


# ---------------------------------------------------------------------------
# solver probes: stamped prelude terms and the ancestor key check

def _solve_probe(program, query, max_depth):
    from coinfer.cosld_engine import SolverConfig, parse_query, solve
    from coinfer.horn_compiler import compile_program, parse_program

    clauses = compile_program(parse_program(program))
    q = parse_query(query)
    start = time.perf_counter()
    res = solve(q, clauses, SolverConfig(max_depth=max_depth))
    return res, time.perf_counter() - start


def test_union_receiver_probe():
    # field_acc on a prelude union of 400 boxes: each goal's union is
    # stamped, so the ancestors whose stamps differ are skipped unread
    alts = " \\/ ".join("obj(box, [v: obj(c%d, [])])" % i for i in range(400))
    res, elapsed = _solve_probe("class Box { v; Box(x) { this.v = x; } get() { return v; } }",
                                "U = %s; field_acc(U, v, R)" % alts, 4096)
    assert len(res.answers) == 1 and res.complete
    assert res.steps == 5345
    assert elapsed < 1.0, "union receiver 400 took %.2fs" % elapsed


def test_inline_union_receiver_probe():
    # the same union written inline in the atom: its ground terms are
    # stamped as the prelude's are, with the same steps
    alts = " \\/ ".join("obj(box, [v: obj(c%d, [])])" % i for i in range(400))
    res, elapsed = _solve_probe("class Box { v; Box(x) { this.v = x; } get() { return v; } }",
                                "field_acc(%s, v, R)" % alts, 4096)
    assert len(res.answers) == 1 and res.complete
    assert res.steps == 5345
    assert elapsed < 0.5, "inline union receiver 400 took %.2fs" % elapsed


def test_forwarding_probe_steps():
    lines = ["class C0 { m(x) { return x; } }"]
    lines += ["class C%d extends C%d { m(x) { return new C%d().m(x); } }" % (i, i - 1, i - 1)
              for i in range(1, 80)]
    res, _ = _solve_probe("\n".join(lines), "invoke(obj(c79,[]), m, [int], R)", 4096)
    assert [a.bindings["R"].name for a in res.answers] == ["int"]
    assert res.steps == 12394
