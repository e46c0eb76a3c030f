"""Pins the oracles on the paper's hand cases and a few derived ones.

Run with ``python3 bench/test_oracles.py`` (or pytest on this file).
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import terms  # noqa: E402


def g(text):
    return terms.parse(text)


BOT = "B = B \\/ B; root B"
NAT = "Z = obj(zero, []); N = Z \\/ obj(succ, [pred: N]); root N"
ODD = ("O = obj(succ, [pred: obj(zero, [])])"
       " \\/ obj(succ, [pred: obj(succ, [pred: O])]); root O")


class Emptiness(unittest.TestCase):
    def test_union_cycle_alone_is_empty(self):
        self.assertFalse(oracles.not_empty(g(BOT)))
        self.assertFalse(oracles.not_empty(g("X = Y \\/ Y; Y = X \\/ X; root X")))

    def test_object_with_an_empty_field_is_empty(self):
        self.assertFalse(oracles.not_empty(g("B = B \\/ B; X = obj(a, [f: B]); root X")))

    def test_object_cycle_is_inhabited(self):
        self.assertTrue(oracles.not_empty(g("X = obj(a, [f: X]); root X")))

    def test_union_escaping_through_an_object(self):
        self.assertTrue(oracles.not_empty(g("U = U \\/ X; X = obj(a, [f: U]); root U")))
        self.assertTrue(oracles.not_empty(g(NAT)))

    def test_infinitely_many(self):
        self.assertTrue(oracles.infinitely_many(g("X = obj(a, [f: int]); root X")))
        self.assertFalse(oracles.infinitely_many(g("X = obj(a, [f: X]); root X")))
        self.assertFalse(oracles.infinitely_many(g(BOT)))


class Membership(unittest.TestCase):
    def test_cyclic_value_in_cyclic_type(self):
        t = g("X = obj(a, [f: X]); root X")
        self.assertTrue(oracles.member(g("V = obj(a, [f -> V]); root V"), t))
        self.assertFalse(oracles.member(g("V = obj(a, [f -> 3]); root V"), t))

    def test_nothing_is_in_the_empty_type(self):
        self.assertFalse(oracles.member(g("V = 1; root V"), g(BOT)))
        self.assertFalse(oracles.member(
            g("V = obj(a, [f -> V]); root V"),
            g("B = B \\/ B; X = obj(a, [f: B]); root X")))

    def test_union_and_width(self):
        t = g("X = int \\/ obj(a, [f: X]); root X")
        self.assertTrue(oracles.member(g("V = obj(a, [f -> obj(a, [f -> 2])]); root V"), t))
        self.assertTrue(oracles.member(g("V = obj(a, [f -> 1, g -> 2]); root V"), t))
        self.assertFalse(oracles.member(g("V = obj(b, [f -> 1]); root V"), t))

    def test_seeded_members_are_members(self):
        for seed in range(30):
            rng = random.Random(seed)
            t = terms.random_type(rng, 10, empty_share=0.2)
            gen = oracles.Values(t)
            v = gen.member(rng, 4)
            self.assertEqual(v is not None, oracles.not_empty(t))
            if v is not None:
                self.assertTrue(oracles.member(v, t))

    def test_numeral_parity(self):
        self.assertTrue(oracles.odd_numerals_only(g(ODD)))
        self.assertFalse(oracles.odd_numerals_only(g(NAT)))
        self.assertFalse(oracles.odd_numerals_only(g(BOT)))


class Bisimilarity(unittest.TestCase):
    def test_inflated_copies(self):
        rng = random.Random(1)
        for n in (1, 5, 30):
            c = terms.chain(n)
            self.assertTrue(oracles.bisimilar(c, terms.inflate(c, rng)))
            self.assertFalse(oracles.bisimilar(c, terms.chain(n + 1)))
        t = terms.random_type(rng, 12)
        self.assertTrue(oracles.bisimilar(terms.inflate(t, rng, 3), t))

    def test_unfolding(self):
        self.assertTrue(oracles.bisimilar(
            g("X = obj(a, [f: X]); root X"),
            g("X = obj(a, [f: obj(a, [f: X])]); root X")))
        self.assertTrue(oracles.bisimilar(g(BOT), g("X = Y \\/ Y; Y = X \\/ X; root X")))


class ParserAndPrinter(unittest.TestCase):
    def test_round_trip_is_bisimilar(self):
        rng = random.Random(4)
        for _ in range(20):
            t = terms.random_type(rng, 9)
            self.assertTrue(oracles.bisimilar(terms.parse(terms.to_source(t)), t))

    def test_nested_and_parenthesised(self):
        t = g("T0 = (int \\/ obj(a, [f: T0])) \\/ obj(b, [g: int \\/ T0, h: -4]); root T0")
        nodes, root = t
        self.assertEqual(nodes[root][0], "union")
        self.assertEqual(terms.size(t), 8)


class ClauseCounts(unittest.TestCase):
    def test_readme_numerals(self):
        text = """
        class Zero {
          add(n) { return n; }
        }
        class Succ {
          pred;
          Succ(n) { this.pred = n; }
          add(n) { return pred.add(new Succ(n)); }
        }"""
        self.assertEqual(oracles.clause_counts(text), {
            "class": 3, "extends": 2, "dec_field": 1, "not_dec_field": 2,
            "dec_meth": 2, "not_dec_meth": 1})


if __name__ == "__main__":
    unittest.main()
