"""Host-speed calibration.

The machine this benchmark was built on is a 2-core VM whose speed
drifts by up to 40% as other tenants come and go, over seconds and over
minutes; neither medians nor minima over the rounds of one run keep runs
comparable.  So a run also times a fixed piece of the benchmark's own
graph code (building, printing and parsing a graph, the oracles: the same
kinds of Python objects the program uses) before each round and after
every EVERY_S of operations, and scales each operation's time by
REFERENCE_S over the mean of the calibrations just before and just after
it.  Reported times are seconds at the reference speed: what the work
takes when one calibration unit takes REFERENCE_S.  The program never
runs inside a calibration unit, so a change to the program moves the
scaled times in the same proportion as the raw ones.
"""

import random
import time

import oracles
import terms

# one calibration unit on the reference machine (the 2-core VM above, quiet)
REFERENCE_S = 0.03

# longest stretch of operations between two calibrations
EVERY_S = 0.4


class Speed:
    def __init__(self):
        rng = random.Random(5)
        self.rng = random.Random(6)
        self.chain = terms.chain(300)
        self.copy = terms.inflate(self.chain, rng)
        self.types = [terms.random_type(rng, 12, empty_share=0.2) for _ in range(30)]
        self.src = terms.to_source(self.copy)
        self.big = terms.chain(400)

    def unit(self):
        """Seconds the fixed calibration work takes now."""
        start = time.perf_counter()
        for _ in range(2):
            oracles.bisimilar(self.chain, self.copy)
            for t in self.types:
                oracles.inhabited(t)
            terms.parse(self.src)
        terms.parse(terms.to_source(terms.inflate(self.big, self.rng)))
        return time.perf_counter() - start

    @staticmethod
    def factor(before, after):
        """Scale to the reference speed for work between two units."""
        return 2 * REFERENCE_S / (before + after)
