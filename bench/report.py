"""Per-family layer times from the spans a traced run wrote.

    python3 bench/report.py bench/out/subtyping-seed1-trace1-spans.json

Prints, for each operation family and layer, the calls per operation and
the mean self time per operation over the traced rounds: the reference
figures in bench/README.md come from here.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Tracer  # noqa: E402


def main(paths):
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        tracer = Tracer()
        tracer.spans = [tuple(span) for span in data["spans"]]
        families = data["ops"]
        per_family = {}
        for f in families:
            per_family[f] = per_family.get(f, 0) + 1
        rounds = data["traced_rounds"]
        rows = {}
        for name, op, self_s in tracer.self_times():
            key = (families[op], name)
            calls, total = rows.get(key, (0, 0.0))
            rows[key] = (calls + 1, total + self_s)
        print(os.path.basename(path))
        print("  %-15s %-18s %9s %12s" % ("family", "layer", "calls/op", "ms/op"))
        for (family, name), (calls, total) in sorted(rows.items()):
            ops = per_family[family] * rounds
            print("  %-15s %-18s %9.2f %12.3f" % (family, name, calls / ops, 1000 * total / ops))


if __name__ == "__main__":
    main(sys.argv[1:])
