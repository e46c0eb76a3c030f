"""Benchmark for coinfer: one seeded workload per run, checked against
independent oracles.

    python3 bench/run.py --workload subtyping --seed 1 --seconds 24 --trace 0

Runs whole rounds of the workload's fixed batch of at least 100
operations, in one process and one thread, until --seconds have passed.
Times are scaled to a reference host speed (see speed.py).  wall_s is the
median round; op_p50_ms and op_p90_ms are taken over the operations of
the batch, each at its median over the rounds.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end ones with --trace 0, per-layer ones with --trace 1).  Results
and spans are also written under bench/out/.  See bench/README.md.
"""

import time

_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import EVERY_S, REFERENCE_S, Speed  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]

COUNTERS = ["canonicalize.nodes_in", "canonicalize.nodes_out", "subtype.holds",
            "derive.nodes", "witness.nodes", "sample_values.values",
            "compile_program.clauses", "solve.steps", "solve.answers",
            "solve.subsumptions"]

# ratio name -> (span or counter, workload family at 2n, family at n)
GROWTH = {
    "canonicalize.growth_2n": ("canonicalize", "chain_2n", "chain_n"),
    "sample_values.growth_2n": ("sample_values", "fan_2n", "fan_n"),
    "solve.steps_growth_2n": ("solve.steps", "fwd_2n", "fwd_n"),
}


def per_layer_names():
    from layers import LAYERS

    names = []
    for layer in LAYERS:
        names += [(layer + ".calls", "count"), (layer + ".s", "s")]
    names += [(c, "count") for c in COUNTERS]
    names += [(g, "ratio") for g in GROWTH]
    names.append(("trace.overhead_s", "s"))
    return names


def load_program():
    """Import coinfer from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import coinfer
    except ImportError as exc:
        raise SystemExit("error: cannot import coinfer from %s: %s" % (src, exc))
    if not os.path.abspath(coinfer.__file__).startswith(src + os.sep):
        raise SystemExit("error: coinfer imported from %s, not %s" % (coinfer.__file__, src))
    import layers

    return layers.load()


def run_round(ops, L, tracer, speed, check):
    """Time every operation once and check each result (untimed) before
    the next operation runs, so only one result is alive at a time.
    A calibration unit runs before the first operation and after every
    EVERY_S of operations; each operation's time is scaled by the units
    around it.

    Returns (scaled op times, per-op scale factors, unit times).
    """
    raw = []
    units, cuts = [speed.unit()], [0]
    since = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            result = op.run(L)
        except Exception:  # a crash is a failed operation, reported below
            traceback.print_exc(file=sys.stderr)
            result = None
        raw.append(time.perf_counter() - t0)
        check(op, result)
        del result
        since += raw[-1]
        if since >= EVERY_S or i == len(ops) - 1:
            units.append(speed.unit())
            cuts.append(i + 1)
            since = 0.0
    factors = []
    for k in range(len(cuts) - 1):
        factors += [speed.factor(units[k], units[k + 1])] * (cuts[k + 1] - cuts[k])
    gc.collect()  # garbage of this round does not carry into the next
    return [t * f for t, f in zip(raw, factors)], factors, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("subtyping", "inhabitation", "inference", "cli_tour"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    functions = load_program()
    import layers
    import workloads

    raw = layers.Layers(functions)
    ops = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    setup_raw = time.perf_counter() - _START
    speed = Speed()
    units = []  # every calibration unit of the run; set-up is scaled by their median

    ctx = workloads.Ctx(raw, ROOT)
    tracer = layers.Tracer() if args.trace else None
    traced = tracer.layers(functions) if tracer else None
    walls = {False: [], True: []}   # scaled, by traced or not
    times = [[] for _ in ops]       # scaled, untraced rounds
    per_round = []  # traced rounds: (span range, per-op factors, counters)
    tally = {"attempted": 0, "failed": 0}
    problems = []

    def check(op, result):
        tally["attempted"] += 1
        try:
            if result is None or not op.check(result, ctx):
                tally["failed"] += 1
        except workloads.CheckError as exc:
            problems.append("%s: %s" % (op.family, exc))

    begin = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(walls[True]) < len(walls[False])
        first_span = len(tracer.spans) if use_trace else 0
        ctx.counting = use_trace
        ctx.counts = {}
        restore = tracer.patch_cli(functions) if use_trace else None
        try:
            scaled, factors, round_units = run_round(
                ops, traced if use_trace else raw, tracer if use_trace else None, speed, check)
        finally:
            if restore:
                restore()
        units += round_units
        walls[use_trace].append(sum(scaled))
        if not use_trace:
            for mine, t in zip(times, scaled):
                mine.append(t)
        if use_trace:
            per_round.append(((first_span, len(tracer.spans)), factors, ctx.counts))
        enough = (time.perf_counter() - begin >= args.seconds
                  and (tracer is None or walls[True]))
        if enough or problems:
            break

    if tracer is None:
        per_op = [statistics.median(t) for t in times]
        values = {
            "setup_s": setup_raw * REFERENCE_S / statistics.median(units),
            "wall_s": statistics.median(walls[False]),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_p90_ms": 1000 * statistics.quantiles(per_op, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metric_units = dict(END_TO_END)
    else:
        values = layer_metrics(tracer, per_round, ops, walls)
        metric_units = dict(per_layer_names())
    report = {
        "correct": not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metric_units.items()},
    }
    for line in problems[:20]:
        print("CHECK FAILED %s" % line, file=sys.stderr)
    write_out(args, report, ops, tracer, per_round,
              {"setup_raw_s": setup_raw, "walls_s": walls[False],
               "traced_walls_s": walls[True]})
    print(json.dumps(report))
    return 0 if not problems else 1


def layer_metrics(tracer, per_round, ops, walls):
    from layers import LAYERS

    family = [op.family for op in ops]
    seconds = {name: [] for name in LAYERS}
    by_family = {}
    for (first, last), factors, _ in per_round:
        total = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for name, op, self_s in tracer.self_times(first)[:last - first]:
            self_s *= factors[op]
            total[name] += self_s
            calls[name] += 1
            key = (name, family[op])
            by_family[key] = by_family.get(key, 0.0) + self_s
        for name in LAYERS:
            seconds[name].append(total[name])
    counts = per_round[-1][2]
    values = {}
    for name in LAYERS:
        values[name + ".calls"] = calls[name]
        values[name + ".s"] = statistics.median(seconds[name])
    for name in COUNTERS:
        values[name] = counts.get(name, 0)
    n_ops = {}
    for f in family:
        n_ops[f] = n_ops.get(f, 0) + 1
    for ratio, (what, big, small) in GROWTH.items():
        if what in LAYERS:
            top, bottom = by_family.get((what, big), 0.0), by_family.get((what, small), 0.0)
        else:
            top, bottom = counts.get(what + "." + big, 0), counts.get(what + "." + small, 0)
        if bottom and n_ops.get(big):
            values[ratio] = (top / n_ops[big]) / (bottom / n_ops[small])
        else:
            values[ratio] = 0
    values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return values


def write_out(args, report, ops, tracer, per_round, raw):
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as handle:
        json.dump(dict(report, ops_per_round=len(ops), **raw), handle, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "ops": [op.family for op in ops],
                       "traced_rounds": len(per_round),
                       "spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
