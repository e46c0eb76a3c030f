"""Command-line front end.

One executable, subcommand per operation.  Exit codes: 0 for a definite
positive verdict, 1 for a definite negative, 2 for usage or parse errors,
3 when a search budget or memory ran out before a verdict was reached.
"""

import argparse
import functools
import json
import sys

from .term_core import (
    BudgetExceeded,
    TermError,
    canonicalize,
    print_type,
    print_value,
    term_to_dict,
    term_to_json,
    type_from_json,
    type_from_source,
    value_from_json,
    value_from_source,
)
from .subtyping import DEFAULT_MEMO_LIMIT, derive, subtype
from .emptiness import not_empty, witness
from .interpretation import member, sample_values
from .horn_compiler import ProgramError, compile_program, format_clause, parse_program
from .cosld_engine import (
    EngineError,
    SolverConfig,
    check_answer,
    format_answer,
    format_term_text,
    logic_to_type,
    parse_query,
    solve,
)


def _read(path):
    with open(path, "r") as handle:
        return handle.read()


def _load_type(path):
    text = _read(path)
    if text.lstrip().startswith("{"):
        return type_from_json(text)
    return type_from_source(text)


def _load_value(path):
    text = _read(path)
    if text.lstrip().startswith("{"):
        return value_from_json(text)
    return value_from_source(text)


def _emit_json(data):
    print(json.dumps(data, indent=2))


def cmd_parse(args):
    if args.value:
        term = _load_value(args.file)
        printer = print_value
    else:
        term = _load_type(args.file)
        printer = print_type
    if args.canonical:
        term = canonicalize(term)
    if args.format == "json":
        print(term_to_json(term))
    else:
        print(printer(term))
    return 0


def cmd_compile(args):
    program = parse_program(_read(args.file))
    lines = [format_clause(c) for c in compile_program(program)]
    if args.format == "json":
        _emit_json({"clauses": lines})
    else:
        for line in lines:
            print(line)
    return 0


def cmd_subtype(args):
    t1 = _load_type(args.left)
    t2 = _load_type(args.right)
    derivation = None
    if args.trace:
        derivation = derive(t1, t2, memo_limit=args.memo_limit)
        verdict = derivation is not None
    else:
        verdict = subtype(t1, t2, memo_limit=args.memo_limit)
    if args.format == "json":
        data = {"subtype": verdict}
        if derivation is not None:
            data["derivation"] = derivation.to_dict()
        _emit_json(data)
    else:
        print("subtype" if verdict else "not a subtype")
        if derivation is not None:
            print(derivation.format_text())
    return 0 if verdict else 1


def cmd_member(args):
    v = _load_value(args.value_file)
    t = _load_type(args.type_file)
    verdict = member(v, t, limit=args.memo_limit)
    if args.format == "json":
        _emit_json({"member": verdict})
    else:
        print("member" if verdict else "not a member")
    return 0 if verdict else 1


def cmd_empty(args):
    t = _load_type(args.file)
    wit = witness(t) if args.witness else None
    inhabited = wit is not None if args.witness else not_empty(t)
    if args.format == "json":
        data = {"empty": not inhabited}
        if wit is not None:
            data["witness"] = term_to_dict(wit)
        _emit_json(data)
    else:
        print("not empty" if inhabited else "empty")
        if wit is not None:
            print(print_value(wit))
    return 0 if inhabited else 1


def cmd_sample(args):
    t = _load_type(args.file)
    try:
        values = sample_values(t, args.count, args.seed)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.format == "json":
        _emit_json({"values": [term_to_dict(v) for v in values]})
    else:
        print("\n\n".join(print_value(v) for v in values))
    return 0


def _answer_json(answer):
    bindings = {}
    for name, term in answer.bindings.items():
        as_type = logic_to_type(term)
        if as_type is not None:
            bindings[name] = {"kind": "type", "term": term_to_dict(as_type)}
        else:
            bindings[name] = {"kind": "term", "text": format_term_text(term)}
    return {"text": format_answer(answer), "bindings": bindings}


def cmd_solve(args):
    program = parse_program(_read(args.file))
    clauses = compile_program(program)
    query = parse_query(args.query)
    config = SolverConfig(max_depth=args.max_depth,
                          subsumption_enabled=not args.no_subsumption,
                          max_answers=args.max_answers)
    result = solve(query, clauses, config)
    if args.trace:
        print("steps=%d subsumption_fired=%d" % (result.steps,
                                                 len(result.subsumptions)),
              file=sys.stderr)
    if args.format == "json":
        _emit_json({
            "answers": [_answer_json(a) for a in result.answers],
            "complete": result.complete,
            "depth_hit": result.depth_hit,
            "steps": result.steps,
        })
    else:
        if result.answers:
            print("\n\n".join(format_answer(a) for a in result.answers))
        elif result.complete:
            print("no answers")
        else:
            print("inconclusive: depth budget exhausted")
    if result.answers:
        if args.expect is None:
            return 0
        expected = _load_type(args.expect)
        for answer in result.answers:
            try:
                if check_answer(query, answer, expected):
                    return 0
            except ValueError:
                continue
        return 1
    return 1 if result.complete else 3


# built on the first main() call and reused: parse_args leaves the parser
# as it was, and usage errors and --help look up sys.stdout/stderr when
# they print
@functools.cache
def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("text", "json"), default="text")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--max-depth", type=int, default=64)
    shared.add_argument("--memo-limit", type=int, default=DEFAULT_MEMO_LIMIT)
    shared.add_argument("--trace", action="store_true")

    parser = argparse.ArgumentParser(
        prog="coinfer",
        description="Recursive union/object types: subtyping, emptiness, "
                    "membership, and goal-directed inference over compiled "
                    "class programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[shared],
                       help="parse a term file and reprint it")
    p.add_argument("file")
    p.add_argument("--value", action="store_true",
                   help="treat the input as a value term")
    p.add_argument("--canonical", action="store_true",
                   help="minimize the term graph before printing")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("compile", parents=[shared],
                       help="compile a class program to clauses")
    p.add_argument("file")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("subtype", parents=[shared],
                       help="decide t1 <= t2 for two type files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_subtype)

    p = sub.add_parser("member", parents=[shared],
                       help="decide whether a value inhabits a type")
    p.add_argument("value_file")
    p.add_argument("type_file")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("empty", parents=[shared],
                       help="decide whether a type is uninhabited")
    p.add_argument("file")
    p.add_argument("--witness", action="store_true",
                   help="also print an inhabitant when there is one")
    p.set_defaults(func=cmd_empty)

    p = sub.add_parser("sample", parents=[shared],
                       help="sample distinct values of a type")
    p.add_argument("file")
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("solve", parents=[shared],
                       help="run a query against a compiled class program")
    p.add_argument("file")
    p.add_argument("--query", required=True,
                   help="'NAME = type; ... atom' query text")
    p.add_argument("--expect",
                   help="type file; succeed only if an answer's result is a subtype")
    p.add_argument("--no-subsumption", action="store_true",
                   help="disable the subsumption rule")
    p.add_argument("--max-answers", type=int, default=8)
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return 3
    except (TermError, ProgramError, EngineError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # last resort for a walk that still recurses on input depth, or an
        # input too large for memory: a one-line message, not a traceback
        print("resource exhausted: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
