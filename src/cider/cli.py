"""Command-line front end.

One structured-text report goes to stdout; diagnostics go to stderr.
Exit codes: 0 success (including a negative threshold answer),
1 validation violations, 2 input errors, 3 undefined or unsupported
computations.  Reports are byte-identical across repeated runs for the
same inputs and options.
"""

import argparse
import functools
import hashlib
import io
import math
import os
import sys

from . import diagram as dg
from . import el
from . import evidence as ev
from . import fixtures as fx
from . import optimizer as opt
from ._format import format_float as fmt
from .contextual import (
    TRUE,
    formula_variables,
    parse_formula,
    prob_subsumption,
    restrict,
)
from .el import ParseError, parse_concept
from .kbfile import KBLoadError, load_kb_text

PROB_TOL = "1e-09"

# decide --problem as optimize --pure's --mode and --direction
_PROBLEMS = {
    "d-opt": (None, "min"),
    "d-pes": (None, "max"),
    "d-dom-opt": ("opt", "min"),
    "d-dom-pes": ("pes", "min"),
}


class _InputError(Exception):
    pass


class _Unsupported(Exception):
    pass


def _report(argv, source, lines, tolerance=None):
    out = [f"command: {' '.join(argv)}"]
    if source is not None:
        out.append(f"input: {source}")
    if tolerance:
        out.append(f"tolerance: abs={tolerance}")
    out.append("result:")
    out.extend(f"  {line}" for line in lines)
    print("\n".join(out))


def _load(args):
    """The KB document at args.path, and the report's name for the bytes
    read: the path and their SHA-256."""
    path = args.path
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    try:
        # decoded as open(path, encoding="utf-8").read() would
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        doc = load_kb_text(text, args.forgetful)
    except (KBLoadError, ParseError, ValueError) as exc:
        raise _InputError(f"{path}: {exc}") from exc
    return doc, f"{path} sha256={hashlib.sha256(data).hexdigest()}"


def _valid_doc(args):
    doc, source = _load(args)
    violations = doc.kb.validate()
    if violations:
        details = "; ".join(str(v) for v in violations)
        raise _InputError(f"{args.path}: knowledge base is not valid: {details}")
    return doc, source


def _concept(text):
    try:
        return parse_concept(text)
    except ParseError as exc:
        raise _InputError(f"bad concept {text!r}: {exc}") from exc


def _evidence(lhs, rhs):
    return ev.EvidenceQuery(_concept(lhs), _concept(rhs))


def _formula(text, variables):
    try:
        formula = parse_formula(text)
    except ParseError as exc:
        raise _InputError(f"bad context {text!r}: {exc}") from exc
    unknown = sorted(formula_variables(formula) - set(variables))
    if unknown:
        raise _InputError(f"context {text!r} names unknown variables {unknown}")
    return formula


def _strategy(doc, name):
    try:
        strategy = doc.strategy(name)
    except KBLoadError as exc:
        raise _InputError(str(exc)) from exc
    dg.check_world_count(doc.kb.diagram)  # before listing the strategy's rows
    problems = dg.validate_strategy(doc.kb.diagram, strategy)
    if problems:
        details = "; ".join(str(v) for v in problems)
        raise _InputError(f"strategy {name!r} is not valid: {details}")
    return strategy


def _strategy_lines(strategy):
    lines = ["strategy:"]
    for d in sorted(strategy.locals):
        local = strategy.locals[d]
        scope = ",".join(local.scope) if local.scope else "-"
        lines.append(f"  {d} (scope {scope}):")
        for key in sorted(local.table):
            lines.append(f'    "{key}": {fmt(local.table[key])}')
    return lines


def _conditional_json(result):
    return (
        "{"
        + f'"value": {fmt(result.value)}, '
        + f'"evidence_probability": {fmt(result.evidence_probability)}, '
        + f'"included_worlds": {dg.bit_strings_json(result.included)}'
        + "}"
    )


def _cmd_validate(args, argv):
    doc, source = _load(args)
    violations = doc.kb.validate()
    if not violations:
        _report(argv, source, ["ok"])
        return 0
    lines = ["violations:"] + [f"  - {v}" for v in violations]
    _report(argv, source, lines)
    return 1


def _cmd_fixtures(args, argv):
    try:
        filename = fx.fixture_filename(args.name)
    except KeyError as exc:
        raise _InputError(str(exc.args[0])) from exc
    out_path = filename if args.out is None else args.out
    try:
        fx.write_fixture(args.name, out_path)
    except OSError as exc:
        raise _InputError(f"cannot write {out_path}: {exc}") from exc
    _report(argv, None, [f"wrote: {out_path}"])
    return 0


def _cmd_query(args, argv):
    doc, source = _valid_doc(args)
    kb = doc.kb
    sub = args.subcommand
    tolerance = PROB_TOL

    if sub == "export-game-tree":
        if args.forgetful:
            raise _InputError("--forgetful does not apply to export-game-tree")
        tree = opt.build_game_tree(kb.diagram)
        sys.stdout.write(opt.export_game_tree_dot(tree))
        return 0

    if sub == "subsume":
        try:
            world = kb.diagram.world(args.world)
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
        held = el.is_subsumed(restrict(kb.vtbox, world), _concept(args.lhs), _concept(args.rhs))
        lines = [f"subsumed: {str(held).lower()}"]
        tolerance = None

    elif sub == "prob-subsume":
        strategy = _strategy(doc, args.strategy)
        context = TRUE if args.context is None else _formula(args.context, kb.diagram.variables)
        p = prob_subsumption(
            kb,
            strategy,
            _concept(args.lhs),
            _concept(args.rhs),
            context=context,
        )
        lines = [f"probability: {fmt(p)}"]

    elif sub == "expected-cost":
        strategy = _strategy(doc, args.strategy)
        table = dg.WorldTable(kb.diagram)
        dist = dg.cost_distribution(table, strategy)
        lines = [f"expected_cost: {fmt(dg.expected_cost(table, strategy))}"]
        lines.append("distribution:")
        lines.extend(f"  {fmt(r)}: {fmt(p)}" for r, p in sorted(dist.items()))

    elif sub == "cond-cost":
        strategy = _strategy(doc, args.strategy)
        query = _evidence(args.lhs, args.rhs)
        bound = (
            ev.optimistic_expected_cost
            if args.mode == "opt"
            else ev.pessimistic_expected_cost
        )
        lines = [f"conditional: {_conditional_json(bound(kb, strategy, query))}"]

    elif sub == "worlds":
        strategy = _strategy(doc, args.strategy)
        diagram = kb.diagram
        table = dg.WorldTable(diagram)
        bits = map(diagram.bits, diagram.worlds())
        costs, code = table.rows(diagram.cost_table, diagram.cost_parents)
        texts = [fmt(c) for c in costs.tolist()]
        rows = zip(bits, table.joint(strategy).tolist(), code.tolist())
        lines = ["worlds:"]
        lines.extend(f"  - {b} probability={fmt(p)} cost={texts[c]}" for b, p, c in rows)
        tolerance = None

    elif sub == "optimize":
        if args.mode and not args.evidence:
            raise _InputError("--mode applies to --evidence only")
        if args.lp:
            if args.evidence:
                raise _Unsupported(
                    "evidence-conditioned optimization is only supported for "
                    "pure strategies (use --pure)"
                )
            if args.direction == "max":
                raise _Unsupported(
                    "the LP only minimizes; --direction max needs --pure"
                )
            epsilon = args.fully_mixed
            if epsilon is not None and not (math.isfinite(epsilon) and epsilon >= 0.0):
                raise _InputError(
                    f"--fully-mixed must be a finite nonnegative number, got {epsilon}"
                )
            if epsilon is None:
                result = opt.optimal_pure_strategy(kb)
            else:
                result = opt.optimal_mixed_strategy(kb.diagram, epsilon)
            tolerance = "1e-07"
        else:
            if args.fully_mixed is not None:
                raise _InputError("--fully-mixed applies to --lp only")
            result = opt.optimal_pure_strategy(
                kb, args.evidence and _evidence(*args.evidence), args.mode or "opt",
                args.direction,
            )
        lines = [f"value: {fmt(result.value)}", f"kind: {result.kind}"]
        if result.epsilon:
            lines.append(f"epsilon: {fmt(result.epsilon)}")
        lines.extend(_strategy_lines(result.strategy))

    else:  # decide
        if not math.isfinite(args.bound):
            raise _InputError(f"--bound must be a finite number, got {args.bound}")
        mode, direction = _PROBLEMS[args.problem]
        if mode and not args.evidence:
            raise _InputError(f"--problem {args.problem} needs --evidence C D")
        if args.evidence and not mode:
            raise _InputError(
                f"--problem {args.problem} takes no --evidence; "
                "only d-dom-opt and d-dom-pes do"
            )
        result = opt.optimal_pure_strategy(
            kb, args.evidence and _evidence(*args.evidence), mode or "opt", direction
        )
        # strict in both directions
        answer = result.value > args.bound if direction == "max" else result.value < args.bound
        lines = [
            f"answer: {str(answer).lower()}",
            f"problem: {args.problem}",
            f"bound: {fmt(args.bound)}",
            f"optimum: {fmt(result.value)}",
        ]
        tolerance = None

    _report(argv, source, lines, tolerance)
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built on first use and kept for the process;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cider",
        description="Contextual influence-diagram expected-cost reasoner",
    )
    parser.add_argument(
        "--forgetful",
        action="store_true",
        help="condition strategies on direct parents instead of the influence set",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_validate = commands.add_parser("validate", help="check a KB document")
    p_validate.add_argument("path")

    p_fixtures = commands.add_parser("fixtures", help="write a bundled example")
    p_fixtures.add_argument("name")
    p_fixtures.add_argument("--out", default=None)

    p_query = commands.add_parser("query", help="run a query against a KB document")
    p_query.add_argument("path")
    subs = p_query.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("subsume", help="contextual subsumption in one world")
    p.add_argument("--world", required=True)
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = subs.add_parser("prob-subsume", help="probability of a contextual inclusion")
    p.add_argument("--strategy", required=True)
    p.add_argument("--context", default=None)
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = subs.add_parser("expected-cost", help="cost distribution and expectation")
    p.add_argument("--strategy", required=True)

    p = subs.add_parser("cond-cost", help="conditional expected-cost bound")
    p.add_argument("--strategy", required=True)
    p.add_argument("--mode", choices=("opt", "pes"), required=True)
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = subs.add_parser("optimize", help="best pure strategy or LP optimum")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pure", action="store_true")
    group.add_argument("--lp", action="store_true")
    p.add_argument("--evidence", nargs=2, metavar=("C", "D"), default=None)
    p.add_argument("--mode", choices=("opt", "pes"), default=None)
    p.add_argument("--direction", choices=("min", "max"), default="min")
    p.add_argument("--fully-mixed", type=float, default=None)

    p = subs.add_parser("decide", help="threshold decision problems")
    p.add_argument(
        "--problem",
        choices=tuple(_PROBLEMS),
        required=True,
    )
    p.add_argument("--bound", type=float, required=True)
    p.add_argument("--evidence", nargs=2, metavar=("C", "D"), default=None)

    p = subs.add_parser("worlds", help="world probabilities and costs")
    p.add_argument("--strategy", required=True)

    subs.add_parser("export-game-tree", help="DOT rendering of the game tree")
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            code = _cmd_validate(args, argv)
        elif args.command == "fixtures":
            code = _cmd_fixtures(args, argv)
        else:
            code = _cmd_query(args, argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # the interpreter flushes stdout again at exit, so what is left
        # of the report goes to the null device instead of raising
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _Unsupported as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except (
        ev.UndefinedConditionalError,
        dg.WorldCapError,
        opt.EnumerationCapError,
        opt.InfeasibleEpsilonError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
