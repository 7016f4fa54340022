"""Command-line interface.

Subcommands: solve, check-saturation, check-selection, verify-model.
The first stdout line of `solve` is exactly `sat`, `unsat`, or `unknown`.
Exit status: 0 for any verdict, 1 for usage or parse errors and
unreadable files, 2 for contract errors (invalid selection, unsaturated
theory without --allow-unsaturated).  Traces and warnings go to stderr so
stdout stays machine-readable.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Optional

from .cdcl import Budget
from .ordering import OrderingSpec
from .parser import (
    ParseError,
    format_clause,
    model_lines,
    parse_model_text,
    parse_problem,
)
from .pipeline import (
    ContractError,
    SolveOptions,
    check_problem_saturated,
    clause_selection,
    solve_problem,
    verify_model,
)
from .saturation import SaturationOutcome


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _parse_precedence(text: str) -> tuple[str, ...]:
    if not text:
        return ()
    parts = [p.strip() for p in text.split(">")]
    if any(not p for p in parts):
        raise UsageError(f"bad precedence spec: {text!r}")
    return tuple(parts)


def _parse_weights(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    if not text:
        return out
    for piece in text.split(","):
        name, _, value = piece.partition("=")
        name, value = name.strip(), value.strip()
        if not name or not value or not value.isdigit():
            raise UsageError(f"bad weight spec: {piece!r}")
        out[name] = int(value)
    return out


def _non_negative(kind):
    """argparse type: a number of `kind` that is >= 0 (NaN is refused)."""
    def parse(text: str):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="trigsat")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("file", help="problem file")
        p.add_argument("--order", choices=("weight", "subterm"),
                       default="weight")
        p.add_argument("--precedence", default="",
                       help="symbol precedence, greatest first: 'r>q>p'")
        p.add_argument("--precedence-dominant", action="store_true",
                       help="predicate precedence outranks weight entirely")
        p.add_argument("--weights", default="",
                       help="per-symbol weights: 'distinct=3,f=2'")
        p.add_argument("--select",
                       choices=("annotated", "max", "maximal", "neg"),
                       default="annotated")
        p.add_argument("--extend-select",
                       choices=("error", "max", "maximal", "neg", "all",
                                "auto"),
                       default=None,
                       help="selection rule for clauses derived during "
                            "saturation (default: error when annotated, "
                            "else the --select strategy)")

    solve = sub.add_parser("solve", help="decide satisfiability")
    common(solve)
    solve.add_argument("--instantiate", choices=("lazy", "eager"),
                       default="lazy")
    solve.add_argument("--max-instantiations", type=_non_negative(int),
                       default=Budget.max_instantiations)
    solve.add_argument("--max-clauses", type=_non_negative(int), default=None,
                       help="clause cap (default 200000 solving, "
                            "10000 saturation)")
    solve.add_argument("--timeout", type=_non_negative(float),
                       default=Budget.timeout,
                       help="wall-clock cap in seconds on saturation and "
                            "search together (default 120)")
    solve.add_argument("--allow-unsaturated", action="store_true")
    solve.add_argument("--trace", action="store_true",
                       help="print one line per rule application to stderr "
                            "once the run ends")
    solve.add_argument("--emit-model", default=None, metavar="FILE",
                       help="write the model ('-' for stdout)")

    check_sat = sub.add_parser("check-saturation",
                               help="report whether the non-ground clauses "
                                    "are saturated")
    common(check_sat)

    check_sel = sub.add_parser("check-selection",
                               help="validate the selection of every "
                                    "non-ground clause")
    common(check_sel)

    verify = sub.add_parser("verify-model",
                            help="check a ground model against a "
                                 "depth-bounded grounding")
    common(verify)
    verify.add_argument("--model", required=True, help="model file")
    verify.add_argument("--verify-depth", type=_non_negative(int), default=2)

    return parser


def _options_from(args: argparse.Namespace) -> SolveOptions:
    try:
        ordering = OrderingSpec(
            kind=args.order,
            precedence=_parse_precedence(args.precedence),
            weights=_parse_weights(args.weights),
            precedence_dominant=args.precedence_dominant,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    clauses = getattr(args, "max_clauses", None)
    caps = ({} if clauses is None else
            {"max_clauses": clauses, "max_saturation_clauses": clauses})
    budget = Budget(max_instantiations=getattr(args, "max_instantiations",
                                               Budget.max_instantiations),
                    timeout=getattr(args, "timeout", Budget.timeout), **caps)
    return SolveOptions(
        ordering=ordering,
        select=args.select,
        extend_select=args.extend_select,
        instantiate=getattr(args, "instantiate", "lazy"),
        allow_unsaturated=getattr(args, "allow_unsaturated", False),
        budget=budget,
        trace=getattr(args, "trace", False),
    )


def _read_problem(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_problem(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = _read_problem(args.file)
    options = _options_from(args)
    # The model file is opened before the run, so that an unwritable path
    # fails at once; it stays empty unless the verdict is sat.
    emit = args.emit_model
    with (open(emit, "w", encoding="utf-8") if emit not in (None, "-")
          else contextlib.nullcontext(emit and sys.stdout)) as model_out:
        result = solve_problem(problem, options)
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if result.run is not None and options.trace:
            for line in result.run.trace:
                print(line, file=sys.stderr)
        print(result.verdict_line)
        if result.verdict_line == "unknown" and result.run is not None:
            print(f"reason: {result.run.verdict.reason}")
        if result.verdict_line == "sat" and model_out is not None:
            model_out.writelines(model_lines(result.model))
    return 0


def _cmd_check_saturation(args: argparse.Namespace) -> int:
    problem = _read_problem(args.file)
    options = _options_from(args)
    report = check_problem_saturated(problem, options)
    if report.outcome is SaturationOutcome.SATURATED:
        print("saturated")
        return 0
    print("not-saturated")
    for v in report.violations:
        print(f"violating {v.kind}: {format_clause(v.conclusion)}")
    return 0


def _cmd_check_selection(args: argparse.Namespace) -> int:
    problem = _read_problem(args.file)
    options = _options_from(args)
    bad = 0
    for c in problem.theory:
        result = clause_selection(problem, options, c)[1]
        if result:
            print(f"valid: {format_clause(c)}")
        else:
            bad += 1
            print(f"invalid: {format_clause(c)} -- {result.describe()}")
    return 0 if bad == 0 else 2


def _cmd_verify_model(args: argparse.Namespace) -> int:
    problem = _read_problem(args.file)
    options = _options_from(args)
    model = parse_model_text(Path(args.model).read_text(encoding="utf-8"))
    # Arity drift between the model file and the problem would silently
    # make every atom distinct; refuse it up front.
    from .terms import Clause

    sig = problem.signature
    for literal in model:
        try:
            sig.add_clause(Clause((literal,), origin="input-ground"))
        except ValueError as exc:
            raise UsageError(f"model file: {exc}") from exc
    outcome = verify_model(problem, model, options, args.verify_depth)
    if outcome.report.ok:
        print("ok")
        print(f"checked {outcome.report.checked} instances at depth "
              f"{args.verify_depth}")
        return 0
    print("falsified")
    for c in outcome.report.falsified:
        print(f"falsified instance: {format_clause(c)}")
    return 2


_COMMANDS = {
    "solve": _cmd_solve,
    "check-saturation": _cmd_check_saturation,
    "check-selection": _cmd_check_selection,
    "verify-model": _cmd_verify_model,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
