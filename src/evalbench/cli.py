"""Command-line front end: eval, parse, bench and validate subcommands.

Exit codes are a stable contract: 0 success, 1 usage or parse error,
2 evaluation fault, 3 validation failure, 4 environment problem.
"""

import argparse
import math
import sys

from .benchmark import (
    ALL_METHODS,
    BenchConfig,
    EXPRESSIONS,
    cross_validate,
    emit_report,
    run_benchmark,
)
from .errors import (
    ClockUnavailableError,
    DomainFaultError,
    ParseError,
    UnboundVariableError,
    ValidationFailureError,
)
from .evaluators import EvalMethod, evaluate
from .parser import SymbolTable, parse_to_tree
from .transform import flatten
from .tree import Bindings, format_tree, to_sexpr, variable_indices

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EVAL_FAULT = 2
EXIT_VALIDATION = 3
EXIT_ENVIRONMENT = 4


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _binding(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad numeric value {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"binding value must be finite, got {raw!r}")
    return name, value


def _method(text: str) -> EvalMethod:
    name = text.strip()
    try:
        return EvalMethod(name)
    except ValueError:
        choices = ", ".join(sorted(m.value for m in EvalMethod))
        raise argparse.ArgumentTypeError(f"unknown method {name!r} (choices: {choices})") from None


def _expression_id(text: str) -> int:
    try:
        eid = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad expression id {text!r}") from None
    if eid not in EXPRESSIONS:
        raise argparse.ArgumentTypeError(f"expression ids are 1..8, got {eid}")
    return eid


def _comma_list(item):
    """An argument type: comma-separated ``item``s, in order, each kept once."""
    return lambda text: tuple(dict.fromkeys(map(item, text.split(","))))


def _print_parse_error(text: str, err: ParseError) -> None:
    print(f"parse error at position {err.position}: {err.message}", file=sys.stderr)
    print(f"  {text}", file=sys.stderr)
    print("  " + " " * err.position + "^", file=sys.stderr)


def _build_symbols(bind_names: list[str]) -> SymbolTable:
    # Default x,y table; further bound names extend it in declaration order.
    names = ["x", "y"]
    for name in bind_names:
        if name not in names:
            names.append(name)
    return SymbolTable(names)


def cmd_eval(args) -> int:
    binds = args.bind or []
    try:
        symbols = _build_symbols([name for name, _ in binds])
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        tree = parse_to_tree(args.expr, symbols)
    except ParseError as err:
        _print_parse_error(args.expr, err)
        return EXIT_USAGE

    bound = {symbols.variable_index(name): value for name, value in binds}
    referenced = variable_indices(tree)
    missing = sorted(referenced - set(bound))
    if missing:
        names = ", ".join(symbols.variable_names[i] for i in missing)
        print(f"evaluation error: unbound variable(s): {names}", file=sys.stderr)
        return EXIT_EVAL_FAULT
    # Unreferenced slots are filled with 0.0 purely to keep the vector
    # dense; the reference check above proves they are never read.
    size = max(bound, default=-1) + 1
    bindings = Bindings([bound.get(i, 0.0) for i in range(size)])

    method = EvalMethod(args.method)
    source = tree
    if method is EvalMethod.NARY_TREE:
        source = flatten(tree)
    elif method is EvalMethod.STRING_PARSE:
        source = args.expr
    try:
        value = evaluate(method, source, bindings, symbols=symbols).value
    except (DomainFaultError, UnboundVariableError) as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return EXIT_EVAL_FAULT
    print(format(value, ".17g"))
    return EXIT_OK


def cmd_parse(args) -> int:
    try:
        tree = parse_to_tree(args.expr)
    except ParseError as err:
        _print_parse_error(args.expr, err)
        return EXIT_USAGE
    if args.flatten:
        tree = flatten(tree)
    print(to_sexpr(tree) if args.dump else format_tree(tree))
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.points == 0:
        print("warning: 0 points requested; validation is vacuous", file=sys.stderr)
    failure = None
    try:
        report = cross_validate(
            n_points=args.points, seed=args.seed, tolerance_sig_digits=args.digits
        )
    except ValidationFailureError as err:
        report, failure = err.report, err
    for check in report.checks:
        print(_check_line(check))
    if failure is not None:
        print(f"FAIL: {failure}")
        return EXIT_VALIDATION
    print(f"PASS: all methods agree to {args.digits} significant digits "
          f"(tolerance {report.tolerance:.1e}, {args.points} points, seed {args.seed})")
    return EXIT_OK


def _check_line(check) -> str:
    return (
        f"expression {check.expression_id} ({EXPRESSIONS[check.expression_id]}): "
        f"max relative deviation {check.max_rel_deviation:.3e}"
    )


def cmd_bench(args) -> int:
    cfg = BenchConfig(
        n_points=args.n,
        seed=args.seed,
        repetitions=args.repetitions,
        min_window_ms=args.min_window,
        methods=args.methods,
        expressions=args.expressions,
    )
    # Fail fast if the methods disagree; diagnostics go to stderr so csv and
    # json stay machine-consumable on stdout.
    try:
        cross_validate(
            expressions=cfg.expressions,
            n_points=1000,
            seed=cfg.seed,
            tolerance_sig_digits=9,
            methods=cfg.methods,
        )
    except ValidationFailureError as err:
        print(f"validation failed, benchmark aborted: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    print("cross-validation passed (9 significant digits, 1000 points)", file=sys.stderr)
    try:
        report = run_benchmark(cfg)
    except ClockUnavailableError as err:
        print(f"environment error: {err}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    sys.stdout.write(emit_report(report, args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="evalbench",
        description="Evaluate algebraic expressions four ways and compare their speed.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p_eval = sub.add_parser("eval", help="evaluate one expression")
    p_eval.add_argument("--expr", required=True, help="expression text, e.g. 'sin(x)+y^2'")
    p_eval.add_argument(
        "--method",
        choices=("binary", "nary", "string"),
        default="nary",
        help="evaluation strategy (default: nary)",
    )
    p_eval.add_argument(
        "--bind",
        action="append",
        type=_binding,
        metavar="NAME=VALUE",
        help="variable binding; repeatable. x and y map to indices 0 and 1; "
        "new names extend the table in declaration order",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_parse = sub.add_parser("parse", help="show an expression's tree")
    p_parse.add_argument("--expr", required=True)
    p_parse.add_argument("--flatten", action="store_true", help="collapse like-operator chains first")
    p_parse.add_argument("--dump", action="store_true", help="machine-readable nested-list form")
    p_parse.set_defaults(func=cmd_parse)

    p_validate = sub.add_parser("validate", help="cross-check all four methods against each other")
    p_validate.add_argument("--digits", type=_positive_int, default=3,
                            help="required significant digits of agreement (default: 3)")
    p_validate.add_argument("--points", type=_nonnegative_int, default=1000,
                            help="number of seeded sample points (default: 1000)")
    p_validate.add_argument("--seed", type=int, default=42)
    p_validate.set_defaults(func=cmd_validate)

    p_bench = sub.add_parser(
        "bench",
        help="run the comparative timing experiment",
        description="Cross-validates the selected methods (9 significant digits, "
        "1000 points), then times each (method, expression) pair.",
    )
    p_bench.add_argument("--n", type=_positive_int, default=5000, help="points per sweep (default: 5000)")
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument("--repetitions", type=_positive_int, default=10)
    p_bench.add_argument("--min-window", type=_positive_float, default=100.0,
                         help="minimum measured CPU window in ms (default: 100)")
    p_bench.add_argument("--methods", type=_comma_list(_method), default=ALL_METHODS,
                         metavar="M1,M2,...",
                         help="comma-separated subset of blackbox,binary,nary,string")
    p_bench.add_argument("--expressions", type=_comma_list(_expression_id), default=tuple(range(1, 9)),
                         metavar="N1,N2,...", help="comma-separated subset of 1..8")
    p_bench.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
