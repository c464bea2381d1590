"""Four-strategy algebraic-expression evaluation with a timing benchmark.

The same expression can be computed through natively compiled black-box
routines, binary expression trees, n-ary expression trees (like-operator
chains collapsed into one node) or direct string interpretation; the
benchmark harness cross-validates the strategies against each other and
times them on a shared seeded point set.

The harness names (``run_benchmark``, ``cross_validate``, ...) are loaded
from ``evalbench.benchmark`` when first used, so evaluating expressions
never pays for importing the harness.
"""

import importlib

from .errors import (
    ArityMismatchError,
    ClockUnavailableError,
    DomainFaultError,
    EvalBenchError,
    LeafKindError,
    MethodSourceMismatchError,
    NonFiniteValueError,
    ParseError,
    ParseErrorKind,
    UnboundVariableError,
    UnknownFunctionError,
    UnknownFunctionIdError,
    ValidationFailureError,
)
from .evaluators import (
    BLACKBOX_FUNCTIONS,
    EvalMethod,
    EvalOutcome,
    blackbox_lookup,
    eval_binary,
    eval_nary,
    evaluate,
)
from .parser import (
    DEFAULT_SYMBOLS,
    SymbolTable,
    Token,
    TokenTag,
    eval_string,
    parse_to_tree,
    tokenize,
)
from .transform import flatten, flatten_stats
from .tree import (
    UNARY_FUNCTIONS,
    Bindings,
    ExprNode,
    OpKind,
    count_nodes,
    format_tree,
    is_binary_form,
    make_constant,
    make_op,
    make_variable,
    to_sexpr,
    variable_indices,
)

__version__ = "0.1.0"

_BENCHMARK_NAMES = frozenset("""
    ALL_METHODS BenchCell BenchConfig BenchReport EXPRESSIONS ExpressionCheck METHOD_LABELS
    ValidationReport cross_validate emit_report generate_inputs run_benchmark
""".split())


def __getattr__(name):
    if name in _BENCHMARK_NAMES:
        return getattr(importlib.import_module(".benchmark", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
