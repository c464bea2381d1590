"""Comparative-timing experiment over the eight-function suite.

The harness times each (method, expression) pair on the same seeded point
sequence. Preparation (tree construction, flattening, string storage) is
never timed; per-call string parsing is, because re-parsing is what the
direct-evaluation strategy costs. Modern machines finish one 5000-point
sweep in microseconds, far below clock resolution, so each measurement
repeats whole sweeps until the process-CPU window reaches a minimum width
and divides by the repeat count. Repetitions run in rounds that time every
cell once, so a change of machine load reaches all methods alike. The
headline statistic is the median over repetitions (robust to scheduler
noise); the minimum is the low-noise floor. Measurement is strictly
single-threaded.
"""

import csv
import hashlib
import io
import json
import math
import platform
import random
import statistics
import struct
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from .errors import ClockUnavailableError, ValidationFailureError
from .evaluators import EvalMethod, binary_value, blackbox_lookup, nary_value
from .parser import DEFAULT_SYMBOLS, eval_string, parse_to_tree
from .transform import flatten

#: The test-function suite in string form, keyed by id. The black-box
#: registry hardwires the same eight formulas.
EXPRESSIONS: dict[int, str] = {
    1: "x",
    2: "x+y",
    3: "x^y",
    4: "(x+y)*x^y",
    5: "sin(x)",
    6: "sin((x+y)*x^y)",
    7: "x+y+1",
    8: "2*x*y*(x+y+1)",
}

ALL_METHODS = tuple(EvalMethod)

METHOD_LABELS = {
    EvalMethod.BLACKBOX: "Black-box functions",
    EvalMethod.BINARY_TREE: "Binary trees",
    EvalMethod.NARY_TREE: "N-ary trees",
    EvalMethod.STRING_PARSE: "String parsing",
}

_RNG_DESCRIPTION = "Mersenne Twister (random.Random), x then y per pair"


def _check_grid(methods: Sequence[EvalMethod], expressions: Sequence[int]) -> None:
    """A grid names known expression ids, and each method and id once: a
    repeat would time or check one cell twice."""
    if any(e not in EXPRESSIONS for e in expressions):
        raise ValueError(f"expression ids must be within 1..8, got {tuple(expressions)!r}")
    for what, values in (("methods", methods), ("expression ids", expressions)):
        if len(set(values)) < len(values):
            raise ValueError(f"{what} must not repeat, got {tuple(values)!r}")


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark parameters; defaults reproduce the desk-scale experiment."""

    n_points: int = 5000
    seed: int = 42
    repetitions: int = 10
    min_window_ms: float = 100.0
    methods: tuple[EvalMethod, ...] = ALL_METHODS
    expressions: tuple[int, ...] = tuple(range(1, 9))

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0 < self.min_window_ms < math.inf:
            raise ValueError("min_window_ms must be > 0 and finite")
        if not (self.methods and self.expressions):
            raise ValueError("at least one method and one expression id are required")
        _check_grid(self.methods, self.expressions)


@dataclass(frozen=True)
class BenchCell:
    """Timing statistics for one (method, expression) pair.

    ``median_s`` and ``min_s`` are CPU seconds for one full n-points sweep
    (measured window divided by the loop multiplier). ``checksum`` is the
    sum of all evaluation results over one sweep; it must agree across
    methods for the same expression, proving equivalent work was done.
    """

    method: EvalMethod
    expression_id: int
    median_s: float
    min_s: float
    evals_per_s: float
    loop_multiplier: int
    total_window_s: float
    checksum: float
    input_hash: str


@dataclass(frozen=True)
class BenchReport:
    cells: tuple[BenchCell, ...]
    n_points: int
    seed: int
    repetitions: int
    min_window_ms: float
    clock: str
    build_profile: str
    rng: str

    def cell(self, method: EvalMethod, expression_id: int) -> BenchCell:
        for c in self.cells:
            if c.method is method and c.expression_id == expression_id:
                return c
        raise KeyError((method, expression_id))

    @property
    def methods(self) -> tuple[EvalMethod, ...]:
        return tuple(dict.fromkeys(c.method for c in self.cells))

    @property
    def expression_ids(self) -> tuple[int, ...]:
        return tuple(sorted({c.expression_id for c in self.cells}))


def generate_inputs(n: int, seed: int) -> list[tuple[float, float]]:
    """``n`` (x, y) pairs, each coordinate uniform in [0, 1].

    Deterministic: a ``random.Random(seed)`` Mersenne Twister drawing x
    then y per pair, so every method and every same-seed run sees the
    identical sequence.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(n)]


def _hash_points(points: Sequence[tuple[float, float]]) -> str:
    digest = hashlib.sha256()
    for x, y in points:
        digest.update(struct.pack("<dd", x, y))
    return digest.hexdigest()


def _process_clock() -> tuple[Callable[[], float], str]:
    try:
        info = time.get_clock_info("process_time")
    except (AttributeError, ValueError) as exc:
        raise ClockUnavailableError("no process-CPU clock on this platform") from exc
    desc = f"time.process_time ({info.implementation}, resolution {info.resolution:g} s)"
    return time.process_time, desc


def _build_profile() -> str:
    return (
        f"{platform.python_implementation()} {platform.python_version()}"
        f" on {platform.system().lower()}/{platform.machine()}"
    )


def _make_sweep(
    method: EvalMethod,
    expression_id: int,
) -> Callable[[Sequence[tuple[float, float]]], float]:
    """A pass over given points that returns the sum of the results.

    Source preparation (routine lookup, tree building, flattening) happens
    here, outside any timed region. Every method reads ``generate_inputs``'
    pairs as they are: ``Bindings`` returns an exact float pair unchanged.
    ``run_benchmark`` times passes over the whole point set;
    ``cross_validate`` passes one point at a time, where the sum is that
    point's value.
    """
    if method is EvalMethod.BLACKBOX:
        fn = blackbox_lookup(expression_id)

        def sweep(points) -> float:
            acc = 0.0
            for x, y in points:
                acc += fn(x, y)
            return acc

        return sweep
    text = EXPRESSIONS[expression_id]
    if method is EvalMethod.BINARY_TREE or method is EvalMethod.NARY_TREE:
        tree = parse_to_tree(text)
        walk = binary_value
        if method is EvalMethod.NARY_TREE:
            tree, walk = flatten(tree), nary_value

        def sweep(points) -> float:
            acc = 0.0
            for b in points:
                acc += walk(tree, b)
            return acc

        return sweep
    if method is EvalMethod.STRING_PARSE:

        def sweep(points) -> float:
            acc = 0.0
            for b in points:
                acc += eval_string(text, DEFAULT_SYMBOLS, b)
            return acc

        return sweep
    raise ValueError(f"unknown method {method!r}")


def _estimate_tick(clock: Callable[[], float]) -> float:
    """Smallest observable clock increment.

    Some environments advertise nanosecond resolution but account process
    CPU time in far coarser quanta; spinning until the reading advances
    measures what the clock actually delivers.
    """
    ticks = []
    for _ in range(3):
        a = clock()
        while True:
            b = clock()
            if b > a:
                break
        ticks.append(b - a)
    return min(ticks)


def _calibrate(
    sweep: Callable[[], float],
    clock: Callable[[], float],
    min_window_s: float,
    tick_s: float,
) -> tuple[int, float]:
    """(loop multiplier, checksum) for one cell.

    The calibration target is the configured minimum window, widened to a
    few clock ticks when the clock is coarse, so no window can quantize to
    zero.
    """
    checksum = sweep()  # warm-up, untimed; its result is the cell checksum
    required = max(min_window_s, 3.0 * tick_s)
    multiplier = 1
    while _time_window(sweep, clock, multiplier) < required:
        multiplier *= 2
    return multiplier, checksum


def _time_window(sweep: Callable[[], float], clock: Callable[[], float], multiplier: int) -> float:
    """CPU seconds for ``multiplier`` back-to-back sweeps."""
    start = clock()
    acc = 0.0
    for _ in range(multiplier):
        acc += sweep()
    window = clock() - start
    del acc  # sums are accumulated and consumed so the work cannot be elided
    return window


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Time every selected (method, expression) pair under ``cfg``.

    Evaluation errors propagate; the suite's functions cannot fault on
    [0, 1]^2 inputs, so a fault here means a broken strategy.
    """
    clock, clock_desc = _process_clock()
    tick_s = _estimate_tick(clock)
    points = generate_inputs(cfg.n_points, cfg.seed)
    input_hash = _hash_points(points)
    min_window_s = cfg.min_window_ms / 1000.0
    prepared = []
    for method in cfg.methods:
        for expression_id in sorted(cfg.expressions):
            sweep = partial(_make_sweep(method, expression_id), points)
            multiplier, checksum = _calibrate(sweep, clock, min_window_s, tick_s)
            prepared.append((method, expression_id, sweep, multiplier, checksum))
    # Repetitions run in rounds that time every cell once, the methods of
    # one expression back to back, with the order reversed on every other
    # round: a load change on the machine then shifts every method's
    # windows alike instead of the cells that happen to run during it.
    order = sorted(range(len(prepared)), key=lambda i: prepared[i][1])
    windows: list[list[float]] = [[] for _ in prepared]
    for round_index in range(cfg.repetitions):
        for i in order if round_index % 2 == 0 else reversed(order):
            _, _, sweep, multiplier, _ = prepared[i]
            windows[i].append(_time_window(sweep, clock, multiplier))
    cells = []
    for (method, expression_id, _, multiplier, checksum), cell_windows in zip(prepared, windows):
        median_s = statistics.median(cell_windows) / multiplier
        cells.append(
            BenchCell(
                method=method,
                expression_id=expression_id,
                median_s=median_s,
                min_s=min(cell_windows) / multiplier,
                evals_per_s=cfg.n_points / median_s,
                loop_multiplier=multiplier,
                total_window_s=sum(cell_windows),
                checksum=checksum,
                input_hash=input_hash,
            )
        )
    return BenchReport(
        cells=tuple(cells),
        n_points=cfg.n_points,
        seed=cfg.seed,
        repetitions=cfg.repetitions,
        min_window_ms=cfg.min_window_ms,
        clock=clock_desc,
        build_profile=_build_profile(),
        rng=_RNG_DESCRIPTION,
    )


# --- cross-method validation ------------------------------------------------


@dataclass(frozen=True)
class ExpressionCheck:
    """Worst observed disagreement for one expression."""

    expression_id: int
    max_rel_deviation: float
    worst_point: tuple[float, float] | None
    worst_pair: tuple[EvalMethod, EvalMethod] | None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ExpressionCheck, ...]
    tolerance: float
    sig_digits: int
    n_points: int
    seed: int
    methods: tuple[EvalMethod, ...]
    passed: bool

    def worst(self) -> ExpressionCheck:
        return max(self.checks, key=lambda c: c.max_rel_deviation)


def _rel_deviation(a: float, b: float) -> float:
    """Relative difference of two results; infinite if either is NaN or
    infinite, so a method that returns one fails validation."""
    dev = abs(a - b) / max(1.0, abs(a), abs(b))
    return math.inf if math.isnan(dev) else dev


def cross_validate(
    expressions: Iterable[int] | None = None,
    n_points: int = 1000,
    seed: int = 42,
    tolerance_sig_digits: int = 3,
    methods: Sequence[EvalMethod] = ALL_METHODS,
) -> ValidationReport:
    """Check that all selected methods agree on every selected expression.

    Every expression is evaluated at every seeded point with every method;
    the report carries the worst relative deviation per expression over all
    method pairs. Passes iff every deviation is at most
    0.5 * 10^-tolerance_sig_digits; otherwise ValidationFailureError is
    raised, carrying the full report and, as its message, the one line that
    names the worst disagreement.
    """
    if tolerance_sig_digits < 1:
        raise ValueError("tolerance_sig_digits must be >= 1")
    ids = sorted(EXPRESSIONS if expressions is None else expressions)
    methods = tuple(methods)
    _check_grid(methods, ids)
    tolerance = 0.5 * 10.0 ** (-tolerance_sig_digits)
    points = generate_inputs(n_points, seed)

    checks = []
    for expression_id in ids:
        sweeps = [(m, _make_sweep(m, expression_id)) for m in methods]
        worst_dev = 0.0
        worst_point = None
        worst_pair = None
        for point in points:
            values = [(m, sweep((point,))) for m, sweep in sweeps]
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    dev = _rel_deviation(values[i][1], values[j][1])
                    if dev > worst_dev:
                        worst_dev = dev
                        worst_point = point
                        worst_pair = (values[i][0], values[j][0])
        checks.append(ExpressionCheck(expression_id, worst_dev, worst_point, worst_pair))

    passed = all(c.max_rel_deviation <= tolerance for c in checks)
    report = ValidationReport(
        checks=tuple(checks),
        tolerance=tolerance,
        sig_digits=tolerance_sig_digits,
        n_points=n_points,
        seed=seed,
        methods=methods,
        passed=passed,
    )
    if not passed:
        w = report.worst()
        pair = " vs ".join(m.value for m in w.worst_pair)
        raise ValidationFailureError(
            report,
            f"expression {w.expression_id} ({EXPRESSIONS[w.expression_id]}), {pair}, "
            f"deviation {w.max_rel_deviation:.3e} > tolerance {tolerance:.1e} at point {w.worst_point}",
        )
    return report


# --- report emission ---------------------------------------------------------

_CSV_FIELDS = ("method", "expression_id", "median_s", "min_s", "evals_per_s",
               "n_points", "repetitions", "seed")

#: Bumped whenever a field is added, removed or reinterpreted. The csv and
#: json layouts are documented in README under "Report schemas".
REPORT_SCHEMA_VERSION = 1


def _g17(value: float) -> str:
    return format(value, ".17g")


def _cell_record(report: BenchReport, cell: BenchCell) -> dict:
    return {
        "method": cell.method.value,
        "expression_id": cell.expression_id,
        "median_s": cell.median_s,
        "min_s": cell.min_s,
        "evals_per_s": cell.evals_per_s,
        "n_points": report.n_points,
        "repetitions": report.repetitions,
        "seed": report.seed,
        "loop_multiplier": cell.loop_multiplier,
        "total_window_s": cell.total_window_s,
        "checksum": cell.checksum,
        "input_hash": cell.input_hash,
    }


def emit_report(report: BenchReport, format: str = "table") -> str:
    """Render a benchmark report as a table, csv or json string."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        for cell in report.cells:
            record = _cell_record(report, cell)
            writer.writerow(_g17(v) if isinstance(v, float) else v for v in map(record.get, _CSV_FIELDS))
        return buf.getvalue()
    if format == "json":
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "metadata": {
                "n_points": report.n_points,
                "seed": report.seed,
                "repetitions": report.repetitions,
                "min_window_ms": report.min_window_ms,
                "clock": report.clock,
                "build_profile": report.build_profile,
                "rng": report.rng,
            },
            "cells": [_cell_record(report, cell) for cell in report.cells],
        }
        return json.dumps(payload, indent=2) + "\n"
    if format == "table":
        ids = report.expression_ids
        header = (
            f"Median CPU seconds per sweep of {report.n_points} points "
            f"(median of {report.repetitions} repetitions, seed {report.seed})"
        )
        label_w = max(len("Evaluation Method"), *(len(METHOD_LABELS[m]) for m in report.methods)) + 2
        lines = [header, f"clock: {report.clock}; build: {report.build_profile}", ""]
        head = "Evaluation Method".ljust(label_w) + "".join(f"{e:>12}" for e in ids)
        head += f"{'total':>12}"
        lines.append(head)
        for method in report.methods:
            row = METHOD_LABELS[method].ljust(label_w)
            total = 0.0
            for e in ids:
                cell = report.cell(method, e)
                total += cell.median_s
                row += f"{cell.median_s:>12.3e}"
            row += f"{total:>12.3e}"
            lines.append(row)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")
