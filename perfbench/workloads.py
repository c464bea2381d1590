"""The three workloads and the closed loop that serves them.

Every workload is one client in a closed loop: it sends a request, waits
for the answer, checks it against the reference and sends the next. A
request evaluates one expression at a batch of points through one path:

    binary  binary-tree walk          (tree built by parse_to_tree)
    nary    n-ary walk                (tree collapsed by flatten)
    string  eval_string per point     (re-parses every time)
    blackbox  the compiled routine    (paper-suite, traced runs only)

paper-suite and long-chains keep prepared trees and Bindings, built in
set-up; fresh-exprs is the one-shot caller and parses inside each
request. Each round holds one request per (path, expression) in a seeded
shuffled order, so the paths are interleaved in time.
"""

import array
import collections
import hashlib
import math
import statistics

import calib
import gen
from spans import clock

WINDOW_NS = 250_000_000  # CPU per throughput window; windows close at round ends

CAL_EVERY_NS = 5_000_000  # request CPU per segment between calibration probes (calib.py)


class PathStats:
    """Per-path tallies. CPU times are scaled per segment (the requests
    between two calibration probes) and summed per window."""

    __slots__ = ("attempted", "failed", "cpu_ns", "latency", "rates",
                 "seg_cpu", "seg_latency", "win_nodes", "win_cpu")

    def __init__(self):
        self.attempted = self.failed = self.cpu_ns = 0
        self.latency = array.array("d")  # scaled ns per source-node evaluation, successful requests
        self.rates = []  # scaled nodes/s of each window
        self.seg_cpu = 0
        self.seg_latency = []
        self.win_nodes = self.win_cpu = 0

    def close_segment(self, scale: float):
        self.win_cpu += self.seg_cpu * scale
        self.latency.extend(v * scale for v in self.seg_latency)
        self.seg_cpu = 0
        self.seg_latency = []

    def close_window(self):
        if self.win_cpu:
            self.rates.append(self.win_nodes * 1e9 / self.win_cpu)
        self.win_nodes = self.win_cpu = 0

    def nodes_per_s(self) -> float:
        return statistics.median(self.rates) if self.rates else 0.0

    def percentile_ns(self, q: float) -> float:
        if not self.latency:
            return 0.0
        ordered = sorted(self.latency)
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Served:
    """Outcome of a stretch of the closed loop."""

    def __init__(self):
        self.paths = collections.defaultdict(PathStats)
        self.errors = collections.Counter()
        self.mismatches = 0

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.paths.values())

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.paths.values())

    @property
    def request_cpu_ns(self) -> int:
        return sum(p.cpu_ns for p in self.paths.values())


# --- timed calls -----------------------------------------------------------
# One function per call pattern; each wraps its layer calls in one span.

def _walk_batch(tr, name, key, walk, tree, bindings):
    t = tr.begin()
    acc = 0.0
    try:
        for b in bindings:
            acc += walk(tree, b)
    except Exception:
        tr.add("evaluators.failures")
        raise
    finally:
        tr.end(name, key, t, len(bindings))
    return acc


def _string_batch(tr, key, eval_string, text, bindings):
    t = tr.begin()
    acc = 0.0
    try:
        for b in bindings:
            acc += eval_string(text, None, b)
    except Exception:
        tr.add("parser.failures")
        raise
    finally:
        tr.end("parser.eval_string", key, t, len(bindings))
    return acc


def _blackbox_batch(tr, key, lookup, fid, points):
    t = tr.begin()
    acc = 0.0
    try:
        fn = lookup(fid)
        for x, y in points:
            acc += fn(x, y)
    except Exception:
        tr.add("evaluators.failures")
        raise
    finally:
        tr.end("evaluators.blackbox", key, t, len(points))
    return acc


def _call(tr, name, layer, fn, *args):
    t = tr.begin()
    try:
        return fn(*args)
    except Exception:
        tr.add(layer + ".failures")
        raise
    finally:
        tr.end(name, None, t, 1)


def _one_shot_tree(tr, eb, method, collapse, text, points):
    """parse_to_tree, optionally flatten, then evaluate() at each point."""
    tree = _call(tr, "parser.parse_to_tree", "parser", eb.parse_to_tree, text)
    walked = _call(tr, "transform.flatten", "transform", eb.flatten, tree) if collapse else tree
    t = tr.begin()
    try:
        outs = [eb.evaluate(method, walked, p) for p in points]
    except Exception:
        tr.add("evaluators.failures")
        raise
    finally:
        tr.end("evaluators.evaluate", None, t, len(points))
    return [o.value for o in outs], tree, walked, sum(o.visits for o in outs)


def _one_shot_string(tr, eval_string, text, points):
    t = tr.begin()
    try:
        return [eval_string(text, None, p) for p in points]
    except Exception:
        tr.add("parser.failures")
        raise
    finally:
        tr.end("parser.eval_string", None, t, len(points))


# --- workloads ---------------------------------------------------------------

class Workload:
    """Inputs from the seed; set-up and requests against the program ``eb``.

    A request is (path, key, nodes, k, fn, args, expected): ``nodes`` is
    the source-node count of one evaluation, ``k`` the evaluations in the
    request, ``fn`` None when the request cannot be sent because its set-up
    already failed.
    """

    name = ""
    setup_errors = collections.Counter()  # (layer, exception type) from the last set-up
    traced_paths = ("binary", "nary", "string")
    parsing_paths = ("string",)  # scaled by the lexer probe; the rest by the walk probe
    # Sizes the fixed schedule of a traced run: rounds per second of
    # --seconds, each served twice (untraced and traced); measured on a
    # 2-vCPU x86-64 VM so that a traced run takes about --seconds.
    rounds_per_s = 1.0

    def digest(self) -> str:
        raise NotImplementedError

    def prepare(self, eb, tr) -> None:
        """The program's set-up calls; timed as set-up."""

    def unprepare(self) -> None:
        """Drop what ``prepare`` built, so that it can be timed again."""
        for name in ("eb", "trees", "flats", "bindings", "all_bindings", "visits"):
            self.__dict__.pop(name, None)

    def check_points(self, eb) -> int:
        """Untimed per-point comparison with the reference; mismatch count."""
        return 0

    def rounds(self, paths, tr):
        """Endless sequence of rounds, each a list of requests."""
        raise NotImplementedError

    def agree(self, req, out) -> bool:
        return gen.close(out, req[6])

    def after(self, req, out, tr) -> None:
        """Traced runs only: counts and probe calls outside the request."""

    def serve(self, rounds, tr, stop, served=None) -> Served:
        """Send requests round by round until ``stop(served)`` holds after a
        round; continue into ``served`` when one is given."""
        served = served or Served()
        paths = served.paths
        win_cpu = seg_cpu = 0
        probe = calib.calibrate()

        def close_segment():
            nonlocal probe, seg_cpu
            before, probe = probe, calib.calibrate()
            walk = 2 * calib.WALK_NOMINAL_NS / (before[0] + probe[0])
            lex = 2 * calib.LEX_NOMINAL_NS / (before[1] + probe[1])
            for path, st in paths.items():
                st.close_segment(lex if path in self.parsing_paths else walk)
            seg_cpu = 0

        for batch in rounds:
            for req in batch:
                path, key, nodes, k, fn, args, expected = req
                st = paths[path]
                st.attempted += k
                if fn is None:
                    st.failed += k
                    continue
                if tr.on:
                    tr.request += 1
                t0 = clock()
                try:
                    out = fn(*args)
                except Exception as exc:
                    out = None
                    served.errors[path, type(exc).__name__] += 1
                dt = clock() - t0
                st.cpu_ns += dt
                st.seg_cpu += dt
                win_cpu += dt
                seg_cpu += dt
                if out is None:
                    st.failed += k
                elif not self.agree(req, out):
                    served.mismatches += 1
                    st.failed += k
                else:
                    st.win_nodes += nodes * k
                    st.seg_latency.append(dt / (nodes * k))
                    if tr.on:
                        self.after(req, out, tr)
                if seg_cpu >= CAL_EVERY_NS:
                    close_segment()
            done = stop(served)
            if win_cpu >= WINDOW_NS or done:
                close_segment()
                for st in paths.values():
                    st.close_window()
                win_cpu = 0
            if done:
                return served


class PaperSuite(Workload):
    """The paper's eight expressions over seeded points in the unit square."""

    name = "paper-suite"
    traced_paths = ("blackbox", "binary", "nary", "string")
    rounds_per_s = 70.0
    POOL = 512
    K = 32

    def __init__(self, seed: int):
        self.points = gen.unit_points(gen.rng_for(seed, self.name), self.POOL)
        self.order = gen.rng_for(seed, self.name + "/order")
        self.nodes = {i: gen.count_nodes(ast) for i, (_, ast, _) in gen.PAPER.items()}
        self.batches = [self.points[i:i + self.K] for i in range(0, self.POOL, self.K)]
        self.ref_sums = {}
        for i, (_, _, formula) in gen.PAPER.items():
            sums = []
            for batch in self.batches:
                acc = 0.0
                for x, y in batch:
                    acc += formula(x, y)
                sums.append(acc)
            self.ref_sums[i] = sums

    def digest(self) -> str:
        return gen.digest([t for t, _, _ in gen.PAPER.values()], self.points)

    def prepare(self, eb, tr):
        self.eb = eb
        self.trees, self.flats = {}, {}
        for i, (text, _, _) in gen.PAPER.items():
            tree = _call(tr, "parser.parse_to_tree", "parser", eb.parse_to_tree, text)
            flat = _call(tr, "transform.flatten", "transform", eb.flatten, tree)
            self.trees[i], self.flats[i] = tree, flat
        t = tr.begin()
        bindings = [eb.Bindings(p) for p in self.points]
        tr.end("tree.Bindings", None, t, len(bindings))
        self.all_bindings = bindings
        self.bindings = [bindings[i:i + self.K] for i in range(0, self.POOL, self.K)]
        if tr.on:
            self.visits = {}
            for i in gen.PAPER:
                tr.add("transform.nodes_in", eb.count_nodes(self.trees[i]))
                tr.add("transform.nodes_out", eb.count_nodes(self.flats[i]))
                self.visits["binary", i] = eb.eval_binary(self.trees[i], bindings[0]).visits
                self.visits["nary", i] = eb.eval_nary(self.flats[i], bindings[0]).visits

    def check_points(self, eb) -> int:
        ev = eb.evaluators
        bad = 0
        for i, (text, _, formula) in gen.PAPER.items():
            box = eb.blackbox_lookup(i)
            for (x, y), b in zip(self.points, self.all_bindings):
                ref = formula(x, y)
                try:
                    got = (box(x, y), ev.binary_value(self.trees[i], b),
                           ev.nary_value(self.flats[i], b), eb.eval_string(text, None, b))
                except Exception:
                    bad += 1
                    continue
                bad += sum(not gen.close(v, ref) for v in got)
        return bad

    def rounds(self, paths, tr):
        eb = self.eb
        ev = eb.evaluators
        r = 0
        while True:
            reqs = []
            for i, (text, _, _) in gen.PAPER.items():
                j = (r + i) % len(self.batches)
                bl = self.bindings[j]
                calls = {
                    "blackbox": (_blackbox_batch, (tr, i, eb.blackbox_lookup, i, self.batches[j])),
                    "binary": (_walk_batch, (tr, "evaluators.binary_value", i, ev.binary_value, self.trees[i], bl)),
                    "nary": (_walk_batch, (tr, "evaluators.nary_value", i, ev.nary_value, self.flats[i], bl)),
                    "string": (_string_batch, (tr, i, eb.eval_string, text, bl)),
                }
                for path in paths:
                    fn, args = calls[path]
                    reqs.append((path, i, self.nodes[i], self.K, fn, args, self.ref_sums[i][j]))
            self.order.shuffle(reqs)
            yield reqs
            r += 1

    def after(self, req, out, tr):
        path, i = req[0], req[1]
        if path == "string":
            t = tr.begin()
            tokens = self.eb.tokenize(gen.PAPER[i][0])
            tr.end("parser.tokenize", None, t, 1)
            tr.add("parser.tokenize.tokens", len(tokens))
        elif path in ("binary", "nary"):
            tr.add(f"evaluators.{path}.visits", self.visits[path, i] * req[3])


class LongChains(Workload):
    """Long sums of c*x^a*y^b terms and long product chains, prepared once.

    Sizes sit on a fixed log grid with one chain of each family per size;
    the seed draws every coefficient, exponent, factor and point.
    """

    name = "long-chains"
    rounds_per_s = 1.0
    CHAINS = 24
    POINTS = 4

    def __init__(self, seed: int):
        rng = gen.rng_for(seed, self.name)
        self.order = gen.rng_for(seed, self.name + "/order")
        self.texts, self.nodes, self.points, self.refs = [], [], [], []
        for terms in gen.chain_terms(self.CHAINS // 2):
            for family in ("sum", "product"):
                ast = gen.chain(rng, terms, family)
                points = gen.unit_points(rng, self.POINTS)
                self.texts.append(gen.render(ast))
                self.nodes.append(gen.count_nodes(ast))
                self.points.append(points)
                self.refs.append([gen.ref_eval(ast, x, y) for x, y in points])

    def digest(self) -> str:
        return gen.digest(self.texts, [p for pts in self.points for p in pts])

    def prepare(self, eb, tr):
        self.eb = eb
        self.trees, self.flats, self.bindings = [], [], []
        self.setup_errors = collections.Counter()
        for text, points in zip(self.texts, self.points):
            tree = flat = None
            try:
                tree = _call(tr, "parser.parse_to_tree", "parser", eb.parse_to_tree, text)
                flat = _call(tr, "transform.flatten", "transform", eb.flatten, tree)
            except Exception as exc:
                layer = "parse_to_tree" if tree is None else "flatten"
                self.setup_errors[layer, type(exc).__name__] += 1
            t = tr.begin()
            self.bindings.append([eb.Bindings(p) for p in points])
            tr.end("tree.Bindings", None, t, len(points))
            self.trees.append(tree)
            self.flats.append(flat)
        if tr.on:
            self.visits = {}
            for c, (tree, flat) in enumerate(zip(self.trees, self.flats)):
                b = self.bindings[c][0]
                self.visits["binary", c] = self._visits(eb.eval_binary, tree, b)
                self.visits["nary", c] = self._visits(eb.eval_nary, flat, b)
                if flat is not None:
                    tr.add("transform.nodes_in", eb.count_nodes(tree))
                    tr.add("transform.nodes_out", eb.count_nodes(flat))

    @staticmethod
    def _visits(counted, tree, b) -> int:
        if tree is None:
            return 0
        try:
            return counted(tree, b).visits
        except RecursionError:
            return 0

    def rounds(self, paths, tr):
        """The walkers evaluate every chain at every point each round; the
        string path, about fifteen times dearer per node, at one point in
        turn, so that the walkers' share of the run is not drowned out."""
        eb = self.eb
        ev = eb.evaluators
        r = 0
        while True:
            reqs = []
            for c, text in enumerate(self.texts):
                tree, flat = self.trees[c], self.flats[c]
                for j in range(self.POINTS):
                    bl = self.bindings[c][j:j + 1]
                    calls = {
                        "binary": (_walk_batch, (tr, "evaluators.binary_value", None, ev.binary_value, tree, bl)),
                        "nary": (_walk_batch, (tr, "evaluators.nary_value", None, ev.nary_value, flat, bl)),
                        "string": (_string_batch, (tr, None, eb.eval_string, text, bl)),
                    }
                    ready = {"binary": tree is not None, "nary": flat is not None, "string": True}
                    for path in paths:
                        if path == "string" and j != r % self.POINTS:
                            continue
                        fn, args = calls[path]
                        reqs.append((path, c, self.nodes[c], 1, fn if ready[path] else None, args, self.refs[c][j]))
            self.order.shuffle(reqs)
            yield reqs
            r += 1

    def after(self, req, out, tr):
        path, c = req[0], req[1]
        if path == "string":
            t = tr.begin()
            tokens = self.eb.tokenize(self.texts[c])
            tr.end("parser.tokenize", None, t, 1)
            tr.add("parser.tokenize.tokens", len(tokens))
        else:
            tr.add(f"evaluators.{path}.visits", self.visits[path, c])


class FreshExprs(Workload):
    """A stream of distinct random expressions, each parsed per request."""

    name = "fresh-exprs"
    parsing_paths = ("binary", "nary", "string")
    rounds_per_s = 200.0
    K = 4
    HASHED = 64  # requests covered by the input digest
    BLOOM_BITS = 1 << 23

    def __init__(self, seed: int):
        self.rng = gen.rng_for(seed, self.name)
        self.order = gen.rng_for(seed, self.name + "/order")
        # Bloom filter of the texts sent so far: fixed memory however many
        # requests a run serves; a false positive only redraws a text
        self.seen = bytearray(self.BLOOM_BITS // 8)
        self.head = [self._next() for _ in range(self.HASHED)]

    def _sent_before(self, text: str) -> bool:
        h = hashlib.blake2b(text.encode(), digest_size=12).digest()
        bits = [int.from_bytes(h[i:i + 4], "little") % self.BLOOM_BITS for i in (0, 4, 8)]
        seen = all(self.seen[b >> 3] >> (b & 7) & 1 for b in bits)
        for b in bits:
            self.seen[b >> 3] |= 1 << (b & 7)
        return seen

    def _next(self):
        """(ast, text, points, reference values) with a text never sent before."""
        while True:
            ast = gen.random_expr(self.rng)
            text = gen.render(ast)
            if not self._sent_before(text):
                break
        points = gen.unit_points(self.rng, self.K)
        return ast, text, points, [gen.ref_eval(ast, x, y) for x, y in points]

    def digest(self) -> str:
        return gen.digest([h[1] for h in self.head], [p for h in self.head for p in h[2]])

    def prepare(self, eb, tr):
        self.eb = eb
        self.binary = eb.EvalMethod.BINARY_TREE
        self.nary = eb.EvalMethod.NARY_TREE

    def rounds(self, paths, tr):
        eb = self.eb
        while True:
            reqs = []
            for path in paths:
                ast, text, points, refs = self.head.pop(0) if self.head else self._next()
                if path == "string":
                    fn, args = _one_shot_string, (tr, eb.eval_string, text, points)
                else:
                    method = self.binary if path == "binary" else self.nary
                    fn, args = _one_shot_tree, (tr, eb, method, path == "nary", text, points)
                reqs.append((path, text, gen.count_nodes(ast), self.K, fn, args, refs))
            self.order.shuffle(reqs)
            yield reqs

    def agree(self, req, out) -> bool:
        values = out if req[0] == "string" else out[0]
        return all(gen.close(v, ref) for v, ref in zip(values, req[6]))

    def after(self, req, out, tr):
        path, text, points = req[0], req[1], req[5][-1]
        t = tr.begin()
        for p in points:
            self.eb.Bindings(p)
        tr.end("tree.Bindings", None, t, len(points))
        if path == "string":
            t = tr.begin()
            tokens = self.eb.tokenize(text)
            tr.end("parser.tokenize", None, t, 1)
            tr.add("parser.tokenize.tokens", len(tokens))
            return
        _, tree, walked, visits = out
        tr.add(f"evaluators.{path}.visits", visits)
        if path == "nary":
            tr.add("transform.nodes_in", self.eb.count_nodes(tree))
            tr.add("transform.nodes_out", self.eb.count_nodes(walked))


WORKLOADS = {w.name: w for w in (PaperSuite, FreshExprs, LongChains)}
