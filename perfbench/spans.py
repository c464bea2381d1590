"""In-memory spans around the benchmark's own calls into each layer.

A span records the layer function's name, an optional key (the paper
expression id on paper-suite), the request that caused it, CPU start and
end, and how many calls it covers: a batch of evaluations of one source
is one span. The benchmark's spans never nest, so a layer's self time is
the summed duration of its spans. Spans stay in memory until the run ends
and are summarised into the per-layer metrics then.
"""

import collections
import time

clock = time.process_time_ns


class Tracer:
    on = True

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.request = 0

    def begin(self) -> int:
        return clock()

    def end(self, name: str, key, start: int, calls: int) -> None:
        self.spans.append((name, key, self.request, start, clock(), calls))

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def summary(self):
        """({name: [calls, self_ns]}, {(name, key): [calls, ns]})."""
        by_name = collections.defaultdict(lambda: [0, 0])
        by_key = collections.defaultdict(lambda: [0, 0])
        for name, key, _request, start, end, calls in self.spans:
            row = by_name[name]
            row[0] += calls
            row[1] += end - start
            if key is not None:
                cell = by_key[name, key]
                cell[0] += calls
                cell[1] += end - start
        return by_name, by_key


class NullTracer:
    """Tracing off: the same call sites, doing nothing."""

    on = False
    request = 0

    def begin(self) -> int:
        return 0

    def end(self, name, key, start, calls) -> None:
        pass

    def add(self, name, n=1) -> None:
        pass


NULL = NullTracer()
