"""Span recording from outside the package, for the traced run.

``instrument`` swaps span-recording wrappers onto the module attributes
through which the package's layers call each other, and puts the
originals back on exit.  Spans stay in memory as
``[name, start, end, parent, call]`` lists; counts come from wrapper
arguments and return values.  With ``memory=True`` each span also
records its ``tracemalloc`` peak above the memory in use when it began.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import time
import tracemalloc

from neteffects import cli, estimators, inference, simulation

MB = 1e6


class Tracer:
    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self.counts: list[collections.Counter] = []  # one per workload call
        self.peaks: list[dict] = []  # one per workload call: span name -> MB
        self.memory = memory
        self._open: list[int] = []
        self._mem: list[list[int]] = []  # per open span: [bytes at start, peak bytes]

    def new_call(self) -> None:
        self.counts.append(collections.Counter())
        self.peaks.append({})

    def begin(self, name: str) -> int:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            for frame in self._mem:  # reset_peak below forgets this peak
                frame[1] = max(frame[1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, len(self.counts) - 1])
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._open.pop()
        if self.memory:
            start, peak = self._mem.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            name = self.spans[sid][0]
            mb = (peak - start) / MB
            self.peaks[-1][name] = max(self.peaks[-1].get(name, 0.0), mb)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[-1][name] += amount

    def fresh_network(self, net) -> None:
        """Compute a new network's cached summaries in a span of their own."""
        with self.span("network.summaries"):
            net.summaries

    def per_call(self) -> list[dict]:
        """Per workload call: ``<span>.s``, ``.self_s``, ``.calls`` and the counts."""
        covered = collections.defaultdict(float)
        for name, t0, t1, parent, call in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        rows = [collections.defaultdict(float, counts) for counts in self.counts]
        for sid, (name, t0, t1, parent, call) in enumerate(self.spans):
            row = rows[call]
            row[name + ".s"] += t1 - t0
            row[name + ".self_s"] += t1 - t0 - covered[sid]
            row[name + ".calls"] += 1
        for row, peaks in zip(rows, self.peaks):
            for name, mb in peaks.items():
                row[name + ".peak_mb"] = mb
        return rows

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call"],
                       "spans": self.spans}, fh)


def _branch(tracer, args, report):
    tracer.count("inference.branch." + report.branch)


def _quadruples(tracer, args, sample):
    tracer.count("estimators.sample_quadruples.quadruples", sample.m)


def _gathered(tracer, args, values):
    tracer.count("kernels.quadruple_kernel_values.gathered_mb", len(args[1]) * 16 * 8 / MB)


def _fresh(tracer, args, net):
    tracer.fresh_network(net)


# (module, attribute, span name, hook on the return value).  Every site
# through which a layer reaches another is listed, so each call is seen
# exactly once: e.g. mean_edge is reached from inference (local_effects)
# and from inside estimators (complete_estimate, projection_variance).
SITES = [
    (cli, "read_edge_list", "network.read_edge_list", _fresh),
    (cli, "test_effect", "inference.test_effect", _branch),
    (simulation, "generate", "simulation.generate", _fresh),
    (simulation, "test_effect", "inference.test_effect", _branch),
    (inference, "test_effect", "inference.test_effect", _branch),
    (inference, "diagnose_degeneracy", "inference.diagnose_degeneracy", None),
    (inference, "local_effects", "inference.local_effects", None),
    (inference, "mean_edge", "estimators.mean_edge", None),
    (inference, "complete_estimate", "estimators.complete_estimate", None),
    (inference, "projection_variance", "estimators.projection_variance", None),
    (inference, "sample_quadruples", "estimators.sample_quadruples", _quadruples),
    (inference, "reduced_estimate", "estimators.reduced_estimate", None),
    (estimators, "mean_edge", "estimators.mean_edge", None),
    (estimators, "quadruple_kernel_values", "kernels.quadruple_kernel_values", _gathered),
]


def _wrap(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


def _wrap_summaries(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(net):
        if "summaries" in vars(net):
            tracer.count("network.summaries.hits")
        return fn(net)

    return counted


def originals() -> list[tuple]:
    sites = [(module, attr) for module, attr, _, _ in SITES]
    return [(m, a, getattr(m, a)) for m, a in sites + [(estimators, "row_col_summaries")]]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = originals()
    try:
        for module, attr, name, hook in SITES:
            setattr(module, attr, _wrap(tracer, getattr(module, attr), name, hook))
        estimators.row_col_summaries = _wrap_summaries(tracer, estimators.row_col_summaries)
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def restored(saved: list[tuple]) -> bool:
    """True when every instrumented attribute is the original object again."""
    return all(getattr(module, attr) is fn for module, attr, fn in saved)
