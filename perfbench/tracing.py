"""Span tracing around calls into the mrbounds layers, from outside the package.

Each layer entry point is replaced, under the name its caller looks up, by a
wrapper that records one span (name, start, end, parent, request).  Spans are
kept in memory and written once, after the pass.  A layer's self time is
its span duration minus the part covered by its child spans.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from mrbounds import certificates, core, deletion, forcing, reports

# (module, attribute looked up by the caller, span name).  The same function
# is reached under several names (t_minus is called by compute_report
# directly, from delta, and from m_sandwich), so each name gets its own wrapper
# and all of them feed one span name.
_CALL_SITES = (
    (reports, "_t_values", "deletion.t_values"),
    (reports, "_delta_values", "deletion.delta_values"),
    (reports, "_z_value", "forcing.z_value"),
    (reports, "induced_path_cover_bruteforce", "pathcover.induced_bruteforce"),
    (reports, "t_minus", "deletion.t_minus"),
    (deletion, "t_minus", "deletion.t_minus"),
    (certificates, "_t_minus_op", "deletion.t_minus"),
    (reports, "t_plus", "deletion.t_plus"),
    (certificates, "_t_plus_op", "deletion.t_plus"),
    (reports, "delta", "deletion.delta"),
    (reports, "delta_plus", "deletion.delta_plus"),
    (certificates, "_delta_plus_op", "deletion.delta_plus"),
    (reports, "zero_forcing_number", "forcing.zero_forcing_number"),
    (certificates, "zero_forcing_number", "forcing.zero_forcing_number"),
    (deletion, "min_path_cover", "pathcover.min_path_cover"),
    (forcing, "min_path_cover", "pathcover.min_path_cover"),
    (reports, "m_sandwich", "certificates.m_sandwich"),
    (certificates, "m_sandwich", "certificates.m_sandwich"),
    (certificates, "certificate_search", "certificates.search"),
    (certificates, "sample_pattern", "certificates.sample_pattern"),
    (certificates, "verify_certificate", "certificates.verify"),
    (np.linalg, "eigh", "certificates.eigh"),
    (core.Graph, "graph6", "core.graph6"),
    (reports, "compute_report", "reports.compute_report"),
    (reports, "emit_report", "reports.emit"),
    (reports, "load_reports_json", "reports.load"),
    (reports, "load_reports_csv", "reports.load"),
)

# Results counted as they pass a wrapper: (span name, counter, predicate).
_OUTCOMES = (
    ("certificates.search", "converged", lambda r: r.converged),
    ("certificates.m_sandwich", "m_exact", lambda r: r.m_exact is not None),
)

# Generator entry points: each next() is one span, so the time spent
# producing items is separated from the consumer's time.
_ITER_SITES = ((reports, "enumerate_small_graphs", "reports.enumerate"),)


class Tracer:
    """In-memory span recorder.  ``request`` tags spans with the input they
    serve; ``clock`` is the time source (seconds)."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.request)

    @contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(idx, parent, name, start)

    def wrap(self, name: str, fn):
        outcomes = [(counter, pred) for site, counter, pred in _OUTCOMES if site == name]

        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, start)
            for counter, pred in outcomes:
                if pred(result):
                    self.counts[counter] += 1
            return result

        return traced

    def wrap_iter(self, name: str, fn):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx, parent = self._open()
                start = self.clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx, parent, name, start)
                self.counts[name] += 1
                yield item

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time in seconds, span count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += end - start - child[i]
            agg[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")


@contextmanager
def instrumented(tracer: Tracer):
    """Install the tracer's wrappers at every call site; restore on exit."""
    saved = []
    try:
        for owner, attr, name in _CALL_SITES:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        for owner, attr, name in _ITER_SITES:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap_iter(name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
