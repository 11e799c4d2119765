"""Span tracing for the benchmark's traced passes.

A Tracer rebinds chosen sgc functions, in the module namespaces where their
callers look them up, to wrappers that record one span per call: layer
name, start, end and parent span.  The benchmark opens spans of its own
around the calls it makes into a layer that has no single function to wrap
(graph construction).  Per-layer times are self times: a span's duration
minus the time covered by its child spans.  Nothing is rebound outside
`Tracer.installed`, so untraced passes run the program unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

SEARCH = "solver.feasible_pq"

# (sgc submodule, attribute, layer).  One function may be looked up from
# several modules: chi_c finds feasible_pq in sgc.solver, z_set finds it in
# sgc.indicators.  refine finds tight_digraph and find_tight_cycle in
# sgc.certificates, so those calls nest under the refine span.
TARGETS = (
    ("solver", "chi_c", "solver.chi_c"),
    ("solver", "feasible_pq", SEARCH),
    ("indicators", "feasible_pq", SEARCH),
    ("solver", "candidates", "arith.candidates"),
    ("solver", "is_balanced", "core.is_balanced"),
    ("solver", "degeneracy", "core.degeneracy"),
    ("solver", "verify_coloring", "solver.verify_coloring"),
    ("indicators", "z_set", "indicators.z_set"),
    ("certificates", "tight_digraph", "certificates.tight_digraph"),
    ("certificates", "find_tight_cycle", "certificates.find_tight_cycle"),
    ("certificates", "cert_value", "certificates.cert_value"),
    ("certificates", "refine", "certificates.refine"),
    ("io_cli", "parse_sg", "io_cli.parse_sg"),
    ("io_cli", "render_sg", "io_cli.render_sg"),
    ("io_cli", "parse_coloring", "io_cli.parse_coloring"),
    ("io_cli", "render_coloring", "io_cli.render_coloring"),
)

CONSTRUCTIONS = "constructions"


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans; -1 for a root span
    end: float = 0.0
    nodes: int = 0  # search nodes spent inside a feasible_pq span
    outcome: str = ""  # "found" / "refuted", or "raised:<exception type>"


class Tracer:
    """Collects spans in memory; figures are read once the passes end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            budget = None
            if name == SEARCH:  # feasible_pq(g, p, q, pins=(), budget=None)
                budget = kwargs.get("budget", args[4] if len(args) > 4 else None)
            before = budget.nodes if budget is not None else 0
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.outcome = "raised:" + type(exc).__name__
                raise
            finally:
                if budget is not None:
                    span.nodes = budget.nodes - before
                tracer._close(span)
            if name == SEARCH:
                span.outcome = "refuted" if result is None else "found"
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, sgc):
        """Rebind every TARGETS function of the imported package `sgc`."""
        saved = []
        try:
            for mod_name, attr, layer in TARGETS:
                mod = getattr(sgc, mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(layer, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call counts per layer over every span."""
        self_s: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            self_s[s.name] += own
        return self_s, Counter(s.name for s in self.spans)


def per_layer_metrics(setup: Tracer, setups: int, setup_speed: float,
                      passes: Tracer, npasses: int, pass_speed: float) -> dict[str, float]:
    """Per-layer figures per set-up and per pass.

    Set-up spans (construction, rendering of inputs) are divided by the
    number of set-ups, pass spans by the number of traced passes, so the
    figures do not depend on how many passes fit into the run.  Seconds are
    multiplied by the speed factors, calibrated over raw seconds of the
    set-ups and of the traced passes (see clock.py).
    """
    s_setup, c_setup = setup.totals()
    s_pass, c_pass = passes.totals()

    def sec(layer):
        return (s_setup.get(layer, 0.0) * setup_speed / setups
                + s_pass.get(layer, 0.0) * pass_speed / npasses)

    def count(layer):
        return c_setup[layer] / setups + c_pass[layer] / npasses

    search = [s for s in passes.spans if s.name == SEARCH]
    chi_idx = {i for i, s in enumerate(passes.spans) if s.name == "solver.chi_c"}
    probes = sum(1 for s in search if s.parent in chi_idx)
    nodes = sum(s.nodes for s in search)
    zero_node = [own * pass_speed for s, own in zip(passes.spans, passes.self_times())
                 if s.name == SEARCH and s.nodes == 0 and s.outcome in ("found", "refuted")]
    search_s = s_pass.get(SEARCH, 0.0) * pass_speed
    rejected = sum(1 for s in passes.spans if s.name == "certificates.cert_value"
                   and s.outcome == "raised:CorruptCertificateError")

    m = {
        "arith.candidates.calls": count("arith.candidates"),
        "arith.candidates.s": sec("arith.candidates"),
        "core.is_balanced.s": sec("core.is_balanced"),
        "core.degeneracy.s": sec("core.degeneracy"),
        "solver.chi_c.self_s": sec("solver.chi_c"),
        "solver.chi_c.probes": probes / len(chi_idx) if chi_idx else 0.0,
        "solver.feasible_pq.calls": count(SEARCH),
        "solver.feasible_pq.s": sec(SEARCH),
        "solver.feasible_pq.nodes": nodes / npasses,
        "solver.feasible_pq.found": sum(s.outcome == "found" for s in search) / npasses,
        "solver.feasible_pq.refuted": sum(s.outcome == "refuted" for s in search) / npasses,
        "solver.feasible_pq.nodes_per_s": nodes / search_s if search_s else 0.0,
        "solver.feasible_pq.s_zero_node": statistics.median(zero_node) if zero_node else 0.0,
        "solver.verify_coloring.s": sec("solver.verify_coloring"),
        "indicators.z_set.s": sec("indicators.z_set"),
        "certificates.cert_value.rejected": rejected / npasses,
    }
    for layer in ("certificates.tight_digraph", "certificates.find_tight_cycle",
                  "certificates.cert_value", "certificates.refine", "io_cli.parse_sg",
                  "io_cli.render_sg", "io_cli.parse_coloring", "io_cli.render_coloring",
                  CONSTRUCTIONS):
        m[layer + ".s"] = sec(layer)
    return m
