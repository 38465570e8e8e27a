"""Outside-in layer spans for the benchmark's traced run.

The program has no tracing of its own yet, so the traced run wraps the
public functions at each layer boundary from here: each wrapper records a
span (name, start, end, parent, GMA id) in memory.  A layer's self time
is its spans' time minus the time covered by their child spans; the time
inside a GMA's compile that no layer span covers is reported as
untraced.  Spans are written as Chrome trace-event JSON (Perfetto opens
it) beside a per-layer self-time table.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Root span of one GMA's compile_gma call.  It names no layer: its self
# time is the pipeline glue no layer span covers (the untraced share).
ROOT = "compile_gma"

# (module, attribute path, span name).  Functions a module imported by
# name are patched where they are looked up, which is why emit appears
# twice: the ladder imports it at call time, exact extraction at import.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.pipeline", "Denali.compile_gma", ROOT),
    ("repro.core.session", "CompilationSession.saturate", "saturation"),
    ("repro.core.session", "CompilationSession.search", "ladder"),
    ("repro.core.session", "CompilationSession.refine_extraction", "extraction"),
    ("repro.encode.constraints", "IncrementalEncoder.__init__", "encode"),
    ("repro.encode.constraints", "IncrementalEncoder.ensure_budget", "encode"),
    ("repro.encode.constraints", "IncrementalEncoder.budget_clauses", "encode"),
    ("repro.encode.constraints", "IncrementalEncoder.budget_stats", "encode"),
    ("repro.sat.incremental", "IncrementalSolver.add_clauses", "sat.feed"),
    ("repro.sat.incremental", "IncrementalSolver.push_budget", "sat.feed"),
    ("repro.sat.incremental", "IncrementalSolver.solve_budget", "sat.solve"),
    ("repro.core.emit", "extract_schedule", "emit"),
    ("repro.extraction.refine", "extract_schedule", "emit"),
    ("repro.verify.checker", "check_schedule", "verify"),
)

# Layers the self-time table reports, in pipeline order.  The benchmark
# itself opens the lang.* spans around its own parse/translate calls.
LAYERS = (
    "lang.parse",
    "lang.translate",
    "saturation",
    "encode",
    "sat.feed",
    "sat.solve",
    "ladder",
    "emit",
    "extraction",
    "verify",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    gma: Optional[str]


class Tracer:
    """Records nested spans on one thread; install() wraps the layers.

    The wrappers record only while ``active`` is set, so calls the
    benchmark makes outside its timed window (the re-checks) leave no
    spans.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.gma: Optional[str] = None
        self.active = False
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.gma))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per span name (every layer in LAYERS, plus ROOT)."""
    totals = {name: 0.0 for name in LAYERS + (ROOT,)}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def write_chrome_trace(spans: Sequence[Span], path: str) -> None:
    """Complete ("X") events in microseconds, one thread, GMA ids as args."""
    base = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start - base) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"gma": span.gma, "span": index, "parent": span.parent},
        }
        for index, span in enumerate(spans)
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def traced_wall(spans: Sequence[Span]) -> float:
    """Time covered by root spans: the traced passes' timed window."""
    return sum(s.end - s.start for s in spans if s.parent is None)


def format_table(spans: Sequence[Span], passes: int) -> str:
    """The per-layer self-time table written beside the trace."""
    totals = layer_self_seconds(spans)
    wall = traced_wall(spans)
    lines = ["%-16s %12s %8s" % ("layer", "self_s/pass", "share")]
    for name in LAYERS:
        lines.append(
            "%-16s %12.6f %7.2f%%"
            % (name, totals[name] / passes, 100.0 * totals[name] / wall)
        )
    lines.append(
        "%-16s %12.6f %7.2f%%"
        % ("untraced", totals[ROOT] / passes, 100.0 * totals[ROOT] / wall)
    )
    lines.append("%-16s %12.6f %7.2f%%" % ("wall", wall / passes, 100.0))
    return "\n".join(lines) + "\n"
