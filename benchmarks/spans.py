"""Spans and counters recorded around calls into the package's layers.

Tracing works from outside the package: `Tracer.install` swaps each traced
function for a timing wrapper in every `opennet` module namespace that
bound it (a function imported by name into three modules has to be
replaced three times), and `uninstall` puts the originals back.  Spans are
kept in memory; per-layer numbers are derived from them afterwards.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Seconds per span name: each span's duration minus the part of its
    interval that its child spans cover, summed over spans of that name."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for i, span in enumerate(spans):
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children.get(i, ())]
        own = (span.end - span.start) - _covered([iv for iv in clipped if iv[0] < iv[1]])
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def _lts_counts(lts):
    return {"semantics.lts_states": len(lts.states), "semantics.lts_edges": len(lts.edges)}


def _verdict_counts(verdict):
    return {"equivalence.witness_pairs": len(verdict.witness or ()),
            "equivalence.play_moves": len(verdict.play or ())}


# (module, function, span name, counts derived from the return value)
TRACED = (
    ("opennet.cli", "main", "cli.main", None),
    ("opennet.documents", "parse_net", "documents.parse", None),
    ("opennet.documents", "parse_span", "documents.parse", None),
    ("opennet.documents", "parse_rule", "documents.parse", None),
    ("opennet.documents", "parse_eta", "documents.parse", None),
    ("opennet.nets", "validate_net", "nets.validate", None),
    ("opennet.nets", "validate_morphism", "nets.validate", None),
    ("opennet.nets", "validate_correspondence", "nets.validate", None),
    ("opennet.composition", "pushout", "composition.pushout", None),
    ("opennet.semantics", "build_lts", "semantics.build_lts", _lts_counts),
    ("opennet.semantics", "weak_closure", "semantics.weak_closure",
     lambda lts: {"semantics.weak_edges": len(lts.edges)}),
    ("opennet.semantics", "relabel", "semantics.relabel", None),
    ("opennet.equivalence", "partition_refinement", "equivalence.partition_refinement",
     lambda blocks: {"equivalence.blocks": len(set(blocks))}),
    ("opennet.equivalence", "check_bisim", "equivalence.check_bisim", _verdict_counts),
    ("opennet.equivalence", "search_correspondence", "equivalence.search_correspondence",
     None),
    ("opennet.rewriting", "find_matches", "rewriting.find_matches",
     lambda matches: {"rewriting.matches": len(matches)}),
    ("opennet.rewriting", "check_proper", "rewriting.check_proper", None),
    ("opennet.rewriting", "apply_rule", "rewriting.apply_rule", None),
)


class Tracer:
    """Records spans and counts while installed; `reset` starts a new batch."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def wrap(self, name, fn, counts=None):
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                self.counts.update(counts(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "opennet" or name.startswith("opennet."))]
        for module_name, attr, span_name, counts in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        from opennet.multiset import Multiset

        init = Multiset.__init__

        def counting_init(ms, entries=None):
            self.counts["multiset.constructed"] += 1
            init(ms, entries)

        self._patched.append((Multiset, "__init__", init))
        Multiset.__init__ = counting_init

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def layer_metrics(self) -> dict:
        """Self milliseconds per span name, call counts and result counts."""
        out = {f"{name}.self_ms": 1000.0 * s for name, s in self_times(self.spans).items()}
        calls = Counter(span.name for span in self.spans)
        for name in ("semantics.build_lts", "equivalence.check_bisim", "documents.parse"):
            out[f"{name}.calls"] = calls[name]
        out.update(self.counts)
        return out
