"""In-memory tracing of the package's layers, installed from outside.

`Tracer.install()` replaces the package's entry points *as their callers
see them* (for example `softbounds.search.resume_bounds`, the name the
search module calls, and `softbounds.propagation.min_over_box_pinned`) with
wrappers, and `uninstall()` puts the originals back. Nothing in the package
changes.

Spans (name, start, end, parent, job id) are kept for jobs, enforcements,
solves, resumes, state builds, parses and validations. Calls into `costfn`
and trail undo are too many for spans; they go into aggregated counters
and time. A span's self time is its duration minus the time its child
spans and the aggregated calls made directly inside it cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

import softbounds.cli
import softbounds.fileformat
import softbounds.propagation
import softbounds.search
from softbounds import ExtTable, FunctionalEq, AntiFunctionalNeq, LinPlus, MonoLeq, Spacer

_now = time.perf_counter_ns

COSTFN_KINDS = (
    "spacer",
    "table_sparse",
    "table_dense",
    "semiconvex",
    "funceq",
    "antifuncneq",
    "monoleq",
    "linplus",
)

_KIND_NAMES = {
    Spacer: "spacer",
    FunctionalEq: "funceq",
    AntiFunctionalNeq: "antifuncneq",
    MonoLeq: "monoleq",
    LinPlus: "linplus",
}


def kind_name(fn, box=None) -> str:
    """Benchmark name of a function's kind. Tables are split by the path
    `min_over_box` takes: sparse when the table lists fewer tuples than
    the box holds, dense otherwise; single lookups (no box) are "table"."""
    kind = fn.kind
    if isinstance(kind, ExtTable):
        if kind.semiconvex is not None:
            return "semiconvex"
        if box is None:
            return "table"
        vol = 1
        for v in fn.scope:
            lo, hi = box[v]
            vol *= hi - lo + 1
        return "table_sparse" if len(kind.table) < vol else "table_dense"
    return _KIND_NAMES[type(kind)]


class Tracer:
    def __init__(self) -> None:
        # One span: [name, start_ns, end_ns, parent index or -1, job id, covered_ns]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.job_id: Optional[int] = None
        self.counts: Dict[str, int] = defaultdict(int)
        self.ns: Dict[str, int] = defaultdict(int)
        self.peaks: Dict[str, int] = defaultdict(int)
        self._states: List[Any] = []
        self._patches: List[tuple] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self.job_id, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> int:
        span = self.spans[idx]
        span[2] = _now()
        self._stack.pop()
        dur = span[2] - span[1]
        if span[3] >= 0:
            self.spans[span[3]][5] += dur
        return dur

    def span(self, name: str, fn: Callable, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def _aggregate(self, key: str, elapsed: int) -> None:
        self.counts[key] += 1
        self.ns[key] += elapsed
        if self._stack:
            self.spans[self._stack[-1]][5] += elapsed

    def merge(self, child: dict) -> None:
        """Fold in the export of a tracer that ran in another process (a CLI
        child). Its root spans become children of the open span; the clock
        is shared because `perf_counter_ns` is system-wide monotonic here."""
        parent = self._stack[-1] if self._stack else -1
        base = len(self.spans)
        for s in child["spans"]:
            own_parent = s["parent"]
            self.spans.append([
                s["name"], s["start_ns"], s["end_ns"],
                own_parent + base if own_parent >= 0 else parent,
                self.job_id, s["covered_ns"],
            ])
            if own_parent < 0 and parent >= 0:
                self.spans[parent][5] += s["end_ns"] - s["start_ns"]
        for key, value in child["counts"].items():
            self.counts[key] += value
        for key, value in child["ns"].items():
            self.ns[key] += value
        for key, value in child["peaks"].items():
            self.peaks[key] = max(self.peaks[key], value)

    def self_ns(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name, start, end, _parent, _job, covered in self.spans:
            out[name.split(".", 1)[0]] += (end - start) - covered
        for key, ns in self.ns.items():
            out[key.split(".", 1)[0]] += ns
        return dict(out)

    def total_ns(self, name: str) -> int:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    # -- propagation states -----------------------------------------------

    def note_state(self, st) -> None:
        self._states.append(st)

    def harvest_states(self) -> None:
        """Add the counters of every state built since the last harvest."""
        for st in self._states:
            self.counts["propagation.queue_pops"] += st.stats.queue_pops
            self.counts["propagation.deletions"] += st.stats.deletions
            self.counts["propagation.projections"] += st.stats.projections
            self.counts["propagation.lookups"] += sum(ov.eval_count for ov in st.overlays)
            cells = st.allocation_cells()
            self.peaks["propagation.state_cells"] = max(self.peaks["propagation.state_cells"], cells)
        self._states.clear()

    def note_result(self, result) -> None:
        self.counts["search.nodes"] += result.nodes
        self.counts["search.backtracks"] += result.backtracks
        self.counts["search.incumbents"] += len(result.incumbents)

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn: Callable, after: Optional[Callable] = None):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _state_class(self, cls):
        tracer = self

        def build(*args, **kwargs):
            idx = tracer.begin("state_build")
            try:
                st = cls(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer.note_state(st)
            return st

        return build

    def install(self) -> None:
        prop = softbounds.propagation
        search = softbounds.search
        cli = softbounds.cli
        tracer = self

        orig_pinned = prop.min_over_box_pinned

        def min_over_box_pinned(fn, box, pin_var, pin_val, val, overlay=None):
            t0 = _now()
            r = orig_pinned(fn, box, pin_var, pin_val, val, overlay)
            tracer._aggregate("costfn." + kind_name(fn, box), _now() - t0)
            return r

        orig_box = prop.min_over_box

        def min_over_box(fn, box, val, overlay=None):
            t0 = _now()
            r = orig_box(fn, box, val, overlay)
            tracer._aggregate("costfn." + kind_name(fn, box), _now() - t0)
            return r

        def raw_cost_wrapper(orig):
            def raw_cost(fn, values, val):
                t0 = _now()
                r = orig(fn, values, val)
                tracer._aggregate("costfn." + kind_name(fn), _now() - t0)
                return r

            return raw_cost

        orig_undo = prop.PropState.undo_to

        def undo_to(st, mark):
            t0 = _now()
            orig_undo(st, mark)
            tracer._aggregate("undo", _now() - t0)

        orig_mark = prop.PropState.mark

        def mark(st):
            m = orig_mark(st)
            if m > tracer.peaks["search.trail_peak"]:
                tracer.peaks["search.trail_peak"] = m
            return m

        self._patch(prop, "min_over_box_pinned", min_over_box_pinned)
        self._patch(prop, "min_over_box", min_over_box)
        self._patch(prop, "raw_cost", raw_cost_wrapper(prop.raw_cost))
        self._patch(search, "raw_cost", raw_cost_wrapper(search.raw_cost))
        self._patch(prop.PropState, "undo_to", undo_to)
        self._patch(prop.PropState, "mark", mark)
        self._patch(search, "PropState", self._state_class(search.PropState))
        self._patch(search, "resume_bounds", self._span_wrapper("resume", search.resume_bounds))
        self._patch(search, "resume_values", self._span_wrapper("resume", search.resume_values))
        self._patch(cli, "PropState", self._state_class(cli.PropState))
        self._patch(cli, "parse_path", self._parse_path_wrapper(cli.parse_path))
        self._patch(cli, "search_solve", self._span_wrapper("solve", cli.search_solve, self.note_result))
        self._patch(softbounds.fileformat, "Instance", self._span_wrapper("validate", softbounds.fileformat.Instance))
        enforcers = cli.ENFORCERS
        for name in list(enforcers):
            self._patch_item(enforcers, name, self._span_wrapper("enforce." + name, enforcers[name]))

    def _patch_item(self, mapping: dict, key: str, wrapper) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def _parse_path_wrapper(self, orig):
        def parse_path(path):
            idx = self.begin("parse")
            try:
                inst = orig(path)
            finally:
                self.end(idx)
            with open(path, "r", encoding="utf-8") as fh:
                self.counts["fileformat.lines"] += sum(1 for _ in fh)
            return inst

        return parse_path

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- export -----------------------------------------------------------

    def export(self) -> dict:
        return {
            "spans": [
                {
                    "name": s[0],
                    "start_ns": s[1],
                    "end_ns": s[2],
                    "parent": s[3],
                    "job": s[4],
                    "covered_ns": s[5],
                }
                for s in self.spans
            ],
            "counts": dict(self.counts),
            "ns": dict(self.ns),
            "peaks": dict(self.peaks),
        }
