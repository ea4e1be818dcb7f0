"""Spans and call counts around the program's public functions.

The program has no tracing of its own, so the benchmark wraps the public
functions of each module from outside: every wrapped call records its
inclusive and self time and the wrapped call that caused it.  Spans of the
outermost levels are kept in memory and written out when the benchmark
ends; deeper calls only add to the per-function totals.

Per-module self time comes from the standard-library profiler
(``cProfile`` with builtins folded into their callers), summed per source
file of the package.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time

SPAN_DEPTH = 2  # keep individual spans for this many outermost levels
SPAN_CAP = 20000


class Tracer:
    def __init__(self):
        self.stack = []  # [name, child_seconds, span_id]
        self.active = {}
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.edges = {}  # (parent name, name) -> calls
        self.spans = []  # (id, parent id, name, start, end, round)
        self.round = 0
        self.cells_peak = 0
        self._patched = []

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        stack, active, stats, edges, spans = (
            self.stack,
            self.active,
            self.stats,
            self.edges,
            self.spans,
        )
        stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            depth = len(stack)
            sid = None
            if depth < SPAN_DEPTH and len(spans) < SPAN_CAP:
                sid = len(spans)
                spans.append(None)
            frame = [name, 0.0, sid]
            stack.append(frame)
            outer = not active.get(name)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                active[name] -= 1
                st = stats[name]
                st[0] += 1
                if outer:
                    st[1] += dt
                st[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + 1
                if sid is not None:
                    pid = parent[2] if parent is not None else None
                    spans[sid] = (sid, pid, name, t0, t1, self.round)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None):
        """Replace owner.attr (a module function or a method) by a traced one."""
        orig = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, orig, after))
        self._patched.append((owner, attr, orig))

    def unpatch(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- reading -----------------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def edge(self, parent, name) -> int:
        return self.edges.get((parent, name), 0)

    def span_records(self):
        return [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4], "round": s[5]}
            for s in self.spans
            if s is not None
        ]


def install(tracer: Tracer):
    """Wrap the public functions of field..periods that the workloads reach.

    Functions imported by name into another module are wrapped in each
    namespace that calls them, under one metric name.
    """
    from dodeca import geom, periods, search, selfsim, table

    def cells_after(args, _result):
        pool = args[0]
        if len(pool.cells) > tracer.cells_peak:
            tracer.cells_peak = len(pool.cells)

    p = tracer.patch
    # geom
    p(search, "split_region", "geom.split_region")
    for mod in (geom, search, table):
        p(mod, "clip_convex", "geom.clip_convex")
    for mod in (search, selfsim):
        p(mod, "overlap_status", "geom.overlap_status")
    p(geom.Region, "transformed", "geom.transformed")
    p(geom.Region, "classify", "geom.classify")
    # table
    p(table.WedgeSystem, "step", "table.step")
    p(table.WedgeSystem, "piece_index", "table.piece_index")
    p(table.WedgeSystem, "restrict_to_piece", "table.restrict_to_piece")
    # search
    for mod in (search, selfsim):
        p(mod, "find_periodic_component", "search.find_component")
    p(search, "first_return_map", "search.first_return")
    p(search, "return_tube", "search.return_tube")
    p(search, "verify_partition", "search.verify_partition")
    p(search.CellPool, "subtract", "search.cellpool_subtract", after=cells_after)
    # selfsim
    p(selfsim, "verify_conjugacy", "selfsim.verify_conjugacy")
    p(selfsim, "point_first_return", "selfsim.point_first_return")
    p(selfsim, "aperiodic_witness", "selfsim.aperiodic_witness")
    # periods
    p(periods, "full_period_set", "periods.full_period_set")
    p(periods, "cross_validate", "periods.cross_validate")


MODULES = ("field", "geom", "table", "search", "selfsim", "periods")


class ModuleProfile:
    """cProfile self time summed per package module."""

    def __init__(self, package_dir: str):
        self.package_dir = os.path.realpath(package_dir)
        self.profile = cProfile.Profile(builtins=False)

    def __enter__(self):
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        return False

    def self_seconds(self) -> dict:
        out = {m: 0.0 for m in MODULES}
        stats = pstats.Stats(self.profile).stats
        for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.items():
            path = os.path.realpath(filename)
            if os.path.dirname(path) != self.package_dir:
                continue
            mod = os.path.splitext(os.path.basename(path))[0]
            if mod in out:
                out[mod] += tottime
        return out
