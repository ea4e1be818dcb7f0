"""Reference figures that are too slow to be benchmark workloads.

    python3 bench/figures.py verify            # one full `dodeca verify`
    python3 bench/figures.py level3-partition  # the level-3 partition by layer

``verify`` runs the whole acceptance battery in a child process and
reports its wall time and peak resident memory.  ``level3-partition``
runs the first-return system of the level-3 rocket and its exact tube
partition of Z' with the wrappers of ``tracing.py`` installed (no
profiler), and reports the time and calls of each wrapped function, the
peak cell count and the clips per subtracted polygon.  Each prints one
JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

import run


def figure_verify():
    env = dict(os.environ, PYTHONPATH=run.SRC)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dodeca.cli", "verify"],
        env=env,
        capture_output=True,
        text=True,
        timeout=3600,
    )
    wall = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "figure": "dodeca verify",
        "exit_code": proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": peak,
        "output": proc.stdout.strip().splitlines(),
    }


def figure_level3_partition():
    run.load_program()
    import tracing
    import workloads
    from dodeca import search

    ctx = workloads.Context()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    t0 = time.perf_counter()
    domain = ctx.sim.Z14.transformed(ctx.sim.gamma1)
    rs = search.first_return_map(ctx.w, domain, workloads.MAX_EVENTS)
    report = search.verify_partition(
        ctx.w,
        domain,
        label="level3",
        max_events=workloads.MAX_EVENTS,
        max_iter=workloads.MAX_ITER,
        return_system=rs,
    )
    wall = time.perf_counter() - t0
    tracer.unpatch()
    subtracts = tracer.calls("search.cellpool_subtract")
    return {
        "figure": "level-3 partition, traced",
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "components": report.n_components,
        "green_polygons": sum(len(t) for t in report.green_tubes),
        "red_polygons": sum(len(pc.tube) for pc in report.components),
        "cells_peak": tracer.cells_peak,
        "clips_per_polygon": tracer.edge("search.cellpool_subtract", "geom.clip_convex")
        / subtracts,
        "functions": {
            name: {"calls": st[0], "inclusive_s": st[1], "self_s": st[2]}
            for name, st in sorted(tracer.stats.items())
        },
    }


FIGURES = {"verify": figure_verify, "level3-partition": figure_level3_partition}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in FIGURES:
        print(f"usage: figures.py {{{','.join(FIGURES)}}}", file=sys.stderr)
        return 2
    print(json.dumps(FIGURES[argv[0]](), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
