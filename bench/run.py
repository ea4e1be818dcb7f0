"""Benchmark of the exact engine: one workload per run, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload partition-z14 --seed 1 --seconds 10 --trace 0

The run imports the package from ``src/`` of the checkout, measures set-up
in fresh interpreter processes, then repeats whole rounds of the workload
until ``--seconds`` of round time have passed.  Times are scaled to a
reference host speed sampled while they are measured (``speed.py``).  The first round's output
is checked against the independent reference; later rounds must give the
same digest.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "dodeca")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7

# time each fresh process needs for the import and the shared construction,
# scaled by the host speed sampled in that process while it works
_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import speed
with speed.SpeedProbe(interval=0.01) as sp:
    t0 = time.perf_counter()
    import dodeca
    from dodeca.selfsim import build_similarity
    from dodeca.table import build_table
    _, w = build_table()
    build_similarity(w, 10**6)
    t1 = time.perf_counter()
print((t1 - t0 - sp.busy_s()) * sp.scale())
"""


def load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise SystemExit(f"no package to measure: {PACKAGE_DIR} is missing")
    sys.path.insert(0, SRC)
    import dodeca

    where = os.path.realpath(os.path.dirname(dodeca.__file__))
    if where != os.path.realpath(PACKAGE_DIR):
        raise SystemExit(f"imported dodeca from {where}, not from this checkout")


def probe_setup() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, SRC, BENCH_DIR],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def per_layer_metrics(tracer, profile_self, rounds, scale, bits, tube_polygons, traced_run_s):
    """Per-round counts, and per-round times scaled like run_s."""
    import tracing

    def per_round(x):
        return x / rounds

    subtracts = tracer.calls("search.cellpool_subtract")
    clips_in_pool = tracer.edge("search.cellpool_subtract", "geom.clip_convex")
    m = {}

    def count(name, value):
        m[name] = {"value": value, "unit": "count"}

    def secs(name, value):
        m[name] = {"value": value * scale, "unit": "s"}

    count("search.cellpool_subtract_calls", per_round(subtracts))
    secs("search.cellpool_subtract_s", per_round(tracer.seconds("search.cellpool_subtract")))
    count("search.cellpool_cells_peak", tracer.cells_peak)
    m["search.cellpool_clips_per_polygon"] = {
        "value": clips_in_pool / subtracts if subtracts else 0.0,
        "unit": "ratio",
    }
    count("search.find_component_calls", per_round(tracer.calls("search.find_component")))
    secs("search.find_component_s", per_round(tracer.seconds("search.find_component")))
    secs("search.first_return_s", per_round(tracer.seconds("search.first_return")))
    count(
        "search.first_return_fragments",
        per_round(tracer.edge("search.first_return", "geom.overlap_status")),
    )
    secs("search.return_tube_s", per_round(tracer.seconds("search.return_tube")))
    count("search.tube_polygons", tube_polygons)
    for fn in ("split_region", "transformed", "overlap_status", "clip_convex", "classify"):
        count(f"geom.{fn}_calls", per_round(tracer.calls(f"geom.{fn}")))
        secs(f"geom.{fn}_s", per_round(tracer.seconds(f"geom.{fn}")))
    for fn in ("step", "piece_index", "restrict_to_piece"):
        count(f"table.{fn}_calls", per_round(tracer.calls(f"table.{fn}")))
        secs(f"table.{fn}_s", per_round(tracer.seconds(f"table.{fn}")))
    secs("selfsim.verify_conjugacy_s", per_round(tracer.seconds("selfsim.verify_conjugacy")))
    count(
        "selfsim.point_first_return_calls",
        per_round(tracer.calls("selfsim.point_first_return")),
    )
    secs("selfsim.aperiodic_witness_s", per_round(tracer.seconds("selfsim.aperiodic_witness")))
    secs("periods.full_period_set_s", per_round(tracer.seconds("periods.full_period_set")))
    secs("periods.cross_validate_s", per_round(tracer.seconds("periods.cross_validate")))
    for mod in tracing.MODULES:
        secs(f"{mod}.self_s", per_round(profile_self[mod]))
    m["field.max_bits"] = {"value": bits, "unit": "bits"}
    m["trace.run_s"] = {"value": traced_run_s, "unit": "s"}
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        print("refusing to run under python -O: checks must not be stripped", file=sys.stderr)
        return 2
    load_program()
    import output_checks
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    probes = [probe_setup() for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(probes)
    ctx = workloads.Context()
    rng = random.Random(args.seed)

    tracer = profile = None
    if args.trace:
        tracer = tracing.Tracer()
        profile = tracing.ModuleProfile(PACKAGE_DIR)
        slowdown = speed.profiler_slowdown()

    rounds = []  # scaled to the reference host
    raw_rounds = []
    scales = []
    attempted = failed = 0
    correct = True
    check_info = {}
    digest = bits = tube_polygons = None
    while True:
        gc.collect()
        if tracer is not None:
            tracer.round = len(rounds)
            tracing.install(tracer)
            with speed.SpeedProbe() as sp, profile:
                t0 = time.perf_counter()
                out = wl.run(ctx)
                t1 = time.perf_counter()
            tracer.unpatch()
        else:
            with speed.SpeedProbe() as sp:
                t0 = time.perf_counter()
                out = wl.run(ctx)
                t1 = time.perf_counter()
        raw_rounds.append(t1 - t0 - sp.busy_s())
        scales.append(sp.scale() * (slowdown if tracer is not None else 1.0))
        rounds.append(raw_rounds[-1] * scales[-1])
        attempted += wl.ops
        this_digest, this_bits, this_polygons = workloads.canonical(wl.name, out)
        if digest is None:
            digest, bits, tube_polygons = this_digest, this_bits, this_polygons
            try:
                check_info = output_checks.CHECKS[wl.name](ctx, out, rng)
            except output_checks.CheckError as exc:
                correct = False
                print(f"check failed: {exc}", file=sys.stderr)
        elif this_digest != digest:
            correct = False
            print("check failed: a later round gave another output", file=sys.stderr)
        del out
        if sum(raw_rounds) >= args.seconds:
            break

    run_s = statistics.median(rounds)
    if tracer is not None:
        metrics = per_layer_metrics(
            tracer,
            profile.self_seconds(),
            len(rounds),
            statistics.fmean(scales),
            bits,
            tube_polygons,
            run_s,
        )
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(result)
    record.update(
        workload=wl.name,
        seed=args.seed,
        trace=args.trace,
        rounds_s=rounds,
        raw_rounds_s=raw_rounds,
        speed_scales=scales,
        setup_probes_s=probes,
        digest=digest,
        checks=check_info,
        python=sys.version.split()[0],
    )
    if tracer is not None:
        record["spans"] = tracer.span_records()
    path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)

    print(f"workload {wl.name} seed {args.seed} rounds {len(rounds)}")
    for name, mv in metrics.items():
        print(f"  {name} = {mv['value']:.6g} {mv['unit']}")
    print(f"attempted {attempted} failed {failed} correct {correct} checks {check_info}")
    print(f"digest {wl.name} sha256={digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
