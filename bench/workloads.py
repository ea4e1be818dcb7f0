"""The benchmark's three workloads: what each runs and how its output is named.

Every workload calls the program through module attributes, so the
wrappers of ``tracing.install`` see each call.  The program's inputs are
the same for every seed: the regions are fixed by the construction, and
the sampled program calls take fixed seeds, so that every run does the
same exact work.  ``--seed`` drives the benchmark's own re-check samples
(see ``output_checks``).
"""

from __future__ import annotations

import hashlib
import json

MAX_EVENTS = 10**6
MAX_ITER = 10**6
CONJUGACY_SAMPLES = 1000
CONJUGACY_SEED = 6  # the seeds `dodeca verify` uses by default
CROSS_SAMPLES = 120
CROSS_SEED = 9
PERIOD_BOUND = 2000
WITNESS_STEPS = 10**4
WITNESS_DEPTH = 8


class Context:
    """The set-up every workload shares: the table, T' and the similarity."""

    def __init__(self):
        from dodeca import selfsim, table

        self.table, self.w = table.build_table()
        self.sim = selfsim.build_similarity(self.w, MAX_ITER)


def run_partition_z14(ctx):
    from dodeca import search

    rs = search.first_return_map(ctx.w, ctx.sim.Z14, MAX_EVENTS)
    report = search.verify_partition(
        ctx.w,
        rs.domain,
        label="z14",
        max_events=MAX_EVENTS,
        max_iter=MAX_ITER,
        return_system=rs,
    )
    return {"rs": rs, "report": report}


def run_return_level3(ctx):
    from dodeca import search

    domain = ctx.sim.Z14.transformed(ctx.sim.gamma1)
    rs = search.first_return_map(ctx.w, domain, MAX_EVENTS)
    tubes = [search.return_tube(ctx.w, piece) for piece in rs.pieces]
    return {"rs": rs, "tubes": tubes}


def run_orbits(ctx):
    from dodeca import periods, search, selfsim

    w, s = ctx.w, ctx.sim
    rs4 = search.first_return_map(w, s.Z4, MAX_EVENTS)
    rs14 = search.first_return_map(w, s.Z14, MAX_EVENTS)
    rsx = search.first_return_map(w, s.X, MAX_EVENTS)
    conj = selfsim.verify_conjugacy(
        w,
        s,
        rs4,
        rs14,
        rsx,
        samples=CONJUGACY_SAMPLES,
        seed=CONJUGACY_SEED,
        max_iter=MAX_ITER,
    )
    witness = selfsim.aperiodic_witness(
        w, s, steps=WITNESS_STEPS, depth=WITNESS_DEPTH, verify_spiral=WITNESS_DEPTH
    )
    pset = periods.full_period_set(PERIOD_BOUND)
    components = [s.w2, s.w3, s.w4, s.g1w4]
    cv = periods.cross_validate(
        w,
        PERIOD_BOUND,
        components=components,
        samples=CROSS_SAMPLES,
        seed=CROSS_SEED,
    )
    return {
        "conjugacy": conj,
        "witness": witness,
        "period_set": pset,
        "cross_validation": cv,
        "components": components,
    }


# -- canonical output: the regions, the digest and the largest integer --------------


def _coord_text(v, bits):
    a, b = v.a, v.b
    bits[0] = max(
        bits[0],
        a.numerator.bit_length(),
        a.denominator.bit_length(),
        b.numerator.bit_length(),
        b.denominator.bit_length(),
    )
    return f"{a}+{b}*s3"


def _region_text(region, bits):
    return ";".join(
        _coord_text(p.x, bits) + "," + _coord_text(p.y, bits) for p in region.vertices
    )


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical(name, out):
    """(sha256 of the canonical output, largest bit length, polygon count).

    The canonical output is the JSON of the program's own result objects
    plus every produced region as exact vertex literals, in output order.
    """
    h = hashlib.sha256()
    bits = [0]
    regions = []
    if name == "partition-z14":
        report = out["report"]
        h.update(_json_text(out["rs"].to_obj()).encode())
        h.update(_json_text(report.to_obj()).encode())
        for tube in report.green_tubes:
            regions.extend(tube)
        for pc in report.components:
            regions.extend(pc.tube)
    elif name == "return-level3":
        h.update(_json_text(out["rs"].to_obj()).encode())
        for tube in out["tubes"]:
            regions.extend(tube)
    else:
        h.update(_json_text(out["witness"].to_obj()).encode())
        h.update(_json_text(out["period_set"].to_obj()).encode())
        h.update(_json_text(out["conjugacy"].to_obj()).encode())
        h.update(_json_text(out["cross_validation"].to_obj()).encode())
        regions.extend(out["witness"].spiral)
    for region in regions:
        h.update(_region_text(region, bits).encode())
        h.update(b"\n")
    tube_polygons = len(regions) if name != "orbits" else 0
    return h.hexdigest(), bits[0], tube_polygons


class Workload:
    def __init__(self, name, run, ops):
        self.name = name
        self.run = run
        self.ops = ops  # program calls made per round


WORKLOADS = {
    "partition-z14": Workload("partition-z14", run_partition_z14, 2),
    "return-level3": Workload("return-level3", run_return_level3, 9),
    "orbits": Workload("orbits", run_orbits, 7),
}
