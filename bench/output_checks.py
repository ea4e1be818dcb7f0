"""Independent checks of each workload's output.

Each check recomputes a property with the exact reference of
``reference.py`` (or compares with a value the paper publishes) and raises
``CheckError`` on any mismatch; none compares with a stored copy of an
earlier output.  Sampled checks draw their points from the run's seed.
"""

from __future__ import annotations

from fractions import Fraction

import reference as R
from reference import BoundaryHit, CheckError, require

# the T'-periods of the 20 complementary components of Z'_14 (README table)
PUBLISHED_Z14_PERIODS = sorted(
    [1, 1, 1, 1, 2, 2, 3, 3, 4, 18, 24, 32, 37, 42, 48, 54, 60, 85, 756, 1008]
)
# the gamma_X-fixed point y = (-4/7 + 6/7*sqrt3, 12/7 + 2/7*sqrt3)
PUBLISHED_Y = (
    (Fraction(-4, 7), Fraction(6, 7)),
    (Fraction(12, 7), Fraction(2, 7)),
)
LEVEL3_SHAPES = [3, 3, 4, 4, 4, 4, 4, 4]

PARTITION_POINTS = 40
SHORT_RETURN = 1500  # pieces returning within this many steps are sampled
SHORT_RETURN_POINTS = 2
TUBE_AREA_SAMPLES = 200
CONJUGACY_POINTS = 4
ORBIT_POINTS = 6
ORBIT_CAP = 1500
MAX_REDRAWS = 50


# -- shared helpers -----------------------------------------------------------------


def same_cycle(p, q) -> bool:
    return len(p) == len(q) and R.canonical_cycle(list(p)) == R.canonical_cycle(list(q))


def ccw(poly):
    return poly if R.sign(R.area2(poly)) > 0 else poly[::-1]


def rocket():
    """Z' rebuilt from the 12-gon: A_1 and vertices 2..6 of the table
    reflected through C_3, the crossing of side lines 1 and 5."""
    v = R.VERTS

    def side(i):
        return v[i % 12], v[(i + 1) % 12]

    (a, b), (c, d) = side(1), side(5)
    # a + t (b - a) on the line through c, d
    ab, cd = R.psub(b, a), R.psub(d, c)
    t = R.mul(R.cross(R.psub(c, a), cd), R.inv(R.cross(ab, cd)))
    c3 = (R.add(a[0], R.mul(t, ab[0])), R.add(a[1], R.mul(t, ab[1])))

    def mirror(k):
        base = v[(k + 6) % 12]
        return (R.add(base[0], R.add(c3[0], c3[0])), R.add(base[1], R.add(c3[1], c3[1])))

    return ccw([v[1]] + [mirror(k) for k in range(2, 7)])


def sample_point(poly, rng):
    return R.convex_sample(poly, rng) if R.is_convex(poly) else R.interior_sample(poly, rng)


# -- partition-z14 ---------------------------------------------------------------------


def check_partition(ctx, out, rng):
    report = out["report"]
    found = sorted(report.periods)
    require(
        found == PUBLISHED_Z14_PERIODS,
        f"component T'-periods {found} differ from the published multiset",
    )

    zp = rocket()
    require(same_cycle(R.poly_of(ctx.w.Zp), zp), "the program's Z' differs from the reference")
    polys = [R.poly_of(pol) for tube in report.green_tubes for pol in tube]
    n_green = len(polys)
    polys += [R.poly_of(pol) for pc in report.components for pol in pc.tube]
    total = R.ZERO
    for poly in polys:
        a2 = R.area2(poly)
        require(R.sign(a2) > 0, "a tube polygon has no positive area")
        total = R.add(total, a2)
    require(total == R.area2(zp), "green + red tube areas differ from the area of Z'")

    boxes = [R.float_box(poly) for poly in polys]
    located = 0
    for _ in range(PARTITION_POINTS * MAX_REDRAWS):
        if located == PARTITION_POINTS:
            break
        p = R.interior_sample(zp, rng)
        fx, fy = R.to_float(p[0]), R.to_float(p[1])
        hits = []
        for poly, (x0, y0, x1, y1) in zip(polys, boxes):
            if x0 - 1e-9 <= fx <= x1 + 1e-9 and y0 - 1e-9 <= fy <= y1 + 1e-9:
                hits.append(R.locate(poly, p))
        if 0 in hits:
            continue  # on a tube boundary: measure zero, draw again
        require(hits.count(1) == 1, f"a point of Z' lies in {hits.count(1)} tube polygons")
        located += 1
    require(located == PARTITION_POINTS, "too many sample points on tube boundaries")

    for pc in report.components:
        per_t = pc.periods.center_per_t
        n = R.least_period(R.point_of(pc.component.center), per_t)
        require(n == per_t, f"a component centre has T-period {n}, not {per_t}")
    return {
        "tube_polygons": len(polys),
        "green_polygons": n_green,
        "components": len(report.components),
        "points_located": located,
    }


# -- return-level3 -----------------------------------------------------------------------


def check_level3_system(ctx, rs, rng):
    """The level-3 return system against gamma_1 of the Z'_14 one."""
    from dodeca import search

    pieces = rs.pieces
    sources = [R.poly_of(p.source) for p in pieces]
    shapes = sorted(len(s) for s in sources)
    require(shapes == LEVEL3_SHAPES, f"piece vertex counts {shapes}")
    nonconvex = sum(1 for s in sources if not R.is_convex(s))
    require(nonconvex == 1, f"{nonconvex} nonconvex pieces, expected 1")

    dom = R.poly_of(rs.domain)
    total = R.ZERO
    for s in sources:
        total = R.add(total, R.area2(s))
    require(total == R.area2(dom), "source areas do not sum to the domain area")

    g = R.map_of(ctx.sim.gamma1)
    apex = R.VERTS[1]
    require(R.apply(g, apex) == apex, "gamma_1 does not fix A_1")
    lin = g[0]
    require(lin[1] == R.ZERO and lin[2] == R.ZERO and lin[0] == lin[3], "gamma_1 is no homothety")
    g_inv = R.invert(g)

    rs14 = search.first_return_map(ctx.w, ctx.sim.Z14)
    require(
        same_cycle([R.apply(g, v) for v in R.poly_of(rs14.domain)], dom),
        "gamma_1 does not carry Z'_14 onto the level-3 domain",
    )
    by_source = {R.canonical_cycle(s): p for s, p in zip(sources, pieces)}
    require(len(rs14.pieces) == len(pieces), "piece counts differ from Z'_14")
    for p in rs14.pieces:
        img = R.canonical_cycle([R.apply(g, v) for v in R.poly_of(p.source)])
        q = by_source.get(img)
        require(q is not None, "gamma_1 of a Z'_14 source is no level-3 source")
        require(
            same_cycle([R.apply(g, v) for v in R.poly_of(p.target)], R.poly_of(q.target)),
            "gamma_1 of a Z'_14 target is not the level-3 target",
        )
        conj = R.compose(R.compose(g, R.map_of(p.map)), g_inv)
        require(conj == R.map_of(q.map), "a level-3 piece map is not the conjugated Z'_14 map")

    domain = R.Domain(dom)
    sampled = 0
    for piece, src in zip(pieces, sources):
        if piece.return_time > SHORT_RETURN:
            continue
        f = R.map_of(piece.map)
        done = 0
        for _ in range(MAX_REDRAWS):
            if done == SHORT_RETURN_POINTS:
                break
            p = sample_point(src, rng)
            try:
                n, q = domain.first_return(p, piece.return_time)
            except BoundaryHit:
                continue
            require(n == piece.return_time, f"a sample returns after {n}, not {piece.return_time}")
            require(q == R.apply(f, p), "a sample does not return to piece.map(p)")
            done += 1
        require(done == SHORT_RETURN_POINTS, "too many samples hit a boundary")
        sampled += done
    require(sampled > 0, "no short-return piece to sample")
    return {"pieces": len(pieces), "return_samples": sampled}


def check_level3_tubes(rs, tubes, rng):
    require(len(tubes) == len(rs.pieces), "one tube per return piece expected")
    total = sum(len(t) for t in tubes)
    times = sum(p.return_time for p in rs.pieces)
    require(total == times, f"{total} tube polygons, but the return times sum to {times}")
    for piece, tube in zip(rs.pieces, tubes):
        require(len(tube) == piece.return_time, "a tube length differs from its return time")
        require(
            same_cycle(R.poly_of(tube[0]), R.poly_of(piece.source)),
            "a tube does not start at its source",
        )
    flat = [(pol, piece) for piece, tube in zip(rs.pieces, tubes) for pol in tube]
    for _ in range(TUBE_AREA_SAMPLES):
        pol, piece = flat[rng.randrange(len(flat))]
        require(
            R.area2(R.poly_of(pol)) == R.area2(R.poly_of(piece.source)),
            "a tube polygon's area differs from its source's",
        )
    return {"tube_polygons": total}


def check_level3(ctx, out, rng):
    info = check_level3_system(ctx, out["rs"], rng)
    info.update(check_level3_tubes(out["rs"], out["tubes"], rng))
    return info


# -- orbits ---------------------------------------------------------------------------------


def check_witness(ctx, wit):
    y = R.point_of(wit.y)
    require(y == PUBLISHED_Y, "the fixed point differs from the published y")
    require(R.apply(R.map_of(ctx.sim.gammaX), y) == y, "y is not fixed by gamma_X")
    require(wit.boundary_hit is None, "the witness orbit hit a boundary")
    n = R.least_period(y, wit.steps_checked)
    require(n is None, f"y returns under T after {n} steps")
    require(wit.nesting_depth >= 8, "nesting depth below 8")
    rp = wit.spiral_return_periods
    growth = [Fraction(rp[n], rp[n - 3]) for n in range(3, len(rp))]
    require(growth == list(wit.growth_factors), "growth factors do not follow the return periods")
    require(growth and all(f >= 2 for f in growth), "a spiral growth factor is below 2")
    return {"witness_steps": wit.steps_checked, "growth_factors": len(growth)}


def check_conjugacy_samples(ctx, conj, rng):
    from workloads import CONJUGACY_SAMPLES

    require(conj.pieces_matched_z14 == 8 and conj.pieces_matched_x == 8, "pieces unmatched")
    require(conj.samples_checked >= CONJUGACY_SAMPLES, "fewer conjugacy samples than asked")
    s = ctx.sim
    z4 = R.poly_of(s.Z4)
    d4, dx, d14 = R.Domain(z4), R.Domain(R.poly_of(s.X)), R.Domain(R.poly_of(s.Z14))
    gx, g1 = R.map_of(s.gammaX), R.map_of(s.gamma1)
    done = 0
    for _ in range(CONJUGACY_POINTS * MAX_REDRAWS):
        if done == CONJUGACY_POINTS:
            break
        p4 = R.interior_sample(z4, rng)
        try:
            n4, r4 = d4.first_return(p4, 10**4)
            nx, rx = dx.first_return(R.apply(gx, p4), 10**4)
            n14, r14 = d14.first_return(R.apply(g1, p4), 10**5)
        except BoundaryHit:
            continue
        require(None not in (n4, nx, n14), "a conjugacy sample does not return")
        require(R.apply(gx, r4) == rx, "gamma_X does not conjugate a sampled return")
        require(R.apply(g1, r4) == r14, "gamma_1 does not conjugate a sampled return")
        done += 1
    require(done == CONJUGACY_POINTS, "too many conjugacy samples hit a boundary")
    return {"conjugacy_rechecked": done}


def check_periods(ctx, out, rng):
    pset = out["period_set"]
    periods = set(pset.periods)
    found = set(out["cross_validation"].verified_periods)
    require(found <= periods, f"periods {sorted(found - periods)} are not in the period set")
    checked = 0
    for comp in out["components"]:
        n = R.least_period(R.point_of(comp.center), pset.bound)
        require(n is not None, "a component centre has no period within the bound")
        require(n in periods, f"component centre period {n} is not in the period set")
        checked += 1
    zp = rocket()
    for _ in range(ORBIT_POINTS):
        p = R.interior_sample(zp, rng)
        try:
            n = R.least_period(p, ORBIT_CAP)
        except BoundaryHit:
            continue
        if n is not None:
            require(n in periods, f"orbit period {n} is not in the period set")
            checked += 1
    return {"periods_checked": checked}


def check_orbits(ctx, out, rng):
    info = check_witness(ctx, out["witness"])
    info.update(check_conjugacy_samples(ctx, out["conjugacy"], rng))
    info.update(check_periods(ctx, out, rng))
    return info


CHECKS = {
    "partition-z14": check_partition,
    "return-level3": check_level3,
    "orbits": check_orbits,
}
