import math
import random
from dataclasses import replace
from types import SimpleNamespace
from fractions import Fraction

import pytest

from dodeca.checks import Context, run_checks
from dodeca.errors import DomainError, GraneError, InconclusiveError
from dodeca.field import ONE, QS3, ZERO, qs3, qs3_parse
from dodeca.geom import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    AffMap,
    Line,
    Point,
    Region,
    area2_within,
    clear_points,
    float_interval,
    overlap_status,
    place,
    raw_point,
    split_region,
)
from dodeca import geom, selfsim
from dodeca.search import _walk_cycle, find_periodic_component, image_placement, return_tube
from dodeca.selfsim import (
    aperiodic_witness,
    contraction_ratios,
    match_return_systems,
    paired_first_returns,
    point_first_return,
    verify_conjugacy,
    visit_matrix,
)
from dodeca.table import ORIGIN, SourceTable


def test_contraction_ratios_exact(ctx):
    r1, r4 = contraction_ratios(ctx.wedge)
    assert r1 == qs3(7, -4)
    assert r4 == qs3(-3, 2)
    assert 0 < float(r1) < float(r4) < 1


def test_split_deep_rocket_through_centroid(sim):
    # at gamma_1^5(Z'_4) the floats of the coordinates cancel; a line through
    # the centroid and a vertex must still cut the hexagon in two
    rocket = sim.Z4
    for _ in range(5):
        rocket = rocket.transformed(sim.gamma1)
    c = rocket.centroid()
    for v in rocket.vertices:
        pieces = split_region(rocket, Line.through(c, v))
        assert len(pieces) == 2
        assert sum((p.area2() for p in pieces), ZERO) == rocket.area2()


def test_gamma_actions(ctx, sim):
    w = ctx.wedge
    assert sim.gamma1.apply(w.O[5]) == w.O[1]
    assert sim.gamma4.apply(w.O[5]) == w.O[4]
    assert sim.Z4.area2() == sim.ratio4 * sim.ratio4 * w.Zp.area2()
    assert sim.Z14.area2() == sim.ratio1 * sim.ratio1 * sim.Z4.area2()


def test_base_polygons_are_contracted_beads(ctx, sim):
    # the rockets' base arcs come from the contracted images of the bead
    # polygon centred at O_5, which are the components W_1 and W_4
    w = ctx.wedge
    bead = ctx.table.mirrored[3]
    comps = ctx.base_components()
    assert comps[1].region == bead.transformed(sim.gamma1)
    assert comps[4].region == bead.transformed(sim.gamma4)


def test_g1w4_period_37(sim):
    assert sim.g1w4.period == 37


def test_gammaX_maps_z4_to_x(sim):
    assert sim.Z4.transformed(sim.gammaX) == sim.X
    assert sim.gammaX.det() == sim.ratio1 * sim.ratio1
    assert overlap_status(sim.X, sim.Z4.convex_parts()) == "inside"


def test_x_bounded_by_three_periodic_components(ctx, sim):
    y2 = sim.g1w4.region.transformed(sim.pullback_map)
    walls = [sim.w3.region, sim.w2.region, y2]
    for wall in walls:
        assert overlap_status(sim.X, wall.convex_parts()) == "disjoint"
    pts = sim.X.vertices
    n = len(pts)
    for i in range(n):
        mid = Point((pts[i].x + pts[(i + 1) % n].x) / 2, (pts[i].y + pts[(i + 1) % n].y) / 2)
        assert any(wall.classify(mid) == "boundary" for wall in walls)


def test_y2_really_is_the_double_preimage(ctx, sim):
    # pushing Y2 forward two steps must land exactly on gamma_1(W_4)
    w = ctx.wedge
    y2 = sim.g1w4.region.transformed(sim.pullback_map)
    cur = y2
    for _ in range(2):
        assert w.in_closed_wedge(cur)
        i, cut = w.locate(SourceTable(cur), 0, ORIGIN)
        assert cut is None
        cur = cur.transformed(w.maps[i])
    assert cur == sim.g1w4.region


def test_conjugacy_sampled(ctx, sim):
    report = verify_conjugacy(
        ctx.wedge,
        sim,
        ctx.return_system("z4"),
        ctx.return_system("z14"),
        ctx.return_system("x"),
        samples=40,
        seed=5,
    )
    assert report.pieces_matched_z14 == 8
    assert report.pieces_matched_x == 8
    assert report.samples_checked >= 40


def test_conjugacy_pinned(ctx, sim, monkeypatch):
    # the report read before the sample points were built from raw
    # integers, and the points themselves: the same draws, each built as
    # the canonical QS3(Fraction(k, 512))
    drawn = []
    walk = selfsim.point_first_return

    def record(w, p, domain, max_iter):
        drawn.append(p)
        return walk(w, p, domain, max_iter)

    monkeypatch.setattr(selfsim, "point_first_return", record)
    report = verify_conjugacy(
        ctx.wedge,
        sim,
        ctx.return_system("z4"),
        ctx.return_system("z14"),
        ctx.return_system("x"),
        samples=200,
        seed=6,
    )
    assert report.to_obj() == {
        "pieces_matched_z14": 8,
        "pieces_matched_x": 8,
        "samples_checked": 200,
        "samples_skipped": 0,
    }
    assert drawn == _z4_samples(sim, 6, 200)


def test_conjugacy_rejects_wrong_map(ctx, sim):
    wrong = AffMap.homothety(ctx.wedge.apex, sim.ratio4)
    with pytest.raises(AssertionError):
        match_return_systems(
            ctx.return_system("z4"), ctx.return_system("z14"), wrong
        )


def _z4_samples(sim, seed, count):
    """Dyadic points interior to Z'_4, drawn as ``verify_conjugacy`` draws them."""
    rng = random.Random(seed)
    box = sim.Z4.float_bbox()
    starts = []
    while len(starts) < count:
        x = Fraction(rng.randint(int(box[0] * 512), int(box[2] * 512)), 512)
        y = Fraction(rng.randint(int(box[1] * 512), int(box[3] * 512)), 512)
        p = Point(QS3(x), QS3(y))
        if sim.Z4.classify(p) == INTERIOR:
            starts.append(p)
    return starts


def test_paired_walk_matches_the_separate_walks(ctx, sim):
    # one walk from gamma_X(p4) reads both returns that two
    # point_first_return walks read from gamma_X(p4) and gamma_1(p4)
    w = ctx.wedge
    times = []
    for p4 in _z4_samples(sim, 2027, 200):
        r4, _ = point_first_return(w, p4, sim.Z4)
        (rx, n_x), (r14, n14) = paired_first_returns(w, sim, p4, r4)
        assert (rx, n_x) == point_first_return(w, sim.gammaX.apply(p4), sim.X)
        assert (r14, n14) == point_first_return(w, sim.gamma1.apply(p4), sim.Z14)
        assert n_x == n14
        times.append(n_x)
    assert max(times) > 20


def _unfiltered_first_return(w, p, domain):
    """point_first_return on the unfiltered walk: every iterate becomes a
    ``Point`` and is classified."""
    for n, xp, xq, yp, yq, r, _ in w.raw_orbit(p, cap=10**5):
        q = raw_point(xp, xq, yp, yq, r)
        if domain.classify(q) == INTERIOR:
            return q, n


def test_interior_test_matches_classify_on_part_edges(ctx, sim):
    # raw points where the sign pass alone cannot decide: the vertices, the
    # edge midpoints and the midpoints of the triangulation's diagonals
    # (on a part edge, inside the domain), and small steps off them
    for domain in (sim.Z4, sim.Z14, sim.X):
        interior = selfsim._interior_test(domain)
        probes = list(domain.vertices)
        for part in domain.convex_parts():
            q = part.vertices
            probes += [(a + b).scaled(Fraction(1, 2)) for a, b in zip(q, q[1:] + q[:1])]
        e = QS3(Fraction(1, 10**5))
        probes += [p + Point(dx, dy) for p in probes for dx, dy in ((e, ZERO), (ZERO, -e))]
        seen = set()
        for p in probes:
            m, ((xp, xq, yp, yq),) = clear_points([p])
            got = interior(xp, xq, yp, yq, m)
            want = domain.classify(p)
            assert (got is not None) == (want == INTERIOR) and got in (None, p)
            seen.add(want)
        assert seen == {INTERIOR, BOUNDARY, EXTERIOR}


def test_filtered_walks_match_the_unfiltered_walk(ctx, sim, monkeypatch):
    # on the 1,000 samples verify_conjugacy draws at seed 6, the walks that
    # report only the landing steps and locate their iterates raw return
    # what every iterate classified returns, and _interior_test agrees with
    # classify on every iterate they test
    w = ctx.wedge
    tested = []
    real_interior_test = selfsim._interior_test

    def checked(domain):
        interior = real_interior_test(domain)

        def test(*raw):
            q = interior(*raw)
            p = raw_point(*raw)
            assert (q is not None) == (domain.classify(p) == INTERIOR)
            assert q is None or q == p
            tested.append(q is not None)
            return q

        return test

    monkeypatch.setattr(selfsim, "_interior_test", checked)
    for p4 in _z4_samples(sim, 6, 1000):
        r4, n4 = point_first_return(w, p4, sim.Z4)
        assert (r4, n4) == _unfiltered_first_return(w, p4, sim.Z4)
        px, p14 = sim.gammaX.apply(p4), sim.gamma1.apply(p4)
        assert paired_first_returns(w, sim, p4, r4) == (
            _unfiltered_first_return(w, px, sim.X),
            _unfiltered_first_return(w, p14, sim.Z14),
        )
    assert len(tested) == 8671 and sum(tested) == 3000


@pytest.mark.parametrize("field", ["gamma1", "gammaX"])
def test_conjugacy_rejects_a_corrupted_similarity(ctx, sim, field):
    # a small shift moves gamma_1(p4) or gamma_X(p4) off the other's
    # image under T'^2: the sampled squares fail, and so does the paired
    # walk's step-2 identity
    shift = AffMap.translation(Point(QS3(Fraction(1, 2**20)), ZERO))
    bad = replace(sim, **{field: shift.compose(getattr(sim, field))})
    w = ctx.wedge
    with pytest.raises(AssertionError):
        verify_conjugacy(
            w,
            bad,
            ctx.return_system("z4"),
            ctx.return_system("z14"),
            ctx.return_system("x"),
            samples=5,
            seed=5,
        )
    p4 = _z4_samples(sim, 2027, 1)[0]
    r4, _ = point_first_return(w, p4, sim.Z4)
    with pytest.raises(AssertionError, match="T'\\^2 gamma_X must be gamma_1"):
        paired_first_returns(w, bad, p4, r4)


def test_paired_walk_rejects_a_wrong_return(ctx, sim):
    # with the true maps, a wrong Z'_4 return fails the square at rx, and
    # Z'_4 in place of Z'_14 (it holds Z'_14, so the walk meets it earlier)
    # fails the square at r14
    w = ctx.wedge
    p4 = _z4_samples(sim, 2027, 1)[0]
    with pytest.raises(AssertionError, match="gamma_X must conjugate the returns"):
        paired_first_returns(w, sim, p4, p4)
    r4, _ = point_first_return(w, p4, sim.Z4)
    with pytest.raises(AssertionError, match="gamma_1 must conjugate the returns"):
        paired_first_returns(w, replace(sim, Z14=sim.Z4), p4, r4)


def test_paired_walk_cap_is_inconclusive(ctx, sim):
    # the longest X return, time 987: its own time as cap returns, one step
    # less runs the cap out
    w = ctx.wedge
    piece = max(ctx.return_system("x").pieces, key=lambda pc: pc.return_time)
    assert piece.return_time == 987
    px = piece.source.interior_point()
    p4 = sim.gammaX.inverse().apply(px)
    r4, _ = point_first_return(w, p4, sim.Z4)
    (rx, n_x), _ = paired_first_returns(w, sim, p4, r4, 987)
    assert (rx, n_x) == (piece.map.apply(px), 987)
    with pytest.raises(InconclusiveError, match="no return to X") as info:
        paired_first_returns(w, sim, p4, r4, 986)
    assert info.value.iterations == 986
    # a small Z'_14 that the walk does not reach runs the second cap out
    c, e = sim.Z14.interior_point(), QS3(Fraction(1, 10**6))
    small = Region.bounded([c, c + Point(e, ZERO), c + Point(ZERO, e)])
    with pytest.raises(InconclusiveError, match="no return to Z'_14") as info:
        paired_first_returns(w, replace(sim, Z14=small), p4, r4, 987)
    assert info.value.iterations == 987


def test_visit_matrix_rejects_the_wrong_map(ctx, sim):
    rs4, rs14 = ctx.return_system("z4"), ctx.return_system("z14")
    for g in (sim.gammaX, sim.gamma4):
        with pytest.raises(AssertionError, match="mapped source missing"):
            visit_matrix(rs4, rs14, g)


def test_visit_matrix_rejects_a_dropped_piece(ctx, sim):
    rs14 = ctx.return_system("z14")
    short = replace(rs14, pieces=rs14.pieces[1:])
    with pytest.raises(AssertionError, match="piece count"):
        visit_matrix(ctx.return_system("z4"), short, sim.gamma1)


def test_visit_matrix_obeys_the_cap(ctx, sim):
    rs4, rs14 = ctx.return_system("z4"), ctx.return_system("z14")
    w = visit_matrix(rs4, rs14, sim.gamma1, max_iter=979)
    assert sum(map(sum, w)) == 979
    with pytest.raises(InconclusiveError):
        visit_matrix(rs4, rs14, sim.gamma1, max_iter=978)


def test_full_measure_rejects_a_corrupted_return_time(ctx, monkeypatch):
    rs14 = ctx.return_system("z14")
    p = rs14.pieces[0]
    longer = replace(p, itinerary=p.itinerary + p.itinerary[-1:])
    bad = replace(rs14, pieces=(longer,) + rs14.pieces[1:])
    real = Context.return_system
    monkeypatch.setattr(
        Context,
        "return_system",
        lambda self, label: bad if label == "z14" else real(self, label),
    )
    res = run_checks(["full-measure"], ctx)[0]
    assert not res.ok
    assert "z14 return times must be Wᵀ times the z4 ones" in res.error


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            lambda wit: replace(wit, growth_factors=[1, *wit.growth_factors[1:]]),
            "every growth factor must be at least 2",
        ),
        (
            lambda wit: replace(wit, y=Point(wit.y.x + ONE, wit.y.y)),
            "y must be the fixed point of gamma_X",
        ),
    ],
    ids=["growth-factor-1", "y-off-the-fixed-point"],
)
def test_aperiodic_witness_rejects_a_corrupted_witness(ctx, monkeypatch, corrupt, message):
    # a witness that did not come from aperiodic_witness, as only the
    # check's own asserts can reject it
    real = Context.witness
    monkeypatch.setattr(Context, "witness", lambda self: corrupt(real(self)))
    res = run_checks(["aperiodic-witness"], ctx)[0]
    assert not res.ok
    assert res.error == message


def test_full_measure_matches_the_level3_towers(ctx, sim):
    # the tower reference for full-measure's closed form: the return times
    # and red areas read off the T' floors of the z4, z14 and level-3
    # return systems
    res = run_checks(["full-measure"], ctx)[0]
    assert res.ok, res.error
    d = res.details
    w = ctx.wedge
    lam2 = sim.ratio1 * sim.ratio1
    labels = ("z4", "z14", "level3")
    systems = [ctx.return_system(label) for label in labels]
    zp = w.Zp.area2()
    g = AffMap.identity()
    for rs, lv in zip(systems, d["levels"]):
        matched = match_return_systems(systems[0], rs, g)
        assert [q.return_time for q in matched] == lv["return_times"]
        green = sum((p.source.area2() * p.return_time for p in rs.pieces), ZERO)
        assert ONE - green / zp == qs3_parse(lv["total_red_fraction"])
        g = sim.gamma1.compose(g)

    floors = {
        label: [pol for p in rs.pieces for pol in return_tube(w, p)]
        for label, rs in zip(labels, systems)
    }

    def red_within(label, target):
        return target.area2() - area2_within(floors[label], target.convex_parts())

    # the two-ahead fractions, and the transport identity: a z4 tower floor
    # holds as much level-3 red as its source
    pieces = systems[0].pieces
    two_ahead = [qs3_parse(f) for f in d["two_ahead_fractions"]]
    for p, frac in zip(pieces, two_ahead):
        assert red_within("level3", p.source) == frac * p.source.area2()
    assert min(two_ahead) == qs3_parse(d["min_two_ahead_fraction"])
    for p, frac in zip(pieces[:2], two_ahead):
        tube = return_tube(w, p)
        for pol in (tube[len(tube) // 2], tube[-1]):
            assert red_within("level3", pol) == frac * p.source.area2()

    # the similarity ratio: level-3 red in Z'_14 is λ² times level-2 red in
    # Z'_4, whose closed form counts the z14 floors in Z'_4 by W's columns
    visits = [sum(col) for col in zip(*d["visit_matrix"])]
    green = sum((p.source.area2() * v for p, v in zip(pieces, visits)), ZERO)
    red2_in_z4 = sim.Z4.area2() - lam2 * green
    assert red_within("z14", sim.Z4) == red2_in_z4
    assert red_within("level3", sim.Z14) == lam2 * red2_in_z4


def test_witness_fixed_point_exact(ctx, sim):
    wit = ctx.witness()
    assert sim.gammaX.apply(wit.y) == wit.y
    assert wit.y == Point(
        QS3(Fraction(-4, 7), Fraction(6, 7)), QS3(Fraction(12, 7), Fraction(2, 7))
    )
    assert wit.boundary_hit is None
    assert wit.steps_checked == 10**4
    assert wit.period_lower_bound == 2**8


def test_witness_compares_only_after_the_return_piece(ctx, sim, monkeypatch):
    # y recurs only after a step from the piece of iota(y), alpha_3, which
    # takes 1,217 of the 10^4 steps of the replay: one compare each
    compares = []
    real = selfsim.raw_equals

    def counted(*args):
        compares.append(args)
        return real(*args)

    monkeypatch.setattr(selfsim, "raw_equals", counted)
    y = sim.gammaX.fixed_point()
    assert ctx.wedge.return_piece(y) == 3
    symbols = ctx.wedge.itinerary(y, 10**4).symbols
    wit = aperiodic_witness(ctx.wedge, sim, steps=10**4, depth=0, verify_spiral=0)
    assert wit.steps_checked == 10**4
    assert len(compares) == symbols.count(3) == 1217


def test_witness_spiral_growth(ctx):
    wit = ctx.witness()
    assert wit.spiral_tprime_periods == [1, 1, 37, 63, 20, 961, 1423, 754]
    assert wit.spiral_return_periods == [1, 1, 11, 11, 11, 297, 473, 220]
    assert all(f >= 2 for f in wit.growth_factors)


def test_witness_spiral_matches_the_component_search(ctx):
    # the search from an interior point finds each short spiral component
    # again, with the period the witness certified for it
    w = ctx.wedge
    wit = ctx.witness()
    short = [
        (reg, n) for reg, n in zip(wit.spiral, wit.spiral_tprime_periods) if n <= 63
    ]
    assert len(short) == 5
    for reg, n in short:
        comp = find_periodic_component(w, reg.interior_point())
        assert comp.region == reg
        assert comp.period == n


def test_return_period_places_regions_by_vertex_signs(ctx, sim, monkeypatch):
    w = ctx.wedge
    parts = sim.Z4.convex_parts()
    landing = w.landing(sim.Z4)
    assert landing == {1, 2, 3, 4}
    by_area = []
    placed_images = []
    real_area2_within = geom.area2_within
    real_image_placement = selfsim.image_placement

    def counted(polys, target_parts):
        by_area.extend(polys)
        return real_area2_within(polys, target_parts)

    def recorded(domain_parts):
        place_image = real_image_placement(domain_parts)

        def placed(table, l, t):
            placed_images.append((l, t))
            return place_image(table, l, t)

        return placed

    def area_status(pol):
        acc = real_area2_within([pol], parts)
        if acc.is_zero():
            return "disjoint"
        return "inside" if acc == pol.area2() else "straddle"

    monkeypatch.setattr(geom, "area2_within", counted)
    monkeypatch.setattr(selfsim, "image_placement", recorded)
    # the short spiral components: every image against its exact overlap
    # area, and the piece each image was stepped from, located again by
    # WedgeSystem.locate; an image stepped from a piece outside the landing
    # set misses Z'_4, and only the others are placed
    wit = ctx.witness()
    placed = fallbacks = skipped = 0
    for reg, visits in zip(wit.spiral[:5], wit.spiral_return_periods):
        _, rotation, _, _, table, motions = _walk_cycle(w, reg, 10**6)
        statuses = [area_status(table.region(l, t)) for l, t in motions]
        assert "straddle" not in statuses
        located = []
        for l, t in motions:
            i, cut = w.locate(table, l, t, located[-1] if located else None)
            assert cut is None
            located.append(i)
        came_from = located[-1:] + located[:-1]
        lands = [i in landing for i in came_from]
        assert all(s == "disjoint" for s, land in zip(statuses, lands) if not land)
        by_area.clear()
        placed_images.clear()
        got = selfsim._return_period(w, table, motions, rotation, sim.Z4)
        assert got == statuses.count("inside") == visits
        assert placed_images == [motion for motion, land in zip(motions, lands) if land]
        placed += len(placed_images)
        skipped += len(motions) - len(placed_images)
        fallbacks += len(by_area)
    assert placed + skipped == 122 and skipped > 0 and fallbacks < 10, (placed, fallbacks)

    def tri_at(c):
        e = Fraction(1, 10**4)
        return Region.bounded([Point(c.x + e, c.y), Point(c.x - e, c.y + e), Point(c.x - e, c.y - e)])

    # a one-image cycle whose step came from alpha_1 (turned by 30°*5):
    # a small triangle across an internal diagonal of Z'_4 is decided by area
    (a, b), *_ = (
        sorted(set(p.vertices) & set(q.vertices), key=Point.key)
        for i, p in enumerate(parts)
        for q in parts[i + 1 :]
        if len(set(p.vertices) & set(q.vertices)) == 2
    )
    across = tri_at((a + b).scaled(Fraction(1, 2)))
    m, raw = clear_points(across.vertices)
    signed = [place(m, raw, None, [(None, part.edge_lines())]) for part in parts]
    assert signed.count("unknown") == 2
    by_area.clear()
    assert selfsim._return_period(w, SourceTable(across), [(0, ORIGIN)], 5, sim.Z4) == 1
    assert by_area == [across]
    # stepped from alpha_5 (turned by 30°) it is not placed, and counts no visit
    placed_images.clear()
    assert selfsim._return_period(w, SourceTable(across), [(0, ORIGIN)], 1, sim.Z4) == 0
    assert placed_images == []
    # one across the boundary of Z'_4 straddles it
    with pytest.raises(AssertionError):
        selfsim._return_period(w, SourceTable(tri_at(sim.Z4.vertices[0])), [(0, ORIGIN)], 5, sim.Z4)


def test_image_placement_matches_overlap_status_on_the_spiral(ctx, sim):
    # at every image of the 8 spiral cycles the raw-image placement answers
    # as overlap_status on the built region, hands back the region it built
    # (only where the vertex signs leave it open), and the image's proven
    # box holds that region's float_bbox
    parts = sim.Z4.convex_parts()
    place_image = image_placement(parts)
    wit = ctx.witness()
    images = built = 0
    for reg, period in zip(wit.spiral, wit.spiral_tprime_periods):
        got_period, _, _, _, table, motions = _walk_cycle(ctx.wedge, reg, 10**6)
        assert got_period == period == len(motions)
        for l, t in motions:
            region = table.region(l, t)
            status, image = place_image(table, l, t)
            assert status == overlap_status(region, parts)
            assert image is None or image == region
            built += image is not None
            x0, y0, x1, y1 = table.image_box(l, t)
            b0, c0, b1, c1 = region.float_bbox()
            assert x0 <= b0 and y0 <= c0 and b1 <= x1 and c1 <= y1
        images += len(motions)
    assert images == 3260 and built < 40, built


def test_image_box_encloses_a_cancelling_source(sim):
    # gamma_1^k(Z'_4), k <= 7, whose floats cancel (see
    # test_float_interval_encloses_cancelling_coordinates), turned by every
    # l and shifted by a translation over r = 6: each exact vertex
    # coordinate lies in the image's proven box
    scale = 10**60
    s3_lo = Fraction(math.isqrt(3 * scale * scale), scale)
    s3_hi = s3_lo + Fraction(1, scale)

    def bounds(c):
        a, b = Fraction(c.p, c.r), Fraction(c.q, c.r)
        return sorted((a + b * s3_lo, a + b * s3_hi))

    rocket = sim.Z4
    t = (2, 1, 4, -2, 6)
    for _ in range(8):
        table = SourceTable(rocket)
        for l in range(12):
            x0, y0, x1, y1 = table.image_box(l, t)
            for v in table.region(l, t).vertices:
                (xl, xh), (yl, yh) = bounds(v.x), bounds(v.y)
                assert Fraction(x0) <= xl and xh <= Fraction(x1)
                assert Fraction(y0) <= yl and yh <= Fraction(y1)
        rocket = rocket.transformed(sim.gamma1)


def test_witness_rejects_non_contraction(ctx, sim):
    broken = replace(sim, gammaX=AffMap.identity())
    with pytest.raises(DomainError):
        aperiodic_witness(ctx.wedge, broken, steps=10, depth=1, verify_spiral=0)


def test_point_first_return_matches_return_system(ctx, sim):
    w = ctx.wedge
    for label in ("z4", "z14", "x"):
        rs = ctx.return_system(label)
        for piece in rs.pieces:
            p = piece.source.interior_point()
            ret, n = point_first_return(w, p, rs.domain)
            assert n == piece.return_time
            assert ret == piece.map.apply(p)


def test_point_first_return_cap_is_inconclusive(ctx, sim):
    # the longest z4 return: its own time as cap returns, one step less
    # runs the cap out, which is inconclusive, not a domain error
    w = ctx.wedge
    piece = max(ctx.return_system("z4").pieces, key=lambda pc: pc.return_time)
    assert piece.return_time == 53
    p = piece.source.interior_point()
    assert point_first_return(w, p, sim.Z4, 53) == (piece.map.apply(p), 53)
    with pytest.raises(InconclusiveError) as info:
        point_first_return(w, p, sim.Z4, 52)
    assert info.value.iterations == 52


def _reference_first_return(w, p, domain):
    """point_first_return by piece_index, maps[i].apply and classify per iterate."""
    q = p
    for n in range(1, 10**5):
        i = w.piece_index(q)
        q = w.maps[i].apply(q)
        if domain.classify(q) == INTERIOR:
            return q, n
    raise AssertionError("no return")


def _return_outcome(fn, w, p, domain):
    try:
        return fn(w, p, domain)
    except GraneError as exc:
        return "grane", exc.index, exc.point


def test_point_first_return_matches_reference_loop(ctx, sim):
    w = ctx.wedge
    times = []
    for p in _z4_samples(sim, 412, 50):
        for g, domain in ((None, sim.Z4), (sim.gammaX, sim.X), (sim.gamma1, sim.Z14)):
            q = p if g is None else g.apply(p)
            want = _return_outcome(_reference_first_return, w, q, domain)
            assert _return_outcome(point_first_return, w, q, domain) == want
            if want[0] != "grane":
                times.append(want[1])
    assert max(times) > 20  # long returns pass many screened-out iterates


def test_float_interval_encloses_cancelling_coordinates(sim):
    # gamma_1^k(Z'_4) for k <= 7: float(a + b*s3) cancels (see field.py),
    # yet every vertex coordinate's enclosure must hold the exact value, and
    # meet the domain's box, as point_first_return must never screen out a
    # BOUNDARY point
    scale = 10**60
    s3_lo = Fraction(math.isqrt(3 * scale * scale), scale)
    s3_hi = s3_lo + Fraction(1, scale)
    rocket = sim.Z4
    for k in range(8):
        x0, y0, x1, y1 = rocket.float_bbox()
        for v in rocket.vertices:
            assert rocket.classify(v) == BOUNDARY
            for c, box_lo, box_hi in ((v.x, x0, x1), (v.y, y0, y1)):
                lo, hi = float_interval(c.p, c.q, c.r)
                a, b = Fraction(c.p, c.r), Fraction(c.q, c.r)
                low, high = sorted((a + b * s3_lo, a + b * s3_hi))
                assert Fraction(lo) <= low and high <= Fraction(hi), (k, c)
                assert lo <= box_hi and hi >= box_lo
        rocket = rocket.transformed(sim.gamma1)
