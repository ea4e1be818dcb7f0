import os
import random
import sys
from fractions import Fraction

import pytest

from dodeca.field import HALF, ONE, QS3, SQRT3_HALF, ZERO, pair_sign, qs3
from dodeca.geom import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    DIRECTIONS,
    AffMap,
    Line,
    Point,
    Region,
    _cycle_signed_area2,
    area2_within,
    clear_points,
    cleared_box,
    clip_convex,
    direction_position,
    intersect_convex,
    intersection_area2,
    overlap_status,
    place,
    region_from_json,
    region_to_json,
    split_convex,
    split_region,
)
from dodeca import geom
from dodeca.table import ROT


def P(x, y):
    return Point(qs3(Fraction(x)), qs3(Fraction(y)))


UNIT_SQUARE = Region.bounded([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
ELL = Region.bounded([P(0, 0), P(2, 0), P(2, 1), P(1, 1), P(1, 2), P(0, 2)])
TRIANGLE = Region.bounded([P(0, 0), P(1, 0), P(0, 1)])
HEXAGON = Region.bounded(
    [
        Point(ONE, ZERO),
        Point(HALF, SQRT3_HALF),
        Point(-HALF, SQRT3_HALF),
        Point(-ONE, ZERO),
        Point(-HALF, -SQRT3_HALF),
        Point(HALF, -SQRT3_HALF),
    ]
)
TURN_30 = ROT[1]
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _turn(k, center):
    """The turn by 30°*k about center."""
    return AffMap.translation(center).compose(ROT[k]).compose(AffMap.translation(-center))


def _pell_tiny(n=30):
    """(2 - s3)^n = p - q*s3: about 7e-18 at n = 30, from two terms near 7.2e16."""
    p, q = 1, 0
    for _ in range(n):
        p, q = 2 * p + 3 * q, p + 2 * q
    return QS3._make(p, -q, 1)


def first_quadrant_wedge():
    return Region.unbounded(Point(qs3(0), qs3(1)), [P(0, 0)], Point(qs3(1), qs3(0)))


def test_classify_square():
    assert UNIT_SQUARE.classify(P("1/2", "1/2")) == INTERIOR
    assert UNIT_SQUARE.classify(P(0, "1/2")) == BOUNDARY
    assert UNIT_SQUARE.classify(P(2, 0)) == EXTERIOR


def test_classify_wedge():
    w = first_quadrant_wedge()
    assert w.classify(P(5, 5)) == INTERIOR
    assert w.classify(P(5, 0)) == BOUNDARY
    assert w.classify(P(-1, 1)) == EXTERIOR


def test_split_square_by_vertical():
    line = Line(ONE, ZERO, qs3(Fraction(1, 2)))
    pieces = split_region(UNIT_SQUARE, line)
    assert len(pieces) == 2
    assert sorted(float(p.area2()) for p in pieces) == [1.0, 1.0]
    assert sum((p.area2() for p in pieces), ZERO) == UNIT_SQUARE.area2()


def test_classify_nonconvex():
    ell = ELL
    assert not ell.is_convex()
    assert ell.classify(P("3/2", "3/2")) == EXTERIOR  # in the notch
    assert ell.classify(P("3/2", 1)) == BOUNDARY  # on a reflex edge
    # on the extension of the reflex edge (2,1)-(1,1), inside the region
    assert ell.classify(P("1/2", 1)) == INTERIOR
    assert ell.classify(P(1, 1)) == BOUNDARY  # the reflex vertex
    assert ell.classify(P(0, 2)) == BOUNDARY


def _reference():
    sys.path.insert(0, BENCH)
    try:
        import reference
    finally:
        sys.path.remove(BENCH)
    return reference


def _probe_points(region, seed):
    """Vertices, edge midpoints, points on each edge line beyond either end,
    points at each vertex height on both sides, and seeded box samples."""
    pts = list(region.vertices)
    n = len(pts)
    x0, y0, x1, y1 = (Fraction(v) for v in region.float_bbox())
    dx = Point(QS3((x1 - x0) / 97), ZERO)
    out = []
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        out += [a, (a + b).scaled(Fraction(1, 2))]
        out += [b + (b - a).scaled(Fraction(1, 4)), a + (a - b).scaled(Fraction(1, 4))]
        out += [a - dx, a + dx]
    rng = random.Random(seed)
    for _ in range(200):
        fx, fy = Fraction(rng.randrange(1025), 1024), Fraction(rng.randrange(1025), 1024)
        out.append(Point(QS3(x0 + (x1 - x0) * fx), QS3(y0 + (y1 - y0) * fy)))
    return out


def test_classify_matches_reference(system, sim):
    ref = _reference()
    _, w = system
    want = {1: INTERIOR, 0: BOUNDARY, -1: EXTERIOR}
    for seed, region in enumerate([ELL, w.Zp, sim.Z4, sim.X]):
        poly = ref.poly_of(region)
        for p in _probe_points(region, seed):
            assert region.classify(p) == want[ref.locate(poly, ref.point_of(p))], p


def _reference_classify(region, p):
    """``Region.classify`` of a bounded region by its boundary alone: an
    even-odd crossing count with a rightward ray from p, half-open in y
    (edge i runs through vertices i -> i+1, interior on its left), and
    BOUNDARY where p lies on an edge."""
    pts = region.vertices
    sides = [ln.side(p) for ln in region.edge_lines()]
    py = p.y  # above[i] = sign(v_i.y - p.y); denominators are positive
    above = [
        pair_sign(v.y.p * py.r - py.p * v.y.r, v.y.q * py.r - py.q * v.y.r)
        for v in pts
    ]
    n = len(pts)
    inside = False
    for i in range(n):
        j = (i + 1) % n
        if sides[i] == 0 and above[i] * above[j] <= 0:
            # on the edge's line and in its y range (its x range if level)
            if (pts[i].x - p.x).sign() * (pts[j].x - p.x).sign() <= 0:
                return BOUNDARY
        if (above[i] > 0) != (above[j] > 0) and (sides[i] > 0) == (above[j] > 0):
            inside = not inside
    return INTERIOR if inside else EXTERIOR


def test_classify_matches_the_crossing_count(system, sim):
    # the sign pass over the convex parts, with its on-edge test, against
    # the crossing count: at every vertex and edge midpoint, at the
    # midpoint of every diagonal of the triangulation (on a part edge,
    # inside the region), a small step across every edge both ways, and
    # 2,000 seeded points in the box
    _, w = system
    rng = random.Random(37)
    regions = [w.Zp, sim.Z4, sim.Z14, sim.X, sim.Z14.transformed(sim.gamma1), w.Z]
    for region in regions:
        pts = region.vertices
        n = len(pts)
        edges = {frozenset((pts[i], pts[(i + 1) % n])) for i in range(n)}
        probes = list(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            mid = (a + b).scaled(Fraction(1, 2))
            step = Point(a.y - b.y, b.x - a.x).scaled(Fraction(1, 1000))
            probes += [mid, mid + step, mid - step]
        diagonals = set()
        for part in region.convex_parts():
            q = part.vertices
            for a, b in zip(q, q[1:] + q[:1]):
                if frozenset((a, b)) not in edges:
                    diagonals.add((a + b).scaled(Fraction(1, 2)))
        assert len(diagonals) == n - 3
        for mid in diagonals:
            m, ((xp, xq, yp, yq),) = clear_points([mid])
            assert geom.point_sign(region.convex_parts(), xp, xq, yp, yq, m) == 0
            assert region.classify(mid) == INTERIOR
        probes += diagonals
        x0, y0, x1, y1 = (Fraction(v) for v in region.float_bbox())
        for _ in range(2000):
            fx, fy = Fraction(rng.randrange(4097), 4096), Fraction(rng.randrange(4097), 4096)
            probes.append(Point(QS3(x0 + (x1 - x0) * fx), QS3(y0 + (y1 - y0) * fy)))
        seen = set()
        for p in probes:
            got = region.classify(p)
            assert got == _reference_classify(region, p), p
            seen.add(got)
        assert seen == {INTERIOR, BOUNDARY, EXTERIOR}


def test_classify_nonconvex_makes_no_division(sim, monkeypatch):
    region = Region(sim.Z4.vertices)  # a fresh copy: no cached lines
    assert not region.is_convex()
    pts = _probe_points(region, 4)

    def no_division(self, other):
        raise AssertionError("field division in Region.classify")

    monkeypatch.setattr(QS3, "__truediv__", no_division)
    seen = {region.classify(p) for p in pts}
    assert seen == {INTERIOR, BOUNDARY, EXTERIOR}


def test_split_square_by_missing_line():
    ell = ELL
    cases = [
        (UNIT_SQUARE, Line(ONE, ZERO, qs3(2))),  # x = 2
        (UNIT_SQUARE, Line(ONE, ONE, qs3(2))),  # support line at the vertex (1, 1)
        (ell, Line(ONE, ONE, qs3(Fraction(7, 2)))),  # crosses only the notch
    ]
    for region, line in cases:
        pieces = split_region(region, line)
        assert len(pieces) == 1
        assert pieces[0] is region


def test_split_wedge_by_diagonal():
    w = first_quadrant_wedge()
    line = Line(ONE, ONE, qs3(1))  # x + y = 1
    pieces = split_region(w, line)
    assert len(pieces) == 2
    bounded = [p for p in pieces if p.is_bounded]
    unbounded = [p for p in pieces if not p.is_bounded]
    assert len(bounded) == 1 and len(unbounded) == 1
    assert bounded[0].area2() == ONE
    tri = Region.bounded([P(0, 0), P(1, 0), P(0, 1)])
    assert bounded[0] == tri


def test_split_wedge_far_from_apex_keeps_both_rays():
    w = first_quadrant_wedge()
    line = Line(ONE, ONE, qs3(1))
    far = [p for p in split_region(w, line) if not p.is_bounded][0]
    assert far.classify(P(5, 5)) == INTERIOR
    assert far.classify(P("1/4", "1/4")) == EXTERIOR
    assert far.classify(P("1/2", "1/2")) == BOUNDARY


def test_apply_map_identity_and_rotation():
    assert UNIT_SQUARE.transformed(AffMap.identity()) == UNIT_SQUARE
    flip = AffMap.point_reflection(P(0, 0))
    image = UNIT_SQUARE.transformed(flip)
    assert image == Region.bounded([P(0, 0), P(-1, 0), P(-1, -1), P(0, -1)])


def test_apply_map_translation_of_wedge():
    w = first_quadrant_wedge()
    t = AffMap.translation(P(1, 0))
    image = w.transformed(t)
    assert not image.is_bounded
    assert image.vertices[0] == P(1, 0)
    assert image.entry_dir == w.entry_dir
    assert image.exit_dir == w.exit_dir


def test_region_equal_rotated_start():
    sq1 = Region.bounded([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    sq2 = Region.bounded([P(1, 1), P(0, 1), P(0, 0), P(1, 0)])
    assert sq1 == sq2
    assert sq1 != sq1.transformed(AffMap.translation(P(1, 0)))
    assert sq1 != first_quadrant_wedge()


def test_area_and_centroid():
    assert UNIT_SQUARE.area2() == qs3(2) and UNIT_SQUARE.centroid() == P("1/2", "1/2")
    tri = Region.bounded([P(0, 0), P(1, 0), P(0, 1)])
    assert tri.area2() == ONE and tri.centroid() == P("1/3", "1/3")
    with pytest.raises(ValueError):
        first_quadrant_wedge().area2()
    with pytest.raises(ValueError):
        first_quadrant_wedge().centroid()


def test_regular_12gon_area():
    # circumradius 2 -> area 3 R^2 = 12, exactly: doubled, 24
    from dodeca.field import HALF, SQRT3_HALF

    rot = AffMap(SQRT3_HALF, -HALF, HALF, SQRT3_HALF, ZERO, ZERO)
    pts = [P(2, 0)]
    for _ in range(11):
        pts.append(rot.apply(pts[-1]))
    gon = Region.bounded(pts)
    assert gon.area2() == qs3(24)
    assert gon.centroid() == P(0, 0)


def test_nonconvex_split_produces_components():
    # U-shape: splitting by a horizontal line separates the two prongs
    u = Region.bounded(
        [P(0, 0), P(3, 0), P(3, 2), P(2, 2), P(2, 1), P(1, 1), P(1, 2), P(0, 2)]
    )
    line = Line(ZERO, ONE, qs3(Fraction(3, 2)))  # y = 3/2
    pieces = split_region(u, line)
    assert len(pieces) == 3
    total = sum((p.area2() for p in pieces), ZERO)
    assert total == u.area2()
    above = [p for p in pieces if (p.centroid().y - qs3(Fraction(3, 2))).sign() > 0]
    assert len(above) == 2


def test_split_through_vertex():
    tri = Region.bounded([P(0, 0), P(2, 0), P(0, 2)])
    line = Line(ONE, -ONE, ZERO)  # x = y, passes through two boundary points
    pieces = split_region(tri, line)
    assert len(pieces) == 2
    assert sum((p.area2() for p in pieces), ZERO) == tri.area2()


def test_split_area_conservation_randomized():
    rng = random.Random(7)
    for _ in range(60):
        pts = []
        for _ in range(rng.randint(3, 7)):
            pts.append(P(rng.randint(-5, 5), rng.randint(-5, 5)))
        try:
            reg = Region.bounded(pts)
        except ValueError:
            continue
        if not reg.is_convex():
            continue  # random point sets may be non-simple
        line = Line(
            qs3(rng.randint(-3, 3)), qs3(rng.randint(-3, 3)), qs3(rng.randint(-4, 4))
        ) if rng.random() < 0.5 else None
        if line is None or (line.nx.is_zero() and line.ny.is_zero()):
            line = Line(ONE, ONE, qs3(1))
        try:
            pieces = split_region(reg, line)
        except ValueError:
            continue
        assert sum((p.area2() for p in pieces), ZERO) == reg.area2()


def test_isometry_preserves_area():
    rot = _turn(1, P(3, -2))
    assert rot.is_isometry()
    tri = Region.bounded([P(0, 0), P(5, 1), P(2, 4)])
    assert tri.transformed(rot).area2() == tri.area2()


def test_interior_maps_to_interior():
    rot = _turn(2, P(1, 1))
    tri = Region.bounded([P(0, 0), P(5, 1), P(2, 4)])
    p = P(2, 2)
    assert tri.classify(p) == INTERIOR
    assert tri.transformed(rot).classify(rot.apply(p)) == INTERIOR


def test_intersect_convex_regions():
    w = first_quadrant_wedge()
    inter = intersect_convex(UNIT_SQUARE, w)
    assert inter == UNIT_SQUARE
    shifted = UNIT_SQUARE.transformed(AffMap.translation(P("-1/2", "-1/2")))
    inter = intersect_convex(shifted, w)
    assert inter is not None and inter.area2() == qs3(Fraction(1, 2))
    far = UNIT_SQUARE.transformed(AffMap.translation(P(-5, -5)))
    assert intersect_convex(far, w) is None


def test_overlap_status():
    big = Region.bounded([P(0, 0), P(4, 0), P(4, 4), P(0, 4)])
    small = Region.bounded([P(1, 1), P(2, 1), P(2, 2), P(1, 2)])
    parts = big.convex_parts()
    assert overlap_status(small, parts) == "inside"
    outside = small.transformed(AffMap.translation(P(10, 0)))
    assert overlap_status(outside, parts) == "disjoint"
    straddle = small.transformed(AffMap.translation(P("5/2", 0)))
    assert overlap_status(straddle, parts) == "straddle"
    # touching along an edge counts as disjoint interiors
    touching = small.transformed(AffMap.translation(P(4, 0)))
    assert overlap_status(touching, parts) == "disjoint"


def _seeded_polys(rng, region, count):
    """Squares, L-shapes and triangles of random size and turn, placed
    around the vertices of a region."""
    out = []
    for _ in range(count):
        poly = rng.choice([UNIT_SQUARE, ELL, TRIANGLE])
        for _ in range(rng.randrange(12)):
            poly = poly.transformed(TURN_30)
        v = rng.choice(region.vertices)
        s = QS3(Fraction(rng.randint(1, 32), 32))
        dx, dy = (Fraction(rng.randint(-48, 48), 32) for _ in range(2))
        out.append(poly.transformed(AffMap(s, ZERO, ZERO, s, v.x + dx, v.y + dy)))
    return out


def test_area2_within_matches_clipping(ctx, sim):
    rng = random.Random(8)
    seen = set()
    w = ctx.wedge
    for target in (sim.Z4, w.alpha[6].transformed(w.maps[6])):
        parts = target.convex_parts()
        polys = _seeded_polys(rng, target, 60)
        total = ZERO
        for pol in polys:
            want = ZERO
            for part in parts:
                want = want + intersection_area2(pol, part)
            assert area2_within([pol], parts) == want
            total = total + want
            if want.is_zero():
                status = "disjoint"
            else:
                status = "inside" if want == pol.area2() else "straddle"
            assert overlap_status(pol, parts) == status
            seen.add(status)
        assert area2_within(polys, parts) == total
    assert seen == {"inside", "disjoint", "straddle"}


def _vertex_position(region, lines):
    """``place`` of a bounded region against one unboxed convex part."""
    return place(*clear_points(region.vertices), None, [(None, lines)])


def test_area2_within_clips_what_vertex_signs_leave_open():
    # every poly vertex is outside the part, but no edge line of the part
    # separates them: only a poly edge cuts the part off
    part = Region.bounded([P(0, 0), P(2, 0), P(1, 2)])
    over_apex = Region.bounded([P(-1, "3/2"), P(3, "3/2"), P(3, 3), P(-1, 3)])
    assert _vertex_position(over_apex, part.edge_lines()) == "unknown"
    assert area2_within([over_apex], [part]) == qs3(Fraction(1, 4))
    touching = Region.bounded([P(0, 2), P(2, 0), P(3, 3)])
    assert _vertex_position(touching, UNIT_SQUARE.edge_lines()) == "unknown"
    assert area2_within([touching], [UNIT_SQUARE]).is_zero()
    assert overlap_status(touching, [UNIT_SQUARE]) == "disjoint"


def _random_cuts(seed):
    """Random convex polygons in normal form with cut lines: lines through two
    random points (kind 0), a vertex and a random point (kind 1), or two
    vertices (kind 2), missing the polygon or not."""
    rng = random.Random(seed)

    def rand_point(lo, hi):
        return P(Fraction(rng.randint(lo, hi), 16), Fraction(rng.randint(lo, hi), 16))

    for _ in range(150):
        m = [QS3(Fraction(rng.randint(-32, 32), 16)) for _ in range(4)]
        if (m[0] * m[3] - m[1] * m[2]).sign() <= 0:
            continue
        shape = AffMap(*m, QS3(rng.randint(-3, 3)), QS3(rng.randint(-3, 3)))
        poly = rng.choice([TRIANGLE, UNIT_SQUARE, HEXAGON]).transformed(shape)
        pts = poly.vertices
        for kind in range(3):
            if kind == 0:
                a, b = rand_point(-64, 64), rand_point(-64, 64)
            elif kind == 1:
                a, b = rng.choice(pts), rand_point(-64, 64)
            else:
                a, b = rng.sample(pts, 2)
            if a != b:
                yield poly, Line.through(a, b)


def test_clip_convex_keeps_normal_form():
    # a cut of a convex polygon in normal form needs no renormalising
    through_vertex = 0
    for poly, line in _random_cuts(5):
        sides = [line.side(p) for p in poly.vertices]
        if min(sides) >= 0 or max(sides) <= 0:
            continue
        through_vertex += 0 in sides
        halves = [clip_convex(poly, line, keep) for keep in (+1, -1)]
        for half in halves:
            assert half.vertices == Region.bounded(half.vertices).vertices
            assert half.area2().sign() > 0
        assert halves[0].area2() + halves[1].area2() == poly.area2()
    assert through_vertex > 20


def _field_cross_point(a, b, sa, sb):
    """Where segment ab meets a line with values sa, sb at its ends, in field
    operations: the reference for the exact crossing kernel."""
    t = sa / (sa - sb)
    return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


def _field_clip(poly, line, keep):
    """Sutherland-Hodgman cut of a bounded convex polygon to keep*eval >= 0,
    in field operations: the polygon itself, None, or the new vertex list."""
    pts = poly.vertices
    n = len(pts)
    vals = [line.eval(p) for p in pts]
    sigs = [keep * v.sign() for v in vals]
    if min(sigs) >= 0:
        return poly if max(sigs) > 0 else None
    if max(sigs) <= 0:
        return None
    out = []
    for i in range(n):
        j = (i + 1) % n
        if sigs[i] >= 0:
            out.append(pts[i])
        if sigs[i] * sigs[j] < 0:
            out.append(_field_cross_point(pts[i], pts[j], vals[i], vals[j]))
    return out


def _scaled_cuts(sim):
    """Cuts of the convex parts of gamma1^k(Z'_4), k <= 15, and of a hexagon
    at a Z'_4 vertex under the same maps: lines through two vertices, a vertex
    and the centroid, the centroid and an edge midpoint, and a line beside
    the polygon.  At k = 15 the coordinates' numerators run to about 60 bits."""
    g = AffMap.identity()
    hexagon = HEXAGON.transformed(AffMap.translation(sim.Z4.vertices[0]))
    for _ in range(16):
        for poly in [hexagon.transformed(g)] + [
            part.transformed(g) for part in sim.Z4.convex_parts()
        ]:
            pts = poly.vertices
            c = poly.centroid()
            mid = (pts[1] + pts[2]).scaled(HALF)
            yield poly, Line.through(pts[0], pts[2])
            yield poly, Line.through(pts[1], c)
            yield poly, Line.through(c, mid)
            yield poly, Line.through(pts[0] + (pts[0] - c), pts[1] + (pts[1] - c))
        g = sim.gamma1.compose(g)


def test_clip_convex_matches_field_reference(sim):
    counts = {"miss": 0, "one vertex": 0, "two vertices": 0, "wide": 0}
    cuts = list(_random_cuts(5)) + list(_scaled_cuts(sim))
    for poly, line in cuts:
        sides = line.signs(poly.vertices)
        if min(sides) >= 0 or max(sides) <= 0:
            counts["miss"] += 1
        elif sides.count(0) == 1:
            counts["one vertex"] += 1
        elif sides.count(0) == 2:
            counts["two vertices"] += 1
        if max(abs(v.x.p).bit_length() for v in poly.vertices) > 55:
            counts["wide"] += 1
        halves = split_convex(poly, line)
        for keep, half in zip((+1, -1), halves):
            want = _field_clip(poly, line, keep)
            got = clip_convex(poly, line, keep)
            if want is None or want is poly:
                assert got is want and half is want
            else:
                assert got.vertices == half.vertices == tuple(want)
    assert min(counts.values()) >= 20, counts


def test_line_crossing_matches_field_formula(sim):
    rng = random.Random(24)
    cases = []
    for poly, line in list(_random_cuts(8)) + list(_scaled_cuts(sim)):
        pts = poly.vertices
        cases += [(line, a, b) for a, b in zip(pts, pts[1:] + pts[:1])]
    # unrelated denominators on the line and the points
    for _ in range(300):
        nx, ny, c = (_rand_entry(rng) for _ in range(3))
        if not (nx.is_zero() and ny.is_zero()):
            a, b = (Point(_rand_entry(rng), _rand_entry(rng)) for _ in range(2))
            cases.append((Line(nx, ny, c), a, b))
    crossed = wide = 0
    for line, a, b in cases:
        sa, sb = line.eval(a), line.eval(b)
        if sa.sign() * sb.sign() >= 0:
            continue
        want = _field_cross_point(a, b, sa, sb)
        assert line.crossing(a, b) == want
        assert line.crossing(b, a) == want
        assert line.eval(want).is_zero()
        crossed += 1
        wide += abs(a.x.p).bit_length() > 55
    assert crossed > 300 and wide > 10


def test_direction_position_places_vectors_among_the_24_directions():
    # positive multiples of direction j, with both parts nonzero and wide
    # (units (2 + s3)^k), sit at 2j; sums of two neighbours sit between
    # them, however lopsided, and so do the directions 1 degree off
    def times(d, p, q):  # (p + q*s3) * d
        x0, x1, y0, y1 = d
        return (p * x0 + 3 * q * x1, p * x1 + q * x0, p * y0 + 3 * q * y1, p * y1 + q * y0)

    unit = (1, 0)
    for _ in range(30):
        unit = (2 * unit[0] + 3 * unit[1], unit[0] + 2 * unit[1])
    for j, d in enumerate(DIRECTIONS):
        for p, q in ((1, 0), (3, 0), (0, 1), (2, 1), unit, (7, -4)):
            assert direction_position(*times(d, p, q)) == 2 * j
        e = DIRECTIONS[(j + 1) % 24]
        for (p, q), (r, s) in (((1, 0), (1, 0)), (unit, (1, 0)), ((1, 0), unit), ((0, 1), (5, 2))):
            v = [a + b for a, b in zip(times(d, p, q), times(e, r, s))]
            assert direction_position(*v) == 2 * j + 1
    # the normals of the diagonals of Z''s triangles (the diagonals run at
    # about 110.1 and 129.9 degrees), both ways
    assert direction_position(2, 2, 2, 0) == 3 and direction_position(-2, -2, -2, 0) == 27
    assert direction_position(1, 2, 2, 1) == 5 and direction_position(-1, -2, -2, -1) == 29


def test_split_region_of_convex_matches_field_reference(sim):
    for poly, line in list(_random_cuts(6)) + list(_scaled_cuts(sim)):
        want = [_field_clip(poly, line, keep) for keep in (+1, -1)]
        got = split_region(poly, line)
        assert [r.vertices for r in got] == [
            w.vertices if w is poly else tuple(w) for w in want if w is not None
        ]


def _cross_sum(pts):
    total = ZERO
    for i in range(len(pts)):
        total = total + pts[i].cross(pts[(i + 1) % len(pts)])
    return total


def test_cycle_area_matches_cross_sum(sim):
    rng = random.Random(23)
    cycles = [ELL.vertices, sim.Z4.vertices, sim.X.vertices, HEXAGON.vertices]
    cycles += [poly.vertices for poly, _ in _scaled_cuts(sim)]
    for poly, line in _random_cuts(7):
        cycles.append(poly.vertices)
        half = clip_convex(poly, line, +1)
        if half is not None:
            cycles.append(half.vertices)
    # unnormalised cycles with unrelated denominators, either orientation
    for n in range(3, 9):
        for _ in range(5):
            cycles.append([Point(_rand_entry(rng), _rand_entry(rng)) for _ in range(n)])
    cycles += [[], [P(1, 2)]]
    assert max(v.x.r for cyc in cycles for v in cyc) > 10**6
    for pts in cycles:
        assert _cycle_signed_area2(pts) == _cross_sum(pts)
        if len(pts) >= 3 and Region(pts).is_convex():
            assert Region(pts).area2() == _cross_sum(pts)


def test_place_against_an_unbounded_part_and_a_missed_box(monkeypatch):
    # an unbounded part (the first-quadrant wedge) has no box: its edge
    # lines, entry and exit rays included, are signed whatever the
    # polygon's box, and the wedge's float_bbox refuses, as the box of its
    # vertex chain would not hold it
    wedge = first_quadrant_wedge()
    with pytest.raises(ValueError):
        wedge.float_bbox()
    unboxed = [(None, wedge.edge_lines())]

    def placed(poly, parts):
        m, raw = clear_points(poly.vertices)
        return place(m, raw, cleared_box(m, raw), parts)

    far = UNIT_SQUARE.transformed(AffMap.translation(P(50, 70)))
    assert placed(far, unboxed) == "inside"
    assert placed(UNIT_SQUARE, unboxed) == "inside"  # closed sides hold it
    assert placed(far.transformed(AffMap.translation(P(-60, 0))), unboxed) == "disjoint"
    assert placed(UNIT_SQUARE.transformed(AffMap.translation(P(-1, 0))), unboxed) == "disjoint"
    assert placed(UNIT_SQUARE.transformed(AffMap.translation(P("-1/2", 0))), unboxed) == "unknown"
    inner = TRIANGLE.transformed(AffMap.translation(P(3, 4)))
    assert _vertex_position(inner, wedge.edge_lines()) == "inside"
    # a part whose box misses the polygon's is skipped unsigned, and only
    # that part: the next one still decides
    box = UNIT_SQUARE.float_bbox()
    missed = (far.float_bbox(), far.edge_lines())
    assert placed(TRIANGLE, [missed, (box, UNIT_SQUARE.edge_lines())]) == "inside"
    assert placed(ELL, [missed, (box, UNIT_SQUARE.edge_lines())]) == "unknown"

    def refuse(*args):
        raise AssertionError("a part whose box misses was signed")

    monkeypatch.setattr(geom, "cutting_lines", refuse)
    assert placed(TRIANGLE, [missed]) == placed(ELL, [missed, missed]) == "disjoint"


def test_float_bbox_encloses_cancelling_coordinates():
    # float() of (2 - s3)^30 cancels its two terms to 0.0
    x = _pell_tiny()
    tri = Region.bounded([Point(x, ZERO), Point(x + 1, ZERO), Point(x, ONE)])
    x0, y0, x1, y1 = (QS3(Fraction(v)) for v in tri.float_bbox())
    for v in tri.vertices:
        assert x0 <= v.x <= x1 and y0 <= v.y <= y1


def test_intersection_area_nonconvex():
    u = Region.bounded(
        [P(0, 0), P(3, 0), P(3, 2), P(2, 2), P(2, 1), P(1, 1), P(1, 2), P(0, 2)]
    )
    band = Region.bounded([P(0, 1), P(3, 1), P(3, 2), P(0, 2)])
    # above y=1 the U-shape covers two 1x1 prongs
    assert intersection_area2(u, band) == qs3(4)


def test_triangulation_area():
    u = Region.bounded(
        [P(0, 0), P(3, 0), P(3, 2), P(2, 2), P(2, 1), P(1, 1), P(1, 2), P(0, 2)]
    )
    parts = u.convex_parts()
    assert parts is u.convex_parts()  # built once
    total = ZERO
    for part in parts:
        a, b, c = part.vertices
        total = total + (b - a).cross(c - a)
    assert total == u.area2()


def test_region_json_round_trip():
    for reg in [UNIT_SQUARE, first_quadrant_wedge()]:
        text = region_to_json(reg)
        back = region_from_json(text)
        assert reg == back
        assert reg.is_bounded == back.is_bounded


def test_region_equal_is_equivalence():
    sq = UNIT_SQUARE
    variants = [
        Region.bounded([P(0, 0), P(1, 0), P(1, 1), P(0, 1)]),
        Region.bounded([P(1, 1), P(0, 1), P(0, 0), P(1, 0)]),
        Region.bounded([P(0, 1), P(0, 0), P(1, 0), P(1, 1)]),
    ]
    others = [
        sq.transformed(AffMap.translation(P(2, 0))),
        Region.bounded([P(0, 0), P(2, 0), P(0, 2)]),
        first_quadrant_wedge(),
    ]
    family = variants + others
    for a in family:
        assert a == a
        for b in family:
            assert (a == b) == (b == a)
            for c in family:
                if a == b and b == c:
                    assert a == c
    assert all(sq == v for v in variants)
    assert not any(sq == o for o in others)


def test_clip_convex_wedge_keep_far_side():
    w = first_quadrant_wedge()
    line = Line(ONE, ONE, qs3(1))
    far = clip_convex(w, line, +1)
    near = clip_convex(w, line, -1)
    assert far is not None and not far.is_bounded
    assert near is not None and near.is_bounded
    assert near.area2() == ONE


def test_clip_strip_parallel_ray():
    # region between two parallel vertical rays, closed below
    strip = Region.unbounded(
        Point(qs3(0), qs3(1)), [P(0, 0), P(2, 0)], Point(qs3(0), qs3(1))
    )
    vline = Line(ONE, ZERO, qs3(1))  # x = 1
    left = clip_convex(strip, vline, -1)
    right = clip_convex(strip, vline, +1)
    assert left is not None and right is not None
    assert not left.is_bounded and not right.is_bounded
    assert left.classify(P("1/2", 5)) == INTERIOR
    assert right.classify(P("3/2", 5)) == INTERIOR
    hline = Line(ZERO, ONE, qs3(3))  # y = 3 cuts off a bounded rectangle
    low = clip_convex(strip, hline, -1)
    assert low is not None and low.is_bounded and low.area2() == qs3(12)
    high = clip_convex(strip, hline, +1)
    assert high is not None and not high.is_bounded


def test_fixed_point():
    rot = _turn(2, P(3, 7))
    assert rot.fixed_point() == P(3, 7)
    with pytest.raises(ValueError):
        AffMap.identity().fixed_point()


def test_affmap_compose_inverse():
    rot = _turn(1, P(1, 2))
    t = AffMap.translation(P(3, -1))
    m = rot.compose(t)
    ident = m.compose(m.inverse())
    assert ident == AffMap.identity()


def _rand_entry(rng):
    # non-lattice denominators, zero and negative parts included
    if rng.random() < 0.15:
        return ZERO
    return QS3._make(rng.randint(-99, 99), rng.randint(-99, 99), rng.randint(1, 50))


def test_line_kernel_matches_eval():
    rng = random.Random(22)
    tiny = _pell_tiny()
    zeros = cancelling = 0
    for _ in range(400):
        nx, ny, c = (_rand_entry(rng) for _ in range(3))
        if nx.is_zero() and ny.is_zero():
            continue
        ln = Line(nx, ny, c)
        pts = [Point(_rand_entry(rng), _rand_entry(rng)) for _ in range(4)]
        # points on the line, and pushed off it by multiples of tiny, so
        # that eval cancels terms of about 1e16 down to about 1e-17
        u = _rand_entry(rng)
        on = Point(c / nx - ny / nx * u, u) if not nx.is_zero() else Point(u, c / ny)
        pts.append(on)
        for k in (1, -3):
            pts.append(Point(on.x + tiny * k, on.y))
            pts.append(Point(on.x, on.y - tiny * k))
        want = [ln.eval(p).sign() for p in pts]
        assert ln.signs(pts) == want
        assert [ln.side(p) for p in pts] == want
        assert ln.signs([]) == []
        zeros += want.count(0)
        cancelling += sum(1 for v in pts[5:] if 0 < abs(ln.eval(v)) < Fraction(1, 10**12))
    assert zeros >= 380 and cancelling > 500


def test_affmap_kernels_match_operators():
    rng = random.Random(20)
    for _ in range(500):
        f = AffMap(*(_rand_entry(rng) for _ in range(6)))
        g = AffMap(*(_rand_entry(rng) for _ in range(6)))
        x, y = _rand_entry(rng), _rand_entry(rng)
        assert f.apply(Point(x, y)) == Point(
            f.m00 * x + f.m01 * y + f.tx, f.m10 * x + f.m11 * y + f.ty
        )
        assert f.apply_vec(Point(x, y)) == Point(f.m00 * x + f.m01 * y, f.m10 * x + f.m11 * y)
        cycle = [Point(_rand_entry(rng), _rand_entry(rng)) for _ in range(rng.randint(0, 7))]
        assert f.map_points(cycle) == [f.apply(p) for p in cycle]
        assert f.map_points(cycle, shift=False) == [f.apply_vec(p) for p in cycle]
        assert f.compose(g) == AffMap(
            f.m00 * g.m00 + f.m01 * g.m10,
            f.m00 * g.m01 + f.m01 * g.m11,
            f.m10 * g.m00 + f.m11 * g.m10,
            f.m10 * g.m01 + f.m11 * g.m11,
            f.m00 * g.tx + f.m01 * g.ty + f.tx,
            f.m10 * g.tx + f.m11 * g.ty + f.ty,
        )
        assert f.det_sign == f.det().sign()
        fg = f.compose(g)
        assert fg.det_sign == fg.det().sign()


def test_apply_normalises_once_per_coordinate(ctx, monkeypatch):
    w = ctx.wedge
    points = {i: w.alpha[i].interior_point() for i in range(1, 7)}
    make = QS3._make
    calls = []

    def counted(p, q, r):
        calls.append(1)
        return make(p, q, r)

    monkeypatch.setattr(QS3, "_make", staticmethod(counted))
    for i, p in points.items():
        calls.clear()
        w.maps[i].apply(p)
        assert len(calls) == 2, i
        calls.clear()
        w.maps[i].compose(w.maps[7 - i])
        assert len(calls) == 6, i


def test_region_needs_both_rays_or_neither():
    with pytest.raises(ValueError, match="together"):
        Region([P(0, 0)], entry_dir=P(1, 0))
    with pytest.raises(ValueError, match="together"):
        Region([P(0, 0)], exit_dir=P(0, 1))


def test_bounded_caches_area_of_stored_cycle():
    cw = Region.bounded([P(0, 0), P(0, 2), P(3, 2), P(3, 0)])
    assert cw._area == qs3(12)
    assert _cycle_signed_area2(cw.vertices) == cw._area
