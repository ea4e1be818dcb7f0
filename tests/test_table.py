import random
from fractions import Fraction

import pytest

from dodeca import table
from dodeca.errors import DomainError, GraneError, InconclusiveError
from dodeca.field import ONE, QS3, SQRT3, ZERO, pair_sign, qs3
from dodeca.geom import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    AffMap,
    Point,
    Region,
    intersect_convex,
    raw_equals,
    raw_point,
)
from dodeca.selfsim import point_first_return
from dodeca.table import ORIGIN, ROT, SourceTable, build_table


@pytest.fixture(scope="module")
def system():
    return build_table()


def rand_frac(rng, lo, hi, den=16):
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


def wedge_point(w, rng, span=8):
    s = rand_frac(rng, 1, span * 16) / 16
    t = rand_frac(rng, 1, span * 16) / 16
    return w.apex + w.dir_p.scaled(s) + w.dir_q.scaled(t)


def cone_dirs(t, i):
    """Edge directions A_{i-1} - A_i and A_i - A_{i+1} bounding the sector of A_i."""
    a = t.vertices
    return a[i - 1] - a[i], a[i] - a[(i + 1) % 12]


def interior_points(region, rng, count, den=64):
    box = region.float_bbox()
    out = []
    while len(out) < count:
        x = Fraction(rng.randint(int(box[0] * den), int(box[2] * den)), den)
        y = Fraction(rng.randint(int(box[1] * den), int(box[3] * den)), den)
        p = Point(QS3(x), QS3(y))
        if region.classify(p) == INTERIOR:
            out.append(p)
    return out


def test_vertex_coordinates(system):
    t, _ = system
    assert t.vertices[0] == Point(qs3(2), qs3(0))
    assert t.vertices[1] == Point(SQRT3, ONE)
    assert t.vertices[3] == Point(qs3(0), qs3(2))


def test_named_point_identities(system):
    t, w = system
    assert w.P[1] == t.vertices[1]
    assert w.Q[2] == t.vertices[2]
    assert w.Q[5] == t.crossings[3]
    assert w.P[5] == t.mirror_vertex(3, 6)
    assert w.Q[6] == t.mirror_vertex(3, 1) == t.mirror_vertex(4, 6)


def test_exact_p_and_q_points(system):
    _, w = system
    third = Fraction(1, 3)
    assert w.P[2] == Point(QS3(1, third), QS3(1, third))
    assert w.P[3] == Point(QS3(Fraction(1, 2), Fraction(1, 2)), QS3(Fraction(3, 2), Fraction(1, 2)))
    assert w.P[4] == Point(qs3(1), QS3(2, 1))
    assert w.P[5] == Point(qs3(0), QS3(4, 2))
    assert w.Q[3] == Point(QS3(0, third), QS3(1, 2 * third))
    assert w.Q[4] == Point(qs3(0), QS3(1, 1))
    assert w.Q[5] == Point(qs3(-1), QS3(2, 1))
    assert w.Q[6] == Point(QS3(-2, -1), QS3(3, 2))


def test_mirror_gluing_identity(system):
    t, _ = system
    for i in range(12):
        assert t.mirror_vertex(i, 1) == t.mirror_vertex((i + 1) % 12, 6)


def test_mirrored_tables_are_translates(system):
    t, _ = system
    for i in range(12):
        c = t.crossings[i]
        shift = AffMap.translation(Point(c.x + c.x, c.y + c.y))
        assert t.mirrored[i] == t.polygon.transformed(shift)


def test_billiard_maps_mirrored_tables(system):
    t, _ = system
    for i in range(12):
        gon = t.mirrored[i]
        sample = gon.interior_point()
        _, j = t.step(sample)
        # the whole mirrored table lies in the closed tangent sector of A_j
        d_lo, d_hi = cone_dirs(t, j)
        for v in gon.vertices:
            rel = v - t.vertices[j]
            assert d_lo.cross(rel).sign() >= 0
            assert d_hi.cross(rel).sign() <= 0
        image = gon.transformed(AffMap.point_reflection(t.vertices[j]))
        assert image == t.mirrored[(i + 5) % 12]


def test_sector_tangency_oracle(system):
    t, _ = system
    rng = random.Random(91)
    checked = 0
    while checked < 300:
        p = Point(QS3(rand_frac(rng, -9, 9)), QS3(rand_frac(rng, -9, 9)))
        if t.polygon.classify(p) != EXTERIOR:
            continue
        try:
            i = t.sector_index(p)
        except GraneError:
            continue
        # supporting-vertex oracle: every vertex lies weakly to the left of
        # the ray p -> A_i, i.e. A_i is the clockwise-most visible vertex
        ray = t.vertices[i] - p
        assert all(ray.cross(v - p).sign() >= 0 for v in t.vertices)
        q, _ = t.step(p)
        assert q == Point(
            t.vertices[i].x * 2 - p.x, t.vertices[i].y * 2 - p.y
        )
        # T^-1 = sigma T sigma, through the mirrored vertex
        back, j = t.step(t.sigma.apply(q))
        assert t.sigma.apply(back) == p and -j % 12 == i
        checked += 1


def test_spec_sample_step(system):
    t, _ = system
    p = Point(SQRT3 + SQRT3, ZERO)
    i = t.sector_index(p)
    q, j = t.step(p)
    assert i == j
    a = t.vertices[i]
    assert q == Point(a.x * 2 - p.x, a.y * 2 - p.y)
    if i == 1:
        assert q == Point(qs3(0), qs3(2))


def test_step_rejects_table_and_boundaries(system):
    t, _ = system
    with pytest.raises(GraneError):
        t.step(Point(qs3(0), qs3(0)))
    with pytest.raises(GraneError):
        # on the boundary ray of a tangent sector
        a1, a2 = t.vertices[1], t.vertices[2]
        t.step(a1 + (a1 - a2).scaled(qs3(2)))


def test_rotational_equivariance(system):
    t, _ = system
    rng = random.Random(92)
    rot = ROT[1]
    checked = 0
    while checked < 200:
        p = Point(QS3(rand_frac(rng, -9, 9)), QS3(rand_frac(rng, -9, 9)))
        try:
            q, _ = t.step(p)
            q_rot, _ = t.step(rot.apply(p))
        except GraneError:
            continue
        assert q_rot == rot.apply(q)
        checked += 1


def test_piece_maps_match_billiard_fold(system):
    _, w = system
    rng = random.Random(93)
    checked = 0
    while checked < 400:
        p = wedge_point(w, rng)
        try:
            i = w.piece_index(p)
            direct, sym = w.step(p)
            # T' the long way: one step of T, then fold into the wedge
            oracle, m = w.fold_into_wedge(w.table.step(p)[0])
        except GraneError:
            continue
        assert sym == i
        assert direct == oracle
        assert m == (-i) % 12
        checked += 1


def test_piece_maps_are_isometries(system):
    _, w = system
    rng = random.Random(94)
    for i in range(1, 7):
        f = w.maps[i]
        assert f.is_isometry()
        for _ in range(50):
            x = wedge_point(w, rng)
            y = wedge_point(w, rng)
            assert (f.apply(x) - f.apply(y)).norm2() == (x - y).norm2()


def test_fixed_points(system):
    _, w = system
    for i in range(1, 6):
        o = w.O[i]
        assert w.piece_index(o) == i
        img, sym = w.step(o)
        assert sym == i and img == o


def test_no_other_fixed_points_sampled(system):
    _, w = system
    rng = random.Random(95)
    fixed = set(w.O[i] for i in range(1, 6))
    checked = 0
    while checked < 500:
        p = wedge_point(w, rng)
        try:
            q, _ = w.step(p)
        except GraneError:
            continue
        if p not in fixed:
            assert q != p
        checked += 1


def test_forward_backward_inverse(system):
    _, w = system
    rng = random.Random(96)
    checked = 0
    while checked < 300:
        p = wedge_point(w, rng)
        try:
            q, i = w.step(p)
            # T'^-1 = iota T' iota
            back, j = w.step(w.iota.apply(q))
        except GraneError:
            continue
        assert w.iota.apply(back) == p and i == j
        checked += 1


def test_invariance_of_rocket(system):
    _, w = system
    rng = random.Random(97)
    for p in interior_points(w.Zp, rng, 10**4):
        try:
            q, _ = w.step(p)
        except GraneError:
            continue
        assert w.Zp.classify(q) == INTERIOR


def test_sector_partition_unique(system):
    t, _ = system
    rng = random.Random(101)
    checked = 0
    while checked < 300:
        p = Point(QS3(rand_frac(rng, -9, 9)), QS3(rand_frac(rng, -9, 9)))
        if t.polygon.classify(p) != EXTERIOR:
            continue
        hits = []
        for i in range(12):
            v = p - t.vertices[i]
            d_lo, d_hi = cone_dirs(t, i)
            if d_lo.cross_sign(v) > 0 and d_hi.cross_sign(v) < 0:
                hits.append(i)
        try:
            i = t.sector_index(p)
            assert hits == [i]
        except GraneError:
            assert not hits
        checked += 1


def test_piece_errors(system):
    _, w = system
    with pytest.raises(DomainError):
        w.piece_index(Point(qs3(10), qs3(0)))
    with pytest.raises(GraneError):
        w.piece_index(w.apex)
    with pytest.raises(GraneError):
        # interior wedge point on splitting ray 1 (the segment P2 Q2)
        w.piece_index(Point((w.P[2].x + w.Q[2].x) / 2, (w.P[2].y + w.Q[2].y) / 2))


def _locate_source(w, region):
    """``w.locate`` of the region itself, the image (0, ORIGIN) of its table."""
    return w.locate(SourceTable(region), 0, ORIGIN)


def test_locate_regions(system):
    _, w = system
    for i in range(1, 5):
        assert w.in_closed_wedge(w.alpha[i])
        assert _locate_source(w, w.alpha[i]) == (i, None)
    eps = Fraction(1, 64)

    def tri(c):
        d = [w.dir_p, w.dir_q, -w.bisector_dir]
        return Region.bounded([c + v.scaled(eps) for v in d])

    for i, c in ((5, w.O[5]), (6, w.Q[6] + w.dir_p + w.dir_q)):
        assert w.in_closed_wedge(tri(c))
        assert _locate_source(w, tri(c)) == (i, None)


def test_locate_errors(system):
    _, w = system
    eps = Fraction(1, 64)
    mid = Point((w.P[2].x + w.Q[2].x) / 2, (w.P[2].y + w.Q[2].y) / 2)
    d = [w.dir_p, -w.dir_p, w.dir_q]
    across = Region.bounded([mid + v.scaled(eps) for v in d])
    # across the P2-Q2 boundary of alpha_1 and alpha_2
    assert w.in_closed_wedge(across)
    i, cut = _locate_source(w, across)
    assert i is None and cut is w.split_lines[0]
    outside = Region.bounded(
        [w.O[1], w.O[1] + w.dir_p.scaled(eps), w.apex - w.bisector_dir.scaled(eps)]
    )
    assert not w.in_closed_wedge(outside)  # one vertex behind the apex


def test_pieces_map_into_the_closed_wedge(system):
    # the lemma WedgeSystem asserts when it is built, on all six images;
    # the point reflection through the apex carries the wedge onto the
    # opposite cone, so it moves every image out of the closed wedge
    _, w = system
    out = AffMap.point_reflection(w.apex)
    for i in range(1, 7):
        img = w.alpha[i].transformed(w.maps[i])
        assert img == w.alpha[i].transformed(w.iota)
        assert img.is_bounded == (i <= 4)
        assert w.in_closed_wedge(img)
        assert not w.in_closed_wedge(img.transformed(out))
    # an unbounded region with its vertex in the wedge but a ray leaving it
    # (the wedge turns from its Q-ray at 135° to its P-ray at 105°; a ray
    # at 90° from O_5 crosses the P-ray)
    assert not w.in_closed_wedge(Region.unbounded(w.dir_q, [w.O[5]], Point(ZERO, ONE)))


def test_transition_graph(system):
    # the open image T'(alpha_i) meets alpha_i-1, alpha_i and alpha_i+1
    # alone, by exact clips: the neighbour fact the walks step by
    _, w = system
    for i in range(1, 7):
        assert w.images[i] == w.alpha[i].transformed(w.maps[i])
        met = {j for j in range(1, 7) if intersect_convex(w.images[i], w.alpha[j]) is not None}
        assert met == {j for j in (i - 1, i, i + 1) if 1 <= j <= 6}


def test_landing_sets(ctx):
    # the pieces a step into each return domain can come from, and the
    # same sets read as the pieces that iota(domain) meets
    w = ctx.wedge
    want = {"z4": {1, 2, 3, 4}, "z14": {1}, "level3": {1}, "x": {3}}
    for label, pieces in want.items():
        domain = ctx.domain(label)
        assert w.landing(domain) == pieces
        parts = domain.transformed(w.iota).convex_parts()
        met = {
            i
            for i, a in w.alpha.items()
            if any(intersect_convex(part, a) is not None for part in parts)
        }
        assert met == pieces
    # an unbounded domain: alpha_6 is reached from alpha_5 and alpha_6
    assert w.landing(w.alpha[6]) == {5, 6}


def _scan_piece_index(w, p):
    """piece_index by a linear scan of the wedge and split lines, on field
    signs, with the same failures: DomainError outside the wedge, else
    GraneError with the point, and the split line's index when on one."""
    wedge = [ln.eval(p).sign() for ln in w.wedge_lines]
    if min(wedge) < 0:
        raise DomainError("point outside the wedge")
    if min(wedge) == 0:
        raise GraneError("point on the wedge boundary", point=p)
    for k, ln in enumerate(w.split_lines, start=1):
        s = ln.eval(p).sign()
        if s > 0:
            return k
        if s == 0:
            raise GraneError("point on a piece boundary", index=k, point=p)
    return 6


def _scan_locate(w, region):
    """in_closed_wedge, then locate, by linear scans of the vertices' field
    signs."""
    pts = region.vertices
    if any(ln.eval(p).sign() < 0 for ln in w.wedge_lines for p in pts):
        raise GraneError("region leaves the wedge")
    for k, ln in enumerate(w.split_lines, start=1):
        sides = [ln.eval(p).sign() for p in pts]
        if max(sides) > 0:
            return (None, ln) if min(sides) < 0 else (k, None)
    return 6, None


def _locate(w, region):
    """What ``_scan_locate`` checks: in_closed_wedge, then locate on the
    region's own table (l = 0, t = 0)."""
    if not w.in_closed_wedge(region):
        raise GraneError("region leaves the wedge")
    return _locate_source(w, region)


def _check_in_piece(w, region, located):
    """``w.in_piece`` holds for the located piece alone, and for no piece
    when a line cuts the region."""
    table = SourceTable(region)
    held = [k for k in range(1, 7) if w.in_piece(table, 0, ORIGIN, k)]
    assert held == ([] if located[1] is not None else [located[0]])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GraneError as exc:
        return ("grane", exc.index)


def _spread_point(w, rng):
    """A wedge point near the apex, across the bounded pieces or far out in alpha_6."""
    scale = rng.choice((Fraction(1, 4), Fraction(2), Fraction(8)))
    s, t = (scale * Fraction(rng.randint(1, 64), 64) for _ in range(2))
    return w.apex + w.dir_p.scaled(s) + w.dir_q.scaled(t)


def _on_split_lines(w, params):
    """(k, p) for points p on each split line k inside the wedge: on the
    segment P_{k+1} Q_{k+1} at each parameter, and, for line 5, on the
    ray from Q_6 along the P-ray at 4 times it."""
    on_line = []
    for k in range(1, 6):
        for t in params:
            if k < 5:
                a, b = w.P[k + 1], w.Q[k + 1]
                on_line.append((k, a + (b - a).scaled(t)))
            else:
                on_line.append((k, w.Q[6] + w.dir_p.scaled(t * 4)))
    return on_line


def test_bisection_matches_linear_scan(system):
    _, w = system
    rng = random.Random(31)
    eps = Fraction(1, 40)
    on_line = _on_split_lines(w, (Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)))
    for k, p in on_line:
        assert w.split_lines[k - 1].eval(p).is_zero()
        assert _outcome(w.piece_index, p) == ("grane", k)
        assert _outcome(_scan_piece_index, w, p) == ("grane", k)
    # seeded points and small triangles in all six pieces
    points, regions = set(), set()
    for _ in range(400):
        p = _spread_point(w, rng)
        want = _outcome(_scan_piece_index, w, p)
        assert _outcome(w.piece_index, p) == want
        points.add(want)
        tri = Region.bounded([p, p + w.dir_p.scaled(eps), p + w.dir_q.scaled(eps)])
        want = _outcome(_scan_locate, w, tri)
        assert _outcome(_locate, w, tri) == want
        _check_in_piece(w, tri, want)
        regions.add(want[0])
    assert set(range(1, 7)) <= points and set(range(1, 7)) <= regions
    # triangles with a vertex exactly on a split line, the others strictly
    # on one side of it
    small = Fraction(1, 200)
    for k, p in on_line:
        u = w.split_lines[k - 1].direction()
        for d in (w.bisector_dir, -w.bisector_dir):
            tri = Region.bounded([p, p + (d + u).scaled(small), p + (d - u).scaled(small)])
            want = _scan_locate(w, tri)
            assert want[0] == (k + 1 if d is w.bisector_dir else k)
            assert _locate(w, tri) == want
            _check_in_piece(w, tri, want)
    # triangles cut by one line (vertices in adjacent pieces) or by two or
    # more: the same first cut line object as the scan
    spans = []
    for _ in range(300):
        a, b = _spread_point(w, rng), _spread_point(w, rng)
        if (b - a).cross_sign(w.dir_q) == 0:
            continue
        tri = Region.bounded([a, b, a + w.dir_q.scaled(eps)])
        want = _outcome(_scan_locate, w, tri)
        assert _outcome(_locate, w, tri) == want
        _check_in_piece(w, tri, want)
        if want[0] is None:
            spans.append(abs(_scan_piece_index(w, a) - _scan_piece_index(w, b)))
    assert spans.count(1) > 20 and sum(1 for s in spans if s >= 2) > 20


def test_locate_from_the_last_piece_matches_bisection(system):
    # the wedge cut off far out, its part in each piece, and seeded
    # triangles, each clipped to every piece image T'(alpha_prev) it meets
    # and pulled back into alpha_prev, then stepped once: ``locate`` and
    # ``in_piece`` told the piece the region came from agree with them
    # told nothing, cuts included, and ``in_piece`` is False, with no
    # sign, for a piece two or more away
    _, w = system
    rng = random.Random(53)
    far = Region.bounded([w.apex, w.apex + w.dir_p.scaled(40), w.apex + w.dir_q.scaled(40)])
    regions = [far] + [intersect_convex(far, a) for a in w.alpha.values()]
    for _ in range(200):
        a = _spread_point(w, rng)
        eps = rng.choice((Fraction(1, 40), Fraction(1, 4)))
        regions.append(Region.bounded([a, a + w.dir_p.scaled(eps), a + w.dir_q.scaled(eps)]))
    seen = set()
    for region in regions:
        for prev, image in w.images.items():
            part = intersect_convex(region, image)
            if part is None:
                continue
            table = SourceTable(part.transformed(w.maps[prev].inverse()))
            l, t = w.step_raw(0, ORIGIN, prev)
            want = w.locate(table, l, t)
            assert w.locate(table, l, t, prev) == want
            seen.add((prev, want[0]))
            for i in range(1, 7):
                assert w.in_piece(table, l, t, i, prev) == w.in_piece(table, l, t, i)
    assert {(i, j) for i, j in seen if j is not None} == {
        (i, j) for i in range(1, 7) for j in (i - 1, i, i + 1) if 1 <= j <= 6
    }
    assert {i for i, j in seen if j is None} == set(range(1, 7))
    # a region in alpha_i itself, told it came from a piece two or more
    # away: False before any sign
    signs = []

    class Counting(SourceTable):
        __slots__ = ()

        def sign(self, l, k, t):
            signs.append(k)
            return super().sign(l, k, t)

    for i in range(1, 5):
        table = Counting(w.alpha[i])
        assert w.in_piece(table, 0, ORIGIN, i)
        signs.clear()
        for prev in range(1, 7):
            if abs(i - prev) > 1:
                assert not w.in_piece(table, 0, ORIGIN, i, prev)
        assert signs == []


def _failure(fn, *args):
    """(error type, index, point) of the error fn(*args) raises, else None."""
    try:
        fn(*args)
    except (DomainError, GraneError) as exc:
        return type(exc), getattr(exc, "index", None), getattr(exc, "point", None)
    return None


def test_forward_step_matches_piece_maps(system):
    _, w = system
    rng = random.Random(37)
    pieces = set()
    for _ in range(400):
        p = _spread_point(w, rng)
        want = _failure(_scan_piece_index, w, p)
        assert _failure(w.piece_index, p) == want
        if want is not None:
            assert _failure(w.step, p) == want
            continue
        i = _scan_piece_index(w, p)
        assert w.piece_index(p) == i
        assert w.step(p) == (w.maps[i].apply(p), i)
        pieces.add(i)
    assert pieces == set(range(1, 7))


def test_forward_step_errors_match_piece_index(system):
    _, w = system
    special = [w.apex, *w.P.values(), *w.Q.values()]
    # points on each split line, inside the wedge and beyond it
    for k in range(1, 6):
        a = w.P[k + 1] if k < 5 else w.Q[6] + w.dir_p
        b = w.Q[k + 1]
        special += [a + (b - a).scaled(t) for t in (Fraction(1, 3), Fraction(-1), 2)]
        assert all(w.split_lines[k - 1].side(p) == 0 for p in special[-3:])
    # one wedge sign 0, the other negative: the wedge lines beyond the apex
    behind = [w.apex - w.dir_p, w.apex - w.dir_q]
    for p in behind:
        assert sorted(ln.side(p) for ln in w.wedge_lines) == [-1, 0]
    indices = set()
    for p in special + behind:
        want = _failure(_scan_piece_index, w, p)
        assert want is not None
        assert _failure(w.piece_index, p) == want
        assert _failure(w.step, p) == want
        indices.add(want[1])
    assert indices == {None, 1, 2, 3, 4, 5}
    for p in behind:
        assert _failure(w.step, p)[0] is DomainError
    assert _failure(w.step, w.apex)[:2] == (GraneError, None)


def _scan_first_return(w, p, piece, max_iter):
    """point_first_return to alpha_piece step by step: ``maps[i].apply`` on
    the piece that ``_scan_piece_index`` finds."""
    q = p
    for n in range(1, max_iter + 1):
        q = w.maps[_scan_piece_index(w, q)].apply(q)
        if _scan_piece_index(w, q) == piece:
            return q, n
    raise InconclusiveError("no return", iterations=max_iter)


def _return_outcome(fn, *args):
    try:
        return fn(*args)
    except InconclusiveError as exc:
        return InconclusiveError, exc.iterations
    except (DomainError, GraneError) as exc:
        return type(exc), getattr(exc, "index", None), getattr(exc, "point", None)


def test_point_first_return_to_a_piece_matches_a_scanned_walk(system):
    _, w = system
    rng = random.Random(41)
    # preimages of points on each split line: the walk hits it at step 1
    step_back = _backward_reference(w)
    starts = []
    for k in range(1, 6):
        a = w.P[k + 1] if k < 5 else w.Q[6] + w.dir_p
        b = w.Q[k + 1]
        for t in (Fraction(1, 3), Fraction(2, 3)):
            try:
                back, _ = step_back(a + (b - a).scaled(t))
            except GraneError:
                continue
            starts.append(back)
    assert len(starts) >= 5
    starts += [_spread_point(w, rng) for _ in range(40)]

    def to_piece(p, piece, cap):
        return point_first_return(w, p, w.alpha[piece], cap)

    kinds = set()
    for p in starts:
        for piece in range(1, 7):
            want = _return_outcome(_scan_first_return, w, p, piece, 50)
            assert _return_outcome(to_piece, p, piece, 50) == want
            if want[0] is InconclusiveError or want[0] is GraneError:
                kinds.add(want[0])
                continue
            kinds.add("return")
            q, n = want
            # the cap counts the returned step: n steps suffice, n - 1 do not
            assert to_piece(p, piece, n) == want
            with pytest.raises(InconclusiveError):
                to_piece(p, piece, n - 1)
    assert kinds == {"return", GraneError, InconclusiveError}


def test_raw_orbit_signs_the_wedge_once(ctx, monkeypatch):
    """Over the 10^4 steps of the aperiodic witness's orbit, the wedge lines
    are signed for the start point alone, and each later step signs one or
    two split lines next to the last piece: 1.67 signs a step.  Signing
    both wedge lines at every step makes 4.88 signs a step."""
    w = ctx.wedge
    y = ctx.sim.gammaX.fixed_point()
    calls = [0]

    def counted(p, q):
        calls[0] += 1
        return pair_sign(p, q)

    monkeypatch.setattr(table, "pair_sign", counted)
    steps = sum(1 for _ in zip(range(10**4), w.raw_orbit(y)))
    assert steps == 10**4
    assert calls[0] < 2.0 * steps


def test_raw_orbit_matches_a_scanned_walk_over_long_orbits(ctx):
    """2,000 steps of ``raw_orbit`` from the witness y, 20 seeded points of
    Z'_4 and their gamma_1 images, against a walk that signs the wedge at
    every step (``_scan_piece_index``) and applies ``maps[i]``: equal symbols
    and points at every step, each point in the open wedge.  Then starts
    whose walks meet a split line after a few steps, which must stop where
    the scan stops."""
    w, s = ctx.wedge, ctx.sim
    z4 = interior_points(s.Z4, random.Random(47), 20, den=512)
    starts = [s.gammaX.fixed_point(), *z4, *(s.gamma1.apply(p) for p in z4)]
    for p in starts:
        q = p
        steps = 0
        for _, (*raw, i) in zip(range(2000), w.raw_orbit(p)):
            assert i == _scan_piece_index(w, q)
            q = w.maps[i].apply(q)
            assert raw_equals(q, *raw)
            assert w.wedge.classify(raw_point(*raw)) == INTERIOR
            steps += 1
        assert steps == 2000
    # starts whose orbit meets split line k after n >= 2 clean steps: the
    # pullback T'^-n(q) = iota T'^n iota(q) of a point q on the line.  The
    # walk must raise the scan's GraneError, with its index k and point q,
    # from the piece k or k+1 it was in
    hits = set()
    params = (Fraction(1, 7), Fraction(1, 2), Fraction(5, 6), Fraction(2, 9))
    for k, q in _on_split_lines(w, params):
        for n in (2, 3, 5):
            p = w.iota.apply(q)
            try:
                for _ in range(n):
                    p, _ = w.step(p)
            except GraneError:
                continue
            p = w.iota.apply(p)
            orbit, cur = w.raw_orbit(p), p
            for _ in range(n):
                *raw, i = next(orbit)
                assert i == _scan_piece_index(w, cur)
                cur = w.maps[i].apply(cur)
                assert raw_equals(cur, *raw)
            assert cur == q
            want = _failure(_scan_piece_index, w, q)
            assert want == (GraneError, k, q)
            assert _failure(next, orbit) == want
            hits.add((k, i - k))
    assert {k for k, _ in hits} == {1, 2, 3, 4, 5} and {d for _, d in hits} == {0, 1}


def test_itinerary_fixed_points(system):
    _, w = system
    assert w.itinerary(w.O[1], 5).text() == "11111"
    assert w.itinerary(w.O[4], 5).text() == "44444"


def test_itinerary_shift(system):
    _, w = system
    rng = random.Random(98)
    checked = 0
    while checked < 100:
        p = wedge_point(w, rng)
        try:
            it = w.itinerary(p, 8, 2)
            q, _ = w.step(p)
            it_shift = w.itinerary(q, 7, 3)
        except GraneError:
            continue
        if not (it.complete and it_shift.complete):
            continue
        assert it.symbols == it_shift.symbols
        assert it_shift.start_offset == it.start_offset + 1
        checked += 1


def _backward_reference(w):
    """The backward step T'^-1 by a scan of the six piece images, as a
    function p -> (preimage, symbol): p is classified against each image
    alpha_i.transformed(maps[i]), and maps[i].inverse() applied to it.
    DomainError outside the wedge, GraneError on its boundary or on an
    image boundary."""
    images = {i: a.transformed(w.maps[i]) for i, a in w.alpha.items()}
    inverses = {i: f.inverse() for i, f in w.maps.items()}

    def step_back(p):
        side = w.wedge.classify(p)
        if side == EXTERIOR:
            raise DomainError("point outside the wedge")
        if side == BOUNDARY:
            raise GraneError("point on the wedge boundary", point=p)
        for i, img in images.items():
            if img.classify(p) == INTERIOR:
                return inverses[i].apply(p), i
        raise GraneError("point on a piece-image boundary", point=p)

    return step_back


def _backward_outcome(step_back, p, n):
    """(symbols, bwd_fail) of n backward steps from p by ``step_back``, as
    ``itinerary(p, 0, n)`` reports them, or DomainError."""
    symbols = []
    try:
        for _ in range(n):
            p, i = step_back(p)
            symbols.append(i)
    except DomainError:
        return DomainError
    except GraneError:
        return tuple(reversed(symbols)), len(symbols)
    return tuple(reversed(symbols)), None


def _itinerary_backward_outcome(w, p, n):
    try:
        it = w.itinerary(p, 0, n)
    except DomainError:
        return DomainError
    assert it.start_offset == len(it.symbols)
    return it.symbols, it.bwd_fail


def test_itinerary_backward_matches_a_scanned_reference(system):
    """Backward itineraries through iota against the image scan of
    ``_backward_reference``: equal symbols and truncation, at sampled wedge
    points and at points on the image boundaries, reached after 0, 1 and 2
    backward steps; the same DomainError off the wedge."""
    _, w = system
    step_back = _backward_reference(w)
    rng = random.Random(43)
    starts = [wedge_point(w, rng) for _ in range(300)]
    # points on the image edges inside the wedge, and their images one and
    # two steps on, which stop there going back
    for i, a in w.alpha.items():
        img = a.transformed(w.maps[i])
        vs = img.vertices
        edges = list(zip(vs, vs[1:] + vs[:1] if img.is_bounded else vs[1:]))
        if not img.is_bounded:
            edges += [(vs[0] + img.entry_dir, vs[0]), (vs[-1], vs[-1] + img.exit_dir)]
        for u, v in edges:
            for t in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
                q = u + (v - u).scaled(t)
                for _ in range(3):
                    starts.append(q)
                    try:
                        q, _ = w.step(q)
                    except GraneError:
                        break
    starts += [w.apex, w.apex - w.bisector_dir, w.apex + w.dir_p]
    fails = set()
    for p in starts:
        want = _backward_outcome(step_back, p, 6)
        assert _itinerary_backward_outcome(w, p, 6) == want
        fails.add(want if want is DomainError else want[1])
    assert {DomainError, None, 0, 1, 2} <= fails


def test_itinerary_reports_boundary_truncation(system):
    _, w = system
    # the apex of alpha_6 maps onto a piece boundary after a few steps of
    # the translation... instead use a point straight on a splitting ray
    p = Point((w.P[2].x + w.Q[2].x) / 2, (w.P[2].y + w.Q[2].y) / 2)
    it = w.itinerary(p, 5)
    assert it.fwd_fail == 0 and it.symbols == ()
    # one step before the boundary on split line 2, after a backward step
    p = Point((w.P[3].x + w.Q[3].x) / 2, (w.P[3].y + w.Q[3].y) / 2)
    q, _ = _backward_reference(w)(p)
    it = w.itinerary(q, 5, 1)
    assert it.fwd_fail == 1 and it.start_offset == 1 and it.symbols == (3, 3)


def test_wedge_conjugacy_with_alpha6_return(system):
    _, w = system
    rng = random.Random(99)
    checked = 0
    while checked < 40:
        x = wedge_point(w, rng, span=4)
        try:
            tx, _ = w.step(x)
            hx = w.H.apply(x)
            assert w.piece_index(hx) == 6
            ret, _ = point_first_return(w, hx, w.alpha[6], 20000)
        except GraneError:
            continue
        assert ret == w.H.apply(tx)
        checked += 1


def test_z_is_table_plus_twelve_rockets(system):
    t, w = system
    assert w.Z.area2() == t.polygon.area2() + w.Zp.area2() * 12


def test_fold_uniqueness(system):
    _, w = system
    rng = random.Random(100)
    checked = 0
    while checked < 100:
        p = wedge_point(w, rng)
        hits = []
        for m in range(12):
            r = ROT[m].apply(p)
            if w.wedge.classify(r) == INTERIOR:
                hits.append(m)
        assert hits == [0]
        checked += 1
