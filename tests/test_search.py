import dataclasses
import gc
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from dodeca import geom, search, selfsim
from dodeca.checks import Context, run_checks
from dodeca.errors import DomainError, GraneError, InconclusiveError, SelfReturnError
from dodeca.field import ONE, QS3, ZERO, pair_sign
from dodeca.geom import (
    DIRECTIONS,
    INTERIOR,
    AffMap,
    Line,
    Point,
    Region,
    area2_within,
    boxes_overlap,
    clear_points,
    cutting_lines,
    edge_positions,
    integer_edge_lines,
    overlap_status,
    raw_equals,
    raw_point,
    split_convex,
)
from dodeca.periods import cross_validate, period_of_h
from dodeca.search import (
    CellPool,
    ReturnSystem,
    _validate_return_system,
    close_component,
    component_periods,
    find_periodic_component,
    first_return_map,
    return_tube,
    verify_partition,
)
from dodeca.table import FORMS, ORIGIN, ROT, SIDE_NORMALS, SourceTable, WedgeSystem, rigid_map
from test_table import _scan_locate


def test_base_component_shapes(ctx):
    comps = ctx.base_components()
    assert [len(comps[i].region.vertices) for i in (1, 2, 3, 4)] == [12, 6, 8, 12]
    assert [comps[i].period for i in (1, 2, 3, 4)] == [1, 1, 1, 1]
    assert [comps[i].rotation_l for i in (1, 2, 3, 4)] == [5, 4, 3, 2]


def test_noncenter_period_by_direct_iteration(ctx):
    w = ctx.wedge
    comps = ctx.base_components()
    for i, expected in ((1, 12), (2, 3), (3, 4), (4, 6)):
        comp = comps[i]
        info = component_periods(comp)
        assert info.noncenter_per_tprime == expected
        probe = Point(
            (comp.center.x * 7 + comp.region.vertices[0].x) / 8,
            (comp.center.y * 7 + comp.region.vertices[0].y) / 8,
        )
        res = w.orbit_period(probe, 4 * expected)
        assert res is not None and res[0] == expected


def _orbit_period_every_step(w, p, max_iter):
    """``orbit_period`` comparing the start with every iterate."""
    counts = [0] * 6
    for n, (*q, sym) in zip(range(1, max_iter + 1), w.raw_orbit(p)):
        counts[sym - 1] += 1
        if raw_equals(p, *q):
            return n, tuple(counts)
    return None


def test_orbit_period_compares_only_after_the_return_piece(ctx, monkeypatch):
    # the start recurs only after a step from the piece of iota(start), so
    # orbit_period compares only there: the same answers and errors as a
    # compare after every step, on the wedge points cross_validate draws
    # for the orbits benchmark (120 samples, seed 9) and on the centres of
    # the known components, whose period and visit counts they are
    w = ctx.wedge
    drawn = []
    real = WedgeSystem.orbit_period

    def recorded(self, p, max_iter):
        drawn.append((p, max_iter))
        return real(self, p, max_iter)

    monkeypatch.setattr(WedgeSystem, "orbit_period", recorded)
    cross_validate(w, 200, samples=120, seed=9)
    monkeypatch.setattr(WedgeSystem, "orbit_period", real)
    outcomes = Counter()
    for p, cap in drawn:
        try:
            want = _orbit_period_every_step(w, p, cap)
        except GraneError as exc:
            with pytest.raises(GraneError) as got:
                w.orbit_period(p, cap)
            assert (got.value.index, got.value.point) == (exc.index, exc.point)
            outcomes["grane"] += 1
            continue
        assert w.orbit_period(p, cap) == want
        outcomes["none" if want is None else "closed"] += 1
    assert outcomes["closed"] == 120 and outcomes["none"] > 0
    spiral, base, parts = _known_components(ctx)
    for region, period in spiral + base + parts:
        comp = close_component(w, region)
        want = (period, comp.visit_counts)
        assert w.orbit_period(comp.center, period) == want
        assert _orbit_period_every_step(w, comp.center, period) == want
        assert w.orbit_period(comp.center, period - 1) is None


def test_center_t_period_by_direct_iteration(ctx):
    t, w = ctx.system
    comps = ctx.base_components()
    from dodeca.periods import billiard_orbit_period

    for i, expected in ((1, 12), (2, 6), (3, 4), (4, 3)):
        info = component_periods(comps[i])
        assert info.center_per_t == expected
        assert billiard_orbit_period(t, w.O[i], 2 * expected) == expected


def test_fold_twist_period_arithmetic():
    # h = visits to alpha_1..alpha_6: sum(h) T' steps, twist sum(i * h_i)
    # zero twist (mod 12): the fold closes with the wedge step
    assert period_of_h((0, 0, 0, 3, 0, 2)) == 5  # twist 24
    assert period_of_h((0, 3, 2, 0, 0, 0)) == 5  # twist 12
    # coprime twist needs all twelve turns
    assert period_of_h((1, 0, 0, 0, 0, 0)) == 12
    assert period_of_h((0, 0, 0, 0, 1, 0)) == 12
    assert period_of_h((0, 0, 0, 1, 0, 0)) == 3
    assert period_of_h((1, 1, 1, 0, 0, 0)) == 6  # 3 steps, twist 6


def test_odd_symmetric_component_doubles(ctx):
    info = component_periods(ctx.base_components()[4])
    assert info.centrally_symmetric
    assert info.center_per_t == 3
    assert info.noncenter_per_t == 6


def test_component_idempotent_and_orbit_closes(ctx):
    w = ctx.wedge
    comp = find_periodic_component(w, ctx.sim.gamma1.apply(w.O[4]))
    assert comp.period == 37
    orbit = comp.orbit
    assert len(orbit) == 37
    assert w.in_closed_wedge(orbit[-1])
    i, cut = _scan_locate(w, orbit[-1])
    assert cut is None and orbit[-1].transformed(w.maps[i]) == comp.region
    again = find_periodic_component(w, orbit[5].interior_point())
    assert again.region == orbit[5]


def test_component_search_errors(ctx):
    w = ctx.wedge
    # the orbit of a point on split line 1 (the segment P2 Q2) stops at once
    mid = Point((w.P[2].x + w.Q[2].x) / 2, (w.P[2].y + w.Q[2].y) / 2)
    with pytest.raises(GraneError) as exc:
        find_periodic_component(w, mid)
    assert exc.value.index == 1
    with pytest.raises(DomainError):
        find_periodic_component(w, w.apex - w.bisector_dir)
    # a region cycle whose first region a split line cuts, or that leaves
    # the wedge
    eps = Fraction(1, 64)
    across = Region.bounded([mid + v.scaled(eps) for v in (w.dir_p, -w.dir_p, w.dir_q)])
    with pytest.raises(GraneError, match="crosses"):
        close_component(w, across, 10)
    outside = Region.bounded(
        [w.O[1], w.O[1] + w.dir_p.scaled(eps), w.apex - w.bisector_dir.scaled(eps)]
    )
    with pytest.raises(GraneError, match="wedge"):
        close_component(w, outside, 10)


def _reference_search(w, start):
    """The component search as a region walk: carry the wedge along the
    orbit of ``start``, place each bounded region by ``_scan_locate``, cut
    it down to the orbit's piece only while it is unbounded or a split line
    cuts it, and map it by ``transformed``.  At the first repeated
    canonical key, step on until the start point is interior and certify
    that region.  Step n carries T'^n of the points that share the start's
    first n symbols.  Returns the component, the number of cuts, the step
    of the last cut, the step of the region that repeats, the step of its
    repeat and the step of the certified region."""
    orbit = w.raw_orbit(start)
    cuts = last_cut = n = 0

    def step(region):
        nonlocal cuts, last_cut, n
        n += 1
        i = next(orbit)[-1]
        if region.is_bounded:
            j, cut = _scan_locate(w, region)
            if cut is None:
                assert j == i
                return region.transformed(w.maps[i])
        cuts += 1
        last_cut = n
        return w.restrict_to_piece(region, i).transformed(w.maps[i])

    region, seen = w.wedge, {}
    while region.canonical_key() not in seen:
        seen[region.canonical_key()] = n
        region = step(region)
    repeated, repeat = seen[region.canonical_key()], n
    while region.classify(start) != INTERIOR:
        region = step(region)
    return close_component(w, region), cuts, last_cut, repeated, repeat, n


def _reference_starts(ctx):
    """The centres of the z4 and z14 partition components, O_1..O_5 and
    gamma_1(O_4)."""
    w = ctx.wedge
    starts = [
        pc.component.center for label in ("z4", "z14") for pc in ctx.partition(label).components
    ]
    assert len(starts) == 7 + 20
    return starts + [w.O[i] for i in range(1, 6)] + [ctx.sim.gamma1.apply(w.O[4])]


def test_component_search_matches_the_region_walk(ctx, monkeypatch):
    # the same component, vertex labels included, for every region of its
    # cycle, and the same cuts (restrict_to_piece calls) as the region walk,
    # with no bounded region mapped by ``transformed``,
    # from the centres of the z4 and z14 partition components, O_1..O_5
    # and gamma_1(O_4).  In the region walk the region that repeats is the
    # one just after the last cut, and it repeats one period later; the
    # certified region's step is a multiple of the period
    w = ctx.wedge
    starts = _reference_starts(ctx)
    calls = Counter()
    restrict, transformed = type(w).restrict_to_piece, Region.transformed

    def counted_restrict(*args):
        calls["restrict"] += 1
        return restrict(*args)

    def counted_transformed(region, f):
        calls["bounded transformed"] += region.is_bounded
        return transformed(region, f)

    monkeypatch.setattr(type(w), "restrict_to_piece", counted_restrict)
    monkeypatch.setattr(Region, "transformed", counted_transformed)
    found = []
    for p in starts:
        want, cuts, last_cut, repeated, repeat, final = _reference_search(w, p)
        assert repeated == last_cut and repeat == last_cut + want.period
        assert final % want.period == 0 and repeat <= final < repeat + want.period
        calls.clear()
        got = find_periodic_component(w, p)
        assert got.to_obj() == want.to_obj()
        assert [_vertex_tuple(r) for r in got.orbit] == [_vertex_tuple(r) for r in want.orbit]
        assert calls["restrict"] == cuts and calls["bounded transformed"] == 0
        found.append((cuts, got.period, got.rotation_l, len(got.region.vertices)))
    # O_5: two unbounded regions and four cuts before the period-1 12-gon
    assert found[-2] == (6, 1, 1, 12)


def test_component_search_builds_regions_only_at_cuts_and_returns(ctx, monkeypatch):
    # from the 33 reference starts, the search itself (``close_component``'s
    # walk aside) builds regions from its source tables only at a cut (the
    # region to cut and the image of the cut), where the motion (l, t) sends
    # the cut's centroid to the centroid of the image of the last cut, and
    # once at the end; it
    # keys only the images of cuts and the regions of centroid returns, and
    # makes one source table per cut
    w = ctx.wedge
    calls = Counter()
    counting = True

    def counted(name, fn, tally=lambda out: True):
        def wrapper(*args):
            out = fn(*args)
            if counting and tally(out):
                calls[name] += 1
            return out

        return wrapper

    def uncounted_close_component(*args):
        nonlocal counting
        counting = False
        try:
            return close_component(*args)
        finally:
            counting = True

    for owner, name in (
        (SourceTable, "region"),
        (Region, "canonical_key"),
        (type(w), "restrict_to_piece"),
        (SourceTable, "__init__"),
    ):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    # only the sends that answer True are centroid returns, and only the
    # cuts to a bounded region start a source table
    monkeypatch.setattr(search, "sends", counted("sends", search.sends, bool))
    monkeypatch.setattr(
        type(w),
        "restrict_to_piece",
        counted("bounded", type(w).restrict_to_piece, lambda out: out.is_bounded),
    )
    monkeypatch.setattr(search, "close_component", uncounted_close_component)
    for p in _reference_starts(ctx):
        calls.clear()
        comp = find_periodic_component(w, p)
        cuts, returns = calls["restrict_to_piece"], calls["sends"]
        assert calls["region"] <= 2 * cuts + returns + 1
        assert calls["canonical_key"] <= cuts + returns and returns >= 1
        assert calls["__init__"] == calls["bounded"] >= 1
        assert comp.region.classify(p) == INTERIOR


def test_component_search_cap_boundary(ctx):
    # the least cap at which the search succeeds: the step of the first
    # repeated region
    w = ctx.wedge
    for p, least in ((w.O[1], 11), (w.O[5], 7), (ctx.sim.gamma1.apply(w.O[4]), 217)):
        assert find_periodic_component(w, p, least).center == p
        with pytest.raises(InconclusiveError):
            find_periodic_component(w, p, least - 1)


def _composed_rotation(w, comp):
    """Reference rotation index: compose the piece maps along the cycle,
    match the linear part against ROT, and check that a rotation turns
    about the centre (and that a zero turn is the identity)."""
    f = AffMap.identity()
    for reg in comp.orbit:
        i, cut = _scan_locate(w, reg)
        assert cut is None
        f = w.maps[i].compose(f)
    linear = (f.m00, f.m01, f.m10, f.m11)
    (l,) = [k for k, r in enumerate(ROT) if (r.m00, r.m01, r.m10, r.m11) == linear]
    if l == 0:
        assert f == AffMap.identity()
    else:
        assert f.fixed_point() == comp.center
    return l


def test_close_component_certifies_maximality(ctx, monkeypatch):
    # one walk of the cycle certifies each known component, and rejects a
    # region of the same cycle that is not maximal: the 9/10 shrink about
    # the centroid still turns onto itself, but no edge of it ever lies on
    # a piece boundary
    w = ctx.wedge
    wit = ctx.witness()
    spiral = list(zip(wit.spiral, wit.spiral_tprime_periods))
    assert len(spiral) == 8
    base = [(c.region, c.period) for c in ctx.base_components().values()]
    assert len(base) == 4
    parts = [
        (pc.component.region, pc.component.period)
        for label in ("z4", "z14")
        for pc in ctx.partition(label).components
    ]
    assert len(parts) == 7 + 20
    for region, period in spiral + base + parts:
        comp = close_component(w, region)
        assert comp.region == region and comp.period == period
        assert comp.rotation_l == _composed_rotation(w, comp)
    shrink = Fraction(9, 10)
    for region, _ in spiral + base:
        inner = region.transformed(AffMap.homothety(region.centroid(), QS3(shrink)))
        with pytest.raises(InconclusiveError, match="maximal"):
            close_component(w, inner)
    # the one exact rotation check: with every rotation index off by one,
    # the turn read from the visit counts misplaces vertex 0
    monkeypatch.setattr(search, "ROT", ROT[1:] + ROT[:1])
    for region, _ in spiral + base:
        with pytest.raises(InconclusiveError, match="vertex 0"):
            close_component(w, region)


def test_close_component_marks_only_side_parallel_edges(ctx):
    # a regular 12-gon about O_1 with support lines at 30°*k: W_1's period-1
    # turn by 150° takes it onto itself, but no edge of it is parallel to
    # a table side, so no edge is ever marked (vertex 0 is
    # O_1 + (r, r*tan 15°), and tan 15° = 2 - s3)
    w = ctx.wedge
    w1 = ctx.base_components()[1]
    r = QS3(Fraction(1, 10))
    v0 = Point(r, r * QS3(2, -1))
    gon = Region.bounded([w.O[1] + ROT[k].apply(v0) for k in range(12)])
    assert gon.is_convex() and overlap_status(gon, [w1.region]) == "inside"
    with pytest.raises(InconclusiveError, match="maximal"):
        close_component(w, gon)


def test_return_system_structure(ctx):
    rs = ctx.return_system("z4")
    total = ZERO
    for piece in rs.pieces:
        assert piece.map.is_isometry() or piece.map.is_translation()
        assert piece.source.transformed(piece.map) == piece.target
        total = total + piece.source.area2()
    assert total == rs.domain.area2()
    times = sorted(p.return_time for p in rs.pieces)
    assert times[0] >= 1


def test_first_return_event_budget(ctx):
    # Z'_4 maps 79 fragments before every one has returned
    w, z4 = ctx.wedge, ctx.domain("z4")
    assert first_return_map(w, z4, max_events=79) == ctx.return_system("z4")
    with pytest.raises(InconclusiveError):
        first_return_map(w, z4, max_events=78)


def test_first_return_splits_only_cut_regions(ctx, monkeypatch):
    # first_return_map splits a region only by a line that cuts it
    calls = []
    orig = search.split_region

    def split(region, line):
        parts = orig(region, line)
        calls.append(len(parts))
        return parts

    monkeypatch.setattr(search, "split_region", split)
    first_return_map(ctx.wedge, ctx.domain("z4"))
    assert calls and min(calls) >= 2


def test_return_tube_replay(ctx):
    rs = ctx.return_system("z4")
    piece = max(rs.pieces, key=lambda p: p.return_time)
    tube = return_tube(ctx.wedge, piece)
    assert len(tube) == piece.return_time
    assert tube[0] == piece.source


def test_itineraries_match_the_located_walk(ctx):
    # the recorded itinerary is the symbol sequence of the region walk that
    # locates every floor from scratch, the wedge lines included
    w = ctx.wedge
    for label in ("z1", "z4", "z14", "x"):
        for piece in ctx.return_system(label).pieces:
            cur, symbols = piece.source, []
            for _ in range(piece.return_time):
                i, cut = _scan_locate(w, cur)
                assert cut is None
                symbols.append(i)
                cur = cur.transformed(w.maps[i])
            assert cur == piece.target
            assert tuple(symbols) == piece.itinerary
            assert len(piece.itinerary) == piece.return_time
    pieces = ctx.return_system("level3").pieces
    assert sum(len(p.itinerary) for p in pieces) == 76450


def _vertex_in_piece(w, region, i):
    """Reference for ``in_piece``: two split-line sign passes over the
    vertices, the apex side of line i with one vertex strictly there."""
    lines = w.split_lines
    if i >= 2 and max(lines[i - 2].signs(region.vertices)) > 0:
        return False
    if i <= 5:
        sides = lines[i - 1].signs(region.vertices)
        return min(sides) >= 0 and max(sides) > 0
    return True


def _check_image(w, table, l, t, floor, i):
    # the image (l, t) is the floor, and its support values place it as
    # the floor's vertex signs do
    assert table.region(l, t) == floor
    assert w.locate(table, l, t) == _scan_locate(w, floor) == (i, None)
    for k in range(1, 7):
        held = w.in_piece(table, l, t, k)
        assert held == _vertex_in_piece(w, floor, k) == (k == i)


def _exceeds(table, l, t, e, cp, cq, cr):
    """Reference for ``SourceTable.sign``: the sign of max n_e . x over the
    closed image ROT[l](S) + t minus (cp + cq*s3)/cr, written out over the
    table's support values h.  With t = ((xp + xq*s3)/r, (yp + yq*s3)/r)
    and h over m, the max is ((n_e . (xp + xq*s3, yp + yq*s3))*m +
    h[e - l]*r) / (r*m), so the sign is one ``pair_sign`` of integers
    (r, m, cr >= 1)."""
    n = SIDE_NORMALS[e]
    ap, aq, bp, bq = n.x.p, n.x.q, n.y.p, n.y.q
    xp, xq, yp, yq, r = t
    hp, hq, m = table.h
    j = (e - l) % 12
    rm = r * m
    return pair_sign(
        ((ap * xp + 3 * aq * xq + bp * yp + 3 * bq * yq) * m + hp[j] * r) * cr - cp * rm,
        ((ap * xq + aq * xp + bp * yq + bq * yp) * m + hq[j] * r) * cr - cq * rm,
    )


def test_compiled_rows_sign_as_exceeds(ctx):
    # every row a SourceTable compiles signs its image as the reference
    # formula _exceeds does: the default forms (the 5 upper and 5 lower
    # split forms and the 2 wedge-line forms, which hold every piece face)
    # and the domain's 12 separation forms, at every rotation, for every
    # source of the z4, z14 and level-3 return systems, at seeded raw
    # translations over r = 1, 2 and 6 and at the first floors of each
    # tower
    w = ctx.wedge
    rng = random.Random(28)
    assert {k for i in range(1, 7) for k in w.faces[i]} == set(range(len(FORMS)))
    seen = Counter()
    for label in ("z4", "z14", "level3"):
        rs = ctx.return_system(label)
        hp, hq, m = SourceTable(rs.domain).h
        apart = tuple((e, -hp[(e + 6) % 12], -hq[(e + 6) % 12], m) for e in range(12))
        forms = FORMS + apart
        for piece in rs.pieces:
            table = SourceTable(piece.source, forms)
            images = [
                (l, (*(rng.randint(-50 * r, 50 * r) for _ in range(4)), r))
                for l in range(12)
                for r in (1, 2, 6)
            ]
            l, t = 0, ORIGIN
            for i in piece.itinerary[:20]:
                images.append((l, t))
                l, t = w.step_raw(l, t, i)
            for l, t in images:
                for k, form in enumerate(forms):
                    s = table.sign(l, k, t)
                    assert s == _exceeds(table, l, t, *form), (label, l, t, form)
                    seen[s] += 1
    assert set(seen) == {-1, 0, 1}


def test_frame_locator_matches_vertex_signs(ctx):
    # every z14 floor, and a seeded sample of the 76,450 level-3 floors,
    # whose raw images (l, t) are walked along the whole itinerary
    w = ctx.wedge
    for piece in ctx.return_system("z14").pieces:
        table, l, t, floor = SourceTable(piece.source), 0, ORIGIN, piece.source
        for i in piece.itinerary:
            _check_image(w, table, l, t, floor, i)
            (l, t), floor = w.step_raw(l, t, i), floor.transformed(w.maps[i])
        assert table.region(l, t) == floor == piece.target
        assert rigid_map(l, t) == piece.map
    rng = random.Random(18)
    checked = 0
    for piece in ctx.return_system("level3").pieces:
        sample = set(rng.sample(range(piece.return_time), min(40, piece.return_time)))
        table, l, t = SourceTable(piece.source), 0, ORIGIN
        for j, i in enumerate(piece.itinerary):
            if j in sample:
                _check_image(w, table, l, t, table.region(l, t), i)
                checked += 1
            l, t = w.step_raw(l, t, i)
        assert table.region(l, t) == piece.target and rigid_map(l, t) == piece.map
    assert checked == 8 * 40


def test_first_return_builds_regions_only_at_cuts_and_returns(ctx, monkeypatch):
    # the level-3 walk maps 47,595 fragments as raw images (l, t): it
    # builds a region only for the 6 cuts (the image from its source table,
    # and its parts pulled back by ``transformed``) and for the 8 returns
    # (from their tables), composes no map and inverts one per cut
    w, domain = ctx.wedge, ctx.domain("level3")
    want = ctx.return_system("level3")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name] += 1
            if name == "split_region":
                calls["parts"] += len(out)
            if name == "overlap_status":
                calls[out] += 1
            return out

        return wrapper

    for owner, name in (
        (AffMap, "compose"),
        (AffMap, "inverse"),
        (Region, "transformed"),
        (SourceTable, "region"),
        (search, "split_region"),
        (search, "overlap_status"),
    ):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    assert first_return_map(w, domain) == want
    assert calls["compose"] == 0
    assert calls["split_region"] == calls["inverse"] == 6
    assert calls["overlap_status"] == calls["inside"] == len(want.pieces) == 8
    assert calls["region"] == 6 + 8
    assert calls["transformed"] == calls["parts"]


def _known_components(ctx):
    """(region, period) of the 8 spiral, 4 base and 7 + 20 partition
    components that ``test_close_component_certifies_maximality`` certifies."""
    wit = ctx.witness()
    spiral = list(zip(wit.spiral, wit.spiral_tprime_periods))
    assert len(spiral) == 8
    base = [(c.region, c.period) for c in ctx.base_components().values()]
    assert len(base) == 4
    parts = [
        (pc.component.region, pc.component.period)
        for label in ("z4", "z14")
        for pc in ctx.partition(label).components
    ]
    assert len(parts) == 7 + 20
    return spiral, base, parts


def _vertex_tuple(region):
    return tuple(p.key() for p in region.vertices)


def _reference_cycle(w, region):
    """The region cycle walked the long way: locate each region by its
    vertex signs, map it by ``transformed`` and stop at the first image
    whose canonical key is the region's."""
    orbit, cur = [region], region
    while True:
        i, cut = _scan_locate(w, cur)
        assert cut is None
        cur = cur.transformed(w.maps[i])
        if cur.canonical_key() == region.canonical_key():
            return orbit
        orbit.append(cur)


def test_frame_regions_match_transformed(ctx):
    # an image (l, t), built from its source's rotated-vertex table, has
    # exactly the vertices of the source mapped by rigid_map(l, t), in
    # the same order: every floor of the z4 and z14 towers, and every step
    # of the cycle of each known component
    w = ctx.wedge
    for label in ("z4", "z14"):
        for piece in ctx.return_system(label).pieces:
            table, l, t = SourceTable(piece.source), 0, ORIGIN
            tube = return_tube(w, piece)
            for floor, i in zip(tube, piece.itinerary):
                want = piece.source.transformed(rigid_map(l, t))
                assert _vertex_tuple(table.region(l, t)) == _vertex_tuple(want)
                assert _vertex_tuple(floor) == _vertex_tuple(want)
                l, t = w.step_raw(l, t, i)
            assert table.region(l, t) == piece.target
    # the walks' translations all have r = 1; a translation over r = 6,
    # not in lowest terms, at every turn
    z4 = SourceTable(ctx.domain("z4"))
    t = (2, 1, 4, -2, 6)
    for l in range(12):
        want = z4.source.transformed(rigid_map(l, t))
        assert _vertex_tuple(z4.region(l, t)) == _vertex_tuple(want)
    spiral, base, parts = _known_components(ctx)
    for region, period in spiral + base + parts:
        table, l, t = SourceTable(region), 0, ORIGIN
        for _ in range(period):
            want = region.transformed(rigid_map(l, t))
            got = table.region(l, t)
            assert _vertex_tuple(got) == _vertex_tuple(want)
            assert got.is_convex() == want.is_convex() and got.area2() == want.area2()
            i, cut = w.locate(table, l, t)
            assert cut is None
            l, t = w.step_raw(l, t, i)
        center = region.centroid()
        assert search.sends(l, t, center, center) and table.region(l, t) == region
        orbit = close_component(w, region).orbit
        reference = _reference_cycle(w, region)
        assert [_vertex_tuple(r) for r in orbit] == [_vertex_tuple(r) for r in reference]


def test_close_component_builds_its_cycle_from_the_walk(ctx, monkeypatch):
    # close_component is its cycle walk plus the orbit build: the walk's
    # period, rotation and counts, the region itself first and then the
    # table's region of each later motion, in walk order
    w = ctx.wedge
    spiral, base, parts = _known_components(ctx)
    for region, period in spiral + base + parts:
        comp = close_component(w, region)
        got_period, l, counts, center, table, motions = search._walk_cycle(w, region, 10**6)
        assert (comp.period, comp.rotation_l, comp.visit_counts) == (got_period, l, counts)
        assert comp.period == period == len(motions) == len(comp.orbit)
        assert comp.center == center and motions[0] == (0, ORIGIN)
        assert comp.orbit[0] is region
        assert comp.orbit[1:] == tuple(table.region(l, t) for l, t in motions[1:])
    # the walk itself builds a region only where the motion fixes the
    # centroid, which on a cycle is its closing step; the witness builds
    # one more per image whose placement against Z'_4 falls back to
    # overlap_status
    calls = Counter()
    real_region, real_sends = SourceTable.region, search.sends
    real_overlap = selfsim.overlap_status

    def region(*args):
        calls["region"] += 1
        return real_region(*args)

    def sends(*args):
        fixed = real_sends(*args)
        calls["fixed"] += fixed
        return fixed

    def overlap(*args):
        calls["overlap"] += 1
        return real_overlap(*args)

    monkeypatch.setattr(SourceTable, "region", region)
    monkeypatch.setattr(search, "sends", sends)
    monkeypatch.setattr(selfsim, "overlap_status", overlap)
    z4_parts = ctx.sim.Z4.convex_parts()
    walked = placed = 0
    for region, period in spiral:
        _, _, _, _, table, motions = search._walk_cycle(w, region, 10**6)
        walked += calls["region"]
        assert calls["region"] == calls["fixed"] == 1
        calls.clear()
        selfsim._return_period(table, motions, z4_parts)
        assert calls["region"] == calls["overlap"]
        placed += calls["region"]
        calls.clear()
    assert walked == 8 and placed < 40, placed


def test_walks_build_floors_from_frames(ctx, monkeypatch):
    # the level-3 towers build their 76,450 floors from raw images: no
    # ``transformed`` call and a QS3 normalised once per distinct raw
    # coordinate of a tube (567,660 coordinates, 113,577 of them distinct
    # within their tube); close_component walks a cycle as raw images
    w = ctx.wedge
    level3, z14 = ctx.return_system("level3"), ctx.return_system("z14")
    spiral, _, _ = _known_components(ctx)
    region, period = spiral[-1]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Region, "transformed", counted("transformed", Region.transformed))
    monkeypatch.setattr(QS3, "_make", staticmethod(counted("_make", QS3._make)))
    floors = sum(len(return_tube(w, p)) for p in level3.pieces)
    assert floors == 76450
    assert calls["transformed"] == 0
    assert calls["_make"] < 120_000
    assert close_component(w, region).period == period == 754
    assert calls["transformed"] == 0
    # within one tube, equal coordinate values are one object
    for piece in z14.pieces:
        seen = {}
        for floor in return_tube(w, piece):
            for p in floor.vertices:
                for c in (p.x, p.y):
                    assert seen.setdefault(c.key(), c) is c


def test_return_tube_rejects_a_wrong_symbol(ctx):
    w = ctx.wedge
    piece = max(ctx.return_system("z4").pieces, key=lambda p: p.return_time)
    j = piece.return_time // 2
    symbols = list(piece.itinerary)
    symbols[j] = symbols[j] % 6 + 1
    bad = dataclasses.replace(piece, itinerary=tuple(symbols))
    with pytest.raises(GraneError) as exc:
        return_tube(w, bad)
    assert exc.value.index == j


def test_return_tube_rejects_a_source_outside_the_wedge(ctx):
    w = ctx.wedge
    piece = ctx.return_system("z4").pieces[0]
    eps = Fraction(1, 64)
    outside = Region.bounded(
        [w.O[1], w.O[1] + w.dir_p.scaled(eps), w.apex - w.bisector_dir.scaled(eps)]
    )
    with pytest.raises(GraneError, match="wedge"):
        return_tube(w, dataclasses.replace(piece, source=outside))


def test_return_tube_restores_the_collector_state(ctx, monkeypatch):
    # the tower is built with the cyclic collector paused, and the call
    # leaves it as it found it: on, off, or on after a floor fails mid-tower
    w = ctx.wedge
    piece = max(ctx.return_system("z4").pieces, key=lambda p: p.return_time)
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert len(return_tube(w, piece)) == piece.return_time
            assert gc.isenabled() == enabled
    finally:
        gc.enable()
    # floor 3 fails through a wrong symbol at index 3, and each floor
    # built before it is observed with the collector paused
    symbols = list(piece.itinerary)
    symbols[3] = symbols[3] % 6 + 1
    bad = dataclasses.replace(piece, itinerary=tuple(symbols))
    real_region = SourceTable.region
    built = []

    def region(self, l, t):
        assert not gc.isenabled()
        built.append(l)
        return real_region(self, l, t)

    monkeypatch.setattr(SourceTable, "region", region)
    with pytest.raises(GraneError) as exc:
        return_tube(w, bad)
    assert exc.value.index == 3 and gc.isenabled() and len(built) == 3


def _young(objs):
    """The objects of ``objs`` that sit in the collector's generation 0 or 1."""
    ids = {id(o) for o in objs}
    return [o for g in (0, 1) for o in gc.get_objects(generation=g) if id(o) in ids]


def test_return_tube_runs_no_collection_and_leaves_no_cycle(ctx, collector_runs, monkeypatch):
    # the floors and tables form no reference cycle, so pausing the
    # collector frees nothing late: no collection runs while a z14 tower is
    # built or when the call returns, as the pause promotes the tower into
    # the oldest generation, and building and dropping every z14 tower
    # leaves no cyclic garbage
    w = ctx.wedge
    pieces = ctx.return_system("z14").pieces
    piece = max(pieces, key=lambda p: p.return_time)
    real_region = SourceTable.region
    seen = []

    def region(self, l, t):
        seen.append(l)
        return real_region(self, l, t)

    monkeypatch.setattr(SourceTable, "region", region)
    gc.collect()
    collector_runs.clear()
    tube = return_tube(w, piece)
    assert not collector_runs
    # one region per floor, and one more for the closure check
    assert len(tube) == len(seen) - 1 == piece.return_time
    monkeypatch.undo()
    assert all(map(gc.is_tracked, tube)) and not _young(tube)
    del tube
    gc.collect()
    towers = [return_tube(w, piece) for piece in pieces]
    assert sum(map(len, towers)) == sum(p.return_time for p in pieces)
    del towers
    assert gc.collect() == 0


def test_first_return_map_restores_the_collector_state(ctx, monkeypatch):
    # the walk runs with the cyclic collector paused, and the call leaves
    # it as it found it: on, off, or on after the event budget runs out
    w, z4 = ctx.wedge, ctx.domain("z4")
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert first_return_map(w, z4) == ctx.return_system("z4")
            assert gc.isenabled() == enabled
    finally:
        gc.enable()
    # Z'_4 maps 79 fragments: with a budget of 78 the walk raises, and
    # each of its 78 steps is observed with the collector paused
    real_step = type(w).step_raw
    steps = []

    def step_raw(self, l, t, i):
        assert not gc.isenabled()
        steps.append(i)
        return real_step(self, l, t, i)

    monkeypatch.setattr(type(w), "step_raw", step_raw)
    with pytest.raises(InconclusiveError):
        first_return_map(w, z4, max_events=78)
    assert gc.isenabled() and len(steps) == 78


def test_first_return_map_runs_no_collection_and_leaves_no_cycle(ctx, collector_runs):
    # the walk's itinerary nodes, tables and regions form no reference
    # cycle, so pausing the collector frees nothing late: no collection
    # runs during the z14 walk or when the call returns, as the pause
    # promotes the system into the oldest generation, and building and
    # dropping the z14 system leaves no cyclic garbage
    w, want = ctx.wedge, ctx.return_system("z14")
    gc.collect()
    collector_runs.clear()
    rs = first_return_map(w, want.domain)
    assert not collector_runs
    assert rs == want
    built = [rs, *rs.pieces, *(p.source for p in rs.pieces), *(p.target for p in rs.pieces)]
    assert all(map(gc.is_tracked, built)) and not _young(built)
    del rs, built
    gc.collect()
    rs = first_return_map(w, want.domain)
    assert len(rs.pieces) == 8
    del rs
    assert gc.collect() == 0


def test_verify_partition_runs_no_collection_and_leaves_no_cycle(ctx, collector_runs):
    # the partition builds its own return system, carves the tubes and
    # searches the components under one pause: no collection runs, the
    # pause promotes every floor and tube polygon into the oldest
    # generation, and the pool, cells and components form no cycle
    w, z4 = ctx.wedge, ctx.domain("z4")
    want = ctx.partition("z4").to_obj()
    gc.collect()
    collector_runs.clear()
    rep = verify_partition(w, z4, label="z4")
    assert not collector_runs
    assert rep.to_obj() == want
    built = [
        rep,
        *rep.return_system.pieces,
        *(floor for tube in rep.green_tubes for floor in tube),
        *(pol for c in rep.components for pol in c.tube),
    ]
    assert all(map(gc.is_tracked, built)) and not _young(built)
    del rep, built
    gc.collect()
    rep = verify_partition(w, z4, label="z4")
    assert rep.n_components == 7
    del rep
    assert gc.collect() == 0


def test_verify_partition_restores_the_collector_state(ctx, monkeypatch):
    # the carve and the component searches run with the collector paused,
    # and the call leaves it as it found it: on or off, also when a
    # component search fails mid-carve
    w, rs = ctx.wedge, ctx.return_system("z4")
    want = ctx.partition("z4").to_obj()
    real = search._component_from_cell
    calls = []
    fail_at = None

    def observed(*args):
        assert not gc.isenabled()
        calls.append(args[1])
        if len(calls) == fail_at:
            raise InconclusiveError("no seed in cell resolved to a component")
        return real(*args)

    monkeypatch.setattr(search, "_component_from_cell", observed)
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            rep = verify_partition(w, rs.domain, label="z4", return_system=rs)
            assert rep.to_obj() == want and gc.isenabled() == enabled
        assert len(calls) == 2 * rep.n_components
        # the third search fails, after two periodic tubes are carved
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            calls.clear()
            fail_at = 3
            with pytest.raises(InconclusiveError):
                verify_partition(w, rs.domain, return_system=rs)
            assert len(calls) == 3 and gc.isenabled() == enabled
    finally:
        gc.enable()


def test_collector_pause_promotes_once_and_only_from_an_enabled_collector():
    # nested pauses leave the collector as they found it, and only the
    # outermost exit of a pause that found it on promotes what was built
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with search._collector_paused():
                with search._collector_paused():
                    made = [[] for _ in range(3)]
                    assert not gc.isenabled()
                assert not gc.isenabled() and len(_young(made)) == 3
            assert gc.isenabled() == enabled
            assert len(_young(made)) == (0 if enabled else 3)
    finally:
        gc.enable()


def test_component_from_cell_keeps_no_failed_seed(ctx, monkeypatch):
    # a seed that fails before a later one resolves leaves no reference
    # cycle through its exception's traceback, and a cell whose every seed
    # fails reports the last failure's message
    w = ctx.wedge
    comp = ctx.partition("z4").components[0].component
    find = search.find_periodic_component
    calls = []

    def first_fails(*args):
        calls.append(args[1])
        if len(calls) == 1:
            raise GraneError("the seed hits a piece boundary")
        return find(*args)

    monkeypatch.setattr(search, "find_periodic_component", first_fails)
    gc.collect()
    got = search._component_from_cell(w, comp.region, search.ALG1_MAX_ITER)
    assert len(calls) == 2 and got == comp
    del got
    assert gc.collect() == 0

    def every_fails(*args):
        calls.append(args[1])
        raise GraneError(f"seed {len(calls)} hits a piece boundary")

    monkeypatch.setattr(search, "find_periodic_component", every_fails)
    calls.clear()
    with pytest.raises(InconclusiveError) as exc:
        search._component_from_cell(w, comp.region, search.ALG1_MAX_ITER)
    n = len(calls)
    assert n == 1 + 2 * len(comp.region.vertices)
    assert str(exc.value) == f"no seed in cell resolved to a component: seed {n} hits a piece boundary"


def test_first_return_structure_rejects_a_turned_piece(ctx, monkeypatch):
    # the check reports the pieces on which it verified the reversing
    # symmetry; a z14 piece whose map is composed with a 30° turn still has
    # iota(source) == target, but iota R iota R is no longer the identity
    res = run_checks(["first-return-structure"], ctx)[0]
    assert res.ok, res.error
    assert res.details["z4_reversible_pieces"] == res.details["z14_reversible_pieces"] == 8
    real = Context.return_system

    def corrupt(self, label):
        rs = real(self, label)
        if label != "z14":
            return rs
        piece = rs.pieces[0]
        turned = dataclasses.replace(piece, map=ROT[1].compose(piece.map))
        return dataclasses.replace(rs, pieces=(turned, *rs.pieces[1:]))

    monkeypatch.setattr(Context, "return_system", corrupt)
    res = run_checks(["first-return-structure"], ctx)[0]
    assert not res.ok
    assert res.error == "iota R iota R must be the identity on every z14 piece"


def test_whole_rocket_returns_in_one_step(ctx):
    rs = ctx.return_system("zp")
    assert all(p.return_time == 1 for p in rs.pieces)
    total = ZERO
    for p in rs.pieces:
        total = total + p.source.area2()
    assert total == ctx.wedge.Zp.area2()


def test_self_return_violation_detected(ctx):
    # a square centred at a rotation fixed point maps onto a rotated copy
    # of itself, which overlaps without containment
    w = ctx.wedge
    o1 = w.O[1]
    eps = Fraction(1, 64)
    square = Region.bounded(
        [
            o1 + Point(QS3(-eps), QS3(-eps)),
            o1 + Point(QS3(eps), QS3(-eps)),
            o1 + Point(QS3(eps), QS3(eps)),
            o1 + Point(QS3(-eps), QS3(eps)),
        ]
    )
    with pytest.raises(SelfReturnError):
        first_return_map(w, square)


def test_partition_z4(ctx):
    rep = ctx.partition("z4")
    assert rep.n_components == 7
    assert rep.exact_identity
    assert sorted(rep.periods) == [1, 2, 3, 3, 4, 54, 60]
    assert rep.green_area2 + rep.red_area2 == ctx.wedge.Zp.area2()


def test_partition_carve_rejects_a_periodic_tube_in_the_domain(ctx, monkeypatch):
    # the carve is the proof that the periodic tubes miss the domain: the
    # return sources, carved first, tile it, so a cycle polygon in it
    # cannot leave the pool whole
    rs = ctx.return_system("z4")
    source = rs.pieces[0].source
    find = search.find_periodic_component

    def entering(*args):
        comp = find(*args)
        return dataclasses.replace(comp, orbit=comp.orbit + (source,))

    monkeypatch.setattr(search, "find_periodic_component", entering)
    with pytest.raises(AssertionError, match="periodic tube polygons must not overlap"):
        verify_partition(ctx.wedge, rs.domain, return_system=rs)


def test_partition_makes_no_domain_test(ctx, monkeypatch):
    calls = Counter()
    overlap = search.overlap_status

    def counted(*args):
        calls["overlap_status"] += 1
        return overlap(*args)

    monkeypatch.setattr(search, "overlap_status", counted)
    rs = ctx.return_system("z4")
    rep = verify_partition(ctx.wedge, rs.domain, label="z4", return_system=rs)
    assert rep.to_obj() == ctx.partition("z4").to_obj()
    assert calls["overlap_status"] == 0


def test_partition_rejects_another_domains_return_system(ctx):
    # the carve's proof that red misses the domain needs the green sources
    # to tile this domain
    rs = ctx.return_system("z4")
    with pytest.raises(AssertionError, match="must be the domain.s"):
        verify_partition(ctx.wedge, ctx.return_system("z14").domain, return_system=rs)


def test_tower_areas_match_partition(ctx):
    # T' is injective, so the floors T'^j(A_i), 0 <= j < r_i, of a return
    # system are pairwise disjoint: green area is sum r_i * area2(A_i), and
    # the red area the CellPool partition carves out is the rest of Z'
    w = ctx.wedge
    sources = [p.source for p in ctx.return_system("z4").pieces]
    for label in ("z4", "z14"):
        rep = ctx.partition(label)
        pieces = ctx.return_system(label).pieces
        green = ZERO
        for p in pieces:
            green = green + p.source.area2() * p.return_time
        assert w.Zp.area2() - green == rep.red_area2
        floors = [pol for p in pieces for pol in return_tube(w, p)]
        red = [pol for pc in rep.components for pol in pc.tube]
        for a in sources:
            parts = a.convex_parts()
            assert area2_within(red, parts) == a.area2() - area2_within(floors, parts)


def test_validate_return_system_rejects_overlapping_pieces(ctx):
    rs = ctx.return_system("z4")
    pieces = rs.pieces + rs.pieces[:1]
    total = ZERO
    for p in pieces:
        total = total + p.source.area2()
    # a stand-in domain whose area matches, so only the overlap test can fail
    domain = Region.bounded([Point(ZERO, ZERO), Point(total, ZERO), Point(ZERO, QS3(1))])
    assert domain.area2() == total
    with pytest.raises(AssertionError, match="overlap"):
        _validate_return_system(ReturnSystem(domain, pieces))


def test_validate_return_system_rejects_a_missing_piece(ctx):
    # the remaining pieces are disjoint, so only the tiling test can fail
    rs = ctx.return_system("z4")
    with pytest.raises(AssertionError, match="return sources must tile the domain"):
        _validate_return_system(ReturnSystem(rs.domain, rs.pieces[1:]))


def _pool_area2(pool):
    return sum((pool.region(cid).area2() for cid in pool.cells), ZERO)


def test_cell_pool_exact_subtraction(ctx):
    w = ctx.wedge
    pool = CellPool(w.Zp)
    assert _pool_area2(pool) == w.Zp.area2()
    comp = ctx.base_components()[3]
    removed = pool.subtract(comp.region)
    assert removed == comp.region.area2()
    assert _pool_area2(pool) == w.Zp.area2() - comp.region.area2()
    # subtracting again removes nothing
    assert pool.subtract(comp.region).is_zero()


def _P(x, y):
    return Point(QS3(x), QS3(y))


def _no_split(*args):
    raise AssertionError("split_cleared called")


def test_cell_pool_skips_separated_cells(monkeypatch):
    pool = CellPool(Region.bounded([_P(4, 0), _P(4, 4), _P(0, 4)]))
    (cell,) = pool.cells.values()
    # the boxes overlap, but the edge line x + y = 8 has the cell on its
    # closed outer side (touching at the vertex (4, 4))
    poly = Region.bounded([_P(5, 3), _P(5, 5), _P(3, 5)])
    monkeypatch.setattr(search, "split_cleared", _no_split)
    assert pool.subtract(poly).is_zero()
    (kept,) = pool.cells.values()
    assert kept is cell


@pytest.mark.parametrize("lo", [2, 3])
def test_cell_pool_skips_a_cell_that_its_own_edge_separates(monkeypatch, lo):
    # no edge line of the square [lo, lo+2]^2 separates the triangle x, y > 0,
    # x + y < 4 from it, and x = lo and y = lo cut it; the triangle's own
    # edge x + y = 4 has the square on its closed outer side (touching at
    # (2, 2) when lo = 2), so the cell stays as it is, with no split
    pool = CellPool(Region.bounded([_P(0, 0), _P(4, 0), _P(0, 4)]))
    (cell,) = pool.cells.values()
    poly = Region.bounded([_P(lo, lo), _P(lo + 2, lo), _P(lo + 2, lo + 2), _P(lo, lo + 2)])
    monkeypatch.setattr(search, "split_cleared", _no_split)
    assert pool.subtract(poly).is_zero()
    (kept,) = pool.cells.values()
    assert kept is cell


def test_cell_pool_keeps_a_cell_that_a_line_off_the_directions_touches(monkeypatch):
    # the edge line y = x/3 of the triangle (0, 0), (6, 2), (0, 6) runs off
    # the 24 directions; the cell lies on its closed outer side, touching it
    # at (3, 1), and no edge of the cell along the directions separates the
    # two, so the scanned signs alone leave the cell as it is
    pool = CellPool(Region.bounded([_P(2, -1), _P(5, -1), _P(3, 1)]))
    (cell,) = pool.cells.values()
    poly = Region.bounded([_P(0, 0), _P(6, 2), _P(0, 6)])
    monkeypatch.setattr(search, "split_cleared", _no_split)
    assert pool.subtract(poly).is_zero()
    (kept,) = pool.cells.values()
    assert kept is cell


def test_cell_pool_removes_a_covered_cell_whole(monkeypatch):
    # every edge line of the polygon has the cell on its closed inner side,
    # touching it along an edge: no line cuts it, and it leaves whole
    tri = Region.bounded([_P(0, 0), _P(4, 0), _P(0, 4)])
    pool = CellPool(tri)
    monkeypatch.setattr(search, "split_cleared", _no_split)
    assert pool.subtract(tri) == tri.area2()
    assert not pool.cells


def _reference_cutting_lines(region, lines):
    """The cut test on field-built signs: ``Line.signs`` of every vertex,
    read by max and min."""
    cutting = []
    for ln in lines:
        sides = ln.signs(region.vertices)
        if max(sides) <= 0:
            return None
        if min(sides) < 0:
            cutting.append(ln)
    return cutting


def _through_lines(region):
    """``Line.through`` of each edge of a bounded region."""
    pts = region.vertices
    return [Line.through(a, b) for a, b in zip(pts, pts[1:] + pts[:1])]


class _ReferencePool:
    """The carve on field operations and ``Region`` cells, over the same
    grid and grid hits in the same order (``CellPool._candidates``):
    ``Line.through`` edge lines, ``_reference_cutting_lines`` on the cells'
    QS3 vertices, a split by ``split_convex`` of every cell some line cuts,
    and ``largest_cell`` as ``max`` by ``Region.area2``.  Every (cell,
    part) pair whose boxes meet is kept in ``met``."""

    GRID = CellPool.GRID
    _span = CellPool._span
    _candidates = CellPool._candidates

    def __init__(self, region):
        box = region.float_bbox()
        self._x0, self._y0 = box[0], box[1]
        self._sx = (box[2] - box[0]) / self.GRID or 1.0
        self._sy = (box[3] - box[1]) / self.GRID or 1.0
        self.cells, self._buckets, self._next_id, self.met = {}, {}, 0, []
        for part in region.convex_parts():
            self._add(part)

    def _add(self, cell):
        self.cells[self._next_id] = cell
        gx0, gx1, gy0, gy1 = self._span(cell.float_bbox())
        for gx in range(gx0, gx1 + 1):
            for gy in range(gy0, gy1 + 1):
                self._buckets.setdefault((gx, gy), set()).add(self._next_id)
        self._next_id += 1

    def _remove(self, cid):
        gx0, gx1, gy0, gy1 = self._span(self.cells.pop(cid).float_bbox())
        for gx in range(gx0, gx1 + 1):
            for gy in range(gy0, gy1 + 1):
                self._buckets[(gx, gy)].discard(cid)

    def largest_cell(self):
        return max(self.cells.values(), key=Region.area2)

    def subtract(self, poly):
        return sum((self._subtract_convex(part) for part in poly.convex_parts()), ZERO)

    def _subtract_convex(self, part):
        pbox = part.float_bbox()
        lines = _through_lines(part)
        removed = ZERO
        for cid in self._candidates(pbox):
            cell = self.cells[cid]
            if not boxes_overlap(cell.float_bbox(), pbox):
                continue
            self.met.append((cell, part))
            cutting = _reference_cutting_lines(cell, lines)
            if cutting is None:
                continue
            work, outside = cell, []
            for ln in cutting:
                if work is None:
                    break
                work, piece = split_convex(work, ln)
                if piece is not None:
                    outside.append(piece)
            if work is None:
                continue
            removed = removed + work.area2()
            self._remove(cid)
            for piece in outside:
                self._add(piece)
        return removed


def _pool_differences(pool, ref) -> list:
    """Where a pool and the field reference differ: the cell ids and their
    order, each cell's vertices (through ``CellPool.region``) and
    ``largest_cell``."""
    if list(pool.cells) != list(ref.cells):
        return ["cell ids or their order"]
    out = [f"cell {cid}" for cid, cell in ref.cells.items() if pool.region(cid).vertices != cell.vertices]
    if ref.cells and pool.largest_cell().vertices != ref.largest_cell().vertices:
        out.append("largest_cell")
    return out


class _RecordingPool(CellPool):
    """A ``CellPool`` that keeps every cell record it makes in ``made``."""

    def __init__(self, region):
        self.made = []
        super().__init__(region)

    def _add(self, m, raw, positions):
        super()._add(m, raw, positions)
        self.made.append(self.cells[self._next_id - 1])


@pytest.fixture(scope="module")
def z14_carve(ctx):
    """Z' carved by both pools as ``verify_partition`` carves it: the z14
    green tubes, then each component's tube in discovery order.  At each
    checkpoint, after the green tubes and after each tube, the pools'
    differences are kept, and after the tenth tube the cells left, as
    regions; the carve's splits are counted."""
    w = ctx.wedge
    green = [pol for p in ctx.return_system("z14").pieces for pol in return_tube(w, p)]
    tubes = [list(pc.tube) for pc in ctx.partition("z14").components]
    pool, ref = _RecordingPool(w.Zp), _ReferencePool(w.Zp)
    removed, differences, splits = [], [], Counter()
    split = search.split_cleared

    def counted(*args):
        splits["split_cleared"] += 1
        return split(*args)

    def refuse(*args):
        raise AssertionError("the carve signed every vertex")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "split_cleared", counted)
        mp.setattr(geom, "cutting_lines", refuse)
        for n, polys in enumerate([green] + tubes):
            removed += [(pool.subtract(pol), ref.subtract(pol)) for pol in polys]
            differences.append(_pool_differences(pool, ref))
            if n == 10:
                cells = [pool.region(cid) for cid in pool.cells]
    polys = green + [pol for tube in tubes for pol in tube]
    return polys, pool, ref, removed, differences, cells, splits["split_cleared"]


def test_cell_pool_carve_matches_field_reference(z14_carve):
    polys, pool, ref, removed, differences, cells, splits = z14_carve
    # the 37 nonconvex tube polygons are carved as triangles, whose
    # diagonals run at multiples of 30 degrees
    assert sum(not pol.is_convex() for pol in polys) == 37
    assert all(a == b == pol.area2() for (a, b), pol in zip(removed, polys))
    # the green tubes and the 20 components' tubes; the pools end empty
    assert differences == [[]] * 21
    assert not pool.cells and not ref.cells
    # the skip test saves the splits whose pieces the polygon would drop
    assert splits <= 7000
    # crossing points bring coordinates over 11
    assert any(c.r % 11 == 0 for cell in cells for v in cell.vertices for c in (v.x, v.y))


def _position_by_angle(x, y):
    """``direction_position`` of the vector (x, y), decided exactly on the
    window that its float angle picks: 2j when it is a positive multiple of
    direction j, else 2j + 1 when it is strictly between j and j + 1."""
    dirs = [Point(QS3._make(x0, x1, 1), QS3._make(y0, y1, 1)) for x0, x1, y0, y1 in DIRECTIONS]
    v = Point(x, y)
    angle = math.degrees(math.atan2(float(y), float(x))) % 360
    j = round(angle / 15) % 24
    if dirs[j].cross(v).is_zero() and dirs[j].dot(v).sign() > 0:
        return 2 * j
    j = int(angle // 15)
    assert dirs[j].cross(v).sign() > 0 > dirs[(j + 1) % 24].cross(v).sign()
    return 2 * j + 1


def test_cell_pool_records_carry_their_positions_and_supports(z14_carve):
    # every cell the z14 carve makes: its edge positions, carried over the
    # splits, are those of its vertices, and sup[d] attains the largest
    # n_d . x over its vertices
    pool = z14_carve[1]
    odd = 0
    for m, raw, positions, sup, box in pool.made:
        pts = [raw_point(*v, m) for v in raw]
        n = len(pts)
        want = [_position_by_angle(b.y - a.y, a.x - b.x) for a, b in zip(pts, pts[1:] + pts[:1])]
        assert list(positions) == want
        odd += any(e % 2 for e in positions)
        for d, (x0, x1, y0, y1) in enumerate(DIRECTIONS):
            values = [
                (x0 * xp + 3 * x1 * xq + y0 * yp + 3 * y1 * yq, x0 * xq + x1 * xp + y0 * yq + y1 * yp)
                for xp, xq, yp, yq in raw
            ]
            t0, t1 = values[sup[d]]
            assert all(pair_sign(t0 - v0, t1 - v1) >= 0 for v0, v1 in values)
        assert box == Region(pts).float_bbox()
        assert n == len(positions) == len(raw)
    # the diagonals of Z''s triangles lie between two of the directions
    assert len(pool.made) == 6599 and odd == 577


def test_cell_pool_carves_lines_off_the_directions_as_the_reference(ctx, monkeypatch):
    # triangles fanned from a point between each base component's centroid
    # and its vertex 0 have edges off the 24 directions: the cut test scans
    # the cells' vertex ranges for them, and the carve still matches the
    # field reference
    w = ctx.wedge
    pool, ref = CellPool(w.Zp), _ReferencePool(w.Zp)
    for pol in [pol for p in ctx.return_system("z4").pieces for pol in return_tube(w, p)]:
        assert pool.subtract(pol) == ref.subtract(pol) == pol.area2()
    fans = []
    for comp in ctx.base_components().values():
        pts = comp.region.vertices
        c = Point((comp.center.x * 3 + pts[0].x) / 4, (comp.center.y * 3 + pts[0].y) / 4)
        fans += [Region.bounded([c, a, b]) for a, b in zip(pts, pts[1:] + pts[:1])]
    odd = [
        pol
        for pol in fans
        if any(e % 2 for e in edge_positions(clear_points(pol.vertices)[1]))
    ]
    assert len(odd) > 10
    scans = Counter()
    scan = search._range_signs

    def counted(*args):
        top, bottom = scan(*args)
        scans[top > 0 > bottom] += 1
        return top, bottom

    monkeypatch.setattr(search, "_range_signs", counted)
    for pol in odd:
        assert pool.subtract(pol) == ref.subtract(pol)
        assert _pool_differences(pool, ref) == []
    # scanned lines that cut a cell, and ones that do not
    assert scans[True] > 10 and scans[False] > 10


def test_cutting_lines_matches_the_field_reference(z14_carve):
    # the one cut test, on cleared vertices, against max and min of
    # Line.signs, for every pair the carve meets and both kinds of lines
    _, _, ref, _, _, _, _ = z14_carve
    assert len(ref.met) > 1000

    def indices(cut, lines):
        return None if cut is None else [lines.index(ln) for ln in cut]

    answers = set()
    for cell, part in ref.met:
        cleared = clear_points(cell.vertices)
        through = _through_lines(part)
        want = indices(_reference_cutting_lines(cell, through), through)
        assert indices(cutting_lines(*cleared, through), through) == want
        lines = integer_edge_lines(part.vertices)
        assert indices(cutting_lines(*cleared, lines), lines) == want
        answers.add("none" if want is None else "cut" if want else "inside")
    assert answers == {"none", "inside", "cut"}


def test_integer_edge_lines_match_line_through(z14_carve):
    # one edge per direction and edge denominator, from the carved parts
    # and the cells left: the directions are the 24 multiples of 15
    # degrees and the 4 diagonals of the triangles of Z'
    polys, _, _, _, _, cells, _ = z14_carve
    sample = {}
    for poly in [part for pol in polys for part in pol.convex_parts()] + cells:
        pts = poly.vertices
        n = len(pts)
        for i in range(n):
            a, b = pts[i], pts[(i + 1) % n]
            angle = math.degrees(math.atan2(float(b.y - a.y), float(b.x - a.x)))
            key = (round(angle, 6), math.lcm(a.x.r, a.y.r, b.x.r, b.y.r))
            sample.setdefault(key, (poly, i))
    directions = {angle for angle, _ in sample}
    denominators = {d for _, d in sample}
    assert set(range(-165, 181, 15)) < directions and len(directions) == 28
    assert {1, 2, 3} <= denominators and any(d % 11 == 0 for d in denominators)
    crossings = 0
    for poly, i in sample.values():
        pts = poly.vertices
        a, b = pts[i], pts[(i + 1) % len(pts)]
        ln, ref = integer_edge_lines(pts)[i], Line.through(a, b)
        assert all(c.r == 1 for c in (ln.nx, ln.ny, ln.c))
        assert ln.canonical_key() == ref.canonical_key()
        # the reflection of the centroid through the edge's midpoint is
        # across the line, and the segment meets it at that midpoint
        p = poly.centroid()
        q = a + b - p
        mid = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
        assert ln.signs((p, q)) == ref.signs((p, q)) == [1, -1]
        assert ln.crossing(p, q) == ref.crossing(p, q) == mid
        box = poly.float_bbox()
        for cell in cells:
            if cell is poly or not boxes_overlap(cell.float_bbox(), box):
                continue
            vs = cell.vertices
            signs = ln.signs(vs)
            assert signs == ref.signs(vs)
            for j in range(len(vs)):
                u, v = vs[j], vs[(j + 1) % len(vs)]
                if signs[j] * signs[(j + 1) % len(vs)] < 0:
                    assert ln.crossing(u, v) == ref.crossing(u, v)
                    crossings += 1
    assert crossings > 0


def test_cell_pool_grid_misses_no_cell(ctx, monkeypatch):
    # every cell whose proven box meets a part's box is a grid candidate,
    # from the first subtraction, which meets the triangles of Z', on
    first_near = []
    subtract = CellPool._subtract_convex

    def checked(pool, part):
        box = part.float_bbox()
        near = {cid for cid, c in pool.cells.items() if boxes_overlap(c[4], box)}
        assert near <= pool._candidates(box)
        if not first_near:
            first_near.append(near)
        return subtract(pool, part)

    monkeypatch.setattr(CellPool, "_subtract_convex", checked)
    w = ctx.wedge
    rs = ctx.return_system("z4")
    rep = verify_partition(w, rs.domain, label="z4", return_system=rs)
    assert rep.to_obj() == ctx.partition("z4").to_obj()
    n_triangles = len(w.Zp.convex_parts())
    assert n_triangles == 4
    assert first_near[0] and first_near[0] <= set(range(n_triangles))


def test_piece_faces_are_the_piece_lines(ctx):
    # FORMS[faces[i][j]] = (e, c) puts alpha_i on n_e . x <= c, with
    # equality on the vertices of edge line j
    w = ctx.wedge
    for i, piece in w.alpha.items():
        lines = piece.edge_lines()
        assert len(w.faces[i]) == len(lines)
        for k, ln in zip(w.faces[i], lines):
            e, cp, cq, cr = FORMS[k]
            c = QS3._make(cp, cq, cr)
            n = SIDE_NORMALS[e]
            for v, s in zip(piece.vertices, ln.signs(piece.vertices)):
                assert (n.dot(v) - c).sign() == -s


def test_close_component_rejects_a_nonconvex_region(ctx):
    # the marks read support values, which place only a convex region
    z4 = ctx.sim.Z4
    assert not z4.is_convex() and ctx.wedge.in_closed_wedge(z4)
    with pytest.raises(InconclusiveError, match="not convex"):
        close_component(ctx.wedge, z4)
