from fractions import Fraction

import pytest

from dodeca import search
from dodeca.errors import InconclusiveError, SelfReturnError
from dodeca.field import QS3, ZERO
from dodeca.geom import Point, Region
from dodeca.periods import period_of_h
from dodeca.search import (
    CellPool,
    _area2_within,
    component_periods,
    find_periodic_component,
    first_return_map,
    return_tube,
)


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
    assert orbit[-1].transformed(w.maps[w.piece_of(orbit[-1])]) == comp.region
    again = find_periodic_component(w, orbit[5].interior_point())
    assert again.region == orbit[5]


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
            assert _area2_within(red, a) == a.area2() - _area2_within(floors, a)


def test_cell_pool_exact_subtraction(ctx):
    w = ctx.wedge
    pool = CellPool(w.Zp)
    assert pool.total_area2() == w.Zp.area2()
    comp = ctx.base_components()[3]
    removed = pool.subtract(comp.region)
    assert removed == comp.region.area2()
    assert pool.total_area2() == w.Zp.area2() - comp.region.area2()
    # subtracting again removes nothing
    assert pool.subtract(comp.region).is_zero()
