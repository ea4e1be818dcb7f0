import pytest

from dodeca.field import qs3
from dodeca.geom import Point, Region
from dodeca.render import Scene, render_svg, scene_components, scene_table


def unit_square():
    return Region.bounded(
        [Point(qs3(0), qs3(0)), Point(qs3(1), qs3(0)), Point(qs3(1), qs3(1)), Point(qs3(0), qs3(1))]
    )


def test_empty_scene_rejected():
    with pytest.raises(ValueError):
        render_svg(Scene())


def test_duplicate_labels_rejected():
    sc = Scene()
    sc.add_region("a", unit_square())
    sc.add_region("a", unit_square())
    with pytest.raises(ValueError):
        render_svg(sc)


def test_unbounded_without_view_box_rejected():
    sc = Scene()
    wedge = Region.unbounded(
        Point(qs3(0), qs3(1)), [Point(qs3(0), qs3(0))], Point(qs3(1), qs3(0))
    )
    sc.add_region("w", wedge)
    with pytest.raises(ValueError):
        render_svg(sc)


def test_unbounded_clipped_to_view_box():
    sc = Scene()
    wedge = Region.unbounded(
        Point(qs3(0), qs3(1)), [Point(qs3(0), qs3(0))], Point(qs3(1), qs3(0))
    )
    sc.add_region("w", wedge)
    sc.set_view(Point(qs3(-1), qs3(-1)), Point(qs3(2), qs3(2)))
    data = render_svg(sc)
    assert b"<polygon" in data


def test_table_scene_has_twelve_gon(ctx):
    t, w = ctx.system
    data = render_svg(scene_table(t, w))
    text = data.decode()
    gon = next(
        line for line in text.splitlines() if 'data-label="table"' in line
    )
    assert gon.count(",") == 12


def test_byte_determinism(ctx):
    t, w = ctx.system
    a = render_svg(scene_table(t, w))
    b = render_svg(scene_table(t, w))
    assert a == b
    comps = list(ctx.base_components().values())
    c = render_svg(scene_components(w, comps))
    d = render_svg(scene_components(w, comps))
    assert c == d


def test_fixed_precision_output(ctx):
    t, w = ctx.system
    text = render_svg(scene_table(t, w)).decode()
    # every coordinate is printed with exactly nine decimals
    import re

    for m in re.finditer(r'points="([^"]+)"', text):
        for pair in m.group(1).split():
            for coord in pair.split(","):
                assert re.fullmatch(r"-?\d+\.\d{9}", coord), coord
