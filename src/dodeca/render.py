"""Deterministic SVG and JSON emission of regions, orbits and figures.

Exact coordinates are converted to floats only at emission time, printed
with a fixed 9-decimal format, and layers are written in insertion order,
so identical scenes produce byte-identical files on every platform.
Unbounded regions are clipped exactly to the scene's view box before any
float conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .field import QS3
from .geom import Line, Point, Region, clip_convex

PRECISION = 9

_STYLE = (
    "polygon,path,circle{vector-effect:non-scaling-stroke}"
    ".table{fill:#d9d9d9;stroke:#444;stroke-width:1}"
    ".mirror{fill:#f2f2f2;stroke:#999;stroke-width:0.7}"
    ".ring{fill:none;stroke:#1f77b4;stroke-width:1.2}"
    ".rocket{fill:#eaf3fb;stroke:#1f77b4;stroke-width:1}"
    ".piece{fill:none;stroke:#7f7f7f;stroke-width:0.8}"
    ".component{fill:#c7e9c0;stroke:#2ca02c;stroke-width:0.8}"
    ".green{fill:#e5f5e0;stroke:#74c476;stroke-width:0.35}"
    ".red{fill:#fcbba1;stroke:#cb181d;stroke-width:0.35}"
    ".spiral{fill:#fdd0a2;stroke:#e6550d;stroke-width:0.8}"
    ".accent{fill:#d62728;stroke:none}"
    ".point{fill:#000;stroke:none}"
    ".orbit{fill:none;stroke:#9467bd;stroke-width:0.7}"
)


@dataclass
class Layer:
    label: str
    kind: str  # "region" | "point"
    geometry: object
    style: str = "piece"


@dataclass
class Scene:
    """Ordered drawing list with an exact view box."""

    layers: list = field(default_factory=list)
    view_lo: Point | None = None
    view_hi: Point | None = None

    def add_region(self, label: str, region: Region, style: str = "piece"):
        self.layers.append(Layer(label, "region", region, style))

    def add_point(self, label: str, p: Point, style: str = "point"):
        self.layers.append(Layer(label, "point", p, style))

    def set_view(self, lo: Point, hi: Point):
        self.view_lo, self.view_hi = lo, hi


def _fmt(v: float) -> str:
    out = f"{v:.{PRECISION}f}"
    return "0." + "0" * PRECISION if out == "-0." + "0" * PRECISION else out


def _auto_view(scene: Scene):
    xs = []
    ys = []
    for layer in scene.layers:
        if layer.kind == "region":
            if not layer.geometry.is_bounded:
                raise ValueError(
                    f"layer {layer.label!r}: unbounded region needs an explicit view box"
                )
            pts = layer.geometry.vertices
        else:
            pts = [layer.geometry]
        xs.extend(p.x for p in pts)
        ys.extend(p.y for p in pts)
    lo = Point(min(xs), min(ys))
    hi = Point(max(xs), max(ys))
    pad_x = (hi.x - lo.x) / 20
    pad_y = (hi.y - lo.y) / 20
    return Point(lo.x - pad_x, lo.y - pad_y), Point(hi.x + pad_x, hi.y + pad_y)


def _clip_rect_lines(lo: Point, hi: Point):
    from .field import ONE, ZERO

    return [
        Line(ONE, ZERO, lo.x),  # x >= lo.x
        Line(-ONE, ZERO, -hi.x),  # x <= hi.x
        Line(ZERO, ONE, lo.y),
        Line(ZERO, -ONE, -hi.y),
    ]


def render_svg(scene: Scene) -> bytes:
    """Standalone SVG 1.1 bytes; identical scenes give identical bytes."""
    if not scene.layers:
        raise ValueError("empty scene")
    labels = [layer.label for layer in scene.layers]
    if len(set(labels)) != len(labels):
        raise ValueError("layer labels must be unique")
    if scene.view_lo is None:
        lo, hi = _auto_view(scene)
    else:
        lo, hi = scene.view_lo, scene.view_hi
    clip = _clip_rect_lines(lo, hi)

    w = float(hi.x - lo.x)
    h = float(hi.y - lo.y)
    x0, y1 = float(lo.x), float(hi.y)

    def sx(p: Point) -> str:
        return _fmt(float(p.x) - x0)

    def sy(p: Point) -> str:
        # flip: SVG y grows downward
        return _fmt(y1 - float(p.y))

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="0 0 {_fmt(w)} {_fmt(h)}" width="720" height="{_fmt(720 * h / w)}">'
        ),
        f"<style>{_STYLE}</style>",
    ]
    dot = max(w, h) / 150.0
    for layer in scene.layers:
        if layer.kind == "region":
            reg = layer.geometry
            if not reg.is_bounded:
                for ln in clip:
                    reg = clip_convex(reg, ln, +1)
                    if reg is None:
                        break
                if reg is None or not reg.is_bounded:
                    continue
            pts = " ".join(f"{sx(p)},{sy(p)}" for p in reg.vertices)
            out.append(
                f'<polygon class="{layer.style}" data-label="{layer.label}" points="{pts}"/>'
            )
        else:
            p = layer.geometry
            out.append(
                f'<circle class="{layer.style}" data-label="{layer.label}" '
                f'cx="{sx(p)}" cy="{sy(p)}" r="{_fmt(dot)}"/>'
            )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


# -- scene builders -----------------------------------------------------------------


def scene_table(table, w) -> Scene:
    """The table, the twelve mirrored tables and the invariant necklace."""
    sc = Scene()
    sc.add_region("necklace", w.Z, "ring")
    sc.add_region("table", table.polygon, "table")
    for i in range(12):
        sc.add_region(f"mirror-{i}", table.mirrored[i], "mirror")
    sc.add_region("rocket", w.Zp, "rocket")
    return sc


def scene_components(w, components) -> Scene:
    """The wedge pieces with periodic components and their centers."""
    sc = Scene()
    lo = Point(QS3(-5), QS3(0))
    hi = Point(QS3(3), QS3(9))
    sc.set_view(lo, hi)
    sc.add_region("rocket", w.Zp, "rocket")
    for i in range(1, 7):
        sc.add_region(f"alpha-{i}", w.alpha[i], "piece")
    for k, comp in enumerate(components):
        sc.add_region(f"component-{k}", comp.region, "component")
        sc.add_point(f"center-{k}", comp.center, "accent")
    return sc


def scene_spiral(s, witness) -> Scene:
    """The rockets of the contraction and the spiral of components."""
    sc = Scene()
    sc.add_region("Z4", s.Z4, "rocket")
    sc.add_region("Z14", s.Z14, "piece")
    sc.add_region("X", s.X, "ring")
    for n, reg in enumerate(witness.spiral):
        sc.add_region(f"Y-{n}", reg, "spiral")
    sc.add_point("y", witness.y, "accent")
    return sc


def scene_partition(report) -> Scene:
    """Return tubes (green) and periodic tubes (red) tiling the rocket."""
    sc = Scene()
    sc.add_region("domain", report.return_system.domain, "rocket")
    for i, tube in enumerate(report.green_tubes):
        for j, pol in enumerate(tube):
            sc.add_region(f"green-{i}-{j}", pol, "green")
    for i, pc in enumerate(report.components):
        for j, pol in enumerate(pc.tube):
            sc.add_region(f"red-{i}-{j}", pol, "red")
    return sc
