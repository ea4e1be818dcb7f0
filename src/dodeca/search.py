"""Periodic components, first-return maps, and exact tube partitions.

Three layers build on the wedge map T':

* :func:`find_periodic_component`: given a periodic point, carry a region
  through the dynamics, splitting it by the piece boundaries each step,
  until the region repeats; the result is the maximal open polygon whose
  points share the starting point's symbol sequence.

* :func:`first_return_map`: the first-return system of a polygon S: pieces
  mapped back into S by an isometry after a fixed number of T' steps, each
  fragment split only by the one split line that cuts it.

* :func:`verify_partition`: tile the invariant rocket Z' exactly by the
  forward tubes of the return pieces of S plus the tubes of the periodic
  components that never enter S, with an exact (zero-tolerance) area
  identity, by carving the tubes out of an arrangement of convex cells.
  :func:`red_fraction_check` reads red areas from the return tubes alone.

All areas below are carried as *doubled* areas (``area2``) to stay in the
field without spurious halving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, GraneError, InconclusiveError, SelfReturnError
from .field import QS3, ZERO
from .geom import (
    INTERIOR,
    AffMap,
    Point,
    Region,
    boxes_overlap,
    clip_convex,
    intersection_area2,
    overlap_status,
    split_region,
)
from .periods import period_of_h
from .table import WedgeSystem, rotation_index

ALG1_MAX_ITER = 10**6
ALG2_MAX_EVENTS = 10**5


@dataclass(frozen=True)
class Component:
    """A periodic component of the wedge map."""

    region: Region
    period: int  # least n with T'^n mapping the region onto itself
    rotation_l: int  # T'^period acts on the region as rotation by l*pi/6
    center: Point  # centroid == rotation center
    visit_counts: tuple  # visits to alpha_1..alpha_6 over one region cycle
    orbit: tuple = field(compare=False, repr=False)  # the region cycle

    def to_obj(self) -> dict:
        from .geom import region_to_obj

        return {
            "region": region_to_obj(self.region),
            "period_tprime": self.period,
            "rotation_l": self.rotation_l,
            "center": [self.center.x.literal(), self.center.y.literal()],
            "visit_counts": list(self.visit_counts),
        }


@dataclass(frozen=True)
class PeriodInfo:
    """Point periods of a component, under T' and under T."""

    center_per_tprime: int
    noncenter_per_tprime: int
    center_per_t: int
    noncenter_per_t: int
    centrally_symmetric: bool

    def to_obj(self) -> dict:
        return {
            "center_per_tprime": self.center_per_tprime,
            "noncenter_per_tprime": self.noncenter_per_tprime,
            "center_per_t": self.center_per_t,
            "noncenter_per_t": self.noncenter_per_t,
            "centrally_symmetric": self.centrally_symmetric,
        }


def find_periodic_component(
    w: WedgeSystem, start: Point, max_iter: int = ALG1_MAX_ITER
) -> Component:
    """Periodic component containing ``start`` (which must be periodic).

    Carries a region U (initially the whole wedge) along the orbit,
    cutting it down to the visited piece before each step.  When U repeats
    exactly, it is pushed forward until the starting point is interior.

    Raises GraneError when the orbit hits a piece boundary and
    InconclusiveError when the cap is exhausted (the point may then be
    aperiodic).
    """
    if w.wedge.classify(start) != INTERIOR:
        raise DomainError("start point must be interior to the wedge")
    region = w.wedge
    p = start
    seen = {region.canonical_key()}
    for _ in range(max_iter):
        i = w.piece_index(p)
        region = w.restrict_to_piece(region, i).transformed(w.maps[i])
        p = w.maps[i].apply(p)
        key = region.canonical_key()
        if key in seen:
            break
        seen.add(key)
    else:
        raise InconclusiveError(
            "no region recurrence; point may be aperiodic", iterations=max_iter
        )
    for _ in range(max_iter):
        if region.classify(start) == INTERIOR:
            break
        i = w.piece_index(p)
        region = w.restrict_to_piece(region, i).transformed(w.maps[i])
        p = w.maps[i].apply(p)
    else:
        raise InconclusiveError("component never returned over the start point")
    if not region.is_bounded:
        raise InconclusiveError("recurrent region is unbounded")
    return _close_component(w, region, max_iter)


def _close_component(w: WedgeSystem, region: Region, max_iter: int) -> Component:
    """Walk the region cycle once to get period, rotation and visit counts."""
    center = region.centroid()
    counts = [0] * 6
    key0 = region.canonical_key()
    cur = region
    composed = AffMap.identity()
    period = 0
    orbit = [region]
    while True:
        i = w.piece_of(cur)
        cur = cur.transformed(w.maps[i])
        composed = w.maps[i].compose(composed)
        counts[i - 1] += 1
        period += 1
        if cur.canonical_key() == key0:
            break
        orbit.append(cur)
        if period > max_iter:
            raise InconclusiveError("region cycle did not close", iterations=max_iter)
    l = rotation_index(composed)
    if l is None:
        raise InconclusiveError("cycle map is not a rotation by a 30° multiple")
    if l == 0:
        if composed != AffMap.identity():
            raise InconclusiveError("cycle map is a nontrivial translation")
    else:
        if composed.fixed_point() != center:
            raise InconclusiveError("cycle rotation center differs from centroid")
    expected_l = (6 * period - sum((i + 1) * c for i, c in enumerate(counts))) % 12
    assert l == expected_l
    return Component(region, period, l, center, tuple(counts), tuple(orbit))


def component_periods(comp: Component) -> PeriodInfo:
    """Point periods per the component structure rules.

    The center has the component's T'-period; any other point needs
    12/gcd(l, 12) extra turns of the internal rotation.  T-periods follow
    from the visit counts by ``period_of_h``.  A centrally symmetric
    component whose center has odd T-period doubles the T-period of its
    non-center points; the computed values are cross-checked against that
    rule.
    """
    k = 12 // math.gcd(comp.rotation_l, 12)
    center_t = period_of_h(comp.visit_counts)
    noncenter_t = period_of_h([c * k for c in comp.visit_counts])
    sym = comp.region == comp.region.transformed(AffMap.point_reflection(comp.center))
    if sym and center_t % 2 == 1:
        assert noncenter_t == 2 * center_t
    else:
        assert noncenter_t == center_t
    return PeriodInfo(comp.period, comp.period * k, center_t, noncenter_t, sym)


# -- first-return maps -----------------------------------------------------------


@dataclass(frozen=True)
class ReturnPiece:
    source: Region
    target: Region
    map: AffMap
    return_time: int

    def to_obj(self) -> dict:
        from .geom import region_to_obj

        return {
            "source": region_to_obj(self.source),
            "target": region_to_obj(self.target),
            "return_time": self.return_time,
            "matrix": [
                self.map.m00.literal(),
                self.map.m01.literal(),
                self.map.m10.literal(),
                self.map.m11.literal(),
            ],
            "translation": [self.map.tx.literal(), self.map.ty.literal()],
        }


@dataclass(frozen=True)
class ReturnSystem:
    domain: Region
    pieces: tuple

    def to_obj(self) -> dict:
        from .geom import region_to_obj

        return {
            "domain": region_to_obj(self.domain),
            "pieces": [p.to_obj() for p in self.pieces],
        }

    def shape_census(self):
        """Sorted vertex counts of the sources, plus the nonconvex count."""
        sizes = sorted(len(p.source.vertices) for p in self.pieces)
        nonconvex = sum(1 for p in self.pieces if not p.source.is_convex())
        return sizes, nonconvex


def first_return_map(
    w: WedgeSystem, domain: Region, max_events: int = ALG2_MAX_EVENTS
) -> ReturnSystem:
    """First-return system of a bounded open polygon under T'.

    Locate each pending fragment: split it by the one split line that cuts
    it, or map it by its piece isometry and retire it if it lands inside
    the domain.  Each retired fragment is pulled back through its composed
    isometry to give the source piece.  The domain must have the clean
    self-return property: a mapped fragment that straddles the domain
    boundary raises SelfReturnError.
    """
    if not domain.is_bounded:
        raise DomainError("return domain must be bounded")
    parts = domain.convex_parts()
    pending = [(domain, AffMap.identity(), 0)]
    finished = []
    events = 0
    while pending:
        pol, f, n = pending.pop()
        i, cut = w.locate(pol)
        if cut is not None:
            pending.extend((part, f, n) for part in split_region(pol, cut))
            continue
        events += 1
        if events > max_events:
            raise InconclusiveError(
                "first-return expansion exceeded the event budget",
                iterations=max_events,
            )
        image = pol.transformed(w.maps[i])
        f2 = w.maps[i].compose(f)
        status = overlap_status(image, parts)
        if status == "inside":
            finished.append((image, f2, n + 1))
        elif status == "disjoint":
            pending.append((image, f2, n + 1))
        else:
            raise SelfReturnError("mapped fragment straddles the return domain")
    pieces = []
    for target, f, n in finished:
        source = target.transformed(f.inverse())
        assert source.transformed(f) == target
        pieces.append(ReturnPiece(source, target, f, n))
    pieces.sort(key=lambda p: p.source.canonical_key())
    rs = ReturnSystem(domain, tuple(pieces))
    _validate_return_system(rs)
    return rs


def _validate_return_system(rs: ReturnSystem):
    total = ZERO
    for p in rs.pieces:
        total = total + p.source.area2()
    assert total == rs.domain.area2()
    n = len(rs.pieces)
    for i in range(n):
        for j in range(i + 1, n):
            for a, b in (
                (rs.pieces[i].source, rs.pieces[j].source),
                (rs.pieces[i].target, rs.pieces[j].target),
            ):
                acc = ZERO
                for part in b.convex_parts():
                    acc = acc + intersection_area2(a, part)
                assert acc.is_zero()


def return_tube(w: WedgeSystem, piece: ReturnPiece):
    """Forward images of the source for 0 <= j < return_time.

    The last image maps onto the target in one more step; that closure is
    asserted.
    """
    tube = [piece.source]
    cur = piece.source
    for _ in range(piece.return_time - 1):
        cur = cur.transformed(w.maps[w.piece_of(cur)])
        tube.append(cur)
    assert cur.transformed(w.maps[w.piece_of(cur)]) == piece.target
    return tube


# -- exact cell arrangement for tube subtraction ----------------------------------


class CellPool:
    """Disjoint convex open cells tiling what is left of a region.

    Subtracting a polygon replaces each overlapping cell by its exact
    difference pieces; the removed (doubled) area is returned so callers
    can assert that claims never overlap.  Cells are indexed by a uniform
    float grid (conservative boxes), so subtraction only touches nearby
    cells; the grid is a prefilter only, every hit is decided exactly.
    """

    GRID = 192

    def __init__(self, region: Region):
        box = region.float_bbox()
        self._x0, self._y0 = box[0], box[1]
        self._sx = (box[2] - box[0]) / self.GRID or 1.0
        self._sy = (box[3] - box[1]) / self.GRID or 1.0
        self.cells = {}
        self._buckets = {}
        self._next_id = 0
        for part in region.convex_parts():
            self._add(part)

    def _span(self, box):
        gx0 = max(0, min(self.GRID - 1, int((box[0] - self._x0) / self._sx)))
        gx1 = max(0, min(self.GRID - 1, int((box[2] - self._x0) / self._sx)))
        gy0 = max(0, min(self.GRID - 1, int((box[1] - self._y0) / self._sy)))
        gy1 = max(0, min(self.GRID - 1, int((box[3] - self._y0) / self._sy)))
        return gx0, gx1, gy0, gy1

    def _add(self, cell: Region):
        cid = self._next_id
        self._next_id += 1
        self.cells[cid] = cell
        gx0, gx1, gy0, gy1 = self._span(cell.float_bbox())
        for gx in range(gx0, gx1 + 1):
            for gy in range(gy0, gy1 + 1):
                self._buckets.setdefault((gx, gy), set()).add(cid)

    def _remove(self, cid: int):
        cell = self.cells.pop(cid)
        gx0, gx1, gy0, gy1 = self._span(cell.float_bbox())
        for gx in range(gx0, gx1 + 1):
            for gy in range(gy0, gy1 + 1):
                self._buckets[(gx, gy)].discard(cid)

    def total_area2(self) -> QS3:
        total = ZERO
        for c in self.cells.values():
            total = total + c.area2()
        return total

    def __len__(self):
        return len(self.cells)

    def largest_cell(self) -> Region:
        return max(self.cells.values(), key=Region.area2)

    def subtract(self, poly: Region) -> QS3:
        removed = ZERO
        for part in poly.convex_parts():
            removed = removed + self._subtract_convex(part)
        return removed

    def _subtract_convex(self, part: Region) -> QS3:
        pbox = part.float_bbox()
        lines = part.boundary_lines()
        removed = ZERO
        gx0, gx1, gy0, gy1 = self._span(pbox)
        candidates = set()
        for gx in range(gx0, gx1 + 1):
            for gy in range(gy0, gy1 + 1):
                candidates |= self._buckets.get((gx, gy), set())
        for cid in candidates:
            cell = self.cells[cid]
            if not boxes_overlap(cell.float_bbox(), pbox):
                continue
            outside = []
            work = cell
            for ln in lines:
                if work is None:
                    break
                piece = clip_convex(work, ln, -1)
                if piece is not None:
                    outside.append(piece)
                work = clip_convex(work, ln, +1)
            if work is None:
                # no part of the cell is inside the polygon
                continue
            removed = removed + work.area2()
            self._remove(cid)
            for piece in outside:
                self._add(piece)
        return removed


# -- partition of the rocket into return tubes and periodic tubes ------------------


@dataclass
class PartitionComponent:
    component: Component
    periods: PeriodInfo
    tube: list  # the region cycle

    def to_obj(self) -> dict:
        obj = self.component.to_obj()
        obj["point_periods"] = self.periods.to_obj()
        obj["tube_area2"] = (self.component.region.area2() * self.component.period).literal()
        return obj


@dataclass
class PartitionReport:
    label: str
    return_system: ReturnSystem
    green_tubes: list  # one list of regions per return piece
    components: list  # PartitionComponent
    domain_area2: QS3
    green_area2: QS3
    red_area2: QS3

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def periods(self):
        return [c.component.period for c in self.components]

    @property
    def exact_identity(self) -> bool:
        return self.green_area2 + self.red_area2 == self.domain_area2

    def red_fraction(self) -> QS3:
        return self.red_area2 / self.domain_area2

    def to_obj(self) -> dict:
        return {
            "label": self.label,
            "n_components": self.n_components,
            "periods_tprime": self.periods,
            "return_times": [p.return_time for p in self.return_system.pieces],
            "domain_area2": self.domain_area2.literal(),
            "green_area2": self.green_area2.literal(),
            "red_area2": self.red_area2.literal(),
            "exact_area_identity": self.exact_identity,
            "red_fraction": self.red_fraction().literal(),
            "red_fraction_float": float(self.red_fraction()),
            "components": [c.to_obj() for c in self.components],
        }


def _seed_candidates(cell: Region):
    c = cell.interior_point()
    yield c
    for v in cell.vertices:
        yield Point((c.x * 3 + v.x) / 4, (c.y * 3 + v.y) / 4)
        yield Point((c.x + v.x) / 2, (c.y + v.y) / 2)


def _component_from_cell(w, cell, max_iter):
    last = None
    for seed in _seed_candidates(cell):
        try:
            return find_periodic_component(w, seed, max_iter)
        except (GraneError, InconclusiveError) as exc:
            last = exc
    raise InconclusiveError(f"no seed in cell resolved to a component: {last}")


def verify_partition(
    w: WedgeSystem,
    domain: Region,
    label: str = "",
    max_events: int = ALG2_MAX_EVENTS,
    max_iter: int = ALG1_MAX_ITER,
    return_system: ReturnSystem | None = None,
) -> PartitionReport:
    """Exact partition of the rocket Z' into return tubes and periodic tubes.

    The return tubes of ``domain`` are carved out of Z' first; every hole
    left over is seeded to find its periodic component, whose whole tube is
    then carved out, until nothing remains.  Every subtraction asserts that
    the full polygon area was removed, so the final area identity
    green + red == area(Z') holds with zero tolerance by construction.
    """
    rs = return_system or first_return_map(w, domain, max_events)
    zp = w.Zp
    pool = CellPool(zp)
    dom_parts = domain.convex_parts()

    green_area2 = ZERO
    green_tubes = []
    for piece in rs.pieces:
        tube = return_tube(w, piece)
        green_tubes.append(tube)
        for pol in tube:
            removed = pool.subtract(pol)
            assert removed == pol.area2(), "return tube polygons must not overlap"
            green_area2 = green_area2 + pol.area2()

    components = []
    red_area2 = ZERO
    while len(pool):
        cell = pool.largest_cell()
        comp = _component_from_cell(w, cell, max_iter)
        assert comp.region.is_convex(), "periodic components must be convex"
        assert w.table.sides_parallel(
            comp.region
        ), "component sides must be parallel to table sides"
        tube = comp.orbit
        for pol in tube:
            st = overlap_status(pol, dom_parts)
            assert st == "disjoint", "complementary component tube entered the domain"
            removed = pool.subtract(pol)
            assert removed == pol.area2(), "periodic tube polygons must not overlap"
            red_area2 = red_area2 + pol.area2()
        components.append(PartitionComponent(comp, component_periods(comp), tube))

    report = PartitionReport(
        label=label,
        return_system=rs,
        green_tubes=green_tubes,
        components=components,
        domain_area2=zp.area2(),
        green_area2=green_area2,
        red_area2=red_area2,
    )
    assert report.exact_identity
    return report


# -- red/green fractions from the return towers --------------------------------------


def _area2_within(polys, target: Region) -> QS3:
    """Doubled area of (union of polys) ∩ target; polys pairwise disjoint."""
    tbox = target.float_bbox()
    parts = target.convex_parts()
    total = ZERO
    for pol in polys:
        if not boxes_overlap(pol.float_bbox(), tbox):
            continue
        for part in parts:
            total = total + intersection_area2(pol, part)
    return total


@dataclass
class RedFractionLevel:
    level: int
    label: str
    total_red_fraction: QS3
    min_two_ahead_fraction: QS3 | None

    def to_obj(self) -> dict:
        return {
            "level": self.level,
            "label": self.label,
            "total_red_fraction": self.total_red_fraction.literal(),
            "total_red_fraction_float": float(self.total_red_fraction),
            "min_two_ahead_fraction": (
                None
                if self.min_two_ahead_fraction is None
                else self.min_two_ahead_fraction.literal()
            ),
            "min_two_ahead_fraction_float": (
                None
                if self.min_two_ahead_fraction is None
                else float(self.min_two_ahead_fraction)
            ),
        }


@dataclass
class RedFractionReport:
    levels: list
    similarity_ratio_identity: bool
    transport_identity: bool

    def to_obj(self) -> dict:
        return {
            "levels": [lv.to_obj() for lv in self.levels],
            "similarity_ratio_identity": self.similarity_ratio_identity,
            "transport_identity": self.transport_identity,
        }


def red_fraction_check(
    w: WedgeSystem, systems: list, contraction_ratio: QS3
) -> RedFractionReport:
    """Red (periodic) fractions of Z' for a nested chain of return domains.

    ``systems`` lists (label, return system) for at least three domains
    S_1 = Z'_4, S_2 = Z'_14, S_3, ..., each the γ1-image of the one before.

    Towers: T' is injective, so the floors T'^j(A_i), 0 <= j < r_i, of a
    return system are pairwise disjoint (a Kakutani-Rokhlin tower) inside
    the invariant Z', and up to measure zero they cover the points whose
    orbit meets the domain.  So green area = sum r_i * area(A_i), and the
    red inside a polygon P ⊂ Z' is area(P) minus the floors inside P.

    Red is periodic at every level, by induction.  Base: the Z'_4 and
    Z'_14 partitions (check ``tube-partition``) tile the red of levels 1
    and 2 by periodic components.  Step: γ1 conjugates the return map R_1
    of S_1 to R_2 of S_2 (check ``self-similarity``).  R_(n+1) is the first
    return of R_n to S_(n+1), so R_(n+1) = γ1 R_n γ1^-1 for every n, and γ1
    carries the points of S_n whose R_n-orbit misses S_(n+1) onto those of
    S_(n+1).  At n = 1 these are red at level 2, so periodic; hence they
    are periodic at every n, and their orbits are the red that level n+1
    adds.  Carving the level-3 components (``dodeca verify-partition
    --region level3``) is a cross-check, not a proof step.

    Asserts that red never shrinks from one level to the next.  Reports,
    for each level with level+2 available, the least fraction of a return
    piece that is red two levels deeper, and checks two exact identities:
    the contraction scales red areas by ratio^2, and red area is constant
    along each return tube.
    """
    zp = w.Zp.area2()
    tubes = [[return_tube(w, p) for p in rs.pieces] for _, rs in systems]
    floors = [[pol for tube in level for pol in tube] for level in tubes]

    def red_within(level, target):
        return target.area2() - _area2_within(floors[level], target)

    levels = []
    prev_fraction = None
    for idx, (label, rs) in enumerate(systems):
        min_frac = None
        if idx + 2 < len(systems):
            min_frac = min(
                red_within(idx + 2, p.source) / p.source.area2() for p in rs.pieces
            )
        green = ZERO
        for piece in rs.pieces:
            green = green + piece.source.area2() * piece.return_time
        frac_total = (zp - green) / zp
        if prev_fraction is not None:
            assert frac_total >= prev_fraction, "red area must never shrink"
        prev_fraction = frac_total
        levels.append(RedFractionLevel(idx + 1, label, frac_total, min_frac))

    lhs = red_within(2, systems[1][1].domain)
    rhs = red_within(1, systems[0][1].domain)
    ratio_ok = lhs == contraction_ratio * contraction_ratio * rhs

    transport_ok = True
    for piece, tube in zip(systems[0][1].pieces[:2], tubes[0][:2]):
        base = red_within(2, piece.source)
        for pol in (tube[len(tube) // 2], tube[-1]):
            if red_within(2, pol) != base:
                transport_ok = False
    return RedFractionReport(levels, ratio_ok, transport_ok)
