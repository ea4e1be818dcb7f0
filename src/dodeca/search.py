"""Periodic components, first-return maps, and exact tube partitions.

Three layers build on the wedge map T':

* :func:`find_periodic_component`: given a periodic point, carry a region
  along its orbit, cutting it by the piece boundaries where they cut it,
  until the region repeats; the result is the maximal open polygon whose
  points share the starting point's symbol sequence.  Once bounded, the
  region is walked as a raw rigid image (l, t) of a source, like every
  walk below; a cut becomes the new source.  The search keeps no
  history: the first repeat is always the region just after the last cut
  (a cut loses area, which T' keeps, and T' is injective on the open
  pieces), and the start point lies in the regions whose step the period
  divides (the regions of one cycle are disjoint maximal itinerary
  sets).  :func:`close_component`
  certifies a known region as such a component in one walk of its cycle,
  without the search: every edge must lie on a boundary line of the
  visited piece at some step of the cycle.  Every component, found or
  known, carries that certificate.

* :func:`first_return_map`: the first-return system of a polygon S: pieces
  mapped back into S by an isometry after a fixed number of T' steps, each
  fragment split only by the one split line that cuts it.  Every T' piece
  map turns by a multiple of 30°, so each fragment is a rigid image
  ROT[l](S') + t of a source polygon S' in S.  Every walk here holds its
  region that way, as S''s table (``table.SourceTable``) and the raw pair
  (l, t): a step (``WedgeSystem.step_raw``) turns l and maps t on raw
  integers, and S''s support values in the 12 side-normal directions
  make each split-line test, the test that a side normal separates the
  fragment from S and each piece-face test of :func:`close_component`
  one exact sign, read off one integer row per form and rotation.
  Regions are built only at cuts and for the fragments no side normal
  separates from S.  Each piece records its T' itinerary, and
  :func:`return_tube` steps the source's (l, t) along it, proving every
  floor of the piece's tower in its recorded piece by one or two signs
  (T' steps only between neighbouring pieces) and building the floor.
  Every region a walk builds comes from its table, made once per source
  and walk: its rotated vertices give each vertex of ROT[l](S') + t by
  integer products and sums, and each distinct coordinate of the walk is
  normalised once and shared by every region that has it.  The walks sign
  the wedge lines once, at their start: T' maps every closed piece into
  the closed wedge (asserted when the ``WedgeSystem`` is built).

* :func:`verify_partition`: tile the invariant rocket Z' exactly by the
  forward tubes of the return pieces of S plus the tubes of the periodic
  components that never enter S, with an exact (zero-tolerance) area
  identity, by carving the tubes out of an arrangement of convex cells
  (:class:`CellPool`).  The carve proves the tubes disjoint and the
  periodic tubes clear of S (S's return sources, carved first, tile S);
  :func:`close_component` proves each component convex, maximal and
  side-parallel.  The carve runs on raw integers and support vertices.
  Every edge of a tube polygon, and every diagonal that carves a
  nonconvex one, lies along one of the 24 directions at multiples of
  15 degrees, so a cell records its vertices cleared to one
  denominator, the position of each edge normal among those directions
  and, per direction, a vertex largest along it.  A part's edge line is
  then signed at two vertices of a cell, the largest and the smallest
  along its normal: the first sign separates, the second cuts.  A cell
  that the lines cut is skipped when one of its own edges along the
  directions has the part on its closed outer side; any other is split
  on integers, and its pieces carry their edge positions over.  The
  grid of float boxes and the order of its hits are kept, and with
  them the cells, their ids and the ties of ``largest_cell``.

Red fractions need neither layer's towers beyond Z'_14:
``selfsim.visit_matrix`` counts how the Z'_14 pieces visit the Z'_4
sources, and that one matrix gives every refinement level.  The T'-built
level-3 towers remain a cross-check of it.

All areas below are carried as *doubled* areas (``area2``) to stay in the
field without spurious halving.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import DomainError, GraneError, InconclusiveError, SelfReturnError
from .field import QS3, ZERO, pair_sign
from .geom import (
    DIRECTIONS,
    INTERIOR,
    AffMap,
    Point,
    Region,
    area2_within,
    boxes_overlap,
    clear_points,
    cleared_area2,
    cleared_box,
    clip_convex,  # unused here; the benchmark's tracer wraps search.clip_convex
    edge_positions,
    edge_rows,
    line_values,
    overlap_status,
    raw_point,
    split_cleared,
    split_region,
    support_table,
)
from .periods import period_of_h
from .table import (
    FORMS,
    ORIGIN,
    ROT,
    SourceTable,
    WedgeSystem,
    rigid_map,
    sends,
    side_normal_index,
)

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

    One walk of at most ``max_iter`` steps carries a region U, initially
    the wedge, along the orbit of ``start`` (one ``raw_orbit`` generator).
    U is cut down to the orbit's piece while it is unbounded, and mapped by
    ``transformed``.  Once bounded, U is carried as the image (l, t) of a
    source over its ``SourceTable``, placed by ``WedgeSystem.locate`` from
    the orbit's last piece (U is the image of a closed piece, so it lies
    in the closed wedge) and mapped by ``step_raw``.  A split line that
    cuts U cuts it down to the piece, and the cut becomes the new source:
    the (l, t) of that step c is its image, and the walk keeps no other
    region.  It stops at the
    first step n whose region is the one of step c.

    That is the walk's first repeat.  A cut loses area and T' keeps it, so
    no region before c can come back after c.  T' is injective on the open
    pieces, so a repeat at n of a region j > c would be one at n - 1 of
    j - 1.  The repeat is found as ``close_component`` closes a cycle: a
    rigid motion keeps centroids, so regions n and c can be equal only
    when the motion (l, t) of step n sends the cut's centroid to the
    stored centroid of region c (``table.sends``, on raw integers), and
    only then are they compared by canonical key.  So each cut makes one
    ``SourceTable`` and one centroid, and a region is built only at a cut
    (the region to cut and region c), at such a centroid return and once
    at the end.

    The start point lies in region m >= c exactly when the period
    P = n - c divides m.  From c on, region m is T'^m of the start's
    component R (the points that share its whole itinerary), and R holds
    the start.  Two regions of one cycle are maximal itinerary sets, so
    they meet only when equal, which takes P | m.  So (l, t) is stepped
    (-c) mod P more times along the orbit's symbols, and
    ``close_component`` certifies the region it reaches, with the vertex
    labels the walk gives it.

    Raises DomainError unless ``start`` is interior to the wedge,
    GraneError when the orbit hits a piece boundary and InconclusiveError
    when the cap is exhausted (the point may then be aperiodic).
    """
    if w.wedge.classify(start) != INTERIOR:
        raise DomainError("start point must be interior to the wedge")
    orbit = w.raw_orbit(start)
    region, table, i = w.wedge, None, None
    for n in range(1, max_iter + 1):
        prev, i = i, next(orbit)[-1]
        if table is not None:
            piece, cut = w.locate(table, l, t, prev)
            if cut is None:
                assert piece == i, "the carried region left the orbit's piece"
                l, t = w.step_raw(l, t, i)
                if sends(l, t, g, center) and table.region(l, t).canonical_key() == key:
                    break
                continue
            region = table.region(l, t)
        region = w.restrict_to_piece(region, i)
        if region.is_bounded:
            table, c, g = SourceTable(region), n, region.centroid()
            l, t = w.step_raw(0, ORIGIN, i)
            center, key = rigid_map(l, t).apply(g), table.region(l, t).canonical_key()
        else:
            region = region.transformed(w.maps[i])
    else:
        raise InconclusiveError(
            "no region recurrence; point may be aperiodic", iterations=max_iter
        )
    for _ in range(-c % (n - c)):
        l, t = w.step_raw(l, t, next(orbit)[-1])
    region = table.region(l, t)
    assert region.classify(start) == INTERIOR, "the component does not hold the start point"
    return close_component(w, region, max_iter)


def close_component(
    w: WedgeSystem, region: Region, max_iter: int = ALG1_MAX_ITER
) -> Component:
    """Certify a bounded region as a periodic component in one walk of its cycle.

    The walk (``_walk_cycle``) gives the period, the rotation, the visit
    counts and the raw image (l, t) of each region of the cycle over the
    region's ``SourceTable``; the cycle's regions are built after it, by
    the table, in walk order, with the region itself first.  The
    certificates, and the errors they raise, are the walk's.
    """
    period, l, counts, center, table, motions = _walk_cycle(w, region, max_iter)
    orbit = (region,) + tuple(table.region(*motion) for motion in motions[1:])
    return Component(region, period, l, center, counts, orbit)


def _walk_cycle(w: WedgeSystem, region: Region, max_iter: int) -> tuple:
    """Walk a bounded region's T'-cycle and certify it as a periodic component.

    Returns ``(period, l, counts, center, table, motions)``: the period,
    the rotation l of T'^period, the visit counts to alpha_1..alpha_6, the
    region's centroid, its ``SourceTable`` and the cycle's motions, the
    raw images (l, t) of its regions in walk order, (0, ORIGIN) first.

    The region is signed against the wedge lines once, here: each later
    region is the image of one located in a closed piece, which T' keeps
    in the closed wedge (asserted when the ``WedgeSystem`` is built), so
    every step is located by the split lines alone.  The walk carries the
    image (l, t) of the region over the region's ``SourceTable``: each
    step is located by ``WedgeSystem.locate`` from the piece of the step
    before.  The cycle closes at the first image equal to the region; a
    rigid motion that takes the region onto itself fixes its centroid, so
    only an image whose motion fixes the centroid (``table.sends`` from
    the centroid to itself, on raw integers) is built and compared by its
    canonical key.  No other region is built.

    Rotation certificate: ``w.maps[i]`` turns by 30°*(6 - i) (asserted
    when the ``WedgeSystem`` is built), so T'^period turns by 30°*l with
    l = 6*period - sum (i+1)*counts[i] mod 12.  It keeps orientation and
    takes the region onto itself, so it fixes the centroid: it is the
    rotation by 30°*l about the centroid, and it sends vertex 0 to the
    vertex s where the walk's last image starts.  That is the one exact
    check.

    Maximality certificate: at each step edge k is marked when it lies on
    a boundary line of its piece; the marking stops once every edge is
    marked.  Every such line is n_e . x = c with the closed piece on
    n_e . x <= c: a form of ``table.FORMS``, whose index ``w.faces[i]``
    holds (asserted when the ``WedgeSystem`` is built).  The image lies in
    the closed piece and is convex, so edge k lies on that line exactly
    when the edge's outward normal is n_e and the image's largest n_e . x
    is c.  The image ROT[l](U) + t of the region U turns U's edge k, with
    outward normal n_e', to n_{e'+l}, and ``SourceTable.sign`` reads the
    largest n_e . x off U's support values, in the form's compiled row:
    one sign per face, and no vertex is signed.  T'^period turns
    the region about its centroid and shifts its vertex labels by s, so
    later cycles mark edge k where the first marked edge k + s: the
    marked set is closed under that shift.  The points that share the
    cycle's itinerary form a convex set S holding the region; at a marked
    step the points just across that edge leave the closed piece, so S
    lies on the region's side of every marked edge.  With every edge
    marked, S is the region: it is maximal.

    Raises GraneError when the region leaves the wedge or a split line
    cuts a region of the cycle, and InconclusiveError when the region is
    not convex, the cycle does not close within ``max_iter`` steps, its
    rotation misplaces vertex 0 or an edge stays unmarked.
    """
    if not w.in_closed_wedge(region):
        raise GraneError("component region leaves the wedge")
    table, l, t = SourceTable(region), 0, ORIGIN
    if not table.convex:
        raise InconclusiveError("component region is not convex")
    center = region.centroid()
    counts = [0] * 6
    key0 = region.canonical_key()
    pts = region.vertices
    n = len(pts)
    unmarked = set(range(n))
    # edge_of[e] = k: edge k's outward normal is n_e (a convex cycle has
    # at most one such edge; an edge along no side direction is never marked)
    edge_of = {}
    for k in range(n):
        d = pts[(k + 1) % n] - pts[k]
        e = side_normal_index(Point(d.y, -d.x))
        if e is not None:
            edge_of[e] = k
    period = 0
    motions = [(l, t)]
    i = None
    while True:
        i, cut = w.locate(table, l, t, i)
        if cut is not None:
            raise GraneError("region crosses a piece boundary")
        if unmarked:
            for f in w.faces[i]:
                k = edge_of.get((FORMS[f][0] - l) % 12)
                if k in unmarked and table.sign(l, f, t) == 0:
                    unmarked.discard(k)
        l, t = w.step_raw(l, t, i)
        counts[i - 1] += 1
        period += 1
        if sends(l, t, center, center):
            cur = table.region(l, t)
            if cur.canonical_key() == key0:
                break
        motions.append((l, t))
        if period > max_iter:
            raise InconclusiveError("region cycle did not close", iterations=max_iter)
    l = (6 * period - sum((i + 1) * c for i, c in enumerate(counts))) % 12
    s = region.vertices.index(cur.vertices[0])
    if ROT[l].apply_vec(region.vertices[0] - center) != region.vertices[s] - center:
        raise InconclusiveError("cycle rotation does not turn vertex 0 onto its image")
    # edge k shares the marks of edges k + s, k + 2*s, ...: the
    # edges congruent to k modulo g
    g = math.gcd(s, n)
    if any(unmarked.issuperset(range(k, n, g)) for k in range(g)):
        raise InconclusiveError("region is not a maximal component")
    return period, l, tuple(counts), center, table, motions


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
    itinerary: tuple  # itinerary[j]: the piece alpha_i that holds floor j

    @property
    def return_time(self) -> int:
        return len(self.itinerary)

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
    the domain.  The domain must have the clean self-return property: a
    mapped fragment that straddles the domain boundary raises
    SelfReturnError.  A domain that is unbounded or leaves the wedge raises
    DomainError.

    Every fragment is a rigid image of a source polygon S in the domain,
    so the walk carries it as S's ``SourceTable`` and the raw image
    (l, t), and builds no region per step: ``WedgeSystem.locate`` places
    it by one sign per split-line test, ``step_raw`` maps it, and a side
    normal n_e that separates it from the domain proves it disjoint from
    the domain.  That is one sign per e, the fragment's largest n_e . x
    against the domain's smallest, -h[e + 6] from the domain's support
    values h: the walk adds these 12 forms to the default forms of each
    source's table, which folds each into one integer row per rotation
    when the walk first signs it.  Most steps need none of them: a
    fragment stepped from the open piece alpha_i lies in the open image
    T'(alpha_i), so it can land in the domain only when i is in
    ``w.landing(domain)``, computed once per call (alpha_1 alone for the
    level-3 domain, where 2,243 of the 47,595 steps start in alpha_1),
    and a fragment stepped from any other piece goes straight back to
    ``pending``.  A ``Region`` is built only where the walk needs one: at
    a cut the image is split and each part pulled back to a new S, and a
    fragment that no side normal separates is placed by
    ``overlap_status``.  A retired fragment's source is its S and its map
    the isometry ``rigid_map(l, t)``, so no map is composed or inverted
    per step.

    The domain is signed against the wedge lines once: a fragment located
    in a closed piece maps into the closed wedge (asserted when the
    ``WedgeSystem`` is built), so every fragment stays there and is located
    by the split lines alone, from the piece it was stepped from (the
    last symbol of its node, ``WedgeSystem.locate`` with ``prev``): one or
    two signs and the cut sign.  Each fragment carries its itinerary as a
    parent-linked node (parent, i), shared by the parts of a split, which
    also came from that piece; a retired fragment unrolls it into
    ``ReturnPiece.itinerary``.  The walk and the system's assembly run
    with the cyclic garbage collector paused (``_collector_paused``),
    which promotes the system into the oldest generation at the end.
    """
    if not domain.is_bounded:
        raise DomainError("return domain must be bounded")
    if not w.in_closed_wedge(domain):
        raise DomainError("return domain must lie in the wedge")
    parts = domain.convex_parts()
    # form len(SPLIT_FORMS) + e: a fragment's max n_e . x at most the
    # domain's min n_e . y, which is -h[e + 6], separates the open sets;
    # h comes from a table of its own, since the start's table takes
    # these forms
    hp, hq, m = SourceTable(domain).h
    forms = FORMS + tuple((e, -hp[(e + 6) % 12], -hq[(e + 6) % 12], m) for e in range(12))
    apart = range(len(FORMS), len(forms))
    landing = w.landing(domain)
    pending = [(SourceTable(domain, forms), 0, ORIGIN, None)]
    finished = []
    events = 0
    with _collector_paused():
        while pending:
            table, l, t, node = pending.pop()
            i, cut = w.locate(table, l, t, None if node is None else node[1])
            if cut is not None:
                halves = split_region(table.region(l, t), cut)
                # a line that left the fragment whole would requeue it
                # forever without spending the event budget
                assert len(halves) >= 2, "the cut line leaves the fragment whole"
                back = rigid_map(l, t).inverse()
                for half in halves:
                    pending.append((SourceTable(half.transformed(back), forms), l, t, node))
                continue
            events += 1
            if events > max_events:
                raise InconclusiveError(
                    "first-return expansion exceeded the event budget",
                    iterations=max_events,
                )
            l, t = w.step_raw(l, t, i)
            node = (node, i)
            sign = table.sign
            if i not in landing or any(sign(l, k, t) <= 0 for k in apart):
                pending.append((table, l, t, node))
                continue
            image = table.region(l, t)
            status = overlap_status(image, parts)
            if status == "inside":
                finished.append((table.source, rigid_map(l, t), image, node))
            elif status == "disjoint":
                pending.append((table, l, t, node))
            else:
                raise SelfReturnError("mapped fragment straddles the return domain")
        pieces = []
        for source, f, target, node in finished:
            itinerary = []
            while node is not None:
                node, i = node
                itinerary.append(i)
            itinerary.reverse()
            pieces.append(ReturnPiece(source, target, f, tuple(itinerary)))
        pieces.sort(key=lambda p: p.source.canonical_key())
        rs = ReturnSystem(domain, tuple(pieces))
        _validate_return_system(rs)
        return rs


def _validate_return_system(rs: ReturnSystem):
    total = ZERO
    for p in rs.pieces:
        total = total + p.source.area2()
    assert total == rs.domain.area2(), "return sources must tile the domain"
    for regions in ([p.source for p in rs.pieces], [p.target for p in rs.pieces]):
        for j in range(1, len(regions)):
            # areas are >= 0, so a zero sum means no earlier piece overlaps
            overlap = area2_within(regions[:j], regions[j].convex_parts())
            assert overlap.is_zero(), "return pieces must not overlap"


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off, then promote what it built.

    The region walks of ``first_return_map``, ``return_tube`` and
    ``verify_partition`` run in it.  They make no reference cycle
    (itinerary nodes (parent, i), tables, regions of ``Point``s of
    ``QS3``s of ints, and the cells of a ``CellPool``), so the collector
    could free nothing they make, and reference counting frees what they
    drop.  They keep what they build alive, so with the collector on
    their allocations start collections that scan it, and all else the
    process holds, again and again: about 900 over the 8 level-3 towers
    (76,450 floors) and 69 in one level-3 ``first_return_map`` call, one
    of them a full pass.

    When the body returns, ``gc.freeze(); gc.unfreeze()`` moves every
    tracked object into the oldest generation: two O(1) list splices
    that scan nothing, and ``freeze`` zeroes the generation-0 count.  So
    the first allocation after the pause starts no generation-0 pass over
    what the body just built, and no generation-1 pass rescans it later
    (without the promotion, each level-3 tower costs one such pass).  The
    promotion is made only at the exit of a pause that found the
    collector on, so nested pauses promote once, at the outermost exit,
    and a body that raises promotes nothing.  The caveats: cyclic garbage
    that the caller made just before the call is promoted too, and waits
    for a full collection (the walks themselves make none), and objects
    the caller froze are unfrozen into the oldest generation (nothing in
    the program freezes any; CPython 3.12 parks immortal objects in the
    permanent generation, and there moving them is harmless).

    The collector's state is restored in a ``finally``, so a nested use,
    or an error raised in the body, leaves it as it was found.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        if enabled:
            gc.freeze()
            gc.unfreeze()
    finally:
        if enabled:
            gc.enable()


def return_tube(w: WedgeSystem, piece: ReturnPiece):
    """Floors T'^j(source), 0 <= j < return_time: the piece's tower.

    Steps the source's image ROT[l](source) + t, as the raw pair (l, t),
    along the recorded itinerary (``WedgeSystem.step_raw``) and proves
    each step: floor j must lie in the open piece ``itinerary[j]``
    (``WedgeSystem.in_piece`` told floor j-1's piece ``itinerary[j-1]``:
    one sign of the source's ``SourceTable`` for a neighbouring piece, two
    for the same piece, none for a piece T' cannot reach), else GraneError
    with index j.  That test needs the floor in the closed wedge: the
    source is checked once, and each later floor is the image of a closed
    piece, which T' keeps in the closed wedge (asserted when the
    ``WedgeSystem`` is built).  Each floor is built by the table
    (``SourceTable.region``), and the region after the last step must be
    the target; that closure is asserted.  The floors are built with the
    cyclic garbage collector paused (``_collector_paused``), which
    promotes the tower into the oldest generation when it is done.
    """
    with _collector_paused():
        if not w.in_closed_wedge(piece.source):
            raise GraneError("return source leaves the wedge")
        table, l, t = SourceTable(piece.source), 0, ORIGIN
        tube = []
        prev = None
        for j, i in enumerate(piece.itinerary):
            if not w.in_piece(table, l, t, i, prev):
                raise GraneError(f"floor {j} is not in alpha_{i}", index=j)
            tube.append(table.region(l, t))
            l, t = w.step_raw(l, t, i)
            prev = i
        assert table.region(l, t) == piece.target
        return tube


# -- exact cell arrangement for tube subtraction ----------------------------------


class CellPool:
    """Disjoint convex open cells tiling what is left of a region.

    Subtracting a polygon replaces each overlapping cell by its exact
    difference pieces; the removed (doubled) area is returned so callers
    can assert that claims never overlap.  The carve runs on raw integers.
    A cell is a record ``(m, raw, positions, sup, box)``, made once when it
    enters the pool: its vertices cleared to one denominator m
    (``clear_points``), the position of each edge's outward normal on the
    circle of the 24 directions at multiples of 15 degrees (2j at 15*j
    degrees, 2j + 1 strictly between 15*j and 15*(j + 1):
    ``geom.edge_positions``), the index sup[d] of a vertex largest in
    direction d (``geom.support_table``) and its proven float box, bit for
    bit ``Region.float_bbox``'s.  Every edge of a tube polygon, and every
    diagonal of the triangles that carve a nonconvex one, lies along one
    of the 24 directions, and only the edges of Z''s triangles lie
    between them.

    Each edge line of a convex part of the subtracted polygon is signed at
    two vertices of a cell: sup[d] for the line's inward normal d, where
    the cell is largest along it, and sup[d + 12], where it is smallest.
    A first sign <= 0 separates the cell from the part, which leaves it
    as it is; a second sign < 0 means the line cuts the cell.  A line
    between two directions is signed over the vertices from sup[j] to
    sup[j + 1], the only ones that can be largest along it.  A cell that
    some line cuts is skipped when one of its own edges along the 24
    directions has the part on its closed outer side (the part's vertex
    smallest along that edge's normal, read off the part's table): the
    split would lose every piece.  Any other is split (``split_cleared``)
    by the lines that cut it, in edge order; an edge on a line takes the
    line's position, so no position is recomputed from vertices.  The
    removed areas are summed on integers, with one normalisation per
    part, each cell's area is computed once, by ``largest_cell``, and a
    ``Region`` is built only for the cell that ``largest_cell`` returns
    (``region``).

    Cells are indexed by a float grid of their boxes, so subtraction
    touches only nearby cells and misses none; every hit is decided
    exactly.  Cells are visited in the iteration order of the set of grid
    hits, and the ids they get decide ties in ``largest_cell``: the boxes,
    the grid and that order are kept as they are, so that the cells, their
    ids and their order, and with them the report, stay the same.
    """

    # buckets a side over the region's box, sized to the tube polygons:
    # on the z14 partition a cell spans 7.5 buckets on average and a part
    # meets 15 candidate cells (86 and 7 at 192 a side, where filing the
    # triangles of Z' and the early pieces cost more than the hits saved)
    GRID = 48

    def __init__(self, region: Region):
        box = region.float_bbox()
        self._x0, self._y0 = box[0], box[1]
        self._sx = (box[2] - box[0]) / self.GRID or 1.0
        self._sy = (box[3] - box[1]) / self.GRID or 1.0
        self.cells = {}
        # cell id -> cleared_area2 of the cell, filled by largest_cell
        self._area2 = {}
        self._buckets = {}
        self._next_id = 0
        for part in region.convex_parts():
            m, raw = clear_points(part.vertices)
            self._add(m, raw, edge_positions(raw))

    def _span(self, box):
        gx0 = max(0, min(self.GRID - 1, int((box[0] - self._x0) / self._sx)))
        gx1 = max(0, min(self.GRID - 1, int((box[2] - self._x0) / self._sx)))
        gy0 = max(0, min(self.GRID - 1, int((box[1] - self._y0) / self._sy)))
        gy1 = max(0, min(self.GRID - 1, int((box[3] - self._y0) / self._sy)))
        return gx0, gx1, gy0, gy1

    def _candidates(self, box) -> set:
        """Ids of the cells in the buckets that a box meets."""
        gx0, gx1, gy0, gy1 = self._span(box)
        out = set()
        for gx in range(gx0, gx1 + 1):
            for gy in range(gy0, gy1 + 1):
                out |= self._buckets.get((gx, gy), set())
        return out

    def _add(self, m: int, raw, positions):
        cid = self._next_id
        self._next_id += 1
        box = cleared_box(m, raw)
        self.cells[cid] = (m, raw, positions, support_table(positions), box)
        gx0, gx1, gy0, gy1 = self._span(box)
        for gx in range(gx0, gx1 + 1):
            for gy in range(gy0, gy1 + 1):
                self._buckets.setdefault((gx, gy), set()).add(cid)

    def _remove(self, cid: int):
        gx0, gx1, gy0, gy1 = self._span(self.cells.pop(cid)[4])
        self._area2.pop(cid, None)
        for gx in range(gx0, gx1 + 1):
            for gy in range(gy0, gy1 + 1):
                self._buckets[(gx, gy)].discard(cid)

    def __len__(self):
        return len(self.cells)

    def region(self, cid: int) -> Region:
        """Cell ``cid`` as a ``Region``, its vertices in the pool's order."""
        m, raw = self.cells[cid][:2]
        return Region([raw_point(*v, m) for v in raw])

    def largest_cell(self) -> Region:
        """The first cell of largest area in pool order, as ``max`` by area2.

        Areas (p + q*s3)/r are compared on their integers by ``pair_sign``,
        with no field operation or gcd.
        """
        areas = self._area2
        best = bp = bq = br = None
        for cid, cell in self.cells.items():
            a = areas.get(cid)
            if a is None:
                a = areas[cid] = cleared_area2(cell[0], cell[1])
            p, q, r = a
            if best is None or pair_sign(p * br - bp * r, q * br - bq * r) > 0:
                best, bp, bq, br = cid, p, q, r
        return self.region(best)

    def subtract(self, poly: Region) -> QS3:
        removed = ZERO
        for part in poly.convex_parts():
            removed = removed + self._subtract_convex(part)
        return removed

    def _subtract_convex(self, part: Region) -> QS3:
        pbox = part.float_bbox()
        pm, praw = clear_points(part.vertices)
        positions = edge_positions(praw)
        psup = support_table(positions)
        lines = _edge_rows(pm, praw, positions)
        cells = self.cells
        # the removed area, (rp + rq*s3)/rr
        rp, rq, rr = 0, 0, 1
        for cid in self._candidates(pbox):
            cell = cells[cid]
            m, raw, positions, sup, box = cell
            if not boxes_overlap(box, pbox):
                continue
            cutting = []
            for a1, t1, b1, a2, t2, b2, a3, b3, d, k, e in lines:
                if d is None:
                    top, bottom = _range_signs(m, raw, sup, k, e >> 1)
                    if top <= 0:
                        break
                else:
                    c0, c1 = a3 * m, b3 * m
                    xp, xq, yp, yq = raw[sup[d]]
                    if pair_sign(
                        a1 * xp + t1 * xq + a2 * yp + t2 * yq - c0,
                        a1 * xq + b1 * xp + a2 * yq + b2 * yp - c1,
                    ) <= 0:
                        break
                    xp, xq, yp, yq = raw[sup[d - 12]]
                    bottom = pair_sign(
                        a1 * xp + t1 * xq + a2 * yp + t2 * yq - c0,
                        a1 * xq + b1 * xp + a2 * yq + b2 * yp - c1,
                    )
                if bottom < 0:
                    cutting.append((k, e))
            else:
                if not cutting:
                    area = self._area2.get(cid) or cleared_area2(m, raw)
                    self._remove(cid)
                else:
                    area = self._split(cid, cell, cutting, pm, praw, psup)
                    if area is None:
                        continue
                ap, aq, ar = area
                if ar != rr:
                    den = math.lcm(rr, ar)
                    f, g = den // rr, den // ar
                    rp, rq, rr = rp * f + ap * g, rq * f + aq * g, den
                else:
                    rp, rq = rp + ap, rq + aq
        return QS3._make(rp, rq, rr)

    def _split(self, cid: int, cell, cutting, pm: int, praw, psup):
        """Replace a cell by its pieces outside a part; the ``cleared_area2``
        of its piece inside, or None (and the cell kept) when it has none.

        ``cutting`` are the part's lines that cut the cell, in edge order;
        the cell is split by each in turn, and the piece on a line's
        positive side goes on.
        """
        m, raw, positions = cell[:3]
        if _lattice_apart(m, raw, positions, pm, praw, psup):
            return None
        outside = []
        for k, e in cutting:
            cut = split_cleared(m, raw, positions, k, (e + 24) % 48, e)
            if cut == -1:
                return None
            if cut != 1:
                ((m, raw), positions), piece = cut
                outside.append(piece)
        self._remove(cid)
        for (r, pts), labels in outside:
            self._add(r, pts, labels)
        return cleared_area2(m, raw)


def _edge_rows(m: int, raw, positions) -> list:
    """The edge lines of a convex part cleared over m, for the cut test.

    For each edge, ``(*k, d, k, e)``: the edge line's cleared row k
    (``geom.edge_rows``, positive inside), unpacked and whole, the
    position e of its inward normal, opposite the outward one of
    ``positions`` (``geom.edge_positions``), and d = e/2, the direction of
    that normal, or None when e is odd.
    """
    out = []
    for k, e in zip(edge_rows(m, raw), positions):
        e = (e + 24) % 48
        out.append((*k, None if e & 1 else e >> 1, k, e))
    return out


def _range_signs(m: int, raw, sup, k, j) -> tuple[int, int]:
    """(largest, smallest) sign of a line over a cell, for a line whose
    inward normal lies strictly between directions j and j + 1.

    The vertex largest along that normal lies in the cycle from sup[j] to
    sup[j + 1] (turning a direction turns its support vertex forward), and
    the smallest from sup[j + 12] to sup[j + 13].
    """
    out = []
    for lo, hi in ((sup[j], sup[(j + 1) % 24]), (sup[(j + 12) % 24], sup[(j + 13) % 24])):
        span = raw[lo : hi + 1] if lo <= hi else raw[lo:] + raw[: hi + 1]
        out.append([pair_sign(s0, s1) for s0, s1 in line_values(m, span, k)])
    return max(out[0]), min(out[1])


def _lattice_apart(m: int, raw, positions, pm: int, praw, psup) -> bool:
    """Whether an edge of a cell along one of the 24 directions has a convex
    part on its closed outer side, which makes the two disjoint.

    Edge k at position 2d has outward normal n_d (``DIRECTIONS[d]``) and
    passes through vertex k; the part's smallest n_d . u is at its vertex
    psup[d + 12], so the part lies on the edge's closed outer side exactly
    when n_d . (u - v_k) >= 0 there, one sign on the integers of both
    cycles (u over pm, v_k over m).
    """
    for k, e in enumerate(positions):
        if e & 1:
            continue
        d = e >> 1
        dx0, dx1, dy0, dy1 = DIRECTIONS[d]
        uxp, uxq, uyp, uyq = praw[psup[d - 12]]
        vxp, vxq, vyp, vyq = raw[k]
        wx0, wx1 = uxp * m - vxp * pm, uxq * m - vxq * pm
        wy0, wy1 = uyp * m - vyp * pm, uyq * m - vyq * pm
        if pair_sign(
            dx0 * wx0 + 3 * dx1 * wx1 + dy0 * wy0 + 3 * dy1 * wy1,
            dx0 * wx1 + dx1 * wx0 + dy0 * wy1 + dy1 * wy0,
        ) >= 0:
            return True
    return False


# -- partition of the rocket into return tubes and periodic tubes ------------------


@dataclass
class PartitionComponent:
    component: Component
    periods: PeriodInfo

    @property
    def tube(self) -> tuple:  # the region cycle
        return self.component.orbit

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
            # the message only: the exception's traceback holds this frame
            last = str(exc)
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

    Each fact is proved once.  The carve proves the tubes disjoint: a
    polygon whose whole area leaves the pool meets no earlier one, as open
    polygons that meet in zero area do not meet.  It also proves that the
    red tubes miss the domain: the green floors 0 are the return sources,
    which tile the domain (``_validate_return_system``; a passed
    ``return_system`` must be the domain's), so no cell is left there once
    they are carved.  ``close_component``, which ends every component
    search, proves each red component convex, maximal and side-parallel:
    it marks only edges whose outward normal is a side normal, and
    T'^period turns by a multiple of 30°, so an edge class is all
    side-parallel or none of it is.

    The return system, the carve and the component searches run under one
    pause of the cyclic garbage collector (``_collector_paused``), which
    promotes what they keep into the oldest generation when they are done.
    The pool, its cells, the tables and the components make no reference
    cycle, so reference counting frees every cell the carve drops, and
    with the collector on a z14 partition ran 118 collections that
    rescanned the growing tubes.
    """
    with _collector_paused():
        rs = return_system or first_return_map(w, domain, max_events)
        assert rs.domain == domain, "the return system must be the domain's"
        zp = w.Zp
        pool = CellPool(zp)

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
            for pol in comp.orbit:
                removed = pool.subtract(pol)
                assert removed == pol.area2(), "periodic tube polygons must not overlap"
                red_area2 = red_area2 + pol.area2()
            components.append(PartitionComponent(comp, component_periods(comp)))

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
