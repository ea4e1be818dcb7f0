"""Self-similar structure of the wedge map and the aperiodic point.

Two homotheties centred at the wedge apex send the invariant rocket Z'
onto nested copies: Z'_1 (ratio O_1/O_5), Z'_4 (ratio O_4/O_5) and
Z'_14 = gamma_1(Z'_4).  Pulling Z'_14 back two steps of T' gives another
rocket X, and the contraction similarity gamma_X = (pullback) ∘ gamma_1
maps Z'_4 onto X while conjugating their first-return systems exactly.

The unique fixed point y of gamma_X is an aperiodic point of the wedge
map; :func:`aperiodic_witness` certifies this with finite exact evidence:
no return within a step budget, and y interior to every level of the
strictly nested rockets gamma_X^k(X), whose return periods at least
double with each nesting level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, GraneError, InconclusiveError
from .field import ONE, QS3, SQRT3_FLOAT
from .geom import (
    INTERIOR,
    AffMap,
    Point,
    Region,
    boxes_overlap,
    cutting_lines,
    float_interval,
    overlap_status,
    raw_equals,
    raw_point,
)
from .search import Component, ReturnSystem, _walk_cycle, find_periodic_component
from .table import ORIGIN, SourceTable, WedgeSystem


@dataclass(frozen=True)
class SimilaritySystem:
    gamma1: AffMap
    gamma4: AffMap
    ratio1: QS3
    ratio4: QS3
    Z1: Region
    Z4: Region
    Z14: Region
    X: Region
    gammaX: AffMap
    pullback_pieces: tuple
    pullback_map: AffMap  # the isometry with X = pullback_map(Z'_14)
    w2: Component
    w3: Component
    w4: Component
    g1w4: Component  # gamma_1(W_4), the period-37 component

    def to_obj(self) -> dict:
        from .geom import region_to_obj

        return {
            "ratio1": self.ratio1.literal(),
            "ratio4": self.ratio4.literal(),
            "pullback_pieces": list(self.pullback_pieces),
            "Z1": region_to_obj(self.Z1),
            "Z4": region_to_obj(self.Z4),
            "Z14": region_to_obj(self.Z14),
            "X": region_to_obj(self.X),
        }


def _bisector_param(w: WedgeSystem, p: Point) -> QS3:
    return (p.x - w.apex.x) / w.bisector_dir.x


def contraction_ratios(w: WedgeSystem) -> tuple[QS3, QS3]:
    t1 = _bisector_param(w, w.O[1])
    t4 = _bisector_param(w, w.O[4])
    t5 = _bisector_param(w, w.O[5])
    return t1 / t5, t4 / t5


def build_similarity(w: WedgeSystem, max_iter: int = 10**6) -> SimilaritySystem:
    """Construct the contractions, derived rockets, X and gamma_X.

    Raises DomainError when a pullback step would split the small rocket
    (it never does).  iota keeps the closed wedge, so iota(Z'_14) lies in
    it, and T' keeps a region of a closed piece there: each region the
    pullback places, carried as the raw image (l, t) of iota(Z'_14) over
    its ``SourceTable``, meets ``WedgeSystem.locate``'s precondition, and
    the locator decides exactly that it lies in one open piece.
    """
    ratio1, ratio4 = contraction_ratios(w)
    gamma1 = AffMap.homothety(w.apex, ratio1)
    gamma4 = AffMap.homothety(w.apex, ratio4)
    assert gamma1.apply(w.O[5]) == w.O[1]
    assert gamma4.apply(w.O[5]) == w.O[4]
    z1 = w.Zp.transformed(gamma1)
    z4 = w.Zp.transformed(gamma4)
    z14 = z4.transformed(gamma1)

    # exact squared-ratio identities |A1 O_i|^2 = ratio^2 |A1 O_5|^2
    for ratio, o in ((ratio1, w.O[1]), (ratio4, w.O[4])):
        assert (o - w.apex).norm2() == ratio * ratio * (w.O[5] - w.apex).norm2()

    # T'^-1 = iota T' iota (``WedgeSystem.iota``), so X = iota T'^2 iota(Z'_14)
    table, l, t = SourceTable(z14.transformed(w.iota)), 0, ORIGIN
    pullback = w.iota
    pieces = []
    for _ in range(2):
        i, cut = w.locate(table, l, t)
        if cut is not None:
            raise DomainError(f"pullback would split the rocket across split line {cut}")
        l, t = w.step_raw(l, t, i)
        pullback = w.maps[i].compose(pullback)
        pieces.append(i)
    pullback = w.iota.compose(pullback)
    x = z14.transformed(pullback)
    gamma_x = pullback.compose(gamma1)
    assert z4.transformed(gamma_x) == x
    assert gamma_x.det().sign() > 0
    # linear part is ratio1 times a rotation
    m = gamma_x
    assert m.m00 * m.m00 + m.m10 * m.m10 == ratio1 * ratio1
    assert overlap_status(x, z4.convex_parts()) == "inside"

    w2 = find_periodic_component(w, w.O[2], max_iter)
    w3 = find_periodic_component(w, w.O[3], max_iter)
    w4 = find_periodic_component(w, w.O[4], max_iter)
    g1w4 = find_periodic_component(w, gamma1.apply(w.O[4]), max_iter)
    assert g1w4.region == w4.region.transformed(gamma1)

    return SimilaritySystem(
        gamma1=gamma1,
        gamma4=gamma4,
        ratio1=ratio1,
        ratio4=ratio4,
        Z1=z1,
        Z4=z4,
        Z14=z14,
        X=x,
        gammaX=gamma_x,
        pullback_pieces=tuple(pieces),
        pullback_map=pullback,
        w2=w2,
        w3=w3,
        w4=w4,
        g1w4=g1w4,
    )


# -- conjugacy of the first-return systems -------------------------------------------


@dataclass
class ConjugacyReport:
    pieces_matched_z14: int
    pieces_matched_x: int
    samples_checked: int
    samples_skipped: int

    def to_obj(self) -> dict:
        return {
            "pieces_matched_z14": self.pieces_matched_z14,
            "pieces_matched_x": self.pieces_matched_x,
            "samples_checked": self.samples_checked,
            "samples_skipped": self.samples_skipped,
        }


def match_return_systems(base: ReturnSystem, target: ReturnSystem, g: AffMap) -> tuple:
    """Verify that g carries the base return system piece-by-piece onto target.

    Sources map to sources, targets to targets, and each piece map is
    conjugated by g, all as exact equalities.  Returns the matched target
    pieces in base order (entry j is the image of base piece j); raises
    AssertionError on any mismatch.
    """
    assert len(base.pieces) == len(target.pieces), "systems differ in piece count"
    g_inv = g.inverse()
    by_key = {p.source.canonical_key(): p for p in target.pieces}
    matched = []
    for p in base.pieces:
        img = p.source.transformed(g)
        q = by_key.get(img.canonical_key())
        assert q is not None, "mapped source missing from the target system"
        assert q.target == p.target.transformed(g)
        assert q.map == g.compose(p.map).compose(g_inv)
        assert q.return_time >= 1
        matched.append(q)
    return tuple(matched)


def visit_matrix(
    base: ReturnSystem, sub: ReturnSystem, g: AffMap, max_iter: int = 10**6
) -> tuple:
    """Visits of the base return map's orbits of the sub pieces to the base sources.

    ``g`` must carry ``base`` onto ``sub`` (``match_return_systems``), and
    sub's domain must lie in base's.  W[i][j] counts the visits to base
    source i along the R_base-orbit of g(A_j), the source of the sub piece
    matched to base piece j, up to its first return to sub's domain.  Each
    step places the region exactly (``overlap_status``): it lies inside
    exactly one base source and meets no other, and each walk must end on
    its sub piece's target.  A sub return is then the concatenation of the
    base returns it visits, so the sub return times are Wᵀ times the base
    ones, in base order.  Raises InconclusiveError when the walks take more
    than ``max_iter`` steps in all.
    """
    matched = match_return_systems(base, sub, g)
    n = len(base.pieces)
    sources = [p.source.convex_parts() for p in base.pieces]
    sub_parts = sub.domain.convex_parts()
    w = [[0] * n for _ in range(n)]
    steps = 0
    for j, q in enumerate(matched):
        region = q.source
        while True:
            steps += 1
            if steps > max_iter:
                raise InconclusiveError("visit walks exceeded the cap", max_iter)
            statuses = [overlap_status(region, parts) for parts in sources]
            assert (
                statuses.count("inside") == 1 and statuses.count("disjoint") == n - 1
            ), "a visit must lie in exactly one base source"
            i = statuses.index("inside")
            w[i][j] += 1
            region = region.transformed(base.pieces[i].map)
            status = overlap_status(region, sub_parts)
            if status == "inside":
                break
            assert status == "disjoint", "a visit straddles the sub domain"
        assert region == q.target, "the walk must end on its sub piece's target"
    return tuple(map(tuple, w))


def _interior_test(domain: Region):
    """The test "is this raw T'-iterate interior to the open domain?".

    Returns ``interior(xp, xq, yp, yq, r)``: the iterate as a ``Point``
    when it lies in the open domain, else None.  An iterate becomes a
    ``Point`` for the exact ``domain.classify`` only when the proven float
    enclosures of its coordinates (``float_interval``) meet the domain's
    proven ``float_bbox``.  A point outside that box is neither in the
    domain nor on its boundary, so the floats only prune exact tests and
    never decide one.  The enclosure of y is computed only when x's meets
    the box.
    """
    inf = float("inf")
    x0, y0, x1, y1 = domain.float_bbox() if domain.is_bounded else (-inf, -inf, inf, inf)
    classify = domain.classify

    def interior(xp, xq, yp, yq, r):
        lo, hi = float_interval(xp, xq, r)
        if hi < x0 or lo > x1:
            return None
        lo, hi = float_interval(yp, yq, r)
        if hi < y0 or lo > y1:
            return None
        q = raw_point(xp, xq, yp, yq, r)
        return q if classify(q) == INTERIOR else None

    return interior


def point_first_return(w: WedgeSystem, p: Point, domain: Region, max_iter: int = 10**6):
    """First forward T'-iterate of p landing back inside the open domain.

    Returns ``(q, n)`` with q = T'^n(p).  The iterates come from
    ``w.raw_orbit``, and an iterate is tested by ``_interior_test`` only
    when its step came from a piece of ``w.landing(domain)``: a step from
    any other open piece lands in its open image, which misses the open
    domain.  A cap that runs out is inconclusive (``InconclusiveError``).
    """
    interior = _interior_test(domain)
    landing = w.landing(domain)
    for n, (xp, xq, yp, yq, r, i) in zip(range(1, max_iter + 1), w.raw_orbit(p)):
        if i in landing:
            q = interior(xp, xq, yp, yq, r)
            if q is not None:
                return q, n
    raise InconclusiveError(f"no return within {max_iter} steps", iterations=max_iter)


def paired_first_returns(
    w: WedgeSystem, s: SimilaritySystem, p4: Point, r4: Point, max_iter: int = 10**6
) -> tuple:
    """The first returns of gamma_X(p4) to X and of gamma_1(p4) to Z'_14, from one walk.

    r4 must be the first return of p4 to Z'_4.  Returns
    ``((rx, n_x), (r14, n14))``, equal to ``point_first_return`` from
    px = gamma_X(p4) into X and from p14 = gamma_1(p4) into Z'_14.
    T'^2(px) = p14 (``verify_conjugacy`` gives the argument), so the orbit
    of px passes through p14 at step 2 and is the orbit of p14 from there
    on: one ``w.raw_orbit(px)`` carries both returns.  An iterate is
    tested against X or Z'_14 only after a step from a piece of that
    domain's ``w.landing`` set (see ``point_first_return``): alpha_3 for
    X and alpha_1 for Z'_14, so no iterate meets both tests.  Asserts, on
    the way: gamma_X(r4) = rx as soon as rx is found, the state after step
    2 equal to p14 (``raw_equals``), and gamma_1(r4) = r14.

    Each half keeps its own cap: InconclusiveError when X is not reached
    within max_iter steps, or Z'_14 within max_iter steps after step 2.
    A GraneError on the walk propagates, as it does from either walk alone.
    """
    px = s.gammaX.apply(p4)
    p14 = s.gamma1.apply(p4)
    assert s.X.classify(px) == INTERIOR
    in_x, in_14 = _interior_test(s.X), _interior_test(s.Z14)
    land_x, land_14 = w.landing(s.X), w.landing(s.Z14)
    rx = r14 = None
    for n, (xp, xq, yp, yq, r, i) in enumerate(w.raw_orbit(px), 1):
        if rx is None:
            if n > max_iter:
                raise InconclusiveError(f"no return to X within {max_iter} steps", max_iter)
            if i in land_x:
                rx = in_x(xp, xq, yp, yq, r)
                if rx is not None:
                    n_x = n
                    assert s.gammaX.apply(r4) == rx, "gamma_X must conjugate the returns"
        if n == 2:
            assert raw_equals(p14, xp, xq, yp, yq, r), "T'^2 gamma_X must be gamma_1"
        elif n > 2 and r14 is None:
            if n > max_iter + 2:
                raise InconclusiveError(f"no return to Z'_14 within {max_iter} steps", max_iter)
            if i in land_14:
                r14, n14 = in_14(xp, xq, yp, yq, r), n - 2
        if rx is not None and r14 is not None:
            assert s.gamma1.apply(r4) == r14, "gamma_1 must conjugate the returns"
            return (rx, n_x), (r14, n14)


def verify_conjugacy(
    w: WedgeSystem,
    s: SimilaritySystem,
    rs4: ReturnSystem,
    rs14: ReturnSystem,
    rsx: ReturnSystem,
    samples: int = 200,
    seed: int = 0,
    max_iter: int = 10**6,
) -> ConjugacyReport:
    """Exact piece-level conjugacies plus sampled commuting squares.

    gamma_1 and gamma_X carry the return system of Z'_4 piece by piece onto
    those of Z'_14 and X (``match_return_systems``).  Each sample p4,
    interior to Z'_4, checks the squares at a point: with r4 its first
    return to Z'_4, gamma_X(r4) and gamma_1(r4) must be the first returns
    of gamma_X(p4) to X and of gamma_1(p4) to Z'_14.  X = pullback(Z'_14),
    where pullback = iota T'^2 iota is T'^-2 by the reversing symmetry
    T'^-1 = iota T' iota, and gamma_X = pullback ∘ gamma_1.  So
    T'^2(gamma_X p) = gamma_1 p, and one orbit, that of gamma_X(p4),
    carries both returns (``paired_first_returns``).  A sample whose walks
    meet a boundary (GraneError) is counted as skipped.
    """
    import random

    n14 = len(match_return_systems(rs4, rs14, s.gamma1))
    nx = len(match_return_systems(rs4, rsx, s.gammaX))

    rng = random.Random(seed)
    box = s.Z4.float_bbox()
    checked = skipped = 0
    while checked < samples:
        x = rng.randint(int(box[0] * 512), int(box[2] * 512))
        y = rng.randint(int(box[1] * 512), int(box[3] * 512))
        p4 = Point(QS3._make(x, 0, 512), QS3._make(y, 0, 512))
        if s.Z4.classify(p4) != INTERIOR:
            continue
        try:
            r4, _ = point_first_return(w, p4, s.Z4, max_iter)
            paired_first_returns(w, s, p4, r4, max_iter)
        except GraneError:
            skipped += 1
            continue
        checked += 1
    return ConjugacyReport(n14, nx, checked, skipped)


# -- the aperiodic point --------------------------------------------------------------


@dataclass
class AperiodicWitness:
    y: Point
    steps_checked: int
    boundary_hit: int | None  # orbit step at which a boundary stopped the check
    nesting_depth: int
    spiral: list  # regions Y_0, Y_1, Y_2, ...
    spiral_tprime_periods: list  # T'-periods of the verified spiral components
    spiral_return_periods: list  # their return periods into Z'_4
    growth_factors: list  # return-period ratios between generations
    period_lower_bound: int

    def to_obj(self) -> dict:
        from .geom import region_to_obj

        return {
            "y": [self.y.x.literal(), self.y.y.literal()],
            "steps_checked": self.steps_checked,
            "boundary_hit": self.boundary_hit,
            "nesting_depth": self.nesting_depth,
            "spiral_len": len(self.spiral),
            "spiral_tprime_periods": self.spiral_tprime_periods,
            "spiral_return_periods": self.spiral_return_periods,
            "growth_factors": [str(f) for f in self.growth_factors],
            "period_lower_bound": self.period_lower_bound,
        }


def _rotated_boxes(table: SourceTable) -> list:
    """Float boxes of ROT[l](S) for l = 0..11, for ``_image_box`` to pad.

    S is ``table``'s source.  Box l is (x0, y0, x1, y1, mag): the least and
    largest floats of the coordinates in ``rotated[l]`` over m, each
    a + b*s3 computed as ``Region.float_bbox`` computes it, and the
    largest |a| + 2|b|, which bounds its rounding.
    """
    m = table.m
    boxes = []
    for rot in table.rotated:
        xs, ys = [], []
        mag = 0.0
        for xp, xq, yp, yq in rot:
            xa, xb, ya, yb = xp / m, xq / m, yp / m, yq / m
            xs.append(xa + xb * SQRT3_FLOAT)
            ys.append(ya + yb * SQRT3_FLOAT)
            mag = max(mag, abs(xa) + 2 * abs(xb), abs(ya) + 2 * abs(yb))
        boxes.append((min(xs), min(ys), max(xs), max(ys), mag))
    return boxes


def _image_box(box: tuple, t: tuple) -> tuple:
    """Proven float box (x0, y0, x1, y1) of the image ROT[l](S) + t.

    ``box`` is ROT[l](S)'s entry of ``_rotated_boxes``.  Each coordinate
    of the image is c + u, with c one of ROT[l](S) and u one of t.  As
    ``Region.float_bbox`` argues, the float of c is within 5e-16 * mag of
    c, and the float of u, computed the same way from t's integers, within
    5e-16 * (|a| + 2|b|) of u, however much either sum cancels; the float
    sum adds at most 2^-53 of its size, and so does the padding.  The pad,
    twice ``float_bbox``'s for the sum of both magnitudes, covers all
    three, so the box encloses the image and the image's ``float_bbox``.
    """
    x0, y0, x1, y1, mag = box
    xp, xq, yp, yq, r = t
    xa, xb, ya, yb = xp / r, xq / r, yp / r, yq / r
    tx, ty = xa + xb * SQRT3_FLOAT, ya + yb * SQRT3_FLOAT
    x0, y0, x1, y1 = x0 + tx, y0 + ty, x1 + tx, y1 + ty
    mag += abs(xa) + 2 * abs(xb) + abs(ya) + 2 * abs(yb)
    pad = 2e-9 * (1.0 + max(abs(x0), abs(y0), abs(x1), abs(y1))) + 2e-15 * mag
    return x0 - pad, y0 - pad, x1 + pad, y1 + pad


def _raw_placement(table: SourceTable, domain_parts):
    """The placement "where is the image ROT[l](S) + t against the domain?".

    Returns ``place(l, t)``, which gives ``overlap_status``'s answer for
    the region ``table.region(l, t)`` without building it where it can:
    domain_parts are the convex parts of a bounded domain, and S is
    ``table``'s source.  The image's proven box (``_image_box``, from the
    12 boxes of ROT[l](S) built here once) prunes the parts it misses.
    Against each other part ``cutting_lines`` signs the image's vertices,
    cleared to one denominator m*r as ``SourceTable.region`` clears them
    (vertex k is rotated[l][k]*r + t*m), against the part's edge lines.
    The image is "inside" when one closed part holds every vertex and
    "disjoint" when every part whose box meets it separates it, which is
    ``overlap_status``'s own trichotomy.  Otherwise the region is built
    and ``overlap_status`` decides it by area.
    """
    m = table.m
    boxes = _rotated_boxes(table)
    parts = [(part.float_bbox(), part.edge_lines()) for part in domain_parts]

    def place(l, t):
        box = _image_box(boxes[l], t)
        rows = None
        status = "disjoint"
        for pbox, lines in parts:
            if not boxes_overlap(box, pbox):
                continue
            if rows is None:
                xp, xq, yp, yq, r = t
                d, xp, xq, yp, yq = m * r, xp * m, xq * m, yp * m, yq * m
                rows = [
                    (vxp * r + xp, vxq * r + xq, vyp * r + yp, vyq * r + yq)
                    for vxp, vxq, vyp, vyq in table.rotated[l]
                ]
            cutting = cutting_lines(d, rows, lines)
            if cutting == []:
                return "inside"
            if cutting:
                status = "unknown"
        if status == "unknown":
            return overlap_status(table.region(l, t), domain_parts)
        return status

    return place


def _return_period(table: SourceTable, motions, domain_parts) -> int:
    """Visits of a region cycle to the domain (its return period).

    The cycle's regions are the images (l, t) in ``motions`` of
    ``table``'s source, placed by ``_raw_placement``; no region may
    straddle the domain.
    """
    place = _raw_placement(table, domain_parts)
    statuses = [place(l, t) for l, t in motions]
    assert "straddle" not in statuses
    return statuses.count("inside")


def aperiodic_witness(
    w: WedgeSystem,
    s: SimilaritySystem,
    steps: int = 10**4,
    depth: int = 8,
    verify_spiral: int = 9,
    max_iter: int = 10**6,
) -> AperiodicWitness:
    """Certify the fixed point of gamma_X as aperiodic by exact evidence.

    (a) T'^n(y) != y for 1 <= n <= steps, by exact comparison (a boundary
    hit truncates but is recorded; the certificate is then valid up to the
    hit).  T'^n(y) can equal y only after a step from
    ``w.return_piece(y)``, the piece of iota(y), so only those iterates
    are compared.  (b) y is interior to gamma_X^k(X) for k <= depth, with
    strict nesting.  The spiral components Y_n and their measured return
    periods into Z'_4 document the at-least-doubling that makes any
    hypothetical period exceed 2^depth.  Each spiral region is known
    (Y_n+3 is gamma_X(Y_n)), so the walk of ``close_component``
    (``search._walk_cycle``) certifies it as a maximal periodic component
    in one walk of its cycle, with no search.  The walk gives the cycle as
    raw images (l, t) of the region, and ``_return_period`` counts their
    visits to Z'_4 from those, building a region only where the vertex
    signs leave its placement open; the cycle's regions are not kept.

    Raises DomainError when steps < 1, depth < 0 or verify_spiral < 0.
    """
    if steps < 1 or depth < 0 or verify_spiral < 0:
        raise DomainError(
            "need steps >= 1, depth >= 0 and verify_spiral >= 0, "
            f"got {steps}, {depth}, {verify_spiral}"
        )
    gx = s.gammaX
    # strict contraction needed for a unique fixed point
    if (gx.m00 * gx.m00 + gx.m10 * gx.m10 - ONE).sign() >= 0:
        raise DomainError("map is not a strict contraction")
    y = gx.fixed_point()
    assert gx.apply(y) == y

    boundary_hit = None
    n_done = 0
    back = w.return_piece(y)
    try:
        for n, (*q, i) in zip(range(1, steps + 1), w.raw_orbit(y)):
            assert i != back or not raw_equals(y, *q), f"fixed point returned after {n} steps"
            n_done = n
    except GraneError:
        boundary_hit = n_done + 1

    # strict nesting of the rockets, with y interior at every level
    level = s.X
    assert level.classify(y) == INTERIOR
    for _ in range(depth):
        nxt = level.transformed(gx)
        assert overlap_status(nxt, level.convex_parts()) == "inside"
        assert nxt.area2() < level.area2()
        assert nxt.classify(y) == INTERIOR
        level = nxt

    # the spiral of periodic components converging to y
    y2 = s.g1w4.region.transformed(s.pullback_map)
    spiral = [s.w3.region, s.w2.region, y2]
    while len(spiral) < max(verify_spiral, 3 * depth // 2):
        spiral.append(spiral[-3].transformed(gx))

    z4_parts = s.Z4.convex_parts()
    tprime_periods = []
    return_periods = []
    for reg in spiral[:verify_spiral]:
        period, _, _, _, table, motions = _walk_cycle(w, reg, max_iter)
        tprime_periods.append(period)
        return_periods.append(_return_period(table, motions, z4_parts))
    from fractions import Fraction

    growth = [
        Fraction(return_periods[n], return_periods[n - 3])
        for n in range(3, len(return_periods))
    ]

    return AperiodicWitness(
        y=y,
        steps_checked=n_done,
        boundary_hit=boundary_hit,
        nesting_depth=depth,
        spiral=spiral,
        spiral_tprime_periods=tprime_periods,
        spiral_return_periods=return_periods,
        growth_factors=growth,
        period_lower_bound=2**depth,
    )
