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

Regions are placed against a domain by the one placement of a polygon
against its convex parts (``geom.place``): built regions through
``overlap_status`` (the nesting asserts and :func:`visit_matrix`), and
the raw images of the witness's spiral cycles through
``search.image_placement``, as ``first_return_map`` places its landing
fragments.  Points are located by the one sign pass over the same parts
(``geom.point_sign``): sampled points through ``Region.classify``, and
the raw iterates of the sampled return walks directly.  A walk or a
cycle tests only the steps from the pieces whose images meet its domain
(``WedgeSystem.landing``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, GraneError, InconclusiveError
from .field import ONE, QS3
from .geom import (
    INTERIOR,
    AffMap,
    Point,
    Region,
    overlap_status,
    point_sign,
    raw_equals,
    raw_point,
)
from .search import (
    Component,
    ReturnSystem,
    _walk_cycle,
    find_periodic_component,
    image_placement,
)
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
    when it lies in the open domain, else None.  The iterate is located
    on its raw integers by the sign pass ``point_sign`` over the domain's
    convex parts, whose proven boxes skip the parts it cannot meet.  It
    becomes a ``Point`` only when it lies strictly inside a part, or on a
    part edge, where the exact ``domain.classify`` tells an internal edge
    (interior) from the domain's boundary.
    """
    parts = domain.convex_parts()
    classify = domain.classify

    def interior(xp, xq, yp, yq, r):
        where = point_sign(parts, xp, xq, yp, yq, r)
        if where < 0:
            return None
        q = raw_point(xp, xq, yp, yq, r)
        return q if where > 0 or classify(q) == INTERIOR else None

    return interior


def point_first_return(w: WedgeSystem, p: Point, domain: Region, max_iter: int = 10**6):
    """First forward T'-iterate of p landing back inside the open domain.

    Returns ``(q, n)`` with q = T'^n(p).  The walk ``w.raw_orbit`` runs at
    most max_iter steps and reports only the steps from a piece of
    ``w.landing(domain)``, whose iterates ``_interior_test`` tests: a step
    from any other open piece lands in its open image, which misses the
    open domain.  A cap that runs out is inconclusive
    (``InconclusiveError``); a GraneError on the walk propagates.
    """
    interior = _interior_test(domain)
    for n, xp, xq, yp, yq, r, _ in w.raw_orbit(p, w.landing(domain), max_iter):
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
    on: one ``w.raw_orbit(px)`` carries both returns.  The walk reports
    only the steps from a piece of either domain's ``w.landing`` set (see
    ``point_first_return``): alpha_3 for X and alpha_1 for Z'_14, so no
    iterate meets both tests.  Step 2 lands on p14, interior to Z'_14, so
    it comes from a landing piece of Z'_14 and is reported.  Asserts, on
    the way: gamma_X(r4) = rx as soon as rx is found, the first reported
    step after step 1 to be step 2 with its state equal to p14
    (``raw_equals``), and gamma_1(r4) = r14.

    Each half keeps its own cap: InconclusiveError when X is not reached
    within max_iter steps, or Z'_14 within max_iter steps after step 2;
    the walk runs at most max_iter + 2 steps.  A GraneError on the walk
    propagates, as it does from either walk alone.
    """
    px = s.gammaX.apply(p4)
    p14 = s.gamma1.apply(p4)
    assert s.X.classify(px) == INTERIOR
    in_x, in_14 = _interior_test(s.X), _interior_test(s.Z14)
    land_x, land_14 = w.landing(s.X), w.landing(s.Z14)
    rx = r14 = None
    at2 = False
    for n, xp, xq, yp, yq, r, i in w.raw_orbit(px, land_x | land_14, max_iter + 2):
        if rx is None and n <= max_iter and i in land_x:
            rx = in_x(xp, xq, yp, yq, r)
            if rx is not None:
                n_x = n
                assert s.gammaX.apply(r4) == rx, "gamma_X must conjugate the returns"
        if n >= 2 and not at2:
            assert n == 2 and raw_equals(p14, xp, xq, yp, yq, r), "T'^2 gamma_X must be gamma_1"
            at2 = True
        elif n > 2 and r14 is None and i in land_14:
            r14, n14 = in_14(xp, xq, yp, yq, r), n - 2
        if rx is not None and r14 is not None:
            assert s.gamma1.apply(r4) == r14, "gamma_1 must conjugate the returns"
            return (rx, n_x), (r14, n14)
    if rx is None:
        raise InconclusiveError(f"no return to X within {max_iter} steps", max_iter)
    raise InconclusiveError(f"no return to Z'_14 within {max_iter} steps", max_iter)


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


def _return_period(
    w: WedgeSystem, table: SourceTable, motions, rotation: int, domain: Region
) -> int:
    """Visits of a region cycle to the domain (its return period).

    The cycle's regions are the images (l, t) in ``motions`` of
    ``table``'s source, in walk order, and ``rotation`` is the turn l of
    the whole cycle (``search._walk_cycle`` gives both).  An image can lie
    in the domain only when the step to it came from a piece of
    ``w.landing(domain)``: a step from any other open piece lands in its
    open image, which misses the open domain.  ``maps[i]`` turns by
    30°*(6 - i), so the step to motion k came from the piece i with
    6 - i = l_k - l_(k-1) mod 12; the first motion is reached by the
    cycle's last step, turned by ``rotation`` in all.  Only those images
    are placed, by ``search.image_placement``, and none may straddle the
    domain.
    """
    landing = w.landing(domain)
    place_image = image_placement(domain.convex_parts())
    turns = [rotation - motions[-1][0]]
    turns += [l - prev for (prev, _), (l, _) in zip(motions, motions[1:])]
    visits = 0
    for (l, t), turn in zip(motions, turns):
        if 6 - turn % 12 in landing:
            status = place_image(table, l, t)[0]
            assert status != "straddle"
            visits += status == "inside"
    return visits


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
    hit, whose step a second, unfiltered walk finds).  T'^n(y) can equal
    y only after a step from ``w.return_piece(y)``, the piece of iota(y),
    so the walk reports only those steps (1,217 of the 10^4) and only
    their iterates are compared.  (b) y is interior to gamma_X^k(X) for
    k <= depth, with strict nesting.  The spiral components Y_n and their
    measured return periods into Z'_4 document the at-least-doubling that
    makes any hypothetical period exceed 2^depth.  Each spiral region is known
    (Y_n+3 is gamma_X(Y_n)), so the walk of ``close_component``
    (``search._walk_cycle``) certifies it as a maximal periodic component
    in one walk of its cycle, with no search.  The walk gives the cycle as
    raw images (l, t) of the region and its rotation, and
    ``_return_period`` counts their visits to Z'_4 from those, placing
    only the images stepped from a landing piece of Z'_4 (2,099 of the
    3,260; ``search.image_placement``) and building a region only where
    the vertex signs leave its placement open; the cycle's regions are
    not kept.

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
    n_done = steps
    try:
        # (None,) when y lies in no open image: no step is reported
        for n, *q, _ in w.raw_orbit(y, (w.return_piece(y),), steps):
            assert not raw_equals(y, *q), f"fixed point returned after {n} steps"
    except GraneError:
        n_done = w.itinerary(y, steps).fwd_fail
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

    tprime_periods = []
    return_periods = []
    for reg in spiral[:verify_spiral]:
        period, l, _, _, table, motions = _walk_cycle(w, reg, max_iter)
        tprime_periods.append(period)
        return_periods.append(_return_period(w, table, motions, l, s.Z4))
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
