"""Named verification checks, one per acceptance criterion.

Each check raises AssertionError (with a message) on failure and returns a
details dict on success.  ``run_checks`` wraps them with timing and a
shared lazily-built context so the CLI ``verify`` command and the test
suite execute the identical battery.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import GraneError, InconclusiveError
from .field import ONE, QS3, ZERO, qs3_parse
from .geom import (
    AffMap,
    Line,
    Point,
    Region,
    split_region,
)
from .periods import (
    CONSTANTS_SHA256,
    constants_digest,
    cross_validate,
    full_period_set,
    mat_vec,
    period_of_h,
    replay_witness,
)
from .search import (
    component_periods,
    find_periodic_component,
    first_return_map,
    verify_partition,
)
from .selfsim import (
    aperiodic_witness,
    build_similarity,
    contraction_ratios,
    match_return_systems,
    point_first_return,
    verify_conjugacy,
    visit_matrix,
)
from .table import ROT, build_table

# golden values frozen from the first fully verified run
Z14_PERIOD_MULTISET = sorted(
    [1, 1, 18, 24, 1, 60, 54, 3, 32, 2, 756, 1008, 48, 1, 2, 3, 4, 37, 42, 85]
)
RED_FRACTION_THRESHOLD = QS3(Fraction(9, 10))  # reached by refinement level 3
RED_FRACTION_GOLDENS = {
    "z4": "-28411/22+49235/66*s3",
    "z14": "-67021668/11+38694984/11*s3",
    "level3": "-369403473225/11+639825584137/33*s3",
}
MIN_TWO_AHEAD_GOLDEN = "-892085+515046*s3"  # level-1 epsilon, about 0.84
DOMAINS = ("z1", "z4", "z14", "x", "zp", "level3")
# the aperiodic witness: T' steps checked, and the spiral nesting depth
WITNESS_STEPS = 10**4
WITNESS_DEPTH = 8


@dataclass
class CheckResult:
    name: str
    ok: bool
    seconds: float
    details: dict
    error: str | None = None

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "seconds": round(self.seconds, 3),
            "details": self.details,
            "error": self.error,
        }


class Context:
    """Lazily built shared artifacts for the verification battery.

    ``max_iter`` is the run's one cap: every iteration and event budget.
    """

    def __init__(self, seed: int = 0, max_iter: int = 10**6):
        self.seed = seed
        self.max_iter = max_iter
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def system(self):
        return self._get("system", build_table)

    @property
    def table(self):
        return self.system[0]

    @property
    def wedge(self):
        return self.system[1]

    @property
    def sim(self):
        return self._get("sim", lambda: build_similarity(self.wedge, self.max_iter))

    def domain(self, label: str) -> Region:
        """The named return domain; ``level3`` is γ1(Z'_14)."""
        if label == "zp":
            return self.wedge.Zp
        s = self.sim
        if label == "level3":
            return s.Z14.transformed(s.gamma1)
        return {"z1": s.Z1, "z4": s.Z4, "z14": s.Z14, "x": s.X}[label]

    def return_system(self, label: str):
        return self._get(
            ("rs", label),
            lambda: first_return_map(self.wedge, self.domain(label), self.max_iter),
        )

    def partition(self, label: str):
        return self._get(
            ("part", label),
            lambda: verify_partition(
                self.wedge,
                self.return_system(label).domain,
                label=label,
                max_events=self.max_iter,
                max_iter=self.max_iter,
                return_system=self.return_system(label),
            ),
        )

    def base_components(self):
        """W_1..W_4, the components of the fixed points O_1..O_4."""

        def build():
            s = self.sim
            w1 = find_periodic_component(self.wedge, self.wedge.O[1], self.max_iter)
            return {1: w1, 2: s.w2, 3: s.w3, 4: s.w4}

        return self._get("base_components", build)

    def witness(self):
        return self._get(
            "witness",
            lambda: aperiodic_witness(
                self.wedge,
                self.sim,
                steps=WITNESS_STEPS,
                depth=WITNESS_DEPTH,
                verify_spiral=WITNESS_DEPTH,
            ),
        )


# -- sampling helpers ---------------------------------------------------------------


def _wedge_points(w, rng, count, span=8):
    """``count`` points apex + (a/64)*dir_p + (b/64)*dir_q, with a, then b,
    drawn from 1..64*span: each coordinate is one ``QS3._make`` of
    integers linear in a and b, over the product of the three terms'
    denominators times 64."""
    rows = []
    for o, u, v in ((w.apex.x, w.dir_p.x, w.dir_q.x), (w.apex.y, w.dir_p.y, w.dir_q.y)):
        f = o.r * u.r * v.r
        co, cu, cv = 64 * (f // o.r), f // u.r, f // v.r
        rows.append((o.p * co, o.q * co, u.p * cu, u.q * cu, v.p * cv, v.q * cv, 64 * f))
    (xo, xoq, xu, xuq, xv, xvq, dx), (yo, yoq, yu, yuq, yv, yvq, dy) = rows
    make = QS3._make
    out = []
    for _ in range(count):
        a = rng.randint(1, span * 64)
        b = rng.randint(1, span * 64)
        out.append(
            Point(
                make(xo + a * xu + b * xv, xoq + a * xuq + b * xvq, dx),
                make(yo + a * yu + b * yv, yoq + a * yuq + b * yvq, dy),
            )
        )
    return out


def _side_squares(region):
    pts = region.vertices
    n = len(pts)
    return [(pts[(i + 1) % n] - pts[i]).norm2() for i in range(n)]


def _angle_dots(region):
    """dot(prev->v, next->v) at each vertex (exact angle data for equal sides)."""
    pts = region.vertices
    n = len(pts)
    out = []
    for i in range(n):
        u = pts[i - 1] - pts[i]
        v = pts[(i + 1) % n] - pts[i]
        out.append(u.dot(v))
    return out


def _is_regular(region, sides: int) -> bool:
    s2 = _side_squares(region)
    if len(s2) != sides or any(s != s2[0] for s in s2):
        return False
    dots = _angle_dots(region)
    return all(d == dots[0] for d in dots)


def _inscribed(inner: Region, outer: Region) -> bool:
    """Every side of outer carries a full side of inner."""
    opts = outer.vertices
    ipts = inner.vertices
    n, m = len(opts), len(ipts)
    for i in range(n):
        a, b = opts[i], opts[(i + 1) % n]
        ln = Line.through(a, b)
        seg2 = (b - a).norm2()
        found = False
        on = ln.signs(ipts)
        for j in range(m):
            p, q = ipts[j], ipts[(j + 1) % m]
            if on[j] == 0 and on[(j + 1) % m] == 0:
                tp = (p - a).dot(b - a)
                tq = (q - a).dot(b - a)
                if (
                    tp.sign() >= 0
                    and tq.sign() >= 0
                    and (tp - seg2).sign() <= 0
                    and (tq - seg2).sign() <= 0
                ):
                    found = True
                    break
        if not found:
            return False
    return True


# -- the ten criteria ------------------------------------------------------------------


def check_construction_identities(ctx: Context) -> dict:
    # building the wedge system asserts the vertex and gluing identities
    t, _ = ctx.system
    images = 0
    for i in range(12):
        gon = t.mirrored[i]
        _, j = t.step(gon.interior_point())
        lo, hi = t.cones[j]
        assert min(lo.signs(gon.vertices)) >= 0 and max(hi.signs(gon.vertices)) <= 0
        image = gon.transformed(AffMap.point_reflection(t.vertices[j]))
        assert image == t.mirrored[(i + 5) % 12]
        images += 1
    return {"gluing_identities": 12, "mirror_images": images}


def check_fixed_points(ctx: Context) -> dict:
    samples = 10**4
    w = ctx.wedge
    for i in range(1, 6):
        img, sym = w.step(w.O[i])
        assert sym == i and img == w.O[i]
    rng = random.Random(ctx.seed + 2)
    fixed = {w.O[i] for i in range(1, 6)}
    checked = 0
    for p in _wedge_points(w, rng, samples):
        try:
            q, _ = w.step(p)
        except GraneError:
            continue
        if p not in fixed:
            assert q != p, f"unexpected fixed point {p.literal()}"
        checked += 1
    assert checked >= samples * 9 // 10
    return {"sampled": checked}


def check_base_components(ctx: Context) -> dict:
    w = ctx.wedge
    comps = ctx.base_components()
    a = w.alpha

    w1 = comps[1]
    assert _is_regular(w1.region, 12)
    assert w1.center == w.O[1] and w1.period == 1 and w1.rotation_l == 5
    assert _inscribed(w1.region, a[1])

    w2 = comps[2]
    s2 = _side_squares(w2.region)
    assert len(s2) == 6 and all(s == s2[0] for s in s2)
    dots = _angle_dots(w2.region)
    # angles alternate pi/2 (dot 0) and 5pi/6 (dot -sqrt(3)/2 * side^2)
    obtuse = QS3(0, Fraction(-1, 2)) * s2[0]
    vals = {0: ZERO, 1: obtuse}
    verts = list(w2.region.vertices)
    i3 = verts.index(w.P[3])
    assert dots[i3] == ZERO, "right angle expected at P3"
    assert verts[(i3 + 3) % 6] == w.Q[2], "opposite vertex expected at Q2"
    for k in range(6):
        assert dots[(i3 + k) % 6] == vals[k % 2]
    assert w2.center == w.O[2] and w2.rotation_l == 4
    assert _inscribed(w2.region, a[2])

    w3 = comps[3]
    s3 = _side_squares(w3.region)
    assert len(s3) == 8 and all(s == s3[0] for s in s3)
    dots = _angle_dots(w3.region)
    third = QS3(Fraction(-1, 2)) * s3[0]  # cos(2pi/3) = -1/2
    obtuse = QS3(0, Fraction(-1, 2)) * s3[0]  # cos(5pi/6) = -sqrt(3)/2
    verts = list(w3.region.vertices)
    iq = verts.index(w.Q[3])
    assert dots[iq] == third, "2pi/3 angle expected at Q3"
    for k in range(8):
        assert dots[(iq + k) % 8] == (third if k % 2 == 0 else obtuse)
    assert w3.center == w.O[3] and w3.rotation_l == 3
    assert _inscribed(w3.region, a[3])

    w4 = comps[4]
    assert _is_regular(w4.region, 12)
    assert w4.center == w.O[4] and w4.period == 1 and w4.rotation_l == 2
    assert _inscribed(w4.region, a[4])

    # each is convex and side-parallel by close_component's certificate
    for comp in comps.values():
        # idempotence: rerunning from any interior point returns the region
        probe = Point(
            (comp.center.x * 3 + comp.region.vertices[0].x) / 4,
            (comp.center.y * 3 + comp.region.vertices[0].y) / 4,
        )
        again = find_periodic_component(w, probe, ctx.max_iter)
        assert again.region == comp.region
    return {"components": 4}


def _assert_reversible(w, rs, label: str):
    """T'^-1 = iota T' iota, and iota keeps the domain and conjugates each
    return map R_j to its inverse: iota(A_j) = B_j = R_j(A_j), iota R_j
    iota R_j = id, and the itinerary is a palindrome."""
    iota = w.iota
    assert rs.domain.transformed(iota) == rs.domain, f"iota must keep the {label} domain"
    for p in rs.pieces:
        assert (
            p.source.transformed(iota) == p.target
        ), f"iota must map each {label} source onto its target"
        assert (
            iota.compose(p.map).compose(iota).compose(p.map) == AffMap.identity()
        ), f"iota R iota R must be the identity on every {label} piece"
        assert p.itinerary == p.itinerary[::-1], f"every {label} itinerary must be a palindrome"


def check_first_return_structure(ctx: Context) -> dict:
    rs1 = ctx.return_system("z1")
    sizes, nonconvex = rs1.shape_census()
    assert len(rs1.pieces) == 10
    assert sizes == [3, 3, 3, 3, 4, 4, 4, 4, 4, 6]
    hexes = [p.source for p in rs1.pieces if len(p.source.vertices) == 6]
    hs = _side_squares(hexes[0])
    assert any(s != hs[0] for s in hs), "the hexagon piece must have unequal sides"

    details = {"z1_pieces": 10}
    for label in ("z4", "z14"):
        rs = ctx.return_system(label)
        sizes, nonconvex = rs.shape_census()
        assert len(rs.pieces) == 8
        assert sizes == [3, 3, 4, 4, 4, 4, 4, 4]
        assert nonconvex == 1
        details[f"{label}_pieces"] = 8
        _assert_reversible(ctx.wedge, rs, label)
        details[f"{label}_reversible_pieces"] = len(rs.pieces)

    matched = match_return_systems(
        ctx.return_system("z4"), ctx.return_system("z14"), ctx.sim.gamma1
    )
    details["gamma1_matched_pieces"] = len(matched)
    return details


def check_tube_partition(ctx: Context) -> dict:
    rep4 = ctx.partition("z4")
    assert rep4.n_components == 7, f"expected 7 components, got {rep4.n_components}"
    rep14 = ctx.partition("z14")
    assert rep14.n_components == 20, f"expected 20, got {rep14.n_components}"
    assert sorted(rep14.periods) == Z14_PERIOD_MULTISET
    return {
        "z4_components": rep4.n_components,
        "z4_periods": sorted(rep4.periods),
        "z14_periods": sorted(rep14.periods),
        "z4_red_fraction": float(rep4.red_fraction()),
        "z14_red_fraction": float(rep14.red_fraction()),
    }


def check_self_similarity(ctx: Context) -> dict:
    samples = 1000
    s = ctx.sim
    assert s.g1w4.period == 37, f"gamma1(W4) period {s.g1w4.period} != 37"
    report = verify_conjugacy(
        ctx.wedge,
        s,
        ctx.return_system("z4"),
        ctx.return_system("z14"),
        ctx.return_system("x"),
        samples=samples,
        seed=ctx.seed + 6,
        max_iter=ctx.max_iter,
    )
    assert report.pieces_matched_z14 == 8
    assert report.pieces_matched_x == 8
    assert report.samples_checked >= samples
    return report.to_obj()


def check_aperiodic_witness(ctx: Context) -> dict:
    wit = ctx.witness()
    assert ctx.sim.gammaX.apply(wit.y) == wit.y, "y must be the fixed point of gamma_X"
    assert wit.boundary_hit is None and wit.steps_checked == WITNESS_STEPS
    assert wit.nesting_depth >= WITNESS_DEPTH
    assert all(f >= 2 for f in wit.growth_factors), "every growth factor must be at least 2"
    return wit.to_obj()


def check_full_measure(ctx: Context) -> dict:
    """Red (periodic) fractions of Z' at levels 1-3, from Z'_4 and Z'_14 alone.

    Level n is the domain S_n = γ1^(n-1)(Z'_4), with sources γ1^(n-1)(A_j)
    and return times t^(n).  T' is injective, so the floors of a return
    system's towers are pairwise disjoint (Kakutani-Rokhlin) inside the
    invariant Z', and up to measure zero they cover the points whose orbit
    meets S_n: green area at level n is λ^(2(n-1)) Σ_j area(A_j)·t_j^(n),
    with λ the ratio of γ1.  γ1 conjugates the return map R_n of S_n to
    R_(n+1) (check ``self-similarity``), so the R_n-orbit of γ1^n(A_j)
    visits γ1^(n-1)(A_i) W[i][j] times at every n, with W the visit matrix
    of n = 1: t^(n+1) = Wᵀ t^(n), and t^(2) must equal the Z'_14 return
    times.  The level-3 sources visit A_i (W²)[i][k] times, so the fraction
    of A_i that is still red at level 3 is
    1 - λ⁴ Σ_k (W²)[i][k]·area(A_k)/area(A_i).

    Red is periodic at every level, by induction.  Base: the Z'_4 and
    Z'_14 partitions (check ``tube-partition``) tile the red of levels 1
    and 2 by periodic components.  Step: R_(n+1) is the first return of
    R_n to S_(n+1), so R_(n+1) = γ1 R_n γ1^-1 for every n, and γ1 carries
    the points of S_n whose R_n-orbit misses S_(n+1) onto those of
    S_(n+1).  At n = 1 these are red at level 2, so periodic; hence they
    are periodic at every n, and their orbits are the red that level n+1
    adds.

    Full measure at every level: red is T'-invariant and each tower floor
    is an isometric copy of its source, so a floor holds the same red two
    levels deeper as its source, and by γ1 the least such fraction ε is the
    same at every level.  With ε > 0 the two-ahead minimum,
    green_(n+2) <= (1 - ε)·green_n, which tends to 0: almost every orbit is
    periodic.  The tests cross-check all of this against the T'-built
    level-3 towers.
    """
    rs4, rs14 = ctx.return_system("z4"), ctx.return_system("z14")
    gamma1 = ctx.sim.gamma1
    lam, _ = contraction_ratios(ctx.wedge)
    w = visit_matrix(rs4, rs14, gamma1, ctx.max_iter)
    wt = tuple(zip(*w))
    times = [tuple(p.return_time for p in rs4.pieces)]
    for _ in range(2):
        times.append(mat_vec(wt, times[-1]))
    z14_times = tuple(q.return_time for q in match_return_systems(rs4, rs14, gamma1))
    assert times[1] == z14_times, "z14 return times must be Wᵀ times the z4 ones"

    areas = tuple(p.source.area2() for p in rs4.pieces)
    zp = ctx.wedge.Zp.area2()
    greens = mat_vec(times, areas)
    reds = [1 - lam ** (2 * n) * g / zp for n, g in enumerate(greens)]
    for label, red in zip(RED_FRACTION_GOLDENS, reds):
        assert red == qs3_parse(RED_FRACTION_GOLDENS[label])
    assert all(a <= b for a, b in zip(reds, reds[1:])), "red area must never shrink"
    assert reds[-1] > RED_FRACTION_THRESHOLD

    w2 = [mat_vec(wt, row) for row in w]  # row i of W·W
    two_ahead = [1 - lam**4 * g / a for g, a in zip(mat_vec(w2, areas), areas)]
    eps = min(two_ahead)
    assert eps.sign() > 0
    assert eps == qs3_parse(MIN_TWO_AHEAD_GOLDEN)
    levels = zip(RED_FRACTION_GOLDENS, times, reds)
    return {
        "visit_matrix": [list(row) for row in w],
        "levels": [
            {
                "level": n,
                "label": label,
                "return_times": list(t),
                "total_red_fraction": red.literal(),
                "total_red_fraction_float": float(red),
            }
            for n, (label, t, red) in enumerate(levels, start=1)
        ],
        "two_ahead_fractions": [f.literal() for f in two_ahead],
        "min_two_ahead_fraction": eps.literal(),
        "min_two_ahead_fraction_float": float(eps),
    }


def check_period_set(ctx: Context) -> dict:
    bound, samples = 2000, 120
    assert constants_digest() == CONSTANTS_SHA256
    pset = full_period_set(bound)
    # stability: recomputation is identical, witnesses replay to their h
    again = full_period_set(bound)
    assert pset.periods == again.periods
    for p in pset.periods[:50]:
        wit = pset.generators[p]
        h = replay_witness(wit)
        base = period_of_h(h)
        assert base == (p // 2 if wit.doubled else p)
    for p in pset.periods:
        if p % 2 == 1 and 2 * p <= bound:
            assert 2 * p in pset.generators

    comps = list(ctx.base_components().values())
    comps.append(ctx.sim.g1w4)
    infos = [component_periods(comp) for comp in comps]
    for label in ("z4", "z14"):
        for pc in ctx.partition(label).components:
            comps.append(pc.component)
            infos.append(pc.periods)
    need = max(max(i.center_per_t, i.noncenter_per_t) for i in infos)
    big = full_period_set(need) if need > bound else pset
    for info in infos:
        assert info.center_per_t in big.generators
        assert info.noncenter_per_t in big.generators

    cv = cross_validate(
        ctx.wedge,
        bound,
        components=comps[:6],
        samples=samples,
        seed=ctx.seed + 9,
    )
    out = cv.to_obj()
    out["bound"] = bound
    out["count"] = len(pset.periods)
    out["component_period_bound"] = need
    return out


def check_kernel_properties(ctx: Context) -> dict:
    cases = 1000
    t, w = ctx.system
    rng = random.Random(ctx.seed + 10)

    # field axioms and sign correctness
    def rand_qs3():
        return QS3(
            Fraction(rng.randint(-40, 40), rng.randint(1, 16)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 16)),
        )

    for _ in range(cases):
        x, y, z = rand_qs3(), rand_qs3(), rand_qs3()
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x.sign() * y.sign() == (x * y).sign()
        if not x.is_zero():
            assert x * (ONE / x) == ONE
        assert qs3_parse(x.literal()) == x

    # split-area conservation on random convex polygons
    split_checked = 0
    while split_checked < cases:
        cx, cy = rng.randint(-4, 4), rng.randint(-4, 4)
        pts = []
        for k in range(rng.randint(3, 6)):
            pts.append(
                Point(
                    QS3(Fraction(cx * 8 + rng.randint(-12, 12), 8)),
                    QS3(Fraction(cy * 8 + rng.randint(-12, 12), 8)),
                )
            )
        try:
            reg = Region.bounded(pts)
        except ValueError:
            continue
        if not reg.is_convex():
            continue
        nx, ny = rng.randint(-3, 3), rng.randint(-3, 3)
        if nx == 0 and ny == 0:
            continue
        line = Line(QS3(nx), QS3(ny), QS3(Fraction(rng.randint(-32, 32), 4)))
        pieces = split_region(reg, line)
        total = ZERO
        for piece in pieces:
            total = total + piece.area2()
        assert total == reg.area2()
        split_checked += 1

    # isometries preserve area and squared distances
    tri = Region.bounded([Point(QS3(0), QS3(0)), Point(QS3(3), QS3(1)), Point(QS3(1), QS3(2))])
    for k in range(cases):
        f = ctx.wedge.maps[1 + k % 6]
        assert f.is_isometry() or f.is_translation()
        g = ROT[k % 12].compose(f)
        assert g.compose(g.inverse()) == AffMap.identity()
    assert w.maps[3].apply(tri.centroid()) == tri.transformed(w.maps[3]).centroid()

    # itinerary shift property
    rng2 = random.Random(ctx.seed + 11)
    shifted = 0
    while shifted < cases:
        p = _wedge_points(w, rng2, 1)[0]
        try:
            it = w.itinerary(p, 6, 2)
            q, _ = w.step(p)
            it2 = w.itinerary(q, 5, 3)
        except GraneError:
            continue
        if it.complete and it2.complete:
            assert it.symbols == it2.symbols
            assert it2.start_offset == it.start_offset + 1
            shifted += 1

    # wedge conjugacy H o T' = T6 o H
    rng3 = random.Random(ctx.seed + 12)
    conjugated = 0
    while conjugated < cases:
        p = _wedge_points(w, rng3, 1, span=4)[0]
        try:
            tx, _ = w.step(p)
            hp = w.H.apply(p)
            assert w.piece_index(hp) == 6
            ret, _ = point_first_return(w, hp, w.alpha[6], 10**5)
        except GraneError:
            continue
        assert ret == w.H.apply(tx)
        conjugated += 1
    return {
        "cases": cases,
        "split_area_checked": split_checked,
        "itinerary_shift_checked": shifted,
        "wedge_conjugacy_checked": conjugated,
    }


CHECKS = [
    ("construction-identities", check_construction_identities),
    ("fixed-points", check_fixed_points),
    ("base-components", check_base_components),
    ("first-return-structure", check_first_return_structure),
    ("tube-partition", check_tube_partition),
    ("self-similarity", check_self_similarity),
    ("aperiodic-witness", check_aperiodic_witness),
    ("full-measure", check_full_measure),
    ("period-set", check_period_set),
    ("kernel-properties", check_kernel_properties),
]

CHECK_NAMES = [name for name, _ in CHECKS]


def run_checks(names=None, ctx: Context | None = None, progress=None):
    """Run the named checks in order (all of them when ``names`` is None).

    An empty selection raises ValueError and an unknown name KeyError,
    both before any check starts.
    """
    selected = CHECK_NAMES if names is None else list(names)
    if not selected:
        raise ValueError("no check selected")
    table = dict(CHECKS)
    for name in selected:
        if name not in table:
            raise KeyError(f"unknown check {name!r}")
    ctx = ctx or Context()
    results = []
    for name in selected:
        start = time.perf_counter()
        try:
            details = table[name](ctx)
            res = CheckResult(name, True, time.perf_counter() - start, details)
        except InconclusiveError as exc:
            res = CheckResult(
                name,
                False,
                time.perf_counter() - start,
                {},
                error=f"inconclusive: {exc}",
            )
        except AssertionError as exc:
            res = CheckResult(
                name, False, time.perf_counter() - start, {}, error=str(exc)
            )
        except Exception as exc:  # a crash is a failure, not a traceback
            res = CheckResult(
                name,
                False,
                time.perf_counter() - start,
                {},
                error=f"{type(exc).__name__}: {exc}",
            )
        results.append(res)
        if progress is not None:
            progress(res)
    return results
