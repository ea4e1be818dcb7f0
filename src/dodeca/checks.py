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
    period_of_h,
    replay_witness,
)
from .search import (
    component_periods,
    find_periodic_component,
    first_return_map,
    red_fraction_check,
    verify_partition,
)
from .selfsim import (
    aperiodic_witness,
    build_similarity,
    contraction_ratios,
    verify_conjugacy,
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
    """Lazily built shared artifacts for the verification battery."""

    def __init__(self, seed: int = 0, max_iter: int = 10**6, max_events: int = 10**6):
        self.seed = seed
        self.max_iter = max_iter
        self.max_events = max_events
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
            lambda: first_return_map(self.wedge, self.domain(label), self.max_events),
        )

    def partition(self, label: str):
        return self._get(
            ("part", label),
            lambda: verify_partition(
                self.wedge,
                self.return_system(label).domain,
                label=label,
                max_events=self.max_events,
                max_iter=self.max_iter,
                return_system=self.return_system(label),
            ),
        )

    def base_components(self):
        def build():
            return {
                i: find_periodic_component(self.wedge, self.wedge.O[i], self.max_iter)
                for i in range(1, 5)
            }

        return self._get("base_components", build)

    def witness(self, steps: int = 10**4, depth: int = 8):
        return self._get(
            ("witness", steps, depth),
            lambda: aperiodic_witness(
                self.wedge, self.sim, steps=steps, depth=depth, verify_spiral=8
            ),
        )


# -- sampling helpers ---------------------------------------------------------------


def _wedge_points(w, rng, count, span=8):
    out = []
    while len(out) < count:
        s = Fraction(rng.randint(1, span * 64), 64)
        t = Fraction(rng.randint(1, span * 64), 64)
        out.append(w.apex + w.dir_p.scaled(s) + w.dir_q.scaled(t))
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
        for j in range(m):
            p, q = ipts[j], ipts[(j + 1) % m]
            if ln.side(p) == 0 and ln.side(q) == 0:
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
        for v in gon.vertices:
            assert lo.side(v) >= 0 and hi.side(v) <= 0
        image = gon.transformed(AffMap.point_reflection(t.vertices[j]))
        assert image == t.mirrored[(i + 5) % 12]
        images += 1
    return {"gluing_identities": 12, "mirror_images": images}


def check_fixed_points(ctx: Context, samples: int = 10**4) -> dict:
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
    t, w = ctx.system
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

    for comp in comps.values():
        assert comp.region.is_convex()
        assert t.sides_parallel(comp.region)
        # idempotence: rerunning from any interior point returns the region
        probe = Point(
            (comp.center.x * 3 + comp.region.vertices[0].x) / 4,
            (comp.center.y * 3 + comp.region.vertices[0].y) / 4,
        )
        again = find_periodic_component(w, probe, ctx.max_iter)
        assert again.region == comp.region
    return {"components": 4}


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

    from .selfsim import match_return_systems

    matched = match_return_systems(
        ctx.return_system("z4"), ctx.return_system("z14"), ctx.sim.gamma1
    )
    details["gamma1_matched_pieces"] = matched
    return details


def check_tube_partition(ctx: Context) -> dict:
    rep4 = ctx.partition("z4")
    assert rep4.n_components == 7, f"expected 7 components, got {rep4.n_components}"
    assert rep4.exact_identity
    rep14 = ctx.partition("z14")
    assert rep14.n_components == 20, f"expected 20, got {rep14.n_components}"
    assert sorted(rep14.periods) == Z14_PERIOD_MULTISET
    assert rep14.exact_identity
    return {
        "z4_components": rep4.n_components,
        "z4_periods": sorted(rep4.periods),
        "z14_periods": sorted(rep14.periods),
        "z4_red_fraction": float(rep4.red_fraction()),
        "z14_red_fraction": float(rep14.red_fraction()),
    }


def check_self_similarity(ctx: Context, samples: int = 1000) -> dict:
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


def check_aperiodic_witness(ctx: Context, steps: int = 10**4, depth: int = 8) -> dict:
    wit = ctx.witness(steps, depth)
    assert ctx.sim.gammaX.apply(wit.y) == wit.y
    assert wit.boundary_hit is None and wit.steps_checked == steps
    assert wit.nesting_depth >= depth
    assert all(f >= 2 for f in wit.growth_factors)
    return wit.to_obj()


def check_full_measure(ctx: Context) -> dict:
    systems = [(label, ctx.return_system(label)) for label in ("z4", "z14", "level3")]
    ratio1, _ = contraction_ratios(ctx.wedge)
    red = red_fraction_check(ctx.wedge, systems, ratio1)
    for lv in red.levels:
        if lv.min_two_ahead_fraction is not None:
            assert lv.min_two_ahead_fraction.sign() > 0
            assert lv.min_two_ahead_fraction == qs3_parse(MIN_TWO_AHEAD_GOLDEN)
        assert lv.total_red_fraction == qs3_parse(RED_FRACTION_GOLDENS[lv.label])
    # red_fraction_check asserts that the fractions never shrink
    assert red.levels[-1].total_red_fraction > RED_FRACTION_THRESHOLD
    assert red.similarity_ratio_identity
    assert red.transport_identity
    return red.to_obj()


def check_period_set(ctx: Context, bound: int = 2000, samples: int = 120) -> dict:
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
    comps.extend(pc.component for pc in ctx.partition("z4").components)
    comps.extend(pc.component for pc in ctx.partition("z14").components)
    need = 1
    for comp in comps:
        info = component_periods(comp)
        need = max(need, info.center_per_t, info.noncenter_per_t)
    big = full_period_set(need) if need > bound else pset
    for comp in comps:
        info = component_periods(comp)
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


def check_kernel_properties(ctx: Context, cases: int = 1000) -> dict:
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

    # split-area conservation on random polygons (convex and nonconvex)
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
            ret, _ = w.first_return_to_piece(hp, 6, max_iter=10**5)
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
    ctx = ctx or Context()
    selected = names or CHECK_NAMES
    table = dict(CHECKS)
    results = []
    for name in selected:
        if name not in table:
            raise KeyError(f"unknown check {name!r}")
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
