"""The regular 12-gon table and its outer billiard map.

Gauge: circumradius 2, centre at the origin, vertex A_k at angle 30°*k.
With this gauge every derived point of the construction has coordinates in
Q[sqrt(3)].

Contents:

* ``Table``: the 12-gon, its side lines, the crossing points C_i of
  side lines four apart, the mirrored tables γ^i (the point reflections of
  the table through the C_i), the tangent-sector decomposition of the
  exterior, the outer billiard map T (central symmetry through the
  supporting vertex) and the mirror sigma = diag(1, -1): sigma maps the
  table onto itself and T^-1 = sigma T sigma, so every backward step of
  T is a forward one.

* ``WedgeSystem``: the quotient of T by the table's 12-fold rotational
  symmetry: a 30° wedge with apex A_1 on which T induces a piecewise
  isometry T' with six pieces alpha_1..alpha_6 (five rotations about the
  fixed points O_1..O_5 plus one translation), together with the invariant
  rocket hexagon Z' and the 60-vertex necklace region Z, and the reversing
  symmetry iota, a reflection with T'^-1 = iota T' iota, through which
  every backward step is a forward one.

* ``SourceTable``: a region walk carries each region as a rigid image
  ROT[l](S) + t of a bounded polygon S, held as the raw pair (l, t) over
  S's table, and a T' step (``WedgeSystem.step_raw``) turns l and maps t.
  The table holds what every such image shares: the 12 rotated vertex
  lists of S on raw integers, from which a region is built, the
  coordinates the walk has normalised, and, per rotation l, one integer
  row per split or wedge line (``FORMS``), so that each piece test is
  one sign whatever S's size, and the proven float box of ROT[l](S).
  ``image_box`` shifts that box to an image's, for the one placement of
  a polygon against a domain (``geom.place``, on the image's raw
  vertices).  ``rigid_map`` and ``sends`` read the motion
  x -> ROT[l] x + t itself.

The piece maps are *derived* (fold T back into the wedge) rather than
hard-coded, and the construction asserts the expected identities, so a
successful build is itself a consistency check.
"""

from __future__ import annotations

from .errors import DomainError, GraneError
from .field import HALF, ONE, QS3, SQRT3_HALF, ZERO, pair_sign
from .geom import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    AffMap,
    Line,
    Point,
    Region,
    _clear_denominators,
    clear_points,
    cleared_box,
    clip_convex,
    float_interval,
    intersect_convex,
    place,
    primitive_dir,
    raw_equals,
    raw_point,
)

NUM_SIDES = 12

# rotation by 30 degrees about the origin
_ROT1 = AffMap(SQRT3_HALF, -HALF, HALF, SQRT3_HALF, ZERO, ZERO)

ROT = [AffMap.identity()]
for _ in range(NUM_SIDES - 1):
    ROT.append(_ROT1.compose(ROT[-1]))

# n_e = ROT[e](A_0 + A_1), the outward normal of table side A_e A_{e+1}
# (asserted by ``Table``), on raw integers: (ap, 3*aq, aq, bp, 3*bq, bq)
# for the vector (ap + aq*s3, bp + bq*s3), as ``Line._k`` stores a normal.
# n_{e+6} = -n_e.
SIDE_NORMALS = tuple(ROT[e].apply_vec(Point(QS3(2, 1), ONE)) for e in range(NUM_SIDES))
assert all(c.r == 1 for n in SIDE_NORMALS for c in (n.x, n.y))
_NORMALS = tuple(
    (n.x.p, 3 * n.x.q, n.x.q, n.y.p, 3 * n.y.q, n.y.q) for n in SIDE_NORMALS
)


# the rows of ROT[l] over 2, as ``AffMap._cleared`` gives them without the
# translation: every entry of ROT[l] is (a + b*s3)/2
assert all(row[-1] in (1, 2) and row[6] == row[7] == 0 for f in ROT for row in f._cleared())
_ROT_ROWS = tuple(tuple(c * (2 // row[-1]) for row in f._cleared() for c in row[:6]) for f in ROT)

# split line k of the wedge (k = 1..5) is the side line n_{k+1} . x =
# 4 + 2*s3 of table side A_{k+1} A_{k+2}, oriented apex side > 0, so its
# ``_side_form`` is (k + 7, -4, -2, 1) (asserted by ``WedgeSystem``).
# SPLIT_FORMS holds these five "upper" forms at positions k - 1, then
# their flips, the "lower" forms, at positions _LOWER + k - 1: a region
# has a point strictly on line k's apex side when its max over the upper
# form exceeds 0, and one strictly on the far side when its max over the
# lower form does, as min n_e . x - c = -(max n_{e+6} . x + c)
_LOWER = 5
# The split lines ``WedgeSystem.raw_orbit`` searches for a point's piece, by
# the piece i the point came from, as (lo, k, mid): lines lo..k-1, line mid
# first.  i = 0, the first step: lines 1..5 from line 4; i = 1..6: lines
# i-1..i, those of them in 1..5, from line min(i, 5) (the neighbour fact)
_BRACKETS = ((1, 6, 4),) + tuple(
    (max(i - 1, 1), min(i + 1, 6), min(i, 5)) for i in range(1, 7)
)
SPLIT_FORMS = tuple(((k + 7) % NUM_SIDES, -4, -2, 1) for k in range(1, 6)) + tuple(
    ((k + 1) % NUM_SIDES, 4, 2, 1) for k in range(1, 6)
)
# FORMS, the forms every SourceTable signs: the split forms,
# then the two wedge lines flipped, closed wedge on n_e . x <= c (side
# line A_1 A_2 and side line A_0 A_1), so that every face of every piece
# is one of them (``WedgeSystem.faces`` holds their indices)
FORMS = SPLIT_FORMS + ((7, -4, -2, 1), (0, 4, 2, 1))

# the raw zero translation (xp, xq, yp, yq, r): a walk starts at (0, ORIGIN)
ORIGIN = (0, 0, 0, 0, 1)


def side_normal_index(v: Point) -> int | None:
    """The e with n_e a positive multiple of the vector v, or None."""
    for e, n in enumerate(SIDE_NORMALS):
        if n.cross_sign(v) == 0 and n.dot(v).sign() > 0:
            return e
    return None


def _side_form(ln: Line) -> tuple:
    """(e, cp, cq, cr): ln's form is a positive multiple of n_e . x - c.

    c = (cp + cq*s3)/cr.  Asserts that ln's normal is along a side normal.
    """
    normal = Point(ln.nx, ln.ny)
    e = side_normal_index(normal)
    assert e is not None, "line normal is not a side normal"
    n = SIDE_NORMALS[e]
    c = ln.c * n.norm2() / n.dot(normal)
    return e, c.p, c.q, c.r


class SourceTable:
    """What every rigid image ROT[l](S) + t of one bounded polygon S shares.

    Built once per source S and walk:

    * ``rotated[l]``: the vertices of ROT[l](S), in S's order, on raw
      integers (xp, xq, yp, yq) over one denominator m, for the coordinates
      ((xp + xq*s3)/m, (yp + yq*s3)/m): m is twice the denominator that
      ``clear_points`` gives S, as every entry of ROT[l] is (a + b*s3)/2;
    * ``h``: S's support values in the 12 side-normal directions,
      h[e] = max over the vertices s of n_e . s, read off the table as
      n_0 . ROT[-e] s (ROT[e] turns n_0 onto n_e), as raw integers
      ``(hp, hq, m)``: h[e] = (hp[e] + hq[e]*s3)/m, compared by ``pair_sign``;
    * ``rows[l][k]``: the form ``FORMS[k]`` folded with h for rotation l
      into one row of 8 integers (``sign``), compiled when the walk first
      signs it;
    * ``boxes[l]``: the proven float box of ROT[l](S) (``cleared_box`` of
      ``rotated[l]``), made when the walk first asks for the box of an
      image with rotation l (``image_box``);
    * S's convexity and doubled area, which a rigid motion keeps;
    * ``values``: the canonical QS3 of each raw coordinate (P, Q, D) that a
      region of the walk has been built with, so that each distinct value
      is normalised once and shared by every region that has it.

    An image is the raw pair (l, t), with t = (xp, xq, yp, yq, r) for the
    translation ((xp + xq*s3)/r, (yp + yq*s3)/r), r >= 1, as
    ``WedgeSystem.raw_orbit`` holds a point; S itself is (0, ORIGIN) and
    ``source``.  The rotations are ``table.ROT``'s, and the table lives
    as long as the walk.
    """

    __slots__ = ("source", "rotated", "m", "h", "rows", "boxes", "convex", "area2", "values")

    def __init__(self, source: Region):
        self.source = source
        m, raw = clear_points(source.vertices)
        self.m = m = 2 * m
        self.rotated = tuple(
            tuple(
                (a0 * xp + t0 * xq + c0 * yp + u0 * yq, a0 * xq + b0 * xp + c0 * yq + d0 * yp,
                 a1 * xp + t1 * xq + c1 * yp + u1 * yq, a1 * xq + b1 * xp + c1 * yq + d1 * yp)
                for xp, xq, yp, yq in raw
            )
            for a0, t0, b0, c0, u0, d0, a1, t1, b1, c1, u1, d1 in _ROT_ROWS
        )
        ap, ta, aq, bp, tb, bq = _NORMALS[0]
        hp, hq = [], []
        for e in range(NUM_SIDES):
            best = None
            for xp, xq, yp, yq in self.rotated[-e]:
                P = ap * xp + ta * xq + bp * yp + tb * yq
                Q = ap * xq + aq * xp + bp * yq + bq * yp
                if best is None or pair_sign(P - best[0], Q - best[1]) > 0:
                    best = P, Q
            hp.append(best[0])
            hq.append(best[1])
        self.h = tuple(hp), tuple(hq), m
        self.rows = [[None] * len(FORMS) for _ in range(NUM_SIDES)]
        self.boxes = [None] * NUM_SIDES
        self.convex = source.is_convex()
        self.area2 = source.area2()
        self.values = {}

    def sign(self, l: int, k: int, t: tuple) -> int:
        """Sign of max n_e . x over the closed image ROT[l](S) + t minus c.

        FORMS[k] = (e, cp, cq, cr), with c = (cp + cq*s3)/cr.  Since
        ROT[l] turns n_{e-l} onto n_e, the largest n_e . x over the image
        is n_e . t + h[(e - l) mod 12], and with h over m the sign of that
        minus c is the ``pair_sign`` of two integers linear in t's
        integers.  Their coefficients, n_e's cleared entries times m*cr
        and h[(e - l) mod 12]*cr - c*m, are ``rows[l][k]``, compiled here
        once.
        """
        row = self.rows[l][k]
        if row is None:
            e, cp, cq, cr = FORMS[k]
            ap, ta, aq, bp, tb, bq = _NORMALS[e]
            hp, hq, m = self.h
            j = (e - l) % NUM_SIDES
            f = m * cr
            row = self.rows[l][k] = (
                ap * f, ta * f, aq * f, bp * f, tb * f, bq * f,
                hp[j] * cr - cp * m, hq[j] * cr - cq * m,
            )
        a1, t1, b1, a2, t2, b2, kp, kq = row
        xp, xq, yp, yq, r = t
        return pair_sign(
            a1 * xp + t1 * xq + a2 * yp + t2 * yq + kp * r,
            a1 * xq + b1 * xp + a2 * yq + b2 * yp + kq * r,
        )

    def image_box(self, l: int, t: tuple) -> tuple:
        """Proven float box (x0, y0, x1, y1) of the image ROT[l](S) + t.

        ``boxes[l]`` holds ROT[l](S) and ``float_interval`` each
        coordinate of t, so their exact sums hold the image.  Each bound
        then takes two float sums, the shift and the pad, and each rounds
        by at most 2^-53 of its size.  The pad, ``cleared_box``'s relative
        one, covers that many times over, and with the pads of both
        enclosures it also holds the image's own ``cleared_box`` (its
        ``float_bbox``) while the coordinates' |a| + 2|b| stay below 10^6.
        """
        box = self.boxes[l]
        if box is None:
            box = self.boxes[l] = cleared_box(self.m, self.rotated[l])
        x0, y0, x1, y1 = box
        xp, xq, yp, yq, r = t
        xl, xh = float_interval(xp, xq, r)
        yl, yh = float_interval(yp, yq, r)
        x0, y0, x1, y1 = x0 + xl, y0 + yl, x1 + xh, y1 + yh
        pad = 1e-9 * (1.0 + max(abs(x0), abs(y0), abs(x1), abs(y1)))
        return x0 - pad, y0 - pad, x1 + pad, y1 + pad

    def region(self, l: int, t: tuple) -> Region:
        """The region ROT[l](S) + t, vertex k the image of S's vertex k.

        Over D = m*r, vertex k is rotated[l][k]*r + t*m: integer products
        and sums only.  Each coordinate (P, Q, D) is looked up in
        ``values`` and normalised by ``QS3._make`` only when the walk meets
        it first, and the points take their coordinates as they are, with
        no ``Point.__init__``.  The motion keeps orientation, so the region
        keeps S's normal form, convexity and area, as
        ``Region.transformed`` would.
        """
        values = self.values
        make = QS3._make
        new_point = Point.__new__
        xp, xq, yp, yq, r = t
        m = self.m
        d = m * r
        xp, xq, yp, yq = xp * m, xq * m, yp * m, yq * m
        pts = []
        for vxp, vxq, vyp, vyq in self.rotated[l]:
            kx = (vxp * r + xp, vxq * r + xq, d)
            x = values.get(kx)
            if x is None:
                x = values[kx] = make(*kx)
            ky = (vyp * r + yp, vyq * r + yq, d)
            y = values.get(ky)
            if y is None:
                y = values[ky] = make(*ky)
            p = new_point(Point)
            p.x = x
            p.y = y
            pts.append(p)
        out = Region(pts)
        out._convex = self.convex
        out._area = self.area2
        return out


def rigid_map(l: int, t: tuple) -> AffMap:
    """The isometry x -> ROT[l] x + t that takes a source S onto its image (l, t)."""
    rot = ROT[l]
    xp, xq, yp, yq, r = t
    tx, ty = QS3._make(xp, xq, r), QS3._make(yp, yq, r)
    return AffMap(rot.m00, rot.m01, rot.m10, rot.m11, tx, ty, 1)


def sends(l: int, t: tuple, p: Point, q: Point) -> bool:
    """True when x -> ROT[l] x + t takes p to q, decided on raw integers.

    With p over c, q over d, ROT[l] p over r1 (``_map_raw`` by ROT[l]'s
    cleared rows) and t over r, ROT[l] p + t == q is four integer
    equations over r1*r*d.  ``sends(l, t, p, p)`` tests that the motion
    fixes p.
    """
    cxp, _, cxq, cyp, _, cyq, _, _, c = _clear_denominators(p.x, p.y, ZERO)
    uxp, uxq, uyp, uyq, r1 = _map_raw(ROT[l]._cleared(), cxp, cxq, cyp, cyq, c)
    if q is not p:
        cxp, _, cxq, cyp, _, cyq, _, _, c = _clear_denominators(q.x, q.y, ZERO)
    xp, xq, yp, yq, r = t
    return (
        (uxp * r + xp * r1) * c == cxp * r1 * r
        and (uxq * r + xq * r1) * c == cxq * r1 * r
        and (uyp * r + yp * r1) * c == cyp * r1 * r
        and (uyq * r + yq * r1) * c == cyq * r1 * r
    )


def _flip(form: tuple) -> tuple:
    """The ``_side_form`` of the same line, oriented the other way: n_{e+6} = -n_e."""
    e, cp, cq, cr = form
    return (e + 6) % NUM_SIDES, -cp, -cq, cr


def _map_raw(rows, xp, xq, yp, yq, r):
    """Image of the raw point ((xp + xq*s3)/r, (yp + yq*s3)/r) by cleared rows.

    ``rows`` are the two rows of ``AffMap._cleared``, over one m: the image
    is over r*m, and its four numerators are divided by m when all allow
    it, else r becomes r*m.  No QS3, Point or gcd is made.
    """
    row0, row1 = rows
    a0, t0, b0, c0, u0, d0, e0, f0, m = row0
    a1, t1, b1, c1, u1, d1, e1, f1, _ = row1
    nxp = a0 * xp + t0 * xq + c0 * yp + u0 * yq + e0 * r
    nxq = a0 * xq + b0 * xp + c0 * yq + d0 * yp + f0 * r
    nyp = a1 * xp + t1 * xq + c1 * yp + u1 * yq + e1 * r
    nyq = a1 * xq + b1 * xp + c1 * yq + d1 * yp + f1 * r
    if m == 1:
        return nxp, nxq, nyp, nyq, r
    if nxp % m or nxq % m or nyp % m or nyq % m:
        return nxp, nxq, nyp, nyq, r * m
    return nxp // m, nxq // m, nyp // m, nyq // m, r


class Table:
    """The 12-gon table, its exterior sectors and the billiard map T."""

    def __init__(self):
        self.vertices = tuple(ROT[k].apply(Point(QS3(2), ZERO)) for k in range(12))
        for e, n in enumerate(SIDE_NORMALS):
            assert n == self.vertices[e] + self.vertices[(e + 1) % 12]
        self.side_lines = tuple(
            Line.through(self.vertices[i], self.vertices[(i + 1) % 12])
            for i in range(12)
        )
        self.crossings = tuple(
            self.side_lines[(i - 2) % 12].intersect(self.side_lines[(i + 2) % 12])
            for i in range(12)
        )
        self.polygon = Region.bounded(self.vertices)
        self.mirrored = tuple(
            Region.bounded(self.mirror_vertex(i, k) for k in range(12))
            for i in range(12)
        )
        # tangent sector at A_i: cone between A_{i-1}->A_i extended and
        # A_{i+1}->A_i extended; equivalently d_lo and its 30° rotation d_hi.
        # cones[i] holds the lines from A_i along d_lo and d_hi, so that
        # side(p) is the sign of cross(d, p - A_i)
        self.cones = []
        for i in range(12):
            a = self.vertices[i]
            d_lo = self.vertices[i - 1] - a
            d_hi = _ROT1.apply_vec(d_lo)
            assert d_hi == a - self.vertices[(i + 1) % 12]
            self.cones.append((Line.through(a, a + d_lo), Line.through(a, a + d_hi)))
        # the mirror sigma = diag(1, -1) maps A_k to A_-k, so T^-1 = sigma T sigma
        self.sigma = sigma = AffMap(ONE, ZERO, ZERO, -ONE, ZERO, ZERO)
        for k, v in enumerate(self.vertices):
            assert sigma.apply(v) == self.vertices[-k % 12]

    def mirror_vertex(self, i: int, k: int) -> Point:
        """Vertex A^i_k of the mirrored table γ^i.

        γ^i is the point reflection of the table through C_i; because the
        table is centrally symmetric this is the translation by 2 C_i.  The
        labelling offset is chosen so that the rotation by 30° maps A^i_k
        to A^{i+1}_k and consecutive mirrored tables share the vertex
        A^i_1 = A^{i+1}_6.
        """
        c = self.crossings[i % 12]
        base = self.vertices[(k + i + 3) % 12]
        return Point(base.x + c.x + c.x, base.y + c.y + c.y)

    def sector_index(self, p: Point) -> int:
        """Index i with p interior to the tangent sector of A_i.

        Raises GraneError when p is on a sector boundary or not strictly
        outside the table.
        """
        if self.polygon.classify(p) != EXTERIOR:
            raise GraneError("point not strictly outside the table", point=p)
        boundary_of = None
        for i, (lo, hi) in enumerate(self.cones):
            c1 = lo.side(p)
            c2 = hi.side(p)
            if c1 > 0 and c2 < 0:
                return i
            if (c1 == 0 and c2 <= 0) or (c2 == 0 and c1 >= 0):
                boundary_of = i
        raise GraneError("point on a sector boundary", index=boundary_of, point=p)

    def step(self, p: Point) -> tuple[Point, int]:
        """One application of T: central symmetry through A_i.

        T^-1 = sigma T sigma: a step through A_j from sigma(p) is a backward
        step through A_-j from p.
        """
        i = self.sector_index(p)
        a = self.vertices[i]
        return Point(a.x + a.x - p.x, a.y + a.y - p.y), i


class Itinerary:
    """Symbol sequence of an orbit under the wedge map.

    ``symbols[start_offset]`` is the symbol of the starting point itself;
    earlier entries come from backward steps.  When a boundary is hit the
    itinerary is truncated on that side and ``fwd_fail``/``bwd_fail``
    record how many steps succeeded.  ``end`` is the point the forward
    steps reached: T'^k(p) after the k forward symbols.
    """

    def __init__(self, symbols, start_offset, end, fwd_fail=None, bwd_fail=None):
        self.symbols = tuple(symbols)
        self.start_offset = start_offset
        self.fwd_fail = fwd_fail
        self.bwd_fail = bwd_fail
        self.end = end

    @property
    def complete(self) -> bool:
        return self.fwd_fail is None and self.bwd_fail is None

    def text(self) -> str:
        return "".join(str(s) for s in self.symbols)

    def __repr__(self):
        return f"Itinerary({self.text()}, start={self.start_offset})"


class WedgeSystem:
    """The induced piecewise isometry T' on the wedge at A_1."""

    def __init__(self, table: Table):
        self.table = table
        A = table.vertices
        self.apex = A[1]
        self.dir_p = primitive_dir(A[1] - A[0])  # along the P-ray, 105°
        self.dir_q = primitive_dir(A[2] - A[1])  # along the Q-ray, 135°
        # wedge bisector: the exact 120° direction; verified below
        self.bisector_dir = primitive_dir(Point(-HALF, SQRT3_HALF))
        b, dp, dq = self.bisector_dir, self.dir_p, self.dir_q
        assert dp.cross(b).sign() > 0 and b.cross(dq).sign() > 0
        assert (dp.dot(b) ** 2) * dq.norm2() == (dq.dot(b) ** 2) * dp.norm2()
        self.wedge = Region.unbounded(self.dir_q, [self.apex], self.dir_p)
        self.wedge_lines = self.wedge.edge_lines()

        # P_i: ray A_0 A_1 meets ray A_{i+1} A_i; Q_j: ray A_1 A_2 meets
        # ray A_{j+1} A_j.
        p_line = Line.through(A[0], A[1])
        q_line = Line.through(A[1], A[2])
        self.P = {i: p_line.intersect(Line.through(A[i + 1], A[i])) for i in range(1, 6)}
        self.Q = {j: q_line.intersect(Line.through(A[j + 1], A[j])) for j in range(2, 7)}

        mv = table.mirror_vertex
        assert self.P[1] == A[1]
        assert self.Q[2] == A[2]
        assert self.Q[5] == table.crossings[3]
        assert self.P[5] == mv(3, 6)
        assert self.Q[6] == mv(3, 1) == mv(4, 6)
        for i in range(12):
            assert mv(i, 1) == mv((i + 1) % 12, 6)

        P, Q = self.P, self.Q
        self.alpha = {
            1: Region.bounded([P[1], P[2], Q[2]]),
            2: Region.bounded([P[2], P[3], Q[3], Q[2]]),
            3: Region.bounded([P[3], P[4], Q[4], Q[3]]),
            4: Region.bounded([P[4], P[5], Q[5], Q[4]]),
            5: Region.unbounded(self.dir_p, [Q[6], Q[5], P[5]], self.dir_p),
            6: Region.unbounded(self.dir_q, [Q[6]], self.dir_p),
        }

        # splitting lines: the rays A_3 A_2 .. A_7 A_6, oriented apex side > 0
        self.split_lines = []
        for k in range(1, 6):
            ln = Line.through(A[k + 2], A[k + 1])
            if ln.side(self.apex) < 0:
                ln = ln.reversed()
            self.split_lines.append(ln)
        # nesting: line k meets the closed wedge in the segment P_{k+1}
        # Q_{k+1}, so its closed apex side there is the triangle apex,
        # P_{k+1}, Q_{k+1}, which lies strictly on the apex side of line k+1
        for k in range(1, 5):
            tri = [self.apex, self.P[k + 1], self.Q[k + 1]]
            assert all(self.wedge.classify(v) == BOUNDARY for v in tri)
            assert self.split_lines[k - 1].signs(tri) == [1, 0, 0]
            assert self.split_lines[k].signs(tri) == [1, 1, 1]

        # derive each piece map by folding T back into the wedge
        self.maps = {}
        for i in range(1, 7):
            sample = self.alpha[i].interior_point()
            j = table.sector_index(sample)
            assert j == i + 1
            image, m = self.fold_into_wedge(
                AffMap.point_reflection(A[j]).apply(sample)
            )
            assert m == (-i) % 12
            f = ROT[m].compose(AffMap.point_reflection(A[j]))
            # maps[i] turns by 30°*(6 - i): close_component reads its
            # rotation from the visit counts
            r = ROT[(6 - i) % 12]
            assert (f.m00, f.m01, f.m10, f.m11) == (r.m00, r.m01, r.m10, r.m11)
            assert f.apply(sample) == image
            self.maps[i] = f
        assert self.maps[6].is_translation()
        self.translation_vec = Point(self.maps[6].tx, self.maps[6].ty)
        assert self.translation_vec == mv(3, 7) - mv(3, 1)

        # _map_raw (raw_orbit, step_raw) reads both cleared rows of
        # maps[i] over one m, bound here once
        self._rows = {i: f._cleared() for i, f in self.maps.items()}
        for i, (row0, row1) in self._rows.items():
            assert row0[-1] == row1[-1]
            assert self.piece_index(self.alpha[i].interior_point()) == i

        # the reversing symmetry iota: the reflection in the wedge bisector,
        # linear part ROT[8] diag(1, -1), fixing the apex.  It keeps the
        # wedge, maps each piece alpha_i onto its image T'(alpha_i) and
        # conjugates maps[i] to its inverse, so T'^-1 = iota T' iota off
        # the piece boundaries and ``itinerary`` steps backward by stepping
        # iota(p) forward
        lin = ROT[8].compose(AffMap(ONE, ZERO, ZERO, -ONE, ZERO, ZERO))
        self.iota = iota = AffMap.translation(self.apex - lin.apply(self.apex)).compose(lin)
        assert iota.compose(iota) == AffMap.identity()
        assert self.wedge.transformed(iota) == self.wedge
        # images[i] = T'(alpha_i), which ``landing`` meets with a domain
        self.images, self._landing = {}, {}
        for i, f in self.maps.items():
            image = self.images[i] = self.alpha[i].transformed(f)
            assert self.alpha[i].transformed(iota) == image
            assert iota.compose(f).compose(iota).compose(f) == AffMap.identity()
            # T' maps each closed piece into the closed wedge: a region
            # located in a piece maps back into the wedge, so the region
            # walks of first_return_map and return_tube sign the wedge lines
            # only at their start
            assert self.in_closed_wedge(image)
            # the neighbour fact: the closed image, rays included, lies on
            # the closed far side of split line i-2 and on the closed apex
            # side of split line i+1, so T' steps from alpha_i to alpha_i-1,
            # alpha_i or alpha_i+1 only, and the walks locate the next
            # piece from the last (``raw_orbit``, ``locate``, ``in_piece``)
            if i >= 3:
                assert clip_convex(image, self.split_lines[i - 3], -1) is image
            if i <= 4:
                assert clip_convex(image, self.split_lines[i], +1) is image
        # each split line's normal is a positive multiple of some side
        # normal n_e: SPLIT_FORMS holds the lines' forms, signed apex side
        # > 0, and their flips, which every SourceTable signs by default
        assert [_side_form(ln) for ln in self.split_lines] == list(SPLIT_FORMS[:_LOWER])
        assert [_flip(form) for form in SPLIT_FORMS[:_LOWER]] == list(SPLIT_FORMS[_LOWER:])
        # so is every boundary line of every piece: faces[i] holds, per line
        # of alpha[i].edge_lines(), the index k of FORMS[k] = (e, cp, cq, cr)
        # with the closed piece on n_e . x <= (cp + cq*s3)/cr, the line's
        # outer side (``index`` raises unless it is a split or wedge form)
        self.faces = {
            i: [FORMS.index(_flip(_side_form(ln))) for ln in a.edge_lines()]
            for i, a in self.alpha.items()
        }
        self.O = {i: self.maps[i].fixed_point() for i in range(1, 6)}
        for i in range(1, 6):
            assert self.alpha[i].classify(self.O[i]) == INTERIOR
            assert self.bisector_dir.cross(self.O[i] - self.apex).is_zero()

        # invariant rocket hexagon Z' and the 60-vertex necklace region Z
        self.Zp = Region.bounded(
            [A[1], mv(3, 2), mv(3, 3), mv(3, 4), mv(3, 5), mv(3, 6)]
        )
        block = [mv(3, 1), mv(3, 2), mv(3, 3), mv(3, 4), mv(3, 5)]
        chain = []
        for m in range(12):
            rot = ROT[(-m) % 12]
            chain.extend(rot.apply(p) for p in block)
        self.Z = Region.bounded(chain)
        assert len(self.Z.vertices) == 60

        # translation conjugating the wedge dynamics into the alpha_6 copy
        self.H = AffMap.translation(self.Q[6] - self.apex)

    # -- point location --------------------------------------------------------

    def piece_index(self, p: Point) -> int:
        """Index i with p in the open piece alpha_i.

        The symbol of the first step of ``raw_orbit(p)``, with its errors:
        DomainError outside the wedge, GraneError on any piece boundary.
        """
        return next(self.raw_orbit(p))[-1]

    def in_closed_wedge(self, region: Region) -> bool:
        """True when the closure of the region lies in the closed wedge.

        Bounded: every vertex signs >= 0 on both wedge lines.  Unbounded
        (convex): the region is its own clip by each line, rays included.
        """
        if not region.is_bounded:
            return all(clip_convex(region, ln, +1) is region for ln in self.wedge_lines)
        return place(*clear_points(region.vertices), None, [(None, self.wedge_lines)]) == "inside"

    def locate(
        self, table: SourceTable, l: int, t: tuple, prev: int | None = None
    ) -> tuple[int | None, Line | None]:
        """Piece i of the open region ROT[l](S) + t as ``(i, None)``, or ``(None, line)``.

        S is ``table``'s source.  The exact region locator, for a region
        known to lie in the closed wedge: its callers check
        ``in_closed_wedge`` once, at the start of a walk, and T' keeps
        every later region there.  The piece is the first split line with
        a point of the closed region strictly on its apex side (6 if none),
        unless that line also has a point strictly on its far side and so
        cuts the region.  No later line can cut it: alpha_k lies on the
        apex side of lines k..5 and on the far side of lines 1..k-1.  In
        the closed wedge the split lines are nested: a point with sign >= 0
        on line k has sign > 0 on line k+1.  So "some point has sign > 0"
        holds from the first such line on, and a bisection finds that line
        in at most three tests, each one sign of the table
        (``SourceTable.sign`` on ``SPLIT_FORMS``).  A region outside the
        closed wedge gets no meaningful answer.

        ``prev``, when given, is a piece the region came from: the region
        lies in T'(alpha_prev), the image of a region located in the open
        piece alpha_prev.  By the neighbour fact (asserted at construction)
        that image lies on the closed far side of line prev-2 and on the
        closed apex side of line prev+1, so the first line with a point
        strictly on its apex side is line prev-1, prev or prev+1 (piece 6
        for "none" when prev >= 5): the same bisection over those lines
        finds it in one or two signs, and the cut sign follows.
        """
        sign = table.sign
        lo, hi = (0, _LOWER) if prev is None else (max(prev - 2, 0), min(prev, _LOWER))
        while lo < hi:
            mid = (lo + hi) // 2
            if sign(l, mid, t) > 0:
                hi = mid
            else:
                lo = mid + 1
        if lo == _LOWER:
            return 6, None
        return (None, self.split_lines[lo]) if sign(l, _LOWER + lo, t) > 0 else (lo + 1, None)

    def in_piece(
        self, table: SourceTable, l: int, t: tuple, i: int, prev: int | None = None
    ) -> bool:
        """True when the open region ROT[l](S) + t, in the closed wedge, lies in alpha_i.

        S is ``table``'s source.  Two signs (``SourceTable.sign``): the
        closed region on the closed far side of split line i-1 (for
        i >= 2), and on the closed apex side of split line i (for i <= 5).
        By the nesting of the split lines in the closed wedge (see
        ``locate``) the other lines then hold too, so the closure
        lies in the closed piece and the open region, which has positive
        area, in the open one.

        ``prev``, when given, is a piece the region came from, as in
        ``locate``: the closed region then lies on the far side of line
        prev-2 and on the apex side of line prev+1.  So i = prev - 1 needs
        only the sign of line i, i = prev + 1 only that of line i-1, and
        a piece with |i - prev| > 1, which T'(alpha_prev) does not meet,
        fails with no sign.
        """
        if prev is None:
            far, near = i >= 2, i <= 5
        elif abs(i - prev) > 1:
            return False
        else:
            far, near = i >= 2 and i != prev - 1, i <= 5 and i != prev + 1
        if far and table.sign(l, i - 2, t) > 0:
            return False
        return not near or table.sign(l, _LOWER + i - 1, t) <= 0

    def landing(self, domain: Region) -> frozenset:
        """The pieces i whose open image T'(alpha_i) meets the open domain.

        A step from any other piece cannot land in the domain, so a return
        walk tests for a return only after a step from one of these.  The
        images are ``images``, computed at construction, met with each
        convex part of the domain by ``intersect_convex``: an open set that
        meets the open domain meets one of its open convex parts.  As iota
        maps T'(alpha_i) onto alpha_i, these are the pieces that
        iota(domain) meets.  Each domain's set is computed once and kept:
        the sampled walks of ``selfsim.verify_conjugacy`` ask for the sets
        of the same three domains at every sample.
        """
        land = self._landing.get(domain)
        if land is None:
            parts = domain.convex_parts()
            land = self._landing[domain] = frozenset(
                i
                for i, image in self.images.items()
                if any(intersect_convex(part, image) is not None for part in parts)
            )
        return land

    def step_raw(self, l: int, t: tuple, i: int) -> tuple[int, tuple]:
        """The image (l, t) of T'(ROT[l](S) + t) for a region in piece i:
        maps[i] turns by 30°*(6 - i) (asserted at construction) and maps t."""
        return (l + 6 - i) % NUM_SIDES, _map_raw(self._rows[i], *t)

    def restrict_to_piece(self, region: Region, i: int) -> Region:
        """Intersection of a convex region with the open piece alpha_i."""
        out = intersect_convex(region, self.alpha[i])
        if out is None:
            raise GraneError(f"region does not meet alpha_{i}", index=i)
        return out

    def fold_into_wedge(self, q: Point) -> tuple[Point, int]:
        """The unique rotated copy of q interior to the wedge."""
        for m in range(12):
            r = ROT[m].apply(q)
            if self.wedge.classify(r) == INTERIOR:
                return r, m
        raise GraneError("no rotated copy lands inside the wedge", point=q)

    # -- dynamics ----------------------------------------------------------------

    def raw_orbit(self, p: Point, pieces=frozenset(range(1, 7)), cap: int | None = None):
        """Forward T'-orbit of p on raw integers: yields (n, xp, xq, yp, yq, r, i).

        The one code that places a point: every T' step on a point,
        ``piece_index`` and the backward steps of ``itinerary`` included,
        walks it.  The state is the point
        ((xp + xq*s3)/r, (yp + yq*s3)/r) over one common denominator r >= 1,
        not normalised, signed against the cleared lines (``Line._k``;
        r > 0 drops out of the sign).  Step n yields the image T'^n(p) and
        the piece i of the point it came from, but only when i is in
        ``pieces`` (default: all six): a return walk asks only for the steps
        from the pieces whose images meet its domain (``landing``), and
        every other step is located and mapped but not reported.  The walk
        stops after ``cap`` steps (default: no cap); with cap <= 0 it signs
        nothing and yields nothing.

        The wedge lines are signed once, for p: DomainError when a sign is
        < 0, else GraneError with p when one is 0.  Every later point is the
        image of a point in an open piece.  The piece maps are isometries,
        and T' maps each closed piece into the closed wedge (asserted at
        construction), so it maps the open piece into the open wedge, and
        no later wedge sign can be <= 0.

        In the closed wedge the split lines are nested (sign >= 0 on line k
        gives sign > 0 on line k+1, asserted at construction): "sign >= 0
        on line k" is monotone in k.  The point is in alpha_k for the first
        line k with sign >= 0 if that sign is > 0, on the boundary of
        alpha_k if it is 0 (GraneError with the point and index k), and in
        alpha_6 if there is no such line.  The first step finds that line
        by a bisection: line 4 first, then always the line just below the
        last one with sign >= 0.

        Every later step knows the piece i it came from, and the point lies
        in the open image T'(alpha_i), which lies on the far side of line
        i-2 and on the apex side of line i+1 (the neighbour fact, asserted
        at construction).  So the first line with sign >= 0 is line i-1, i
        or i+1 (or none, for i >= 5), and line i+1, where there is one, has
        sign > 0.  The step runs the same search over lines i-1..i only
        (``_BRACKETS``): it signs line i, where a sign < 0 gives piece i+1, and else line
        i-1, where < 0 gives piece i and > 0 piece i-1.  Piece 1 has no
        line 0 and piece 6 no line 6.  It raises the bisection's
        GraneError, with its index and point, wherever the bisection
        would, whether or not the step is reported.  Over the 60,441
        steps of the 2,000 walks of ``selfsim.verify_conjugacy`` with 1,000
        samples at seed 6, first steps included, that is 1.74 split-line
        signs per step, against 2.33 with a bisection at every step; the
        walks report 9,671 of those steps (16%), the ones from a piece
        whose image meets their domain.

        The step then applies the cleared rows of ``maps[i]``, bound at
        construction (``_map_raw``, which ``step_raw`` shares), so no
        step makes a QS3, a Point or a gcd.
        """
        if cap is not None and cap <= 0:
            return
        xp, _, xq, yp, _, yq, _, _, r = _clear_denominators(p.x, p.y, ZERO)
        on_wedge = False
        for ln in self.wedge_lines:
            a1, t1, b1, a2, t2, b2, a3, b3 = ln._k
            s = pair_sign(
                a1 * xp + t1 * xq + a2 * yp + t2 * yq - a3 * r,
                a1 * xq + b1 * xp + a2 * yq + b2 * yp - b3 * r,
            )
            if s < 0:
                raise DomainError("point outside the wedge")
            if s == 0:
                on_wedge = True
        if on_wedge:
            raise GraneError("point on the wedge boundary", point=p)
        # split line k at position k
        splits = [None] + [ln._k for ln in self.split_lines]
        rows = self._rows
        i = n = 0
        while n != cap:
            # k: the first line with sign >= 0 (6 if none), s its sign.
            # Lines below lo have sign < 0, so the search probes lines
            # lo..k-1: line mid first, then always the line just below the
            # last k
            lo, k, mid = _BRACKETS[i]
            s = 1
            while lo < k:
                a1, t1, b1, a2, t2, b2, a3, b3 = splits[mid]
                u = pair_sign(
                    a1 * xp + t1 * xq + a2 * yp + t2 * yq - a3 * r,
                    a1 * xq + b1 * xp + a2 * yq + b2 * yp - b3 * r,
                )
                if u >= 0:
                    k, s = mid, u
                else:
                    lo = mid + 1
                mid = k - 1
            if s == 0:
                raise GraneError(
                    "point on a piece boundary",
                    index=k,
                    point=raw_point(xp, xq, yp, yq, r),
                )
            i = k
            n += 1
            xp, xq, yp, yq, r = _map_raw(rows[i], xp, xq, yp, yq, r)
            if i in pieces:
                yield n, xp, xq, yp, yq, r, i

    def step(self, p: Point) -> tuple[Point, int]:
        """One application of T'; returns (image, symbol).

        It is the first step of ``raw_orbit``.
        """
        _, xp, xq, yp, yq, r, i = next(self.raw_orbit(p))
        return raw_point(xp, xq, yp, yq, r), i

    def itinerary(self, p: Point, n_fwd: int, n_bwd: int = 0) -> Itinerary:
        """The symbols of n_bwd backward and n_fwd forward T' steps from p.

        Backward steps walk iota: T'^-k = iota T'^k iota, and iota maps
        each image T'(alpha_i) onto alpha_i, so the k-th backward symbol of
        p is the k-th forward symbol of iota(p).  iota maps the wedge, its
        boundary and the image boundaries onto the wedge, its boundary and
        the piece boundaries, so ``raw_orbit(iota(p))`` raises DomainError
        off the wedge and GraneError on its boundary, and stops on an image
        boundary, exactly where the backward walk does.
        """
        back, bwd_fail, _ = self._symbols(self.iota.apply(p), n_bwd)
        ahead, fwd_fail, last = self._symbols(p, n_fwd)
        back.reverse()
        end = p if last is None else raw_point(*last)
        return Itinerary(back + ahead, len(back), end, fwd_fail=fwd_fail, bwd_fail=bwd_fail)

    def _symbols(self, p: Point, n: int) -> tuple[list, int | None, list | None]:
        """The first n symbols of ``raw_orbit(p)``, the number read before
        a GraneError (None when there was none), and the raw state
        (xp, xq, yp, yq, r) the last of them reached (None when none was
        read)."""
        symbols = []
        last = None
        try:
            for _, *last, sym in self.raw_orbit(p, cap=n):
                symbols.append(sym)
        except GraneError:
            return symbols, len(symbols), last
        return symbols, None, last

    def return_piece(self, p: Point) -> int | None:
        """The piece a step to p must come from: that of iota(p), or None.

        A step from the open piece alpha_i lands in the open image
        T'(alpha_i) = iota(alpha_i) (asserted at construction), so
        T'^n(p) = p for some n >= 1 needs iota(p) in the open alpha_i,
        where i is the piece of the last step.  When iota(p) lies in no
        open piece (on a piece boundary or off the open wedge), p lies in
        no open image and cannot recur: None.
        """
        try:
            return self.piece_index(self.iota.apply(p))
        except (DomainError, GraneError):
            return None

    def orbit_period(self, p: Point, max_iter: int):
        """Exact least period of p under T' with per-piece visit counts.

        Returns (period, visit_counts) or None when the cap is exhausted.
        An iterate is compared with p only after a step from
        ``return_piece(p)``.
        """
        back = self.return_piece(p)
        counts = [0] * 6
        for n, *q, sym in self.raw_orbit(p, cap=max_iter):
            counts[sym - 1] += 1
            if sym == back and raw_equals(p, *q):
                return n, tuple(counts)
        return None


def build_table() -> tuple[Table, WedgeSystem]:
    """Construct the table and its wedge system (exact, deterministic)."""
    table = Table()
    return table, WedgeSystem(table)
