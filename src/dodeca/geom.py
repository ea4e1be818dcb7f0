"""Exact planar primitives over Q[sqrt(3)].

Points, lines, affine maps and open polygonal regions (bounded simple
polygons, and unbounded convex regions represented as a vertex chain with
an entry and an exit ray).  All predicates are exact sign computations in
the field; no tolerances appear anywhere.  One cut test
(:func:`cutting_lines`) finds the lines that cut a bounded region, on its
vertices cleared to one denominator: :func:`overlap_status` (through
:func:`vertex_position`) and ``selfsim``'s raw placement use it.  One
split (:func:`split_cleared`) cuts a convex cycle cleared to one
denominator: the ``CellPool`` carve calls it, and :func:`split_convex`
(which bounded :func:`clip_convex` and :func:`split_region` call on a
convex region) is its ``Region`` form, on the same kernel; the split of a
nonconvex region shares its signs and crossings, and ``Line.crossing``
serves only the unbounded clip.  The 24 directions at multiples of 15 degrees
(:data:`DIRECTIONS`) place edge normals (:func:`direction_position`) and
give a convex cycle's support vertices (:func:`support_table`), which
the carve signs instead of every vertex.

Open-set semantics: a Region denotes the open set; its boundary is shared
with neighbouring regions and is excluded from classification hits.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .field import ONE, QS3, SQRT3_FLOAT, ZERO, pair_sign, qs3_parse

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


class Point:
    """Exact point (or vector) with QS3 coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x if isinstance(x, QS3) else QS3(x)
        self.y = y if isinstance(y, QS3) else QS3(y)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def scaled(self, k) -> "Point":
        return Point(self.x * k, self.y * k)

    def dot(self, other: "Point") -> QS3:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> QS3:
        return self.x * other.y - self.y * other.x

    def cross_sign(self, other: "Point") -> int:
        """Exact sign of the cross product, on raw integers."""
        return _cross_sign(self.x, self.y, other.x, other.y)

    def norm2(self) -> QS3:
        return self.x * self.x + self.y * self.y

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def key(self):
        return (self.x.key(), self.y.key())

    def literal(self) -> str:
        return f"{self.x.literal()},{self.y.literal()}"

    def __repr__(self):
        return f"Point({self.x}, {self.y})"

    @staticmethod
    def parse(text: str) -> "Point":
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad point literal: {text!r}")
        return Point(qs3_parse(parts[0]), qs3_parse(parts[1]))


def _cross_sign(ax: QS3, ay: QS3, bx: QS3, by: QS3) -> int:
    """Exact sign of ax*by - ay*bx, on raw integers."""
    a1 = ax.p * by.p + 3 * ax.q * by.q
    b1 = ax.p * by.q + ax.q * by.p
    d1 = ax.r * by.r
    a2 = ay.p * bx.p + 3 * ay.q * bx.q
    b2 = ay.p * bx.q + ay.q * bx.p
    d2 = ay.r * bx.r
    return pair_sign(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1)


def _clear_denominators(a: QS3, b: QS3, c: QS3) -> tuple:
    """(a1, 3*b1, b1, a2, 3*b2, b2, a3, b3, m): m*a = a1 + b1*s3, and so on.

    m is the lcm of the three denominators.  The products 3*b1 and 3*b2
    are stored because every formula that reads a cleared row multiplies
    b by s3*s3 = 3; the constant c has no such product.
    """
    m = math.lcm(a.r, b.r, c.r)
    u, v, w = m // a.r, m // b.r, m // c.r
    b1, b2 = a.q * u, b.q * v
    return (a.p * u, 3 * b1, b1, b.p * v, 3 * b2, b2, c.p * w, c.q * w, m)


def clear_points(pts) -> tuple:
    """(m, raw): the points over the lcm m of their coordinate denominators.

    raw[k] = (xp, xq, yp, yq) with point k = ((xp + xq*s3)/m, (yp + yq*s3)/m).
    """
    m = math.lcm(*[c.r for p in pts for c in (p.x, p.y)])
    raw = []
    for p in pts:
        x, y = p.x, p.y
        u, v = m // x.r, m // y.r
        raw.append((x.p * u, x.q * u, y.p * v, y.q * v))
    return m, raw


def cleared_area2(m: int, raw) -> tuple[int, int, int]:
    """(p, q, r): twice the signed area of a cycle cleared over m is (p + q*s3)/r.

    The shoelace sum on the integers of ``clear_points``; r = m*m, and
    nothing is normalised.
    """
    s0 = s1 = 0
    for (xp, xq, yp, yq), (xp2, xq2, yp2, yq2) in zip(raw[-1:] + raw[:-1], raw):
        s0 += xp * yp2 - yp * xp2 + 3 * (xq * yq2 - yq * xq2)
        s1 += xp * yq2 + xq * yp2 - yp * xq2 - yq * xp2
    return s0, s1, m * m


def cleared_box(m: int, raw) -> tuple:
    """``Region.float_bbox`` of a cycle cleared over m, bit for bit.

    Int true division rounds correctly, so xp/m is the float of the
    reduced quotient x.p/x.r that ``float_bbox`` divides.
    """
    return _float_box([(xp / m, xq / m, yp / m, yq / m) for xp, xq, yp, yq in raw])


def _float_box(coords) -> tuple:
    """Padded float box of points given as float parts (xa, xb, ya, yb) of
    x = xa + xb*s3 and y = ya + yb*s3 (see ``Region.float_bbox``)."""
    xs = []
    ys = []
    mag = 0.0
    for xa, xb, ya, yb in coords:
        xs.append(xa + xb * SQRT3_FLOAT)
        ys.append(ya + yb * SQRT3_FLOAT)
        mag = max(mag, abs(xa) + 2 * abs(xb), abs(ya) + 2 * abs(yb))
    pad = 1e-9 * (1.0 + max(map(abs, xs + ys))) + 1e-15 * mag
    return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)


def raw_point(xp: int, xq: int, yp: int, yq: int, r: int) -> Point:
    """The point ((xp + xq*s3)/r, (yp + yq*s3)/r), r >= 1, normalised."""
    return Point(QS3._make(xp, xq, r), QS3._make(yp, yq, r))


def raw_equals(p: Point, xp: int, xq: int, yp: int, yq: int, r: int) -> bool:
    """p == raw_point(xp, xq, yp, yq, r), by cross-multiplication."""
    x, y = p.x, p.y
    return (
        xp * x.r == x.p * r
        and xq * x.r == x.q * r
        and yp * y.r == y.p * r
        and yq * y.r == y.q * r
    )


def float_interval(p: int, q: int, r: int) -> tuple[float, float]:
    """Proven float enclosure (lo, hi) of (p + q*s3)/r, r >= 1.

    Padded as ``Region.float_bbox`` pads a coordinate a + b*s3 (a = p/r,
    b = q/r), so it holds however much ``a + b*s3`` cancels in floats.
    """
    a, b = p / r, q / r
    f = a + b * SQRT3_FLOAT
    pad = 1e-9 * (1.0 + abs(f)) + 1e-15 * (abs(a) + 2 * abs(b))
    return f - pad, f + pad


def primitive_dir(d: Point) -> Point:
    """Canonical representative of a ray direction (positive scaling)."""
    if d.x.is_zero() and d.y.is_zero():
        raise ValueError("zero direction")
    lead = d.x if not d.x.is_zero() else d.y
    return d.scaled(ONE / abs(lead))


class Line:
    """Line {p : nx*x + ny*y = c}.  Oriented: eval() > 0 is the left side.

    ``_k`` holds nx, ny and c times the lcm of their denominators as
    (a1, 3*b1, b1, a2, 3*b2, b2, a3, b3) (``_clear_denominators``); the
    exact signs read only these, and so does ``WedgeSystem.raw_orbit``.
    """

    __slots__ = ("nx", "ny", "c", "_k")

    def __init__(self, nx: QS3, ny: QS3, c: QS3):
        if nx.is_zero() and ny.is_zero():
            raise ValueError("degenerate line")
        self.nx = nx
        self.ny = ny
        self.c = c
        self._k = _clear_denominators(nx, ny, c)[:8]

    @staticmethod
    def through(a: Point, b: Point) -> "Line":
        """Line through a and b, positive side to the left of a -> b."""
        nx = a.y - b.y
        ny = b.x - a.x
        return Line(nx, ny, nx * a.x + ny * a.y)

    def eval(self, p: Point) -> QS3:
        return self.nx * p.x + self.ny * p.y - self.c

    def side(self, p: Point) -> int:
        """Exact sign of eval(p): the formula of ``signs`` for one point.

        Written out, not ``self.signs((p,))[0]``: ``Region.classify`` signs
        one point against many lines, and the extra call, tuple and list
        made the point-dynamics workload measurably slower.
        """
        a1, t1, b1, a2, t2, b2, a3, b3 = self._k
        x, y = p.x, p.y
        xp, xq, xr, yp, yq, yr = x.p, x.q, x.r, y.p, y.q, y.r
        return pair_sign(
            (a1 * xp + t1 * xq) * yr + (a2 * yp + t2 * yq - a3 * yr) * xr,
            (a1 * xq + b1 * xp) * yr + (a2 * yq + b2 * yp - b3 * yr) * xr,
        )

    def signs(self, pts) -> list[int]:
        """Exact signs of eval(p) for a sequence of points, on raw integers.

        With the line cleared to integers (a1 + b1*s3) x + (a2 + b2*s3) y =
        a3 + b3*s3 and x = (xp + xq*s3)/xr, y = (yp + yq*s3)/yr, the sign
        of eval(p) is that of xr*yr times it, whose rational and s3 parts
        are integer polynomials: no field operation and no gcd.
        """
        a1, t1, b1, a2, t2, b2, a3, b3 = self._k
        out = []
        for p in pts:
            x, y = p.x, p.y
            xp, xq, xr, yp, yq, yr = x.p, x.q, x.r, y.p, y.q, y.r
            out.append(
                pair_sign(
                    (a1 * xp + t1 * xq) * yr + (a2 * yp + t2 * yq - a3 * yr) * xr,
                    (a1 * xq + b1 * xp) * yr + (a2 * yq + b2 * yp - b3 * yr) * xr,
                )
            )
        return out

    def crossing(self, a: Point, b: Point) -> Point:
        """Where segment ab meets the line, a and b strictly on opposite sides.

        P = (s_a*b - s_b*a) / (s_a - s_b) with s = eval.  On raw integers
        the cleared value of eval(a) is S_a / (xr*yr) with S_a the pair of
        ``signs``, so P's coordinates are quotients of integer pairs over
        D = S_a*b.xr*b.yr - S_b*a.xr*a.yr; multiplying by the conjugate of D
        leaves one ``QS3._make`` per coordinate.
        """
        a1, t1, b1, a2, t2, b2, a3, b3 = self._k
        x, y = a.x, a.y
        axp, axq, axr, ayp, ayq, ayr = x.p, x.q, x.r, y.p, y.q, y.r
        x, y = b.x, b.y
        bxp, bxq, bxr, byp, byq, byr = x.p, x.q, x.r, y.p, y.q, y.r
        sa0 = (a1 * axp + t1 * axq) * ayr + (a2 * ayp + t2 * ayq - a3 * ayr) * axr
        sa1 = (a1 * axq + b1 * axp) * ayr + (a2 * ayq + b2 * ayp - b3 * ayr) * axr
        sb0 = (a1 * bxp + t1 * bxq) * byr + (a2 * byp + t2 * byq - a3 * byr) * bxr
        sb1 = (a1 * bxq + b1 * bxp) * byr + (a2 * byq + b2 * byp - b3 * byr) * bxr
        da, db = axr * ayr, bxr * byr
        d0 = sa0 * db - sb0 * da
        d1 = sa1 * db - sb1 * da
        norm = d0 * d0 - 3 * d1 * d1
        # x numerator: S_a*b.yr*(bxp + bxq*s3) - S_b*a.yr*(axp + axq*s3)
        u0, u1, v0, v1 = sa0 * byr, sa1 * byr, sb0 * ayr, sb1 * ayr
        n0 = u0 * bxp + 3 * u1 * bxq - v0 * axp - 3 * v1 * axq
        n1 = u0 * bxq + u1 * bxp - v0 * axq - v1 * axp
        px = QS3._make(n0 * d0 - 3 * n1 * d1, n1 * d0 - n0 * d1, norm)
        # y numerator: S_a*b.xr*(byp + byq*s3) - S_b*a.xr*(ayp + ayq*s3)
        u0, u1, v0, v1 = sa0 * bxr, sa1 * bxr, sb0 * axr, sb1 * axr
        n0 = u0 * byp + 3 * u1 * byq - v0 * ayp - 3 * v1 * ayq
        n1 = u0 * byq + u1 * byp - v0 * ayq - v1 * ayp
        py = QS3._make(n0 * d0 - 3 * n1 * d1, n1 * d0 - n0 * d1, norm)
        return Point(px, py)

    def eval_dir(self, d: Point) -> QS3:
        return self.nx * d.x + self.ny * d.y

    def reversed(self) -> "Line":
        return Line(-self.nx, -self.ny, -self.c)

    def direction(self) -> Point:
        """A direction vector of the line (left side stays on the left)."""
        return Point(self.ny, -self.nx)

    def canonical_key(self):
        """Key identifying the unoriented line."""
        lead = self.nx if not self.nx.is_zero() else self.ny
        inv = ONE / lead
        return ((self.nx * inv).key(), (self.ny * inv).key(), (self.c * inv).key())

    def intersect(self, other: "Line") -> Point:
        det = self.nx * other.ny - self.ny * other.nx
        if det.is_zero():
            raise ValueError("parallel lines")
        x = (self.c * other.ny - other.c * self.ny) / det
        y = (self.nx * other.c - other.nx * self.c) / det
        return Point(x, y)

    def __repr__(self):
        return f"Line({self.nx}, {self.ny}, {self.c})"


def integer_edge_lines(pts) -> list[Line]:
    """``Line.through`` of each edge of a vertex cycle, as a row of integers.

    The rows of ``edge_rows`` on the cycle cleared to one denominator
    (``clear_points``): nx, ny and c are canonical ``QS3`` over 1, and the
    cleared row ``_k`` is the row itself, with no field operation and no
    gcd.
    """
    raw = QS3._raw
    out = []
    for k in edge_rows(*clear_points(pts)):
        ln = object.__new__(Line)
        ln.nx, ln.ny, ln.c = raw(k[0], k[2], 1), raw(k[3], k[5], 1), raw(k[6], k[7], 1)
        ln._k = k
        out.append(ln)
    return out


def edge_rows(m: int, raw) -> list[tuple]:
    """The cleared row (``Line._k``) of each edge line of a cycle cleared over m.

    Edge a -> b with a = A/m, b = B/m for pairs A, B over Z[s3]:
    ``Line.through``'s row (a.y - b.y, b.x - a.x, b.x*a.y - b.y*a.x) times
    m*m is (m*(A.y - B.y), m*(B.x - A.x), B.x*A.y - B.y*A.x), integers of
    Z[s3], positive on the left of a -> b.  A positive multiple of a line
    has the same signs, and its crossings (homogeneous in the row and
    normalised) are the same points.
    """
    n = len(raw)
    out = []
    for i in range(n):
        axp, axq, ayp, ayq = raw[i]
        bxp, bxq, byp, byq = raw[i + 1 if i + 1 < n else 0]
        a1, b1 = m * (ayp - byp), m * (ayq - byq)
        a2, b2 = m * (bxp - axp), m * (bxq - axq)
        a3 = bxp * ayp + 3 * bxq * ayq - byp * axp - 3 * byq * axq
        b3 = bxp * ayq + bxq * ayp - byp * axq - byq * axp
        out.append((a1, 3 * b1, b1, a2, 3 * b2, b2, a3, b3))
    return out


class AffMap:
    """Exact affine map x -> M x + t over QS3.

    Entries are fixed at construction; ``det_sign`` is the sign of det(M)
    (computed unless the caller knows it).
    ``_rows`` holds each row (m_i0, m_i1, t_i) cleared to integers by
    ``_clear_denominators`` as (a, 3*b, b, c, 3*d, d, e, f, m), built on
    first use: most composed maps are never applied.
    """

    __slots__ = ("m00", "m01", "m10", "m11", "tx", "ty", "det_sign", "_rows")

    def __init__(self, m00, m01, m10, m11, tx, ty, det_sign=None):
        self.m00 = m00
        self.m01 = m01
        self.m10 = m10
        self.m11 = m11
        self.tx = tx
        self.ty = ty
        if det_sign is None:
            det_sign = _cross_sign(m00, m01, m10, m11)
        self.det_sign = det_sign
        self._rows = None

    @staticmethod
    def identity() -> "AffMap":
        return AffMap(ONE, ZERO, ZERO, ONE, ZERO, ZERO)

    @staticmethod
    def translation(v: Point) -> "AffMap":
        return AffMap(ONE, ZERO, ZERO, ONE, v.x, v.y)

    @staticmethod
    def point_reflection(center: Point) -> "AffMap":
        return AffMap(-ONE, ZERO, ZERO, -ONE, center.x + center.x, center.y + center.y)

    @staticmethod
    def homothety(center: Point, ratio: QS3) -> "AffMap":
        return AffMap(
            ratio,
            ZERO,
            ZERO,
            ratio,
            center.x * (ONE - ratio),
            center.y * (ONE - ratio),
        )

    def _cleared(self):
        rows = self._rows
        if rows is None:
            rows = self._rows = (
                _clear_denominators(self.m00, self.m01, self.tx),
                _clear_denominators(self.m10, self.m11, self.ty),
            )
        return rows

    def map_points(self, pts, shift: bool = True) -> list[Point]:
        """Images of a sequence of points (of vectors when not ``shift``).

        A row cleared to integers (a + b*s3) x + (c + d*s3) y + (e + f*s3)
        over m, at x = (xp + xq*s3)/xr and y = (yp + yq*s3)/yr, is one
        integer pair over m*xr*yr: each coordinate is normalised once, by
        one ``QS3._make``.
        """
        row0, row1 = self._cleared()
        a0, s0, b0, c0, u0, d0, e0, f0, m0 = row0
        a1, s1, b1, c1, u1, d1, e1, f1, m1 = row1
        if not shift:
            e0 = f0 = e1 = f1 = 0
        make = QS3._make
        out = []
        for p in pts:
            x, y = p.x, p.y
            xp, xq, xr, yp, yq, yr = x.p, x.q, x.r, y.p, y.q, y.r
            den = xr * yr
            out.append(
                Point(
                    make(
                        (a0 * xp + s0 * xq) * yr + (c0 * yp + u0 * yq + e0 * yr) * xr,
                        (a0 * xq + b0 * xp) * yr + (c0 * yq + d0 * yp + f0 * yr) * xr,
                        m0 * den,
                    ),
                    make(
                        (a1 * xp + s1 * xq) * yr + (c1 * yp + u1 * yq + e1 * yr) * xr,
                        (a1 * xq + b1 * xp) * yr + (c1 * yq + d1 * yp + f1 * yr) * xr,
                        m1 * den,
                    ),
                )
            )
        return out

    def apply(self, p: Point) -> Point:
        return self.map_points((p,))[0]

    def apply_vec(self, d: Point) -> Point:
        return self.map_points((d,), shift=False)[0]

    def compose(self, inner: "AffMap") -> "AffMap":
        """self o inner: self maps the columns of inner as vectors and its
        translation as a point; det(M N) = det(M) det(N), so the sign of the
        determinant is a product."""
        c0, c1 = self.map_points(
            (Point(inner.m00, inner.m10), Point(inner.m01, inner.m11)), shift=False
        )
        t = self.apply(Point(inner.tx, inner.ty))
        return AffMap(c0.x, c1.x, c0.y, c1.y, t.x, t.y, self.det_sign * inner.det_sign)

    def det(self) -> QS3:
        return self.m00 * self.m11 - self.m01 * self.m10

    def inverse(self) -> "AffMap":
        d = self.det()
        if d.is_zero():
            raise ValueError("non-invertible affine map")
        i00 = self.m11 / d
        i01 = -self.m01 / d
        i10 = -self.m10 / d
        i11 = self.m00 / d
        return AffMap(
            i00,
            i01,
            i10,
            i11,
            -(i00 * self.tx + i01 * self.ty),
            -(i10 * self.tx + i11 * self.ty),
        )

    def fixed_point(self) -> Point:
        """Solve (I - M) p = t; fails when 1 is an eigenvalue of M."""
        a = ONE - self.m00
        b = -self.m01
        c = -self.m10
        d = ONE - self.m11
        det = a * d - b * c
        if det.is_zero():
            raise ValueError("map has no unique fixed point")
        return Point((self.tx * d - b * self.ty) / det, (a * self.ty - c * self.tx) / det)

    def is_isometry(self) -> bool:
        c0 = self.m00 * self.m00 + self.m10 * self.m10
        c1 = self.m01 * self.m01 + self.m11 * self.m11
        dot = self.m00 * self.m01 + self.m10 * self.m11
        return c0 == ONE and c1 == ONE and dot.is_zero()

    def is_translation(self) -> bool:
        return (
            self.m00 == ONE
            and self.m11 == ONE
            and self.m01.is_zero()
            and self.m10.is_zero()
        )

    def __eq__(self, other):
        if not isinstance(other, AffMap):
            return NotImplemented
        return (
            self.m00 == other.m00
            and self.m01 == other.m01
            and self.m10 == other.m10
            and self.m11 == other.m11
            and self.tx == other.tx
            and self.ty == other.ty
        )

    def __hash__(self):
        return hash(
            (
                self.m00.key(),
                self.m01.key(),
                self.m10.key(),
                self.m11.key(),
                self.tx.key(),
                self.ty.key(),
            )
        )

    def __repr__(self):
        return (
            f"AffMap([[{self.m00}, {self.m01}], [{self.m10}, {self.m11}]], "
            f"t=({self.tx}, {self.ty}))"
        )


def _dedupe_cycle(pts):
    out = []
    for p in pts:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _strip_collinear_cycle(pts):
    pts = _dedupe_cycle(pts)
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        out = []
        n = len(pts)
        for i in range(n):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
            if (b - a).cross_sign(c - b) == 0:
                changed = True
            else:
                out.append(b)
        pts = out
    return pts


def _cycle_signed_area2(pts) -> QS3:
    """Twice the signed area of a vertex cycle: the shoelace sum, on raw integers.

    Over the lcm m of the vertex denominators every coordinate is an integer
    pair, the sum of cross products is m*m times the doubled area, and one
    ``QS3._make`` normalises it.
    """
    return QS3._make(*cleared_area2(*clear_points(pts)))


class Region:
    """Open polygonal region: bounded simple polygon or unbounded convex chain.

    Bounded: counter-clockwise vertex cycle, no collinear triples.
    Unbounded: boundary enters from infinity along ``entry_dir`` into
    ``vertices[0]``, walks the chain, and leaves ``vertices[-1]`` along
    ``exit_dir`` (interior on the left).  Unbounded regions must be convex;
    every algorithm in this package only ever produces convex unbounded
    pieces.
    """

    __slots__ = (
        "vertices",
        "entry_dir",
        "exit_dir",
        "_key",
        "_area",
        "_tris",
        "_fbox",
        "_convex",
        "_lines",
    )

    def __init__(self, vertices, entry_dir=None, exit_dir=None):
        self.vertices = tuple(vertices)
        self.entry_dir = entry_dir
        self.exit_dir = exit_dir
        self._key = None
        self._area = None
        self._tris = None
        self._fbox = None
        self._convex = None
        self._lines = None
        if (entry_dir is None) != (exit_dir is None):
            raise ValueError("entry/exit rays must be given together")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def bounded(points) -> "Region":
        pts = _strip_collinear_cycle(list(points))
        if len(pts) < 3:
            raise ValueError("degenerate bounded region")
        area2 = _cycle_signed_area2(pts)
        if area2.sign() < 0:
            pts.reverse()
            area2 = -area2
        reg = Region(pts)
        reg._area = area2
        return reg

    @staticmethod
    def unbounded(entry_dir: Point, points, exit_dir: Point) -> "Region":
        entry_dir = primitive_dir(entry_dir)
        exit_dir = primitive_dir(exit_dir)
        pts = []
        for p in points:
            if not pts or p != pts[-1]:
                pts.append(p)
        # merge the entry ray with a collinear first edge
        while len(pts) >= 2:
            d = pts[1] - pts[0]
            if entry_dir.cross(d).is_zero() and entry_dir.dot(d).sign() < 0:
                pts.pop(0)
            else:
                break
        while len(pts) >= 2:
            d = pts[-1] - pts[-2]
            if exit_dir.cross(d).is_zero() and exit_dir.dot(d).sign() > 0:
                pts.pop()
            else:
                break
        # drop interior collinear vertices
        i = 1
        while i + 1 < len(pts):
            if (pts[i] - pts[i - 1]).cross(pts[i + 1] - pts[i]).is_zero():
                pts.pop(i)
            else:
                i += 1
        if not pts:
            raise ValueError("unbounded region needs at least one vertex")
        reg = Region(pts, entry_dir, exit_dir)
        if not reg._supports_all():
            raise ValueError("unbounded region must be convex")
        return reg

    # -- basic queries ----------------------------------------------------------

    @property
    def is_bounded(self) -> bool:
        return self.entry_dir is None

    def edge_lines(self):
        """Oriented boundary lines, interior on the positive side, cached.

        A bounded region's are ``integer_edge_lines`` of its vertex cycle,
        positive multiples of ``Line.through``'s: no collinear triples, so
        no two edges of a convex cycle share a line.
        """
        if self._lines is not None:
            return self._lines
        pts = self.vertices
        if self.is_bounded:
            self._lines = integer_edge_lines(pts)
            return self._lines
        e = self.entry_dir
        lines = [Line(e.y, -e.x, e.y * pts[0].x - e.x * pts[0].y)]
        for i in range(len(pts) - 1):
            lines.append(Line.through(pts[i], pts[i + 1]))
        x = self.exit_dir
        lines.append(Line(-x.y, x.x, -x.y * pts[-1].x + x.x * pts[-1].y))
        # drop duplicated supporting lines (collinear entry ray and edge)
        seen = set()
        out = []
        for ln in lines:
            k = ln.canonical_key()
            if k not in seen:
                seen.add(k)
                out.append(ln)
        self._lines = out
        return out

    def is_convex(self) -> bool:
        if self._convex is None:
            if not self.is_bounded:
                self._convex = True
            else:
                pts = self.vertices
                n = len(pts)
                self._convex = all(
                    (pts[i] - pts[i - 1]).cross_sign(pts[(i + 1) % n] - pts[i]) > 0
                    for i in range(n)
                )
        return self._convex

    def _supports_all(self) -> bool:
        for ln in self.edge_lines():
            if min(ln.signs(self.vertices)) < 0:
                return False
            if not self.is_bounded:
                if ln.eval_dir(self.entry_dir).sign() < 0:
                    return False
                if ln.eval_dir(self.exit_dir).sign() < 0:
                    return False
        return True

    def area2(self) -> QS3:
        """Twice the area (exact)."""
        if not self.is_bounded:
            raise ValueError("area of unbounded region")
        if self._area is None:
            self._area = _cycle_signed_area2(self.vertices)
        return self._area

    def centroid(self) -> Point:
        if not self.is_bounded:
            raise ValueError("centroid of unbounded region")
        pts = self.vertices
        n = len(pts)
        sx = ZERO
        sy = ZERO
        for i in range(n):
            a, b = pts[i], pts[(i + 1) % n]
            w = a.cross(b)
            sx = sx + (a.x + b.x) * w
            sy = sy + (a.y + b.y) * w
        denom = self.area2() * 3
        return Point(sx / denom, sy / denom)

    # -- point classification ---------------------------------------------------

    def classify(self, p: Point) -> str:
        lines = self.edge_lines()
        if self.is_convex():
            any_zero = False
            for ln in lines:
                s = ln.side(p)
                if s < 0:
                    return EXTERIOR
                if s == 0:
                    any_zero = True
            return BOUNDARY if any_zero else INTERIOR
        # even-odd crossing count with a rightward ray from p, half-open in y;
        # line i runs through vertices i -> i+1 with the interior on its left
        pts = self.vertices
        sides = [ln.side(p) for ln in lines]
        py = p.y  # above[i] = sign(v_i.y - p.y); denominators are positive
        above = [
            pair_sign(v.y.p * py.r - py.p * v.y.r, v.y.q * py.r - py.q * v.y.r)
            for v in pts
        ]
        n = len(pts)
        inside = False
        for i in range(n):
            j = (i + 1) % n
            if sides[i] == 0 and above[i] * above[j] <= 0:
                # on the edge's line and in its y range (its x range if level)
                if (pts[i].x - p.x).sign() * (pts[j].x - p.x).sign() <= 0:
                    return BOUNDARY
            if (above[i] > 0) != (above[j] > 0) and (sides[i] > 0) == (above[j] > 0):
                inside = not inside
        return INTERIOR if inside else EXTERIOR

    # -- transforms -------------------------------------------------------------

    def transformed(self, f: AffMap) -> "Region":
        pts = f.map_points(self.vertices)
        if self.is_bounded:
            if f.det_sign > 0:
                # invertible orientation-preserving maps keep the normal form
                # (orientation, collinearity, ray merging) intact
                out = Region(pts)
            else:
                pts.reverse()
                out = Region.bounded(pts)
            # an invertible affine map keeps convexity
            out._convex = self._convex
            return out
        e, x = f.map_points((self.entry_dir, self.exit_dir), shift=False)
        if f.det_sign > 0:
            return Region(pts, primitive_dir(e), primitive_dir(x))
        pts.reverse()
        return Region.unbounded(x, pts, e)

    # -- canonical form -----------------------------------------------------------

    def canonical_key(self):
        if self._key is None:
            vk = tuple(p.key() for p in self.vertices)
            if self.is_bounded:
                n = len(vk)
                best = min(range(n), key=lambda i: vk[i:] + vk[:i])
                self._key = ("B", vk[best:] + vk[:best])
            else:
                self._key = ("U", self.entry_dir.key(), vk, self.exit_dir.key())
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        kind = "bounded" if self.is_bounded else "unbounded"
        return f"Region({kind}, {len(self.vertices)} vertices)"

    # -- misc helpers ----------------------------------------------------------

    def triangles(self):
        """Ear-clipping triangulation (bounded regions), cached."""
        if not self.is_bounded:
            raise ValueError("cannot triangulate unbounded region")
        if self._tris is None:
            self._tris = _triangulate(list(self.vertices))
        return self._tris

    def convex_parts(self):
        """A convex decomposition: the region itself if convex, else triangles."""
        if not self.is_bounded:
            return [self]
        if self.is_convex():
            return [self]
        return [Region.bounded(t) for t in self.triangles()]

    def interior_point(self) -> Point:
        if self.is_bounded:
            if self.is_convex():
                return self.centroid()
            best = max(self.triangles(), key=lambda t: _tri_area2(*t))
            return Point(
                (best[0].x + best[1].x + best[2].x) / 3,
                (best[0].y + best[1].y + best[2].y) / 3,
            )
        # push inward from the chain using both ray directions
        base = self.vertices[0]
        shift = self.entry_dir + self.exit_dir
        for p in self.vertices[1:]:
            shift = shift + (p - base)
        for den in (1 + len(self.vertices), 2, 1, 7, 23):
            cand = base + shift.scaled(Fraction(1, den))
            if self.classify(cand) == INTERIOR:
                return cand
        raise ValueError("failed to find interior point")

    def float_bbox(self):
        """Padded float bounding box (bounded regions only).

        A proven enclosure: ``float`` of a coordinate a + b*s3 (a = p/r and
        b = q/r, as in ``QS3.__float__``) is within 5e-16 * (|a| + 2|b|) of
        it however much the sum cancels, and that magnitude has no
        cancellation, so twice it covers rounding.
        """
        if self._fbox is None:
            coords = []
            for p in self.vertices:
                x, y = p.x, p.y
                coords.append((x.p / x.r, x.q / x.r, y.p / y.r, y.q / y.r))
            self._fbox = _float_box(coords)
        return self._fbox


def _tri_area2(a: Point, b: Point, c: Point) -> QS3:
    return (b - a).cross(c - a)


def _point_in_closed_tri(a, b, c, p) -> bool:
    s1 = _tri_area2(a, b, p).sign()
    s2 = _tri_area2(b, c, p).sign()
    s3 = _tri_area2(c, a, p).sign()
    return s1 >= 0 and s2 >= 0 and s3 >= 0


def _triangulate(pts):
    tris = []
    idx = list(range(len(pts)))
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * len(pts) * len(pts):
            raise ValueError("triangulation failed; polygon not simple?")
        n = len(idx)
        clipped = False
        for j in range(n):
            i0, i1, i2 = idx[j - 1], idx[j], idx[(j + 1) % n]
            a, b, c = pts[i0], pts[i1], pts[i2]
            if _tri_area2(a, b, c).sign() <= 0:
                continue
            ok = True
            for k in idx:
                if k in (i0, i1, i2):
                    continue
                if _point_in_closed_tri(a, b, c, pts[k]):
                    ok = False
                    break
            if ok:
                tris.append((a, b, c))
                idx.pop(j)
                clipped = True
                break
        if not clipped:
            raise ValueError("no ear found; polygon not simple?")
    tris.append((pts[idx[0]], pts[idx[1]], pts[idx[2]]))
    return tris


# -- halfplane clipping -------------------------------------------------------


def clip_convex(region: Region, line: Line, keep: int) -> Region | None:
    """Intersect a convex region with the closed halfplane keep*eval >= 0.

    Returns None when the intersection has empty interior.  Works for both
    bounded and unbounded convex regions; the result is again convex.
    """
    if region.is_bounded:
        return split_convex(region, line)[0 if keep > 0 else 1]
    return _clip_unbounded(region, line, keep)


def split_convex(region: Region, line: Line):
    """Both closed sides of a bounded convex region: (eval >= 0, eval <= 0).

    A side is None when its interior is empty, and the region itself when
    the line leaves the region whole, which ``Line.signs`` reads off the
    points as they are.  Else the ``Region`` form of ``split_cleared``: the
    vertices are cleared once and cut by its kernel (``_cut``, ``_sides``),
    each side keeps the region's own points, and each crossing is built by
    ``raw_point``.
    """
    pts = region.vertices
    sigs = line.signs(pts)
    if min(sigs) >= 0:
        return region, None
    if max(sigs) <= 0:
        return None, region
    sigs, cuts = _cut(*clear_points(pts), line._k)
    cuts = {i: raw_point(*c) for i, c in cuts.items()}
    return tuple(Region(side) for side, _ in _sides(sigs, pts, cuts, range(len(pts)), -1, -1))


def line_values(m: int, raw, k) -> list[tuple[int, int]]:
    """m times a line's form at each point cleared over m, as integer pairs.

    k is the line's cleared row ``Line._k``, (a1, 3*b1, b1, a2, 3*b2, b2,
    a3, b3): point (xp + xq*s3, yp + yq*s3)/m gives (a1*xp + 3*b1*xq +
    a2*yp + 3*b2*yq - a3*m) + (a1*xq + b1*xp + a2*yq + b2*yp - b3*m)*s3,
    whose sign ``pair_sign`` reads with no field operation.
    """
    a1, t1, b1, a2, t2, b2, a3, b3 = k
    c0, c1 = a3 * m, b3 * m
    return [
        (a1 * xp + t1 * xq + a2 * yp + t2 * yq - c0, a1 * xq + b1 * xp + a2 * yq + b2 * yp - c1)
        for xp, xq, yp, yq in raw
    ]


def _crossing(m: int, a, b, u, v) -> tuple:
    """(xp, xq, yp, yq, r): where segment ab meets a line, over r.

    a and b are points cleared over m, u and v the line's values there
    (``line_values``), of strictly opposite signs.  The point is
    (u*B - v*A) / (m*(u - v)) for the integer pairs A, B of a, b; the
    conjugate of u - v clears the s3 part of the denominator, and one
    gcd normalises the point.
    """
    axp, axq, ayp, ayq = a
    bxp, bxq, byp, byq = b
    u0, u1 = u
    v0, v1 = v
    d0, d1 = u0 - v0, u1 - v1
    r = m * (d0 * d0 - 3 * d1 * d1)
    n0 = u0 * bxp + 3 * u1 * bxq - v0 * axp - 3 * v1 * axq
    n1 = u0 * bxq + u1 * bxp - v0 * axq - v1 * axp
    xp, xq = n0 * d0 - 3 * n1 * d1, n1 * d0 - n0 * d1
    n0 = u0 * byp + 3 * u1 * byq - v0 * ayp - 3 * v1 * ayq
    n1 = u0 * byq + u1 * byp - v0 * ayq - v1 * ayp
    yp, yq = n0 * d0 - 3 * n1 * d1, n1 * d0 - n0 * d1
    g = math.gcd(xp, xq, yp, yq, r)
    if r < 0:
        g = -g
    return xp // g, xq // g, yp // g, yq // g, r // g


def split_cleared(m: int, raw, labels, k, pos_label, neg_label):
    """Both closed sides of a convex cycle cleared over m, cut by a line.

    ``raw`` is a counter-clockwise cycle as ``clear_points`` gives it,
    ``labels[i]`` a label of edge i (from vertex i to i + 1), and k the
    line's cleared row (``Line._k``).  Returns 1 or -1 when the line leaves
    the cycle whole on its closed positive or negative side.  Else returns
    the sides ``((den, pts), labels)``, the side eval >= 0 first, both
    cleared over den, the lcm of m and the crossings' denominators.  Each
    edge of a side lies on an edge of the cycle, and keeps its label, or
    on the line, and takes ``pos_label`` or ``neg_label`` (``_sides``).
    """
    cut = _cut(m, raw, k)
    if cut == 1 or cut == -1:
        return cut
    sigs, cuts = cut
    den = math.lcm(m, *[c[4] for c in cuts.values()])
    f = den // m
    if f > 1:
        raw = [(xp * f, xq * f, yp * f, yq * f) for xp, xq, yp, yq in raw]
    for i, (xp, xq, yp, yq, r) in cuts.items():
        g = den // r
        cuts[i] = (xp * g, xq * g, yp * g, yq * g)
    (pos, pos_labels), (neg, neg_labels) = _sides(sigs, raw, cuts, labels, pos_label, neg_label)
    return ((den, pos), pos_labels), ((den, neg), neg_labels)


def _cut(m: int, raw, k):
    """A line's signs on a vertex cycle cleared over m, and its crossings.

    1 or -1 when the line leaves the cycle whole on its closed positive or
    negative side; else (sigs, cuts) with cuts[i] the crossing on edge i
    (``_crossing``) for each edge whose ends lie strictly on both sides.
    One sign pass, and one crossing per cut edge: the split of a convex
    cycle (``split_cleared``, ``split_convex``) and of a nonconvex region
    (``split_region``) share it.
    """
    vals = line_values(m, raw, k)
    sigs = [pair_sign(s0, s1) for s0, s1 in vals]
    if min(sigs) >= 0:
        return 1
    if max(sigs) <= 0:
        return -1
    n = len(raw)
    cuts = {}
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        if sigs[i] * sigs[j] < 0:
            cuts[i] = _crossing(m, raw[i], raw[j], vals[i], vals[j])
    return sigs, cuts


def _sides(sigs, pts, cuts, labels, pos_label, neg_label):
    """Both sides of a cut convex cycle, (points, edge labels) each, the
    side of nonnegative signs first (Sutherland-Hodgman, emitting both).

    ``pts[i]`` is vertex i, ``cuts[i]`` the crossing on edge i, in one
    form, and ``labels[i]`` the label of edge i.  A side's edge from a
    vertex or a crossing lies on the cycle's edge i, and keeps labels[i],
    unless it runs along the line: from the side's exit point, a crossing
    or a vertex on the line followed by a vertex across it, where it takes
    ``pos_label`` or ``neg_label``.
    """
    pos, pos_labels, neg, neg_labels = [], [], [], []
    n = len(pts)
    for i in range(n):
        s, t = sigs[i], sigs[i + 1 if i + 1 < n else 0]
        if s >= 0:
            pos.append(pts[i])
            pos_labels.append(pos_label if s == 0 and t < 0 else labels[i])
        if s <= 0:
            neg.append(pts[i])
            neg_labels.append(neg_label if s == 0 and t > 0 else labels[i])
        if i in cuts:
            c = cuts[i]
            pos.append(c)
            pos_labels.append(pos_label if t < 0 else labels[i])
            neg.append(c)
            neg_labels.append(neg_label if t > 0 else labels[i])
    # vertices lie strictly on both sides, so the line meets the convex
    # boundary in exactly two points: the cut adds no duplicate or collinear
    # vertex, keeps the counter-clockwise order and leaves a positive area
    return (pos, pos_labels), (neg, neg_labels)


# -- the 24 directions --------------------------------------------------------------

# DIRECTIONS[j] = (x0, x1, y0, y1): the direction (x0 + x1*s3, y0 + y1*s3)
# at 15*j degrees (tan 15 = 2 - s3, tan 30 = 1/s3), by quarter turns of
# the first six
_FIRST_QUADRANT = ((1, 0, 0, 0), (1, 0, 2, -1), (0, 1, 1, 0), (1, 0, 1, 0), (1, 0, 0, 1), (2, -1, 1, 0))
DIRECTIONS = tuple(
    d
    for turns in range(4)
    for d in [
        (x0, x1, y0, y1) if turns == 0 else
        (-y0, -y1, x0, x1) if turns == 1 else
        (-x0, -x1, -y0, -y1) if turns == 2 else
        (y0, y1, -x0, -x1)
        for x0, x1, y0, y1 in _FIRST_QUADRANT
    ]
)


def _slope_key(x0: int, x1: int, y0: int, y1: int):
    """The slope y/x of a vector with x != 0, as a canonical (p, q, r)."""
    n = x0 * x0 - 3 * x1 * x1
    p, q = y0 * x0 - 3 * y1 * x1, y1 * x0 - y0 * x1
    g = math.gcd(p, q, n)
    if n < 0:
        g = -g
    return p // g, q // g, n // g


# slope key -> j, for the directions with x > 0: a vector with x > 0 is at
# 15*j degrees exactly when its slope is that of DIRECTIONS[j]
_SLOPE_DIRECTION = {_slope_key(*d): j for j, d in enumerate(DIRECTIONS) if pair_sign(d[0], d[1]) > 0}


def direction_position(x0: int, x1: int, y0: int, y1: int) -> int:
    """Where the direction (x0 + x1*s3, y0 + y1*s3) lies among the 24.

    Returns 2j when it points at 15*j degrees (``DIRECTIONS[j]``), and
    2j + 1 when it lies strictly between 15*j and 15*(j + 1) degrees: a
    position on a circle of 48 that orders directions as their angles do.
    A direction off the 24 is placed by the cross products with them.
    """
    if x0 == 0 and x1 == 0:
        return 12 if pair_sign(y0, y1) > 0 else 36
    j = _SLOPE_DIRECTION.get(_slope_key(x0, x1, y0, y1))
    if j is not None:
        return 2 * j if pair_sign(x0, x1) > 0 else (2 * j + 24) % 48
    # left of DIRECTIONS[j] and right of DIRECTIONS[j + 1]
    left = [
        pair_sign(
            dx0 * y0 + 3 * dx1 * y1 - dy0 * x0 - 3 * dy1 * x1,
            dx0 * y1 + dx1 * y0 - dy0 * x1 - dy1 * x0,
        )
        > 0
        for dx0, dx1, dy0, dy1 in DIRECTIONS
    ]
    return next(2 * j + 1 for j in range(24) if left[j] and not left[j - 23])


def edge_positions(raw) -> tuple:
    """The ``direction_position`` of each edge's outward normal.

    ``raw`` is a counter-clockwise cycle cleared to one denominator
    (``clear_points``); edge i runs from vertex i to i + 1, and its outward
    normal (dy, -dx) is the edge vector d turned clockwise.
    """
    n = len(raw)
    out = []
    for i in range(n):
        axp, axq, ayp, ayq = raw[i]
        bxp, bxq, byp, byq = raw[i + 1 if i + 1 < n else 0]
        out.append(direction_position(byp - ayp, byq - ayq, axp - bxp, axq - bxq))
    return tuple(out)


def support_table(positions) -> list[int]:
    """sup[d]: the index of a vertex of largest n_d . x, for each direction d.

    ``positions`` are a convex cycle's ``edge_positions``.  Vertex k lies
    between edges k - 1 and k, and it is largest in every direction whose
    position 2d is in the closed angle from edge k - 1's normal to edge
    k's; sup[d] is the k with 2d in (positions[k - 1], positions[k]]
    around the circle (one edge's position is below its predecessor's,
    where the angles pass 360 degrees).  No vertex is signed.
    """
    sup = [0] * 24
    prev = positions[-1]
    for k, e in enumerate(positions):
        lo, hi = (prev >> 1) + 1, (e >> 1) + 1
        if prev > e:
            sup[lo:] = [k] * (24 - lo)
            sup[:hi] = [k] * hi
        elif lo < hi:
            sup[lo:hi] = [k] * (hi - lo)
        prev = e
    return sup


def _clip_unbounded(region: Region, line: Line, keep: int) -> Region | None:
    """Clip a convex unbounded region by a halfplane.

    The extended boundary (entry ray, vertex chain, exit ray) meets the cut
    line at most twice, so the kept part is one contiguous walk; crossings
    are inserted in boundary order and the cut line supplies replacement
    rays when an original ray is lost.
    """
    pts = region.vertices
    m = len(pts)
    sigs = line.signs(pts) if keep > 0 else [-s for s in line.signs(pts)]
    ve = line.eval_dir(region.entry_dir)
    vx = line.eval_dir(region.exit_dir)
    se = ve.sign() * keep or sigs[0]
    sx = vx.sign() * keep or sigs[-1]

    all_sigs = [se] + sigs + [sx]
    if all(s >= 0 for s in all_sigs):
        return region if any(s > 0 for s in all_sigs) else None
    if all(s <= 0 for s in all_sigs):
        return None

    # boundary direction along the cut line with the kept side on the left
    d_close = line.direction()
    if keep < 0:
        d_close = -d_close

    chain = []
    if se * sigs[0] < 0:
        t = -line.eval(pts[0]) / ve
        chain.append(pts[0] + region.entry_dir.scaled(t))
    for i in range(m):
        if sigs[i] >= 0:
            chain.append(pts[i])
        if i + 1 < m and sigs[i] * sigs[i + 1] < 0:
            chain.append(line.crossing(pts[i], pts[i + 1]))
    if sigs[-1] * sx < 0:
        t = -line.eval(pts[-1]) / vx
        chain.append(pts[-1] + region.exit_dir.scaled(t))

    try:
        if se < 0 and sx < 0:
            return Region.bounded(chain)
        entry_dir = region.entry_dir if se >= 0 else -d_close
        exit_dir = region.exit_dir if sx >= 0 else d_close
        return Region.unbounded(entry_dir, chain, exit_dir)
    except ValueError:
        return None


def cutting_lines(m: int, raw, lines):
    """The lines with vertices of a bounded region strictly on both sides.

    The region's vertices come cleared to one denominator, as
    ``clear_points`` gives them: vertex (xp + xq*s3, yp + yq*s3)/m signs on a
    line's cleared row (a1 + b1*s3, a2 + b2*s3, a3 + b3*s3) as m times the
    line's form, a1*xp + 3*b1*xq + a2*yp + 3*b2*yq - a3*m and
    a1*xq + b1*xp + a2*yq + b2*yp - b3*m, one ``pair_sign`` and no field
    operation; a line is left once vertices on both sides are seen.

    None when one line has every vertex on its closed negative side, which
    separates the region from the convex set where every line is >= 0.  A
    line with every vertex on its closed positive side leaves the region,
    and so every part of it, whole: clipping by the cutting lines alone
    gives the pieces that clipping by all the lines gives, in the same
    order.
    """
    cutting = []
    for ln in lines:
        a1, t1, b1, a2, t2, b2, a3, b3 = ln._k
        c0, c1 = a3 * m, b3 * m
        pos = neg = False
        for xp, xq, yp, yq in raw:
            s = pair_sign(
                a1 * xp + t1 * xq + a2 * yp + t2 * yq - c0,
                a1 * xq + b1 * xp + a2 * yq + b2 * yp - c1,
            )
            if s > 0:
                pos = True
                if neg:
                    break
            elif s < 0:
                neg = True
                if pos:
                    break
        if not pos:
            return None
        if neg:
            cutting.append(ln)
    return cutting


def vertex_position(region: Region, lines) -> str:
    """Place a bounded region against the convex set where every line is >= 0.

    "inside" when every vertex is on the closed positive side of every
    line, "disjoint" when one line has all of them on its closed negative
    side, else "unknown" (the region may still miss the set): the answer
    of ``cutting_lines`` on the region's cleared vertices.
    """
    cutting = cutting_lines(*clear_points(region.vertices), lines)
    if cutting is None:
        return "disjoint"
    return "unknown" if cutting else "inside"


def intersect_convex(a: Region, b_convex: Region) -> Region | None:
    """Intersection of a convex region with another convex region."""
    out = a
    for ln in b_convex.edge_lines():
        out = clip_convex(out, ln, +1)
        if out is None:
            return None
    return out


# -- generic region splitting --------------------------------------------------


def split_region(region: Region, line: Line):
    """Split a region by a line into open subregions.

    Returns one region per connected component per side; their closures
    cover the closure of the input and their areas add up exactly.
    """
    if not region.is_bounded:
        pieces = (clip_convex(region, line, +1), clip_convex(region, line, -1))
    elif region.is_convex():
        pieces = split_convex(region, line)
    else:
        return _side_pieces_bounded(region, line, +1) + _side_pieces_bounded(region, line, -1)
    return [piece for piece in pieces if piece is not None]


def _side_pieces_bounded(region: Region, line: Line, keep: int):
    pts = region.vertices
    n = len(pts)
    cut = _cut(*clear_points(pts), line._k)
    if cut == 1 or cut == -1:
        return [region] if cut == keep else []
    sigs, cuts = cut
    sigs = [keep * s for s in sigs]

    # boundary cycle with crossings inserted
    cyc = []  # (point, sig)
    for i in range(n):
        cyc.append((pts[i], sigs[i]))
        if i in cuts:
            cyc.append((raw_point(*cuts[i]), 0))
    m = len(cyc)

    # maximal arcs with sig >= 0 containing at least one strictly positive node
    start = next(i for i in range(m) if cyc[i][1] < 0)
    order = [(start + k) % m for k in range(1, m + 1)]
    raw_arcs = []
    cur = []
    has_pos = False
    for i in order:
        p, s = cyc[i]
        if s >= 0:
            cur.append((p, s))
            has_pos = has_pos or s > 0
        else:
            if cur and has_pos:
                raw_arcs.append(cur)
            cur = []
            has_pos = False
    if cur and has_pos:
        raw_arcs.append(cur)
    if not raw_arcs:
        return []

    # boundary direction along the cut line with the kept side on the left
    d_close = line.direction()
    if keep < 0:
        d_close = -d_close

    # split arcs at pinch points: an on-line reflex vertex (or an on-line
    # edge traversed against d_close) touches the line from the kept side
    # and disconnects the piece there
    arcs = []
    for arc in raw_arcs:
        cur = [arc[0]]
        for k in range(1, len(arc)):
            p, s = arc[k]
            prev_p, prev_s = arc[k - 1]
            if s == 0 and prev_s == 0:
                if d_close.dot(p - prev_p).sign() < 0:
                    arcs.append(cur)
                    cur = []
            elif s == 0 and 0 < k < len(arc) - 1:
                nxt_p, nxt_s = arc[k + 1]
                if (
                    prev_s > 0
                    and nxt_s > 0
                    and (p - prev_p).cross(nxt_p - p).sign() < 0
                ):
                    cur.append((p, s))
                    arcs.append(cur)
                    cur = []
            cur.append((p, s))
        if cur:
            arcs.append(cur)
    # a sub-arc that kept only on-line nodes borders the other side; drop it
    arcs = [
        [p for p, _ in arc] for arc in arcs if any(s > 0 for _, s in arc)
    ]
    if not arcs:
        return []

    # pair arc endpoints along the cut line: closing edges run in the
    # d_close direction from an arc end to the next arc start; at a pinch
    # (equal position) the start comes first
    taus = {}
    for aid, arc in enumerate(arcs):
        taus[(0, aid)] = d_close.dot(arc[0])  # start port
        taus[(1, aid)] = d_close.dot(arc[-1])  # end port
    ports = sorted(taus.keys(), key=lambda k: (taus[k], k[0]))
    if len(ports) % 2:
        raise ValueError("unbalanced ports in polygon split")
    next_arc = {}
    for i in range(0, len(ports), 2):
        (k1, a1), (k2, a2) = ports[i], ports[i + 1]
        if k1 != 1 or k2 != 0:
            raise ValueError("port alternation failed; polygon not simple?")
        next_arc[a1] = a2

    used = set()
    out = []
    for aid in range(len(arcs)):
        if aid in used:
            continue
        poly = []
        cur_id = aid
        while cur_id not in used:
            used.add(cur_id)
            poly.extend(arcs[cur_id])
            cur_id = next_arc[cur_id]
        try:
            out.append(Region.bounded(poly))
        except ValueError:
            pass
    return out


# -- containment / intersection areas -------------------------------------------


def intersection_area2(poly: Region, convex: Region) -> QS3:
    """Twice the area of poly ∩ convex (poly bounded, convex convex)."""
    total = ZERO
    for part in poly.convex_parts():
        inter = intersect_convex(part, convex)
        if inter is not None:
            total = total + inter.area2()
    return total


def area2_within(polys, target_parts) -> QS3:
    """Twice the area of (union of polys) ∩ (union of target_parts), exactly.

    polys: a list of bounded regions, target_parts: convex regions, each
    with disjoint interiors.  A part and poly pair is skipped when their
    proven float boxes miss, counted whole or not at all when the poly's
    vertex signs against the part's edge lines settle it, else clipped.
    """
    total = ZERO
    for part in target_parts:
        box = part.float_bbox() if part.is_bounded else None
        for pol in polys:
            if box is not None and not boxes_overlap(pol.float_bbox(), box):
                continue
            where = vertex_position(pol, part.edge_lines())
            if where == "inside":
                total = total + pol.area2()
            elif where == "unknown":
                total = total + intersection_area2(pol, part)
    return total


def overlap_status(poly: Region, target_parts) -> str:
    """Trichotomy of a bounded region against a convex decomposition.

    target_parts: convex regions forming the target (disjoint interiors).
    Returns "inside", "disjoint" or "straddle" as the exact overlap area
    decides them: "inside" once one closed part holds every vertex, else
    ``area2_within`` over the parts that neither the float boxes nor the
    vertex signs separate from the region.
    """
    box = poly.float_bbox()
    unknown = []
    for part in target_parts:
        if part.is_bounded and not boxes_overlap(box, part.float_bbox()):
            continue
        where = vertex_position(poly, part.edge_lines())
        if where == "inside":
            return "inside"
        if where == "unknown":
            unknown.append(part)
    if not unknown:
        return "disjoint"
    acc = area2_within([poly], unknown)
    if acc.is_zero():
        return "disjoint"
    return "inside" if acc == poly.area2() else "straddle"


def boxes_overlap(a, b) -> bool:
    """Closed (x0, y0, x1, y1) boxes, as from ``Region.float_bbox``, meet."""
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


# -- JSON encoding ----------------------------------------------------------------


def region_to_obj(region: Region) -> dict:
    obj = {
        "kind": "bounded" if region.is_bounded else "unbounded",
        "vertices": [[p.x.literal(), p.y.literal()] for p in region.vertices],
    }
    if not region.is_bounded:
        obj["entry_ray"] = [
            region.entry_dir.x.literal(),
            region.entry_dir.y.literal(),
        ]
        obj["exit_ray"] = [region.exit_dir.x.literal(), region.exit_dir.y.literal()]
    return obj


def region_from_obj(obj: dict) -> Region:
    pts = [Point(qs3_parse(x), qs3_parse(y)) for x, y in obj["vertices"]]
    if obj["kind"] == "bounded":
        return Region.bounded(pts)
    e = Point(qs3_parse(obj["entry_ray"][0]), qs3_parse(obj["entry_ray"][1]))
    x = Point(qs3_parse(obj["exit_ray"][0]), qs3_parse(obj["exit_ray"][1]))
    return Region.unbounded(e, pts, x)


def region_to_json(region: Region) -> str:
    return json.dumps(region_to_obj(region), separators=(",", ":"))


def region_from_json(text: str) -> Region:
    return region_from_obj(json.loads(text))
