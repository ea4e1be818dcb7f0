"""Independent exact reference for the benchmark's output checks.

Numbers of Q[sqrt(3)] are pairs ``(a, b)`` of ``Fraction`` meaning
a + b*sqrt(3); points are pairs of such numbers; polygons are lists of
points.  Nothing here imports ``dodeca``: program objects are converted
with :func:`num_of`, :func:`point_of` and :func:`poly_of`, which read only
their public attributes.

The outer billiard map of the regular 12-gon (circumradius 2, centre at
the origin, vertex A_k at angle 30°*k) is rebuilt from the exact cosine
table.  Floats only pick a candidate vertex or rotation, and every
candidate is confirmed with exact signs before it is used.
"""

from __future__ import annotations

import math
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)
HALF = Fraction(1, 2)
SQRT3 = math.sqrt(3.0)

ZERO = (F0, F0)
ONE = (F1, F0)


class CheckError(Exception):
    """A benchmark output check failed."""


class BoundaryHit(Exception):
    """The reference map is undefined at this point (a measure-zero tie)."""


def require(cond, message: str):
    """Raise CheckError unless cond holds (survives ``python -O``)."""
    if not cond:
        raise CheckError(message)


# -- Q[sqrt(3)] as pairs of Fractions -------------------------------------------


def add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def mul(u, v):
    return (u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def inv(u):
    norm = u[0] * u[0] - 3 * u[1] * u[1]
    if norm == 0:
        raise ZeroDivisionError("inverse of zero")
    return (u[0] / norm, -u[1] / norm)


def sign(u) -> int:
    """Exact sign of a + b*sqrt(3)."""
    a, b = u
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # opposite signs: compare |a| with |b|*sqrt(3)
    if a * a > 3 * b * b:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def to_float(u) -> float:
    return float(u[0]) + float(u[1]) * SQRT3


# -- points and polygons ---------------------------------------------------------


def psub(p, q):
    return (sub(p[0], q[0]), sub(p[1], q[1]))


def cross(u, v):
    return sub(mul(u[0], v[1]), mul(u[1], v[0]))


def dot(u, v):
    return add(mul(u[0], v[0]), mul(u[1], v[1]))


def orient(a, b, p) -> int:
    """Sign of cross(b - a, p - a): +1 when p is left of a -> b."""
    return sign(cross(psub(b, a), psub(p, a)))


def area2(poly):
    """Twice the signed area (shoelace)."""
    total = ZERO
    n = len(poly)
    for i in range(n):
        total = add(total, cross(poly[i], poly[(i + 1) % n]))
    return total


def is_convex(poly) -> bool:
    n = len(poly)
    return all(orient(poly[i - 1], poly[i], poly[(i + 1) % n]) > 0 for i in range(n))


def locate(poly, p) -> int:
    """+1 strictly inside, 0 on the boundary, -1 outside (any simple polygon)."""
    inside = False
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        c = sign(cross(psub(b, a), psub(p, a)))
        if c == 0 and sign(dot(psub(p, a), psub(p, b))) <= 0:
            return 0
        a_above = sign(sub(a[1], p[1])) > 0
        b_above = sign(sub(b[1], p[1])) > 0
        if a_above != b_above and (c > 0) == b_above:
            inside = not inside
    return 1 if inside else -1


def float_box(poly):
    xs = [to_float(p[0]) for p in poly]
    ys = [to_float(p[1]) for p in poly]
    return min(xs), min(ys), max(xs), max(ys)


def canonical_cycle(poly):
    """The vertex cycle started at its least vertex (a comparable key)."""
    n = len(poly)
    best = min(range(n), key=lambda i: poly[i])
    return tuple(poly[best:] + poly[:best])


# -- affine maps: ((m00, m01, m10, m11), (tx, ty)) -------------------------------


def apply(f, p):
    (m00, m01, m10, m11), (tx, ty) = f
    x, y = p
    return (add(add(mul(m00, x), mul(m01, y)), tx), add(add(mul(m10, x), mul(m11, y)), ty))


def compose(f, g):
    """f o g."""
    (a00, a01, a10, a11), (ax, ay) = f
    (b00, b01, b10, b11), _ = g
    lin = (
        add(mul(a00, b00), mul(a01, b10)),
        add(mul(a00, b01), mul(a01, b11)),
        add(mul(a10, b00), mul(a11, b10)),
        add(mul(a10, b01), mul(a11, b11)),
    )
    t = apply(f, g[1])
    return lin, t


def invert(f):
    (m00, m01, m10, m11), (tx, ty) = f
    d = inv(sub(mul(m00, m11), mul(m01, m10)))
    lin = (mul(m11, d), mul(sub(ZERO, m01), d), mul(sub(ZERO, m10), d), mul(m00, d))
    g = (lin, (ZERO, ZERO))
    t = apply(g, (tx, ty))
    return lin, (sub(ZERO, t[0]), sub(ZERO, t[1]))


# -- conversion of program objects ---------------------------------------------------


def num_of(v):
    """A program field element a + b*sqrt(3) as the pair (a, b)."""
    return (v.a, v.b)


def point_of(p):
    return (num_of(p.x), num_of(p.y))


def poly_of(region):
    return [point_of(p) for p in region.vertices]


def map_of(f):
    return (
        (num_of(f.m00), num_of(f.m01), num_of(f.m10), num_of(f.m11)),
        (num_of(f.tx), num_of(f.ty)),
    )


# -- the 12-gon and its outer billiard map ---------------------------------------------

# cos(30°*k) for k = 0..11, exact
COS = [
    ONE,
    (F0, HALF),
    (HALF, F0),
    ZERO,
    (-HALF, F0),
    (F0, -HALF),
    (-F1, F0),
    (F0, -HALF),
    (-HALF, F0),
    ZERO,
    (HALF, F0),
    (F0, HALF),
]
SIN = [COS[(k - 3) % 12] for k in range(12)]
VERTS = [(mul((Fraction(2), F0), COS[k]), mul((Fraction(2), F0), SIN[k])) for k in range(12)]
_VERTS_F = [(to_float(v[0]), to_float(v[1])) for v in VERTS]


def rotate(p, k: int):
    """Rotation by 30°*k about the table centre."""
    c, s = COS[k % 12], SIN[k % 12]
    x, y = p
    return (sub(mul(c, x), mul(s, y)), add(mul(s, x), mul(c, y)))


def _support_ok(p, i: int) -> int:
    """+1 when A_i supports the table from p with the table on the left of
    the ray p -> A_i, 0 on a tie, -1 otherwise."""
    a = VERTS[i]
    d = psub(a, p)
    s1 = sign(cross(d, psub(VERTS[(i - 1) % 12], p)))
    s2 = sign(cross(d, psub(VERTS[(i + 1) % 12], p)))
    if s1 > 0 and s2 > 0:
        return 1
    if s1 >= 0 and s2 >= 0:
        return 0
    return -1


def support_index(p) -> int:
    """Index of the supporting vertex that the map T reflects through."""
    px, py = to_float(p[0]), to_float(p[1])
    best, best_margin = 0, -math.inf
    for i in range(12):
        ax, ay = _VERTS_F[i]
        dx, dy = ax - px, ay - py
        m = min(
            dx * (_VERTS_F[i - 1][1] - py) - dy * (_VERTS_F[i - 1][0] - px),
            dx * (_VERTS_F[(i + 1) % 12][1] - py) - dy * (_VERTS_F[(i + 1) % 12][0] - px),
        )
        if m > best_margin:
            best, best_margin = i, m
    if _support_ok(p, best) > 0:
        return best
    for i in range(12):
        s = _support_ok(p, i)
        if s > 0:
            return i
        if s == 0:
            raise BoundaryHit("point on a supporting-line tie")
    raise BoundaryHit("point not outside the table")


def billiard_step(p):
    """T: central symmetry through the supporting vertex."""
    a = VERTS[support_index(p)]
    return (sub(add(a[0], a[0]), p[0]), sub(add(a[1], a[1]), p[1]))


# the wedge at A_1: directions between A_0 -> A_1 (105°) and A_1 -> A_2 (135°)
_APEX = VERTS[1]
_U = psub(VERTS[1], VERTS[0])
_V = psub(VERTS[2], VERTS[1])
_UV = sign(cross(_U, _V))
_APEX_F = (to_float(_APEX[0]), to_float(_APEX[1]))
_U_F = (to_float(_U[0]), to_float(_U[1]))
_V_F = (to_float(_V[0]), to_float(_V[1]))
_ROT_F = [(math.cos(k * math.pi / 6), math.sin(k * math.pi / 6)) for k in range(12)]


def in_wedge(p) -> int:
    """+1 interior of the wedge at A_1, 0 on its boundary, -1 outside."""
    w = psub(p, _APEX)
    s = sign(cross(w, _V)) * _UV
    t = sign(cross(_U, w)) * _UV
    if s > 0 and t > 0:
        return 1
    if s >= 0 and t >= 0:
        return 0
    return -1


def fold(q):
    """The rotated copy of q interior to the wedge at A_1."""
    qx, qy = to_float(q[0]), to_float(q[1])
    best, best_margin = 0, -math.inf
    for k, (c, s) in enumerate(_ROT_F):
        wx = c * qx - s * qy - _APEX_F[0]
        wy = s * qx + c * qy - _APEX_F[1]
        m = _UV * min(wx * _V_F[1] - wy * _V_F[0], _U_F[0] * wy - _U_F[1] * wx)
        if m > best_margin:
            best, best_margin = k, m
    for k in [best] + [k for k in range(12) if k != best]:
        r = rotate(q, k)
        s = in_wedge(r)
        if s > 0:
            return r
        if s == 0:
            raise BoundaryHit("folded point on the wedge boundary")
    raise BoundaryHit("no rotated copy inside the wedge")


class Domain:
    """A polygon inside the wedge, with its 12 rotated copies.

    The rotated copies of the wedge are disjoint, so T'^n(p) lies in the
    polygon exactly when T^n(p) lies in one of the copies; orbits can then
    be followed under T alone, with a float box test per copy and an exact
    test only inside a box.
    """

    def __init__(self, poly):
        self.copies = []
        for k in range(12):
            rotated = [rotate(p, -k) for p in poly]
            x0, y0, x1, y1 = float_box(rotated)
            self.copies.append((x0 - 1e-9, y0 - 1e-9, x1 + 1e-9, y1 + 1e-9, rotated))

    def locate(self, q) -> int:
        """+1 when T'-folding q lands strictly inside, 0 on the boundary, else -1."""
        fx, fy = to_float(q[0]), to_float(q[1])
        for x0, y0, x1, y1, rotated in self.copies:
            if x0 <= fx <= x1 and y0 <= fy <= y1:
                loc = locate(rotated, q)
                if loc >= 0:
                    return loc
        return -1

    def first_return(self, p, cap: int):
        """Least n >= 1 with T'^n(p) strictly inside, and T'^n(p).

        Returns (None, None) when the orbit does not return within the cap.
        """
        q = p
        for n in range(1, cap + 1):
            q = billiard_step(q)
            loc = self.locate(q)
            if loc > 0:
                return n, fold(q)
            if loc == 0:
                raise BoundaryHit("orbit landed on the domain boundary")
        return None, None


def least_period(p, cap: int):
    """Least n <= cap with T^n(p) == p, else None."""
    q = p
    for n in range(1, cap + 1):
        q = billiard_step(q)
        if q == p:
            return n
    return None


def interior_sample(poly, rng, den: int = 1 << 12):
    """A seeded exact point strictly inside a polygon (rejection in its box)."""
    x0, y0, x1, y1 = float_box(poly)
    for _ in range(10000):
        x = Fraction(rng.randint(math.floor(x0 * den), math.ceil(x1 * den)), den)
        y = Fraction(rng.randint(math.floor(y0 * den), math.ceil(y1 * den)), den)
        p = ((x, F0), (y, F0))
        if locate(poly, p) > 0:
            return p
    raise CheckError("no interior sample found")


def convex_sample(poly, rng):
    """A seeded exact interior point of a convex polygon: positive weights."""
    weights = [Fraction(rng.randint(1, 64)) for _ in poly]
    total = sum(weights)
    x = y = ZERO
    for w, p in zip(weights, poly):
        k = (w / total, F0)
        x = add(x, mul(k, p[0]))
        y = add(y, mul(k, p[1]))
    return (x, y)
