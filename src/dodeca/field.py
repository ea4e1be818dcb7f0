"""Exact arithmetic in the real quadratic field Q[sqrt(3)].

Every coordinate, matrix entry and geometric predicate in this package is
computed in this field with arbitrary-precision integers, so no predicate
rounds.  Floating point only comes from evaluating a + b*sqrt(3) in floats
(:meth:`QS3.__float__` and the proven enclosures ``geom.cleared_box``,
whose cached form is ``Region.float_bbox``, and ``geom.float_interval``).
The boxes only prune exact work: the parts that the one placement of a
polygon against a domain (``geom.place``) and the one location of a
point (``geom.point_sign``, which ``Region.classify`` and the sampled
return walks of ``selfsim`` run) skip, ``geom.area2_within`` and the
``CellPool`` grid; otherwise floats appear only in samplers, rendering
and the reported ``*_float`` values.

A value a + b*sqrt(3) (a, b rational) is stored over a common denominator
as ``(p + q*sqrt(3)) / r`` with integers ``p, q`` and ``r >= 1``,
``gcd(p, q, r) == 1``.  The representation is unique, so equality and
hashing are structural.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

SQRT3_FLOAT = math.sqrt(3.0)

_LIT_RE = re.compile(
    r"""\s*(?P<a>[+-]?\d+(?:/\d+)?)
        (?:\s*\+\s*(?P<b>[+-]?\d+(?:/\d+)?)\s*\*\s*s3)?\s*$""",
    re.VERBOSE,
)


def pair_sign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(3) for integers p, q.

    When p and q disagree in sign it is the sign of p^2 - 3*q^2 taken
    with p's sign (sqrt(3) is irrational, so that never vanishes).
    """
    if p > 0:
        return 1 if q >= 0 or p * p > 3 * q * q else -1
    if p < 0:
        return -1 if q <= 0 or p * p > 3 * q * q else 1
    return (q > 0) - (q < 0)


class QS3:
    """An exact element of Q[sqrt(3)]."""

    __slots__ = ("p", "q", "r")

    def __init__(self, a=0, b=0):
        """Build the value a + b*sqrt(3) from ints or Fractions."""
        if isinstance(a, QS3) or isinstance(b, QS3):
            raise TypeError("QS3 components must be rational, not QS3")
        a = Fraction(a)
        b = Fraction(b)
        r = a.denominator * b.denominator // math.gcd(
            a.denominator, b.denominator
        )
        p = a.numerator * (r // a.denominator)
        q = b.numerator * (r // b.denominator)
        g = math.gcd(p, q, r)
        if g > 1:
            p //= g
            q //= g
            r //= g
        self.p = p
        self.q = q
        self.r = r

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _raw(p: int, q: int, r: int) -> "QS3":
        """Fast path: assumes the triple is already canonical."""
        v = object.__new__(QS3)
        v.p = p
        v.q = q
        v.r = r
        return v

    @staticmethod
    def _make(p: int, q: int, r: int) -> "QS3":
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(p, q, r)
        if g > 1:
            p //= g
            q //= g
            r //= g
        v = object.__new__(QS3)
        v.p = p
        v.q = q
        v.r = r
        return v

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Fraction(self.p, self.r)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(3)."""
        return Fraction(self.q, self.r)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QS3._make(
            self.p * other.r + other.p * self.r,
            self.q * other.r + other.q * self.r,
            self.r * other.r,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QS3._make(
            self.p * other.r - other.p * self.r,
            self.q * other.r - other.q * self.r,
            self.r * other.r,
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QS3._raw(-self.p, -self.q, self.r)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QS3._make(
            self.p * other.p + 3 * self.q * other.q,
            self.p * other.q + self.q * other.p,
            self.r * other.r,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        norm = other.p * other.p - 3 * other.q * other.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q[sqrt(3)]")
        # 1/other = other.r * (p - q*sqrt3) / (p^2 - 3 q^2)
        np = self.p * other.p - 3 * self.q * other.q
        nq = self.q * other.p - self.p * other.q
        return QS3._make(np * other.r, nq * other.r, self.r * norm)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates -----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value, computed without floating point.

        When p and q disagree in sign the comparison reduces to the exact
        integer test p^2 vs 3*q^2 (sqrt(3) is irrational, so a tie is
        impossible unless both vanish).
        """
        return pair_sign(self.p, self.q)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.r == other.r

    def __hash__(self):
        return hash((self.p, self.q, self.r))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return not self.is_zero()

    # -- conversion -----------------------------------------------------------

    def __float__(self):
        # Approximate, for rendering and the box prefilters: int true
        # division rounds p/r and q/r correctly, but the sum can cancel
        # when p and q*sqrt(3) nearly balance.
        return self.p / self.r + self.q / self.r * SQRT3_FLOAT

    def key(self):
        """Canonical structural key, usable for deterministic ordering."""
        return (self.p, self.q, self.r)

    def literal(self) -> str:
        """Canonical text literal, bit-exact round trip via :func:`qs3_parse`."""
        return f"{_fmt_rat(self.a)}+{_fmt_rat(self.b)}*s3"

    def __str__(self):
        return self.literal()

    def __repr__(self):
        return f"QS3({self.a!s}, {self.b!s})"


def _coerce(x):
    if isinstance(x, QS3):
        return x
    if isinstance(x, int):
        return QS3._raw(x, 0, 1)
    if isinstance(x, Fraction):
        return QS3._raw(x.numerator, 0, x.denominator)
    return None


def _fmt_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def qs3_parse(text: str) -> QS3:
    """Parse a field literal ``p/q+r/s*s3`` (integer shorthand ``p`` allowed)."""
    m = _LIT_RE.match(text)
    if m is None:
        raise ValueError(f"bad Q[sqrt(3)] literal: {text!r}")
    a = Fraction(m.group("a"))
    b = Fraction(m.group("b")) if m.group("b") is not None else Fraction(0)
    return QS3(a, b)


def qs3(a=0, b=0) -> QS3:
    """Convenience constructor, accepts ints, Fractions or 'num/den' strings."""
    if isinstance(a, str):
        a = Fraction(a)
    if isinstance(b, str):
        b = Fraction(b)
    return QS3(a, b)


ZERO = QS3._raw(0, 0, 1)
ONE = QS3._raw(1, 0, 1)
HALF = QS3._raw(1, 0, 2)
SQRT3 = QS3._raw(0, 1, 1)
SQRT3_HALF = QS3._raw(0, 1, 2)
