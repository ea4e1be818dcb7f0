import math
import random
from fractions import Fraction

import pytest

from dodeca.field import ONE, QS3, SQRT3, SQRT3_FLOAT, ZERO, pair_sign, qs3, qs3_parse


def rand_qs3(rng, span=30):
    return QS3(
        Fraction(rng.randint(-span, span), rng.randint(1, 12)),
        Fraction(rng.randint(-span, span), rng.randint(1, 12)),
    )


def test_mul_difference_of_squares():
    x = qs3(1, 1)
    y = qs3(1, -1)
    assert x * y == qs3(-2, 0)


def test_sqrt3_squares_to_three():
    assert SQRT3 * SQRT3 == qs3(3, 0)


def test_reciprocal_of_one_plus_sqrt3():
    x = qs3(1, 1)
    inv = ONE / x
    assert inv == qs3(Fraction(-1, 2), Fraction(1, 2))
    # oracle: multiplying back must give exactly 1
    assert inv * x == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_sign_examples():
    assert ZERO.sign() == 0
    assert qs3(-2, 1).sign() == -1
    assert qs3(7, -4).sign() == 1
    assert qs3(-7, 4).sign() == -1


def test_float_examples():
    assert float(ONE) == 1.0
    assert abs(float(SQRT3) - 1.7320508) < 1e-6
    assert abs(float(qs3(Fraction(1, 2), Fraction(1, 2))) - 1.3660254) < 1e-6


def test_float_matches_fraction_conversion():
    # int true division rounds like Fraction.__float__, so the sum is bit-identical
    rng = random.Random(21)
    for _ in range(500):
        v = QS3._make(
            rng.randint(-(2**200), 2**200),
            rng.randint(-(2**200), 2**200),
            rng.randint(1, 2**100),
        )
        want = float(Fraction(v.p, v.r)) + float(Fraction(v.q, v.r)) * SQRT3_FLOAT
        assert float(v) == want


def test_literal_round_trip_examples():
    for text in ["1/2+-1/3*s3", "5", "-7/3", "0+1*s3", "-2+-2*s3"]:
        v = qs3_parse(text)
        assert qs3_parse(v.literal()) == v


def test_literal_rejects_garbage():
    for text in ["abc", "1/2+", "1//2", "s3", "1+2*s2", ""]:
        with pytest.raises(ValueError):
            qs3_parse(text)


def test_field_axioms_randomized():
    rng = random.Random(20240)
    for _ in range(1000):
        x, y, z = (rand_qs3(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * (ONE / x) == ONE


def test_sign_multiplicative_randomized():
    rng = random.Random(20241)
    for _ in range(1000):
        x, y = rand_qs3(rng), rand_qs3(rng)
        assert x.sign() * y.sign() == (x * y).sign()


def _isqrt_sign(p, q):
    """Sign of p + q*sqrt(3) by integer square roots: floor(|q|*sqrt(3)) =
    isqrt(3*q*q), and |q|*sqrt(3) is irrational for q != 0."""
    if q == 0:
        return (p > 0) - (p < 0)
    r = math.isqrt(3 * q * q)
    if q > 0:
        return 1 if r >= -p else -1
    return 1 if p > r else -1


def test_pair_sign_matches_isqrt_reference():
    cases = [(p, q) for p in range(-40, 41) for q in range(-40, 41)]
    # (2 + sqrt(3))^n = p_n + q_n*sqrt(3): p_n - q_n*sqrt(3) = (2 - sqrt(3))^n
    p, q = 1, 0
    for _ in range(60):
        p, q = 2 * p + 3 * q, p + 2 * q
        for dp in (-1, 0, 1):
            cases += [(p + dp, -q), (-p + dp, q), (p + dp, q), (-p + dp, -q)]
    rng = random.Random(20243)
    for _ in range(2000):
        bits = rng.choice((8, 64, 200))
        cases.append((rng.randint(-(2**bits), 2**bits), rng.randint(-(2**bits), 2**bits)))
    for p, q in cases:
        assert pair_sign(p, q) == _isqrt_sign(p, q), (p, q)


def test_sign_consistent_with_float():
    rng = random.Random(20242)
    for _ in range(1000):
        x = rand_qs3(rng)
        f = float(x)
        if abs(f) > 1e-6:
            assert x.sign() == (1 if f > 0 else -1)


def test_canonical_round_trip_randomized():
    rng = random.Random(20243)
    for _ in range(1000):
        x = rand_qs3(rng)
        assert qs3_parse(x.literal()) == x
        assert math.gcd(math.gcd(x.p, x.q), x.r) == 1
        assert x.r >= 1


@pytest.mark.parametrize("den", [128, 512])
def test_make_of_a_dyadic_is_the_fraction(den):
    # the sampled points are built as _make(k, 0, den); each must be the
    # canonical triple that QS3(Fraction(k, den)) builds
    for k in range(-3 * den, 3 * den + 1):
        x, ref = QS3._make(k, 0, den), QS3(Fraction(k, den))
        assert (x.p, x.q, x.r) == (ref.p, ref.q, ref.r)


def test_ordering():
    assert qs3(0, 1) > qs3(Fraction(17, 10))
    assert qs3(0, 1) < qs3(Fraction(18, 10))
    assert sorted([SQRT3, ZERO, ONE]) == [ZERO, ONE, SQRT3]


def test_pow():
    x = qs3(1, 1)
    assert x**0 == ONE
    assert x**3 == x * x * x
