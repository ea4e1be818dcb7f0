"""Explicit enumeration of all possible orbit periods of the billiard map.

Every period arises from an integer visit-count vector h (how often one
return cycle of an orbit enters each of the six wedge pieces): the orbit
closes under the plain billiard map after

    12 * s / gcd(12, w),  s = sum(h),  w = h_1 + 2 h_2 + 3 h_3 + 4 h_4 + 5 h_5 + 6 h_6

steps, because each visit to piece i contributes i twelfths of a turn of
fold twist (``fold_period``).  The reachable h are M66^k·M68·M88^n·f for
the seed family F and M66^k·g for the family G; periods of the remaining
points are obtained by doubling the odd values.  M66 sends every vector
into the (e5, e6) plane and acts there by [[1, 0], [1, 1]], so for k >= 1

    M66^k·h = (0, 0, 0, 0, a, c + (k - 1)·a),

an arithmetic progression: the walk carries the two integers (a, c) along
k, with sum a + c and twist 5a + 6c, and stops once the sum passes the
bound (the period is at least the sum), or at once when a == 0, where M66
fixes h.  The structure is checked on M66's entries when a walk starts.
The matrices and seed vectors are frozen constants with a transcription
checksum; changing a single entry fails the test suite loudly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from operator import mul

from .errors import DomainError, GraneError
from .field import QS3
from .geom import INTERIOR, Point

M68 = (
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 8, 18, 13, 24),
    (0, 0, 0, 0, 2, 7, 14, 29),
    (0, 0, 0, 0, 0, 0, 0, 0),
)

M66 = (
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (5, 4, 3, 2, 1, 0),
    (1, 1, 1, 1, 1, 1),
)

M88 = (
    (2, 2, 2, 2, 20, 50, 26, 50),
    (2, 2, 2, 2, 20, 50, 26, 50),
    (4, 4, 4, 4, 42, 107, 74, 145),
    (2, 2, 2, 2, 20, 50, 48, 94),
    (0, 1, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 8, 18, 13, 24),
    (0, 0, 1, 0, 0, 0, 0, 0),
)

FAMILY_F = (
    (0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0),
    (9, 2, 5, 2, 0, 0, 0, 0),
    (6, 4, 10, 4, 0, 0, 0, 0),
    (0, 0, 2, 3, 0, 0, 1, 0),
    (24, 24, 120, 102, 0, 0, 18, 0),
    (48, 48, 156, 108, 0, 0, 24, 0),
    (4, 4, 9, 4, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0),
    (2, 2, 4, 2, 0, 0, 1, 0),
    (0, 0, 7, 8, 0, 0, 1, 0),
    (6, 6, 13, 6, 0, 0, 2, 0),
)

FAMILY_G = (
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 24, 36, 0),
    (0, 0, 0, 18, 36, 0),
    (0, 0, 0, 1, 2, 0),
    (0, 0, 0, 1, 1, 0),
    (0, 0, 0, 2, 1, 0),
    (0, 0, 0, 1, 3, 0),
)

# guards the constant block against accidental edits
CONSTANTS_SHA256 = "ec15aaf8789b83ccec06b8160e92aba99b80c93594a8188527a75b682ba0353f"


def constants_digest() -> str:
    blob = json.dumps(
        {"M68": M68, "M66": M66, "M88": M88, "F": FAMILY_F, "G": FAMILY_G},
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


WEIGHTS = (1, 2, 3, 4, 5, 6)


def fold_period(s: int, w: int) -> int:
    """Billiard period of a return cycle of s piece visits with fold twist w twelfths."""
    return 12 * s // math.gcd(12, w)


def period_of_h(h) -> int:
    """Billiard period of an orbit with piece-visit counts h."""
    if len(h) != 6 or any(x < 0 for x in h):
        raise ValueError("h must be a nonnegative 6-vector")
    total = sum(h)
    if total == 0:
        raise ValueError("h must not be the zero vector")
    return fold_period(total, sum(map(mul, WEIGHTS, h)))


@dataclass(frozen=True)
class Witness:
    family: str  # "F" or "G"
    index: int
    k: int
    n: int
    doubled: bool = False

    def to_obj(self) -> dict:
        return {
            "family": self.family,
            "index": self.index,
            "k": self.k,
            "n": self.n,
            "doubled": self.doubled,
        }


def replay_witness(wit: Witness):
    """Recompute the h-vector of a witness from the matrix constants."""
    if wit.family == "F":
        v = FAMILY_F[wit.index]
        for _ in range(wit.n):
            v = mat_vec(M88, v)
        v = mat_vec(M68, v)
    else:
        v = FAMILY_G[wit.index]
    for _ in range(wit.k):
        v = mat_vec(M66, v)
    return v


def _progression_rows():
    """Rows a and c of M66, checked to make M66^k·h an arithmetic progression.

    M66 must send every h into the (e5, e6) plane (rows 0-3 vanish) and act
    on that plane by [[1, 0], [1, 1]]: then M66·h = (0, 0, 0, 0, a, c) with
    a = row_a·h and c = row_c·h, and each further power keeps a and adds it
    to c.  Row a must be positive off e6, so that for h >= 0, a == 0 exactly
    when h lies on the e6 axis, which M66 fixes.
    """
    row_a, row_c = M66[4], M66[5]
    plane = ((row_a[4], row_a[5]), (row_c[4], row_c[5]))
    if (
        any(any(row) for row in M66[:4])
        or plane != ((1, 0), (1, 1))
        or min(row_a[:5]) <= 0
    ):
        raise ValueError("M66 does not act on h as the progression (a, c + (k - 1)a)")
    return row_a, row_c


def _walk(bound: int):
    """Every reachable h with sum(h) <= bound, as (family, index, k, n, h, p).

    The seeds (family, index, n) are the F vectors after n steps of M88,
    mapped by M68, and the G vectors at n = 0.  h is the seed at k = 0 and
    the pair (a, c) of M66^k·h = (0, 0, 0, 0, a, c) from k = 1 on; p is its
    period.
    """
    if bound < 1:
        raise DomainError("bound must be positive")
    row_a, row_c = _progression_rows()
    wa, wc = WEIGHTS[4], WEIGHTS[5]

    def seeds():
        for index, f in enumerate(FAMILY_F):
            v8, n = f, 0
            while True:
                yield "F", index, n, mat_vec(M68, v8)
                v8 = mat_vec(M88, v8)
                n += 1
                if sum(v8) > bound:
                    # column sums of both matrices are >= 1, so sum(h) and
                    # hence the period can only exceed the bound from here on
                    break
        for index, g in enumerate(FAMILY_G):
            yield "G", index, 0, g

    for family, index, n, h in seeds():
        if sum(h) > bound:
            continue
        yield family, index, 0, n, h, period_of_h(h)
        a = sum(map(mul, row_a, h))
        if a == 0:
            continue  # M66 fixes h
        c = sum(map(mul, row_c, h))
        k = 1
        while a + c <= bound:
            yield family, index, k, n, (a, c), fold_period(a + c, wa * a + wc * c)
            c += a
            k += 1


def enumerate_h(bound: int):
    """All reachable h with sum(h) <= bound, with generator witnesses.

    Every matrix is nonnegative with column sums >= 1, so the entry sum of
    h never decreases along k or n, and the period is at least sum(h): both
    loops stop once the sum exceeds the bound.  Along k the vectors are an
    arithmetic progression: for k >= 1, M66^k·h = (0, 0, 0, 0, a,
    c + (k - 1)a).  Its sum grows by a at each k, so it passes the bound
    unless a == 0, and a == 0 is exactly the case where M66 fixes h; then
    the walk stops after k = 0.  The enumeration is exhaustive within the
    bound.
    """
    for family, index, k, n, h, _ in _walk(bound):
        yield (h if k == 0 else (0, 0, 0, 0) + h), Witness(family, index, k, n)


@dataclass
class PeriodSet:
    bound: int
    periods: list  # sorted
    generators: dict  # period -> Witness

    def __contains__(self, p: int) -> bool:
        return p in self.generators

    def to_obj(self, witnesses: bool = False) -> dict:
        obj = {"bound": self.bound, "periods": self.periods}
        if witnesses:
            obj["witnesses"] = {
                str(p): self.generators[p].to_obj() for p in self.periods
            }
        return obj


def full_period_set(bound: int) -> PeriodSet:
    """All billiard periods up to the bound: base set plus doubled odds.

    Each base period keeps the least (family, index, k, n) that reaches it;
    an odd p with 2p <= bound outside the base set gives 2p, witnessed by
    p's generator doubled.
    """
    best: dict[int, tuple] = {}
    for family, index, k, n, _, p in _walk(bound):
        if p <= bound:
            key = (family, index, k, n)
            if p not in best or key < best[p]:
                best[p] = key
    gens = {p: Witness(*key) for p, key in best.items()}
    for p in sorted(best):
        if p % 2 == 1 and 2 * p <= bound and 2 * p not in best:
            gens[2 * p] = Witness(*best[p], doubled=True)
    return PeriodSet(bound, sorted(gens), gens)


# -- cross-validation against the exact dynamics --------------------------------------


@dataclass
class CrossValidation:
    checked_components: int
    checked_orbits: int
    verified_periods: list  # sorted distinct per_T values confirmed in the set
    unmatched_enumerated: list  # enumerated periods with no orbit witness found
    skipped: int

    def to_obj(self) -> dict:
        return {
            "checked_components": self.checked_components,
            "checked_orbits": self.checked_orbits,
            "verified_periods": self.verified_periods,
            "unmatched_enumerated": self.unmatched_enumerated,
            "skipped": self.skipped,
        }


def billiard_orbit_period(table, p, max_iter: int) -> int | None:
    """Least T-period of p by direct exact iteration of the billiard map."""
    q = p
    for n in range(1, max_iter + 1):
        q, _ = table.step(q)
        if q == p:
            return n
    return None


def cross_validate(
    w,
    bound: int,
    components=(),
    samples: int = 200,
    seed: int = 0,
) -> CrossValidation:
    """Check that every exactly computed orbit period lies in the period set.

    Components contribute their center and non-center point periods via
    the fold-twist formula; center periods up to 600 are additionally
    verified by direct iteration of the plain billiard map.  Random wedge
    points that close up within 4096 T'-steps contribute their periods as
    well.  Any period outside the enumerated set raises AssertionError.
    """
    import random

    from .search import component_periods

    pset = full_period_set(max(bound, 1))
    verified = set()
    checked_components = 0
    for comp in components:
        info = component_periods(comp)
        for per_t in (info.center_per_t, info.noncenter_per_t):
            if per_t <= pset.bound:
                assert per_t in pset, f"component period {per_t} missing from the set"
                verified.add(per_t)
        if info.center_per_t <= 600:
            direct = billiard_orbit_period(w.table, comp.center, info.center_per_t)
            assert direct == info.center_per_t
        checked_components += 1

    rng = random.Random(seed)
    checked_orbits = 0
    skipped = 0
    box = w.Zp.float_bbox()
    attempts = 0
    while checked_orbits < samples and attempts < 50 * samples:
        attempts += 1
        x = rng.randint(int(box[0] * 128), int(box[2] * 128))
        y = rng.randint(int(box[1] * 128), int(box[3] * 128))
        p = Point(QS3._make(x, 0, 128), QS3._make(y, 0, 128))
        if w.Zp.classify(p) != INTERIOR:
            continue
        try:
            res = w.orbit_period(p, 4096)
        except GraneError:
            skipped += 1
            continue
        if res is None:
            skipped += 1
            continue
        per_tp, counts = res
        per_t = period_of_h(counts)
        if per_t <= pset.bound:
            assert per_t in pset, f"orbit period {per_t} missing from the set"
            verified.add(per_t)
        checked_orbits += 1

    unmatched = [p for p in pset.periods if p not in verified and p <= 72]
    return CrossValidation(
        checked_components=checked_components,
        checked_orbits=checked_orbits,
        verified_periods=sorted(verified),
        unmatched_enumerated=unmatched,
        skipped=skipped,
    )
