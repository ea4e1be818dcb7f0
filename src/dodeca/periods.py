"""Explicit enumeration of all possible orbit periods of the billiard map.

Every period arises from an integer visit-count vector h (how often one
return cycle of an orbit enters each of the six wedge pieces): the orbit
closes under the plain billiard map after

    12 * sum(h) / gcd(12, h_1 + 2 h_2 + 3 h_3 + 4 h_4 + 5 h_5 + 6 h_6)

steps, because each visit to piece i contributes i twelfths of a turn of
fold twist.  The reachable h form the closure of two finite seed families
under three fixed nonnegative integer matrices; periods of the remaining
points are obtained by doubling the odd values.  The matrices and seed
vectors are frozen constants with a transcription checksum; changing a
single entry fails the test suite loudly.
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


def period_of_h(h) -> int:
    """Billiard period of an orbit with piece-visit counts h."""
    if len(h) != 6 or any(x < 0 for x in h):
        raise ValueError("h must be a nonnegative 6-vector")
    total = sum(h)
    if total == 0:
        raise ValueError("h must not be the zero vector")
    weighted = sum(wk * hk for wk, hk in zip(WEIGHTS, h))
    return 12 * total // math.gcd(12, weighted)


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

    def sort_key(self):
        return (self.family, self.index, self.k, self.n, self.doubled)


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


def enumerate_h(bound: int):
    """All reachable h with period <= bound, with generator witnesses.

    Since every matrix is nonnegative with column sums >= 1, the entry sum
    of h never decreases along k or n, and the period is at least sum(h);
    both loops therefore stop once sum exceeds the bound, and the only
    stationary direction (a fixed vector of the 6x6 matrix) is cut off by
    an exact repeat test.  The enumeration is exhaustive within the bound.
    """
    if bound < 1:
        raise DomainError("bound must be positive")

    def k_loop(h6, family, index, n):
        k = 0
        v = h6
        while sum(v) <= bound:
            yield v, Witness(family, index, k, n)
            v2 = mat_vec(M66, v)
            if v2 == v:
                break
            v = v2
            k += 1

    for idx, f in enumerate(FAMILY_F):
        v8 = f
        n = 0
        while True:
            h6 = mat_vec(M68, v8)
            yield from k_loop(h6, "F", idx, n)
            v8 = mat_vec(M88, v8)
            n += 1
            if sum(v8) > bound:
                # column sums of both matrices are >= 1, so sum(h) and hence
                # the period can only exceed the bound from here on
                break
    for idx, g in enumerate(FAMILY_G):
        yield from k_loop(g, "G", idx, 0)


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
    """All billiard periods up to the bound: base set plus doubled odds."""
    gens: dict[int, Witness] = {}
    base: set[int] = set()
    for h, wit in enumerate_h(bound):
        p = period_of_h(h)
        if p > bound:
            continue
        base.add(p)
        if p not in gens or wit.sort_key() < gens[p].sort_key():
            gens[p] = wit
    for p in sorted(base):
        if p % 2 == 1 and 2 * p <= bound and 2 * p not in base:
            wit = gens[p]
            cand = Witness(wit.family, wit.index, wit.k, wit.n, doubled=True)
            if 2 * p not in gens or cand.sort_key() < gens[2 * p].sort_key():
                gens[2 * p] = cand
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
    from fractions import Fraction

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
        x = Fraction(rng.randint(int(box[0] * 128), int(box[2] * 128)), 128)
        y = Fraction(rng.randint(int(box[1] * 128), int(box[3] * 128)), 128)
        p = Point(QS3(x), QS3(y))
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
