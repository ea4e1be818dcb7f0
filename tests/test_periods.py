import random
from itertools import permutations

import pytest

from dodeca import periods
from dodeca.errors import DomainError
from dodeca.periods import (
    CONSTANTS_SHA256,
    FAMILY_F,
    FAMILY_G,
    M66,
    M68,
    M88,
    billiard_orbit_period,
    constants_digest,
    cross_validate,
    enumerate_h,
    full_period_set,
    mat_vec,
    period_of_h,
    PeriodSet,
    Witness,
    replay_witness,
)
from dodeca.selfsim import visit_matrix


def test_constants_checksum():
    assert constants_digest() == CONSTANTS_SHA256


def test_m68_is_the_z4_visit_matrix(ctx):
    # column j of M68 counts the visits to alpha_1..alpha_6 along the T'
    # itinerary of Z'_4 return piece P[j]; no other relabelling fits
    pieces = ctx.return_system("z4").pieces
    visits = [tuple(p.itinerary.count(a + 1) for a in range(6)) for p in pieces]
    columns = [tuple(row[j] for row in M68) for j in range(8)]
    fits = [
        P for P in permutations(range(8)) if all(columns[j] == visits[P[j]] for j in range(8))
    ]
    assert fits == [(3, 4, 2, 1, 7, 0, 5, 6)]


def test_m88_is_the_visit_matrix(ctx):
    # M88 is the gamma_1 visit matrix W of the z4 and z14 return systems,
    # relabelled by the P that fits M68; no other relabelling fits
    w = visit_matrix(ctx.return_system("z4"), ctx.return_system("z14"), ctx.sim.gamma1)
    fits = [
        P
        for P in permutations(range(8))
        if all(M88[i][j] == w[P[i]][P[j]] for i in range(8) for j in range(8))
    ]
    assert fits == [(3, 4, 2, 1, 7, 0, 5, 6)]


def test_matrix_shapes():
    assert len(M68) == 6 and all(len(r) == 8 for r in M68)
    assert len(M66) == 6 and all(len(r) == 6 for r in M66)
    assert len(M88) == 8 and all(len(r) == 8 for r in M88)
    assert len(FAMILY_F) == 13 and all(len(f) == 8 for f in FAMILY_F)
    assert len(FAMILY_G) == 8 and all(len(g) == 6 for g in FAMILY_G)
    for m in (M68, M66, M88):
        assert all(x >= 0 for row in m for x in row)


def test_period_formula_examples():
    assert period_of_h((0, 1, 0, 0, 0, 0)) == 6
    assert period_of_h((0, 0, 0, 0, 1, 0)) == 12
    assert period_of_h((1, 1, 1, 1, 1, 1)) == 24
    with pytest.raises(ValueError):
        period_of_h((0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        period_of_h((1, -1, 0, 0, 0, 0))


def test_period_formula_against_billiard_orbits(ctx):
    # h = e_2 belongs to the code-2 fixed point, h = e_5 to the code-5 one;
    # direct iteration of the plain billiard map is the oracle
    t, w = ctx.system
    assert billiard_orbit_period(t, w.O[2], 12) == period_of_h((0, 1, 0, 0, 0, 0))
    assert billiard_orbit_period(t, w.O[5], 24) == period_of_h((0, 0, 0, 0, 1, 0))
    assert billiard_orbit_period(t, w.O[1], 24) == period_of_h((1, 0, 0, 0, 0, 0))


def test_period_divides_12_sum():
    rng = random.Random(3)
    for _ in range(1000):
        h = tuple(rng.randint(0, 9) for _ in range(6))
        if sum(h) == 0:
            continue
        p = period_of_h(h)
        assert 12 * sum(h) % p == 0
        assert p > 0


def test_enumerate_first_elements():
    pairs = list(enumerate_h(40))
    by_h = {h: w for h, w in pairs}
    e2 = (0, 1, 0, 0, 0, 0)
    assert e2 in by_h and by_h[e2].family == "F" and by_h[e2].k == 0
    g0 = (0, 0, 0, 0, 1, 0)
    assert g0 in by_h and by_h[g0].family == "G" and by_h[g0].k == 0


def _reference_enumerate_h(bound):
    # the 6x6 products at every k, stopped by an exact repeat test
    def k_loop(h6, family, index, n):
        k, v = 0, h6
        while sum(v) <= bound:
            yield v, Witness(family, index, k, n)
            v2 = mat_vec(M66, v)
            if v2 == v:
                break
            v, k = v2, k + 1

    for idx, f in enumerate(FAMILY_F):
        v8, n = f, 0
        while True:
            yield from k_loop(mat_vec(M68, v8), "F", idx, n)
            v8, n = mat_vec(M88, v8), n + 1
            if sum(v8) > bound:
                break
    for idx, g in enumerate(FAMILY_G):
        yield from k_loop(g, "G", idx, 0)


def _reference_period_set(bound):
    def key(wit):
        return (wit.family, wit.index, wit.k, wit.n)

    gens, base = {}, set()
    for h, wit in _reference_enumerate_h(bound):
        p = period_of_h(h)
        if p > bound:
            continue
        base.add(p)
        if p not in gens or key(wit) < key(gens[p]):
            gens[p] = wit
    for p in sorted(base):
        if p % 2 == 1 and 2 * p <= bound and 2 * p not in base:
            wit = gens[p]
            gens[2 * p] = Witness(wit.family, wit.index, wit.k, wit.n, doubled=True)
    return PeriodSet(bound, sorted(gens), gens)


@pytest.mark.parametrize("bound", [1, 2, 3, 11, 40, 150, 600, 2000, 5000])
def test_full_period_set_matches_the_matrix_products(bound):
    # the (a, c) progression gives the periods and witnesses that M66 as a
    # 6x6 product at every k gives
    ref = _reference_period_set(bound).to_obj(witnesses=True)
    assert full_period_set(bound).to_obj(witnesses=True) == ref


@pytest.mark.parametrize("bound", [1, 40, 600])
def test_enumerate_h_matches_the_matrix_products(bound):
    assert list(enumerate_h(bound)) == list(_reference_enumerate_h(bound))


@pytest.mark.parametrize("bound", [0, -1])
def test_full_period_set_rejects_a_bound_below_one(bound):
    with pytest.raises(DomainError):
        full_period_set(bound)


@pytest.mark.parametrize(
    "i, j, value",
    [
        (4, 5, 1),  # M66 no longer adds a to c alone
        (5, 5, 2),  # c doubles
        (5, 4, 0),  # c stays put
        (3, 0, 1),  # h leaves the (e5, e6) plane
        (4, 0, 0),  # a == 0 no longer means that M66 fixes h
    ],
)
def test_enumeration_refuses_a_broken_m66(monkeypatch, i, j, value):
    rows = [list(row) for row in M66]
    rows[i][j] = value
    monkeypatch.setattr(periods, "M66", tuple(map(tuple, rows)))
    with pytest.raises(ValueError, match="progression"):
        full_period_set(40)
    with pytest.raises(ValueError, match="progression"):
        next(enumerate_h(40))


def test_period_set_is_the_multiples_of_3_or_4():
    # ROADMAP item 12's measured closed form, on the enumeration to 20000
    ps = full_period_set(20000)
    assert ps.periods == [n for n in range(3, 20001) if n % 3 == 0 or n % 4 == 0]


def test_m88_powers_monotone():
    v = FAMILY_F[4]
    prev = sum(v)
    for _ in range(4):
        v = mat_vec(M88, v)
        assert sum(v) >= prev
        prev = sum(v)


def test_bound_2000_golden():
    import hashlib
    import json

    ps = full_period_set(2000)
    assert len(ps.periods) == 1000
    assert ps.periods[:12] == [3, 4, 6, 8, 9, 12, 15, 16, 18, 20, 21, 24]
    blob = json.dumps(ps.periods, separators=(",", ":")).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "3d4813ce1087c43c6d07888d10aa73530cd6ead3b5461fb8f5c9768e39176448"
    )


def test_full_period_set_monotone_in_bound():
    big = full_period_set(600)
    small = full_period_set(150)
    assert [p for p in big.periods if p <= 150] == small.periods


def test_doubling_closure():
    ps = full_period_set(500)
    base = {p for p, w in ps.generators.items() if not w.doubled}
    for p in base:
        if p % 2 == 1 and 2 * p <= 500:
            assert 2 * p in ps.generators
    # 9 is odd and reachable; 18 must therefore be present
    assert 9 in base and 18 in ps.generators


def test_witness_replay():
    ps = full_period_set(300)
    for p in ps.periods:
        wit = ps.generators[p]
        h = replay_witness(wit)
        expect = p // 2 if wit.doubled else p
        assert period_of_h(h) == expect


def test_component_periods_in_set(ctx):
    from dodeca.search import component_periods

    comps = list(ctx.base_components().values()) + [ctx.sim.g1w4]
    need = 1
    infos = [component_periods(c) for c in comps]
    for info in infos:
        need = max(need, info.center_per_t, info.noncenter_per_t)
    ps = full_period_set(need)
    for info in infos:
        assert info.center_per_t in ps.generators
        assert info.noncenter_per_t in ps.generators


def test_cross_validate_samples(ctx):
    comps = list(ctx.base_components().values())
    cv = cross_validate(ctx.wedge, 2000, components=comps, samples=40, seed=11)
    assert cv.checked_components == 4
    assert cv.checked_orbits >= 40
    assert 12 in cv.verified_periods


def test_cross_validate_pinned(ctx):
    # read before the sample points were built from raw integers; the
    # draws and the points are unchanged
    comps = list(ctx.base_components().values())
    cv = cross_validate(ctx.wedge, 2000, components=comps, samples=40, seed=9)
    assert cv.to_obj() == {
        "checked_components": 4,
        "checked_orbits": 40,
        "verified_periods": [3, 4, 6, 8, 12, 18, 36, 48, 192, 222],
        "unmatched_enumerated": [
            9, 15, 16, 20, 21, 24, 27, 28, 30, 32, 33, 39, 40, 42,
            44, 45, 51, 52, 54, 56, 57, 60, 63, 64, 66, 68, 69, 72,
        ],
        "skipped": 0,
    }


def test_cross_validate_vacuous(ctx):
    cv = cross_validate(ctx.wedge, 100, components=(), samples=0, seed=0)
    assert cv.checked_orbits == 0 and cv.checked_components == 0


def test_cross_validate_does_not_hide_crashes(ctx, monkeypatch):
    # only a boundary hit skips a sample; a fault in the step code propagates
    from dodeca.table import WedgeSystem

    def crash(self, p, max_iter):
        raise RuntimeError("broken step")

    monkeypatch.setattr(WedgeSystem, "orbit_period", crash)
    with pytest.raises(RuntimeError, match="broken step"):
        cross_validate(ctx.wedge, 100, components=(), samples=1, seed=0)
