"""Acceptance battery: one test per verification criterion.

Each criterion prints a single pass/fail line; the heavy shared artifacts
(return systems, the z4 and z14 partitions, the witness) are built once
per session and reused across the whole suite.
"""

import random
from fractions import Fraction

import pytest

from dodeca import search
from dodeca.checks import CHECK_NAMES, Context, _wedge_points, run_checks


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_criterion(ctx, name):
    res = run_checks([name], ctx)[0]
    status = "PASS" if res.ok else "FAIL"
    print(f"[acceptance] {res.name:<26} {status}  ({res.seconds:.2f}s)")
    assert res.ok, f"{name}: {res.error}"


def test_full_measure_carves_nothing(ctx, monkeypatch):
    # full-measure reads only the z4 and z14 return systems: no partition,
    # no CellPool, no level-3 system and no tower replay
    def refuse(*args, **kwargs):
        raise RuntimeError("full-measure reached a partition or a tower replay")

    real = Context.return_system

    def return_system(self, label):
        if label == "level3":
            raise RuntimeError("full-measure built the level-3 return system")
        return real(self, label)

    monkeypatch.setattr(search, "CellPool", refuse)
    monkeypatch.setattr(search, "return_tube", refuse)
    monkeypatch.setattr(Context, "partition", refuse)  # the cached ones too
    monkeypatch.setattr(Context, "return_system", return_system)
    res = run_checks(["full-measure"], ctx)[0]
    assert res.ok, res.error


def test_run_checks_refuses_bad_selection_before_running(ctx):
    def progress(res):
        raise AssertionError(f"{res.name} ran")

    with pytest.raises(ValueError):
        run_checks([], ctx, progress=progress)
    with pytest.raises(KeyError):
        run_checks(["construction-identities", "full-measur"], ctx, progress=progress)


def test_wedge_points_match_the_point_arithmetic(system):
    # the sampler draws a, then b, per point and builds apex + (a/64)*dir_p
    # + (b/64)*dir_q on raw integers: the first 200 points of each span the
    # checks use, against the same draws built by Point arithmetic
    _, w = system
    for seed, span in ((2, 8), (11, 8), (12, 4)):
        rng = random.Random(seed)
        want = []
        for _ in range(200):
            s = Fraction(rng.randint(1, span * 64), 64)
            t = Fraction(rng.randint(1, span * 64), 64)
            want.append(w.apex + w.dir_p.scaled(s) + w.dir_q.scaled(t))
        got = _wedge_points(w, random.Random(seed), 200, span)
        assert [p.key() for p in got] == [p.key() for p in want]
