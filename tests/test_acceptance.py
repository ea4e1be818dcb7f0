"""Acceptance battery: one test per verification criterion.

Each criterion prints a single pass/fail line; the heavy shared artifacts
(return systems, the z4 and z14 partitions, the witness) are built once
per session and reused across the whole suite.
"""

import pytest

from dodeca import search
from dodeca.checks import CHECK_NAMES, Context, run_checks


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
