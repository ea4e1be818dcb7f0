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
    # full-measure reads the return towers: no partition, no CellPool
    def carve(*args, **kwargs):
        raise RuntimeError("full-measure reached the CellPool partition")

    monkeypatch.setattr(search, "CellPool", carve)
    monkeypatch.setattr(Context, "partition", carve)  # the cached ones too
    res = run_checks(["full-measure"], ctx)[0]
    assert res.ok, res.error
