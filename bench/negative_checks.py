"""Negative tests of the benchmark's output checks.

Runs the program once per affected workload, then feeds each check a
corrupted copy of the real output and expects it to raise CheckError:

* a dropped tube polygon (partition-z14 and return-level3),
* a return-piece map composed with a rotation by 30° (return-level3),
* a perturbed fixed point y (orbits).

The uncorrupted output must pass the same checks.  Exits 0 when every
corruption is caught, 1 otherwise.  Takes about a minute:

    python3 bench/negative_checks.py
"""

from __future__ import annotations

import dataclasses
import random
import sys
from fractions import Fraction

import output_checks as oc
import run


def expect(label, fn, should_fail, failures):
    try:
        fn()
    except oc.CheckError as exc:
        ok = should_fail
        detail = f"raised: {exc}"
    else:
        ok = not should_fail
        detail = "passed"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}", flush=True)
    if not ok:
        failures.append(label)


def main() -> int:
    if sys.flags.optimize:
        print("refusing to run under python -O", file=sys.stderr)
        return 2
    run.load_program()
    import workloads
    from dodeca import table
    from dodeca.geom import Point

    ctx = workloads.Context()
    failures = []

    def rng():
        return random.Random(1)

    # partition-z14: drop one green tube polygon
    part = workloads.run_partition_z14(ctx)
    report = part["report"]
    expect("partition-z14 as computed", lambda: oc.check_partition(ctx, part, rng()), False, failures)
    tubes = [list(t) for t in report.green_tubes]
    tubes[0] = tubes[0][1:]
    dropped = dict(part, report=dataclasses.replace(report, green_tubes=tubes))
    expect(
        "partition-z14 with a dropped tube polygon",
        lambda: oc.check_partition(ctx, dropped, rng()),
        True,
        failures,
    )

    # return-level3: a piece map turned by 30°, and a dropped tube polygon
    lv3 = workloads.run_return_level3(ctx)
    rs = lv3["rs"]
    expect("return-level3 as computed", lambda: oc.check_level3(ctx, lv3, rng()), False, failures)
    for k, piece in enumerate(rs.pieces):
        turned = dataclasses.replace(piece, map=table.ROT[1].compose(piece.map))
        pieces = rs.pieces[:k] + (turned,) + rs.pieces[k + 1 :]
        bad_rs = dataclasses.replace(rs, pieces=pieces)
        expect(
            f"return-level3 with piece {k} map turned by 30°",
            lambda: oc.check_level3_system(ctx, bad_rs, rng()),
            True,
            failures,
        )
    short = [list(t) for t in lv3["tubes"]]
    short[3] = short[3][:-1]
    expect(
        "return-level3 with a dropped tube polygon",
        lambda: oc.check_level3_tubes(rs, short, rng()),
        True,
        failures,
    )

    # orbits: move the fixed point by 2^-20 in x
    orb = workloads.run_orbits(ctx)
    wit = orb["witness"]
    expect("orbits as computed", lambda: oc.check_orbits(ctx, orb, rng()), False, failures)
    moved = dataclasses.replace(wit, y=Point(wit.y.x + Fraction(1, 2**20), wit.y.y))
    expect(
        "orbits with a perturbed fixed point",
        lambda: oc.check_witness(ctx, moved),
        True,
        failures,
    )

    if failures:
        print(f"{len(failures)} negative test(s) failed", file=sys.stderr)
        return 1
    print("every corruption was caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
