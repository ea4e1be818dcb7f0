"""Behaviour fingerprints of the computed objects.

Each digest covers the exact JSON of every region, map, return time and
period the engine produces for its objects, so any refactor that is
meant to keep behaviour must leave them unchanged.
"""

import hashlib
import json

from dodeca.geom import region_to_obj
from dodeca.periods import full_period_set
from dodeca.search import return_tube

RETURN_SYSTEMS = ("z1", "z4", "z14", "x", "level3")
PARTITIONS = ("z4", "z14")
FINGERPRINT = "511031bee373e80416cea5e60130ccd28048f44d7fc4f5d2f67dc4d03d96b0b0"
# components, the cached aperiodic witness and the period set
ORBIT_FINGERPRINT = "278ffdc1393213d02655d35457529f8ae6c5509dd1e35a1d4356d1ddeca67be2"
# every return_tube floor of the level-3 return system, in piece order
TOWER_FINGERPRINT = "41b6a2973213d8cd8756976af93d5bd1316f5455630c3f081bdf7a0ad9a0d355"
TOWER_FLOORS = 76450


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_behaviour_fingerprint(ctx):
    obj = {
        "return_systems": {l: ctx.return_system(l).to_obj() for l in RETURN_SYSTEMS},
        "partitions": {l: ctx.partition(l).to_obj() for l in PARTITIONS},
    }
    assert _digest(obj) == FINGERPRINT


def test_orbit_fingerprint(ctx):
    s = ctx.sim
    obj = {
        "base_components": {i: c.to_obj() for i, c in ctx.base_components().items()},
        "sim_components": {
            name: getattr(s, name).to_obj() for name in ("g1w4", "w2", "w3", "w4")
        },
        "witness": ctx.witness().to_obj(),
        "period_set": full_period_set(2000).to_obj(witnesses=True),
    }
    assert _digest(obj) == ORBIT_FINGERPRINT


def test_tower_fingerprint(ctx):
    h = hashlib.sha256()
    n = 0
    for piece in ctx.return_system("level3").pieces:
        for floor in return_tube(ctx.wedge, piece):
            text = json.dumps(region_to_obj(floor), sort_keys=True, separators=(",", ":"))
            h.update(text.encode() + b"\n")
            n += 1
    assert n == TOWER_FLOORS
    assert h.hexdigest() == TOWER_FINGERPRINT
