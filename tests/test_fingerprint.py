"""Behaviour fingerprint of the computed return systems and partitions.

The digest covers the exact JSON of every region, map, return time and
period the engine produces for these objects, so any refactor that is
meant to keep behaviour must leave it unchanged.
"""

import hashlib
import json

RETURN_SYSTEMS = ("z1", "z4", "z14", "x", "level3")
PARTITIONS = ("z4", "z14")
FINGERPRINT = "511031bee373e80416cea5e60130ccd28048f44d7fc4f5d2f67dc4d03d96b0b0"


def test_behaviour_fingerprint(ctx):
    obj = {
        "return_systems": {l: ctx.return_system(l).to_obj() for l in RETURN_SYSTEMS},
        "partitions": {l: ctx.partition(l).to_obj() for l in PARTITIONS},
    }
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == FINGERPRINT
