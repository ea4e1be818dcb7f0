"""The benchmark's tracer must still find every function it wraps.

``bench/tracing.py`` replaces named functions and methods of the package by
traced wrappers; a rename or move in the package would otherwise only
show up in a traced benchmark run.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_installs_and_unpatches():
    sys.path.insert(0, BENCH)
    try:
        import tracing
    finally:
        sys.path.remove(BENCH)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, orig in patched:
            assert owner.__dict__[attr] is not orig
    finally:
        tracer.unpatch()
    for owner, attr, orig in patched:
        assert owner.__dict__[attr] is orig
