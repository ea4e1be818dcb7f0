"""Exact-arithmetic engine for the outer billiard outside the regular 12-gon.

Everything is computed in Q[sqrt(3)] over arbitrary-precision rationals:
the billiard map and its induced wedge map, periodic-component and
first-return-map searches, exact tube partitions of the invariant rocket,
the self-similar contraction with its aperiodic fixed point, and the
closed-form enumeration of all possible orbit periods.
"""

import sys

if sys.flags.optimize:
    raise ImportError(
        "dodeca refuses to run under python -O: its checks are assert "
        "statements, which -O removes; run python without -O"
    )

from .errors import DomainError, GraneError, InconclusiveError, SelfReturnError
from .field import QS3, qs3, qs3_parse
from .geom import (
    AffMap,
    Line,
    Point,
    Region,
    region_from_json,
    region_to_json,
    split_region,
)
from .periods import full_period_set, period_of_h
from .search import (
    Component,
    ReturnSystem,
    close_component,
    component_periods,
    find_periodic_component,
    first_return_map,
    verify_partition,
)
from .selfsim import aperiodic_witness, build_similarity, verify_conjugacy
from .table import Itinerary, Table, WedgeSystem, build_table

__version__ = "0.1.0"

__all__ = [
    "AffMap",
    "Component",
    "DomainError",
    "GraneError",
    "InconclusiveError",
    "Itinerary",
    "Line",
    "Point",
    "QS3",
    "Region",
    "ReturnSystem",
    "SelfReturnError",
    "Table",
    "WedgeSystem",
    "aperiodic_witness",
    "build_similarity",
    "build_table",
    "close_component",
    "component_periods",
    "find_periodic_component",
    "first_return_map",
    "full_period_set",
    "period_of_h",
    "qs3",
    "qs3_parse",
    "region_from_json",
    "region_to_json",
    "split_region",
    "verify_conjugacy",
    "verify_partition",
]
