"""Verification laboratory for binomial-coefficient collisions."""

from .collision import (
    CollisionRecord,
    ParamTuple,
    Representation,
    enumerate_collisions,
    fib_identity,
    to_param,
)
from .intervals import FAILS, HOLDS, INDETERMINATE, IntervalValue, Verdict

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CollisionRecord",
    "ParamTuple",
    "Representation",
    "enumerate_collisions",
    "fib_identity",
    "to_param",
    "IntervalValue",
    "Verdict",
    "HOLDS",
    "FAILS",
    "INDETERMINATE",
]
