"""Exception taxonomy shared across the package, and the field-bound checker.

ConfigError maps to CLI exit code 2, everything else to 3.
"""

from dataclasses import MISSING, field, fields
from functools import cache

import numpy as np


class ConfigError(Exception):
    """Bad configuration: malformed files, inconsistent sizes, unknown keys."""


class ValidationError(Exception):
    """Runtime-value violations: dimension mismatches, non-finite inputs, bad ranges."""


class TrainingError(Exception):
    """Learning-loop failures, e.g. a non-finite PPO loss."""


def bounded(default=MISSING, *bounds: str, **metadata):
    """A dataclass field that check_bounds holds to each bound in ``bounds``.

    A bound is ``> n``, ``>= n``, ``in [a, b]`` or ``in (a, b]``, applied to
    each element of a tuple or array, or ``nonempty`` or ``distinct``,
    applied to the whole value.
    """
    return field(default=default, metadata={"bounds": bounds, **metadata})


def _test(bound: str):
    """The predicate for one bound; every comparison is false for NaN."""
    if bound == "nonempty":
        return lambda value: len(value) > 0
    if bound == "distinct":
        return lambda value: len(set(value)) == len(value)
    form, _, limits = bound.partition(" ")
    if form == "in":
        lo, hi = (float(s) for s in limits[1:-1].split(","))
        holds = (lambda v: lo <= v <= hi) if limits[0] == "[" else (lambda v: lo < v <= hi)
    else:
        n = float(limits)
        holds = {">": lambda v: v > n, ">=": lambda v: v >= n}[form]
    return lambda value: (all(map(holds, value)) if isinstance(value, (tuple, np.ndarray))
                          else holds(value))


@cache
def _checks(cls) -> tuple:
    """(field name, name in messages, bound, predicate) per bound of cls's fields."""
    return tuple((f.name, f.metadata.get("key", f.name), bound, _test(bound))
                 for f in fields(cls) for bound in f.metadata.get("bounds", ()))


def check_bounds(obj, error=ValidationError) -> None:
    """Raise ``error("<name> must be <bound>")`` for the first bound a field breaks.

    The name is the field's metadata ``key`` if it has one, else its own name.
    """
    for name, label, bound, holds in _checks(type(obj)):
        if not holds(getattr(obj, name)):
            raise error(f"{label} must be {bound}")
