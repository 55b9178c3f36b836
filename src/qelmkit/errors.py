"""Shared exception types and the checks every input field goes through.

All inherit from ValueError so callers can catch broadly; the subclasses
exist to distinguish configuration mistakes (bad specs, bad CLI input)
from data problems detected at runtime.

`check_number` accepts one scalar field (a finite real number, optionally
an integer, never a bool), `number_array` one array field of finite real
numbers, `require_finite` one or more arrays with no NaN or infinity, and
`check_keys` a JSON object's keys. Each raises the error type the caller
names and builds its message only when the check fails. `read_only` freezes
array fields without copying them.
"""
import math
import numbers
import sys

import numpy as np


class ConfigurationError(ValueError):
    """A spec, config file or parameter is structurally invalid."""


class ValidationError(ValueError):
    """Input data violates a documented precondition."""


class ShapeError(ValueError):
    """Array dimensions do not match."""


class DegenerateInputError(ValueError):
    """Input is valid but statistically degenerate (e.g. zero variance)."""


def check_number(name: str, value, *, integer: bool = False, error=ConfigurationError):
    """`value` when it is a finite real number that is not a bool, and an
    integer when `integer` is set; otherwise raise `error` naming field
    `name`. Integer fields take integers of any size; number fields only
    those a float can hold, and those never reach `math.isfinite`, which
    overflows on larger ones."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            if integer or abs(value) <= sys.float_info.max:
                return value
        elif not integer and isinstance(value, numbers.Real) and math.isfinite(value):
            return value
    kind = "integer" if integer else "number"
    raise error(f"field '{name}' must be a finite {kind}, got {value!r}")


def number_array(name: str, value, *, error=ValidationError) -> np.ndarray:
    """`value` (a nested list or an array) as a read-only float array (see
    `read_only`) when it holds finite real numbers only; otherwise raise
    `error` naming field `name`. Arrays of strings, bools, complex numbers
    or other objects, and ragged nesting, are refused rather than converted."""
    try:
        values = np.asarray(value)
    except ValueError:   # ragged nesting
        values = None
    if values is None or values.dtype.kind not in "iuf":
        raise error(f"field '{name}' must hold real numbers only")
    values = read_only(values.astype(float, copy=False))
    require_finite(name, values, error=error)
    return values


def require_finite(name: str, *arrays, error=ValidationError) -> None:
    """Raise `error` naming field `name` unless every array is finite: NaN
    compares unequal to everything, so ranks, splits and fits computed over
    it come out silently wrong rather than NaN."""
    for values in arrays:
        if not np.all(np.isfinite(values)):
            raise error(f"field '{name}' must be finite (no NaN or infinity)")


def read_only(values):
    """`values` with each array in it, however nested in tuples, a read-only
    view: nothing is copied, and an array that is read-only already, or a
    tuple of such, comes back as it is. The caller's arrays keep their flags."""
    if isinstance(values, tuple):
        views = tuple(map(read_only, values))
        return values if all(a is b for a, b in zip(views, values)) else views
    if isinstance(values, np.ndarray) and values.flags.writeable:
        values = values.view()
        values.flags.writeable = False
    return values


def check_keys(name: str, doc, keys, *, error=ValidationError) -> dict:
    """`doc` when it is a JSON object (a dict) whose keys are all among
    `keys`; otherwise raise `error`. `name` is the object's dotted path."""
    if not isinstance(doc, dict):
        raise error(f"{name} must be a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in keys:
            raise error(f"{name} has unknown key {key!r} (field '{name}.{key}'); it may "
                        f"hold only {', '.join(map(repr, keys))}")
    return doc
