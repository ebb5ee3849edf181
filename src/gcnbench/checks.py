"""The package's two input rules: one for a scalar setting, one for an index vector.

A leaf module: it imports only ``numbers`` and NumPy, so that loading a dataset does
not import the graph code.
"""

from __future__ import annotations

import numbers

import numpy as np


def check_type(name: str, value, kind: type) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a ``kind``: int, float or bool.
    A bool is no int or float, an int serves as a float, and a float must be finite
    (an int too, once converted: 10**400 is not)."""
    abc, expected = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number"),
                     bool: (bool, "true or false")}[kind]
    if (not isinstance(value, abc) or isinstance(value, bool) != (kind is bool)
            or (kind is float and not abs(value) <= np.finfo(np.float64).max.item())):
        raise ValueError(f"{name} must be {expected}, got {value!r}")


def check_indices(name: str, values, stop: int | None = None) -> np.ndarray:
    """``values`` as an int64 array of their shape, or a ValueError naming ``name`` for an entry
    that is no integer (a bool, float or string), one outside the 64-bit range (checked before
    the cast, which would wrap it) or, when ``stop`` is given, one outside 0..stop-1."""
    if not isinstance(values, np.ndarray) or values.dtype == object:
        # each entry keeps its own type: np.asarray would promote [True, 2] to int64
        values = np.array(values, dtype=object)
    kinds = set(map(type, values.flat)) if values.dtype == object else {values.dtype.type}
    wrong = sorted(t.__name__ for t in kinds if not issubclass(t, numbers.Integral) or t is bool)
    if values.size and wrong:
        raise ValueError(f"{name} must hold integers, got {wrong[0]}")
    try:
        if values.dtype.kind == "u" and values.max(initial=0) > np.iinfo(np.int64).max:
            raise OverflowError
        values = np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} holds an integer outside the 64-bit range") from None
    if stop is not None and values.size and (values.min() < 0 or values.max() >= stop):
        raise ValueError(f"{name} holds {values[(values < 0) | (values >= stop)][0]}, outside 0..{stop - 1}")
    return values
