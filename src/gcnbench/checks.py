"""The package's three input rules: for a scalar setting, an index array and a float array.

Each rule judges its input's type, and its range or shape, in one call, with one message a
fault: ``<name> must be >= <low>, got <value>`` (or ``<= <high>``) and ``<name> must have shape
(...), got (...)``.

A leaf module: it imports only ``numbers`` and NumPy, so that loading a dataset does
not import the graph code.
"""

from __future__ import annotations

import numbers

import numpy as np


def check_type(name: str, value, kind: type, low=None, high=None) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a ``kind``: int, float or bool,
    within ``low``..``high`` inclusive where given.  A bool is no int or float, an int serves
    as a float, and a float must be finite (an int too, once converted: 10**400 is not)."""
    abc, expected = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number"),
                     bool: (bool, "true or false")}[kind]
    if (not isinstance(value, abc) or isinstance(value, bool) != (kind is bool)
            or (kind is float and not abs(value) <= np.finfo(np.float64).max.item())):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


def _entries(name: str, values, kind: type, what: str) -> np.ndarray:
    """``values`` as an array whose entries keep their own types (np.asarray would read [True, 2]
    as int64 and "0.5" as 0.5), or a ValueError naming ``name`` if one is a bool or no ``kind``."""
    if not isinstance(values, np.ndarray) or values.dtype == object:
        try:
            values = np.array(values, dtype=object)
        except ValueError:  # sub-arrays of unequal shapes
            raise ValueError(f"{name} must hold {what}, got a ragged array") from None
    kinds = set(map(type, values.flat)) if values.dtype == object else {values.dtype.type}
    wrong = sorted(t.__name__ for t in kinds if not issubclass(t, kind) or t is bool)
    if values.size and wrong:
        raise ValueError(f"{name} must hold {what}, got {wrong[0]}")
    return values


def check_indices(name: str, values, stop: int | None = None, shape: tuple | None = None) -> np.ndarray:
    """``values`` as an int64 array, or a ValueError naming ``name`` for an entry that is no
    integer (a bool, float or string), one outside the 64-bit range (checked before the cast,
    which would wrap it), another ``shape`` (as in check_floats) or, when ``stop`` is given,
    an entry outside 0..stop-1."""
    values = _entries(name, values, numbers.Integral, "integers")
    try:
        if values.dtype.kind == "u" and values.max(initial=0) > np.iinfo(np.int64).max:
            raise OverflowError
        values = np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} holds an integer outside the 64-bit range") from None
    _check_shape(name, values, shape)
    if stop is not None and values.size and (values.min() < 0 or values.max() >= stop):
        raise ValueError(f"{name} holds {values[(values < 0) | (values >= stop)][0]}, outside 0..{stop - 1}")
    return values


def check_floats(name: str, values, shape: tuple | None) -> np.ndarray:
    """``values`` as a float64 array of ``shape`` (a None entry takes any size, and None any
    shape), or a ValueError naming ``name`` for an entry that is no real number by its own type
    (a bool, complex, string, None or a ragged list), an int beyond float64, another shape, or
    a NaN or infinity, named by its first row from 0: ``<name> row <i>: non-finite value``.
    A float64 array is returned as is."""
    values = _entries(name, values, numbers.Real, "real numbers")
    try:
        values = np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} holds a number outside the float64 range") from None
    _check_shape(name, values, shape)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{name} row {np.argmin(finite.all(axis=tuple(range(1, values.ndim))))}: non-finite value")
    return values


def _check_shape(name: str, values: np.ndarray, shape: tuple | None) -> None:
    """Raise ValueError naming ``name`` unless ``values`` has ``shape``, where a None entry
    takes any size and None any shape."""
    if shape is not None and (values.ndim != len(shape)
                              or any(want not in (None, got) for want, got in zip(shape, values.shape))):
        dims = ", ".join("any" if want is None else str(want) for want in shape)
        raise ValueError(f"{name} must have shape ({dims}{',' * (len(shape) == 1)}), got {values.shape}")
