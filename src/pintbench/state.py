"""Flat solution vectors with named block layouts.

A :class:`State` holds every monolithic unknown of one problem at one
time instant as a single float64 vector, together with a layout mapping
block names to ``(offset, length)`` slices. Layouts let the weighted
Parareal update average its scaling factor per physical component
(e.g. fluid velocities vs. interface displacement) without knowing
anything about the underlying problem.

The module also holds the one number rule of every settings dataclass,
:func:`_require_fields`, since every other module imports this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Dict, Tuple

import numpy as np

Layout = Dict[str, Tuple[int, int]]

# the declared types the number rule checks: the accepted class, the stored type and its name in messages
_RULE = {"int": (Integral, int, "an integer"), "float": (Real, float, "a real number"), "bool": (bool, bool, "a bool")}


def _require_fields(obj) -> None:
    """Check every ``int``, ``float`` and ``bool`` field of the dataclass ``obj`` against its declared type.

    An ``int`` field takes a ``numbers.Integral`` and a ``float`` field a
    finite ``numbers.Real``, bools excluded from both, so NumPy integer
    and float scalars pass; a ``bool`` field takes ``True`` or ``False``,
    and an ``Optional[...]`` field also ``None``. A value that passes is
    stored back as the Python ``int``, ``float`` or ``bool`` its field
    declares, so a NumPy scalar or a Python int in a float field writes to
    CSV and JSON as the declared type reads back. A field of any other
    declared type is not checked. The declared type is read from the
    annotation text, which every module of the package keeps as a string.
    A value the rule rejects raises ``ValueError`` naming the field.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        declared = f.type.removeprefix("Optional[").removesuffix("]")
        if declared not in _RULE or (value is None and declared != f.type):
            continue
        kind, python, text = _RULE[declared]
        # a bool is an Integral, so only a bool field takes one
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ValueError(f"{f.name} must be {text}, got {value!r}")
        try:
            number = python(value)
        except OverflowError:  # an int past the float range
            number = math.inf
        if python is float and not math.isfinite(number):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        object.__setattr__(obj, f.name, number)


def validate_layout(layout: Layout, size: int) -> None:
    """Check that the layout blocks are disjoint and cover ``size`` exactly."""
    covered = 0
    spans = []
    for name, (offset, length) in layout.items():
        if length <= 0 or offset < 0 or offset + length > size:
            raise ValueError(f"block {name!r} with span ({offset}, {length}) is out of bounds")
        spans.append((offset, offset + length, name))
        covered += length
    spans.sort()
    for (_, end_a, name_a), (start_b, _, name_b) in zip(spans, spans[1:]):
        if end_a > start_b:
            raise ValueError(f"blocks {name_a!r} and {name_b!r} overlap")
    if covered != size:
        raise ValueError(f"layout covers {covered} entries but the vector has {size}")


@dataclass(frozen=True, eq=False, slots=True)
class State:
    """Solution vector ``values`` at time ``time`` with block ``layout``.

    Treated as immutable: operations return new states and never write
    into ``values`` of an existing one. ``time`` follows the number rule
    of :func:`_require_fields`; :meth:`with_values` skips every check.
    """

    values: np.ndarray
    time: float
    layout: Layout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("state values must form a non-empty 1-d vector")
        _require_fields(self)
        validate_layout(self.layout, values.size)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.size

    def block(self, name: str) -> np.ndarray:
        """View of the named block of the value vector."""
        offset, length = self.layout[name]
        return self.values[offset:offset + length]

    def with_values(self, values: np.ndarray, time: float | None = None) -> "State":
        """New state sharing this layout; skips layout re-validation.

        It writes the three slots through their descriptors, bypassing the
        frozen ``__setattr__`` as ``object.__setattr__`` does, without its
        lookup of each name: every window and corrector makes a state.
        """
        new = object.__new__(State)
        _VALUES(new, np.asarray(values, dtype=np.float64))
        _TIME(new, float(self.time if time is None else time))
        _LAYOUT(new, self.layout)
        return new

    def same_layout(self, other: "State") -> bool:
        return self.layout == other.layout


# the slot setters of ``State.with_values``
_VALUES, _TIME, _LAYOUT = State.values.__set__, State.time.__set__, State.layout.__set__
