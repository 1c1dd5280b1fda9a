"""Flat solution vectors with named block layouts.

A :class:`State` holds every monolithic unknown of one problem at one
time instant as a single float64 vector, together with a layout mapping
block names to ``(offset, length)`` slices. Layouts let the weighted
Parareal update average its scaling factor per physical component
(e.g. fluid velocities vs. interface displacement) without knowing
anything about the underlying problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

Layout = Dict[str, Tuple[int, int]]


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
    into ``values`` of an existing one.
    """

    values: np.ndarray
    time: float
    layout: Layout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("state values must form a non-empty 1-d vector")
        if not math.isfinite(self.time):
            raise ValueError("state time must be finite")
        validate_layout(self.layout, values.size)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "time", float(self.time))

    @property
    def size(self) -> int:
        return self.values.size

    def block(self, name: str) -> np.ndarray:
        """View of the named block of the value vector."""
        offset, length = self.layout[name]
        return self.values[offset:offset + length]

    def with_values(self, values: np.ndarray, time: float | None = None) -> "State":
        """New state sharing this layout; skips layout re-validation."""
        new = object.__new__(State)
        object.__setattr__(new, "values", np.asarray(values, dtype=np.float64))
        object.__setattr__(new, "time", float(self.time if time is None else time))
        object.__setattr__(new, "layout", self.layout)
        return new

    def same_layout(self, other: "State") -> bool:
        return self.layout == other.layout
