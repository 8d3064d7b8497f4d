"""Positioned fiber configurations on rational elliptic surfaces.

A semi-stable rational elliptic surface with section has only multiplicative
singular fibers I_k over finitely many base points, and the indices k sum
to 12.  :class:`FiberConfig` records the indices in base-point order; the
labels are opaque identifiers, no coordinates are modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedInput, SumNot12, TooFewFibers

TOTAL_INDEX = 12
MIN_FIBERS = 4


@dataclass(frozen=True)
class FiberConfig:
    """Singular fibers I_{k_i} over labeled base points, indices summing to 12."""

    points: tuple[str, ...]
    indices: tuple[int, ...]

    def __post_init__(self):
        points = tuple(self.points)
        indices = tuple(self.indices)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "indices", indices)
        if len(points) != len(indices):
            raise MalformedInput("one point label per fiber index required")
        if any(not isinstance(k, int) or k < 1 for k in indices):
            raise MalformedInput(f"fiber indices must be positive integers: {indices}")
        if len(indices) < MIN_FIBERS:
            raise TooFewFibers(f"need at least {MIN_FIBERS} singular fibers, got {len(indices)}")
        if sum(indices) != TOTAL_INDEX:
            raise SumNot12(f"indices sum to {sum(indices)}, expected {TOTAL_INDEX}")
        if len(set(points)) != len(points):
            raise MalformedInput(f"point labels must be pairwise distinct: {points}")

    def __len__(self):
        return len(self.indices)


def default_points(n: int) -> tuple[str, ...]:
    """Auto-generated base point labels P1..Pn."""
    return tuple(f"P{i}" for i in range(1, n + 1))


def parse_config(text: str, labels=None) -> FiberConfig:
    """Parse compact digit notation ("9111") or CSV notation ("9,1,1,1").

    Multi-digit indices require the CSV form.  Point labels default to
    P1..Pn unless ``labels`` is given.
    """
    text = text.strip()
    if not text:
        raise MalformedInput("empty configuration text")
    if "," in text:
        parts = [part.strip() for part in text.split(",")]
        try:
            indices = tuple(int(part) for part in parts)
        except ValueError:
            raise MalformedInput(f"not a comma separated list of integers: {text!r}") from None
    else:
        if not text.isdigit():
            raise MalformedInput(f"not a digit string: {text!r}")
        indices = tuple(int(ch) for ch in text)
    if any(k < 1 for k in indices):
        raise MalformedInput(f"fiber indices must be positive: {text!r}")
    if len(indices) < MIN_FIBERS:
        raise TooFewFibers(f"need at least {MIN_FIBERS} singular fibers, got {len(indices)}")
    if sum(indices) != TOTAL_INDEX:
        raise SumNot12(f"indices sum to {sum(indices)}, expected {TOTAL_INDEX}")
    points = tuple(labels) if labels is not None else default_points(len(indices))
    return FiberConfig(points, indices)


def index_text(indices) -> str:
    """Compact digit form ("9111"), or CSV form when an index exceeds 9."""
    if all(k <= 9 for k in indices):
        return "".join(str(k) for k in indices)
    return ",".join(str(k) for k in indices)


def render_config(config: FiberConfig) -> str:
    """Inverse of :func:`parse_config` (labels are not rendered)."""
    return index_text(config.indices)


def descending(indices) -> tuple[int, ...]:
    """The partition of an index sequence: its multiset in descending order."""
    return tuple(sorted(indices, reverse=True))


def partition_of(config: FiberConfig) -> tuple[int, ...]:
    """Descending multiset of indices; positions and labels discarded."""
    return descending(config.indices)


def odd_index_count(indices) -> int:
    return sum(1 for k in indices if k % 2)
