"""Fiber products of two configurations over a shared base line.

A :class:`ProductDiagram` records, per base point, the pair (a, b) of fiber
indices of the two factors, with 0 for a smooth fiber.  Isogeny moves on a
factor transport to the product (the move keeps singular fibers in place),
and a product whose small resolution is rigid is recognized purely from the
fiber types: no point may pair a smooth fiber with an I_n for n >= 2.  The
criterion is applied symmetrically in the two factors.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Literal

from . import catalog
from .configs import (FiberConfig, MIN_FIBERS, TOTAL_INDEX, _Record, _canonical_json, _parse_int,
                      default_points, descending)
from .errors import ConflictingLabels, MalformedInput, SideMismatch, TooFewFibers
from .isogeny import IsogenyMove, _closure_tuples, _spec_of, _typed_move

Side = Literal["left", "right"]


class AppliedMove(_Record):
    """Log record: an isogeny move applied to one factor of a product."""

    __slots__ = ("side", "move")

    def __init__(self, side: Side, move: IsogenyMove):
        self._set_fields(side, move)


class ProductDiagram(_Record):
    """Per-point index pairs of S1 x_P1 S2; every listed point is singular
    for at least one factor.  The move log is provenance, not identity.
    ``_factors`` keeps the index tuples of the left and right factor,
    projected once when the diagram is built."""

    __slots__ = ("points", "pairs", "_log", "_factors")
    _fields = ("points", "pairs", "log")
    _compared = ("points", "pairs")

    def __init__(self, points: tuple[str, ...], pairs: tuple[tuple[int, int], ...],
                 log: tuple[AppliedMove, ...] = ()):
        points = tuple(points)
        # from a list: a generator-fed tuple over-allocates, and the small
        # tuples it frees pile up on CPython's free lists during a sweep
        pairs = tuple([(a, b) for a, b in pairs])
        if len(points) != len(pairs):
            raise MalformedInput("one point label per fiber pair required")
        if not all(type(pt) is str for pt in points):  # as in FiberConfig
            raise MalformedInput(f"point labels must be strings: {points}")
        if len(set(points)) != len(points):
            raise MalformedInput(f"point labels must be pairwise distinct: {points}")
        if not all(type(k) is int for pair in pairs for k in pair):
            raise MalformedInput(f"fiber indices must be integers: {pairs}")
        if any(a < 0 or b < 0 for a, b in pairs):
            raise MalformedInput("fiber indices must be non-negative")
        if any(a == 0 and b == 0 for a, b in pairs):
            raise MalformedInput("a diagram point must be singular for at least one factor")
        factors = tuple([a for a, _ in pairs if a]), tuple([b for _, b in pairs if b])
        for total in map(sum, factors):
            if total != TOTAL_INDEX:
                raise MalformedInput(f"each factor must have index sum {TOTAL_INDEX}, got {total}")
        for indices in factors:
            if len(indices) < MIN_FIBERS:
                raise TooFewFibers(f"need at least {MIN_FIBERS} singular fibers, got {len(indices)}")
        self._set_fields(points, pairs, (tuple(log), ()), factors)

    @property
    def log(self) -> tuple[AppliedMove, ...]:
        """The applied moves.  A path the partner search appended as
        (side, _MoveSpec) pairs is built through the public constructors on
        first read, and kept."""
        moves, path = self._log
        if path:
            config = {"left": partial(FiberConfig, _project(self, 0)[0]),
                      "right": partial(FiberConfig, _project(self, 1)[0])}
            moves += tuple(AppliedMove(side, _typed_move(spec, config[side])) for side, spec in path)
            object.__setattr__(self, "_log", (moves, ()))
        return moves

    @property
    def singular_count(self) -> int:
        return len(self.points)


def _project(d: ProductDiagram, side: int):
    """Points and indices of factor ``side`` (0 left, 1 right): the points
    where that factor is singular."""
    return tuple([pt for pt, pair in zip(d.points, d.pairs) if pair[side]]), d._factors[side]


def left_config(d: ProductDiagram) -> FiberConfig:
    """Left projection: drop the points where the left factor is smooth."""
    return FiberConfig(*_project(d, 0))


def right_config(d: ProductDiagram) -> FiberConfig:
    return FiberConfig(*_project(d, 1))


def make_product(c1: FiberConfig, c2: FiberConfig, alignment=None) -> ProductDiagram:
    """Pair the two configurations over a common base.

    ``alignment`` maps point labels of ``c2`` to point labels of ``c1``
    (injectively); by default points with equal labels are identified.
    Points of ``c1`` come first, unaligned points of ``c2`` after, in input
    order.
    """
    if alignment is None:
        alignment = {label: label for label in c2.points if label in c1.points}
    else:
        alignment = dict(alignment)
        if not set(alignment) <= set(c2.points):
            raise ConflictingLabels(f"alignment keys not among right factor points: {alignment}")
        targets = list(alignment.values())
        if not set(targets) <= set(c1.points):
            raise ConflictingLabels(f"alignment targets not among left factor points: {alignment}")
        if len(set(targets)) != len(targets):
            raise ConflictingLabels(f"alignment must be injective: {alignment}")
    by_target = {target: source for source, target in alignment.items()}
    right_index = dict(zip(c2.points, c2.indices))
    points = list(c1.points)
    pairs = [
        (a, right_index[by_target[pt]] if pt in by_target else 0)
        for pt, a in zip(c1.points, c1.indices)
    ]
    for pt, b in zip(c2.points, c2.indices):
        if pt in alignment:
            continue
        if pt in c1.points:
            raise ConflictingLabels(
                f"unaligned right point {pt!r} collides with a left point label")
        points.append(pt)
        pairs.append((0, b))
    return ProductDiagram(points, pairs)


def common_singular_count(d: ProductDiagram) -> int:
    """Number of base points where both factors are singular."""
    return sum(1 for a, b in d.pairs if a and b)


def _obstructions(rows) -> tuple[list[int], list[int]]:
    """Per side, the indices n >= 2 facing a smooth fiber: (left's, right's)."""
    return [a for a, b in rows if b == 0 and a >= 2], [b for a, b in rows if a == 0 and b >= 2]


def is_rigid_criterion(d: ProductDiagram) -> bool:
    """No point pairs a smooth fiber with I_n for n >= 2 (either side)."""
    return _obstructions(d.pairs) == ([], [])


def factors_share_class(d: ProductDiagram) -> bool:
    """Whether the factor partitions lie in one isogeny class (the rigidity
    constructions assume non-isogenous factors; this is a warning, not an error)."""
    left, right = (catalog.CLASS_INDEX.get(descending(indices)) for indices in d._factors)
    return left is not None and left == right


def _class_positions(d: ProductDiagram) -> list[int]:
    """The class positions of the left and the right factor of ``d``, each
    checked admissible by :func:`ellab.catalog._check_admissible`."""
    return [catalog._check_admissible(indices, name)
            for name, indices in zip(("left factor", "right factor"), d._factors)]


def apply_move(d: ProductDiagram, side: Side, move: IsogenyMove) -> ProductDiagram:
    """Replace one factor by the move target; the move is recorded in the log."""
    if side not in ("left", "right"):
        raise MalformedInput(f"side must be 'left' or 'right', got {side!r}")
    index = 0 if side == "left" else 1
    current = FiberConfig(*_project(d, index))
    if current != move.source:
        raise SideMismatch(
            f"{side} factor is {current.indices} over {current.points}, "
            f"move starts from {move.source.indices} over {move.source.points}")
    factors = list(d._factors)
    factors[index] = move.target.indices
    return ProductDiagram(d.points, _pair_rows(d.pairs, *factors), d.log + (AppliedMove(side, move),))


def _pair_rows(pairs, left_tuple, right_tuple):
    """Per-point (a, b) pairs after substituting factor representatives."""
    left_slots = iter(left_tuple)
    right_slots = iter(right_tuple)
    return tuple([  # from a list, as in ProductDiagram.__init__
        (next(left_slots) if a else 0, next(right_slots) if b else 0)
        for a, b in pairs
    ])


# The per-side obstructions (:func:`_obstructions`) of a lone I_2 x I_0
# fiber, the only obstruction the Kummer route handles.
_LONE_I2 = [2]


@lru_cache(maxsize=None)  # keys: (start, facing bitmask); 104 over Case A, 157 over Case B
def _class_split(indices, facing):
    """(free, lone, entry): the gated class of ``indices`` in descending
    order, split into the nodes with no obstruction and those with a lone
    I_2, and the gated closure entry itself, which holds each node's path.
    Isogenies keep fibers in place, so a node's obstructions are its indices
    n >= 2 at the positions set in ``facing``, those facing a smooth fiber."""
    entry = _closure_tuples(indices, True)  # an admissible factor: 4 or 5 fibers
    free, lone = [], []
    for node in reversed(entry.nodes):
        obstructions = [k for i, k in enumerate(node) if facing >> i & 1 and k >= 2]
        if not obstructions:
            free.append(node)
        elif obstructions == _LONE_I2:
            lone.append(node)
    return tuple(free), tuple(lone), entry


def _class_splits(d):
    """:func:`_class_split` of the left and of the right factor of ``d``, or
    None when ``d`` is rigid: it is its own partner."""
    if is_rigid_criterion(d):
        return None
    left = right = 0
    l_bit = r_bit = 1
    for a, b in d.pairs:
        if a:
            left |= 0 if b else l_bit
            l_bit <<= 1
        if b:
            right |= 0 if a else r_bit
            r_bit <<= 1
    # a literal pair: tuple(map(...)) would build an over-allocated tuple and
    # shrink it, so each call would leave one more pair on CPython's free list
    return _class_split(d._factors[0], left), _class_split(d._factors[1], right)


def _partner(d: ProductDiagram, splits, l_tuple, r_tuple):
    """The diagram of one representative pair, built from checked parts
    without the constructor, and the path reaching it from ``d``, (side,
    _MoveSpec) pairs: the left factor's closure path to ``l_tuple``, then
    the right one's to ``r_tuple``, each read from the closure entry of that
    side's :func:`_class_split` in ``splits``.  The diagram's log is d's
    with the path appended, typed when read."""
    (_, _, l_entry), (_, _, r_entry) = splits
    path = tuple([("left", spec) for spec in l_entry.paths[l_entry.nodes.index(l_tuple)]]
                 + [("right", spec) for spec in r_entry.paths[r_entry.nodes.index(r_tuple)]])
    partner = ProductDiagram.__new__(ProductDiagram)
    moves, tail = d._log
    partner._set_fields(d.points, _pair_rows(d.pairs, l_tuple, r_tuple), (moves, tail + path),
                        (l_tuple, r_tuple))
    return partner, path


def _rigid_partner(d, splits):
    """:func:`find_rigid_partner` with the path as (side, _MoveSpec) pairs,
    for a diagram whose factors are checked admissible: from their
    :func:`_class_splits`, each side's first unobstructed node."""
    if splits is None:
        return d, ()
    (l_free, _, _), (r_free, _, _) = splits
    if not (l_free and r_free):
        return None
    partner, path = _partner(d, splits, l_free[0], r_free[0])
    assert is_rigid_criterion(partner)
    return partner, path


def find_rigid_partner(d: ProductDiagram):
    """Search the gated classes of both factors for a rigid product.

    A rigid input is its own partner.  Otherwise a point is obstructed only
    where one factor is smooth, by the other factor's index alone, so each
    side takes its first unobstructed node in descending lexicographic order
    and the search fails as soon as one side has none.  Returns the partner
    diagram and the applied move path, or None.
    """
    _class_positions(d)
    found = _rigid_partner(d, _class_splits(d))
    if found is not None:
        found = found[0], found[0].log[len(d.log):]
    return found


def parse_diagram(text: str) -> ProductDiagram:
    """Two aligned comma separated rows joined by '/', '_' for smooth.

    Example: ``4,4,2,1,1 / 6,2,_,3,1``.
    """
    rows = text.split("/")
    if len(rows) != 2:
        raise MalformedInput(f"diagram text needs exactly two '/'-separated rows: {text!r}")

    def parse_cell(cell):
        cell = cell.strip()
        try:
            return 0 if cell == "_" else _parse_int(cell)
        except ValueError:
            raise MalformedInput(f"bad diagram cell {cell!r}") from None

    top, bottom = (list(map(parse_cell, row.split(","))) for row in rows)
    if len(top) != len(bottom):
        raise MalformedInput("diagram rows must have equal length")
    return ProductDiagram(default_points(len(top)), tuple(zip(top, bottom)))


def render_diagram(d: ProductDiagram) -> str:
    return " / ".join(",".join(str(pair[side] or "_") for pair in d.pairs) for side in (0, 1))


def _log_specs(log):
    """(side, _MoveSpec) pairs of a (moves, path) log."""
    moves, path = log
    return tuple([(a.side, _spec_of(a.move)) for a in moves]) + path


def _move_payload(side, spec):
    """The JSON payload of one logged move."""
    return {"side": side, "p": spec.p, "D": list(spec.divided), "source": list(spec.source),
            "target": list(spec.target)}


@lru_cache(maxsize=None)  # keys: (side, spec), at most 2 x 892; 64 over Case A, 99 over Case B
def _move_record(side, spec):
    """The JSON text of one logged move at indent 0, without the final newline."""
    return _canonical_json(_move_payload(side, spec))[:-1]


def diagram_to_json(d: ProductDiagram) -> str:
    payload = {
        "schema": 1,
        "points": list(d.points),
        "pairs": [list(pair) for pair in d.pairs],
        "log": [_move_payload(*pair) for pair in _log_specs(d._log)],
    }
    return _canonical_json(payload)
