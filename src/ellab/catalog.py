"""Embedded classification data for 4- and 5-fiber semi-stable configurations.

The catalog has two parts:

* per-partition surface data (:class:`CatalogEntry`): modular group name and
  plane quartic model where known, branch four-section component degrees,
  and bookkeeping flags used by the Kummer rigidity tests;
* the isogeny class tables (:data:`FOUR_FIBER_CLASSES`,
  :data:`FIVE_FIBER_CLASSES`): positioned rows grouping all configurations
  with 4 or 5 singular fibers into classes of isogenous surfaces.

The branch component degrees are the degrees of the irreducible factors of
the quartic model read as plane curves; the fibration point lies off the
quartic, so each factor of degree d is a d-section component.  The entry
for 62211 marks the distinguished I_2 (position 1 of the canonical tuple,
0-based): a quartic with an A_5 singularity cannot have three components,
so only one of the two I_2 fibers maps to I_1 under the 2-isogeny.

Admissibility beyond 5 fibers returns :data:`Admissibility.UNKNOWN_BEYOND_CATALOG`
rather than guessing; the tables cover 4 and 5 fibers only.
"""

from __future__ import annotations

from enum import Enum

from .configs import MIN_FIBERS, TOTAL_INDEX, _Record, _canonical_json, descending, index_text
from .errors import MalformedInput, NotInCatalog, SumNot12, TooFewFibers


class Admissibility(Enum):
    ADMISSIBLE = "Admissible"
    NOT_ADMISSIBLE = "NotAdmissible"
    UNKNOWN_BEYOND_CATALOG = "UnknownBeyondCatalog"

    def __str__(self):
        return self.value


class CatalogEntry(_Record):
    """Everything the catalog records about one partition."""

    __slots__ = ("partition", "modular_group_name", "quartic_equation",
                 "branch_component_degrees", "i2_node_induced", "distinguished_positions")

    def __init__(self, partition: tuple[int, ...], modular_group_name: str | None = None,
                 quartic_equation: str | None = None,
                 branch_component_degrees: tuple[int, ...] | None = None,
                 i2_node_induced: bool | None = None,
                 distinguished_positions: tuple[int, ...] | None = None):
        self._set_fields(partition, modular_group_name, quartic_equation,
                         branch_component_degrees, i2_node_induced, distinguished_positions)
        if sum(partition) != TOTAL_INDEX:
            raise SumNot12(f"catalog partition sums to {sum(partition)}")
        if descending(partition) != tuple(partition):
            raise MalformedInput(f"catalog partition not descending: {partition}")
        degrees = branch_component_degrees
        if degrees is not None and sum(degrees) != 4:
            raise MalformedInput(f"branch component degrees must sum to 4: {degrees}")


EMBEDDED_ENTRIES: tuple[CatalogEntry, ...] = (
    # four singular fibers (Beauville surfaces)
    CatalogEntry((9, 1, 1, 1), "Gamma_0(9) cap Gamma_1(3)",
                 "(x+z)(x^3-3tx^2+4z^3)", (3, 1)),
    CatalogEntry((8, 2, 1, 1), "Gamma_0(8) cap Gamma_1(4)",
                 "(x+z)(x-z)(x^2+t^2-z^2)", (2, 1, 1)),
    CatalogEntry((6, 3, 2, 1), "Gamma_1(6)",
                 "(x-z)(x-t+2z)(x^2+t^2-z^2)", (2, 1, 1)),
    CatalogEntry((5, 5, 1, 1), "Gamma_1(5)",
                 "x(x^3-2x^2(z+t)+x(z^2+6zt+t^2)-4tz^2)", (3, 1)),
    CatalogEntry((4, 4, 2, 2), "Gamma_1(4) cap Gamma(2)",
                 "(x+t+z)(x+t-z)(x-t+z)(x-t-z)", (1, 1, 1, 1)),
    CatalogEntry((3, 3, 3, 3), "Gamma(3)",
                 "(x+t)(x^3-3tx^2+4z^3)", (3, 1)),
    # five singular fibers; quartic models known for three partitions:
    # 33321 is a double cover branched over a nodal cubic and a line,
    # 44211 and 62211 over a conic and two lines, with every I_2 fiber
    # of the model induced by a node of the quartic.
    CatalogEntry((8, 1, 1, 1, 1)),
    CatalogEntry((7, 2, 1, 1, 1)),
    CatalogEntry((6, 3, 1, 1, 1)),
    CatalogEntry((6, 2, 2, 1, 1), branch_component_degrees=(2, 1, 1),
                 i2_node_induced=True, distinguished_positions=(1,)),
    CatalogEntry((5, 4, 1, 1, 1)),
    CatalogEntry((5, 3, 2, 1, 1)),
    CatalogEntry((4, 4, 2, 1, 1), branch_component_degrees=(2, 1, 1),
                 i2_node_induced=True),
    CatalogEntry((4, 3, 2, 2, 1)),
    CatalogEntry((4, 2, 2, 2, 2)),
    CatalogEntry((3, 3, 3, 2, 1), branch_component_degrees=(3, 1),
                 i2_node_induced=True),
)

# Isogeny class tables: each inner tuple is one class, rows are positioned
# index tuples over a shared ordered set of base points, first row is the
# canonical representative.  Row order is the catalog order used by the
# TSV export.
FOUR_FIBER_CLASSES: tuple[tuple[tuple[int, ...], ...], ...] = (
    ((3, 3, 3, 3), (9, 1, 1, 1), (1, 9, 1, 1), (1, 1, 9, 1), (1, 1, 1, 9)),
    ((4, 4, 2, 2), (2, 2, 4, 4), (8, 2, 1, 1), (2, 8, 1, 1), (1, 1, 8, 2), (1, 1, 2, 8)),
    ((6, 2, 3, 1), (2, 6, 1, 3), (3, 1, 6, 2), (1, 3, 2, 6)),
    ((5, 5, 1, 1), (1, 1, 5, 5)),
)

FIVE_FIBER_CLASSES: tuple[tuple[tuple[int, ...], ...], ...] = (
    ((3, 3, 3, 2, 1), (1, 1, 1, 6, 3)),
    ((4, 4, 2, 1, 1), (2, 2, 4, 2, 2), (1, 1, 8, 1, 1), (1, 1, 2, 4, 4)),
    ((6, 2, 2, 1, 1), (3, 1, 4, 2, 2)),
    ((5, 4, 1, 1, 1),),
    ((5, 3, 2, 1, 1),),
    ((7, 2, 1, 1, 1),),
)

ALL_CLASSES = FOUR_FIBER_CLASSES + FIVE_FIBER_CLASSES

# every positioned row
TABLE_ROWS: frozenset[tuple[int, ...]] = frozenset(
    row for cls in ALL_CLASSES for row in cls
)
# the partitions of the two classes whose rows drop a combinatorial move (all
# at p = 2, out of 22422 and 62211): elsewhere gated closure is combinatorial
CUT_PARTITIONS: frozenset[tuple[int, ...]] = frozenset((
    (4, 4, 2, 1, 1), (4, 2, 2, 2, 2), (8, 1, 1, 1, 1), (6, 2, 2, 1, 1), (4, 3, 2, 2, 1),
))
# partition -> position of its class in ALL_CLASSES (no partition spans two)
CLASS_INDEX: dict[tuple[int, ...], int] = {
    descending(row): i for i, cls in enumerate(ALL_CLASSES) for row in cls
}

ADMISSIBLE_PARTITIONS: frozenset[tuple[int, ...]] = frozenset(
    e.partition for e in EMBEDDED_ENTRIES
)
_ENTRY_BY_PARTITION = {e.partition: e for e in EMBEDDED_ENTRIES}


def admissible(partition) -> Admissibility:
    """Can the partition occur as the singular fibers of a semi-stable
    rational elliptic surface, according to the embedded tables?

    Total on partitions of 12 into at least four parts.  The tables cover
    4 and 5 fibers; anything larger is honestly UnknownBeyondCatalog.
    """
    partition = descending(partition)
    if any(k < 1 for k in partition):
        raise MalformedInput(f"partition parts must be positive: {partition}")
    if sum(partition) != TOTAL_INDEX:
        raise SumNot12(f"partition sums to {sum(partition)}, expected {TOTAL_INDEX}")
    if len(partition) < MIN_FIBERS:
        raise TooFewFibers(f"need at least {MIN_FIBERS} parts, got {len(partition)}")
    if len(partition) > 5:
        return Admissibility.UNKNOWN_BEYOND_CATALOG
    if partition in ADMISSIBLE_PARTITIONS:
        return Admissibility.ADMISSIBLE
    return Admissibility.NOT_ADMISSIBLE


def _check_admissible(indices, name: str) -> int:
    """The :data:`CLASS_INDEX` position of the partition of ``indices``, the
    indices of a valid configuration, or NotInCatalog when it is not
    admissible: the class tables hold exactly the admissible partitions.
    ``name`` says which configuration in the message."""
    partition = descending(indices)
    position = CLASS_INDEX.get(partition)
    if position is None:
        raise NotInCatalog(f"{name}: partition {index_text(partition)} is not admissible")
    return position


def catalog_lookup(partition) -> CatalogEntry | None:
    """The stored entry for a partition, or None."""
    return _ENTRY_BY_PARTITION.get(descending(partition))


def _entry_to_dict(entry: CatalogEntry) -> dict:
    return {
        "partition": list(entry.partition),
        "group": entry.modular_group_name,
        "quartic": entry.quartic_equation,
        "degrees": list(entry.branch_component_degrees)
        if entry.branch_component_degrees is not None else None,
        "i2_node_induced": entry.i2_node_induced,
        "distinguished": list(entry.distinguished_positions)
        if entry.distinguished_positions is not None else None,
    }


def canonical_order(entries) -> tuple[CatalogEntry, ...]:
    """Fiber count ascending, then partition descending (9111 before 3333)."""
    return tuple(sorted(entries, key=lambda e: (len(e.partition), tuple(-k for k in e.partition))))


def export_catalog(entries=None) -> str:
    """Serialize the catalog as a canonical JSON array (byte-stable)."""
    if entries is None:
        entries = EMBEDDED_ENTRIES
    records = [_entry_to_dict(e) for e in canonical_order(entries)]
    return _canonical_json(records)

