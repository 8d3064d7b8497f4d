import itertools
import re

import pytest

from ellab import catalog
from ellab.catalog import Admissibility, admissible, catalog_lookup
from ellab.configs import descending, index_text
from ellab.errors import NotInCatalog, SumNot12, TooFewFibers


def descending_partitions(total, parts, largest=None):
    """Independent enumeration of partitions of ``total`` into exactly ``parts`` parts."""
    if largest is None:
        largest = total
    if parts == 1:
        if 1 <= total <= largest:
            yield (total,)
        return
    for first in range(min(largest, total - parts + 1), 0, -1):
        for rest in descending_partitions(total - first, parts - 1, first):
            yield (first,) + rest


ADMISSIBLE_4 = {(3, 3, 3, 3), (4, 4, 2, 2), (5, 5, 1, 1),
                (6, 3, 2, 1), (8, 2, 1, 1), (9, 1, 1, 1)}
ADMISSIBLE_5 = {(3, 3, 3, 2, 1), (6, 3, 1, 1, 1), (4, 4, 2, 1, 1), (4, 2, 2, 2, 2),
                (8, 1, 1, 1, 1), (6, 2, 2, 1, 1), (4, 3, 2, 2, 1), (5, 4, 1, 1, 1),
                (5, 3, 2, 1, 1), (7, 2, 1, 1, 1)}


def test_four_fiber_admissibility_is_total():
    partitions = set(descending_partitions(12, 4))
    assert len(partitions) == 15
    for partition in partitions:
        expected = (Admissibility.ADMISSIBLE if partition in ADMISSIBLE_4
                    else Admissibility.NOT_ADMISSIBLE)
        assert admissible(partition) is expected


def test_five_fiber_admissibility_is_total():
    partitions = set(descending_partitions(12, 5))
    assert len(partitions) == 13
    excluded = partitions - ADMISSIBLE_5
    assert excluded == {(5, 2, 2, 2, 1), (4, 3, 3, 1, 1), (3, 3, 2, 2, 2)}
    for partition in partitions:
        expected = (Admissibility.ADMISSIBLE if partition in ADMISSIBLE_5
                    else Admissibility.NOT_ADMISSIBLE)
        assert admissible(partition) is expected


def test_admissible_examples():
    assert admissible((4, 4, 2, 2)) is Admissibility.ADMISSIBLE
    assert admissible((5, 2, 2, 2, 1)) is Admissibility.NOT_ADMISSIBLE
    assert admissible((2, 2, 2, 2, 2, 2)) is Admissibility.UNKNOWN_BEYOND_CATALOG


def test_admissible_accepts_any_order():
    assert admissible((2, 4, 2, 4)) is Admissibility.ADMISSIBLE


def test_admissible_errors():
    with pytest.raises(SumNot12):
        admissible((4, 4, 2))
    with pytest.raises(TooFewFibers):
        admissible((6, 5, 1))


def test_degrees_sum_to_four():
    for entry in catalog.EMBEDDED_ENTRIES:
        if entry.branch_component_degrees is not None:
            assert sum(entry.branch_component_degrees) == 4


@pytest.mark.parametrize("partition,degrees", [
    ((3, 3, 3, 3), (3, 1)),
    ((4, 4, 2, 2), (1, 1, 1, 1)),
    ((5, 5, 1, 1), (3, 1)),
    ((6, 3, 2, 1), (2, 1, 1)),
    ((8, 2, 1, 1), (2, 1, 1)),
    ((9, 1, 1, 1), (3, 1)),
    ((3, 3, 3, 2, 1), (3, 1)),
    ((4, 4, 2, 1, 1), (2, 1, 1)),
    ((6, 2, 2, 1, 1), (2, 1, 1)),
])
def test_branch_degrees(partition, degrees):
    assert catalog_lookup(partition).branch_component_degrees == degrees


def test_lookup_beauville_quartic():
    entry = catalog_lookup((6, 3, 2, 1))
    assert entry.quartic_equation == "(x-z)(x-t+2z)(x^2+t^2-z^2)"
    assert entry.modular_group_name == "Gamma_1(6)"


def test_lookup_node_flags():
    entry = catalog_lookup((3, 3, 3, 2, 1))
    assert entry.branch_component_degrees == (3, 1)
    assert entry.i2_node_induced is True


def test_lookup_distinguished_good_i2():
    entry = catalog_lookup((6, 2, 2, 1, 1))
    assert entry.distinguished_positions == (1,)
    assert entry.i2_node_induced is True


def test_lookup_bare_entry():
    entry = catalog_lookup((7, 2, 1, 1, 1))
    assert entry.quartic_equation is None
    assert entry.branch_component_degrees is None


def test_lookup_absent():
    assert catalog_lookup((7, 3, 1, 1)) is None


def test_lookup_accepts_any_order():
    assert catalog_lookup((1, 2, 3, 6)).partition == (6, 3, 2, 1)


def test_class_tables_cover_exactly_the_admissible_partitions():
    assert frozenset(catalog.CLASS_INDEX) == ADMISSIBLE_4 | ADMISSIBLE_5
    assert catalog.ADMISSIBLE_PARTITIONS == ADMISSIBLE_4 | ADMISSIBLE_5


def test_class_index_maps_every_row_to_its_class():
    for i, cls in enumerate(catalog.ALL_CLASSES):
        for row in cls:
            assert catalog.CLASS_INDEX[tuple(sorted(row, reverse=True))] == i


def test_check_admissible_returns_the_class_index_of_every_composition():
    """On all 1,981 compositions, the admissibility check returns CLASS_INDEX
    at the descending partition, and raises NotInCatalog, naming the
    configuration and its partition, exactly for the inadmissible ones."""
    compositions = [tuple(b - a for a, b in zip((0,) + cuts, cuts + (12,)))
                    for n_cuts in range(3, 12) for cuts in itertools.combinations(range(1, 12), n_cuts)]
    assert len(compositions) == 1981
    admissible_count = 0
    for composition in compositions:
        partition = descending(composition)
        if partition in catalog.ADMISSIBLE_PARTITIONS:
            assert catalog._check_admissible(composition, "start") == catalog.CLASS_INDEX[partition]
            admissible_count += 1
        else:
            message = f"start: partition {index_text(partition)} is not admissible"
            with pytest.raises(NotInCatalog, match=f"^{re.escape(message)}$"):
                catalog._check_admissible(composition, "start")
    assert admissible_count == 323


def two_move_targets(row):
    """Independent enumeration of the 2-isogeny targets of a row: halve a
    set D of even indices summing to 8 and double every other index."""
    evens = [i for i, k in enumerate(row) if k % 2 == 0]
    return [tuple(k // 2 if i in divided else 2 * k for i, k in enumerate(row))
            for size in range(1, len(evens) + 1)
            for divided in itertools.combinations(evens, size)
            if sum(row[i] for i in divided) == 8]


DEGREES_BY_TWO_TORSION = {0: (3, 1), 1: (2, 1, 1), 3: (1, 1, 1, 1)}


def test_branch_degrees_follow_from_the_gated_two_moves():
    """Each stored ``branch_component_degrees`` is the split of the branch
    four-section that the 2-torsion sections force, counted as the 2-moves
    out of the partition's first literal row that stay in its class column.

    The Kummer involution is fiberwise -1, so its fixed locus is the zero
    section plus the trisection of nonzero 2-torsion points, and the branch
    four-section splits as 1 + the Galois orbits on E[2] minus 0: (3, 1)
    with no 2-torsion section, (2, 1, 1) with one and (1, 1, 1, 1) with
    three.  Each nonzero 2-torsion section gives one 2-isogeny, that is one
    gated 2-move.  Assumed, not derived here: the involution of the plane
    quartic model is -1 about the zero section, as in the double-cover
    construction of the fiber products (arXiv 0802.3763), so its fixed locus
    is E[2] itself; about a non-zero section it would be an E[2]-torsor.
    """
    gated = {}
    for entry in catalog.EMBEDDED_ENTRIES:
        if entry.branch_component_degrees is None:
            continue
        column = catalog.ALL_CLASSES[catalog.CLASS_INDEX[entry.partition]]
        row = next(row for row in column if descending(row) == entry.partition)
        count = sum(target in column for target in two_move_targets(row))
        assert entry.branch_component_degrees == DEGREES_BY_TWO_TORSION[count], entry
        gated[index_text(entry.partition)] = count
    assert gated == {"9111": 0, "8211": 1, "6321": 1, "5511": 0, "4422": 3, "3333": 0,
                     "62211": 1, "44211": 1, "33321": 0}
    # 62211 needs the gate: the tables drop one of its two combinatorial 2-moves
    assert len(two_move_targets((6, 2, 2, 1, 1))) == 2
