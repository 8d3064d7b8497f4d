"""Shared inputs: every ordered diagram of the paper's two cases."""

import itertools

import pytest

from ellab.catalog import FIVE_FIBER_CLASSES, FOUR_FIBER_CLASSES
from ellab.configs import FiberConfig, default_points
from ellab.product import make_product, parse_diagram, render_diagram


def _ordered_diagrams(left_classes, right_classes, common):
    """Every product of a left and a right table row on ``common`` shared
    points, once per pair tuple (the point order of its text), sorted by
    that text."""
    texts = set()
    right_rows = [row for cls in right_classes for row in cls]
    for left_row in (row for cls in left_classes for row in cls):
        left = FiberConfig(default_points(len(left_row)), left_row)
        for right_row, shared in itertools.product(right_rows, itertools.combinations(left.points, common)):
            for positions in itertools.permutations(range(len(right_row)), common):
                labels = [f"Q{i}" for i in range(len(right_row))]
                for label, position in zip(shared, positions):
                    labels[position] = label
                texts.add(render_diagram(make_product(left, FiberConfig(tuple(labels), right_row))))
    return [parse_diagram(text) for text in sorted(texts)]


@pytest.fixture(scope="session")
def case_a_diagrams():
    """The 3,604 ordered diagrams of Case A's 27,744 alignments."""
    diagrams = _ordered_diagrams(FOUR_FIBER_CLASSES, FOUR_FIBER_CLASSES, 3)
    assert len(diagrams) == 3604
    return diagrams


@pytest.fixture(scope="session")
def case_b_diagrams():
    """The 4,590 ordered diagrams of Case B's 22,440 alignments."""
    diagrams = _ordered_diagrams(FOUR_FIBER_CLASSES, FIVE_FIBER_CLASSES, 4)
    assert len(diagrams) == 4590
    return diagrams
