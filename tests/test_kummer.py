import json
from collections import Counter

import pytest

from ellab.configs import default_points
from ellab.correspondence import CaseKind, classify_hypotheses
from ellab.errors import MalformedInput, MissingFlag, MissingNodeCount, NotInCatalog
from ellab.isogeny import GraphMode, _closure_tuples
from ellab.kummer import (LONE_I2_OBSTRUCTIONS, Rationality, _node_count,
                          component_interval, default_node_count, equisingular_zero,
                          fiber_fixed_points, kummer_input_from_catalog,
                          kummer_rigidity, make_kummer_input, rationality_verdict,
                          report_to_json)
from ellab.product import ProductDiagram, _class_split, _obstructions, _pair_rows, parse_diagram

DIAGRAM_A = parse_diagram("4,4,2,1,1 / 6,2,_,3,1")
DIAGRAM_B = parse_diagram("3,3,2,3,1 / 8,2,_,1,1")


@pytest.mark.parametrize("a,b,expected", [
    (4, 6, 16),
    (3, 8, 12),
    (1, 1, 9),
    (2, 0, 16),
    (0, 0, 16),
    (0, 5, 12),
])
def test_fiber_fixed_points(a, b, expected):
    assert fiber_fixed_points(a, b) == expected


def test_fixed_points_symmetric_and_bounded():
    for a in range(13):
        for b in range(13):
            value = fiber_fixed_points(a, b)
            assert value == fiber_fixed_points(b, a)
            assert value in (9, 12, 16)


def test_fixed_points_reject_negative():
    with pytest.raises(MalformedInput):
        fiber_fixed_points(-1, 2)


def test_default_node_count():
    assert default_node_count(DIAGRAM_A) == 2
    assert default_node_count(DIAGRAM_B) == 2
    swapped = ProductDiagram(DIAGRAM_A.points, tuple((b, a) for a, b in DIAGRAM_A.pairs))
    assert default_node_count(swapped) == 2
    # same fixed-point multiset as the second reference diagram, other pairs
    assert default_node_count(parse_diagram("3,3,3,3,_ / 4,4,1,1,2")) == 2
    # that multiset again, but the lone obstruction is I_4 x I_0, or none
    assert default_node_count(parse_diagram("3,3,3,3,_ / 4,2,1,1,4")) is None
    assert default_node_count(parse_diagram("8,2,1,1,_ / 3,2,3,3,1")) is None
    other = parse_diagram("3,3,3,2,1 / 3,3,3,_,3")
    assert default_node_count(other) is None


def test_branch_curve_euler_first_example():
    inp = make_kummer_input(DIAGRAM_A, (2, 1, 1), (2, 1, 1), {"P3": True}, node_count=2)
    assert kummer_rigidity(inp).euler == 16 * (2 - 5) + (16 + 16 + 16 + 9 + 9) + 2
    assert kummer_rigidity(inp).euler == 20


def test_branch_curve_euler_second_example():
    inp = make_kummer_input(DIAGRAM_B, (3, 1), (2, 1, 1), {"P3": True}, node_count=2)
    assert kummer_rigidity(inp).euler == 12


def test_branch_curve_euler_formula():
    # five even-or-smooth pairs, no nodes: -48 + 5 * 16 + 0
    d = parse_diagram("4,4,2,2,_ / 2,_,4,2,4")
    inp = make_kummer_input(d, (1, 1, 1, 1), (1, 1, 1, 1), {}, node_count=0)
    assert kummer_rigidity(inp).euler == 32


def test_euler_linear_in_node_count():
    values = []
    for delta in range(4):
        inp = make_kummer_input(DIAGRAM_A, (2, 1, 1), (2, 1, 1), {"P3": True},
                                node_count=delta)
        values.append(kummer_rigidity(inp).euler)
    assert values == [18, 19, 20, 21]


def test_node_count_required_when_unknown():
    d = parse_diagram("3,3,3,2,1 / 3,3,3,_,3")
    inp = make_kummer_input(d, (3, 1), (3, 1), {"P4": True})
    with pytest.raises(MissingNodeCount):
        kummer_rigidity(inp).euler


@pytest.mark.parametrize("left,right,expected", [
    ((2, 1, 1), (2, 1, 1), (9, 10)),
    ((3, 1), (2, 1, 1), (6, 6)),
    ((1, 1, 1, 1), (1, 1, 1, 1), (16, 16)),
    ((3, 1), (3, 1), (4, 6)),
])
def test_component_interval(left, right, expected):
    assert component_interval(left, right) == expected


def test_component_interval_rejects_bad_degrees():
    with pytest.raises(MalformedInput):
        component_interval((3, 2), (2, 1, 1))


@pytest.mark.parametrize("euler,c_min,c_max,expected", [
    (20, 9, 10, Rationality.FORCED),
    (12, 6, 6, Rationality.FORCED),
    (10, 6, 6, Rationality.UNDETERMINED),
    (14, 6, 6, Rationality.IMPOSSIBLE),
    (13, 6, 7, Rationality.IMPOSSIBLE),
])
def test_rationality_verdict(euler, c_min, c_max, expected):
    assert rationality_verdict(euler, c_min, c_max) is expected


def test_rationality_forced_for_matching_euler():
    for c in range(1, 101):
        assert rationality_verdict(2 * c, 1, c) is Rationality.FORCED


def test_equisingular_zero():
    good = make_kummer_input(DIAGRAM_A, (2, 1, 1), (2, 1, 1), {"P3": True}, node_count=2)
    assert equisingular_zero(good) is True
    bad = make_kummer_input(DIAGRAM_A, (2, 1, 1), (2, 1, 1), {"P3": False}, node_count=2)
    assert equisingular_zero(bad) is False
    no_i2 = ProductDiagram(default_points(4), ((3, 9), (3, 1), (3, 1), (3, 1)))
    vacuous = make_kummer_input(no_i2, (3, 1), (3, 1), {}, node_count=0)
    assert equisingular_zero(vacuous) is True


def test_flags_must_cover_exactly_the_i2_points():
    with pytest.raises(MissingFlag):
        make_kummer_input(DIAGRAM_A, (2, 1, 1), (2, 1, 1), {}, node_count=2)
    with pytest.raises(MissingFlag):
        make_kummer_input(DIAGRAM_A, (2, 1, 1), (2, 1, 1),
                          {"P3": True, "P4": True}, node_count=2)


def test_kummer_rigidity_first_example():
    report = kummer_rigidity(
        make_kummer_input(DIAGRAM_A, (2, 1, 1), (2, 1, 1), {"P3": True}, node_count=2))
    assert report.fixed_counts == (16, 16, 16, 9, 9)
    assert report.euler == 20
    assert (report.component_min, report.component_max) == (9, 10)
    assert report.rationality is Rationality.FORCED
    assert report.equisingular_zero and report.transversal_zero and report.rigid


def test_kummer_rigidity_second_example():
    report = kummer_rigidity(
        make_kummer_input(DIAGRAM_B, (3, 1), (2, 1, 1), {"P3": True}, node_count=2))
    assert report.fixed_counts == (12, 12, 16, 9, 9)
    assert report.euler == 12
    assert (report.component_min, report.component_max) == (6, 6)
    assert report.rationality is Rationality.FORCED
    assert report.rigid


def test_double_tangent_breaks_rigidity():
    report = kummer_rigidity(
        make_kummer_input(DIAGRAM_A, (2, 1, 1), (2, 1, 1), {"P3": False}, node_count=2))
    assert report.transversal_zero is True
    assert report.equisingular_zero is False
    assert report.rigid is False


def test_input_from_catalog():
    inp = kummer_input_from_catalog(DIAGRAM_A, node_count=2)
    assert inp.left_degrees == (2, 1, 1)
    assert inp.right_degrees == (2, 1, 1)
    assert inp.i2_flags == (("P3", True),)
    report = kummer_rigidity(inp)
    assert report.euler == 20 and report.rigid


def test_input_from_catalog_uses_default_delta():
    report = kummer_rigidity(kummer_input_from_catalog(DIAGRAM_A))
    assert report.node_count == 2


def test_input_from_catalog_missing_degrees():
    d = parse_diagram("5,4,1,1,1,_ / 5,3,1,1,_,2")
    with pytest.raises(NotInCatalog):
        kummer_input_from_catalog(d)


def test_report_json():
    report = kummer_rigidity(kummer_input_from_catalog(DIAGRAM_B, node_count=2))
    payload = json.loads(report_to_json(report))
    assert payload["euler"] == 12
    assert payload["components"] == [6, 6]
    assert payload["rationality"] == "Forced"
    assert payload["rigid"] is True


@pytest.mark.parametrize("node_count", [8.0, 8.5, True, False, "8", -1])
def test_a_node_count_must_be_a_non_negative_int(node_count):
    """A float, a bool or a string is refused, not taken as a number (the
    report would carry it into its text and JSON), and so is a negative int."""
    match = "non-negative" if node_count == -1 else "an integer"
    with pytest.raises(MalformedInput, match=f"node count must be {match}"):
        make_kummer_input(DIAGRAM_A, (2, 1, 1), (2, 1, 1), {"P3": True}, node_count=node_count)
    with pytest.raises(MalformedInput, match=f"node count must be {match}"):
        kummer_input_from_catalog(DIAGRAM_A, node_count=node_count)


REFERENCE_FIXED_POINTS = [Counter(fiber_fixed_points(a, b) for a, b in d.pairs)
                          for d in (DIAGRAM_A, DIAGRAM_B)]


def _multiset_rule(pairs):
    """The delta rule as the module docstring states it, on Counters: 2 when
    the one smooth fiber paired with an I_n, n >= 2, is a single I_2 x I_0
    fiber and the fixed-point multiset is a reference diagram's."""
    left, right = _obstructions(pairs)
    if sorted([left, right]) != [[], [2]]:
        return None
    return 2 if Counter(fiber_fixed_points(a, b) for a, b in pairs) in REFERENCE_FIXED_POINTS else None


def test_delta_rule_equals_a_multiset_oracle_on_every_lone_i2_pair(case_b_diagrams):
    """Over every ordered Case B diagram and every pair of class nodes: the
    pairs whose obstructions are a lone I_2 x I_0 fiber (the one definition,
    LONE_I2_OBSTRUCTIONS) are exactly the pairs the class splits make
    Kummer candidates of (certify tries them when one side has no
    unobstructed node), and on each the delta rule agrees with the
    multiset oracle."""
    candidates = defaults = 0
    for d in case_b_diagrams:
        if classify_hypotheses(d).kind is not CaseKind.CASE_B:
            continue
        nodes, splits = [], []
        for side, indices in enumerate(d._factors):
            others = [pair[1 - side] for pair in d.pairs if pair[side]]
            facing = sum(1 << i for i, other in enumerate(others) if not other)
            nodes.append(_closure_tuples(indices, GraphMode.CATALOG_GATED).nodes)
            splits.append(_class_split(indices, facing))
        (l_free, l_lone, _), (r_free, r_lone, _) = splits
        lone = {(l, r) for l in l_free for r in r_lone} | {(l, r) for l in l_lone for r in r_free}
        for l_tuple in nodes[0]:
            for r_tuple in nodes[1]:
                rows = _pair_rows(d.pairs, l_tuple, r_tuple)
                assert ((l_tuple, r_tuple) in lone) == (_obstructions(rows) in LONE_I2_OBSTRUCTIONS)
                if (l_tuple, r_tuple) in lone:
                    assert _node_count(rows) == _multiset_rule(rows), rows
                    candidates += 1
                    defaults += _node_count(rows) == 2
    assert (candidates, defaults) == (10206, 3577)
