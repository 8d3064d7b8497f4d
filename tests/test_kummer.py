import json

import pytest

from ellab.configs import default_points
from ellab.errors import MalformedInput, MissingFlag, MissingNodeCount, NotInCatalog
from ellab.kummer import (Rationality, branch_curve_euler, component_interval,
                          default_node_count, equisingular_zero,
                          fiber_fixed_points, kummer_input_from_catalog,
                          kummer_rigidity, make_kummer_input, rationality_verdict,
                          report_to_json)
from ellab.product import ProductDiagram, parse_diagram

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
    assert branch_curve_euler(inp) == 16 * (2 - 5) + (16 + 16 + 16 + 9 + 9) + 2
    assert branch_curve_euler(inp) == 20


def test_branch_curve_euler_second_example():
    inp = make_kummer_input(DIAGRAM_B, (3, 1), (2, 1, 1), {"P3": True}, node_count=2)
    assert branch_curve_euler(inp) == 12


def test_branch_curve_euler_formula():
    # five even-or-smooth pairs, no nodes: -48 + 5 * 16 + 0
    d = parse_diagram("4,4,2,2,_ / 2,_,4,2,4")
    inp = make_kummer_input(d, (1, 1, 1, 1), (1, 1, 1, 1), {}, node_count=0)
    assert branch_curve_euler(inp) == 32


def test_euler_linear_in_node_count():
    values = []
    for delta in range(4):
        inp = make_kummer_input(DIAGRAM_A, (2, 1, 1), (2, 1, 1), {"P3": True},
                                node_count=delta)
        values.append(branch_curve_euler(inp))
    assert values == [18, 19, 20, 21]


def test_node_count_required_when_unknown():
    d = parse_diagram("3,3,3,2,1 / 3,3,3,_,3")
    inp = make_kummer_input(d, (3, 1), (3, 1), {"P4": True})
    with pytest.raises(MissingNodeCount):
        branch_curve_euler(inp)


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
