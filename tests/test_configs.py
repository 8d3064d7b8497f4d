import pytest

from ellab.configs import (FiberConfig, default_points, parse_config,
                           partition_of, render_config)
from ellab.errors import MalformedInput, SumNot12, TooFewFibers


def test_parse_compact():
    cfg = parse_config("3333")
    assert cfg.points == ("P1", "P2", "P3", "P4")
    assert cfg.indices == (3, 3, 3, 3)


def test_parse_csv():
    cfg = parse_config("9,1,1,1")
    assert cfg.points == ("P1", "P2", "P3", "P4")
    assert cfg.indices == (9, 1, 1, 1)


def test_parse_csv_with_spaces():
    assert parse_config(" 9, 1 ,1,1 ").indices == (9, 1, 1, 1)


def test_parse_custom_labels():
    cfg = parse_config("5511", labels=("A", "B", "C", "D"))
    assert cfg.points == ("A", "B", "C", "D")


@pytest.mark.parametrize("text,error", [
    ("3332", SumNot12),
    ("9,1,1,2", SumNot12),
    ("333", TooFewFibers),
    ("6,6", TooFewFibers),
    ("10,1,1", TooFewFibers),
    ("33x3", MalformedInput),
    ("", MalformedInput),
    ("3,3,3,-3", MalformedInput),
    ("30303", MalformedInput),
    ("²²²²", MalformedInput),
    ("3³33", MalformedInput),
    ("٩,1,1,1", MalformedInput),     # int() takes any script's decimal digits
    ("９111", MalformedInput),        # and so does str.isdecimal()
    ("+9,1,1,1", MalformedInput),    # int() takes a sign
    ("9,1,1_0", MalformedInput),     # int() reads '1_0' as 10
])
def test_parse_errors(text, error):
    with pytest.raises(error):
        parse_config(text)


def test_constructor_rejects_duplicate_labels():
    with pytest.raises(MalformedInput):
        FiberConfig(("P1", "P1", "P2", "P3"), (3, 3, 3, 3))


def test_constructor_rejects_bad_sum():
    with pytest.raises(SumNot12):
        FiberConfig(default_points(4), (3, 3, 3, 2))


@pytest.mark.parametrize("indices", [(9, True, 1, 1), (True, True, 9, 1), (10, 1, 1, False)])
def test_constructor_rejects_bool_indices(indices):
    """A bool is an int subclass, equal to 1 or 0: taken as an index it would
    be rendered as True and written to JSON as true."""
    with pytest.raises(MalformedInput, match="fiber indices must be positive integers"):
        FiberConfig(default_points(4), indices)


class Label(str):
    pass


@pytest.mark.parametrize("points", [(1, 2, 3, 4), (1.5, "P2", "P3", "P4"), (None, "P2", "P3", "P4"),
                                    (b"P1", "P2", "P3", "P4"), (Label("P1"), "P2", "P3", "P4"),
                                    (["P1"], "P2", "P3", "P4")])
def test_constructor_rejects_labels_that_are_not_str(points):
    """The writers take labels as text: an int label once made the Kummer
    report's text writer raise TypeError, and a float one the JSON writer."""
    with pytest.raises(MalformedInput, match="point labels must be strings"):
        FiberConfig(points, (3, 3, 3, 3))


@pytest.mark.parametrize("indices,expected", [
    ((2, 6, 1, 3), (6, 3, 2, 1)),
    ((1, 1, 8, 1, 1), (8, 1, 1, 1, 1)),
    ((3, 3, 3, 3), (3, 3, 3, 3)),
])
def test_partition_of(indices, expected):
    assert partition_of(FiberConfig(default_points(len(indices)), indices)) == expected


@pytest.mark.parametrize("text", ["3333", "9111", "11811", "4,4,2,1,1", "62211"])
def test_render_parse_round_trip(text):
    cfg = parse_config(text)
    assert parse_config(render_config(cfg)) == cfg


def test_render_uses_csv_for_multi_digit():
    # not constructible from a valid surface below twelve fibers, so build by hand
    class Raw:
        indices = (10, 1, 1)
    assert render_config(Raw()) == "10,1,1"
