"""The package's JSON writer against the standard library's encoder."""

import json
from itertools import product as cartesian

import pytest
from hypothesis import given, strategies as st

from ellab import catalog, configs, isogeny, product
from ellab.configs import FiberConfig, _canonical_json
from ellab.isogeny import GraphMode, closure, graph_to_json
from ellab.product import diagram_to_json, make_product


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


EDGE_CHARACTERS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\b", "\f", "\n", "\r", "\t",
                   "Ü", " ", "\ud800", "\U0001f600"]
texts = st.text(st.characters() | st.sampled_from(EDGE_CHARACTERS))
scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-2 ** 200, max_value=2 ** 200) | texts)
values = st.recursive(
    scalars,
    lambda children: st.lists(children) | st.dictionaries(texts, children),
    max_leaves=40,
)


@given(values)
def test_matches_reference_on_nested_values(value):
    assert _canonical_json(value) == reference(value)


@pytest.mark.parametrize("value", [{}, [], "", 0, -1, True, False, None, [[]], {"": {}}])
def test_matches_reference_on_empty_and_scalar_values(value):
    assert _canonical_json(value) == reference(value)


@pytest.mark.parametrize("value", [1.5, [0.0], {"x": float("nan")}, {1: "a"}, {"a": 1, 2: 3},
                                   (1, 2), {"s": {1, 2}}])
def test_rejects_values_outside_the_payload_types(value):
    with pytest.raises(TypeError):
        _canonical_json(value)


@pytest.fixture
def checked(monkeypatch):
    """Route every module's writer through a comparison with the reference
    on the payload itself; yields the number of documents compared."""
    seen = []

    def compare(value):
        text = configs._canonical_json(value)
        assert text == reference(value)
        seen.append(text)
        return text

    for module in (catalog, isogeny, product):
        monkeypatch.setattr(module, "_canonical_json", compare)
    return seen


def compositions(total=12, min_parts=4):
    out = []

    def extend(prefix, rest):
        if rest == 0:
            if len(prefix) >= min_parts:
                out.append(tuple(prefix))
            return
        for k in range(1, rest + 1):
            extend(prefix + [k], rest - k)

    extend([], total)
    return out


def test_every_closure_document_matches_reference(checked):
    for indices, mode in cartesian(compositions(), GraphMode):
        graph_to_json(closure(FiberConfig(configs.default_points(len(indices)), indices), mode))
    assert len(checked) == 2 * 1981


def test_catalog_export_matches_reference(checked):
    assert catalog.export_catalog() == checked[0]


def test_diagram_with_unusual_labels_matches_reference(checked):
    left = FiberConfig(("Ü", 'a"b', "c\\d", "P4"), (4, 4, 2, 2))
    right = FiberConfig(("Q1", "Q2", "Q3", "Q4"), (6, 3, 2, 1))
    diagram = make_product(left, right, {"Q1": "Ü", "Q2": 'a"b', "Q3": "c\\d"})
    text = diagram_to_json(diagram)
    assert text == checked[0]
    assert '"\\u00dc"' in text and '"a\\"b"' in text
