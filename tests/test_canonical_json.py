"""The package's JSON writer against the standard library's encoder."""

import json
from itertools import product as cartesian

import pytest
from hypothesis import given, strategies as st

from ellab import catalog, configs, isogeny, product
from ellab.configs import FiberConfig, _canonical_json
from ellab.correspondence import (CaseKind, Certificate, CertificateKind, HypothesisCase,
                                  certificate_to_json, certify)
from ellab.errors import HypothesesNotMet
from ellab.isogeny import GraphMode, closure, graph_to_json
from ellab.kummer import _report_payload
from ellab.product import (ProductDiagram, _log_specs, _move_payload, diagram_to_json,
                           make_product, parse_diagram)


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


def test_rejects_other_str_subclasses():
    class Text(str):
        pass

    for value in (Text("a"), [Text("a")], {"a": Text("a")}, {Text("a"): 1}):
        with pytest.raises(TypeError):
            _canonical_json(value)


@pytest.mark.parametrize("case, keys", [("a", 64), ("b", 99)])
def test_a_sweep_writes_each_move_record_once(request, case, keys):
    """A full sweep renders each distinct (side, spec) move record once."""
    product._move_record.cache_clear()
    for d in request.getfixturevalue(f"case_{case}_diagrams"):
        try:
            certificate_to_json(certify(d))
        except HypothesesNotMet:
            pass
    info = product._move_record.cache_info()
    assert info.misses == info.currsize == keys


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


def certificate_payload(cert):
    """The schema-1 certificate as a payload."""
    return {
        "schema": 1,
        "kind": str(cert.kind),
        "case": str(cert.case.kind),
        "diagram": None if cert.diagram is None else {
            "points": list(cert.diagram.points),
            "pairs": [list(pair) for pair in cert.diagram.pairs],
        },
        "moves": [_move_payload(*pair) for pair in _log_specs(cert._moves)],
        "kummer": None if cert.kummer_report is None else _report_payload(cert.kummer_report),
        "reasons": list(cert.reasons),
        "warnings": list(cert.warnings),
    }


@pytest.mark.parametrize("case", ["a", "b"])
def test_every_certificate_matches_the_generic_writer(request, case):
    """certificate_to_json writes from the certificate's fixed layout; the
    generic writer, given the payload, is its reference on every ordered
    diagram of both cases."""
    kinds = set()
    for d in request.getfixturevalue(f"case_{case}_diagrams"):
        try:
            cert = certify(d)
        except HypothesesNotMet:
            continue
        kinds.add(cert.kind)
        assert certificate_to_json(cert) == _canonical_json(certificate_payload(cert))
    every = {CertificateKind.RIGID_PRODUCT_PARTNER} if case == "a" else set(CertificateKind)
    assert kinds == every


UNUSUAL_LABELS = ('a"b', "c\\d", "e\x01f", "Ü", "\U0001f600")


@pytest.mark.parametrize("text, kind, warned", [
    ("3,3,3,3,_ / 9,1,_,1,1", CertificateKind.RIGID_PRODUCT_PARTNER, True),
    ("4,4,2,1,1 / 6,2,_,3,1", CertificateKind.RIGID_KUMMER, False),
    ("3,3,3,2,1 / 3,3,3,_,3", CertificateKind.NOT_CERTIFIED, False),
])
def test_certificate_with_unusual_labels_matches_reference(text, kind, warned):
    """Point labels reach the certificate as given, so quotes, backslashes,
    control and non-ASCII characters must be escaped as the standard
    library's encoder escapes them."""
    pairs = parse_diagram(text).pairs
    cert = certify(ProductDiagram(UNUSUAL_LABELS[:len(pairs)], pairs))
    assert cert.kind is kind and bool(cert.warnings) is warned
    assert (cert.diagram is None) is (kind is CertificateKind.NOT_CERTIFIED)
    assert certificate_to_json(cert) == reference(certificate_payload(cert))


def test_certificate_with_unusual_reasons_and_warnings_matches_reference():
    """A certificate built through the public constructor may carry any
    reason and warning text."""
    cert = Certificate(CertificateKind.NOT_CERTIFIED, HypothesisCase(CaseKind.CASE_B),
                       reasons=UNUSUAL_LABELS, warnings=UNUSUAL_LABELS[::-1])
    assert certificate_to_json(cert) == reference(certificate_payload(cert))
