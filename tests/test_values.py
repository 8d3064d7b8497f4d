"""The contract every ellab value type keeps: equality and hash over its
compared fields, a repr that lists every field in order, immutability, and
pickling and deep copies that rebuild an equal value."""

import copy
import pickle

import pytest

from ellab.catalog import CatalogEntry
from ellab.configs import parse_config
from ellab.correspondence import certify, classify_hypotheses
from ellab.isogeny import GraphMode, candidate_moves, closure
from ellab.kummer import kummer_input_from_catalog, kummer_rigidity
from ellab.product import ProductDiagram, parse_diagram
from ellab.torsion import Provenance, TorsionAnswer, TorsionStatus

PARTNER = "3,3,3,3,_ / 9,1,1,_,1"  # certified through one move on the left factor
KUMMER = "4,4,2,1,1 / 6,2,_,3,1"

# (factory of a fresh instance, every field in order, the compared fields)
VALUES = {
    "FiberConfig": (lambda: parse_config("9111"), ("points", "indices"), None),
    "CatalogEntry": (lambda: CatalogEntry((9, 1, 1, 1), "Gamma_0(9) cap Gamma_1(3)",
                                          "(x+z)(x^3-3tx^2+4z^3)", (3, 1)),
                     ("partition", "modular_group_name", "quartic_equation",
                      "branch_component_degrees", "i2_node_induced", "distinguished_positions"),
                     None),
    "IsogenyMove": (lambda: candidate_moves(parse_config("9111"), 3)[0],
                    ("p", "divided_positions", "source", "target"), None),
    "IsogenyGraph": (lambda: closure(parse_config("3333"), GraphMode.CATALOG_GATED),
                     ("nodes", "edges", "mode"), None),
    "AppliedMove": (lambda: certify(parse_diagram(PARTNER)).moves[0], ("side", "move"), None),
    "ProductDiagram": (lambda: certify(parse_diagram(PARTNER)).diagram,
                       ("points", "pairs", "log"), ("points", "pairs")),
    "KummerInput": (lambda: kummer_input_from_catalog(parse_diagram(KUMMER)),
                    ("diagram", "node_count", "left_degrees", "right_degrees", "i2_flags"), None),
    "KummerReport": (lambda: kummer_rigidity(kummer_input_from_catalog(parse_diagram(KUMMER))),
                     ("points", "fixed_counts", "node_count", "euler", "component_min",
                      "component_max", "rationality", "equisingular_zero"), None),
    "TorsionStatus": (lambda: TorsionStatus(TorsionAnswer.YES, (Provenance.SUFFICIENT_CRITERION,)),
                      ("answer", "provenances"), None),
    "HypothesisCase": (lambda: classify_hypotheses(parse_diagram("4,4,2,1,1 / 4,4,2,1,1")),
                       ("kind", "reason"), None),
    "Certificate": (lambda: certify(parse_diagram(PARTNER)),
                    ("kind", "case", "diagram", "moves", "kummer_report", "reasons", "warnings"),
                    None),
}


@pytest.fixture(params=sorted(VALUES))
def value(request):
    factory, fields, compared = VALUES[request.param]
    return request.param, factory, fields, compared or fields


def test_fresh_equal_instance_is_equal_with_same_hash(value):
    name, factory, _, compared = value
    x, y = factory(), factory()
    assert x is not y and type(x).__name__ == name
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(tuple(getattr(x, f) for f in compared))
    assert x != object() and x != tuple(getattr(x, f) for f in compared)


def test_fields_cannot_be_assigned_or_deleted(value):
    _, factory, fields, _ = value
    x = factory()
    for name in fields + ("unknown",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, None)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert x == factory()


def test_pickle_and_deepcopy_round_trip(value):
    _, factory, fields, _ = value
    x = factory()
    for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert twin == x and type(twin) is type(x)
        assert all(getattr(twin, f) == getattr(x, f) for f in fields)


def test_repr_lists_every_field_in_order(value):
    name, factory, fields, _ = value
    x = factory()
    listed = ", ".join(f"{f}={getattr(x, f)!r}" for f in fields)
    assert repr(x) == f"{name}({listed})"


def test_diagrams_differing_only_in_log_are_equal():
    moved = certify(parse_diagram(PARTNER)).diagram
    bare = ProductDiagram(moved.points, moved.pairs)
    assert moved.log and not bare.log
    assert moved == bare and hash(moved) == hash(bare)
