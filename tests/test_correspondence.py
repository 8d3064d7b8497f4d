import hashlib
import itertools
import json
from collections import Counter

import pytest

from ellab import catalog, correspondence, kummer, product
from ellab.catalog import FIVE_FIBER_CLASSES, FOUR_FIBER_CLASSES
from ellab.configs import FiberConfig, default_points, descending, parse_config
from ellab.correspondence import (CaseKind, Certificate, CertificateKind, HypothesisCase,
                                  _pair_record, certificate_to_json, certify,
                                  classify_hypotheses, render_certificate)
from ellab.errors import HypothesesNotMet, MalformedInput, NotInCatalog
from ellab.isogeny import GraphMode, IsogenyMove, _closure_tuples, candidate_moves
from ellab.kummer import Rationality, kummer_input_from_catalog, kummer_rigidity
from ellab.product import (AppliedMove, ProductDiagram, _class_split, _partner,
                           apply_move, find_rigid_partner, is_rigid_criterion,
                           left_config, make_product, parse_diagram, right_config)

WORKED_A = parse_diagram("4,4,2,1,1 / 6,2,_,3,1")
WORKED_B = parse_diagram("3,3,2,3,1 / 8,2,_,1,1")
SEEDED_CASE_A = parse_diagram("3,3,3,3,_ / 4,4,2,_,2")


def swapped(d):
    return ProductDiagram(d.points, tuple((b, a) for a, b in d.pairs))


def test_classify_case_a():
    assert classify_hypotheses(SEEDED_CASE_A).kind is CaseKind.CASE_A


def test_classify_case_b():
    assert classify_hypotheses(WORKED_A).kind is CaseKind.CASE_B
    assert classify_hypotheses(swapped(WORKED_A)).kind is CaseKind.CASE_B


def test_classify_reports_fiber_counts_and_common_fibers():
    case = classify_hypotheses(parse_diagram("4,4,2,1,1,_ / 6,2,_,3,_,1"))
    assert case.kind is CaseKind.NOT_APPLICABLE
    assert case.reason == "mixed 4/5-fiber factors need 4 common singular fibers, found 3"
    case = classify_hypotheses(parse_diagram("4,4,2,1,1 / 4,4,2,1,1"))
    assert case.kind is CaseKind.NOT_APPLICABLE
    assert case.reason == "factors must have 4+4 or 4+5 singular fibers, found 5+5"


def test_classify_rejects_smooth_paired_i5():
    left = parse_config("54111")
    right = FiberConfig(("P2", "P3", "P4", "P5"), (3, 3, 3, 3))
    d = make_product(left, right)
    assert d.pairs == ((5, 0), (4, 3), (1, 3), (1, 3), (1, 3))
    case = classify_hypotheses(d)
    assert case.kind is CaseKind.NOT_APPLICABLE
    assert "I_5" in case.reason


def test_classify_rejects_smooth_paired_i6_for_62211():
    left = parse_config("62211")
    right = FiberConfig(("P2", "P3", "P4", "P5"), (3, 3, 3, 3))
    d = make_product(left, right)
    assert d.pairs == ((6, 0), (2, 3), (2, 3), (1, 3), (1, 3))
    case = classify_hypotheses(d)
    assert case.kind is CaseKind.NOT_APPLICABLE
    assert "62211" in case.reason


def test_classify_allows_smooth_paired_i6_for_other_partitions():
    left = FiberConfig(default_points(5), (1, 1, 1, 6, 3))
    right = FiberConfig(("P1", "P2", "P3", "P5"), (4, 4, 2, 2))
    d = make_product(left, right)
    assert d.pairs == ((1, 4), (1, 4), (1, 2), (6, 0), (3, 2))
    assert classify_hypotheses(d).kind is CaseKind.CASE_B


def test_classify_wrong_common_count():
    d = make_product(parse_config("3333"), parse_config("9111"))
    case = classify_hypotheses(d)
    assert case.kind is CaseKind.NOT_APPLICABLE
    assert "3" in case.reason


def test_classify_requires_admissible_factors():
    d = ProductDiagram(default_points(4), ((7, 9), (3, 1), (1, 1), (1, 1)))
    with pytest.raises(NotInCatalog):
        classify_hypotheses(d)


def test_certify_requires_hypotheses():
    d = make_product(parse_config("3333"), parse_config("9111"))
    with pytest.raises(HypothesesNotMet):
        certify(d)


def test_certify_seeded_case_a_partner():
    cert = certify(SEEDED_CASE_A)
    assert cert.kind is CertificateKind.RIGID_PRODUCT_PARTNER
    assert cert.diagram.pairs == ((9, 8), (1, 2), (1, 1), (1, 0), (0, 1))
    assert is_rigid_criterion(cert.diagram)
    assert len(cert.moves) == 2


def test_certify_first_worked_kummer_example():
    cert = certify(WORKED_A)
    assert cert.kind is CertificateKind.RIGID_KUMMER
    report = cert.kummer_report
    assert report.euler == 20
    assert (report.component_min, report.component_max) == (9, 10)
    assert report.rationality is Rationality.FORCED
    assert report.rigid
    assert cert.moves == ()


def test_certify_second_worked_kummer_example():
    cert = certify(WORKED_B)
    assert cert.kind is CertificateKind.RIGID_KUMMER
    assert cert.kummer_report.euler == 12
    assert (cert.kummer_report.component_min, cert.kummer_report.component_max) == (6, 6)
    assert cert.kummer_report.rigid


def test_certify_transports_to_the_kummer_model():
    # the 81111 member of the 44211 class, with its I_8 over the lone
    # smooth point of the other factor
    d = parse_diagram("1,1,8,1,1 / 6,2,_,3,1")
    cert = certify(d)
    assert cert.kind is CertificateKind.RIGID_KUMMER
    assert cert.diagram.pairs == ((4, 6), (4, 2), (2, 0), (1, 3), (1, 1))
    assert [a.move.target.indices for a in cert.moves] == [
        (2, 2, 4, 2, 2), (4, 4, 2, 1, 1)]
    assert cert.kummer_report.euler == 20


def test_certify_not_certified_without_node_count():
    d = parse_diagram("3,3,3,2,1 / 3,3,3,_,3")
    cert = certify(d)
    assert cert.kind is CertificateKind.NOT_CERTIFIED
    assert any("node count" in reason for reason in cert.reasons)
    assert any("partner" in reason for reason in cert.reasons)
    # Kummer candidates: the input pair first, then descending order
    cert = certify(parse_diagram("3,3,3,3,_ / 3,3,3,1,2"))
    assert cert.reasons == (
        "no rigid fiber-product partner among the class representatives",
        "kummer route 3333 x 33312: node count of the fixed curve unknown",
        "kummer route 9111 x 33312: node count of the fixed curve unknown",
        "kummer route 1911 x 33312: node count of the fixed curve unknown",
        "kummer route 1191 x 33312: node count of the fixed curve unknown",
        "kummer route 1119 x 33312: node count of the fixed curve unknown",
    )


def test_certify_explicit_node_count_can_close_the_gap():
    d = parse_diagram("3,3,3,2,1 / 3,3,3,_,3")
    cert = certify(d, node_count=8)
    assert cert.kind is CertificateKind.RIGID_KUMMER
    assert cert.kummer_report.euler == 12


def test_certify_invariant_under_swap():
    for d in (WORKED_A, WORKED_B, SEEDED_CASE_A):
        cert = certify(d)
        cert_swapped = certify(swapped(d))
        assert cert.kind is cert_swapped.kind
        if cert.kummer_report is not None:
            assert cert.kummer_report.euler == cert_swapped.kummer_report.euler
            assert cert.kummer_report.rigid == cert_swapped.kummer_report.rigid
        if cert.kind is CertificateKind.RIGID_PRODUCT_PARTNER:
            assert cert_swapped.diagram.pairs == tuple(
                (b, a) for a, b in cert.diagram.pairs)


def test_certify_invariant_under_relabeling():
    relabeled = ProductDiagram(("A", "B", "C", "D", "E"), SEEDED_CASE_A.pairs)
    cert = certify(SEEDED_CASE_A)
    cert_relabeled = certify(relabeled)
    assert cert.kind is cert_relabeled.kind
    assert cert.diagram.pairs == cert_relabeled.diagram.pairs


def test_certify_warns_on_isogenous_factors():
    left = parse_config("3333")
    right = FiberConfig(("P1", "P2", "P3", "Q1"), (9, 1, 1, 1))
    d = make_product(left, right)
    assert classify_hypotheses(d).kind is CaseKind.CASE_A
    cert = certify(d)
    assert cert.warnings


def test_certificate_json_audit_trail():
    payload = json.loads(certificate_to_json(certify(WORKED_A)))
    assert payload["schema"] == 1
    assert payload["kind"] == "RigidKummer"
    assert payload["case"] == "CaseB"
    assert payload["kummer"]["euler"] == 20
    assert payload["kummer"]["rigid"] is True
    assert payload["moves"] == []
    payload = json.loads(certificate_to_json(certify(SEEDED_CASE_A)))
    assert payload["kind"] == "RigidProductPartner"
    assert payload["diagram"]["pairs"] == [[9, 8], [1, 2], [1, 1], [1, 0], [0, 1]]
    assert len(payload["moves"]) == 2


def test_62211_good_i2_over_smooth_gets_a_partner():
    # the distinguished I_2 (position 2) maps to I_1, so the partner route works
    left = parse_config("62211")
    right = FiberConfig(("P1", "P3", "P4", "P5"), (6, 2, 3, 1))
    d = make_product(left, right)
    assert d.pairs == ((6, 6), (2, 0), (2, 2), (1, 3), (1, 1))
    cert = certify(d)
    assert cert.kind is CertificateKind.RIGID_PRODUCT_PARTNER
    assert cert.diagram.pairs[1] == (1, 0)


def test_62211_bad_i2_over_smooth_needs_kummer():
    # the other I_2 maps to I_4 in every representative, so only the Kummer
    # construction certifies
    left = parse_config("62211")
    right = FiberConfig(("P1", "P2", "P4", "P5"), (6, 2, 3, 1))
    d = make_product(left, right)
    assert d.pairs == ((6, 6), (2, 2), (2, 0), (1, 3), (1, 1))
    cert = certify(d)
    assert cert.kind is CertificateKind.RIGID_KUMMER
    assert cert.kummer_report.euler == 20
    assert cert.kummer_report.rigid


def test_case_b_with_unit_extra_point_is_already_rigid():
    left = parse_config("44211")
    right = FiberConfig(("P1", "P2", "P3", "P4"), (6, 2, 3, 1))
    d = make_product(left, right)
    assert d.pairs == ((4, 6), (4, 2), (2, 3), (1, 1), (1, 0))
    cert = certify(d)
    assert cert.kind is CertificateKind.RIGID_PRODUCT_PARTNER
    assert cert.diagram == d
    assert cert.moves == ()


def _sample(left_classes, right_classes, common, stride):
    """Every ``stride``-th product of a left and a right table row whose
    right positions sit over the first ``common`` left points, in turn."""
    left_rows = [row for cls in left_classes for row in cls]
    right_rows = [row for cls in right_classes for row in cls]
    diagrams = []
    for left_row, right_row in itertools.product(left_rows, right_rows):
        for positions in itertools.permutations(range(len(right_row)), common):
            labels = [f"Q{i}" for i in range(len(right_row))]
            for k, position in enumerate(positions):
                labels[position] = f"P{k + 1}"
            diagrams.append(make_product(FiberConfig(default_points(len(left_row)), left_row),
                                         FiberConfig(tuple(labels), right_row)))
    return diagrams[::stride]


CASE_A_SAMPLE = _sample(FOUR_FIBER_CLASSES, FOUR_FIBER_CLASSES, 3, 17)
CASE_B_SAMPLE = _sample(FOUR_FIBER_CLASSES, FIVE_FIBER_CLASSES, 4, 55)


def _eager_moves(d, partner):
    """Reference: the moves from ``d`` to ``partner`` built at once, each
    side's gated closure path over that side's points, left first."""
    moves = []
    for side, project in (("left", left_config), ("right", right_config)):
        config = project(d)
        data = _closure_tuples(config.indices, GraphMode.CATALOG_GATED)
        path = data.paths[data.nodes.index(project(partner).indices)]
        for spec in path:
            move = IsogenyMove(spec.p, spec.divided, FiberConfig(config.points, spec.source),
                               FiberConfig(config.points, spec.target))
            moves.append(AppliedMove(side, move))
    return tuple(moves)


def test_lazy_move_log_equals_the_eager_one_and_is_kept():
    checked = 0
    for d in CASE_A_SAMPLE + CASE_B_SAMPLE:
        try:
            cert = certify(d)
        except HypothesesNotMet:
            continue
        if cert.diagram is None:
            continue
        expected = _eager_moves(d, cert.diagram)
        moves, log = cert.moves, cert.diagram.log
        assert moves == expected and log == expected, d.pairs
        assert cert.moves is moves and cert.diagram.log is log
        assert all(a is b for a, b in zip(moves, log))
        if cert.kind is CertificateKind.RIGID_PRODUCT_PARTNER:
            assert find_rigid_partner(d) == (cert.diagram, expected)
        checked += bool(expected)
    assert checked > 300


def test_partner_log_extends_the_input_log():
    move = next(m for m in candidate_moves(left_config(SEEDED_CASE_A), 3)
                if m.target.indices == (9, 1, 1, 1))
    moved = apply_move(SEEDED_CASE_A, "left", move)
    cert = certify(moved)
    assert cert.kind is CertificateKind.RIGID_PRODUCT_PARTNER
    assert cert.moves == _eager_moves(moved, cert.diagram) and len(cert.moves) == 1
    assert json.loads(certificate_to_json(cert))["moves"][0]["side"] == "right"
    assert cert.diagram.log == moved.log + cert.moves
    assert json.loads(certificate_to_json(cert)) == json.loads(certificate_to_json(certify(moved)))


def test_certify_and_its_writers_build_no_typed_move(monkeypatch):
    built = []
    init = IsogenyMove.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(IsogenyMove, "__init__", counting_init)
    certs = [certify(d) for d in CASE_A_SAMPLE]
    texts = [certificate_to_json(cert) + render_certificate(cert) for cert in certs]
    assert not built
    assert sum('"p":' in text for text in texts) > 300  # the writers did print moves
    assert len(certify(SEEDED_CASE_A).moves) == len(built) == 2


@pytest.fixture(scope="module")
def ordered_certificates(case_a_diagrams, case_b_diagrams):
    """(diagram, certificate or the HypothesesNotMet raised) for every
    ordered Case A diagram, then every ordered Case B diagram."""
    results = []
    for d in case_a_diagrams + case_b_diagrams:
        try:
            results.append((d, certify(d)))
        except HypothesesNotMet as exc:
            results.append((d, exc))
    return results


# render_certificate over every ordered Case A and Case B diagram, a
# NotApplicable diagram as its error line
RENDERED_SHA256 = "ce1fa6cecb525456987f69e14ca2d46df38d5d06f31dff081ef16b7344c6f32c"


def test_text_writer_is_pinned_on_every_ordered_diagram(ordered_certificates):
    digest = hashlib.sha256()
    for _, cert in ordered_certificates:
        text = f"NotApplicable: {cert}\n" if isinstance(cert, HypothesesNotMet) else render_certificate(cert)
        digest.update(text.encode())
    assert digest.hexdigest() == RENDERED_SHA256


def test_partner_equals_the_checked_construction(ordered_certificates):
    """The search builds a partner (and a Kummer diagram) from checked parts,
    without the constructor: the constructor accepts the same points and
    pairs and projects the same factors, and the log is the input's plus the
    moves built at once."""
    partners = 0
    for d, cert in ordered_certificates:
        if isinstance(cert, HypothesesNotMet) or cert.diagram is None:
            continue
        partner = cert.diagram
        # while the partner's own path is still untyped: a partner of it
        # keeps that path at the head of its log
        splits = [_class_split(indices, 0) for indices in partner._factors]
        again, path = _partner(partner, splits, *partner._factors)
        assert path == () and again == partner and again._log == partner._log, d.pairs
        checked = ProductDiagram(partner.points, partner.pairs, d.log + _eager_moves(d, partner))
        assert partner == checked and partner._factors == checked._factors, d.pairs
        assert partner.log == checked.log == again.log, d.pairs
        partners += 1
    assert partners == 6663  # 3,604 Case A and 3,059 Case B certificates with a diagram


# certificate_to_json of certify(d, node_count=delta) over every ordered
# Case B diagram, a NotApplicable diagram as its error line; with the
# RigidKummer count and the count of "not rigid" Kummer reasons.  The kummer
# layer re-derives each RigidKummer report from the catalog at that delta.
EXPLICIT_DELTA_PINS = {
    0: ("d4b9944a34692a2bebcf448897cc7e16e35471a486792ba7cf39a8ef3f5c9695", 228, 1980),
    2: ("4fe972ceb4ca464741212f5ae3c8ff7f04c9996ba30549aef2ba59690415bbc9", 390, 1480),
    8: ("7210d39683a463272da9fb1dd28f03e04f03110940334ddf221742fb5d7774d4", 56, 3332),
}


@pytest.mark.parametrize("delta", sorted(EXPLICIT_DELTA_PINS))
def test_explicit_node_count_is_pinned_on_every_ordered_case_b_diagram(case_b_diagrams, delta):
    digest = hashlib.sha256()
    rigid_kummer = not_rigid = 0
    for d in case_b_diagrams:
        try:
            cert = certify(d, node_count=delta)
        except HypothesesNotMet as exc:
            digest.update(f"NotApplicable: {exc}\n".encode())
            continue
        digest.update(certificate_to_json(cert).encode())
        if cert.kind is CertificateKind.RIGID_KUMMER:
            report = kummer_rigidity(kummer_input_from_catalog(cert.diagram, delta))
            assert report == cert.kummer_report, d.pairs
            rigid_kummer += 1
        not_rigid += sum(": not rigid (euler " in reason for reason in cert.reasons)
    assert (digest.hexdigest(), rigid_kummer, not_rigid) == EXPLICIT_DELTA_PINS[delta]


@pytest.mark.parametrize("case, splits, records", [("a", 104, 51), ("b", 157, 66)])
def test_a_sweep_splits_each_class_once_per_facing_positions(request, case, splits, records):
    """A full sweep (the ordered diagrams hold every alignment's pairs)
    splits each class once per (start, facing positions) of a diagram that
    is not rigid already, and writes each diagram pair's record once."""
    _class_split.cache_clear()
    _pair_record.cache_clear()
    for d in request.getfixturevalue(f"case_{case}_diagrams"):
        try:
            certificate_to_json(certify(d))
        except HypothesesNotMet:
            pass
    info = _class_split.cache_info()
    assert info.misses == info.currsize == splits
    info = _pair_record.cache_info()
    assert info.misses == info.currsize == records <= 13 * 13


@pytest.mark.parametrize("case, sorts, kummer_inputs", [
    ("a", {"catalog": 7208}, 0),
    ("b", {"catalog": 9960, "correspondence": 3705, "kummer": 1996}, 390)], ids=["a", "b"])
def test_a_sweep_sorts_each_factor_once_per_certify(request, monkeypatch, case, sorts,
                                                    kummer_inputs):
    """``certify`` reads both factors' class positions once, so the catalog
    sorts each factor once per diagram, and each factor of a Kummer input
    once for its entry; the Kummer route reads the five-fiber entry by the
    partition it has just sorted, without a second sort."""
    counts = Counter()
    inputs = []

    def counting(module):
        def sort(indices):
            counts[module.__name__.rpartition(".")[2]] += 1
            return descending(indices)
        return sort

    for module in (catalog, correspondence, kummer, product):
        monkeypatch.setattr(module, "descending", counting(module))
    from_catalog = correspondence.kummer_input_from_catalog
    monkeypatch.setattr(correspondence, "kummer_input_from_catalog",
                        lambda *args: inputs.append(args) or from_catalog(*args))
    diagrams = request.getfixturevalue(f"case_{case}_diagrams")
    for d in diagrams:
        try:
            certificate_to_json(certify(d))
        except HypothesesNotMet:
            pass
    assert dict(counts) == sorts and len(inputs) == kummer_inputs
    assert counts["catalog"] == 2 * (len(diagrams) + len(inputs))


def test_certify_applies_the_delta_rule_without_rescanning_obstructions(monkeypatch,
                                                                        case_b_diagrams):
    """The class split gives every Kummer candidate exactly one obstruction,
    a lone I_2 x I_0 fiber, so ``certify`` applies the fixed-point rule
    alone: a Case B sweep scans no obstructions in ``kummer`` (it scanned
    1,996 before).  The public rule still checks its input."""
    scans = []

    def scanning(rows):
        scans.append(rows)
        return product._obstructions(rows)

    monkeypatch.setattr(kummer, "_obstructions", scanning)
    rigid_kummer = 0
    for d in case_b_diagrams:
        try:
            rigid_kummer += certify(d).kind is CertificateKind.RIGID_KUMMER
        except HypothesesNotMet:
            pass
    assert (len(scans), rigid_kummer) == (0, 390)
    assert kummer.default_node_count(parse_diagram("3,3,3,3,_ / 4,2,1,1,4")) is None
    assert len(scans) == 1


@pytest.mark.parametrize("node_count", [8.0, 8.5, True, "8"])
def test_certify_refuses_a_node_count_that_is_not_an_int(node_count):
    """8 certifies this diagram by the Kummer route; 8.0 once did too, and
    its certificate JSON then raised TypeError, True counted as 1 and 8.5
    wrote a fractional Euler number."""
    d = parse_diagram("3,3,3,3,_ / 3,3,3,1,2")
    assert certify(d, node_count=8).kind is CertificateKind.RIGID_KUMMER
    with pytest.raises(MalformedInput, match="node count must be an integer"):
        certify(d, node_count=node_count)


@pytest.mark.parametrize("args, fields", [
    ((CertificateKind.NOT_CERTIFIED, HypothesisCase(CaseKind.CASE_B)),
     {"reasons": (1, None), "warnings": ["w"]}),
    (("bogus", "case"), {}),
    ((CertificateKind.NOT_CERTIFIED, CaseKind.CASE_B), {}),
    ((CertificateKind.NOT_CERTIFIED, HypothesisCase(CaseKind.CASE_B)), {"warnings": ("w", b"x")}),
])
def test_certificate_rejects_fields_of_the_wrong_type(args, fields):
    with pytest.raises(MalformedInput):
        Certificate(*args, **fields)


def test_certificate_keeps_reasons_and_warnings_as_tuples():
    cert = Certificate(CertificateKind.NOT_CERTIFIED, HypothesisCase(CaseKind.CASE_B),
                       reasons=["r"], warnings=["w"])
    assert cert.reasons == ("r",) and cert.warnings == ("w",)
    assert certificate_to_json(cert) == certificate_to_json(
        Certificate(CertificateKind.NOT_CERTIFIED, HypothesisCase(CaseKind.CASE_B),
                    reasons=("r",), warnings=("w",)))
