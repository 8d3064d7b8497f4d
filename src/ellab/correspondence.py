"""Certification of product diagrams against a rigid Calabi-Yau partner.

Two hypothesis cases are supported:

* Case A: both factors have four singular fibers and exactly three common
  singular base points;
* Case B: one factor has four singular fibers, the other five, exactly four
  common singular points, no smooth-paired I_5 or I_7 fiber, and no
  smooth-paired I_6 fiber when the five-fiber factor is 62211.

Certification first searches the factor classes for a rigid fiber-product
partner.  A point is obstructed only where one factor is smooth, and then
only the other factor's index counts, so each class is searched on its own.
Failing that, the Kummer route takes the representative pairs whose one
obstruction is an I_2 x I_0 fiber, the input pair first: when the
five-fiber factor has branch component degrees in the catalog (today 33321,
44211 and 62211, the partitions with a quartic model whose I_2 fibers come
from nodes), the fiberwise Kummer quotient of that pair is tested for
rigidity.  Anything else is honestly NotCertified.
"""

from __future__ import annotations

from _json import encode_basestring_ascii  # as in ellab.configs
from enum import Enum
from functools import lru_cache

from .catalog import _ENTRY_BY_PARTITION
from .configs import _Record, _canonical_json, descending, index_text
from .errors import HypothesesNotMet, MalformedInput
from .kummer import (KummerReport, _checked_node_count, _pattern_node_count, _report_payload,
                     kummer_input_from_catalog, kummer_rigidity)
from .product import (AppliedMove, ProductDiagram, _class_positions, _class_splits, _log_specs,
                      _move_record, _obstructions, _pair_rows, _partner, _rigid_partner,
                      common_singular_count, render_diagram)


@lru_cache(maxsize=None)  # keys: class nodes, index tuples of at most 1,981 compositions
def _node_text(node):
    """:func:`ellab.configs.index_text` of a class node, cached."""
    return index_text(node)


class CaseKind(Enum):
    CASE_A = "CaseA"
    CASE_B = "CaseB"
    NOT_APPLICABLE = "NotApplicable"

    def __str__(self):
        return self.value


class HypothesisCase(_Record):
    __slots__ = ("kind", "reason")

    def __init__(self, kind: CaseKind, reason: str | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "reason", reason)


class CertificateKind(Enum):
    RIGID_PRODUCT_PARTNER = "RigidProductPartner"
    RIGID_KUMMER = "RigidKummer"
    NOT_CERTIFIED = "NotCertified"

    def __str__(self):
        return self.value


class Certificate(_Record):
    __slots__ = ("kind", "case", "diagram", "_moves", "kummer_report", "reasons", "warnings")
    _fields = ("kind", "case", "diagram", "moves", "kummer_report", "reasons", "warnings")

    def __init__(self, kind: CertificateKind, case: HypothesisCase,
                 diagram: ProductDiagram | None = None, moves: tuple[AppliedMove, ...] = (),
                 kummer_report: KummerReport | None = None, reasons: tuple[str, ...] = (),
                 warnings: tuple[str, ...] = ()):
        reasons, warnings = tuple(reasons), tuple(warnings)  # texts: the writers take exactly str
        moves = tuple(moves)
        if (type(kind) is not CertificateKind or not isinstance(case, HypothesisCase)
                or not all(type(text) is str for text in reasons + warnings)):
            raise MalformedInput(f"a certificate needs a CertificateKind, a HypothesisCase and "
                                 f"str texts, got {kind!r}, {case!r}, {reasons}, {warnings}")
        if (not isinstance(diagram, (ProductDiagram, type(None)))
                or not all(isinstance(move, AppliedMove) for move in moves)
                or not isinstance(kummer_report, (KummerReport, type(None)))):
            raise MalformedInput(f"a certificate needs a ProductDiagram or None, AppliedMoves and a "
                                 f"KummerReport or None, got {diagram!r}, {moves!r}, {kummer_report!r}")
        self._set_fields(kind, case, diagram, (moves, ()), kummer_report, reasons, warnings)

    @property
    def moves(self) -> tuple[AppliedMove, ...]:
        """The moves reaching the diagram.  A path from :func:`certify` is
        read as the tail of the diagram's log on first read, and kept."""
        moves, path = self._moves
        if path:
            log = self.diagram.log
            moves = log[len(log) - len(path):]
            object.__setattr__(self, "_moves", (moves, ()))
        return moves


def classify_hypotheses(d: ProductDiagram) -> HypothesisCase:
    """Sort a diagram into Case A, Case B, or NotApplicable with the violated clause."""
    _class_positions(d)
    return _hypothesis_case(d)


def _hypothesis_case(d: ProductDiagram) -> HypothesisCase:
    """:func:`classify_hypotheses` of a diagram whose factors are checked
    admissible."""
    left, right = d._factors
    n_left, n_right = len(left), len(right)
    common = common_singular_count(d)
    if n_left == 4 and n_right == 4:
        if common == 3:
            return HypothesisCase(CaseKind.CASE_A)
        return HypothesisCase(
            CaseKind.NOT_APPLICABLE,
            f"four-fiber factors need 3 common singular fibers, found {common}")
    if {n_left, n_right} == {4, 5}:
        if common != 4:
            return HypothesisCase(
                CaseKind.NOT_APPLICABLE,
                f"mixed 4/5-fiber factors need 4 common singular fibers, found {common}")
        left_obstructions, right_obstructions = _obstructions(d.pairs)
        for n in left_obstructions + right_obstructions:
            if n in (5, 7):
                return HypothesisCase(
                    CaseKind.NOT_APPLICABLE, f"smooth-paired I_{n} fiber excluded")
            if n == 6 and descending(left if n_left == 5 else right) == (6, 2, 2, 1, 1):
                return HypothesisCase(
                    CaseKind.NOT_APPLICABLE,
                    "smooth-paired I_6 fiber excluded for a 62211 factor")
        return HypothesisCase(CaseKind.CASE_B)
    return HypothesisCase(
        CaseKind.NOT_APPLICABLE,
        f"factors must have 4+4 or 4+5 singular fibers, found {n_left}+{n_right}")


def certify(d: ProductDiagram, node_count: int | None = None) -> Certificate:
    """Attempt both certification routes in deterministic priority order.

    Both read the factors' class splits.  The rigid-partner search runs
    first; when it fails one side has no unobstructed node, so the Kummer
    route tries that side's lone-I_2 nodes against the other side's
    unobstructed ones, input pair first, with the five-fiber factor in scope
    (its catalog entry records branch component degrees).  A given
    ``node_count`` must be a non-negative int; without it the delta rule
    of :mod:`ellab.kummer` decides, and a pair it leaves unknown is skipped
    with a reason.
    """
    _checked_node_count(node_count)
    left_class, right_class = _class_positions(d)
    case = _hypothesis_case(d)
    if case.kind is CaseKind.NOT_APPLICABLE:
        raise HypothesesNotMet(case.reason)
    warnings = ()
    if left_class == right_class:
        warnings = ("factors share an isogeny class; the constructions assume non-isogenous factors",)

    splits = _class_splits(d)
    found = _rigid_partner(d, splits)
    if found is not None:
        return _certificate(CertificateKind.RIGID_PRODUCT_PARTNER, case, *found, warnings=warnings)

    reasons = ["no rigid fiber-product partner among the class representatives"]
    if case.kind is CaseKind.CASE_A:
        reasons.append("no five-fiber factor, so the Kummer route does not apply")
        return _certificate(CertificateKind.NOT_CERTIFIED, case, None, (),
                            reasons=tuple(reasons), warnings=warnings)
    (l_free, l_lone, _), (r_free, r_lone, _) = splits
    candidates = [(l, r) for l in l_free for r in r_lone] + [(l, r) for l in l_lone for r in r_free]
    candidates.sort(key=lambda pair: pair != d._factors)  # the input pair first
    for l_tuple, r_tuple in candidates:
        five_partition = descending(l_tuple if len(l_tuple) == 5 else r_tuple)
        label = f"{_node_text(l_tuple)} x {_node_text(r_tuple)}"
        if _ENTRY_BY_PARTITION[five_partition].branch_component_degrees is None:
            reasons.append(
                f"kummer route {label}: five-fiber partition {five_partition} has no "
                "quartic model with node-induced I_2 fibers")
            continue
        # the split makes every candidate's one obstruction a lone I_2 x I_0 fiber
        delta = node_count if node_count is not None \
            else _pattern_node_count(_pair_rows(d.pairs, l_tuple, r_tuple))
        if delta is None:
            reasons.append(f"kummer route {label}: node count of the fixed curve unknown")
            continue
        candidate, path = _partner(d, splits, l_tuple, r_tuple)
        report = kummer_rigidity(kummer_input_from_catalog(candidate, delta))
        if report.rigid:
            return _certificate(CertificateKind.RIGID_KUMMER, case, candidate, path,
                                kummer_report=report, warnings=warnings)
        reasons.append(
            f"kummer route {label}: not rigid (euler {report.euler}, components "
            f"{report.component_min}..{report.component_max}, {report.rationality}, "
            f"equisingular_zero={report.equisingular_zero})")
    return _certificate(CertificateKind.NOT_CERTIFIED, case, None, (),
                        reasons=tuple(reasons), warnings=warnings)


def _certificate(kind, case, diagram, path, kummer_report=None, reasons=(), warnings=()):
    """A certificate of checked parts, built without the constructor's checks;
    its moves are ``path``, (side, _MoveSpec) pairs from
    :func:`ellab.product._partner`, typed when they are read."""
    cert = Certificate.__new__(Certificate)
    cert._set_fields(kind, case, diagram, ((), path), kummer_report, reasons, warnings)
    return cert


@lru_cache(maxsize=None)  # keys: (a, b), at most 13 x 13
def _pair_record(a, b):
    """The JSON text of one diagram pair (two ints) at its depth in a
    certificate, written once per (a, b)."""
    return f"[\n        {a},\n        {b}\n      ]"


def _json_list(texts, newline) -> str:
    """A JSON list of item texts, each after ``newline`` (a newline and the
    items' indent), with the closing bracket two spaces further out."""
    if not texts:
        return "[]"
    return "[" + newline + ("," + newline).join(texts) + newline[:-2] + "]"


def certificate_to_json(cert: Certificate) -> str:
    """The schema-1 certificate, written from its fixed key order: byte-equal
    to :func:`ellab.configs._canonical_json` of the payload with keys case,
    diagram (pairs, points), kind, kummer, moves, reasons, schema and
    warnings.  Move records and the Kummer block are their canonical text at
    indent 0, with each newline re-indented to their depth here."""
    d = cert.diagram
    if d is None:
        diagram = "null"
    else:
        pairs = _json_list([_pair_record(a, b) for a, b in d.pairs], "\n      ")
        points = _json_list(list(map(encode_basestring_ascii, d.points)), "\n      ")
        diagram = f'{{\n    "pairs": {pairs},\n    "points": {points}\n  }}'
    kummer = "null" if cert.kummer_report is None \
        else _canonical_json(_report_payload(cert.kummer_report))[:-1].replace("\n", "\n  ")
    moves = _json_list([_move_record(*pair).replace("\n", "\n    ")
                        for pair in _log_specs(cert._moves)], "\n    ")
    reasons = _json_list(list(map(encode_basestring_ascii, cert.reasons)), "\n    ")
    warnings = _json_list(list(map(encode_basestring_ascii, cert.warnings)), "\n    ")
    return (f'{{\n  "case": "{cert.case.kind.value}",\n  "diagram": {diagram},\n'
            f'  "kind": "{cert.kind.value}",\n  "kummer": {kummer},\n  "moves": {moves},\n'
            f'  "reasons": {reasons},\n  "schema": 1,\n  "warnings": {warnings}\n}}\n')


def render_certificate(cert: Certificate) -> str:
    lines = [f"case: {cert.case.kind}", f"kind: {cert.kind}"]
    if cert.diagram is not None:
        lines.append(f"diagram: {render_diagram(cert.diagram)}")
    for side, spec in _log_specs(cert._moves):
        lines.append(f"move: {side} p={spec.p} {index_text(spec.source)} -> {index_text(spec.target)}")
    if cert.kummer_report is not None:
        report = cert.kummer_report
        lines.append(f"euler: {report.euler}")
        lines.append(f"components: {report.component_min}..{report.component_max}")
        lines.append(f"rationality: {report.rationality}")
        lines.append(f"rigid: {'true' if report.rigid else 'false'}")
    for reason in cert.reasons:
        lines.append(f"reason: {reason}")
    for warning in cert.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"
