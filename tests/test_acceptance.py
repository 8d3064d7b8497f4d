"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
without ``-s`` pytest shows them for failing criteria only.
"""

import hashlib
import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager

from ellab.catalog import ALL_CLASSES, FIVE_FIBER_CLASSES, FOUR_FIBER_CLASSES
from ellab.configs import FiberConfig, default_points, parse_config, render_config
from ellab.correspondence import CertificateKind, certificate_to_json, certify
from ellab.errors import HypothesesNotMet
from ellab.isogeny import (GraphMode, candidate_moves, closure, dual_move,
                           graph_to_tsv)
from ellab.kummer import (Rationality, fiber_fixed_points, kummer_input_from_catalog,
                          kummer_rigidity, rationality_verdict)
from ellab.product import (apply_move, common_singular_count, is_rigid_criterion,
                           left_config, make_product, parse_diagram, render_diagram,
                           right_config)
from ellab.torsion import (Provenance, TorsionAnswer, excludes_two_torsion,
                           sufficient_torsion_criterion, torsion_status)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def cfg(indices):
    return FiberConfig(default_points(len(indices)), tuple(indices))


# ---------------------------------------------------------------- criterion 1

BEAUVILLE_TSV = {
    "3333": "3333\n9111\n1911\n1191\n1119\n",
    "4422": "4422\n2244\n8211\n2811\n1182\n1128\n",
    "6231": "6231\n2613\n3162\n1326\n",
    "5511": "5511\n1155\n",
}


def test_criterion_1_beauville_table_reproduction():
    with criterion("ACCEPTANCE 1 (Beauville table reproduction)"):
        start = time.perf_counter()
        sizes = {}
        for head, expected in BEAUVILLE_TSV.items():
            graph = closure(parse_config(head), GraphMode.COMBINATORIAL)
            assert graph_to_tsv(graph) == expected, head
            sizes[head] = len(graph.nodes)
        assert sizes == {"3333": 5, "4422": 6, "6231": 4, "5511": 2}
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_five_fiber_table_reproduction():
    with criterion("ACCEPTANCE 2 (five-fiber table reproduction)"):
        start = time.perf_counter()
        for column in FIVE_FIBER_CLASSES:
            column_set = set(column)
            partitions = {tuple(sorted(row, reverse=True)) for row in column}
            for row in column:
                gated = closure(cfg(row), GraphMode.CATALOG_GATED)
                assert {n.indices for n in gated.nodes} == column_set, row
                free = closure(cfg(row), GraphMode.COMBINATORIAL)
                nodes = {n.indices for n in free.nodes}
                # superset: every table row is generated
                assert column_set <= nodes, row
                # partition-level exactness, extras are position variants
                assert {tuple(sorted(t, reverse=True)) for t in nodes} == partitions, row
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_torsion_oracle_consistency():
    with criterion("ACCEPTANCE 3 (torsion oracle consistency)"):
        start = time.perf_counter()
        singletons = {cls[0] for cls in ALL_CLASSES if len(cls) == 1}
        for cls in ALL_CLASSES:
            rows = set(cls)
            for row in cls:
                config = cfg(row)
                for p in (2, 3, 5):
                    status = torsion_status(config, p)  # raises on Yes/No clash
                    sufficient = sufficient_torsion_criterion(config, p)
                    excluded = p == 2 and excludes_two_torsion(config)
                    moves = candidate_moves(config, p)
                    assert not (sufficient and excluded), (row, p)
                    assert not (sufficient and not moves), (row, p)
                    if any(m.target.indices in rows for m in moves):
                        assert status.answer is TorsionAnswer.YES, (row, p, status)
                if row in singletons:
                    for p in (2, 3, 5):
                        status = torsion_status(config, p)
                        assert status.answer is TorsionAnswer.NO, (row, p, status)
                        assert Provenance.MOVE_NONEXISTENCE in status.provenances
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_kummer_worked_examples():
    with criterion("ACCEPTANCE 4 (Kummer worked examples)"):
        first = kummer_rigidity(kummer_input_from_catalog(
            parse_diagram("4,4,2,1,1 / 6,2,_,3,1"), node_count=2))
        assert first.euler == 20
        assert (first.component_min, first.component_max) == (9, 10)
        assert first.rationality is Rationality.FORCED
        assert first.rigid is True
        second = kummer_rigidity(kummer_input_from_catalog(
            parse_diagram("3,3,2,3,1 / 8,2,_,1,1"), node_count=2))
        assert second.euler == 12
        assert (second.component_min, second.component_max) == (6, 6)
        assert second.rationality is Rationality.FORCED
        assert second.rigid is True


# ---------------------------------------------------------------- criterion 5

def _alignments(left_rows, right_rows, common):
    """Every product of a left and a right row whose factors share exactly
    ``common`` points; unaligned right points get fresh labels Q1, Q2, ..."""
    for left_row, right_row in itertools.product(left_rows, right_rows):
        left = cfg(left_row)
        n = len(right_row)
        for left_positions in itertools.combinations(range(len(left_row)), common):
            for right_positions in itertools.permutations(range(n), common):
                labels = [None] * n
                for rp, lp in zip(right_positions, left_positions):
                    labels[rp] = left.points[lp]
                fresh = iter(f"Q{i}" for i in range(1, n + 1))
                labels = [label or next(fresh) for label in labels]
                yield make_product(left, FiberConfig(tuple(labels), right_row))


FOUR_FIBER_ROWS = [row for cls in FOUR_FIBER_CLASSES for row in cls]
FIVE_FIBER_ROWS = [row for cls in FIVE_FIBER_CLASSES for row in cls]


def _case_a_instances():
    """Every alignment of two Beauville table rows with 3 common points."""
    return _alignments(FOUR_FIBER_ROWS, FOUR_FIBER_ROWS, 3)


def _case_b_instances():
    """Every alignment of a four-fiber row with a five-fiber row on 4 common points."""
    return _alignments(FOUR_FIBER_ROWS, FIVE_FIBER_ROWS, 4)


def _certify_all(diagrams):
    """(diagram, certificate or the HypothesesNotMet raised) per diagram."""
    results = []
    for diagram in diagrams:
        try:
            results.append((diagram, certify(diagram)))
        except HypothesesNotMet as exc:
            results.append((diagram, exc))
    return results


def _golden(results):
    """sha256 over the outputs in enumeration order and the outcome histogram.

    Every input must survive a render/parse round trip.  Every certificate's
    move log is replayed through ``apply_move`` from the input and must give
    the certified diagram; a partner must be rigid.
    """
    digest = hashlib.sha256()
    outcomes = Counter()
    for diagram, cert in results:
        assert parse_diagram(render_diagram(diagram)).pairs == diagram.pairs
        if isinstance(cert, HypothesesNotMet):
            outcomes["NotApplicable"] += 1
            digest.update(f"NotApplicable: {cert}\n".encode())
            continue
        outcomes[str(cert.kind)] += 1
        digest.update(certificate_to_json(cert).encode())
        if cert.diagram is None:
            assert not cert.moves
            continue
        replayed = diagram
        for applied in cert.moves:
            replayed = apply_move(replayed, applied.side, applied.move)
        assert replayed.pairs == cert.diagram.pairs, diagram.pairs
        if cert.kind is CertificateKind.RIGID_PRODUCT_PARTNER:
            assert is_rigid_criterion(cert.diagram), diagram.pairs
    return digest.hexdigest(), dict(outcomes)


CASE_A_SHA256 = "08edcebd4c3782d9a87ccd3538faebf9e479ddb02b30b4f3e22aacdc08b94017"
CASE_B_SHA256 = "340cf38f16f9b2525aa765e2cd7eb0f03f08a6698370b0dba7638ca4658a5917"


def test_criterion_5_rigid_partner_search():
    with criterion("ACCEPTANCE 5 (rigid partner search)"):
        start = time.perf_counter()
        seeded = parse_diagram("3,3,3,3,_ / 4,4,2,_,2")
        cert = certify(seeded)
        assert cert.kind is CertificateKind.RIGID_PRODUCT_PARTNER
        assert cert.diagram.pairs == ((9, 8), (1, 2), (1, 1), (1, 0), (0, 1))
        assert is_rigid_criterion(cert.diagram)
        results = []
        for diagram in _case_a_instances():
            cert = certify(diagram)
            assert cert.kind is CertificateKind.RIGID_PRODUCT_PARTNER, diagram.pairs
            results.append((diagram, cert))
        assert len(results) == 17 * 17 * 4 * 24
        assert time.perf_counter() - start < 10.0
        # checked off the clock: the bound above times the search only
        assert _golden(results) == (CASE_A_SHA256, {"RigidProductPartner": 27744})


def test_criterion_5b_case_b_sweep():
    with criterion("ACCEPTANCE 5b (Case B certification sweep)"):
        results = _certify_all(_case_b_instances())
        assert len(results) == 17 * 11 * 120
        assert _golden(results) == (CASE_B_SHA256, {
            "RigidProductPartner": 13872, "RigidKummer": 1720,
            "NotCertified": 5216, "NotApplicable": 1632})
        # the kummer layer re-derives every Kummer certificate with its own
        # default node count
        for diagram, cert in results:
            if not isinstance(cert, HypothesesNotMet) \
                    and cert.kind is CertificateKind.RIGID_KUMMER:
                report = kummer_rigidity(kummer_input_from_catalog(cert.diagram))
                assert report == cert.kummer_report, diagram.pairs


# ---------------------------------------------------------------- criterion 6

def _compositions():
    """Every ordered composition of 12 with at least four parts."""
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (12,)))
            for n_cuts in range(3, 12) for cuts in itertools.combinations(range(1, 12), n_cuts)]


def test_criterion_6a_move_targets_and_duality():
    with criterion("ACCEPTANCE 6a (move sum conservation, dual involution, closure symmetry, "
                   "config round trip)"):
        compositions = _compositions()
        assert len(set(compositions)) == 1981
        reach = {c: {node.indices for node in closure(cfg(c), GraphMode.COMBINATORIAL).nodes}
                 for c in compositions}
        moves = 0
        for composition in compositions:
            config = cfg(composition)
            assert parse_config(render_config(config)) == config
            for p in (2, 3, 5):
                for move in candidate_moves(config, p):
                    assert sum(move.target.indices) == 12
                    assert dual_move(dual_move(move)) == move
                    moves += 1
            # y lies in closure(x) iff x lies in closure(y)
            for node in reach[composition]:
                assert composition in reach[node], (composition, node)
        assert moves == 892


def test_criterion_6b_fixed_point_values():
    with criterion("ACCEPTANCE 6b (fixed point values and symmetry)"):
        for a in range(13):
            for b in range(13):
                value = fiber_fixed_points(a, b)
                assert value in (9, 12, 16)
                assert value == fiber_fixed_points(b, a)


def test_criterion_6c_forced_rationality():
    with criterion("ACCEPTANCE 6c (forced rationality at the euler bound)"):
        for c in range(1, 101):
            assert rationality_verdict(2 * c, 1, c) is Rationality.FORCED


def test_criterion_6d_randomized_move_application():
    with criterion("ACCEPTANCE 6d (randomized move application)"):
        rng = random.Random(1357)
        rows = [row for cls in ALL_CLASSES for row in cls]
        checked = 0
        while checked < 1000:
            left_row = rng.choice(rows)
            right_row = rng.choice(rows)
            overlap = rng.randint(4, min(len(left_row), len(right_row)))
            labels = [f"P{i + 1}" for i in range(overlap)]
            labels += [f"Q{i}" for i in range(len(right_row) - overlap)]
            diagram = make_product(cfg(left_row),
                                   FiberConfig(tuple(labels), right_row))
            side = rng.choice(["left", "right"])
            factor = left_config(diagram) if side == "left" else right_config(diagram)
            moves = [m for p in (2, 3, 5) for m in candidate_moves(factor, p)]
            if not moves:
                continue
            moved = apply_move(diagram, side, rng.choice(moves))
            assert moved.singular_count == diagram.singular_count
            assert common_singular_count(moved) == common_singular_count(diagram)
            assert sum(a for a, _ in moved.pairs) == 12
            assert sum(b for _, b in moved.pairs) == 12
            checked += 1
