import itertools
import random

import pytest

from ellab.catalog import ADMISSIBLE_PARTITIONS, ALL_CLASSES
from ellab.configs import FiberConfig, default_points, descending, parse_config
from ellab.errors import (ConflictingLabels, MalformedInput, NotInCatalog, SideMismatch,
                          TooFewFibers)
from ellab.isogeny import GraphMode, _closure_tuples, candidate_moves, closure
from ellab.product import (ProductDiagram, _class_split, _class_splits, _obstructions, _pair_rows,
                           _partner, apply_move, common_singular_count,
                           diagram_to_json, factors_share_class,
                           find_rigid_partner, is_rigid_criterion, left_config,
                           make_product, parse_diagram, render_diagram,
                           right_config)


def cfg(indices, labels=None):
    return FiberConfig(labels or default_points(len(indices)), tuple(indices))


def test_make_product_full_alignment():
    d = make_product(parse_config("3333"), parse_config("9111"))
    assert d.pairs == ((3, 9), (3, 1), (3, 1), (3, 1))
    assert d.singular_count == 4


def test_make_product_partial_overlap():
    left = parse_config("44211")
    right = cfg((6, 2, 3, 1), ("P1", "P2", "P4", "P5"))
    d = make_product(left, right)
    assert d.points == ("P1", "P2", "P3", "P4", "P5")
    assert d.pairs == ((4, 6), (4, 2), (2, 0), (1, 3), (1, 1))


def test_make_product_positioned_variant():
    left = cfg((3, 3, 2, 3, 1))
    right = cfg((8, 2, 1, 1), ("P1", "P2", "P4", "P5"))
    d = make_product(left, right)
    assert d.pairs == ((3, 8), (3, 2), (2, 0), (3, 1), (1, 1))


def test_make_product_explicit_alignment():
    left = parse_config("3333")
    right = cfg((4, 4, 2, 2), ("Q1", "Q2", "Q3", "Q4"))
    d = make_product(left, right, {"Q1": "P1", "Q2": "P2", "Q3": "P3"})
    assert d.points == ("P1", "P2", "P3", "P4", "Q4")
    assert d.pairs == ((3, 4), (3, 4), (3, 2), (3, 0), (0, 2))


def test_make_product_conflicting_labels():
    left = parse_config("3333")
    right = parse_config("4422")
    with pytest.raises(ConflictingLabels):
        make_product(left, right, {"P1": "P1", "P2": "P2", "P3": "P3"})  # P4 collides
    with pytest.raises(ConflictingLabels):
        make_product(left, right, {"P1": "P1", "P2": "P1", "P3": "P2", "P4": "P3"})
    with pytest.raises(ConflictingLabels, match="alignment keys not among right factor points"):
        make_product(left, right, {"Q1": "P1"})
    with pytest.raises(ConflictingLabels, match="alignment targets not among left factor points"):
        make_product(left, right, {"P1": "Q1"})


def test_diagram_invariants():
    with pytest.raises(MalformedInput):
        ProductDiagram(("P1", "P2", "P3", "P4"), ((3, 9), (3, 1), (3, 1), (3, 2)))
    with pytest.raises(MalformedInput):
        ProductDiagram(("P1", "P2", "P3", "P4", "P5"),
                       ((3, 9), (3, 1), (3, 1), (3, 1), (0, 0)))
    with pytest.raises(MalformedInput, match="one point label per fiber pair"):
        ProductDiagram(("P1", "P2", "P3"), ((3, 9), (3, 1), (3, 1), (3, 1)))
    with pytest.raises(MalformedInput, match="point labels must be pairwise distinct"):
        ProductDiagram(("P1", "P1", "P3", "P4"), ((3, 9), (3, 1), (3, 1), (3, 1)))
    with pytest.raises(MalformedInput, match="fiber indices must be non-negative"):
        ProductDiagram(("P1", "P2", "P3", "P4"), ((3, 9), (3, 1), (-3, 1), (9, 1)))
    # indices are never coerced: 3.9 is not read as 3, nor '3' as 3
    for pairs in (((3.9, 9), (3, 1), (3, 1), (3.1, 1)), (("3", 9), (3, 1), (3, 1), (3, 1))):
        with pytest.raises(MalformedInput, match="fiber indices must be integers"):
            ProductDiagram(("P1", "P2", "P3", "P4"), pairs)
    # a factor with two fibers; index sums are checked before fiber counts
    with pytest.raises(TooFewFibers) as excinfo:
        ProductDiagram(("P1", "P2", "P3", "P4"), ((6, 3), (6, 3), (0, 3), (0, 3)))
    assert str(excinfo.value) == "need at least 4 singular fibers, got 2"
    with pytest.raises(MalformedInput) as excinfo:
        ProductDiagram(("P1", "P2", "P3", "P4"), ((6, 3), (6, 3), (0, 3), (0, 4)))
    assert str(excinfo.value) == "each factor must have index sum 12, got 13"


@pytest.mark.parametrize("pairs", [((9, 3), (True, 3), (1, 3), (1, 3)),
                                   ((9, 3), (1, 3), (1, 3), (1, 2), (False, True))])
def test_diagram_rejects_bool_indices(pairs):
    """True equals 1 and False equals 0, so without this check the first
    pairs would project the left factor (9, True, 1, 1), and the second
    would hold a smooth False point."""
    with pytest.raises(MalformedInput, match="fiber indices must be integers"):
        ProductDiagram(default_points(len(pairs)), pairs)


@pytest.mark.parametrize("points", [(1, 2, 3, 4, 5), ("P1", "P2", 3.0, "P4", "P5"),
                                    (None, "P2", "P3", "P4", "P5"), (("P1",), "P2", "P3", "P4", "P5")])
def test_diagram_rejects_labels_that_are_not_str(points):
    """With int labels the worked example's Kummer report once raised
    TypeError in its text writer; a float label did in the JSON writer."""
    pairs = parse_diagram("4,4,2,1,1 / 6,2,_,3,1").pairs
    with pytest.raises(MalformedInput, match="point labels must be strings"):
        ProductDiagram(points, pairs)


@pytest.mark.parametrize("pairs,expected", [
    (((3, 9), (3, 1), (3, 1), (3, 1)), 4),
    (((4, 6), (4, 2), (2, 0), (1, 3), (1, 1)), 4),
    (((3, 4), (3, 4), (3, 2), (3, 0), (0, 2)), 3),
])
def test_common_singular_count(pairs, expected):
    d = ProductDiagram(default_points(len(pairs)), pairs)
    assert common_singular_count(d) == expected


@pytest.mark.parametrize("pairs,expected", [
    (((9, 8), (1, 2), (1, 1), (1, 0), (0, 1)), True),
    (((4, 6), (4, 2), (2, 0), (1, 3), (1, 1)), False),
    (((3, 9), (3, 1), (3, 1), (3, 1)), True),
])
def test_is_rigid_criterion(pairs, expected):
    d = ProductDiagram(default_points(len(pairs)), pairs)
    assert is_rigid_criterion(d) is expected


def test_apply_move_left():
    d = make_product(parse_config("3333"), parse_config("9111"))
    move = next(m for m in candidate_moves(left_config(d), 3)
                if m.target.indices == (9, 1, 1, 1))
    moved = apply_move(d, "left", move)
    assert moved.pairs == ((9, 9), (1, 1), (1, 1), (1, 1))
    assert moved.log[-1].side == "left"
    assert moved.log[-1].move == move


def test_apply_move_right_partial_overlap():
    d = parse_diagram("4,4,2,1,1 / 6,2,_,3,1")
    move = next(m for m in candidate_moves(right_config(d), 3))
    assert move.target.indices == (2, 6, 1, 3)
    moved = apply_move(d, "right", move)
    assert moved.pairs == ((4, 2), (4, 6), (2, 0), (1, 1), (1, 3))


def test_apply_move_side_mismatch():
    d = make_product(parse_config("3333"), parse_config("9111"))
    move = candidate_moves(parse_config("4422"), 2)[0]
    with pytest.raises(SideMismatch):
        apply_move(d, "left", move)
    with pytest.raises(SideMismatch) as excinfo:
        apply_move(d, "right", candidate_moves(parse_config("3333"), 3)[0])
    assert str(excinfo.value) == (
        "right factor is (9, 1, 1, 1) over ('P1', 'P2', 'P3', 'P4'), "
        "move starts from (3, 3, 3, 3) over ('P1', 'P2', 'P3', 'P4')")


def test_apply_move_rejects_unknown_side():
    d = make_product(parse_config("3333"), parse_config("9111"))
    move = candidate_moves(left_config(d), 3)[0]
    with pytest.raises(MalformedInput, match="side must be 'left' or 'right', got 'middle'"):
        apply_move(d, "middle", move)


def test_apply_move_preserves_counts_and_sums():
    d = parse_diagram("4,4,2,1,1 / 6,2,_,3,1")
    move = candidate_moves(right_config(d), 3)[0]
    moved = apply_move(d, "right", move)
    assert moved.singular_count == d.singular_count
    assert common_singular_count(moved) == common_singular_count(d)
    assert sum(a for a, _ in moved.pairs) == 12
    assert sum(b for _, b in moved.pairs) == 12


def test_find_rigid_partner_seeded():
    d = ProductDiagram(default_points(5), ((3, 4), (3, 4), (3, 2), (3, 0), (0, 2)))
    partner, moves = find_rigid_partner(d)
    assert partner.pairs == ((9, 8), (1, 2), (1, 1), (1, 0), (0, 1))
    assert is_rigid_criterion(partner)
    assert [(a.side, a.move.source.indices, a.move.target.indices) for a in moves] == [
        ("left", (3, 3, 3, 3), (9, 1, 1, 1)),
        ("right", (4, 4, 2, 2), (8, 2, 1, 1)),
    ]


def _exhaustive_partner(d):
    """Reference pair walk: the input pair first, then every pair of gated
    class nodes in descending order; the first rigid one wins."""
    left, right = left_config(d).indices, right_config(d).indices
    left_reps = [n.indices for n in closure(left_config(d), GraphMode.CATALOG_GATED).nodes]
    right_reps = [n.indices for n in closure(right_config(d), GraphMode.CATALOG_GATED).nodes]
    pairs = sorted(((lt, rt) for lt in left_reps for rt in right_reps), reverse=True)
    for lt, rt in [(left, right)] + pairs:
        slots_l, slots_r = iter(lt), iter(rt)
        rows = [(next(slots_l) if a else 0, next(slots_r) if b else 0) for a, b in d.pairs]
        if not any((a == 0 and b >= 2) or (b == 0 and a >= 2) for a, b in rows):
            return lt, rt
    return None


@pytest.mark.parametrize("swap", [False, True], ids=["as-given", "swapped"])
@pytest.mark.parametrize("text", [
    "3,3,3,3,_ / 4,4,2,_,2",
    # rigid input: its own partner, although 9111 x 9111 sorts first
    "9,1,1,1,_ / 1,9,1,_,1",
    # the left input is unobstructed, yet the left pick is 9111: the input
    # goes first as a pair, not per side
    "1,9,1,1,_ / 3,3,3,_,3",
], ids=["seeded", "rigid-input", "unobstructed-left-input"])
def test_find_rigid_partner_matches_exhaustive_oracle(text, swap):
    d = parse_diagram(text)
    if swap:
        d = ProductDiagram(d.points, tuple((b, a) for a, b in d.pairs))
    expected = _exhaustive_partner(d)
    assert expected is not None
    partner, moves = find_rigid_partner(d)
    assert (left_config(partner).indices, right_config(partner).indices) == expected
    if expected == (left_config(d).indices, right_config(d).indices):
        assert partner == d and moves == ()
    else:
        assert moves


def test_positional_test_equals_pair_rows_on_every_small_composition():
    """Each admissible composition of at most 5 fibers, as either factor,
    against every subset of its positions facing a smooth fiber: the class
    split read off the facing positions holds the class nodes, in descending
    order, that ``_obstructions`` finds unobstructed, and those it finds
    obstructed by a lone I_2, on the rows with the node substituted."""
    cases = 0
    for n_cuts in (3, 4):
        for cuts in itertools.combinations(range(1, 12), n_cuts):
            composition = tuple(b - a for a, b in zip((0,) + cuts, cuts + (12,)))
            if descending(composition) not in ADMISSIBLE_PARTITIONS:
                continue
            nodes = tuple(reversed(_closure_tuples(composition, True).nodes))
            n = len(composition)
            for size in range(n + 1):
                for facing in itertools.combinations(range(n), size):
                    # the other factor: I_1 where not facing, then enough
                    # points of its own to reach 4 fibers and index sum 12
                    # (so that it is obstructed, and the diagram not rigid)
                    other = [0 if i in facing else 1 for i in range(n)]
                    extra = max(1, 4 - (n - size))
                    own = [12 - (n - size) - (extra - 1)] + [1] * (extra - 1)
                    rows = list(zip(composition, other)) + [(0, k) for k in own]
                    ones = tuple(k for k in other if k) + tuple(own)
                    for side in (0, 1):
                        pairs = rows if side == 0 else [(b, a) for a, b in rows]
                        d = ProductDiagram(default_points(len(pairs)), pairs)
                        expected = {(): [], (2,): []}
                        for node in nodes:
                            substituted = _pair_rows(pairs, *((node, ones) if side == 0 else (ones, node)))
                            obstructions = tuple(_obstructions(substituted)[side])
                            expected.get(obstructions, []).append(node)
                        assert _class_splits(d)[side][:2] == (tuple(expected[()]), tuple(expected[(2,)]))
                        cases += 1
    assert cases == 2 * 9488  # 53 four-fiber compositions x 16 subsets, 270 five-fiber x 32


def test_partner_path_specs_are_the_closure_entrys_own_objects():
    """For each of the 323 admissible compositions of at most 5 fibers, the
    class split carries the gated closure entry itself, and a partner built
    at each node of it, on either side, logs the entry's own path specs to
    that node, the same objects while the closure stays cached."""
    _class_split.cache_clear()
    _closure_tuples.cache_clear()
    starts = nodes = 0
    for n_cuts in (3, 4):
        for cuts in itertools.combinations(range(1, 12), n_cuts):
            composition = tuple(b - a for a, b in zip((0,) + cuts, cuts + (12,)))
            if descending(composition) not in ADMISSIBLE_PARTITIONS:
                continue
            data = _closure_tuples(composition, True)
            split = _class_split(composition, 0)
            assert split[2] is data
            d = ProductDiagram(default_points(len(composition)), tuple(zip(composition, composition)))
            for node, specs in zip(data.nodes, data.paths):
                for side, pair in (("left", (node, composition)), ("right", (composition, node))):
                    partner, path = _partner(d, (split, split), *pair)
                    assert partner._factors == pair and len(path) == len(specs)
                    assert all(s == side and spec is expected
                               for (s, spec), expected in zip(path, specs))
                nodes += 1
            starts += 1
    assert (starts, nodes) == (323, 708)


def test_find_rigid_partner_already_rigid():
    d = make_product(parse_config("3333"), parse_config("9111"))
    partner, moves = find_rigid_partner(d)
    assert partner == d
    assert moves == ()


def test_find_rigid_partner_singleton_failure():
    # a singleton-class factor with an I_2 over a smooth point of the other
    left = parse_config("54111")
    right = cfg((5, 3, 1, 1, 2), ("P1", "P2", "P3", "P4", "P6"))
    d = make_product(left, right)
    assert d.pairs == ((5, 5), (4, 3), (1, 1), (1, 1), (1, 0), (0, 2))
    assert find_rigid_partner(d) is None


def test_find_rigid_partner_requires_admissible_factors():
    d = ProductDiagram(default_points(4), ((7, 9), (3, 1), (1, 1), (1, 1)))
    with pytest.raises(NotInCatalog):
        find_rigid_partner(d)


def test_partner_search_is_symmetric():
    d = ProductDiagram(default_points(5), ((3, 4), (3, 4), (3, 2), (3, 0), (0, 2)))
    swapped = ProductDiagram(d.points, tuple((b, a) for a, b in d.pairs))
    partner, _ = find_rigid_partner(d)
    swapped_partner, _ = find_rigid_partner(swapped)
    assert swapped_partner.pairs == tuple((b, a) for a, b in partner.pairs)


def test_partner_search_invariant_under_relabeling():
    pairs = ((3, 4), (3, 4), (3, 2), (3, 0), (0, 2))
    partner1 = find_rigid_partner(ProductDiagram(default_points(5), pairs))[0]
    partner2 = find_rigid_partner(ProductDiagram(("A", "B", "C", "D", "E"), pairs))[0]
    assert partner1.pairs == partner2.pairs


def test_factors_share_class():
    assert factors_share_class(make_product(parse_config("3333"), parse_config("9111")))
    assert not factors_share_class(
        make_product(parse_config("3333"), parse_config("4422")))


def test_parse_render_diagram_round_trip():
    text = "4,4,2,1,1 / 6,2,_,3,1"
    d = parse_diagram(text)
    assert d.pairs == ((4, 6), (4, 2), (2, 0), (1, 3), (1, 1))
    assert render_diagram(d) == text
    assert parse_diagram(render_diagram(d)) == d


@pytest.mark.parametrize("text", [
    "4,4,2,1,1",                      # one row
    "4,4,2,1,1 / 6,2,_,3",            # ragged
    "4,4,2,1,1 / 6,2,x,3,1",          # bad cell
    "4,4,2,1,1 / 6,2,_,3,2",          # right sum 13
    "+4,4,2,1,1 / 6,2,_,3,1",         # int() reads '+4' as 4
    "4,4,2,1,1 / 6,2,_,3,0_1",        # int() reads '0_1' as 1
    "1_0,1,1,_ / 3,3,3,3",            # int() reads '1_0' as 10
    "4,4,2,1,1 / ６,2,_,3,1",          # a fullwidth digit
])
def test_parse_diagram_errors(text):
    with pytest.raises(MalformedInput):
        parse_diagram(text)


def test_diagram_json_contains_log():
    import json
    d = make_product(parse_config("3333"), parse_config("9111"))
    move = next(m for m in candidate_moves(left_config(d), 3)
                if m.target.indices == (9, 1, 1, 1))
    moved = apply_move(d, "left", move)
    payload = json.loads(diagram_to_json(moved))
    assert payload["pairs"] == [[9, 9], [1, 1], [1, 1], [1, 1]]
    assert payload["log"] == [{"side": "left", "p": 3, "D": [1, 2, 3],
                               "source": [3, 3, 3, 3], "target": [9, 1, 1, 1]}]


def test_apply_move_randomized_preservation():
    rng = random.Random(20240811)
    rows = [row for cls in ALL_CLASSES for row in cls]
    checked = 0
    while checked < 300:
        lt = rng.choice(rows)
        rt = rng.choice(rows)
        overlap = rng.randint(4, min(len(lt), len(rt)))
        left = cfg(lt)
        labels = [f"P{i + 1}" for i in range(overlap)]
        labels += [f"Q{i}" for i in range(len(rt) - overlap)]
        right = cfg(rt, tuple(labels))
        d = make_product(left, right)
        side = rng.choice(["left", "right"])
        config = left_config(d) if side == "left" else right_config(d)
        moves = [m for p in (2, 3, 5) for m in candidate_moves(config, p)]
        if not moves:
            continue
        moved = apply_move(d, side, rng.choice(moves))
        assert moved.singular_count == d.singular_count
        assert common_singular_count(moved) == common_singular_count(d)
        assert sum(a for a, _ in moved.pairs) == 12
        assert sum(b for _, b in moved.pairs) == 12
        checked += 1
