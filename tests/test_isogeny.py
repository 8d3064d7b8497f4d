import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellab.catalog import (ADMISSIBLE_PARTITIONS, ALL_CLASSES, Admissibility, CLASS_INDEX,
                           CUT_PARTITIONS, FIVE_FIBER_CLASSES, FOUR_FIBER_CLASSES, TABLE_ROWS,
                           admissible)
from ellab.configs import FiberConfig, default_points, descending, index_text, parse_config
from ellab.errors import MalformedInput, NotInCatalog, NotPrime, TorsionContradiction
from ellab import isogeny
from ellab.isogeny import (CLOSURE_PRIMES, GraphMode, IsogenyGraph, IsogenyMove,
                           _check_move, _class_of, _closure_tuples,
                           _is_prime, _matchings, _move_primes, _move_specs,
                           candidate_moves, catalog_class, closure, dual_move, graph_to_json,
                           graph_to_tsv, halved_sum)
from ellab.torsion import (_table_move_partitions, _verdict, excludes_two_torsion,
                           sufficient_torsion_criterion, torsion_status)


def cfg(indices, labels=None):
    return FiberConfig(labels or default_points(len(indices)), tuple(indices))


def brute_moves(config, p):
    """Independent oracle: scan every position subset and check the move
    invariants directly (divisibility, target sum 12, admissible target)."""
    n = len(config)
    found = []
    for size in range(1, n + 1):
        for divided in itertools.combinations(range(n), size):
            if any(config.indices[i] % p for i in divided):
                continue
            if p == 2 and len(divided) > 4:
                continue
            target = tuple(k // p if i in divided else k * p
                           for i, k in enumerate(config.indices))
            if sum(target) != 12:
                continue
            partition = tuple(sorted(target, reverse=True))
            if len(partition) <= 5 and admissible(partition) is Admissibility.NOT_ADMISSIBLE:
                continue
            found.append((divided, target))
    return sorted(found)


# single moves connecting rows of the embedded class tables, derived by hand
# from the index transformation rule (0-based positions implicit)
TABLE_EDGES = [
    ("3333", 3, "9111"), ("3333", 3, "1911"), ("3333", 3, "1191"), ("3333", 3, "1119"),
    ("4422", 2, "2244"), ("4422", 2, "8211"), ("4422", 2, "2811"),
    ("2244", 2, "1182"), ("2244", 2, "1128"),
    ("6231", 3, "2613"), ("6231", 2, "3162"),
    ("2613", 2, "1326"), ("3162", 3, "1326"),
    ("5511", 5, "1155"),
    ("33321", 3, "11163"),
    ("44211", 2, "22422"), ("22422", 2, "11811"), ("22422", 2, "11244"),
    ("62211", 2, "31422"),
]


@pytest.mark.parametrize("p,expected", [(2, 8), (3, 9), (5, 10), (11, 11), (7, None), (13, None)])
def test_halved_sum(p, expected):
    assert halved_sum(p) == expected


def test_halved_sum_rejects_composites():
    with pytest.raises(NotPrime):
        halved_sum(6)


def run_promptly(code):
    """Run ``code`` in a fresh interpreter; a hang fails the test after 30 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=30)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_huge_primes_answer_promptly():
    out = run_promptly(
        "from ellab.configs import parse_config\n"
        "from ellab.errors import MalformedInput, NotPrime\n"
        "from ellab.isogeny import PRIME_TEST_BOUND, IsogenyMove, halved_sum\n"
        "from ellab.torsion import sufficient_torsion_criterion\n"
        "assert halved_sum(2**61 - 1) is None\n"
        "try:\n"
        "    halved_sum(2**61 + 1)\n"
        "except NotPrime:\n"
        "    print('not prime')\n"
        "for p in (PRIME_TEST_BOUND, 2**127 - 1):\n"
        "    try:\n"
        "        halved_sum(p)\n"
        "    except MalformedInput:\n"
        "        print('too large')\n"
        "assert sufficient_torsion_criterion(parse_config('3333'), 2**61 - 1) is False\n"
        "cfg = parse_config('9111')\n"
        "try:\n"
        "    IsogenyMove(2**61 - 1, (0,), cfg, cfg)\n"
        "except MalformedInput:\n"
        "    print('no move')\n"
        # strong pseudoprimes to every prime base up to 31, and up to 37
        "from ellab.isogeny import _is_prime\n"
        "assert not _is_prime(3825123056546413051)\n"
        "assert not _is_prime(318665857834031151167461)\n"
        "assert _is_prime(2**31 - 1) and _is_prime(2**61 - 1)\n")
    assert out == "not prime\ntoo large\ntoo large\nno move\n"


def test_prime_test_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert all(_is_prime(n) == trial(n) for n in range(-5, 20000))


@pytest.mark.parametrize("p", [2.0, 3.0, True, None, "3"])
def test_a_prime_that_is_not_an_int_is_malformed(p):
    """Every p-taking entry rejects p of another type before a cache sees it,
    also once the same value as an int is cached."""
    config = parse_config("3333")
    torsion_status(config, 3)
    candidate_moves(config, 3)
    for call, args in [(halved_sum, (p,)), (candidate_moves, (config, p)),
                       (sufficient_torsion_criterion, (config, p)),
                       (torsion_status, (config, p)),
                       (IsogenyMove, (p, (0,), config, parse_config("9111")))]:
        with pytest.raises(MalformedInput):
            call(*args)


def test_moves_4422():
    moves = candidate_moves(parse_config("4422"), 2)
    assert {(m.divided_positions, m.target.indices) for m in moves} == {
        ((0, 1), (2, 2, 4, 4)),
        ((0, 2, 3), (2, 8, 1, 1)),
        ((1, 2, 3), (8, 2, 1, 1)),
    }


def test_moves_6231_p3():
    moves = candidate_moves(parse_config("6231"), 3)
    assert [(m.divided_positions, m.target.indices) for m in moves] == [((0, 2), (2, 6, 1, 3))]


def test_moves_54111_p5_empty():
    assert candidate_moves(parse_config("54111"), 5) == ()


def test_moves_22422_the_seven():
    moves = candidate_moves(parse_config("22422"), 2)
    targets = {(m.divided_positions, m.target.indices) for m in moves}
    assert len(moves) == 7
    assert ((2, 3, 4), (4, 4, 2, 1, 1)) in targets
    assert ((0, 1, 2), (1, 1, 2, 4, 4)) in targets
    assert ((0, 1, 3, 4), (1, 1, 8, 1, 1)) in targets
    assert ((1, 2, 3), (4, 1, 2, 1, 4)) in targets


@pytest.mark.parametrize("row", sorted({row for cls in ALL_CLASSES for row in cls}))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_moves_match_brute_oracle(row, p):
    config = cfg(row)
    generated = sorted((m.divided_positions, m.target.indices)
                       for m in candidate_moves(config, p))
    assert generated == brute_moves(config, p)


def test_every_table_edge_is_generated():
    for source, p, target in TABLE_EDGES:
        src = parse_config(source)
        targets = {m.target.indices for m in candidate_moves(src, p)}
        assert parse_config(target).indices in targets, (source, p, target)
        # and the dual direction as well
        back = {m.target.indices for m in candidate_moves(parse_config(target), p)}
        assert src.indices in back, (target, p, source)


def test_dual_move_example():
    move = next(m for m in candidate_moves(parse_config("4422"), 2)
                if m.divided_positions == (0, 1))
    dual = dual_move(move)
    assert dual.divided_positions == (2, 3)
    assert dual.source.indices == (2, 2, 4, 4)
    assert dual.target.indices == (4, 4, 2, 2)
    assert dual_move(dual) == move


@pytest.mark.parametrize("divided", [(True, False), (0, True), (0.0, 1), (0, 1.0)])
def test_divided_positions_that_are_not_ints_are_malformed(divided):
    """(True, False) equals (1, 0) and passed the range check, so the move
    built and was written to JSON as "D": [true, false]."""
    move = candidate_moves(parse_config("4422"), 2)[0]
    assert move.divided_positions == (0, 1)
    with pytest.raises(MalformedInput, match="divided positions out of range or not ints"):
        IsogenyMove(2, divided, move.source, move.target)


def test_dual_is_involution_on_all_catalog_moves():
    for cls in ALL_CLASSES:
        for row in cls:
            config = cfg(row)
            for p in (2, 3, 5):
                for move in candidate_moves(config, p):
                    assert dual_move(dual_move(move)) == move


@pytest.mark.parametrize("p,divided,source,target,error,message", [
    (2, (0, 1), cfg((4, 4, 2, 2)), cfg((2, 2, 4, 4), ("Q1", "Q2", "Q3", "Q4")),
     MalformedInput, "share base points"),
    (2, (), cfg((4, 4, 2, 2)), cfg((2, 2, 4, 4)), MalformedInput, "distinct and non-empty"),
    (2, (0, 0), cfg((4, 4, 2, 2)), cfg((2, 2, 4, 4)), MalformedInput, "distinct and non-empty"),
    (2, (0, 4), cfg((4, 4, 2, 2)), cfg((2, 2, 4, 4)), MalformedInput, "out of range"),
    (2, (0,), cfg((4, 4, 2, 2)), cfg((2, 2, 4, 4)), MalformedInput, "must sum to 8 for p=2"),
    (4, (0, 1), cfg((4, 4, 2, 2)), cfg((2, 2, 4, 4)), NotPrime, "4 is not prime"),
    (7, (0, 1), cfg((4, 4, 2, 2)), cfg((2, 2, 4, 4)), MalformedInput,
     r"no 7-isogeny keeps the index sum at 12: 12p/\(p\+1\) is not an integer"),
    (3, (0, 1, 3), cfg((6, 2, 3, 1)), cfg((2, 6, 1, 3)), MalformedInput, "position 1: 2 must divide"),
    (2, (0, 1), cfg((4, 4, 2, 2)), cfg((2, 2, 2, 6)), MalformedInput, "position 2: 2 must multiply to 4"),
], ids=["points-differ", "empty", "duplicate", "out-of-range", "wrong-sum", "p=4", "p=7",
        "indivisible", "wrong-target"])
def test_move_validation(p, divided, source, target, error, message):
    with pytest.raises(error, match=message) as excinfo:
        IsogenyMove(p, divided, source, target)
    assert type(excinfo.value) is error


def fresh_move(spec, points):
    """Reference: a move whose endpoints are built afresh through the public constructors."""
    return IsogenyMove(spec.p, spec.divided, FiberConfig(points, spec.source),
                       FiberConfig(points, spec.target))


COMPOSITIONS = [tuple(b - a for a, b in zip((0,) + cuts, cuts + (12,)))
                for n_cuts in range(3, 12)
                for cuts in itertools.combinations(range(1, 12), n_cuts)]


def test_graphs_and_moves_equal_fresh_construction_on_every_composition():
    """closure and candidate_moves share endpoint objects; the values equal
    the ones a fresh validated construction gives, over the whole universe."""
    assert len(COMPOSITIONS) == 1981
    for composition in COMPOSITIONS:
        config = cfg(composition)
        for mode in GraphMode:
            data = _closure_tuples(composition, mode is GraphMode.CATALOG_GATED and len(composition) <= 5)
            reference = IsogenyGraph(tuple(cfg(t) for t in data.nodes),
                                     tuple(fresh_move(s, config.points) for s in data.edges), mode)
            graph = closure(config, mode)
            assert graph == reference, (composition, mode)
            nodes = {id(node) for node in graph.nodes}
            assert all(id(m.source) in nodes and id(m.target) in nodes for m in graph.edges)
        for p in CLOSURE_PRIMES:
            moves = candidate_moves(config, p)
            assert moves == tuple(fresh_move(s, config.points) for s in _move_specs(composition, p))
            assert all(move.source is config for move in moves)


def test_move_specs_cache_never_evicts_within_a_universe_pass():
    """A cold pass of closure in both modes and torsion for p = 2, 3, 5 over
    every composition computes each move list once: no entry is evicted and
    asked for again."""
    for cache in (_move_specs, _closure_tuples, _table_move_partitions):
        cache.cache_clear()
    for composition in COMPOSITIONS:
        config = cfg(composition)
        for mode in GraphMode:
            closure(config, mode)
        for p in (2, 3, 5):
            try:
                torsion_status(config, p)
            except TorsionContradiction:
                pass
    info = _move_specs.cache_info()
    assert info.misses == info.currsize


def test_move_lists_below_the_halved_sum_are_not_stored():
    """The closure search and candidate_moves answer () before the
    _move_specs lookup where the divisible indices sum below the halved sum,
    so a cold pass over every composition stores only the 627 of its 5,943
    (composition, p) keys that reach it."""
    for cache in (_move_specs, _closure_tuples):
        cache.cache_clear()
    for composition in COMPOSITIONS:
        config = cfg(composition)
        for mode in GraphMode:
            closure(config, mode)
        for p in CLOSURE_PRIMES:
            candidate_moves(config, p)
    reaching = sum(sum(k for k in composition if k % p == 0) >= halved_sum(p)
                   for composition in COMPOSITIONS for p in CLOSURE_PRIMES)
    assert _move_specs.cache_info().currsize == reaching == 627


def test_torsion_tables_store_no_move_list_below_the_halved_sum():
    """The class-table scan behind the torsion oracle reads moves through
    _move_primes as well, so closure in both modes plus torsion for p = 2, 3, 5
    over every composition stores the same 627 keys as closure alone, and
    decides the move primes of the 58 partitions once each."""
    for cache in (_move_primes, _move_specs, _closure_tuples, _table_move_partitions, _verdict):
        cache.cache_clear()
    for composition in COMPOSITIONS:
        config = cfg(composition)
        for mode in GraphMode:
            closure(config, mode)
        for p in CLOSURE_PRIMES:
            try:
                torsion_status(config, p)
            except TorsionContradiction:
                pass
    assert _move_specs.cache_info().currsize == 627
    assert _move_primes.cache_info().currsize == 58


def test_move_primes_equal_the_divisible_sum_on_every_composition():
    """A prime is missing from _move_primes exactly where the indices
    divisible by it sum below the halved sum, and there the uncached move
    search finds no move."""
    missing = 0
    for composition in COMPOSITIONS:
        primes = _move_primes(descending(composition))
        for p in CLOSURE_PRIMES:
            below = sum(k for k in composition if k % p == 0) < halved_sum(p)
            assert (p not in primes) == below, (composition, p)
            if below:
                assert _move_specs.__wrapped__(composition, p) == (), (composition, p)
                missing += 1
    assert missing == 5943 - 627
    # 1,378 starts over 33 partitions have no move prime, 244 of them of at most five fibers
    no_prime = [c for c in COMPOSITIONS if not _move_primes(descending(c))]
    assert len(no_prime) == 1378 and len({descending(c) for c in no_prime}) == 33
    assert sum(len(c) <= 5 for c in no_prime) == 244


def test_a_bool_index_cannot_poison_the_closure_cache():
    """(9, True, 1, 1) equals (9, 1, 1, 1) and hashes alike: had the
    constructor taken it, its closure would have been cached, and closure
    of 9111 would have answered with the node (9, True, 1, 1), written to
    JSON as [9, true, 1, 1]."""
    for cache in (_move_specs, _closure_tuples):
        cache.cache_clear()
    with pytest.raises(MalformedInput, match="fiber indices must be positive integers"):
        closure(FiberConfig(default_points(4), (9, True, 1, 1)))
    graph = closure(parse_config("9111"))
    assert all(type(k) is int for node in graph._nodes[0] for k in node)
    assert json.loads(graph_to_json(graph))["nodes"][-1] == [9, 1, 1, 1]
    assert "true" not in graph_to_json(graph)


def test_every_move_spec_builds_a_valid_move():
    """Every spec of the universe is a move the validating constructor accepts."""
    built = 0
    for composition in COMPOSITIONS:
        points = default_points(len(composition))
        for p in CLOSURE_PRIMES:
            for spec in _move_specs(composition, p):
                IsogenyMove(spec.p, spec.divided, FiberConfig(points, spec.source),
                            FiberConfig(points, spec.target))
                built += 1
    assert built == 892


def test_cold_universe_pass_searches_each_closure_once(monkeypatch):
    """Beyond five fibers both modes read one entry: a cold pass of closure
    in both modes asks for 1,981 combinatorial and 495 gated closures.  Of
    the gated ones only the 130 starts of CUT_PARTITIONS search with their
    class column; every other gated entry is the combinatorial one."""
    calls = []
    real = isogeny._class_of
    monkeypatch.setattr(isogeny, "_class_of", lambda start: calls.append(start) or real(start))
    for cache in (_move_specs, _closure_tuples):
        cache.cache_clear()
    for composition in COMPOSITIONS:
        for mode in GraphMode:
            closure(cfg(composition), mode)
    assert _closure_tuples.cache_info().misses == 1981 + 495 == 2476
    assert len(calls) == len(set(calls)) == 130
    assert {descending(start) for start in calls} == CUT_PARTITIONS
    for composition in COMPOSITIONS:
        partition = descending(composition)
        if _move_primes(partition) and partition not in CUT_PARTITIONS:
            assert _closure_tuples(composition, True) is _closure_tuples(composition, False)


def test_gated_closure_beyond_five_fibers_is_the_combinatorial_one():
    beyond = [composition for composition in COMPOSITIONS if len(composition) > 5]
    assert len(beyond) == 1486
    for composition in beyond:
        shared = _closure_tuples(composition, False)
        for mode in GraphMode:
            graph = closure(cfg(composition), mode)
            assert graph._nodes[0] is shared.nodes and graph._edges[0] is shared.edges, composition


def test_closure_invariants_on_every_composition():
    """Every edge's dual is an edge, both endpoints of every edge are nodes,
    and the gated nodes lie inside the combinatorial ones, for every
    composition."""
    for composition in COMPOSITIONS:
        nodes = {}
        for mode in GraphMode:
            graph = closure(cfg(composition), mode)
            nodes[mode] = {node.indices for node in graph.nodes}
            assert composition in nodes[mode]
            edges = set(graph.edges)
            for move in edges:
                assert {move.source.indices, move.target.indices} <= nodes[mode], (composition, move)
                assert dual_move(move) in edges, (composition, mode, move)
        assert nodes[GraphMode.CATALOG_GATED] <= nodes[GraphMode.COMBINATORIAL], composition


def test_every_closure_edge_spec_was_checked_when_created(monkeypatch):
    """A closure's edges are typed only when read, so every spec it holds
    must have passed _check_move when it was created: over a cold pass of
    every composition in both modes, each edge spec is one that was checked."""
    checked = set()
    check = isogeny._check_move

    def recording_check(*spec):
        check(*spec)
        checked.add(spec)

    monkeypatch.setattr(isogeny, "_check_move", recording_check)
    for cache in (_move_specs, _closure_tuples):
        cache.cache_clear()
    held = set()
    for composition in COMPOSITIONS:
        for mode in GraphMode:
            held.update(closure(cfg(composition), mode)._edges[0])
    assert len(held) == 892 and held <= checked


def test_closure_and_its_writers_build_no_typed_move(monkeypatch):
    """closure, graph_to_tsv and graph_to_json build no IsogenyMove; reading
    ``edges`` builds each edge once, over the graph's own nodes, and the JSON
    is the same before and after, and for the graph built from typed edges."""
    built = []
    init = IsogenyMove.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(IsogenyMove, "__init__", counting_init)
    graphs = [closure(cfg(composition), mode) for composition in COMPOSITIONS for mode in GraphMode]
    texts = [graph_to_tsv(graph) + graph_to_json(graph) for graph in graphs]
    assert not built
    assert sum(text.count('"p":') for text in texts) == 8482  # the writer did print edges
    assert sum(len(graph.edges) for graph in graphs) == len(built) == 8482
    assert all(graph.edges is graph.edges for graph in graphs) and len(built) == 8482
    for graph, text in zip(graphs, texts):
        typed = IsogenyGraph(graph.nodes, graph.edges, graph.mode)
        assert graph_to_tsv(graph) + graph_to_json(typed) == text == graph_to_tsv(typed) + graph_to_json(graph)
        nodes = {id(node) for node in graph.nodes}
        assert all(id(m.source) in nodes and id(m.target) in nodes for m in graph.edges)


def exhaustive_specs(indices, p):
    """Every p-move out of ``indices`` as (p, divided, source, target), found by
    trying each subset of positions, smallest subsets first: the divided
    indices are divisible by p and sum to 12p/(p+1), and a target of at most
    five fibers has an admissible partition."""
    total = 12 * p // (p + 1)  # whole for p in {2, 3, 5}
    specs = []
    for size in range(1, len(indices) + 1):
        for divided in itertools.combinations(range(len(indices)), size):
            if any(indices[i] % p for i in divided) or sum(indices[i] for i in divided) != total:
                continue
            target = tuple(k // p if i in divided else p * k for i, k in enumerate(indices))
            if len(target) > 5 or descending(target) in ADMISSIBLE_PARTITIONS:
                specs.append((p, divided, indices, target))
    return specs


def test_move_specs_equal_exhaustive_enumeration_on_every_composition():
    """_move_specs lists every move an exhaustive subset search finds, in the
    same order, and has none where the divisible indices sum below the
    halved sum, which is where it stops before enumerating subsets."""
    found = below = 0
    for composition in COMPOSITIONS:
        for p in CLOSURE_PRIMES:
            specs = _move_specs(composition, p)
            assert [tuple(spec) for spec in specs] == exhaustive_specs(composition, p), (composition, p)
            found += len(specs)
            if sum(k for k in composition if k % p == 0) < halved_sum(p):
                below += 1
                assert specs == (), (composition, p)
        assert _move_specs(composition, 7) == ()
    assert found == 892 and below == 5316


def test_closure_and_its_writers_build_no_fiber_config(monkeypatch):
    """closure, graph_to_tsv and graph_to_json build no FiberConfig; the first
    ``nodes`` read builds one per node and keeps them, ``edges`` is typed over
    them, and a graph rebuilt from its typed nodes and edges writes the same
    TSV and JSON."""
    starts = [cfg(composition) for composition in COMPOSITIONS]
    built = []
    init = FiberConfig.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(FiberConfig, "__init__", counting_init)
    graphs = [closure(start, mode) for start in starts for mode in GraphMode]
    texts = [graph_to_tsv(graph) + graph_to_json(graph) for graph in graphs]
    assert not built
    for graph, text in zip(graphs, texts):
        before = len(built)
        nodes = graph.nodes
        assert len(built) - before == len(nodes) and graph.nodes is nodes
        assert all(args == (graph.nodes[0].points, node.indices)
                   for args, node in zip(built[before:], nodes))
        ids = {id(node) for node in nodes}
        assert all(id(m.source) in ids and id(m.target) in ids for m in graph.edges)
        typed = IsogenyGraph(nodes, graph.edges, graph.mode)
        assert graph_to_tsv(typed) + graph_to_json(typed) == text
        assert graph_to_tsv(graph) + graph_to_json(graph) == text
    assert len(built) == sum(len(graph.nodes) for graph in graphs)


def test_move_specs_checks_each_spec_when_it_creates_it(monkeypatch):
    checked = []
    monkeypatch.setattr(isogeny, "_check_move", lambda *spec: checked.append(spec))
    _move_specs.cache_clear()
    try:
        specs = _move_specs((3, 3, 3, 3), 3)
        assert _move_specs((3, 3, 3, 3), 3) is specs
    finally:
        _move_specs.cache_clear()
    assert checked == [tuple(spec) for spec in specs] and len(specs) == 4
    with pytest.raises(MalformedInput, match="position 3: 3 must divide to 3//3"):
        _check_move(3, (1, 2, 3), (3, 3, 3, 3), (9, 1, 1, 3))


def test_moves_keep_fiber_count_and_admissible_targets_on_every_composition():
    """The premises of the once-per-start gate: a move keeps every position,
    and a target of at most 5 fibers has an admissible partition; the p = 2
    parity bound leaves nothing for the sum test to find."""
    for composition in COMPOSITIONS:
        for p in CLOSURE_PRIMES:
            for spec in _move_specs(composition, p):
                assert len(spec.target) == len(composition), (composition, spec)
                if len(composition) <= 5:
                    assert descending(spec.target) in ADMISSIBLE_PARTITIONS, (composition, spec)
        if excludes_two_torsion(cfg(composition)):
            assert _move_specs(composition, 2) == (), composition


def dual_spec(spec):
    """The move back along ``spec``: divide exactly the complementary positions."""
    complement = tuple(i for i in range(len(spec.source)) if i not in spec.divided)
    return type(spec)(spec.p, complement, spec.target, spec.source)


def per_node_gated_closure(start):
    """Reference: breadth-first closure that tests every reached node against
    the tables, discarding a covered node outside the start's class, or
    outside every class for a start whose partition no class covers."""
    rows = _class_of(start)[1] if descending(start) in CLASS_INDEX else TABLE_ROWS

    def keep(node):
        if node == start or descending(node) not in CLASS_INDEX:
            return True
        return node in rows

    queue, paths, edges = [start], {start: ()}, set()
    while queue:
        node = queue.pop(0)
        for p in CLOSURE_PRIMES:
            for spec in _move_specs(node, p):
                if not keep(spec.target):
                    continue
                edges |= {spec, dual_spec(spec)}
                if spec.target not in paths:
                    paths[spec.target] = paths[node] + (spec,)
                    queue.append(spec.target)
    return paths, edges


def test_gated_closure_equals_per_node_gate_on_every_composition():
    for composition in COMPOSITIONS:
        data = _closure_tuples(composition, len(composition) <= 5)
        paths, edges = per_node_gated_closure(composition)
        assert data.nodes == tuple(sorted(paths)), composition
        assert set(data.edges) == edges and len(data.edges) == len(edges), composition
        assert data.paths == tuple(paths[node] for node in data.nodes), composition


def test_cut_partitions_are_the_classes_whose_rows_close_beyond_their_column():
    """CUT_PARTITIONS, derived from the tables: the partitions of every
    class with a literal row whose combinatorial closure is not its column."""
    derived = set()
    for cls in ALL_CLASSES:
        if any(set(_closure_tuples(row, False).nodes) != set(cls) for row in cls):
            derived |= {descending(row) for row in cls}
    assert derived == CUT_PARTITIONS
    assert {index_text(partition) for partition in derived} == {
        "44211", "42222", "81111", "62211", "43221"}


def test_gated_closure_differs_from_combinatorial_only_on_cut_partitions():
    """With the per-node reference, not the program's routing: gated and
    combinatorial closure agree on 1,851 compositions and differ on the 130
    of CUT_PARTITIONS."""
    differ = []
    for composition in COMPOSITIONS:
        paths, edges = per_node_gated_closure(composition)
        combinatorial = _closure_tuples(composition, False)
        if set(paths) != set(combinatorial.nodes) or edges != set(combinatorial.edges):
            differ.append(composition)
    assert len(COMPOSITIONS) - len(differ) == 1851
    assert len(differ) == 130
    assert {descending(c) for c in differ} == CUT_PARTITIONS
    assert sum(descending(c) in CUT_PARTITIONS for c in COMPOSITIONS) == 130


def test_tables_drop_exactly_five_moves_between_their_rows():
    """Out of the literal rows, every combinatorial move lands in the row's
    column except five at p = 2: four out of 22422, each dividing the I_4
    with one I_2 of each pair {0,1} and {3,4} (a kept move divides it with a
    whole pair, or divides all four I_2), and one out of 62211 (only the
    distinguished I_2 at position 1 divides)."""
    dropped = sorted((row, spec.p, spec.divided) for cls in ALL_CLASSES for row in cls
                     for p in CLOSURE_PRIMES for spec in _move_specs(row, p)
                     if spec.target not in cls)
    assert dropped == [
        ((2, 2, 4, 2, 2), 2, (0, 2, 3)), ((2, 2, 4, 2, 2), 2, (0, 2, 4)),
        ((2, 2, 4, 2, 2), 2, (1, 2, 3)), ((2, 2, 4, 2, 2), 2, (1, 2, 4)),
        ((6, 2, 2, 1, 1), 2, (0, 2)),
    ]


BEAUVILLE_COLUMNS = {
    "3333": ["3333", "9111", "1911", "1191", "1119"],
    "4422": ["4422", "2244", "8211", "2811", "1182", "1128"],
    "6231": ["6231", "2613", "3162", "1326"],
    "5511": ["5511", "1155"],
}


@pytest.mark.parametrize("head,column", BEAUVILLE_COLUMNS.items())
def test_beauville_closures_exact(head, column):
    for mode in GraphMode:
        graph = closure(parse_config(head), mode)
        assert {n.indices for n in graph.nodes} == {parse_config(c).indices for c in column}
        assert graph_to_tsv(graph) == "\n".join(column) + "\n"


def test_closure_44211_combinatorial():
    graph = closure(parse_config("44211"))
    nodes = {n.indices for n in graph.nodes}
    assert {(4, 4, 2, 1, 1), (2, 2, 4, 2, 2), (1, 1, 8, 1, 1), (1, 1, 2, 4, 4)} <= nodes
    extras = nodes - {(4, 4, 2, 1, 1), (2, 2, 4, 2, 2), (1, 1, 8, 1, 1), (1, 1, 2, 4, 4)}
    assert all(tuple(sorted(t, reverse=True)) == (4, 4, 2, 1, 1) for t in extras)
    assert len(nodes) == 8


def test_closure_gated_discards_position_variants():
    graph = closure(parse_config("44211"), GraphMode.CATALOG_GATED)
    assert {n.indices for n in graph.nodes} == {
        (4, 4, 2, 1, 1), (2, 2, 4, 2, 2), (1, 1, 8, 1, 1), (1, 1, 2, 4, 4)}


def test_closure_keeps_point_labels():
    graph = closure(cfg((3, 3, 3, 3), ("A", "B", "C", "D")))
    assert all(node.points == ("A", "B", "C", "D") for node in graph.nodes)


def test_closure_nodes_sorted():
    graph = closure(parse_config("4422"))
    assert [n.indices for n in graph.nodes] == sorted(n.indices for n in graph.nodes)


def test_closure_edges_symmetric():
    graph = closure(parse_config("6231"))
    edges = {(m.source.indices, m.target.indices) for m in graph.edges}
    assert edges == {(b, a) for a, b in edges}


def test_gated_closure_keeps_nontable_start():
    graph = closure(cfg((3, 3, 2, 3, 1)), GraphMode.CATALOG_GATED)
    assert {n.indices for n in graph.nodes} == {(3, 3, 2, 3, 1), (1, 1, 6, 1, 3)}


def test_catalog_class_examples():
    assert [c.indices for c in catalog_class(parse_config("5511"))] == [
        (5, 5, 1, 1), (1, 1, 5, 5)]
    assert [c.indices for c in catalog_class(parse_config("53211"))] == [(5, 3, 2, 1, 1)]
    assert [c.indices for c in catalog_class(parse_config("62211"))] == [
        (6, 2, 2, 1, 1), (3, 1, 4, 2, 2)]


def test_catalog_class_transports_unambiguous_variants():
    rows = {c.indices for c in catalog_class(cfg((4, 2, 4, 2)))}
    assert rows == {(4, 2, 4, 2), (2, 4, 2, 4), (8, 1, 2, 1),
                    (2, 1, 8, 1), (1, 8, 1, 2), (1, 2, 1, 8)}


def test_catalog_class_rejects_ambiguous_62211_variant():
    # position variants of 42222 and 81111 are ambiguous as well; the
    # message names the input's own partition
    for indices, partition in (((2, 6, 2, 1, 1), "62211"), ((2, 4, 2, 2, 2), "42222"),
                               ((8, 1, 1, 1, 1), "81111")):
        with pytest.raises(NotInCatalog, match=f"partition {partition} are not determined"):
            catalog_class(cfg(indices))


def test_matchings_equal_the_brute_force_maps():
    """For every table row and every start of at most five fibers with the
    same multiset, _matchings yields exactly the index maps perm among all
    permutations with row[perm[j]] == start[j], each once."""
    starts = 0
    for row in sorted({row for cls in ALL_CLASSES for row in cls if len(row) <= 5}):
        for start in set(itertools.permutations(row)):
            expected = [perm for perm in itertools.permutations(range(len(row)))
                        if all(row[i] == k for i, k in zip(perm, start))]
            assert sorted(map(tuple, _matchings(row, start))) == expected, (row, start)
            starts += 1
    assert starts == 485


def test_catalog_class_rejects_inadmissible():
    with pytest.raises(NotInCatalog):
        catalog_class(cfg((7, 3, 1, 1)))


def test_graph_json_shape():
    graph = closure(parse_config("5511"))
    payload = json.loads(graph_to_json(graph))
    assert payload["schema"] == 1
    assert payload["mode"] == "Combinatorial"
    assert payload["nodes"] == [[1, 1, 5, 5], [5, 5, 1, 1]]
    assert {(e["from"], e["to"]) for e in payload["edges"]} == {(0, 1), (1, 0)}
    assert all(e["p"] == 5 for e in payload["edges"])


def test_graph_json_byte_stable():
    graph = closure(parse_config("4422"))
    assert graph_to_json(graph) == graph_to_json(closure(parse_config("4422")))


def test_five_fiber_table_data_is_consistent():
    # every row of every column really is one partition class
    for cls in FIVE_FIBER_CLASSES + FOUR_FIBER_CLASSES:
        assert all(sum(row) == 12 for row in cls)
