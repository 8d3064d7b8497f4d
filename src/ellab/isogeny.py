"""Prime-order isogeny moves between fiber configurations.

Quotienting a semi-stable rational elliptic surface by translation with a
p-torsion section keeps singular fibers in the same place and replaces each
index k by k/p or p*k.  The divided positions D must carry indices divisible
by p, and requiring the quotient to be rational again (index sum 12) forces
their sum to be exactly 12p/(p+1): 8 for p=2, 9 for p=3, 10 for p=5.  Only
p in {2, 3, 5} can occur on a configuration with at least four fibers (p=11
would need an index divisible by 11, impossible below the total of 12).

:func:`candidate_moves` enumerates every combinatorially possible move; it
is a guaranteed superset of the geometrically realized isogenies, since
which subsets D occur depends on how the torsion section meets fiber
components.  The embedded class tables resolve that ambiguity, and
:func:`closure` offers both readings as modes.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import NamedTuple

from . import catalog
from .configs import (FiberConfig, TOTAL_INDEX, _Record, _canonical_json, descending,
                      index_text, render_config)
from .errors import MalformedInput, NotInCatalog, NotPrime

CLOSURE_PRIMES = (2, 3, 5)


class GraphMode(Enum):
    COMBINATORIAL = "Combinatorial"
    CATALOG_GATED = "CatalogGated"

    def __str__(self):
        return self.value


_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (the primes up to 37 alone pass the composite 318,665,857,834,031,151,167,461).
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; p at or above PRIME_TEST_BOUND is an input error."""
    if p <= 41:
        return p in _SMALL_PRIMES
    if p >= PRIME_TEST_BOUND:
        raise MalformedInput(f"prime argument must be below {PRIME_TEST_BOUND}, got {p}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def halved_sum(p: int) -> int | None:
    """The exact total the divided indices must reach for a p-isogeny.

    12p/(p+1) when integral (p in {2, 3, 5, 11}), else None.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if (TOTAL_INDEX * p) % (p + 1):
        return None
    return TOTAL_INDEX * p // (p + 1)


class IsogenyMove(_Record):
    """One p-isogeny: indices at ``divided_positions`` divided by p, all others multiplied."""

    __slots__ = ("p", "divided_positions", "source", "target")

    def __init__(self, p: int, divided_positions: tuple[int, ...], source: FiberConfig,
                 target: FiberConfig):
        self._set_fields(p, tuple(divided_positions), source, target)
        if source.points != target.points:
            raise MalformedInput("move endpoints must share base points")
        _check_move(p, self.divided_positions, source.indices, target.indices)


def _check_move(p, divided_positions, source, target):
    """The move predicate on index tuples: ``target`` is ``source`` with the
    indices at ``divided_positions`` divided by p and all others multiplied."""
    divided = set(divided_positions)
    if not divided or len(divided) != len(divided_positions):
        raise MalformedInput(f"divided positions must be distinct and non-empty: {divided_positions}")
    if not divided <= set(range(len(source))):
        raise MalformedInput(f"divided positions out of range: {divided_positions}")
    total = halved_sum(p)
    if total is None:
        raise MalformedInput(f"no {p}-isogeny keeps the index sum at 12: 12p/(p+1) is not an integer")
    if sum(source[i] for i in divided) != total:
        raise MalformedInput(f"divided indices must sum to {total} for p={p}")
    for i, (a, b) in enumerate(zip(source, target)):
        if i in divided:
            if a % p or b != a // p:
                raise MalformedInput(f"position {i}: {a} must divide to {a}//{p}")
        elif b != p * a:
            raise MalformedInput(f"position {i}: {a} must multiply to {p * a}")


class _MoveSpec(NamedTuple):
    p: int
    divided: tuple[int, ...]
    source: tuple[int, ...]
    target: tuple[int, ...]


def _moves(indices, p):
    """The :func:`_move_specs` of ``indices``, or () without a cache entry
    when its indices divisible by p sum below the halved sum."""
    total = halved_sum(p)
    if total is None or sum(k for k in indices if k % p == 0) < total:
        return ()
    return _move_specs(indices, p)


# keys: compositions of 12 x primes that reach _moves' cache lookup (a cold
# universe pass stores 627 of its 5,943 questions)
@lru_cache(maxsize=None)
def _move_specs(indices: tuple[int, ...], p: int) -> tuple[_MoveSpec, ...]:
    total = halved_sum(p)
    divisible = tuple(i for i, k in enumerate(indices) if k % p == 0)
    specs = []
    for size in range(1, len(divisible) + 1):
        for divided in combinations(divisible, size):
            if sum(indices[i] for i in divided) != total:
                continue
            target = tuple(k // p if i in divided else p * k for i, k in enumerate(indices))
            if len(target) <= 5 and descending(target) not in catalog.ADMISSIBLE_PARTITIONS:
                continue  # the 4- and 5-fiber tables are complete, so this quotient cannot exist
            _check_move(p, divided, indices, target)  # once per cache key, not per use
            specs.append(_MoveSpec(p, divided, indices, target))
    return tuple(specs)  # by subset size, then positions: the order combinations gives


def _spec_of(move):
    return _MoveSpec(move.p, move.divided_positions, move.source.indices, move.target.indices)


def _typed_move(spec, config):
    """``spec`` as an :class:`IsogenyMove`, through its validating
    constructor; ``config`` gives the FiberConfig of an index tuple."""
    return IsogenyMove(spec.p, spec.divided, config(spec.source), config(spec.target))


def candidate_moves(config: FiberConfig, p: int) -> tuple[IsogenyMove, ...]:
    """All combinatorially possible p-moves out of ``config``.

    A superset of the geometrically realized isogenies: moves whose target
    partition is known not to occur (4 or 5 fibers, absent from the tables)
    are pruned, everything else is kept.
    """
    def node(indices):
        return config if indices == config.indices else FiberConfig(config.points, indices)
    return tuple(_typed_move(spec, node) for spec in _moves(config.indices, p))


def dual_move(move: IsogenyMove) -> IsogenyMove:
    """The inverse isogeny: divide exactly the complementary positions."""
    complement = tuple(i for i in range(len(move.source)) if i not in move.divided_positions)
    return IsogenyMove(move.p, complement, move.target, move.source)


def _matchings(row, start):
    """Position bijections sigma with start[sigma[i]] == row[i]."""
    row_slots = defaultdict(list)
    start_slots = defaultdict(list)
    for i, k in enumerate(row):
        row_slots[k].append(i)
    for i, k in enumerate(start):
        start_slots[k].append(i)
    per_value = [
        [dict(zip(row_slots[k], perm)) for perm in permutations(start_slots[k])]
        for k in row_slots
    ]
    for parts in product(*per_value):
        sigma = {}
        for part in parts:
            sigma.update(part)
        yield sigma


def _transport(row, sigma):
    out = [0] * len(row)
    for i, k in enumerate(row):
        out[sigma[i]] = k
    return tuple(out)


def _class_of(start: tuple[int, ...]):
    """('uncovered' | 'resolved' | 'ambiguous', rows) for the class of ``start``.

    Uncached: it runs once per gated closure, which :func:`_closure_tuples`
    caches, and once per :func:`catalog_class` call.  A literal table row
    takes its column at the table alignment.  Otherwise every
    value-preserving matching with a row of the column is tried; the
    transported column is 'resolved' only when all matchings agree.  Over
    all compositions the 'ambiguous' starts are position variants of 62211
    (29), 42222 (4) and 81111 (4): matchings that swap equal indices of the
    start transport the column to different row sets.
    """
    position = catalog.CLASS_INDEX.get(descending(start))
    if position is None:
        return "uncovered", ()
    cls = catalog.ALL_CLASSES[position]
    if start in cls:
        return "resolved", cls
    multiset = sorted(start)
    transported = set()
    for row in cls:
        if sorted(row) == multiset:
            for sigma in _matchings(row, start):
                transported.add(tuple(_transport(r, sigma) for r in cls))
    variants = {frozenset(rows) for rows in transported}
    if len(variants) == 1:
        # column row order is kept; the smallest variant fixes the tie
        return "resolved", min(transported)
    return "ambiguous", (start,)


class _ClosureData(NamedTuple):
    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[_MoveSpec, ...]
    paths: tuple  # per node, its _MoveSpec path from the start


# keys per universe pass (closure in both modes of every composition): 2,476,
# 1,981 combinatorial and 495 gated starts of at most five fibers, each asked
# for once, so an eviction there costs no second search
@lru_cache(maxsize=1024)
def _closure_tuples(start: tuple[int, ...], mode: GraphMode) -> _ClosureData:
    """The breadth-first closure of ``start`` on index tuples: sorted nodes,
    the kept moves out of every node sorted by source, prime and divided
    positions, and each node's first-found path from the start.  Read it
    through :func:`_closure_entry`, which gives a start of more than five
    fibers one entry for both modes.

    Each edge's dual is the kept move back from its target, so every edge is
    a ``_move_specs`` spec, checked once when it was created.  The way back
    exists because a source with a move is admissible or has more than five
    fibers (no composition with an inadmissible partition has a move), and
    the gate keeps it because it holds every node that has a move.
    """
    gate = None  # one row set per start, see closure()
    if mode is GraphMode.CATALOG_GATED and len(start) <= 5:
        kind, rows = _class_of(start)
        gate = catalog.TABLE_ROWS if kind == "uncovered" else frozenset(rows)
    queue = [start]
    paths = {start: ()}
    edges = []
    for node in queue:  # walks the nodes appended below, in order
        for p in CLOSURE_PRIMES:
            for spec in _moves(node, p):
                if gate is not None and spec.target not in gate:
                    continue
                edges.append(spec)
                if spec.target not in paths:
                    paths[spec.target] = paths[node] + (spec,)
                    queue.append(spec.target)
    nodes = tuple(sorted(paths))
    edge_list = tuple(sorted(edges, key=lambda s: (s.source, s.p, s.divided)))
    return _ClosureData(nodes, edge_list, tuple(map(paths.__getitem__, nodes)))


def _closure_entry(start, mode):
    """The :func:`_closure_tuples` entry of ``start`` in ``mode``.  Beyond
    five fibers the gated closure has no gate, so both modes read the
    combinatorial entry: one search and one cache key per start."""
    return _closure_tuples(start, GraphMode.COMBINATORIAL if len(start) > 5 else mode)


class IsogenyGraph(_Record):
    """Closure of a configuration under prime isogeny moves.

    A graph :func:`closure` returns holds the start's points, its node index
    tuples and its edges as the closure's ``_MoveSpec``s.  ``nodes`` builds
    the ``FiberConfig``s through the public constructor the first time it is
    read, and ``edges`` the ``IsogenyMove``s over those node objects; each
    keeps what it built.  Built directly, a graph holds the typed nodes and
    edges it is given beside their index tuples and specs.  The writers read
    only the tuples and specs.
    """

    __slots__ = ("_nodes", "_edges", "mode")
    _fields = ("nodes", "edges", "mode")

    def __init__(self, nodes: tuple[FiberConfig, ...], edges: tuple[IsogenyMove, ...],
                 mode: GraphMode):
        points = nodes[0].points if nodes else ()
        self._set_fields((tuple(node.indices for node in nodes), points, nodes),
                         (tuple(map(_spec_of, edges)), edges), mode)

    @property
    def nodes(self):
        tuples, points, nodes = self._nodes
        if nodes is None:
            nodes = tuple(FiberConfig(points, t) for t in tuples)
            object.__setattr__(self, "_nodes", (tuples, points, nodes))
        return nodes

    @property
    def edges(self):
        specs, moves = self._edges
        if moves is None:
            config = {node.indices: node for node in self.nodes}.__getitem__
            moves = tuple(_typed_move(spec, config) for spec in specs)
            object.__setattr__(self, "_edges", (specs, moves))
        return moves


def closure(config: FiberConfig, mode: GraphMode = GraphMode.COMBINATORIAL) -> IsogenyGraph:
    """Breadth-first closure of ``config`` under moves for p in {2, 3, 5}.

    Node order is lexicographic in the index tuples.  CatalogGated mode
    keeps only the targets in one row set, decided once per start: the
    start's class column (transported to the start's positions, see
    :func:`catalog_class`), only the start when that column is ambiguous,
    the literal table rows when the start's partition is not admissible,
    and no gate beyond 5 fibers, where both modes share one cached closure.
    Moves keep positions and drop every inadmissible target of at most 5
    fibers, so this equals discarding each reached node the tables cover
    that is not in the start's class.  Combinatorial mode never reads the
    tables.  The graph keeps the cached index tuples and specs; its nodes
    and edges are typed when first read (see :class:`IsogenyGraph`).
    """
    data = _closure_entry(config.indices, mode)
    graph = object.__new__(IsogenyGraph)
    object.__setattr__(graph, "_nodes", (data.nodes, config.points, None))
    object.__setattr__(graph, "_edges", (data.edges, None))
    object.__setattr__(graph, "mode", mode)
    return graph


def catalog_class(config: FiberConfig) -> tuple[FiberConfig, ...]:
    """The class table column containing ``config``, over its point labels.

    Literal table rows take the column at the table alignment; position
    variants are transported when every value-preserving matching agrees.
    The ambiguous position variants (of 62211, 42222 and 81111, see
    :func:`_class_of`) are rejected.
    """
    catalog._check_admissible(config.indices, render_config(config))
    kind, rows = _class_of(config.indices)
    if kind == "ambiguous":
        raise NotInCatalog(
            f"{render_config(config)} cannot be transported: the class rows of "
            f"partition {index_text(descending(config.indices))} are not determined by positions")
    return tuple(FiberConfig(config.points, row) for row in rows)


def graph_to_tsv(graph: IsogenyGraph) -> str:
    """One configuration per line.

    When the node set equals a class table column exactly, rows follow the
    catalog's row order so the output can be diffed visually against the
    tables; otherwise rows are sorted lexicographically.
    """
    tuples = sorted(graph._nodes[0])
    position = catalog.CLASS_INDEX.get(descending(tuples[0])) if tuples else None
    if position is not None and set(tuples) == set(catalog.ALL_CLASSES[position]):
        tuples = catalog.ALL_CLASSES[position]
    return "\n".join(index_text(t) for t in tuples) + "\n"


def graph_to_json(graph: IsogenyGraph) -> str:
    """Canonical JSON: nodes as index arrays, edges by node list position."""
    nodes, points, _ = graph._nodes
    node_index = {node: i for i, node in enumerate(nodes)}
    payload = {
        "schema": 1,
        "mode": str(graph.mode),
        "points": list(points),
        "nodes": [list(node) for node in nodes],
        "edges": [
            {"p": spec.p, "D": list(spec.divided), "from": node_index[spec.source],
             "to": node_index[spec.target]}
            for spec in graph._edges[0]
        ],
    }
    return _canonical_json(payload)
