"""Rigidity bookkeeping for fiberwise Kummer quotients of a fiber product.

The Kummer involution acts on each product fiber with 16, 12 or 9 fixed
points: per factor, a smooth or even-index fiber contributes 4 fixed points
and an odd-index fiber 3, and the counts multiply.  The fixed curve C is a
16-section; the Euler number of its resolution is

    e = 16 * (2 - s) + sum over points of fixed(a, b) + delta,

with s the number of singular base points and delta the number of nodes of
C.  The branch curve of the induced double cover of P^3 is the intersection
of the two quartic cones over the factor branch quartics; a pair of
components of degrees (d1, d2) contributes between 1 and gcd(d1, d2)
components, which bounds the component count c within an interval.  Since
e equals the sum of 2 - 2g over components, e = 2 * c_max forces c = c_max
with every component rational, killing the transversal deformations; the
equisingular deformations vanish exactly when every I_2 x I_0 fiber comes
from a node (not a double tangent) of the defining quartic.  Rigid means
both spaces vanish.

No general rule for delta is known to this package.  It defaults to 2 for
a diagram shaped like the two reference diagrams, the worked examples of
arXiv 0802.3763, 4,4,2,1,1 / 6,2,_,3,1 and 3,3,2,3,1 / 8,2,_,1,1, whose
fixed curves acquire exactly two nodes: its only smooth fiber paired with
an I_n, n >= 2, is one I_2 x I_0 fiber (the shape the Kummer route
handles), and its multiset of fixed-point counts equals a reference
diagram's.  Otherwise delta must be supplied.  Neither condition depends
on the order of the two factors.  Certification and the report use this
one rule.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from .catalog import catalog_lookup
from .configs import _Record, _canonical_json, descending
from .errors import MalformedInput, MissingFlag, MissingNodeCount, NotInCatalog
from .product import _LONE_I2, ProductDiagram, _obstructions

# The obstructions (product._obstructions) of a diagram whose one
# obstruction is a lone I_2 x I_0 fiber, the only one the Kummer route
# handles; the per-side list is the one product._class_split files a class
# node under.
LONE_I2_OBSTRUCTIONS = ((_LONE_I2, []), ([], _LONE_I2))

# Fixed-point multisets of the two reference diagrams, in the order of the
# module docstring, each as a descending tuple (configs.descending).
NODE_COUNT_PATTERNS = ((16, 16, 16, 9, 9), (16, 12, 12, 9, 9))


class Rationality(Enum):
    FORCED = "Forced"
    UNDETERMINED = "Undetermined"
    IMPOSSIBLE = "Impossible"

    def __str__(self):
        return self.value


def fiber_fixed_points(a: int, b: int) -> int:
    """Fixed points of the involution on the product fiber I_a x I_b (0 = smooth)."""
    if a < 0 or b < 0:
        raise MalformedInput("fiber indices must be non-negative")
    return (3 if a % 2 else 4) * (3 if b % 2 else 4)


def _node_count(pairs, node_count=None) -> int | None:
    """The delta rule: ``node_count`` when given, else 2 when ``pairs`` have
    a lone I_2 x I_0 obstruction and a reference fixed-point multiset, else None."""
    if node_count is not None or _obstructions(pairs) not in LONE_I2_OBSTRUCTIONS:
        return node_count
    return _pattern_node_count(pairs)


def _pattern_node_count(pairs) -> int | None:
    """The delta rule on ``pairs`` already known to have a lone I_2 x I_0
    obstruction: 2 for a reference fixed-point multiset, else None."""
    counts = descending([fiber_fixed_points(a, b) for a, b in pairs])
    return 2 if counts in NODE_COUNT_PATTERNS else None


def _checked_node_count(node_count):
    """``node_count`` when it is None or a non-negative int, else
    MalformedInput.  A bool, a float or another int subclass is refused:
    the report would carry it, and the JSON writer takes exactly int."""
    if node_count is None:
        return None
    if type(node_count) is not int:
        raise MalformedInput(f"node count must be an integer, got {node_count!r}")
    if node_count < 0:
        raise MalformedInput(f"node count must be non-negative, got {node_count}")
    return node_count


def default_node_count(diagram: ProductDiagram) -> int | None:
    """2 when the diagram is shaped like a reference diagram (see the module
    docstring), else None."""
    return _node_count(diagram.pairs)


class KummerInput(_Record):
    __slots__ = ("diagram", "node_count", "left_degrees", "right_degrees", "i2_flags")

    def __init__(self, diagram: ProductDiagram, node_count: int | None,
                 left_degrees: tuple[int, ...], right_degrees: tuple[int, ...],
                 i2_flags: tuple[tuple[str, bool], ...]):  # (point label, node_induced), sorted
        self._set_fields(diagram, _checked_node_count(node_count), left_degrees, right_degrees,
                         i2_flags)
        for degrees in (left_degrees, right_degrees):
            if sum(degrees) != 4:
                raise MalformedInput(f"branch component degrees must sum to 4: {degrees}")
        expected = {pt for pt, (a, b) in zip(diagram.points, diagram.pairs) if {a, b} == {2, 0}}
        flagged = {pt for pt, _ in i2_flags}
        if flagged != expected:
            raise MissingFlag(
                f"node flags must cover exactly the I2 x I0 points {sorted(expected)}, "
                f"got {sorted(flagged)}")


def make_kummer_input(diagram, left_degrees, right_degrees, i2_flags=None,
                      node_count=None) -> KummerInput:
    """Convenience constructor; ``i2_flags`` is a mapping point -> bool."""
    flags = tuple(sorted((i2_flags or {}).items()))
    return KummerInput(diagram, node_count, tuple(left_degrees), tuple(right_degrees), flags)


def kummer_input_from_catalog(diagram: ProductDiagram, node_count=None) -> KummerInput:
    """Fill degrees and node flags from the catalog entries of the factors."""
    entries = []
    for side, indices in zip(("left", "right"), diagram._factors):
        entry = catalog_lookup(indices)
        if entry is None or entry.branch_component_degrees is None:
            raise NotInCatalog(
                f"no branch component degrees recorded for the {side} factor {descending(indices)}")
        entries.append(entry)
    left, right = entries
    flags = {}
    for pt, (a, b) in zip(diagram.points, diagram.pairs):
        if {a, b} != {2, 0}:
            continue
        entry = left if a == 2 else right
        if entry.i2_node_induced is None:
            raise MissingFlag(f"catalog records no node flag for point {pt}")
        flags[pt] = entry.i2_node_induced
    return make_kummer_input(diagram, left.branch_component_degrees,
                             right.branch_component_degrees, flags, node_count)


def component_interval(left_degrees, right_degrees) -> tuple[int, int]:
    """(c_min, c_max) for the intersection of the two quartic cones.

    Each component pair contributes at least one curve and at most
    gcd(d1, d2) of them.
    """
    for degrees in (left_degrees, right_degrees):
        if sum(degrees) != 4:
            raise MalformedInput(f"branch component degrees must sum to 4: {degrees}")
    c_min = len(left_degrees) * len(right_degrees)
    c_max = sum(gcd(d1, d2) for d1 in left_degrees for d2 in right_degrees)
    return c_min, c_max


def rationality_verdict(euler: int, c_min: int, c_max: int) -> Rationality:
    """e = sum of (2 - 2g) over c components with c_min <= c <= c_max.

    e = 2 * c_max forces the maximal component count with every component
    rational; larger (or odd) e is impossible; anything else stays open.
    """
    if not 1 <= c_min <= c_max:
        raise MalformedInput(f"need 1 <= c_min <= c_max, got ({c_min}, {c_max})")
    if euler % 2 or euler > 2 * c_max:
        return Rationality.IMPOSSIBLE
    if euler == 2 * c_max:
        return Rationality.FORCED
    return Rationality.UNDETERMINED


def equisingular_zero(inp: KummerInput) -> bool:
    """True iff every I_2 x I_0 point is induced by a node of its quartic."""
    return all(flag for _, flag in inp.i2_flags)


class KummerReport(_Record):
    __slots__ = ("points", "fixed_counts", "node_count", "euler", "component_min",
                 "component_max", "rationality", "equisingular_zero")

    def __init__(self, points: tuple[str, ...], fixed_counts: tuple[int, ...], node_count: int,
                 euler: int, component_min: int, component_max: int,
                 rationality: Rationality, equisingular_zero: bool):
        self._set_fields(points, fixed_counts, node_count, euler, component_min,
                         component_max, rationality, equisingular_zero)

    @property
    def transversal_zero(self) -> bool:
        return self.rationality is Rationality.FORCED

    @property
    def rigid(self) -> bool:
        return self.equisingular_zero and self.transversal_zero


def kummer_rigidity(inp: KummerInput) -> KummerReport:
    """Assemble the full report; rigid iff both deformation spaces vanish."""
    diagram = inp.diagram
    node_count = _node_count(diagram.pairs, inp.node_count)
    if node_count is None:
        raise MissingNodeCount(
            "node count of the fixed curve is not known for this diagram; supply it")
    fixed_counts = tuple(fiber_fixed_points(a, b) for a, b in diagram.pairs)
    euler = 16 * (2 - diagram.singular_count) + sum(fixed_counts) + node_count
    c_min, c_max = component_interval(inp.left_degrees, inp.right_degrees)
    rationality = rationality_verdict(euler, c_min, c_max)
    return KummerReport(
        points=diagram.points,
        fixed_counts=fixed_counts,
        node_count=node_count,
        euler=euler,
        component_min=c_min,
        component_max=c_max,
        rationality=rationality,
        equisingular_zero=equisingular_zero(inp),
    )


def _report_payload(report: KummerReport) -> dict:
    """The JSON object of a report, also nested in certificate JSON."""
    return {
        "schema": 1,
        "points": list(report.points),
        "fixed_counts": list(report.fixed_counts),
        "node_count": report.node_count,
        "euler": report.euler,
        "components": [report.component_min, report.component_max],
        "rationality": str(report.rationality),
        "equisingular_zero": report.equisingular_zero,
        "transversal_zero": report.transversal_zero,
        "rigid": report.rigid,
    }


def report_to_json(report: KummerReport) -> str:
    return _canonical_json(_report_payload(report))


def render_report(report: KummerReport) -> str:
    lines = [
        "points: " + " ".join(report.points),
        "fixed: " + " ".join(str(c) for c in report.fixed_counts),
        f"nodes: {report.node_count}",
        f"euler: {report.euler}",
        f"components: {report.component_min}..{report.component_max}",
        f"rationality: {report.rationality}",
        f"equisingular_zero: {'true' if report.equisingular_zero else 'false'}",
        f"transversal_zero: {'true' if report.transversal_zero else 'false'}",
        f"rigid: {'true' if report.rigid else 'false'}",
    ]
    return "\n".join(lines) + "\n"
