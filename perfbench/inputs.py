"""Seeded inputs for every workload, as plain data.

Nothing here imports ``ellab``: the table rows are written out so that the
inputs stay the same when the program's own tables change shape.  The same
seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random

# Positioned rows of the four- and five-fiber isogeny class tables.
FOUR_FIBER_ROWS = (
    (3, 3, 3, 3), (9, 1, 1, 1), (1, 9, 1, 1), (1, 1, 9, 1), (1, 1, 1, 9),
    (4, 4, 2, 2), (2, 2, 4, 4), (8, 2, 1, 1), (2, 8, 1, 1), (1, 1, 8, 2), (1, 1, 2, 8),
    (6, 2, 3, 1), (2, 6, 1, 3), (3, 1, 6, 2), (1, 3, 2, 6),
    (5, 5, 1, 1), (1, 1, 5, 5),
)
FIVE_FIBER_ROWS = (
    (3, 3, 3, 2, 1), (1, 1, 1, 6, 3),
    (4, 4, 2, 1, 1), (2, 2, 4, 2, 2), (1, 1, 8, 1, 1), (1, 1, 2, 4, 4),
    (6, 2, 2, 1, 1), (3, 1, 4, 2, 2),
    (5, 4, 1, 1, 1), (5, 3, 2, 1, 1), (7, 2, 1, 1, 1),
)
# Five-fiber rows whose partition has a quartic model (33321, 44211, 62211),
# so `ellab kummer` can read branch degrees and node flags from the catalog.
KUMMER_FIVE_ROWS = ((3, 3, 3, 2, 1), (4, 4, 2, 1, 1), (1, 1, 2, 4, 4), (6, 2, 2, 1, 1))
CATALOG_PARTITIONS = (
    "9111", "8211", "6321", "5511", "4422", "3333",
    "81111", "72111", "63111", "62211", "54111", "53211",
    "44211", "43221", "42222", "33321",
)


def _alignments(left_row, right_row, common):
    """Right-factor labels for every way to put `common` right positions over
    distinct left points; the other right positions get fresh labels."""
    left_points = [f"P{i}" for i in range(1, len(left_row) + 1)]
    n = len(right_row)
    for left_positions in itertools.combinations(range(len(left_row)), common):
        for right_positions in itertools.permutations(range(n), common):
            labels = [None] * n
            for rp, lp in zip(right_positions, left_positions):
                labels[rp] = left_points[lp]
            fresh = iter(f"Q{i}" for i in range(1, n + 1))
            yield tuple(label if label is not None else next(fresh) for label in labels)


def case_a_items():
    """Every alignment of two four-fiber rows on 3 common points (27,744)."""
    return [(l, r, labels) for l in FOUR_FIBER_ROWS for r in FOUR_FIBER_ROWS
            for labels in _alignments(l, r, 3)]


def case_b_items():
    """Every alignment of a four-fiber row with a five-fiber row on 4 common
    points (22,440)."""
    return [(l, r, labels) for l in FOUR_FIBER_ROWS for r in FIVE_FIBER_ROWS
            for labels in _alignments(l, r, 4)]


def universe_items():
    """All compositions of 12 with at least four parts (1,981), ascending."""
    out = []

    def extend(prefix, rest):
        if rest == 0:
            if len(prefix) >= 4:
                out.append(tuple(prefix))
            return
        for k in range(1, rest + 1):
            extend(prefix + [k], rest - k)

    extend([], 12)
    return sorted(out)


# An untraced case_a or case_b run times a seeded 1/SWEEP_SHARE of the diagrams.
SWEEP_SHARE = 4
# A cli run cycles over this many seeded commands.
CLI_ITEMS = 40


def seeded_order(count, seed, salt):
    order = list(range(count))
    random.Random(f"{salt}:{seed}").shuffle(order)
    return order


def seeded_share(items, seed, salt, share):
    """A seeded 1/`share` of the alignments of every row pair, in seeded
    order: each row pair keeps its weight in the sweep."""
    rng = random.Random(f"{salt}:share:{seed}")
    groups = {}
    for index, item in enumerate(items):
        groups.setdefault(item[:2], []).append(index)
    chosen = []
    for indices in groups.values():
        chosen.extend(rng.sample(indices, len(indices) // share))
    rng.shuffle(chosen)
    return chosen


def diagram_pairs(item):
    """Per-point (left, right) index pairs of a product item, with the left
    points first and the unaligned right points after, in input order."""
    left_row, right_row, labels = item
    by_label = dict(zip(labels, right_row))
    pairs = [(a, by_label.get(f"P{i}", 0)) for i, a in enumerate(left_row, 1)]
    pairs += [(0, b) for label, b in zip(labels, right_row) if label.startswith("Q")]
    return tuple(pairs)


def diagram_text(pairs):
    top = ",".join(str(a) if a else "_" for a, _ in pairs)
    bottom = ",".join(str(b) if b else "_" for _, b in pairs)
    return f"{top} / {bottom}"


def _compact(row):
    return "".join(map(str, row))


# Commands whose output README.md and docs/formats.md spell out.
# Each entry: argv, exit code, and the exact stdout.
DOCUMENTED = (
    (("class", "3333"), 0, "3333\n9111\n1911\n1191\n1119\n"),
    (("torsion", "53211", "-p", "2"), 0, "No (MoveNonexistence)\n"),
    (("product", "44211", "6231", "--align", "1,2,4,5"), 0, "4,4,2,1,1 / 6,2,_,3,1\n"),
    (("kummer", "4,4,2,1,1 / 6,2,_,3,1"), 0,
     "points: P1 P2 P3 P4 P5\nfixed: 16 16 16 9 9\nnodes: 2\neuler: 20\n"
     "components: 9..10\nrationality: Forced\nequisingular_zero: true\n"
     "transversal_zero: true\nrigid: true\n"),
    (("certify", "3,3,2,3,1 / 8,2,_,1,1"), 0,
     "case: CaseB\nkind: RigidKummer\ndiagram: 3,3,2,3,1 / 8,2,_,1,1\neuler: 12\n"
     "components: 6..6\nrationality: Forced\nrigid: true\n"),
    (("catalog", "4422"), 0,
     "4422\tGamma_1(4) cap Gamma(2)\t1+1+1+1\t-\t(x+t+z)(x+t-z)(x-t+z)(x-t-z)\n"),
)

# Malformed or unsupported inputs: each must exit 2 with nothing on stdout.
MALFORMED = (
    ("torsion", "3333", "-p", "7"),
    ("class", "12345"),
    ("certify", "3,3,3 / 1,2"),
    ("catalog", "4x22"),
    ("kummer", "4,4,2,1,1 / 6,2,_,3"),
    ("torsion", "3333"),
    ("frobnicate",),
    ("product", "3333", "9111", "--align", "1,2,9,_"),
    ("kummer", "4,4,2,1,1 / 6,2,_,3,1", "--delta", "two"),
)


# The six subcommands, in the order of `ellab --help`.
SUBCOMMANDS = ("catalog", "torsion", "class", "product", "kummer", "certify")


def _command(kind, json_flag, rng, a_items, b_items):
    """One `kind` command on an input drawn uniformly from its candidates."""
    rows = FOUR_FIBER_ROWS + FIVE_FIBER_ROWS
    if kind == "catalog":
        partition = rng.choice(CATALOG_PARTITIONS + (None,))  # None lists every entry
        if partition is None:
            return ("catalog", *json_flag)
        digits = list(partition)
        rng.shuffle(digits)  # lookups are order-insensitive
        return ("catalog", "".join(digits), *json_flag)
    if kind == "torsion":
        return ("torsion", _compact(rng.choice(rows)), "-p", str(rng.choice((2, 3, 5))),
                *json_flag)
    if kind == "class":
        mode = rng.choice(("combinatorial", "catalog"))
        return ("class", _compact(rng.choice(rows)), "--mode", mode, *json_flag)
    if kind == "product":
        left_row, right_row, labels = rng.choice(a_items + b_items)
        align = ",".join("_" if label.startswith("Q") else label[1:] for label in labels)
        return ("product", _compact(left_row), _compact(right_row), "--align", align,
                *json_flag)
    if kind == "kummer":
        candidates = [item for item in b_items if item[1] in KUMMER_FIVE_ROWS]
        # A node count must be given except for two reference diagrams; 2 is
        # the count the kummer layer assumes for those.
        return ("kummer", diagram_text(diagram_pairs(rng.choice(candidates))), "--delta", "2",
                *json_flag)
    return ("certify", diagram_text(diagram_pairs(rng.choice(a_items + b_items))), *json_flag)


def cli_commands(seed, count):
    """A seeded command list.  Every tenth command is malformed and every
    tenth (offset by five) is a documented example.  The rest go round the
    six subcommands in turn, each round without `--json` and the next with
    it, on inputs drawn uniformly from table rows and Case A/B diagrams."""
    rng = random.Random(f"cli:{seed}")
    a_items, b_items = case_a_items(), case_b_items()
    malformed = list(MALFORMED)
    documented = [argv for argv, _, _ in DOCUMENTED]
    rng.shuffle(malformed)
    rng.shuffle(documented)
    commands = []
    drawn = 0
    for i in range(count):
        if i % 10 == 9:
            commands.append(malformed[(i // 10) % len(malformed)])
        elif i % 10 == 4:
            commands.append(documented[(i // 10) % len(documented)])
        else:
            kind = SUBCOMMANDS[drawn % len(SUBCOMMANDS)]
            json_flag = ("--json",) if (drawn // len(SUBCOMMANDS)) % 2 else ()
            commands.append(_command(kind, json_flag, rng, a_items, b_items))
            drawn += 1
    return commands
