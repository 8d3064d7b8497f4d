"""Command line front end.

Thin wrappers over the library, with byte-stable output.  Exit codes:
0 success, 1 domain-negative result (certification failed, catalog miss),
2 input error.  See docs/formats.md for the exact formats.

Each handler imports the modules it runs, and :func:`main` reads the
command line from one table of the six subcommands through
:mod:`ellab.cmdline`, without ``argparse``, so a call loads (and, with no
bytecode cache, compiles) only what its subcommand needs, and a bare import
of this module compiles no parser.
"""

from __future__ import annotations

import sys

from .configs import (FiberConfig, _canonical_json, _parse_int, index_text, parse_config,
                      partition_of)
from .errors import EllabError, MalformedInput


def _entry_line(entry):
    degrees = "-" if entry.branch_component_degrees is None \
        else "+".join(str(d) for d in entry.branch_component_degrees)
    flags = []
    if entry.i2_node_induced:
        flags.append("i2-node-induced")
    if entry.distinguished_positions is not None:
        flags.append("distinguished=" + ",".join(str(i) for i in entry.distinguished_positions))
    return "\t".join([
        index_text(entry.partition),
        entry.modular_group_name or "-",
        degrees,
        ";".join(flags) or "-",
        entry.quartic_equation or "-",
    ])


def _cmd_catalog(args) -> int:
    from . import catalog
    entries = catalog.canonical_order(catalog.EMBEDDED_ENTRIES)
    if args.partition is not None:
        partition = partition_of(parse_config(args.partition))
        entries = tuple(e for e in entries if e.partition == partition)
        if not entries:
            print(f"no catalog entry for {args.partition}", file=sys.stderr)
            return 1
    if args.json:
        sys.stdout.write(catalog.export_catalog(entries))
    else:
        for entry in entries:
            print(_entry_line(entry))
    return 0


def _cmd_torsion(args) -> int:
    from .torsion import torsion_status
    status = torsion_status(parse_config(args.config), args.p)
    if args.json:
        payload = {
            "schema": 1,
            "answer": str(status.answer),
            "provenances": [str(p) for p in status.provenances],
        }
        sys.stdout.write(_canonical_json(payload))
    else:
        print(status)
    return 0


def _cmd_class(args) -> int:
    from .isogeny import GraphMode, closure, graph_to_json, graph_to_tsv
    mode = GraphMode.CATALOG_GATED if args.mode == "catalog" else GraphMode.COMBINATORIAL
    graph = closure(parse_config(args.config), mode)
    sys.stdout.write(graph_to_json(graph) if args.json else graph_to_tsv(graph))
    return 0


def _parse_alignment(spec, left, right):
    entries = [cell.strip() for cell in spec.split(",")]
    if len(entries) != len(right.points):
        raise MalformedInput(
            f"--align needs one entry per right-factor position, got {len(entries)}")
    alignment = {}
    for label, cell in zip(right.points, entries):
        if cell == "_":
            continue
        try:
            position = _parse_int(cell)
        except ValueError:
            raise MalformedInput(f"bad --align entry {cell!r}") from None
        if not 1 <= position <= len(left.points):
            raise MalformedInput(f"--align position {position} out of range")
        alignment[label] = left.points[position - 1]
    return alignment


def _cmd_product(args) -> int:
    from .product import diagram_to_json, factors_share_class, make_product, render_diagram
    left = parse_config(args.left)
    right = parse_config(args.right)
    # fresh labels on the right so only the alignment identifies points
    right = FiberConfig([f"Q{i}" for i in range(1, len(right) + 1)], right.indices)
    if args.align:
        alignment = _parse_alignment(args.align, left, right)
    else:
        alignment = {q: p for q, p in zip(right.points, left.points)}
    diagram = make_product(left, right, alignment)
    if factors_share_class(diagram):
        print("warning: factors share an isogeny class", file=sys.stderr)
    sys.stdout.write(diagram_to_json(diagram) if args.json else render_diagram(diagram) + "\n")
    return 0


def _cmd_kummer(args) -> int:
    from .kummer import kummer_input_from_catalog, kummer_rigidity, render_report, report_to_json
    from .product import parse_diagram
    diagram = parse_diagram(args.diagram)
    report = kummer_rigidity(kummer_input_from_catalog(diagram, args.delta))
    sys.stdout.write(report_to_json(report) if args.json else render_report(report))
    return 0


def _cmd_certify(args) -> int:
    from .correspondence import (CertificateKind, certificate_to_json, certify,
                                 render_certificate)
    from .product import parse_diagram
    diagram = parse_diagram(args.diagram)
    cert = certify(diagram, node_count=args.delta)
    sys.stdout.write(certificate_to_json(cert) if args.json else render_certificate(cert))
    return 0 if cert.kind is not CertificateKind.NOT_CERTIFIED else 1


# The command line, one row per subcommand, in the layout ellab.cmdline reads.
_JSON = ("--json", None, False)
_COMMANDS = {
    "catalog": (_cmd_catalog, ("partition?",), (_JSON,)),
    "torsion": (_cmd_torsion, ("config",), (("-p", int, ...), _JSON)),
    "class": (_cmd_class, ("config",),
              (("--mode", ("combinatorial", "catalog"), "combinatorial"), _JSON)),
    "product": (_cmd_product, ("left", "right"), (("--align", str, None), _JSON)),
    "kummer": (_cmd_kummer, ("diagram",), (("--delta", int, None), _JSON)),
    "certify": (_cmd_certify, ("diagram",), (("--delta", int, None), _JSON)),
}

# What -h prints: the help argparse printed for these rows at 80 columns.
_HELP = {
    "": """\
usage: ellab [-h] {catalog,torsion,class,product,kummer,certify} ...

Classify semi-stable elliptic fiber configurations, their isogeny classes, and
rigidity certificates for fiber products.

positional arguments:
  {catalog,torsion,class,product,kummer,certify}
    catalog             list or query catalog entries
    torsion             p-torsion section status of a configuration
    class               isogeny closure of a configuration
    product             build a fiber product diagram
    kummer              Kummer rigidity report for a diagram
    certify             certify a diagram against a rigid partner

options:
  -h, --help            show this help message and exit
""",
    "catalog": """\
usage: ellab catalog [-h] [--json] [partition]

positional arguments:
  partition   partition to look up, e.g. 4422

options:
  -h, --help  show this help message and exit
  --json
""",
    "torsion": """\
usage: ellab torsion [-h] -p P [--json] config

positional arguments:
  config      configuration, e.g. 53211 or 5,3,2,1,1

options:
  -h, --help  show this help message and exit
  -p P        prime, one of 2 3 5
  --json
""",
    "class": """\
usage: ellab class [-h] [--mode {combinatorial,catalog}] [--json] config

positional arguments:
  config

options:
  -h, --help            show this help message and exit
  --mode {combinatorial,catalog}
  --json
""",
    "product": """\
usage: ellab product [-h] [--align ALIGN] [--json] left right

positional arguments:
  left
  right

options:
  -h, --help     show this help message and exit
  --align ALIGN  per right-factor position: 1-based left position or _ for a
                 new point, e.g. 1,2,4,5 (default: align by position)
  --json
""",
    "kummer": """\
usage: ellab kummer [-h] [--delta DELTA] [--json] diagram

positional arguments:
  diagram        e.g. '4,4,2,1,1 / 6,2,_,3,1'

options:
  -h, --help     show this help message and exit
  --delta DELTA  node count of the fixed curve
  --json
""",
    "certify": """\
usage: ellab certify [-h] [--delta DELTA] [--json] diagram

positional arguments:
  diagram

options:
  -h, --help     show this help message and exit
  --delta DELTA  node count for the Kummer route
  --json
""",
}


def main(argv=None) -> int:
    from .cmdline import parse  # compiled only when a command line is read
    try:
        handler, args = parse(sys.argv[1:] if argv is None else argv, _COMMANDS, _HELP)
        if handler is None:  # args is the help text asked for
            sys.stdout.write(args)
            return 0
        return handler(args)
    except EllabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
