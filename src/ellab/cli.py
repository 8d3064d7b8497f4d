"""Command line front end.

Thin wrappers over the library, with byte-stable output.  Exit codes:
0 success, 1 domain-negative result (certification failed, catalog miss),
2 input error.  See docs/formats.md for the exact formats.

Each handler imports the modules it runs, and ``argparse`` is imported only
to build the parser, so a call loads (and, with no bytecode cache, compiles)
only what its subcommand needs.
"""

from __future__ import annotations

import sys
from functools import lru_cache

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


def _int_arg(text):
    """argparse type of the integer options, through :func:`_parse_int`."""
    import argparse
    try:
        return _parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, shared by every :func:`main` call:
    parsing does not change it, and argparse parsers are reference cycles
    (each action points back at its container), so a parser per call would
    leave its whole graph to the cyclic garbage collector."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="ellab",
        description="Classify semi-stable elliptic fiber configurations, their isogeny "
                    "classes, and rigidity certificates for fiber products.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list or query catalog entries")
    p.add_argument("partition", nargs="?", help="partition to look up, e.g. 4422")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("torsion", help="p-torsion section status of a configuration")
    p.add_argument("config", help="configuration, e.g. 53211 or 5,3,2,1,1")
    p.add_argument("-p", type=_int_arg, required=True, help="prime, one of 2 3 5")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_torsion)

    p = sub.add_parser("class", help="isogeny closure of a configuration")
    p.add_argument("config")
    p.add_argument("--mode", choices=["combinatorial", "catalog"], default="combinatorial")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_class)

    p = sub.add_parser("product", help="build a fiber product diagram")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--align",
                   help="per right-factor position: 1-based left position or _ for a new point, "
                        "e.g. 1,2,4,5 (default: align by position)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("kummer", help="Kummer rigidity report for a diagram")
    p.add_argument("diagram", help="e.g. '4,4,2,1,1 / 6,2,_,3,1'")
    p.add_argument("--delta", type=_int_arg, help="node count of the fixed curve")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_kummer)

    p = sub.add_parser("certify", help="certify a diagram against a rigid partner")
    p.add_argument("diagram")
    p.add_argument("--delta", type=_int_arg, help="node count for the Kummer route")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except EllabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
