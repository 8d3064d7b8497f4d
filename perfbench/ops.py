"""The operations each in-process workload times, and the checks on their outputs.

Calls go through module attributes (``correspondence.certify``, not a name
bound at import), so span wrappers installed by the tracer are seen.
"""

from __future__ import annotations

import contextlib
import io
import sys

from ellab import cli, configs, correspondence, errors, isogeny, kummer, product, torsion

PRIMES = (2, 3, 5)
# Partitions whose five-fiber factor forbids a smooth-paired I_6 fiber.
_NO_SMOOTH_I6 = ((6, 2, 2, 1, 1),)


def build_diagram(item):
    left_row, right_row, labels = item
    left = configs.FiberConfig(tuple(f"P{i}" for i in range(1, len(left_row) + 1)), left_row)
    return product.make_product(left, configs.FiberConfig(labels, right_row))


def build_config(composition):
    return configs.FiberConfig(configs.default_points(len(composition)), composition)


def certify_op(diagram):
    """One sweep op: certify plus JSON serialization.  A diagram outside the
    hypothesis cases is a NotApplicable outcome, not an error."""
    try:
        cert = correspondence.certify(diagram)
    except errors.HypothesesNotMet as exc:
        return None, f"NotApplicable: {exc}\n"
    return cert, correspondence.certificate_to_json(cert)


def universe_op(config):
    """Closure in both modes plus the torsion oracle for p in {2, 3, 5}."""
    combinatorial = isogeny.closure(config, isogeny.GraphMode.COMBINATORIAL)
    gated = isogeny.closure(config, isogeny.GraphMode.CATALOG_GATED)
    statuses = tuple(torsion.torsion_status(config, p) for p in PRIMES)
    return combinatorial, gated, statuses


def cli_render(argv):
    """Exit code, stdout and stderr of ``ellab.cli.main`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def lru_caches():
    """Every functools.lru_cache defined in the ellab package, by qualified name."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "ellab" and not name.startswith("ellab."):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_info") and hasattr(value, "cache_clear") \
                    and value.__module__ == name:
                found[f"{name.split('.')[-1]}.{value.__wrapped__.__name__}"] = value
    return dict(sorted(found.items()))


# ------------------------------------------------------------------ checks
# Each check returns None when the output is right, else a short reason.

def _replay(diagram, moves):
    for applied in moves:
        diagram = product.apply_move(diagram, applied.side, applied.move)
    return diagram


def _check_partner(diagram, cert):
    partner = cert.diagram
    if not product.is_rigid_criterion(partner):
        return "partner is not rigid"
    if _replay(diagram, cert.moves).pairs != partner.pairs:
        return "replaying the logged moves does not give the partner"
    return None


def _expected_not_applicable(pairs):
    """Case B clauses for a 4+5 diagram on 4 common points, written out
    independently of the program: no smooth-paired I_5 or I_7, and no
    smooth-paired I_6 when the five-fiber factor is 62211."""
    five_side = 1 if sum(1 for _, b in pairs if b) == 5 else 0
    five = tuple(sorted((pair[five_side] for pair in pairs if pair[five_side]), reverse=True))
    for a, b in pairs:
        if a and b:
            continue
        n = a + b
        if n in (5, 7) or (n == 6 and five in _NO_SMOOTH_I6):
            return True
    return False


def kummer_rederives(cert, node_count=None):
    """Whether the Kummer layer re-derives the certificate's report."""
    try:
        report = kummer.kummer_rigidity(kummer.kummer_input_from_catalog(cert.diagram, node_count))
    except errors.EllabError:
        return False
    return report == cert.kummer_report


def check_certificate(workload, diagram, cert, text):
    kinds = correspondence.CertificateKind
    if cert is None:
        if workload == "case_a" or not _expected_not_applicable(diagram.pairs):
            return "unexpected NotApplicable"
        return None
    case = correspondence.CaseKind.CASE_A if workload == "case_a" else correspondence.CaseKind.CASE_B
    if cert.case.kind is not case:
        return f"case {cert.case.kind}"
    if workload == "case_b" and _expected_not_applicable(diagram.pairs):
        return "certified a diagram outside Case B"
    if workload == "case_a" and cert.kind is not kinds.RIGID_PRODUCT_PARTNER:
        return f"kind {cert.kind}"
    if not text.startswith("{") or f'"kind": "{cert.kind}"' not in text:
        return "JSON does not carry the certificate kind"
    if cert.kind is kinds.RIGID_PRODUCT_PARTNER:
        return _check_partner(diagram, cert)
    if cert.kind is kinds.RIGID_KUMMER:
        if _replay(diagram, cert.moves).pairs != cert.diagram.pairs:
            return "replaying the logged moves does not give the Kummer diagram"
        if not cert.kummer_report.rigid:
            return "RigidKummer with a non-rigid report"
        if not kummer_rederives(cert, cert.kummer_report.node_count):
            return "kummer does not re-derive the report"
        return None
    if not cert.reasons:
        return "NotCertified without reasons"
    return None


def check_universe(config, result):
    combinatorial, gated, statuses = result
    for graph in (combinatorial, gated):
        nodes = {node.indices for node in graph.nodes}
        if config.indices not in nodes:
            return f"{graph.mode} closure misses its start"
        edges = {(m.p, m.source.indices, m.target.indices) for m in graph.edges}
        for p, source, target in edges:
            if source not in nodes or target not in nodes:
                return f"{graph.mode} edge leaves the node set"
            if (p, target, source) not in edges:
                return f"{graph.mode} edge without its dual"
    if not {node.indices for node in gated.nodes} <= {node.indices for node in combinatorial.nodes}:
        return "gated closure is not inside the combinatorial one"
    for p, status in zip(PRIMES, statuses):
        no_moves = not isogeny.candidate_moves(config, p)
        said_no = torsion.Provenance.MOVE_NONEXISTENCE in status.provenances
        if no_moves != said_no:
            return f"p={p}: MoveNonexistence disagrees with candidate_moves"
    return None


def universe_text(result):
    combinatorial, gated, statuses = result
    return "".join((isogeny.graph_to_tsv(combinatorial), "--\n", isogeny.graph_to_tsv(gated),
                    "--\n", "\n".join(str(s) for s in statuses), "\n"))
