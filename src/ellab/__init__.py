"""Semi-stable elliptic fiber configurations, isogeny classes, and rigidity
certificates for Calabi-Yau fiber products.

The public names load lazily (PEP 562): each defining module is imported on
the first access to one of its names, so ``import ellab`` and the CLI load
only what they use.
"""

from importlib import import_module

_EXPORTS = {
    "catalog": ("Admissibility", "CatalogEntry", "FOUR_FIBER_CLASSES", "FIVE_FIBER_CLASSES",
                "admissible", "catalog_lookup", "export_catalog"),
    "configs": ("FiberConfig", "parse_config", "partition_of", "render_config"),
    "correspondence": ("CaseKind", "Certificate", "CertificateKind", "HypothesisCase",
                       "certificate_to_json", "certify", "classify_hypotheses"),
    "errors": ("EllabError",),
    "isogeny": ("GraphMode", "IsogenyGraph", "IsogenyMove", "candidate_moves", "catalog_class",
                "closure", "dual_move", "graph_to_json", "graph_to_tsv", "halved_sum"),
    "kummer": ("KummerInput", "KummerReport", "Rationality", "branch_curve_euler",
               "component_interval", "default_node_count", "equisingular_zero",
               "fiber_fixed_points", "kummer_input_from_catalog", "kummer_rigidity",
               "make_kummer_input", "rationality_verdict", "report_to_json"),
    "product": ("AppliedMove", "ProductDiagram", "apply_move", "common_singular_count",
                "diagram_to_json", "factors_share_class", "find_rigid_partner",
                "is_rigid_criterion", "left_config", "make_product", "parse_diagram",
                "render_diagram", "right_config"),
    "torsion": ("Provenance", "TorsionAnswer", "TorsionStatus", "excludes_two_torsion",
                "sufficient_torsion_criterion", "torsion_status"),
}
# public name -> defining module
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
