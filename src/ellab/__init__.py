"""Semi-stable elliptic fiber configurations, isogeny classes, and rigidity
certificates for Calabi-Yau fiber products."""

from .catalog import (Admissibility, CatalogEntry, FOUR_FIBER_CLASSES,
                      FIVE_FIBER_CLASSES, admissible, catalog_lookup,
                      export_catalog)
from .configs import FiberConfig, parse_config, partition_of, render_config
from .correspondence import (CaseKind, Certificate, CertificateKind,
                             HypothesisCase, certificate_to_json, certify,
                             classify_hypotheses)
from .errors import EllabError
from .isogeny import (GraphMode, IsogenyGraph, IsogenyMove, candidate_moves,
                      catalog_class, closure, dual_move, graph_to_json,
                      graph_to_tsv, halved_sum)
from .kummer import (KummerInput, KummerReport, Rationality,
                     branch_curve_euler, component_interval, default_node_count,
                     equisingular_zero, fiber_fixed_points,
                     kummer_input_from_catalog, kummer_rigidity,
                     make_kummer_input, rationality_verdict, report_to_json)
from .product import (AppliedMove, ProductDiagram, apply_move,
                      common_singular_count, diagram_to_json,
                      factors_share_class, find_rigid_partner,
                      is_rigid_criterion, left_config, make_product,
                      parse_diagram, render_diagram, right_config)
from .torsion import (Provenance, TorsionAnswer, TorsionStatus,
                      excludes_two_torsion, sufficient_torsion_criterion,
                      torsion_status)

__version__ = "0.1.0"
