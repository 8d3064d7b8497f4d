"""The package namespace: every public name, loaded from its defining module
on first access."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ellab

# The 60 public names, by defining module.
EXPORTS = {
    "catalog": ["Admissibility", "CatalogEntry", "FOUR_FIBER_CLASSES", "FIVE_FIBER_CLASSES",
                "admissible", "catalog_lookup", "export_catalog"],
    "configs": ["FiberConfig", "parse_config", "partition_of", "render_config"],
    "correspondence": ["CaseKind", "Certificate", "CertificateKind", "HypothesisCase",
                       "certificate_to_json", "certify", "classify_hypotheses"],
    "errors": ["EllabError"],
    "isogeny": ["GraphMode", "IsogenyGraph", "IsogenyMove", "candidate_moves", "catalog_class",
                "closure", "dual_move", "graph_to_json", "graph_to_tsv", "halved_sum"],
    "kummer": ["KummerInput", "KummerReport", "Rationality", "component_interval",
               "default_node_count", "equisingular_zero", "fiber_fixed_points",
               "kummer_input_from_catalog", "kummer_rigidity", "make_kummer_input",
               "rationality_verdict", "report_to_json"],
    "product": ["AppliedMove", "ProductDiagram", "apply_move", "common_singular_count",
                "diagram_to_json", "factors_share_class", "find_rigid_partner",
                "is_rigid_criterion", "left_config", "make_product", "parse_diagram",
                "render_diagram", "right_config"],
    "torsion": ["Provenance", "TorsionAnswer", "TorsionStatus", "excludes_two_torsion",
                "sufficient_torsion_criterion", "torsion_status"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
DEFINED_IN = [(name, module) for module, names in EXPORTS.items() for name in names]


def test_all_lists_the_public_names():
    assert len(NAMES) == 60
    assert sorted(ellab.__all__) == NAMES
    assert ellab.__version__ == "0.1.0"


@pytest.mark.parametrize("name, module", DEFINED_IN, ids=[name for name, _ in DEFINED_IN])
def test_name_is_its_defining_modules(name, module):
    assert getattr(ellab, name) is getattr(import_module(f"ellab.{module}"), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ellab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(ellab))
    assert "__version__" in dir(ellab)


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        ellab.no_such_name  # noqa: B018


def test_import_loads_no_submodule():
    """-S keeps site's own imports out of the check."""
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, ellab; print(sorted(m for m in sys.modules if m.startswith('ellab.')))"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
