"""Every per-layer metric of BENCHMARK.json names a function that exists.

The benchmark's traced run fails when a ``<module>.<function>`` metric names
a function its span recorder did not wrap, so a rename or removal in ``smg``
has to be caught here, by the suite that runs on every change.
"""

import importlib
import inspect
import json
from pathlib import Path

from smg.diagram import Diagram

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: layers the recorder wraps as ``Diagram`` methods
METHODS = ("faces", "canonical_code")


def test_per_layer_metrics_name_public_functions():
    layers = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        module, function, *stat = metric["name"].split(".")
        if module != "trace" and function != "all" and stat in (["self_s"], ["calls"]):
            layers.add((module, function))
    assert layers
    missing = []
    for module, function in sorted(layers):
        if module == "diagram" and function in METHODS:
            fn = vars(Diagram).get(function)
        else:
            fn = getattr(importlib.import_module(f"smg.{module}"), function, None)
            # the recorder names a span by where the function is defined
            if (getattr(fn, "__module__", None), getattr(fn, "__name__", None)) \
                    != (f"smg.{module}", function):
                fn = None
        if function.startswith("_") or not inspect.isfunction(fn):
            missing.append(f"{module}.{function}")
    assert not missing, f"BENCHMARK.json names missing layers: {missing}"


#: what the recorder wraps in ``smg.diagram``, ``smg.moves``,
#: ``smg.catalog``, ``smg.resolution``, ``smg.transforms``, ``smg.groups``
#: and ``smg.quandles``: each public function, its own or imported from
#: another ``smg`` module.  A helper called per site, per variant, per
#: vertex, per code, per pivot or per elimination costs a span on every
#: call, so a new public name here is a change to the benchmark's trace and
#: must be deliberate; helpers stay private.
PUBLIC_FUNCTIONS = {
    "diagram": ["enumerate_orientations", "parse_smg", "serialize"],
    "moves": ["apply_move", "code_digest", "find_sites", "parse_pattern",
              "search_equivalence", "verify_sequence"],
    "catalog": ["catalog_map", "mirror_pattern", "move_catalog", "orient_pattern",
                "parse_pattern"],
    "resolution": ["apply_move", "classical_components", "code_digest", "crossing_sign",
                   "is_admissible", "is_trivial_unlink", "linking_matrix",
                   "reidemeister_simplify", "resolve", "smoothing_pairs"],
    "transforms": ["classical_components", "coloring_count", "crossing_sign", "cyclic_reduce",
                   "export_exterior", "kirby_group", "linking_matrix", "parse_pattern", "profile",
                   "semi_transform"],
    "groups": ["abelianization", "abstract_orientation", "cyclic_group", "cyclic_reduce",
               "dihedral_group", "free_reduce", "hom_count", "negative_arcs", "product_group",
               "quaternion_group", "resolve", "smith_normal_form", "smoothing_pairs",
               "symmetric_group", "tietze_simplify", "wirtinger_presentation"],
    "quandles": ["check_quandle", "coloring_count", "colorings", "conjugation_quandle",
                 "parse_quandle", "quandle_from_rows", "serialize_quandle", "trivial_quandle"],
}


def test_public_functions_of_moves_and_catalog_are_pinned():
    for module, names in PUBLIC_FUNCTIONS.items():
        mod = importlib.import_module(f"smg.{module}")
        public = sorted(attr for attr, fn in vars(mod).items()
                        if not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__.startswith("smg."))
        assert public == names, module
