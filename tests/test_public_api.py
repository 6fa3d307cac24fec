"""The package's public names, and the rule that code only tests run lives
in ``tests/genutil.py``, not in the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import coalg

PUBLIC_NAMES = [
    # containers
    "Const", "ConstVal", "Container", "Exp", "FinPow", "FunOf", "HStructure",
    "Identity", "InL", "InR", "Pair", "PairNeq", "Product", "SetOf", "Star",
    "StateRef", "Sum", "TupleOf", "fun_of", "hmap", "interpret", "make_pair",
    "set_of", "support",
    # coalgebras
    "Algebra", "BudgetExhausted", "FiniteCoalgebra", "LazyCoalgebra",
    "coproduct_extension", "count_algebra",
    "induction_algebra", "is_cartesian_subcoalgebra", "is_subcoalgebra",
    "least_subcoalgebra", "unfold_algebra", "verify_coalgebra_morphism",
    # wellfounded
    "KoenigFamily", "WfReport", "extend_recursion_solution", "integer_ladder",
    "integer_ladder_recursion", "integer_ladder_window", "is_well_founded",
    "koenig_extract", "koenig_family", "solve_recursion", "verify_solution",
    "well_founded_part",
    # initial_algebra
    "DiagramSpec", "Signature", "Term", "diagram_colimit", "enumerate_terms",
    "parse_term", "realize_hstructure", "signature_container", "term_algebra",
    "term_realization_report", "unfold_to_term",
    # nominal
    "NLTSSpec", "NState", "Rule", "Template", "nominal_is_well_founded",
    "nominal_koenig_extract", "nominal_step", "orbit_graph",
    # convex
    "ConvexSpec", "CPoint", "CPolytope", "convex_path_witness",
    "convex_wf_fixpoint", "mix", "mix_sets", "successors",
    "__version__",
]


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_resolves(name):
    assert getattr(coalg, name) is not None


# names no package code calls, kept for a reader outside the package
KEPT_FOR_TOOLS = {
    # perfbench/trace_cmd.py wraps it by name (its TARGETS)
    "structure_from_json",
}


def test_no_package_function_runs_only_under_tests():
    """Every top-level function or class of the package that ``coalg``
    does not export is used by package code outside its own body; code
    that only tests run belongs in tests/genutil.py."""
    package = Path(coalg.__file__).resolve().parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    trees = {f: ast.parse(f.read_text(encoding="utf-8")) for f in sorted(package.glob("*.py"))}

    def names_used(tree):
        used = Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
        return used

    total = Counter()
    for tree in trees.values():
        total += names_used(tree)
    unused = []
    for f, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in exported or node.name in KEPT_FOR_TOOLS:
                continue
            if total[node.name] == names_used(node)[node.name]:
                unused.append(f"{f.name}:{node.lineno} {node.name}")
    assert unused == []


# the top-level functions that walk along a container, one per job; a new
# walk that rebuilds a value goes through ``containers._fmap``, and any other
# joins this set with its reason
CONTAINER_WALKS = {
    "support",  # the one walk that checks a value against its container
    "_fmap",  # the functor action: hmap, interpret and structure_to_json
    "container_to_json",  # walks the container alone, with no value
    "structure_decoder",  # the one walk that checks a JSON document
    # walks interpret's shapes, not values; the benchmark's tracer wraps it by name
    "_shape_to_jsonable",
}


def test_one_container_walk_per_job():
    def dispatches_on_identity(fn):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(getattr(k, "id", getattr(k, "attr", None)) == "Identity" for k in kinds):
                    return True
        return False

    package = Path(coalg.__file__).resolve().parent
    walks = {
        node.name
        for f in sorted(package.glob("*.py"))
        for node in ast.parse(f.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and dispatches_on_identity(node)
    }
    assert walks == CONTAINER_WALKS
