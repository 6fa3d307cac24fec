"""Analysis of state-based transition systems over a grammar of shape
functors: well-foundedness, finite well-founded subsystem extraction,
structural recursion, term realization, and colimits of finite diagrams,
with register-style (nominal) and convex-branching back-ends.

Each public name is imported from its submodule on first use (PEP 562), so
importing one submodule, as every command of ``coalg.cli`` does, runs no
other back-end."""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "containers": (
        "Const", "ConstVal", "Container", "Exp", "FinPow", "FunOf", "HStructure",
        "Identity", "InL", "InR", "Pair", "PairNeq", "Product", "SetOf", "Star",
        "StateRef", "Sum", "TupleOf", "fun_of", "hmap", "interpret", "make_pair",
        "set_of", "support",
    ),
    "coalgebras": (
        "Algebra", "BudgetExhausted", "FiniteCoalgebra", "LazyCoalgebra",
        "coproduct_extension", "count_algebra", "induction_algebra",
        "is_cartesian_subcoalgebra", "is_subcoalgebra", "least_subcoalgebra",
        "unfold_algebra", "verify_coalgebra_morphism",
    ),
    "wellfounded": (
        "KoenigFamily", "WfReport", "extend_recursion_solution", "integer_ladder",
        "integer_ladder_recursion", "integer_ladder_window", "is_well_founded",
        "koenig_extract", "koenig_family", "solve_recursion", "verify_solution",
        "well_founded_part",
    ),
    "initial_algebra": (
        "DiagramSpec", "Signature", "Term", "diagram_colimit", "enumerate_terms",
        "parse_term", "realize_hstructure", "signature_container", "term_algebra",
        "term_realization_report", "unfold_to_term",
    ),
    "nominal": (
        "NLTSSpec", "NState", "Rule", "Template", "nominal_is_well_founded",
        "nominal_koenig_extract", "nominal_step", "orbit_graph",
    ),
    "convex": (
        "ConvexSpec", "CPoint", "CPolytope", "convex_path_witness",
        "convex_wf_fixpoint", "mix", "mix_sets", "successors",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__package__!r} has no attribute {name!r}")
    # __package__, not __name__: the file may also run as "coalg.__init__"
    value = getattr(importlib.import_module(f".{_HOME[name]}", __package__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
