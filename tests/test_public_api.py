"""The package's public names, and the rule that code only tests run lives
in ``tests/genutil.py``, not in the package."""

import ast
import builtins
import importlib
from collections import Counter
from pathlib import Path

import pytest

import coalg
import coalg.cli
import coalg.containers
import coalg.records
from coalg.containers import Const, Exp, FinPow, Identity, PairNeq, Product, Sum, structure_decoder, support
from coalg.errors import (
    AnalysisError,
    CycleError,
    DanglingRefError,
    FoundInfinitePathEvidence,
    InputError,
    NotWellFoundedError,
    UnknownLabelError,
)
from coalg.records import record

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


def test_star_import_and_dir_list_every_public_name():
    """The package resolves its names on first use; ``__all__`` and ``dir``
    still list them all."""
    scope = {}
    exec("from coalg import *", scope)
    assert sorted(coalg.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(scope)
    assert set(PUBLIC_NAMES) <= set(dir(coalg))


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
    # the export table, and the PEP 562 hooks of the package, which Python calls
    exported = {*coalg.__all__, "__getattr__", "__dir__"}
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
# walk that checks a value against its container is generated by
# ``containers._compile``, and any other joins this set with its reason
CONTAINER_WALKS = {
    # the kind, children and labels of one container node, read by _compile,
    # which compiles the walks that check a value against its container (the
    # decoder, its graph walk, which is the decoder's lines that build no
    # value, and support), and by has_pairneq; hmap, interpret,
    # structure_to_json and the set order follow the value's own
    # constructors, with no container
    "_node",
    "container_to_json",  # walks the container alone, with no value
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


def test_one_fixpoint_kernel():
    """The kernels run on dense int indices; a back-end numbers its nodes
    and calls them, so no name-keyed copy grows beside them: fixpoint.py is
    the only module with a work queue, and each kernel is defined once."""
    package = Path(coalg.__file__).resolve().parent
    imports_deque, defined = [], Counter()
    for f in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                a.name.split(".")[-1] == "deque" for a in node.names
            ):
                imports_deque.append(f.name)
            elif isinstance(node, ast.Attribute) and node.attr == "deque":  # collections.deque
                imports_deque.append(f.name)
            elif isinstance(node, ast.FunctionDef):
                defined[node.name] += 1
    assert imports_deque == ["fixpoint.py"]
    assert defined["least_fixpoint"] == defined["reach"] == 1


# each exit code with a verdict error has one family: cli._run maps a
# NotWellFoundedError to 1 and any other AnalysisError to 3, so a new error
# joins a family rather than growing an except tuple
EXIT_FAMILIES = [("NotWellFoundedError", 1), ("AnalysisError", 3)]


@pytest.mark.parametrize(
    "error, family",
    [
        (CycleError, NotWellFoundedError),
        (FoundInfinitePathEvidence, NotWellFoundedError),
        (DanglingRefError, InputError),
        (UnknownLabelError, InputError),
    ],
)
def test_exception_families(error, family):
    assert issubclass(error, family)


def test_one_except_clause_per_exit_code():
    package = Path(coalg.__file__).resolve().parent
    trees = {f.stem: ast.parse(f.read_text(encoding="utf-8")) for f in sorted(package.glob("*.py"))}
    run = next(node for node in trees["cli"].body if isinstance(node, ast.FunctionDef) and node.name == "_run")
    clauses = [
        (ast.unparse(handler.type), getattr(coalg.cli, handler.body[-1].value.id))
        for handler in ast.walk(run)
        if isinstance(handler, ast.ExceptHandler)
    ]
    assert clauses == EXIT_FAMILIES

    def resolve(module, node):
        # a name, or a dotted chain of attributes, as the module sees it
        if isinstance(node, ast.Attribute):
            return getattr(resolve(module, node.value), node.attr)
        return vars(module)[node.id] if node.id in vars(module) else getattr(builtins, node.id)

    tuples = []
    for stem, tree in trees.items():
        module = importlib.import_module(f"coalg.{stem}")
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and isinstance(handler.type, ast.Tuple):
                caught = [resolve(module, e) for e in handler.type.elts]
                assert all(isinstance(c, type) for c in caught), f"{stem}.py:{handler.lineno}"
                if sum(issubclass(c, AnalysisError) for c in caught) > 1:
                    tuples.append(f"{stem}.py:{handler.lineno}")
    assert tuples == []


def test_sources_parse_as_python_3_10(monkeypatch):
    """pyproject.toml promises Python 3.10: every module of the package, and
    every source it generates and runs, parses with 3.10's grammar."""
    package = Path(coalg.__file__).resolve().parent
    sources = [f.read_text(encoding="utf-8") for f in sorted(package.glob("*.py"))]
    generated = []

    def capturing_exec(source, scope):
        generated.append(source)
        return builtins.exec(source, scope)

    for module in (coalg.containers, coalg.records):
        monkeypatch.setattr(module, "exec", capturing_exec, raising=False)
    for frozen in (True, False):
        @record(frozen=frozen)
        class Point:
            x: int
            y: int

            def __post_init__(self):
                pass

    # every node kind, with Identity and Const children inlined into a parent
    container = Product((Identity(), Const(("u",)), Sum(FinPow(PairNeq()), Exp(Const(("v",)), ("x",)))))
    structure_decoder(container, ())
    structure_decoder(container, (), values=False)
    with pytest.raises(InputError):
        support(container, None)
    assert len(generated) == 5  # two records and three walks
    for source in sources + generated:
        ast.parse(source, feature_version=(3, 10))
