"""Command-line front end.

Inputs are JSON files dispatched by their top-level "kind" field
(set-coalgebra | nlts | convex | signature), or built-in fixtures
addressed as ``gallery:<name>``.  Exit codes are a total function of the
verdict: 0 well-founded/success, 1 not well-founded (cycle found), 2
budget exhausted, 3 parse or validation error.  Identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import re
import sys

from .errors import AnalysisError, InputError, NotWellFoundedError, check_fields


def _lazy(name: str):
    """The submodule ``name`` of this package, registered now and run on its
    first attribute access (the "Implementing lazy imports" recipe of
    importlib), so that each command runs only the back-end it uses.  A
    module already imported is returned as it is.  A lazy module runs on
    first access without a lock: only the command line, which is
    single-threaded, binds modules this way."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        # bound on the package, as an import binds it, so that a
        # "from . import name" (as in gallery) finds it without running it
        setattr(sys.modules[__package__], name, module)
    return module


coalgebras = _lazy("coalgebras")
containers = _lazy("containers")
wellfounded = _lazy("wellfounded")
convex = _lazy("convex")
nominal = _lazy("nominal")
initial_algebra = _lazy("initial_algebra")
gallery = _lazy("gallery")

EXIT_OK = 0
EXIT_NOT_WF = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


def _write(text: str, end: str = "\n") -> None:
    """Print ``text`` and ``end`` on stdout; every command writes through
    here.  If the reader has closed the pipe, fd 1 goes to os.devnull and
    the command runs on, so its exit code stays its verdict (see "Note on
    SIGPIPE" in the documentation of the signal module)."""
    try:
        print(text, end=end)
    except UnicodeEncodeError:  # as a lone surrogate in a name: escaped, as on stderr
        _write(text.encode(sys.stdout.encoding, "backslashreplace").decode(sys.stdout.encoding), end)
    except BrokenPipeError:
        _stdout_to_devnull()


def _stdout_to_devnull() -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _emit(doc, config=None, text_lines=()) -> None:
    """Print ``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)``, in
    blocks of about 64 KiB as it is encoded, or in text mode ``text_lines``."""
    if config is None or config.format == "json":
        block, size = [], 0
        for chunk in _json_chunks(doc):
            block.append(chunk)
            size += len(chunk)
            if size > 1 << 16:
                _write("".join(block), "")
                block, size = [], 0
        _write("".join(block))
    else:
        for line in text_lines:
            _write(line)


def _json_chunks(doc, width=4096):
    """The text of ``json.dumps(doc, indent=2, sort_keys=True)`` in pieces,
    from a walk with an explicit stack, so no depth reaches the recursion
    limit.  A list or map of scalars goes to the C encoder ``width`` items a
    call, its item separator carrying the indent."""
    scalar, scalars = json.JSONEncoder().encode, (str, int, float, type(None))

    def key(k):  # as json.dumps converts it; a key of another type raises its TypeError
        return scalar(k if isinstance(k, str) else scalar(k if isinstance(k, scalars) else {k: 0})) + ": "

    stack, lead, opened = [(iter((("", doc),)), "", "", None)], "", set()  # (heads and values, indent, closer, id)
    while stack:
        pairs, pad, closer, _ = stack[-1]
        for head, value in pairs:
            yield lead + pad + head
            lead = ",\n"
            if isinstance(value, dict):
                keys, brackets, values = sorted(value), "{}", value.values()
            elif isinstance(value, (list, tuple)):
                keys, brackets, values = value, "[]", value
            else:
                yield scalar(value)
                continue
            inner = pad + "  "
            if all(isinstance(v, scalars) for v in values):  # an empty one too
                encode = json.JSONEncoder(separators=(",\n" + inner, ": ")).encode
                for i in range(0, len(keys), width):
                    part = keys[i : i + width]
                    part = {k: value[k] for k in part} if brackets == "{}" else part
                    yield (brackets[0] + "\n" if i == 0 else ",\n") + inner + encode(part)[1:-1]
                yield "\n" + pad + brackets[1] if keys else brackets
                continue
            if id(value) in opened:
                raise ValueError("Circular reference detected")
            opened.add(id(value))
            items = zip(map(key, keys), map(value.__getitem__, keys)) if brackets == "{}" else (("", v) for v in value)
            stack.append((items, inner, "\n" + pad + brackets[1], id(value)))
            lead = brackets[0] + "\n"
            break
        else:  # the frame's last item set the lead to ",\n"
            opened.discard(stack.pop()[3])
            yield closer


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _read_json(path: str, text=None):
    """The JSON document in the file ``path``, whose ``text`` may be read already."""
    try:
        return json.loads(_read_text(path) if text is None else text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # an integer longer than Python converts
        raise InputError(f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        limit = sys.getrecursionlimit()
        raise InputError(f"{path}: JSON nested too deeply (the limit is about {limit} levels)") from None


# a document that names its kind set-coalgebra before its first nested
# value: only such a file is offered to the streaming reader, so that no
# other kind of file runs the set-system modules
_SET_KIND = re.compile(r'[ \t\n\r]*\{[^{\[]*?"kind"[ \t\n\r]*:[ \t\n\r]*"set-coalgebra"').match


def load_input(path: str, reads_values=lambda container: False):
    """Returns (kind, object).  ``gallery:<name>`` addresses a fixture.

    A ``set-coalgebra`` file is decoded to its canonical graph, all that
    the verdict commands read, with no structure value built, unless
    ``reads_values`` holds of its functor: ``fold`` passes that test where
    its algebra reads structure values, and the file is decoded in full.
    The file is read one structure entry at a time where its layout allows
    (see ``coalgebras.system_from_text``), and as a whole document
    otherwise, with the same result or error."""
    if path.startswith("gallery:"):
        entry = gallery.get_entry(path.split(":", 1)[1])
        obj = entry.build()
        kind = "set-coalgebra" if entry.kind == "lazy-coalgebra" else entry.kind
        return kind, obj
    text = _read_text(path)
    if _SET_KIND(text):
        system = coalgebras.system_from_text(text, reads_values)
        if system is not None:
            return "set-coalgebra", system
    doc = _read_json(path, text)
    del text  # the whole document's tree replaces it
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError(f"{path}: expected a JSON object with a 'kind' field")
    kind = doc["kind"]
    if kind == "set-coalgebra":
        return kind, coalgebras.coalgebra_from_json(doc, reads_values)
    if kind == "nlts":
        return kind, nominal.nlts_from_json(doc)
    if kind == "convex":
        return kind, convex.convex_from_json(doc)
    if kind == "signature":
        return kind, initial_algebra.signature_from_json(doc)
    raise InputError(f"{path}: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# commands


def cmd_check_wf_many(paths, config: argparse.Namespace) -> int:
    # independent analyses; reports are serialized per file, and the exit
    # code is the most severe verdict
    codes = []
    for path in paths:
        if len(paths) > 1:
            _write(f"=== {path} ===")
        codes.append(cmd_check_wf(path, config))
    return max(codes)


def cmd_check_wf(path: str, config: argparse.Namespace) -> int:
    kind, obj = load_input(path)
    if kind == "set-coalgebra":
        if isinstance(obj, coalgebras.LazyCoalgebra):
            raise InputError("check-wf needs a finite carrier; use koenig for lazy systems")
        doc = wellfounded.well_founded_part(obj).to_json()
    elif kind == "nlts":
        wf_labels = nominal.nominal_wf_labels(obj)
        doc = {"wellFounded": len(wf_labels) == len(obj.labels), "wfLabels": sorted(wf_labels)}
    elif kind == "convex":
        doc = convex.convex_wf_fixpoint(obj).to_json()
    else:
        raise InputError(f"check-wf does not apply to kind {kind!r}")
    _emit(doc, config, _check_wf_lines(doc))
    return EXIT_OK if doc["wellFounded"] else EXIT_NOT_WF


def _check_wf_lines(doc: dict):
    # a generator: the rank line of a large system is only built in text mode
    yield "well-founded" if doc["wellFounded"] else "not well-founded"
    if "wfLabels" in doc:
        yield f"labels without infinite runs: {doc['wfLabels']}"
    else:
        yield f"ranks: {json.dumps(doc['ranks'], sort_keys=True)}"


def cmd_koenig(path: str, config: argparse.Namespace) -> int:
    kind, obj = load_input(path)
    code = EXIT_OK
    if kind == "set-coalgebra":
        result = wellfounded.koenig_extract(obj, config.state, config.budget)
        if isinstance(result, coalgebras.BudgetExhausted):
            doc = {"budgetExhausted": True, "budget": result.budget, "visited": len(result.visited)}
            code = EXIT_BUDGET
        else:
            doc = {"state": config.state, "subcoalgebra": sorted(result), "size": len(result)}
    elif kind == "nlts":
        labels = nominal.nominal_koenig_extract(obj, nominal.state_from_text(config.state))
        doc = {"state": config.state, "labels": sorted(labels)}
    elif kind == "convex":
        # a convex state is a generator index, written as str(i)
        if config.state not in map(str, range(obj.generators)):
            raise InputError(f"convex states are generator indices 0..{obj.generators - 1}, got {config.state!r}")
        report = convex.convex_wf_fixpoint(obj)
        if not report.is_well_founded:
            raise NotWellFoundedError(
                f"generators {sorted(report.non_wf)} admit infinite paths"
            )
        doc = {
            "state": config.state,
            "witnessCarrier": "all-generators",
            "ranks": report.to_json()["ranks"],
        }
    else:
        raise InputError(f"koenig does not apply to kind {kind!r}")
    _emit(doc, config, _koenig_lines(doc))
    return code


def _koenig_lines(doc: dict):
    # a generator, as _check_wf_lines: the closure line is only built in text mode
    if "budgetExhausted" in doc:
        yield (
            f"budget exhausted after visiting {doc['visited']} states (budget {doc['budget']}); "
            "the closure was not confirmed finite"
        )
    elif "subcoalgebra" in doc:
        yield f"state {doc['state']} lies in the finite well-founded subsystem {doc['subcoalgebra']}"
    elif "labels" in doc:
        yield f"orbit-finite subsystem labels: {doc['labels']}"
    else:
        yield "the full finitely generated carrier is itself the witness subsystem"


def _shape_to_jsonable(container, shape):
    """A ``fold --algebra term`` value, a state's unfolding, as JSON, read
    through the system's container: an identity slot holds a successor's
    unfolding, itself a value of ``container``."""

    def convert(c, v):
        kind, kids, _ = containers._node(c)
        if kind == "id":
            return convert(container, v)
        if kind == "const":
            return v
        if kind == "sum":
            tag, inner = v
            return {tag: convert(kids[tag == "inr"], inner)}
        if kind == "product":
            return [convert(part, x) for part, x in zip(kids, v)]
        if kind == "finpow":
            return {"set": sorted((convert(kids[0], x) for x in v), key=json.dumps)}
        if kind == "exp":
            return [[label, convert(kids[0], x)] for label, x in v]
        if isinstance(v, containers.Star):  # PairNeq
            return {"star": None}
        return {"pair": [convert(container, v[1]), convert(container, v[2])]}

    return convert(container, shape)


def _built_in_algebra(name: str, container):
    if name == "induction":
        return coalgebras.induction_algebra(container)
    if name == "count":
        return coalgebras.count_algebra(container)
    if name == "term":
        return coalgebras.unfold_algebra(container)
    raise InputError(f"unknown built-in algebra {name!r}")


def cmd_fold(path: str, config: argparse.Namespace) -> int:
    # a file is decoded in full only if the algebra reads structure values,
    # which depends on the functor alone (see Algebra.eval_successors)
    def reads_values(container) -> bool:
        return _built_in_algebra(config.algebra, container).eval_successors is None

    kind, obj = load_input(path, reads_values)
    if kind != "set-coalgebra" or isinstance(obj, coalgebras.LazyCoalgebra):
        raise InputError("fold needs a finite set-coalgebra input")
    values = wellfounded.solve_recursion(obj, _built_in_algebra(config.algebra, obj.container))
    lines = (f"{x} = {values[x]}" for x in obj.states)  # in state order; _emit sorts the JSON map
    if config.algebra == "term":
        try:
            # converted whole before the first byte: a too deep unfolding prints nothing
            values = {x: _shape_to_jsonable(obj.container, values[x]) for x in obj.states}
            lines = [f"{x} = {json.dumps(v, sort_keys=True)}" for x, v in values.items()] if config.format == "text" else ()
        except RecursionError:
            raise InputError(f"{path}: an unfolding is nested too deeply to print") from None
    _emit({"algebra": config.algebra, "values": values}, config, lines)
    return EXIT_OK


def _load_term_args(doc: dict, where: str) -> tuple:
    """The argument terms of an ``{op, args}`` document, each a term string
    or ``{op, args}`` again, read in one loop with an explicit stack."""

    def frame(op, doc, where):
        check_fields(doc, ("op", "args"), where)
        args = doc.get("args", [])
        if not isinstance(args, list):
            raise InputError(f"{where}.args: expected a list")
        return op, where, args, []

    stack = [frame(None, doc, where)]  # (op, path, argument documents, terms built)
    while True:
        op, where, args, built = stack[-1]
        if len(built) < len(args):
            at, arg = f"{where}.args[{len(built)}]", args[len(built)]
            if isinstance(arg, str):
                built.append(initial_algebra.parse_term(arg))
            elif isinstance(arg, dict) and "op" in arg:
                if not isinstance(arg["op"], str):
                    raise InputError(f"{at}.op: expected an operation name")
                stack.append(frame(arg["op"], arg, at))
            else:
                raise InputError(f"{at}: expected a term string or {{op, args}}")
            continue
        stack.pop()
        if not stack:
            return tuple(built)
        stack[-1][3].append(initial_algebra.Term(op, built))


def cmd_realize(sig_path: str, structure_path: str, config: argparse.Namespace) -> int:
    kind, sig = load_input(sig_path)
    if kind != "signature":
        raise InputError(f"{sig_path}: expected kind 'signature'")
    doc = _read_json(structure_path)
    if not isinstance(doc, dict) or "op" not in doc:
        raise InputError(f"{structure_path}: expected {{op, args}}")
    # the signature reports a top symbol that is not a string as unknown
    system, state = initial_algebra.realize_hstructure(sig, doc["op"], _load_term_args(doc, "$"))
    unfolded = initial_algebra.unfold_to_term(sig, system, state)
    out = {
        "coalgebra": coalgebras.coalgebra_to_json(system),
        "state": state,
        "unfolded": str(unfolded),
    }
    _emit(
        out,
        config,
        [
            f"realized at state {state!r} ({len(system.states)} states)",
            f"unfolds to {unfolded}",
        ],
    )
    return EXIT_OK


def cmd_check_52(sig_path: str, config: argparse.Namespace) -> int:
    kind, sig = load_input(sig_path)
    if kind != "signature":
        raise InputError(f"{sig_path}: expected kind 'signature'")
    report = initial_algebra.term_realization_report(sig, config.depth)
    doc = report.to_json()
    _emit(
        doc,
        config,
        [
            f"terms up to height {config.depth}: {report.term_count}, realized: {report.realized_ok}",
            f"structures over lower terms: {report.structure_count}, distinct terms: {report.distinct_terms}",
            f"passed: {report.passed}",
        ],
    )
    return EXIT_OK if report.passed else EXIT_NOT_WF


def export_dot(nodes, edges) -> str:
    """Deterministic DOT text: nodes and edges sorted, one edge per line."""

    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    if not nodes:
        return "digraph G { }"
    lines = ["digraph G {"]
    for n in sorted(nodes):
        lines.append(f"  {quote(n)};")
    for a, b in sorted(edges):
        lines.append(f"  {quote(a)} -> {quote(b)};")
    lines.append("}")
    return "\n".join(lines)


def cmd_export_dot(path: str) -> int:
    kind, obj = load_input(path)
    if kind not in ("set-coalgebra", "nlts"):
        raise InputError(f"export-dot does not apply to kind {kind!r}")
    # the kind is tested first, so that an nlts input never loads coalgebras
    if kind == "set-coalgebra" and isinstance(obj, coalgebras.LazyCoalgebra):
        raise InputError("export-dot needs a finite carrier")
    names = obj._names
    edges = [(names[i], names[j]) for i, out in enumerate(obj._out) for j in out]
    _write(export_dot(names, edges))
    return EXIT_OK


def cmd_gallery(name: str) -> int:
    if name == "list":
        for entry_name in gallery.gallery_names():
            entry = gallery.GALLERY[entry_name]
            _write(f"{entry_name} [{entry.kind}] - {entry.description}")
        return EXIT_OK
    if name == "all":
        all_ok = True
        for entry_name in gallery.gallery_names():
            entry = gallery.GALLERY[entry_name]
            doc, code = entry.demo()
            match = code == entry.expected_exit
            all_ok = all_ok and match
            _write(f"=== {entry_name} [{entry.kind}] ===")
            _emit(doc)
            _write(f"exit: {code} (expected {entry.expected_exit}) {'ok' if match else 'MISMATCH'}")
        return EXIT_OK if all_ok else EXIT_NOT_WF
    doc, code = gallery.get_entry(name).demo()
    _emit(doc)
    return code


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A usage error exits 3, the input-error code (argparse's own 2 would
    read as "budget exhausted")."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


# every option any command takes; each command takes only those it reads
_OPTIONS = {
    "format": dict(choices=["text", "json"], default="text"),
    "budget": dict(type=_int_at_least(1), default=10000),
    "depth": dict(type=_int_at_least(0), default=4),
    "state": dict(required=True),
    "algebra": dict(choices=["term", "induction", "count"], default="count"),
    "sig": dict(required=True),
    "structure": dict(required=True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coalg",
        description="analyze transition systems for well-foundedness, extract "
        "finite well-founded subsystems, and solve structural recursion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, options, positional=None, nargs=None):
        p = sub.add_parser(name, help=help)
        if positional:
            p.add_argument(positional, nargs=nargs)
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
        p.set_defaults(run=run)

    # each handler looks its command up when it runs, so tests can replace it
    command("check-wf", "decide well-foundedness",
            lambda a: cmd_check_wf_many(a.input, a), ["format"], "input", "+")
    command("koenig", "extract a finite well-founded subsystem",
            lambda a: cmd_koenig(a.input, a), ["format", "budget", "state"], "input")
    command("fold", "solve structural recursion into a built-in algebra",
            lambda a: cmd_fold(a.input, a), ["format", "algebra"], "input")
    command("realize", "realize a term structure as a finite system",
            lambda a: cmd_realize(a.sig, a.structure, a), ["format", "sig", "structure"])
    command("check-5.2", "check the closed-term fragment, both directions",
            lambda a: cmd_check_52(a.sig, a), ["format", "depth", "sig"])
    command("gallery", "run a built-in fixture ('list', 'all', or a name)",
            lambda a: cmd_gallery(a.name), [], "name")
    command("export-dot", "emit the system graph as DOT",
            lambda a: cmd_export_dot(a.input), [], "input")
    return parser


def main(argv=None) -> int:
    # The cyclic garbage collector is paused for the run: the decoded input
    # is a heap of some 1e6 objects that each collection would rescan, and
    # every value the program builds is acyclic, so reference counting
    # frees it.  The collector's previous state comes back in any case, as
    # tests call main in-process.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _stdout_to_devnull()


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except NotWellFoundedError as exc:
        print(f"not well-founded: {exc}", file=sys.stderr)
        return EXIT_NOT_WF
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
