"""Run one ``coalg`` command in-process, with spans around public calls.

Usage: python3 perfbench/trace_cmd.py SPANS_OUT COALG_ARG...

The command runs exactly as the ``coalg`` entry point runs it
(``sys.exit(main(argv))``), after the calls listed in ``TARGETS`` have been
wrapped.  Each call records a span ``[name, start, end, parent]``, with times in
integer nanoseconds; spans stay in memory and are written to SPANS_OUT as
JSON when the command ends, also when it ends in an exception.  ``coalg`` must be importable
(``PYTHONPATH`` pointing at the source tree).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# integer nanoseconds: a `fold` records some 3e5 spans, and integers are
# written out three times faster than floats
_now = time.perf_counter_ns
_names: list[str] = []
_name_index: dict[str, int] = {}
_spans: list[list] = []  # [name index, start, end, parent span index or -1]
_stack: list[int] = []


def _index(name: str) -> int:
    k = _name_index.get(name)
    if k is None:
        k = _name_index[name] = len(_names)
        _names.append(name)
    return k


def _open(name: str) -> int:
    k = _index(name)
    i = len(_spans)
    _spans.append([k, 0, 0, _stack[-1] if _stack else -1])
    _stack.append(i)
    _spans[i][1] = _now()
    return i


def _close(i: int) -> None:
    _spans[i][2] = _now()
    _stack.pop()


def _wrap(fn, name: str):
    k = _index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if _stack and _spans[_stack[-1]][0] == k:
            # inside a span of the same name: a nested span would not
            # change that name's self time, so none is recorded
            return fn(*args, **kwargs)
        i = _open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            _close(i)

    return traced


# (span name, defining module, attribute, wrap calls made inside the
# defining module too).  Recursive decoders are wrapped only where other
# modules call them, so that their inner calls pay no wrapper at all.
TARGETS = [
    ("cli.load_input", "coalg.cli", "load_input", True),
    ("cli.emit", "coalg.cli", "_emit", True),
    ("cli.emit", "coalg.cli", "_shape_to_jsonable", True),
    ("cli.emit", "coalg.wellfounded", "WfReport.to_json", True),
    ("cli.emit", "coalg.convex", "ConvexWfReport.to_json", True),
    ("cli.emit", "coalg.initial_algebra", "RealizationReport.to_json", True),
    ("cli.emit", "coalg.coalgebras", "coalgebra_to_json", True),
    ("containers.container_from_json", "coalg.containers", "container_from_json", False),
    ("containers.structure_from_json", "coalg.containers", "structure_from_json", False),
    ("coalgebras.construct", "coalg.coalgebras", "FiniteCoalgebra.__init__", True),
    ("coalgebras.least_subcoalgebra", "coalg.coalgebras", "least_subcoalgebra", True),
    ("wellfounded.well_founded_part", "coalg.wellfounded", "well_founded_part", True),
    ("wellfounded.solve_recursion", "coalg.wellfounded", "solve_recursion", True),
    ("wellfounded.koenig_extract", "coalg.wellfounded", "koenig_extract", True),
    ("nominal.nlts_from_json", "coalg.nominal", "nlts_from_json", True),
    ("nominal.orbit_graph", "coalg.nominal", "orbit_graph", True),
    ("nominal.is_well_founded", "coalg.nominal", "nominal_is_well_founded", True),
    ("nominal.wf_labels", "coalg.nominal", "nominal_wf_labels", True),
    ("nominal.koenig_extract", "coalg.nominal", "nominal_koenig_extract", True),
    ("convex.convex_from_json", "coalg.convex", "convex_from_json", True),
    ("convex.wf_fixpoint", "coalg.convex", "convex_wf_fixpoint", True),
    ("initial_algebra.parse_term", "coalg.initial_algebra", "parse_term", True),
    ("initial_algebra.enumerate_terms", "coalg.initial_algebra", "enumerate_terms", True),
    ("initial_algebra.realize_hstructure", "coalg.initial_algebra", "realize_hstructure", True),
    ("initial_algebra.unfold_to_term", "coalg.initial_algebra", "unfold_to_term", True),
    ("initial_algebra.term_realization_report", "coalg.initial_algebra", "term_realization_report", True),
]

# spans recorded by hand rather than through TARGETS
EXTRA_SPANS = ["cli.import", "cli.json_loads", "coalgebras.successor_map", "gallery.demo"]
SPAN_NAMES = sorted({t[0] for t in TARGETS} | set(EXTRA_SPANS))


def _install() -> None:
    modules = [m for n, m in sys.modules.items() if n == "coalg" or n.startswith("coalg.")]
    for name, modname, attr, inside in TARGETS:
        home = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, _wrap(getattr(cls, meth), name))
            continue
        original = getattr(home, attr)
        traced = _wrap(original, name)
        for mod in modules:
            if mod is home and not inside:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    cli = sys.modules["coalg.cli"]
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))
    proxy.loads = _wrap(json.loads, "cli.json_loads")
    proxy.load = _wrap(json.load, "cli.json_loads")
    proxy.dumps = _wrap(json.dumps, "cli.emit")
    cli.json = proxy

    # only the first access computes the map; later accesses are lookups
    coalgebras = sys.modules["coalg.coalgebras"]
    compute = coalgebras.FiniteCoalgebra.successor_map.fget

    def successor_map(self):
        if self._succ is not None:
            return self._succ
        i = _open("coalgebras.successor_map")
        try:
            return compute(self)
        finally:
            _close(i)

    coalgebras.FiniteCoalgebra.successor_map = property(successor_map)

    for entry in sys.modules["coalg.gallery"].GALLERY.values():
        entry.demo = _wrap(entry.demo, "gallery.demo")


def main() -> None:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    code = 1
    try:
        i = _open("cli.import")
        from coalg.cli import main as coalg_main

        _close(i)
        _install()
        code = coalg_main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            # one dumps call runs the C encoder; json.dump would encode piecewise in Python
            fh.write(json.dumps({"names": _names, "spans": _spans}, separators=(",", ":")))
    sys.exit(code)


if __name__ == "__main__":
    main()
