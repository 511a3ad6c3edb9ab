"""Outside-in tracer: spans at sepkit's public boundaries, no code changes.

Each traced function is replaced, in every ``sepkit`` module namespace
that binds it, by a wrapper that records a span (name, start, end,
parent, request id); traced methods are replaced on their class.  Spans
are kept in memory and written out when the pass ends, and every
original object is put back by :meth:`Tracer.uninstall`.

A layer's self time is its span time minus the time of its child spans,
read from the clock the tracer is given (the worker gives it its work
clock, see ``hostspeed.py``).
Counters are taken at the same boundaries, so a ratio such as sign
calls per BFS is measured where the work happens.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, qualified name) -> span name
FUNCTIONS = {
    ("sepkit.cli", "main"): "cli",
    ("sepkit.construction", "refine_step"): "construction.refine_step",
    ("sepkit.ifs", "map_at_zero"): "ifs.map_at_zero",
    ("sepkit.separation", "displacement_levels"): "separation.bfs",
    ("sepkit.separation", "wsp_min_displacement"): "separation.wsp",
    ("sepkit.separation", "exact_overlap_scan"): "separation.overlap_scan",
    ("sepkit.separation", "distinctness_check"): "separation.distinctness",
    ("sepkit.separation", "endpoint_separation"): "separation.endpoints",
    ("sepkit.openset", "verify_osc_open_set"): "openset.osc",
    ("sepkit.openset", "constructed_v_type_census"): "openset.census",
    ("sepkit.render", "render_levels"): "render",
    ("sepkit.exact", "ParamPoint.sign"): "exact.sign",
    ("sepkit.exact", "ParamPoint.eval_decimal"): "exact.eval_decimal",
    ("sepkit.exact", "ParamPoint.window"): "exact.window",
    ("sepkit.exact", "RationalParam.sign"): "exact.rational_sign",
    ("sepkit.separation", "TypeAutomaton.successor"): "separation.automaton.successor",
    ("sepkit.openset", "OverlapOracle.overlaps"): "openset.oracle",
}
# ``census_states`` gets one span per ``next``; the components that
# ``OpenSetApprox.components`` yields are counted, without spans
CENSUS_STATES = ("sepkit.separation", "census_states")
COMPONENTS = ("sepkit.openset", "OpenSetApprox.components")

SIGN_SPANS = ("exact.sign", "exact.rational_sign")
# layers whose sign queries are attributed to them while their span is open
SIGN_OWNERS = ("separation.bfs", "separation.automaton.successor", "openset.oracle")


def _resolve(module: str, qualname: str):
    owner = sys.modules[module]
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def snapshot() -> dict:
    """Every attribute of every loaded sepkit module and class, by identity."""
    seen = {}
    for modname, module in list(sys.modules.items()):
        if modname != "sepkit" and not modname.startswith("sepkit."):
            continue
        for name, value in vars(module).items():
            seen[(modname, name)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    seen[(modname, f"{name}.{attr}")] = member
    return seen


class Tracer:
    def __init__(self, clock=time.perf_counter):
        # the time source of the spans: a function returning seconds
        self._clock = clock
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # spans as parallel arrays: id is the index
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_request = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.request = 0
        # open spans, innermost last: id, name, time covered by children
        self._stack_ids: list[int] = []
        self._stack_names: list[str] = []
        self._stack_child: list[float] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._open: Counter = Counter()
        self._points: dict[int, tuple[int, object]] = {}
        self._seen_forms: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for (module, qualname), name in FUNCTIONS.items():
            self._patch(module, qualname, self._wrap(name))
        self._patch(*CENSUS_STATES, self._wrap_census_states)
        self._patch(*COMPONENTS, self._count_components)

    def _patch(self, module: str, qualname: str, make) -> None:
        owner, name = _resolve(module, qualname)
        original = vars(owner)[name]
        wrapper = make(original)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            self._patched.append((owner, name, original))
            return
        for modname, mod in list(sys.modules.items()):
            if modname != "sepkit" and not modname.startswith("sepkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _enter(self, name: str, start: float) -> int:
        span_id = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack_ids[-1] if self._stack_ids else -1)
        self.span_request.append(self.request)
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack_ids.append(span_id)
        self._stack_names.append(name)
        self._stack_child.append(0.0)
        self._open[name] += 1
        return span_id

    def _exit(self, span_id: int, name: str, start: float, end: float) -> None:
        self._stack_ids.pop()
        self._stack_names.pop()
        child = self._stack_child.pop()
        self._open[name] -= 1
        self.span_end[span_id] = end
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack_child:
            self._stack_child[-1] += duration

    def _wrap(self, name: str):
        hook = self._hook(name)
        on_result = {
            "separation.bfs": self._on_bfs_result,
            "separation.overlap_scan": self._on_scan_result,
        }.get(name)
        enter, exit_, perf = self._enter, self._exit, self._clock

        def make(fn):
            def traced(*args, **kwargs):
                if hook is not None:
                    hook(args)
                start = perf()
                span_id = enter(name, start)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(span_id, name, start, perf())
                if on_result is not None:
                    on_result(result)
                return result

            traced.__wrapped__ = fn
            return traced

        return make

    def _wrap_census_states(self, fn):
        name = "separation.automaton.census_states"
        perf = self._clock

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                start = perf()
                span_id = self._enter(name, start)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(span_id, name, start, perf())
                # (level, automaton, states at that level)
                self.maxima["separation.automaton.states_max"] = max(
                    self.maxima["separation.automaton.states_max"], len(item[2]))
                yield item

        traced.__wrapped__ = fn
        return traced

    def _count_components(self, fn):
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts["openset.osc.components"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- counters at the boundaries ----------------------------------------

    def _hook(self, name: str):
        if name in SIGN_SPANS:
            return self._on_sign
        if name == "exact.window":
            return self._on_window
        if name == "ifs.map_at_zero":
            return self._on_map_at_zero
        return None

    def _on_sign(self, args) -> None:
        for owner in SIGN_OWNERS:
            if self._open[owner]:
                self.counts[f"{owner}.sign_calls"] += 1
        point, form = args[0], args[1]
        if type(point).__name__ != "ParamPoint" or not form.q:
            return
        # the same point object and form seen before in this pass; holding
        # the point keeps its id from being reused
        serial = self._points.setdefault(id(point), (len(self._points), point))[0]
        key = (serial, form.p.numerator, form.p.denominator,
               form.q.numerator, form.q.denominator)
        self.counts["exact.sign.nonconstant"] += 1
        if key in self._seen_forms:
            self.counts["exact.sign.repeats"] += 1
        else:
            self._seen_forms.add(key)

    def _on_window(self, args) -> None:
        if self._stack_names and self._stack_names[-1] == "exact.sign":
            self.counts["exact.sign.windows"] += 1

    def _on_map_at_zero(self, args) -> None:
        if self._stack_names and self._stack_names[-1] == "separation.overlap_scan":
            self.counts["separation.overlap_scan.words"] += 1

    def _on_bfs_result(self, levels) -> None:
        sizes = [len(level) for level in levels]
        self.counts["separation.bfs.nodes"] += sum(sizes)
        self.maxima["separation.bfs.frontier_max"] = max(
            [self.maxima["separation.bfs.frontier_max"], *sizes])

    def _on_scan_result(self, result) -> None:
        self.counts["separation.overlap_scan.pairs"] += len(result.overlaps) + len(result.derived)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One line per span: id, parent, request, name, start, end (seconds)."""
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\trequest\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                out.write(f"{i}\t{self.span_parent[i]}\t{self.span_request[i]}\t"
                          f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                          f"{self.span_end[i]:.9f}\n")

    # -- per-layer metrics -------------------------------------------------

    def metrics(self) -> dict:
        calls, self_s, counts, maxima = self.calls, self.self_s, self.counts, self.maxima
        nonconstant = counts["exact.sign.nonconstant"]
        misses = nonconstant - counts["exact.sign.repeats"]
        return {
            "exact.sign.calls": calls["exact.sign"],
            "exact.sign.self_s": self_s["exact.sign"],
            "exact.sign.repeat_ratio": _ratio(counts["exact.sign.repeats"], nonconstant),
            "exact.window.calls": calls["exact.window"],
            "exact.sign.windows_per_miss": _ratio(counts["exact.sign.windows"], misses),
            "exact.eval_decimal.calls": calls["exact.eval_decimal"],
            "exact.eval_decimal.self_s": self_s["exact.eval_decimal"],
            "cli.self_s": self_s["cli"],
            "exact.rational_sign.calls": calls["exact.rational_sign"],
            "exact.rational_sign.self_s": self_s["exact.rational_sign"],
            "construction.levels_built": calls["construction.refine_step"],
            "construction.refine_step.self_s": self_s["construction.refine_step"],
            "separation.bfs.self_s": self_s["separation.bfs"],
            "separation.bfs.nodes": counts["separation.bfs.nodes"],
            "separation.bfs.frontier_max": maxima["separation.bfs.frontier_max"],
            "separation.bfs.sign_calls": counts["separation.bfs.sign_calls"],
            "separation.automaton.successor.calls": calls["separation.automaton.successor"],
            "separation.automaton.successor.self_s": self_s["separation.automaton.successor"],
            "separation.automaton.states_max": maxima["separation.automaton.states_max"],
            "separation.automaton.sign_calls":
                counts["separation.automaton.successor.sign_calls"],
            "ifs.map_at_zero.calls": calls["ifs.map_at_zero"],
            "ifs.map_at_zero.self_s": self_s["ifs.map_at_zero"],
            "separation.overlap_scan.self_s": self_s["separation.overlap_scan"],
            "separation.overlap_scan.words": counts["separation.overlap_scan.words"],
            "separation.overlap_scan.pairs": counts["separation.overlap_scan.pairs"],
            "separation.endpoints.self_s": self_s["separation.endpoints"],
            "openset.osc.self_s": self_s["openset.osc"],
            "openset.osc.components": counts["openset.osc.components"],
            "openset.oracle.calls": calls["openset.oracle"],
            "openset.oracle.self_s": self_s["openset.oracle"],
            "openset.oracle.sign_calls": counts["openset.oracle.sign_calls"],
            "separation.distinctness.self_s": self_s["separation.distinctness"],
            "render.self_s": self_s["render"],
        }


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
