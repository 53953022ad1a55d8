"""Opt-in tracing of cstnu's public functions, from outside the library.

`Tracer.install()` wraps every public function defined in a cstnu module
wherever a cstnu module binds its name (so `search.is_viable` and
`semantics.is_viable` are the same wrapper), and `uninstall()` restores
the originals.  Nothing private is wrapped, so refactors behind the
public names leave the trace intact.

Every wrapped call is counted.  Calls also leave a span (name, start,
end, parent span, op) in memory and add to their function's total and
self time (self excludes wrapped children), except for the
per-constraint-pair primitives in `COUNT_ONLY`: a 20-point propagation
calls those tens of millions of times, so they are only counted, and
their time stays in their caller's self time.
"""

import importlib
import json
import pkgutil
import time
import types
from collections import defaultdict

# Called per constraint pair or per label: counted only.
COUNT_ONLY = {
    "labels.conjoin", "labels.con", "labels.sub", "labels.evaluate",
    "labels.parse_label", "propagation.compose", "propagation.dominates",
    "rational.rational", "rational.fmt",
}


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Wraps the library while installed; `op` tags the spans with the
    benchmark operation they belong to."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self.op = None
        self._stack = []            # [span index, time in wrapped children]
        self._saved = []            # (module, attribute, original)
        self._hooks = {
            "semantics.is_viable": self._on_is_viable,
            "search.check_dc": self._on_check_dc,
            "propagation.propagate_to_fixpoint": self._on_propagate,
            "propagation.compose": self._on_compose,
            "propagation.label_modification": self._on_label_modification,
        }

    # -- installation ---------------------------------------------------------

    def install(self):
        import cstnu

        modules = [cstnu] + [importlib.import_module("cstnu." + info.name)
                             for info in pkgutil.iter_modules(cstnu.__path__)]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith("cstnu.")
                        and not value.__name__.startswith("_")):
                    if value not in wrappers:
                        name = "%s.%s" % (_short(value.__module__), value.__name__)
                        wrappers[value] = self._wrap(name, value)
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, func):
        stack, calls, total, own = self._stack, self.calls, self.total, self.own
        spans, hook = self.spans, self._hooks.get(name)
        clock = time.perf_counter

        def count_only(*args, **kwargs):
            calls[name] += 1
            result = func(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][0] if stack else None, self.op])
            frame = [index, 0.0]            # span index, time in wrapped children
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                total[name] += elapsed
                own[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                spans[index][1:3] = [start, end]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        chosen = count_only if name in COUNT_ONLY else wrapper
        chosen.__name__ = name
        chosen.__wrapped__ = func
        return chosen

    # -- counters read off public results ---------------------------------------

    def _on_is_viable(self, args, kwargs, result):
        if not result:
            self.counters["semantics.is_viable.rejected"] += 1

    def _on_check_dc(self, args, kwargs, result):
        network = args[0]
        grid = kwargs.get("grid", args[1] if len(args) > 1 else 3)
        self.counters["search.dramas"] += 2 ** len(network.letters) * grid ** len(network.links)

    def _on_propagate(self, args, kwargs, result):
        self.counters["propagation.rounds"] += result.rounds
        self.counters["propagation.admitted"] += sum(
            1 for rule, _ in result.trace.values() if rule != "given")

    def _on_compose(self, args, kwargs, result):
        if result is not None:
            self.counters["propagation.candidates"] += 1

    def _on_label_modification(self, args, kwargs, result):
        self.counters["propagation.candidates"] += 1 + len(result.residuals)

    # -- output -----------------------------------------------------------------

    def metric(self, name):
        """Value of a per-layer metric: `<layer>.<function>.s`, `.self_s`,
        `.calls`, or a counter."""
        if name == "propagation.admit_ratio":
            candidates = self.counters["propagation.candidates"]
            return self.counters["propagation.admitted"] / candidates if candidates else 0.0
        if name.endswith(".self_s"):
            return self.own[name[:-len(".self_s")]]
        if name.endswith(".s"):
            return self.total[name[:-len(".s")]]
        if name.endswith(".calls"):
            return self.calls[name[:-len(".calls")]]
        return self.counters[name]

    def write(self, path):
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "calls": dict(sorted(self.calls.items())),
                       "total_s": dict(sorted(self.total.items())),
                       "self_s": dict(sorted(self.own.items())),
                       "counters": dict(sorted(self.counters.items()))}, out)
