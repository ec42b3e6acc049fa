"""Per-layer tracing of cider from outside the program.

``Tracer.install`` replaces every public function of each layer module
with a wrapper, at every module attribute that binds it by name (for
example ``cli`` binds ``contextual.prob_subsumption`` and ``restrict``,
and ``optimizer`` binds ``diagram.expected_cost``), and counts the
yields of ``InfluenceDiagram.worlds`` and of generator functions such as
``optimizer.enumerate_pure_strategies``.  ``uninstall`` puts the
originals back.

A wrapper records a span (name, start, end, parent, request) and adds to
the function's call count, inclusive time (outermost calls only) and
self time (duration minus the time of traced calls it made).  Spans stay
in memory until ``write_spans``.  Wrappers do nothing while ``active``
is false, so reference computations between queries are not counted.
"""

import gzip
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "kbfile", "diagram", "contextual", "el", "evidence", "optimizer", "simplex")

# Per-element helpers called many times per world or per axiom: wrapping
# them would cost more than the work they do.  Their time counts as self
# time of the traced caller.
UNTRACED = {
    "diagram": {"rowkey", "bits_of", "world_from_bits", "cost_of_valuation"},
    "contextual": {"eval_context", "formula_variables", "print_formula", "satisfies_vgci"},
    "el": {"print_concept", "signature"},
}


def _public_functions(layer, module):
    names = ["main"] if layer == "cli" else module.__all__
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and name not in UNTRACED.get(layer, ()):
            yield f"{layer}.{name}", fn


class Tracer:
    def __init__(self, modules):
        """modules maps each layer name to its imported module."""
        self.modules = modules
        self.active = False
        self.request = -1
        self.names = []
        self.patched = []
        self.spans = {
            "name": array("i"), "parent": array("i"), "request": array("i"),
            "start": array("d"), "end": array("d"),
        }
        self.calls = {}
        self.inclusive = {}
        self.self_time = {}
        self.depth = {}
        self.counts = {}
        self.tboxes = set()
        self.stack = []

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, key, fn, after=None):
        tracer = self
        if key not in self.names:
            self.names.append(key)
        fid = self.names.index(key)
        spans = self.spans

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = len(spans["name"])
            spans["name"].append(fid)
            spans["parent"].append(stack[-1][1] if stack else -1)
            spans["request"].append(tracer.request)
            spans["start"].append(0.0)
            spans["end"].append(0.0)
            frame = [0.0, span]
            stack.append(frame)
            tracer.depth[key] = tracer.depth.get(key, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.depth[key] -= 1
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer.self_time[key] = tracer.self_time.get(key, 0.0) + duration - frame[0]
                if not tracer.depth[key]:
                    tracer.inclusive[key] = tracer.inclusive.get(key, 0.0) + duration
                if stack:
                    stack[-1][0] += duration
                spans["start"][span] = start
                spans["end"][span] = end
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_yields(self, key, gen_fn):
        tracer = self

        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                if tracer.active:
                    tracer.count(key)
                yield item

        return counted

    def _after_hooks(self):
        def bytes_parsed(args, _result):
            self.count("kbfile.bytes_parsed", len(args[0].encode("utf-8")))

        def tbox(args, _result):
            self.tboxes.add(frozenset(args[0]))

        def tree(_args, result):
            self.count("optimizer.tree_leaves", len(result.leaves))
            self.count("optimizer.sequences", len(result.sequences))
            self.count("optimizer.infosets", len(result.infosets))

        def lp_shape(args, _result):
            rows, cols = args[1].shape
            self.count("simplex.minimize.rows", rows)
            self.count("simplex.minimize.cols", cols)

        return {
            "kbfile.load_kb_text": bytes_parsed,
            "el.is_subsumed": tbox,
            "optimizer.build_game_tree": tree,
            "simplex.minimize": lp_shape,
        }

    def install(self):
        hooks = self._after_hooks()
        replace = {}
        for layer in LAYERS:
            for key, fn in _public_functions(layer, self.modules[layer]):
                if inspect.isgeneratorfunction(fn):
                    replace[id(fn)] = (fn, self._count_yields(key, fn))
                else:
                    replace[id(fn)] = (fn, self._wrap(key, fn, hooks.get(key)))
        for name, module in list(sys.modules.items()):
            if name != "cider" and not name.startswith("cider."):
                continue
            for attr, value in list(vars(module).items()):
                entry = replace.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self.patched.append((module, attr, value))
        cls = self.modules["diagram"].InfluenceDiagram
        self.patched.append((cls, "worlds", cls.worlds))
        cls.worlds = self._count_yields("diagram.worlds", cls.worlds)
        self.active = True

    def uninstall(self):
        for owner, attr, value in reversed(self.patched):
            setattr(owner, attr, value)
        self.patched = []
        self.active = False

    # --- results -----------------------------------------------------------

    def counters(self):
        """Work counts; these must repeat exactly from run to run."""
        out = dict(self.counts)
        for key, n in self.calls.items():
            out[f"{key}.calls"] = n
        out["el.is_subsumed.distinct_tboxes"] = len(self.tboxes)
        return out

    def layer_self_times(self):
        out = {layer: 0.0 for layer in LAYERS}
        for key, t in self.self_time.items():
            out[key.split(".", 1)[0]] += t
        return out

    def span_count(self):
        return len(self.spans["name"])

    def write_spans(self, path, requests):
        """Gzipped TSV: request, name, parent span, start, end (seconds)."""
        s = self.spans
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# requests: " + " | ".join(" ".join(a) for a in requests) + "\n")
            out.write("span\trequest\tname\tparent\tstart\tend\n")
            for i in range(len(s["name"])):
                out.write(
                    f"{i}\t{s['request'][i]}\t{self.names[s['name'][i]]}\t"
                    f"{s['parent'][i]}\t{s['start'][i]!r}\t{s['end'][i]!r}\n"
                )
