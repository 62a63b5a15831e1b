"""Layer tracing for the benchmark, installed from outside the package.

`Tracer.install(modules)` replaces the entry points of each equiconf layer
with thin wrappers that record one span per call: name, start, end, parent
span and operation id. Wrapped are the methods of `Matrix`, `Polynomial` and
`Quotient`, `FilteredComplex.validate`, and every module-level function of a
layer module at each name under which a caller looks it up (the defining
module and every module that imported it by name). `uninstall` restores the
originals. Spans stay in memory until `write`.

A layer's self time is the time its spans cover minus the time covered by
their child spans of other layers; for one function it is the span time minus
all child spans. Both come out of `summary`.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array

LAYERS = ("exactalg", "confring", "equiodd", "equieven", "charclasses",
          "specseq", "cli")

# Trivial helpers called per matrix entry or per sort key: wrapping them
# would only add spans, so their time stays with the caller.
UNWRAPPED = {"exactalg.rat", "exactalg.rat_str", "confring.edge_key"}

WRAPPED_CLASSES = {
    "exactalg": {"Matrix": None, "Polynomial": None, "Quotient": None},
    "specseq": {"FilteredComplex": ("validate",)},
}
SKIPPED_METHODS = {"__repr__", "__str__", "__hash__"}

# prefix of a per-layer `.calls` / `.self_s` metric -> the wrapped function
FUNCTION_METRICS = {
    "exactalg.rref": "exactalg.Matrix.rref",
    "exactalg.matvec": "exactalg.Matrix.matvec",
    "exactalg.matmul": "exactalg.Matrix.__mul__",
    "exactalg.charpoly": "exactalg.Matrix.charpoly",
    "exactalg.poly_mul": "exactalg.Polynomial.__mul__",
    "confring.reduce_word": "confring.reduce_word",
    "equiodd.reduce_graph": "equiodd.reduce_graph",
    "equieven.differential_matrix": "equieven.differential_matrix",
    "specseq.validate": "specseq.FilteredComplex.validate",
    "specseq.page": "specseq.page",
    "specseq.decalage": "specseq.decalage",
    "specseq.purity_check": "specseq.purity_check",
    "specseq.formality_witness": "specseq.formality_witness",
}

# (metric name, unit, better); the order is the order of the printed JSON
PER_LAYER_METRICS = (
    ("exactalg.self_s", "s", "lower"),
    ("exactalg.rref.self_s", "s", "lower"),
    ("exactalg.rref.calls", "count", "lower"),
    ("exactalg.rref.entries", "count", "lower"),
    ("exactalg.rref.nnz_ratio", "ratio", "higher"),
    ("exactalg.matvec.calls", "count", "lower"),
    ("exactalg.matvec.self_s", "s", "lower"),
    ("exactalg.matmul.self_s", "s", "lower"),
    ("exactalg.charpoly.calls", "count", "lower"),
    ("exactalg.charpoly.self_s", "s", "lower"),
    ("exactalg.poly_mul.calls", "count", "lower"),
    ("exactalg.poly_mul.self_s", "s", "lower"),
    ("confring.self_s", "s", "lower"),
    ("confring.reduce_word.calls", "count", "lower"),
    ("confring.reduce_word.terms_out", "count", "lower"),
    ("equiodd.self_s", "s", "lower"),
    ("equiodd.reduce_graph.calls", "count", "lower"),
    ("equiodd.reduce_graph.terms_out", "count", "lower"),
    ("equieven.self_s", "s", "lower"),
    ("equieven.differential_matrix.calls", "count", "lower"),
    ("charclasses.self_s", "s", "lower"),
    ("specseq.self_s", "s", "lower"),
    ("specseq.validate.self_s", "s", "lower"),
    ("specseq.page.calls", "count", "lower"),
    ("specseq.page.self_s", "s", "lower"),
    ("specseq.page.live_spot_ratio", "ratio", "higher"),
    ("specseq.decalage.self_s", "s", "lower"),
    ("specseq.purity_check.self_s", "s", "lower"),
    ("specseq.formality_witness.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
)


def _pow2(x):
    b = 1
    while b < x:
        b *= 2
    return b


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = []            # span name id -> qualified name
        self._ids = {}
        self.name_of = array("i")  # per span
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.current_op = -1
        self.counters = {"rref.entries": 0, "rref.nnz": 0,
                         "confring.reduce_word.terms_out": 0,
                         "equiodd.reduce_graph.terms_out": 0,
                         "page.live_spots": 0, "page.visited_spots": 0}
        self.rref_shapes = {}
        self._patches = []         # (owner, attribute, original)
        self._hooks = self._make_hooks()

    # -- recording -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_of, parent, op, start, end = (self.name_of, self.parent, self.op,
                                           self.start, self.end)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _make_hooks(self):
        """Counters read at the call boundary, keyed by wrapped function."""
        c = self.counters

        def rref(args, result):
            m = args[0]
            c["rref.entries"] += m.nrows * m.ncols
            c["rref.nnz"] += sum(1 for row in m.rows for x in row if x)
            key = f"{_pow2(m.nrows)}x{_pow2(m.ncols)}"
            self.rref_shapes[key] = self.rref_shapes.get(key, 0) + 1

        def reduce_word(args, result):
            c["confring.reduce_word.terms_out"] += len(result)

        def reduce_graph(args, result):
            c["equiodd.reduce_graph.terms_out"] += len(result)

        def page(args, result):
            complex_ = args[0]
            c["page.live_spots"] += len(result.spots)
            c["page.visited_spots"] += len(complex_.degrees()) * (complex_.top_level + 1)

        return {"exactalg.Matrix.rref": rref,
                "confring.reduce_word": reduce_word,
                "equiodd.reduce_graph": reduce_graph,
                "specseq.page": page}

    # -- installation --------------------------------------------------------

    def install(self, modules):
        """Wrap the layer entry points of `modules` (short name -> module)."""
        wrappers = {}
        for layer, classes in WRAPPED_CLASSES.items():
            for cls_name, only in classes.items():
                cls = getattr(modules[layer], cls_name)
                for attr, value in list(vars(cls).items()):
                    if attr in SKIPPED_METHODS or (only and attr not in only):
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if inspect.isfunction(value):
                        if id(value) not in wrappers:
                            wrappers[id(value)] = self._wrap(value, name)
                        self._patch(cls, attr, wrappers[id(value)])
                    elif isinstance(value, classmethod):
                        self._patch(cls, attr,
                                    classmethod(self._wrap(value.__func__, name)))
        owners = {f"equiconf.{layer}": layer for layer in LAYERS}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                fn = value.__wrapped__ if hasattr(value, "cache_info") else value
                if not inspect.isfunction(fn) or fn.__module__ not in owners:
                    continue
                name = f"{owners[fn.__module__]}.{fn.__name__}"
                if name in UNWRAPPED:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, name)
                self._patch(module, attr, wrappers[id(value)])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def span_count(self):
        return len(self.name_of)

    def summary(self, passes):
        """Every per-layer metric; counts and times are per pass."""
        n = len(self.name_of)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        fn_self = [0] * len(self.names)
        fn_calls = [0] * len(self.names)
        for i in range(n):
            fn_self[self.name_of[i]] += end[i] - start[i] - child[i]
            fn_calls[self.name_of[i]] += 1
        # a child span of the same layer keeps its own exclusive time in that
        # layer, so summing exclusive times per layer gives the time the
        # layer's spans cover minus their children from other layers
        layer_self = dict.fromkeys(LAYERS, 0)
        for nid, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += fn_self[nid]
        c = self.counters
        values = {f"{layer}.self_s": t / 1e9 for layer, t in layer_self.items()}
        for key, name in FUNCTION_METRICS.items():
            nid = self._ids.get(name)
            values[f"{key}.calls"] = 0 if nid is None else fn_calls[nid]
            values[f"{key}.self_s"] = 0 if nid is None else fn_self[nid] / 1e9
        values["exactalg.rref.entries"] = c["rref.entries"]
        values["confring.reduce_word.terms_out"] = c["confring.reduce_word.terms_out"]
        values["equiodd.reduce_graph.terms_out"] = c["equiodd.reduce_graph.terms_out"]
        out = {metric: values[metric] / passes for metric, _, _ in PER_LAYER_METRICS
               if metric in values}
        out["exactalg.rref.nnz_ratio"] = (
            c["rref.nnz"] / c["rref.entries"] if c["rref.entries"] else 0.0)
        out["specseq.page.live_spot_ratio"] = (
            c["page.live_spots"] / c["page.visited_spots"]
            if c["page.visited_spots"] else 0.0)
        return {metric: out[metric] for metric, _, _ in PER_LAYER_METRICS}

    def write(self, path):
        """One JSON header line, then the five span arrays as raw bytes."""
        arrays = (self.name_of, self.parent, self.op, self.start, self.end)
        header = {"names": self.names, "count": self.span_count(),
                  "arrays": [["name", "i"], ["parent", "i"], ["op", "i"],
                             ["start_ns", "q"], ["end_ns", "q"]],
                  "itemsizes": [a.itemsize for a in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(fh)
