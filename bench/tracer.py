"""Layer tracing for the benchmark, installed from outside the program.

The tracer replaces the public functions (and a few named private ones) of
each plumbq module with wrappers, in every plumbq module that binds them:
`kq.qs_mul` is wrapped as well as `qlaurent.qs_mul`, and `gppv.zhat_block`
as well as `zhat.zhat_block`.  Public methods of the library's value classes
(`QSeries`, `WeightVector`, `LinkingMatrix`, `PlumbingGraph`) are wrapped
on the class.

A span opens when a call crosses from one layer into another, and for the
few functions whose inclusive time is a metric of its own.  A span's self
time is its duration minus the durations of its child spans, so the self
times of all spans plus the root's remainder add up to the traced pass.
Spans are aggregated in memory into a call tree keyed by path and written
out when the benchmark ends; counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "zhat", "plumbing", "lie", "qlaurent", "wrt", "gppv", "kq")
ROOT = "bench"

# private functions that carry a metric or are called across modules
PRIVATE = {
    "zhat": ("_zhat_block_suN",),
    "gppv": ("_block_limit",),
    "plumbing": ("_signature_counts",),
    "kq": ("_compositions",),
}
CLASSES = {
    "qlaurent": ("QSeries",),
    "lie": ("WeightVector",),
    "plumbing": ("LinkingMatrix", "PlumbingGraph"),
}
METHOD_DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__", "__str__")

# functions whose outermost inclusive time is a metric
GROUPS = {
    "zhat.zhat_all_blocks": "zhat.block_s",
    "zhat.zhat_block": "zhat.block_s",
    "zhat._zhat_block_suN": "zhat.block_s",
    "zhat.constant_term_oracle": "zhat.oracle_s",
    "gppv._block_limit": "gppv.limit_s",
    "gppv.gauss_reciprocity_check": "gppv.reciprocity_s",
    "kq.quiver_jones": "kq.series_s",
    "kq.dt_invariants": "kq.dt_s",
    "kq.quiver_jones_numeric": "kq.numeric_s",
}


class _Frame:
    __slots__ = ("layer", "node", "child")

    def __init__(self, layer, node):
        self.layer = layer
        self.node = node
        self.child = 0.0


class _Node:
    """One path of the aggregated span tree."""

    __slots__ = ("name", "layer", "count", "total", "self_time", "children")

    def __init__(self, name, layer):
        self.name = name
        self.layer = layer
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children = {}

    def child(self, name, layer):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name, layer)
        return node

    def to_json(self):
        return {
            "name": self.name, "layer": self.layer, "count": self.count,
            "total_s": self.total, "self_s": self.self_time,
            "children": [c.to_json() for c in sorted(
                self.children.values(), key=lambda c: -c.total)],
        }


class Tracer:
    """Spans and counters for one traced pass.  Create it, `install` it,
    call `begin`, run each operation through `run_op`, call `end`, then
    `uninstall` it and read `summary()` and `spans()`."""

    def __init__(self):
        self.clock = time.perf_counter
        self.root = _Node(ROOT, ROOT)
        self.stack = [_Frame(ROOT, self.root)]
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.layer_self[ROOT] = 0.0
        self.calls = {layer: 0 for layer in LAYERS}
        self.counts = {}
        self.group_time = {g: 0.0 for g in set(GROUPS.values())}
        self.group_depth = {g: 0 for g in set(GROUPS.values())}
        self.ops = []
        self._patched = []
        self._in_compositions = False
        self._start = None
        self._end = None

    # -- spans ---------------------------------------------------------

    def _enter(self, layer, name):
        top = self.stack[-1]
        node = top.node.child(name, layer)
        frame = _Frame(layer, node)
        self.stack.append(frame)
        if top.layer != layer:
            self.calls[layer] = self.calls.get(layer, 0) + 1
        return frame, top, self.clock()

    def _exit(self, frame, parent, start):
        dur = self.clock() - start
        self.stack.pop()
        parent.child += dur
        self_time = dur - frame.child
        node = frame.node
        node.count += 1
        node.total += dur
        node.self_time += self_time
        self.layer_self[frame.layer] += self_time
        return dur

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def run_op(self, name, layer, fn):
        """Run fn() as one benchmark operation inside a span of `layer`:
        "cli" for a command, the root layer for a library call (whose own
        layer then opens its span at the wrapped function)."""
        frame, parent, start = self._enter(layer, name)
        if layer == "cli":
            self.count("cli.commands")
        try:
            return fn()
        finally:
            self._exit(frame, parent, start)
            self.ops.append({"op": name, "layer": layer,
                             "start_s": start - self._start,
                             "end_s": self.clock() - self._start})

    def begin(self):
        self._start = self.clock()

    def end(self):
        self._end = self.clock()
        total = self._end - self._start
        self.root.count = 1
        self.root.total = total
        self.root.self_time = total - self.stack[0].child
        self.layer_self[ROOT] += self.root.self_time
        return total

    # -- wrapping --------------------------------------------------------

    def _wrap(self, layer, qualname, fn, after=None):
        group = GROUPS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = tracer.stack[-1]
            if group is None and top.layer == layer:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            frame, parent, start = tracer._enter(layer, qualname)
            if group is not None:
                tracer.group_depth[group] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._exit(frame, parent, start)
                if group is not None:
                    tracer.group_depth[group] -= 1
                    if tracer.group_depth[group] == 0:
                        tracer.group_time[group] += dur
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _wrap_compositions(self, fn):
        """Count the compositions an outermost walk yields; the recursive
        inner walks pass through uncounted."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_compositions:
                yield from fn(*args, **kwargs)
                return
            tracer._in_compositions = True
            try:
                for item in fn(*args, **kwargs):
                    tracer.counts["kq.compositions"] = (
                        tracer.counts.get("kq.compositions", 0) + 1)
                    yield item
            finally:
                tracer._in_compositions = False

        return wrapper

    def install(self):
        """Wrap every traced function of each layer's module and rebind
        each wrapped object wherever a plumbq module binds it."""
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"plumbq.{layer}")
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                qual = f"{layer}.{name}"
                if name == "_compositions":
                    replace[id(obj)] = (obj, self._wrap_compositions(obj))
                else:
                    replace[id(obj)] = (
                        obj, self._wrap(layer, qual, obj, _AFTER.get(qual)))
            for cls_name in CLASSES.get(layer, ()):
                self._wrap_class(layer, getattr(mod, cls_name))
        bound = [m for n, m in sorted(sys.modules.items())
                 if n == "plumbq" or n.startswith("plumbq.")]
        for mod in bound:
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            public = not name.startswith("_") or name in METHOD_DUNDERS
            if not public:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(layer, qual, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(layer, qual, raw)
            else:
                continue  # properties and dataclass fields stay as they are
            self._patched.append((cls, name, raw))
            setattr(cls, name, new)

    def uninstall(self):
        for owner, name, obj in reversed(self._patched):
            setattr(owner, name, obj)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def summary(self):
        """Per-layer metrics of the traced pass, named as in BENCHMARK.json."""
        c = self.counts.get
        pass_s = self._end - self._start
        out = {f"{layer}.self_s": self.layer_self[layer] for layer in LAYERS}
        out.update(self.group_time)
        points = c("zhat.lattice_points", 0)
        kept = c("zhat.block_terms", 0) + c("zhat.oracle_terms", 0)
        periodic = c("gppv.periodic_calls", 0)
        out.update({
            "cli.commands": c("cli.commands", 0),
            "zhat.blocks": c("zhat.blocks", 0),
            "zhat.block_terms": c("zhat.block_terms", 0),
            "zhat.lattice_points": points,
            "zhat.terms_per_point": kept / points if points else 0.0,
            "plumbing.inverse_calls": c("plumbing.inverse_calls", 0),
            "lie.calls": self.calls["lie"],
            "qlaurent.mul_calls": c("qlaurent.mul_calls", 0),
            "qlaurent.mul_term_pairs": c("qlaurent.mul_term_pairs", 0),
            "wrt.calls": self.calls["wrt"],
            "gppv.limit_terms": c("gppv.limit_terms", 0),
            "gppv.periodic_hit_ratio": (
                c("gppv.periodic_hits", 0) / periodic if periodic else 0.0),
            "kq.compositions": c("kq.compositions", 0),
            "trace.pass_s": pass_s,
            "trace.unattributed_s": self.layer_self[ROOT],
        })
        return out

    def spans(self):
        return {"tree": self.root.to_json(), "ops": self.ops}


# counters taken when a wrapped function returns: (tracer, args, result)

def _block(t, args, result):
    t.count("zhat.blocks")
    t.count("zhat.block_terms", len(result.series.terms))


def _oracle(t, args, result):
    t.count("zhat.oracle_terms", len(result.terms))


def _points(t, args, result):
    t.count("zhat.lattice_points", len(result))


def _inverse(t, args, result):
    t.count("plumbing.inverse_calls")


def _mul(t, args, result):
    t.count("qlaurent.mul_calls")
    t.count("qlaurent.mul_term_pairs", len(args[0].terms) * len(args[1].terms))


def _limit(t, args, result):
    t.count("gppv.limit_terms", len(args[0].terms))


def _periodic(t, args, result):
    t.count("gppv.periodic_calls")
    if result[0] is not None:
        t.count("gppv.periodic_hits")


_AFTER = {
    "zhat.zhat_block": _block,
    "zhat._zhat_block_suN": _block,
    "zhat.constant_term_oracle": _oracle,
    "zhat.ellipsoid_points": _points,
    "plumbing.exact_inverse": _inverse,
    "qlaurent.qs_mul": _mul,
    "gppv._block_limit": _limit,
    "gppv.root_limit_periodic": _periodic,
}

