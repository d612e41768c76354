"""Per-layer tracing of quiverhall from outside the package.

``Tracer.install`` wraps the public functions and methods of each engine
layer (one module each) and the arithmetic operators of ``FpMatrix`` and
``CoeffScalar``.  Every call is folded into a per-function aggregate (calls,
inclusive time, self time) when it returns, so the trace fits in memory;
a layer's self time is the sum over its functions.  Spans (name, start,
end, parent, operation) are kept only for operations and for calls that
cross into an algebra-level layer (``ALGEBRA_LAYERS``).  Generator
functions are counted (calls and items yielded), not timed: their time
falls to the function that consumes them.  ``uninstall`` restores every
patched attribute.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict

LAYERS = ("linalg", "scalars", "reps", "hall", "cx2", "sdh2", "sdhz",
          "reflection", "report")
ALGEBRA_LAYERS = {"hall", "cx2", "sdh2", "sdhz", "reflection", "report"}
# Operators are wrapped only where they are the layer's own arithmetic.
OPERATORS = {
    "linalg": ("__init__", "__add__", "__sub__", "__neg__", "__matmul__"),
    "scalars": ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
                "__pow__"),
}
SCALAR_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
              "__pow__", "scale", "inverse")
# The report layer also owns the CLI's rendering and output functions.
CLI_REPORT_FUNCS = ("_report_text", "_table_text", "_emit")
# Classes whose ``_*_cache`` dicts are sized after each operation.
CACHE_OWNERS = {"reps": "RepCategory", "cx2": "Cx2Tools", "hall": "HallAlgebra"}


class Tracer:
    def __init__(self):
        self.funcs = {}                   # "layer.Class.name" -> [calls, incl, self, depth]
        self.layer_of = {}
        self.layer_time = {l: [0, 0.0] for l in LAYERS}   # [depth, incl]
        self.frames = []                  # [child time, layer] per active call
        self.spans = []                   # [id, name, start, end, parent, op]
        self.span_stack = []
        self.op = None
        self.gen_items = defaultdict(int)
        self.distinct = defaultdict(set)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.cache_peak = defaultdict(int)
        self.instances = defaultdict(list)
        self._patches = []

    # ------------------------------------------------------------------
    # installation

    def install(self):
        mods = {l: importlib.import_module(f"quiverhall.{l}") for l in LAYERS}
        self._orig_signature = mods["reps"].Rep.signature
        replaced = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    replaced[obj] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        cli = importlib.import_module("quiverhall.cli")
        for name in CLI_REPORT_FUNCS:
            fn = getattr(cli, name)
            replaced[fn] = self._wrap(fn, f"report.cli.{name}", "report")
            self._patch(cli, name, replaced[fn])
        # Rebind module-level functions wherever they were imported by name.
        for mod_name in [m for m in list(sys.modules)
                         if m.startswith("quiverhall")]:
            mod = sys.modules[mod_name]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced \
                        and getattr(mod, name) is not replaced[obj]:
                    self._patch(mod, name, replaced[obj])
        for layer in ("reps", "cx2"):
            self._patch(mods[layer], "product", self._sized_product)

    def uninstall(self):
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _wrap_class(self, cls, layer):
        names = [n for n in vars(cls) if not n.startswith("_")]
        names += [n for n in OPERATORS.get(layer, ()) if n in vars(cls)]
        for name in names:
            raw = vars(cls)[name]
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            w = self._wrap(fn, f"{layer}.{cls.__name__}.{name}", layer)
            self._patch(cls, name, kind(w) if kind else w)
        if CACHE_OWNERS.get(layer) == cls.__name__:
            self._patch(cls, "__init__", self._capture(cls.__init__, layer))

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, fn, name, layer):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, layer)
        stat = self.funcs.setdefault(name, [0, 0.0, 0.0, 0])
        self.layer_of[name] = layer
        lay = self.layer_time[layer]
        frames = self.frames
        clock = time.perf_counter
        observe = self._observer(name)
        span = layer in ALGEBRA_LAYERS

        def wrapper(*args, **kwargs):
            caller = frames[-1][1] if frames else None
            record = span and caller != layer
            stat[0] += 1
            stat[3] += 1
            lay[0] += 1
            frames.append([0.0, layer])
            if record:
                sid = self._open_span(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = frames.pop()[0]
                stat[2] += dt - child
                stat[3] -= 1
                if stat[3] == 0:
                    stat[1] += dt
                lay[0] -= 1
                if lay[0] == 0:
                    lay[1] += dt
                if frames:
                    frames[-1][0] += dt
                if record:
                    self._close_span(sid, t0, t0 + dt)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, name, layer):
        stat = self.funcs.setdefault(name, [0, 0.0, 0.0, 0])
        self.layer_of[name] = layer
        items = self.gen_items

        def wrapper(*args, **kwargs):
            stat[0] += 1
            for item in fn(*args, **kwargs):
                items[name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _capture(self, init, layer):
        instances = self.instances

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances[layer].append(obj)

        return wrapper

    def _sized_product(self, *iterables, repeat=1):
        iterables = [it if hasattr(it, "__len__") else tuple(it) for it in iterables]
        size = 1
        for it in iterables:
            size *= len(it)
        self.maxima["scan"] = max(self.maxima["scan"], size ** repeat)
        return itertools.product(*iterables, repeat=repeat)

    def _observer(self, name):
        sig = self._orig_signature
        if name == "reps.RepCategory.hom_basis":
            return lambda a, r: self.distinct[name].add(
                (self.op, id(a[0]), sig(a[1]), sig(a[2])))
        if name == "reps.RepCategory.intern":
            return lambda a, r: self.distinct[name].add((self.op, id(a[0]), sig(a[1])))
        if name in ("reps.RepCategory.aut_count",
                    "reps.RepCategory.submodules_with_dim"):
            return lambda a, r: self._max("guard", sum(a[1].dim))
        if name == "cx2.Cx2Tools.ext1_classes_proj":
            return lambda a, r: self._add("cx2.classes", len(r))
        if name == "sdh2.SDH2Algebra.product2":
            return lambda a, r: self._add("sdh2.terms_out", len(r.terms))
        if name == "report.cli._emit":
            return lambda a, r: self._add("report.bytes_out",
                                          len(a[0].encode("utf-8")))
        return None

    def _add(self, key, n):
        self.counts[key] += n

    def _max(self, key, n):
        self.maxima[key] = max(self.maxima[key], n)

    # ------------------------------------------------------------------
    # spans and operations

    def _open_span(self, name):
        sid = len(self.spans)
        parent = self.span_stack[-1] if self.span_stack else None
        self.spans.append([sid, name, None, None, parent, self.op])
        self.span_stack.append(sid)
        return sid

    def _close_span(self, sid, start, end):
        self.span_stack.pop()
        self.spans[sid][2] = start
        self.spans[sid][3] = end

    def run_op(self, op_id, call):
        """Run ``call()`` as operation ``op_id`` under one root span."""
        self.op = op_id
        self.frames.append([0.0, None])
        sid = self._open_span(f"op:{op_id}")
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            self._close_span(sid, t0, time.perf_counter())
            self.frames.pop()
            for layer, objs in self.instances.items():
                size = sum(len(v) for obj in objs for k, v in vars(obj).items()
                           if k.startswith("_") and k.endswith("_cache")
                           and isinstance(v, dict))
                self.cache_peak[layer] = max(self.cache_peak[layer], size)
            self.instances.clear()

    # ------------------------------------------------------------------
    # results

    def call_stats(self):
        return {name: {"layer": self.layer_of[name], "calls": s[0],
                       "incl_s": s[1], "self_s": s[2]}
                for name, s in sorted(self.funcs.items()) if s[0]}

    def metrics(self, scan_budget, overhead_ratio):
        f = self.funcs
        calls = lambda n: f[n][0]
        self_s = lambda n: f[n][2]
        layer_self = defaultdict(float)
        for name, s in f.items():
            layer_self[self.layer_of[name]] += s[2]

        def ratio(name):
            return len(self.distinct[name]) / calls(name) if calls(name) else 1.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
            out[f"{layer}.incl_s"] = (self.layer_time[layer][1], "s")
        R, C2, S2, SZ, H = ("reps.RepCategory.", "cx2.Cx2Tools.",
                            "sdh2.SDH2Algebra.", "sdhz.SDHZAlgebra.",
                            "hall.HallAlgebra.")
        counts = {
            "linalg.matrices_built": calls("linalg.FpMatrix.__init__"),
            "linalg.rref.calls": calls("linalg.FpMatrix.rref"),
            "linalg.kernel_basis.calls": calls("linalg.FpMatrix.kernel_basis"),
            "linalg.solve.calls": calls("linalg.FpMatrix.solve"),
            "linalg.inverse.calls": calls("linalg.FpMatrix.inverse"),
            "scalars.ops": sum(calls(f"scalars.CoeffScalar.{n}") for n in SCALAR_OPS),
            "reps.hom_basis.calls": calls(R + "hom_basis"),
            "reps.intern.calls": calls(R + "intern"),
            "reps.canonical_rep.calls": calls(R + "canonical_rep"),
            "reps.decompose_reps.calls": calls(R + "decompose_reps"),
            "reps.scan_steps": calls(R + "morphisms_from_coeffs"),
            "reps.is_isomorphic.calls": calls(R + "is_isomorphic"),
            "reps.aut_count.calls": calls(R + "aut_count"),
            "reps.submodules_with_dim.calls": calls(R + "submodules_with_dim"),
            "reps.cache_entries": self.cache_peak["reps"],
            "cx2.cache_entries": self.cache_peak["cx2"],
            "hall.cache_entries": self.cache_peak["hall"],
            "hall.hall_number.calls": calls(H + "hall_number"),
            "hall.ext_class_counts.calls": calls(H + "ext_class_counts"),
            "hall.product_pair.calls": calls(H + "product_pair"),
            "cx2.aut_count.calls": calls(C2 + "aut_count"),
            "cx2.scan_steps": self.gen_items[C2 + "end_scan"],
            "cx2.is_isomorphic.calls": calls(C2 + "is_isomorphic"),
            "cx2.ext1_classes_proj.calls": calls(C2 + "ext1_classes_proj"),
            "cx2.ext1_classes_proj.classes": self.counts["cx2.classes"],
            "cx2.homology.calls": calls(C2 + "homology"),
            "sdh2.product2.calls": calls(S2 + "product2"),
            "sdh2.twisted_product2.calls": calls(S2 + "twisted_product2"),
            "sdh2.normal_form.calls": calls(S2 + "normal_form"),
            "sdh2.terms_out": self.counts["sdh2.terms_out"],
            "sdhz.productZ.calls": calls(SZ + "productZ"),
            "sdhz.normal_form.calls": calls(SZ + "normal_form"),
            "sdhz.euler_pairZ.calls": calls(SZ + "euler_pairZ"),
            "reflection.xi.calls": calls("reflection.SinkReflection.xi"),
        }
        out.update({k: (v, "count") for k, v in counts.items()})
        out["report.bytes_out"] = (self.counts["report.bytes_out"], "bytes")
        times = {
            "reps.intern.self_s": self_s(R + "intern"),
            "reps.canonical_rep.self_s": self_s(R + "canonical_rep"),
            "reps.decompose_reps.self_s": self_s(R + "decompose_reps"),
            "reps.submodules_with_dim.self_s": self_s(R + "submodules_with_dim"),
            "reps.iso_classes_up_to.self_s": self_s(R + "iso_classes_up_to"),
            "hall.ext_class_counts.self_s": self_s(H + "ext_class_counts"),
            "cx2.aut_count.self_s": self_s(C2 + "aut_count"),
            "cx2.is_isomorphic.self_s": self_s(C2 + "is_isomorphic"),
            "cx2.sub_complexes_with_dims.self_s": self_s(C2 + "sub_complexes_with_dims"),
            "sdh2.product2.self_s": self_s(S2 + "product2"),
            "sdh2.normal_form.self_s": self_s(S2 + "normal_form"),
            "sdhz.productZ.self_s": self_s(SZ + "productZ"),
            "sdhz.euler_pairZ.self_s": self_s(SZ + "euler_pairZ"),
            "reflection.t_hat.self_s": self_s("reflection.SinkReflection.t_hat"),
        }
        out.update({k: (v, "s") for k, v in times.items()})
        out["reps.hom_basis.distinct_ratio"] = (ratio(R + "hom_basis"), "ratio")
        out["reps.intern.distinct_ratio"] = (ratio(R + "intern"), "ratio")
        out["scan.max_size_ratio"] = (self.maxima["scan"] / scan_budget, "ratio")
        out["guard.enum_dim_max"] = (self.maxima["guard"], "dim")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def largest_layer(self):
        """The layer with the largest inclusive time."""
        return max(LAYERS, key=lambda l: self.layer_time[l][1])
