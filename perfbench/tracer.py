"""Span wrappers installed around orbipar's public entry points from outside.

A span records its name, start, end, parent span and op id.  Spans live in
compact arrays while the run lasts and are written out once at the end.  A
layer is an orbipar module; its self time is the time inside its spans minus
the time covered by their child spans, whatever layer those belong to.
Nothing in orbipar is edited: the wrappers replace the function (or method)
in its defining module and under every name another orbipar module imported
it as, e.g. ``cli.h2_classes``.
"""

import sys
from array import array
from functools import wraps
from time import perf_counter

LAYERS = ("scalars", "matrices", "cocycles", "pseudoreps", "liemodel",
          "localseries", "moduli", "jsonio", "cli")

# (module, attribute or Class.method) per layer
ENTRY_POINTS = {
    "cli": ["run_command"],
    "jsonio": ["dumps"],  # plus every *_from_json / *_to_json, found below
    "cocycles": ["h2_classes", "is_cocycle", "central_extension", "zeta"],
    "moduli": ["enumerate_strata", "riemann_hurwitz", "degree_pairing",
               "stability_verdict", "degree_scaling_check"],
    "pseudoreps": ["verify_pseudorep", "classify", "enumerate_classes",
                   "deck_transport", "project_mod_center"],
    "liemodel": ["alcove_normalize", "isotropy_eigenspaces", "parabolic_from_s"],
    "localseries": ["check_invariance", "descend", "ascend", "residue_report"],
    "matrices": ["CycMatrix.__matmul__", "CycMatrix.det", "CycMatrix.charpoly",
                 "CycMatrix.inverse", "root_of_unity_eigenvalues"],
    "scalars": ["Cyclotomic.__init__", "Cyclotomic.__mul__", "Cyclotomic.__add__",
                "Cyclotomic.embed", "Cyclotomic.inverse", "euler_phi",
                "cyclotomic_poly", "root_of_unity"],
}

# span name -> per-layer metric that counts its calls
CALL_COUNTERS = {
    "scalars.Cyclotomic.__init__": "scalars.cyclotomic_new",
    "scalars.Cyclotomic.__mul__": "scalars.mul",
    "scalars.Cyclotomic.embed": "scalars.embed",
    "scalars.euler_phi": "scalars.euler_phi",
    "matrices.CycMatrix.__matmul__": "matrices.matmul",
    "matrices.CycMatrix.det": "matrices.det",
    "matrices.CycMatrix.charpoly": "matrices.charpoly",
}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # [span index, layer index, child time]
        self.op_id = -1
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.errors = [0] * len(LAYERS)
        self.name_calls = []
        self.counters = {"scalars.max_order": 0, "cocycles.candidates": 0,
                         "cocycles.classes": 0, "localseries.terms": 0,
                         "moduli.strata": 0, "jsonio.bytes_out": 0}

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every entry point under every name it is reachable by."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "orbipar" or name.startswith("orbipar.")}
        jsonio = modules["orbipar.jsonio"]
        targets = {layer: list(names) for layer, names in ENTRY_POINTS.items()}
        targets["jsonio"] += sorted(n for n in vars(jsonio)
                                    if n.endswith(("_from_json", "_to_json"))
                                    and callable(getattr(jsonio, n)))
        for layer, names in targets.items():
            home = modules["orbipar." + layer]
            for attr in names:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = vars(cls)[meth]
                    wrapper = self._wrap(f"{layer}.{attr}", layer, orig)
                    for key, value in list(vars(cls).items()):  # __radd__ = __add__
                        if value is orig:
                            setattr(cls, key, wrapper)
                    continue
                orig = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", layer, orig)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)

    def _wrap(self, name, layer, fn):
        nid = len(self.names)
        self.names.append(name)
        lid = LAYERS.index(layer)
        self.name_calls.append(0)
        before, after = self._hooks(name, lid)
        stack = self.stack
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_op.append(self.op_id)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [idx, lid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                if not stack or stack[-1][1] != lid:
                    self.errors[lid] += 1  # the exception leaves this layer
                self._close(frame, idx, nid, t0, t1)
                raise
            t1 = perf_counter()
            stack.pop()
            self._close(frame, idx, nid, t0, t1)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _close(self, frame, idx, nid, t0, t1):
        dur = t1 - t0
        lid = frame[1]
        self.self_s[lid] += dur - frame[2]
        self.calls[lid] += 1
        self.name_calls[nid] += 1
        if self.stack:
            self.stack[-1][2] += dur
        self.span_start[idx] = t0
        self.span_end[idx] = t1

    def _hooks(self, name, lid):
        c = self.counters
        if name == "scalars.Cyclotomic.__init__":
            def before(args, kwargs):
                order = args[1] if len(args) > 1 else kwargs["order"]
                if order > c["scalars.max_order"]:
                    c["scalars.max_order"] = order
            return before, None
        if name == "cocycles.h2_classes":
            def before(args, kwargs):
                group, m = args[0], args[1]
                t = sum(1 for f in group.factors if f > 1)
                c["cocycles.candidates"] += m ** (t * (group.order - 1)) if group.order > 1 else 1

            def after(args, result):
                c["cocycles.classes"] += len(result)
            return before, after
        if name == "moduli.enumerate_strata":
            def after(args, result):
                c["moduli.strata"] += len(result)
            return None, after
        if name.startswith("localseries."):
            def before(args, kwargs):
                if not self.stack or self.stack[-1][1] != lid:  # entering the layer
                    c["localseries.terms"] += len(args[0].terms)
            return before, None
        if name == "jsonio.dumps":
            def after(args, result):
                c["jsonio.bytes_out"] += len(result.encode("utf-8"))
            return None, after
        return None, None

    # -- results ----------------------------------------------------------------

    def metrics(self):
        out = {}
        for lid, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[lid]
            out[f"{layer}.self_s"] = self.self_s[lid]
            out[f"{layer}.errors"] = self.errors[lid]
        by_name = dict(zip(self.names, self.name_calls))
        for span, metric in CALL_COUNTERS.items():
            out[metric] = by_name[span]
        out.update(self.counters)
        cand = self.counters["cocycles.candidates"]
        out["cocycles.useful_ratio"] = self.counters["cocycles.classes"] / cand if cand else 0.0
        return out

    def write_spans(self, path):
        """Write the spans as a NumPy archive: names plus one row per span."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
