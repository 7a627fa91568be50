"""Span tracer behind the per-layer metrics of a traced benchmark pass.

``Tracer.installed()`` wraps, for as long as the ``with`` block lasts:

* every public function of every jetvir layer module, under every module
  name through which a layer looks it up (``wickcocycle.delta_pair_integral``
  is the same wrapper as ``deltacalc.delta_pair_integral``);
* the arithmetic and calculus methods of ``Poly`` and
  ``StructureConstants.bracket_components``.  Trivial accessors such as
  ``Poly.is_zero`` and ``Poly.coeff`` stay unwrapped, so their cost counts
  in the caller;
* ``deltacalc._pair_against_delta`` with a counter and no span, to count
  the kernel-term pairings the oracle evaluates.

Every wrapped call records a span: its name, start, end and parent.  Spans
stay in memory, in flat arrays, until ``metrics()`` reduces them.  A span's
self time is its duration minus the durations of its child spans.  A named
operation (``exactpoly.mul``, ``jetreps.build``, ...) owns the self time of
its own span and of the spans of the same layer nested inside it; where two
operations of one layer nest, the outer one owns the time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array

import jetvir

LAYERS = tuple(jetvir.__all__)

TRACED_METHODS = {
    ("exactpoly", "Poly"): ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
                            "__pow__", "scale", "deriv", "deriv_multi",
                            "compose_univariate", "truncate", "eval"),
    ("jetreps", "StructureConstants"): ("bracket_components",),
}

# span name -> the operation that owns its self time
OPERATIONS = {
    "exactpoly.Poly.__mul__": "exactpoly.mul",
    "exactpoly.Poly.__add__": "exactpoly.add",
    "exactpoly.Poly.__sub__": "exactpoly.add",
    "exactpoly.Poly.compose_univariate": "exactpoly.compose",
    "exactpoly.Poly.__pow__": "exactpoly.compose",
    "jetreps.mat_mul": "jetreps.mat_mul",
    "jetreps.gauge_operator": "jetreps.build",
    "jetreps.diff_operator": "jetreps.build",
    "deltacalc.delta_pair_integral": "deltacalc.pair",
    "deltacalc.delta_pair_closed": "deltacalc.closed",
    "charges.closed_form": "charges.closed",
}

# metric name -> the spans it counts
CALLS = {
    "exactpoly.new.calls": ("exactpoly.Poly.__init__",),
    "exactpoly.mul.calls": ("exactpoly.Poly.__mul__",),
    "exactpoly.add.calls": ("exactpoly.Poly.__add__", "exactpoly.Poly.__sub__"),
    "exactpoly.compose.calls": ("exactpoly.Poly.compose_univariate",),
    "jetreps.mat_mul.calls": ("jetreps.mat_mul",),
    "deltacalc.pair.calls": ("deltacalc.delta_pair_integral",),
    "wickcocycle.contraction.calls": ("wickcocycle.double_contraction",),
}

SELF_TIMES = tuple(f"{layer}.self_s" for layer in LAYERS) + tuple(
    f"{op}.self_s" for op in sorted(set(OPERATIONS.values())))


def _layer_modules():
    return {layer: importlib.import_module(f"jetvir.{layer}") for layer in LAYERS}


def _home_layer(fn):
    module = getattr(fn, "__module__", "") or ""
    package, _, layer = module.rpartition(".")
    return layer if package == "jetvir" and layer in LAYERS else None


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self._names = array("i")
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self.counts = dict.fromkeys(
            ("term_pairs", "matmul_entries", "matmul_nonzero", "pairings",
             "pairings_nonzero", "contraction_oracle_calls", "useful_oracle_calls"), 0)
        self._oracle_nonzero = False
        self._patched: list = []

    # -- installation -----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced attribute; restore the originals on exit."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def _targets(self):
        """(owner, attribute, original, span name) of everything traced,
        with ``None`` as the span name of the counter without a span."""
        modules = _layer_modules()
        out = []
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                home = _home_layer(obj) if inspect.isfunction(obj) else None
                if home and not attr.startswith("_"):
                    out.append((module, attr, obj, f"{home}.{obj.__name__}"))
        for (layer, cls_name), methods in TRACED_METHODS.items():
            cls = getattr(modules[layer], cls_name, None)
            present = vars(cls) if cls is not None else {}
            out += [(cls, m, present[m], f"{layer}.{cls_name}.{m}")
                    for m in methods if m in present]
        helper = vars(modules["deltacalc"]).get("_pair_against_delta")
        if helper is not None:
            out.append((modules["deltacalc"], "_pair_against_delta", helper, None))
        return out

    def _install(self):
        wrappers = {}
        for owner, attr, original, name in self._targets():
            if original not in wrappers:
                wrappers[original] = (self._counter(original) if name is None
                                      else self._span(original, name))
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrappers[original])

    def _uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------------

    def _span(self, fn, name):
        sid = self._ids.setdefault(name, len(self._ids))
        names, parents, starts, ends, stack = (
            self._names, self._parents, self._starts, self._ends, self._stack)
        clock = time.perf_counter
        before, after = self._hooks(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            counts["pairings"] += 1
            if result:
                counts["pairings_nonzero"] += 1
            return result
        return wrapper

    def _hooks(self, name):
        """Counts taken at a span's boundary, outside the span itself."""
        counts = self.counts
        if name == "exactpoly.Poly.__mul__":
            def before(args):
                counts["term_pairs"] += len(args[0].terms) * len(args[1].terms)
            return before, None
        if name == "jetreps.mat_mul":
            def before(args):
                for m in args[:2]:
                    counts["matmul_entries"] += sum(len(row) for row in m)
                    counts["matmul_nonzero"] += sum(
                        1 for row in m for x in row if not x.is_zero())
            return before, None
        if name == "deltacalc.delta_pair_integral":
            contraction = self._ids.setdefault("wickcocycle.double_contraction",
                                               len(self._ids))

            def after(result):
                parent = self._stack[-1]
                if parent >= 0 and self._names[parent] == contraction:
                    counts["contraction_oracle_calls"] += 1
                    self._oracle_nonzero = result != 0
            return None, after
        if name == "wickcocycle.trace_pair":
            # an oracle call is useful when its integral is nonzero and the
            # trace_pair that follows it in the same contraction is nonzero
            def after(result):
                if result != 0 and self._oracle_nonzero:
                    counts["useful_oracle_calls"] += 1
                self._oracle_nonzero = False
            return None, after
        return None, None

    # -- reduction ------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        by_id = {sid: name for name, sid in self._ids.items()}
        layer_of = {sid: name.split(".", 1)[0] for sid, name in by_id.items()}
        layer_key = {sid: f"{layer}.self_s" for sid, layer in layer_of.items()}
        op_of_id = {sid: OPERATIONS.get(name) for sid, name in by_id.items()}
        names, parents, starts, ends = self._names, self._parents, self._starts, self._ends
        n = len(names)
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        owner = [None] * n
        self_s = dict.fromkeys(SELF_TIMES, 0.0)
        calls = [0] * len(by_id)
        for i in range(n):
            sid = names[i]
            calls[sid] += 1
            layer = layer_of[sid]
            p = parents[i]
            op = owner[p] if p >= 0 and owner[p] and layer_of[names[p]] == layer \
                else op_of_id[sid]
            owner[i] = op
            s = ends[i] - starts[i] - covered[i]
            self_s[layer_key[sid]] += s
            if op:
                self_s[op + ".self_s"] += s
        out = dict(self_s)
        by_name = {name: calls[sid] for sid, name in by_id.items()}
        for metric, spans in CALLS.items():
            out[metric] = sum(by_name.get(s, 0) for s in spans)
        out["multiindex.calls"] = sum(c for s, c in by_name.items()
                                      if s.startswith("multiindex."))
        c = self.counts
        out["exactpoly.mul.term_pairs"] = c["term_pairs"]
        out["jetreps.mat_mul.nonzero_ratio"] = _ratio(c["matmul_nonzero"], c["matmul_entries"])
        out["deltacalc.pair.nonzero_ratio"] = _ratio(c["pairings_nonzero"], c["pairings"])
        out["wickcocycle.useful_oracle_ratio"] = _ratio(c["useful_oracle_calls"],
                                                        c["contraction_oracle_calls"])
        out["trace.spans"] = n
        return out


def _ratio(num, den):
    return num / den if den else 0.0
