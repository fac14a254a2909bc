"""Span tracer installed from the benchmark's side around hbspace entry points.

Each wrapped callable records a span (id, name, start, end, parent id, op id)
and folds its duration into a per-layer aggregate: call count, total time and
self time, where self time is the span's duration minus the time its child
spans cover.  Wrappers are patched into every hbspace module namespace that
holds the original object, so a name imported with ``from .x import f`` is
traced where it is looked up as well as where it is defined.  numpy's
``fft``/``ifft`` are traced only while a library span is open, which
restricts them to calls made from inside hbspace.

Spans stay in memory (up to ``max_spans``) and are written as JSON lines by
``write_spans`` when the run ends.
"""

import json
import sys
import time
from collections import defaultdict

_perf = time.perf_counter


def _embed_route(args) -> str:
    handle = args[0]
    if handle.n == 0 or handle.mode == "inner":
        return "model.embed.direct"
    use_fft = getattr(handle, "_use_fft_path", None)
    if use_fft is None:
        return "model.embed.unknown"
    return "model.embed.fft" if use_fft else "model.embed.triangular"


def _factor_facts(tracer, result, exc):
    facts = tracer.facts[tracer.phase]
    if exc is not None:
        facts["spectral.factor.failed"] += 1
        return
    facts["spectral.factor.wilson_iters"] += int(result.iterations)
    facts["spectral.factor.wilson_settled"] += int(result.method == "wilson")
    facts["spectral.factor.regularized"] += int(result.regularization > 0)


# layer name -> (module, dotted attribute) targets; a callable layer name is
# evaluated on the call's positional arguments.
TARGETS = [
    ("spectral.factor", "hbspace.spectral", ["matrix_outer_factor"]),
    ("spectral.residual", "hbspace.spectral", ["factor_residual"]),
    ("symbols.validate", "hbspace.symbols", ["RowSymbol.__post_init__"]),
    ("harmonic.log_diagnostic", "hbspace.harmonic", ["log_diagnostic"]),
    ("model.handle", "hbspace.model", ["SpaceHandle.__init__"]),
    (_embed_route, "hbspace.model", ["SpaceHandle.embed"]),
    ("model.inner", "hbspace.model", ["SpaceHandle.inner"]),
    ("model.monomial_gram", "hbspace.model", ["SpaceHandle.monomial_gram"]),
    ("model.membership", "hbspace.model", ["SpaceHandle.membership"]),
    ("model.shift", "hbspace.model", ["SpaceHandle.forward", "SpaceHandle.backward",
                                      "SpaceHandle.resolvent_divide",
                                      "SpaceHandle.pair_from_parts"]),
    ("symbols.kernel", "hbspace.symbols", ["kernel_eval", "gram_matrix"]),
    ("symbols.dirichlet", "hbspace.symbols", [
        "DirichletSpace.companions", "DirichletSpace.companions_at",
        "DirichletSpace.poly_norm_sq", "DirichletSpace.norm", "DirichletSpace.inner",
        "DirichletSpace.monomial_gram", "DirichletSpace._kernel_solver",
        "DirichletSpace.kernel", "DirichletSpace.gram", "DirichletSpace.kernel_taylor"]),
    ("symbols.rank", "hbspace.symbols", ["estimate_rank"]),
    ("series", "hbspace.series", ["horner", "divided_difference", "geometric_divide",
                                  "series_divide"]),
    ("analysis.norm_limit", "hbspace.analysis", ["norm_limit_estimate", "wandering_norm"]),
    ("analysis.carleson", "hbspace.analysis", ["reverse_carleson",
                                               "dirichlet_reverse_carleson"]),
    ("analysis.mz_test", "hbspace.analysis", ["mz_test"]),
    ("analysis.pointwise", "hbspace.analysis", ["pointwise_defect"]),
    ("subspaces.poly_density", "hbspace.subspaces", ["poly_density_residual"]),
    ("subspaces.intersect", "hbspace.subspaces", ["intersect_model_space",
                                                  "backward_invariance_residual"]),
    ("subspaces.nearly_invariant", "hbspace.subspaces", ["nearly_invariant_norm"]),
    ("subspaces.quotient", "hbspace.subspaces", ["shift_subspace_membership"]),
    ("catalog.build", "hbspace.catalog", ["named_space", "space_from_json"]),
    ("acceptance.suite", "hbspace.acceptance", ["run_all"]),
    ("verification.verify", "hbspace.verification", ["verify_space"]),
]

FACT_HOOKS = {"spectral.factor": _factor_facts}

# Imported before patching so that every hbspace module is patched, including
# the one cli imports lazily inside a command (verification).
MODULES = ["hbspace.cli", "hbspace.verification"]


class Tracer:
    def __init__(self, max_spans: int = 400_000):
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.phase = "setup"
        self.op_id = None
        # phase -> layer -> [calls, total_s, self_s]
        self.agg = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        self.facts = defaultdict(lambda: defaultdict(int))
        self._stack = []  # [span id, child time]
        self._next_id = 0
        self._patches = []

    # -- span recording --------------------------------------------------

    def _wrap(self, layer, fn, only_nested=False):
        tracer = self
        hook = FACT_HOOKS.get(layer) if isinstance(layer, str) else None

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if only_nested and not stack:
                return fn(*args, **kwargs)
            name = layer(args) if callable(layer) else layer
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            result = exc = None
            start = _perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry = tracer.agg[tracer.phase][name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if hook is not None:
                    hook(tracer, result, exc)
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append((span_id, name, start, end, parent,
                                         tracer.op_id, tracer.phase))
                else:
                    tracer.dropped += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        import numpy.fft

        for name in MODULES:
            importlib.import_module(name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hbspace" or n.startswith("hbspace."))]
        for layer, module_name, attrs in TARGETS:
            module = sys.modules[module_name]
            for dotted in attrs:
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    owner = getattr(module, cls_name)
                    self._set(owner, attr, self._wrap(layer, owner.__dict__[attr]))
                    continue
                original = getattr(module, dotted)
                wrapped = self._wrap(layer, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
        for attr in ("fft", "ifft"):
            self._set(numpy.fft, attr,
                      self._wrap("harmonic.fft", numpy.fft.__dict__[attr], only_nested=True))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def layer_totals(self, phases=None) -> dict:
        """layer -> (calls, total_s, self_s), summed over the given phases."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for phase, layers in self.agg.items():
            if phases is not None and phase not in phases:
                continue
            for name, (calls, total, self_s) in layers.items():
                entry = out[name]
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
        return out

    def fact_totals(self, phases=None) -> dict:
        out = defaultdict(int)
        for phase, facts in self.facts.items():
            if phases is None or phase in phases:
                for name, value in facts.items():
                    out[name] += value
        return out

    def export(self) -> dict:
        """Aggregates in a JSON-friendly form (used by traced CLI children)."""
        return {
            "agg": {p: {k: list(v) for k, v in layers.items()}
                    for p, layers in self.agg.items()},
            "facts": {p: dict(f) for p, f in self.facts.items()},
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def merge(self, exported: dict, op_id):
        for phase, layers in exported["agg"].items():
            for name, (calls, total, self_s) in layers.items():
                entry = self.agg[phase][name]
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
        for phase, facts in exported["facts"].items():
            for name, value in facts.items():
                self.facts[phase][name] += value
        for span in exported["spans"]:
            if len(self.spans) < self.max_spans:
                span = list(span)
                span[5] = op_id
                self.spans.append(tuple(span))
            else:
                self.dropped += 1
        self.dropped += exported["dropped"]


def write_spans(path, spans, dropped=0):
    keys = ("id", "name", "start", "end", "parent", "op", "phase")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
        if dropped:
            fh.write(json.dumps({"dropped": dropped}) + "\n")
