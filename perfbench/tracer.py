"""Per-layer tracing of `irred`, installed from outside the package.

`Tracer.install()` replaces the traced functions and methods of the
`irred` modules with wrappers.  Functions that a module imported with
`from ... import` are bound in several module namespaces, so every
binding of the original object is replaced, not only the defining one.

Three kinds of wrapper:

* span: timed, and kept as a span record (name, start, end, parent span,
  input id) for the layers above linear algebra;
* agg: timed, but only aggregated (calls, inclusive and self seconds),
  because the arithmetic layers run up to millions of times per input
  and a record per call would dominate memory;
* count: a call counter, for the hottest leaves (mp_mul alone runs
  about 2 M times in one p3 build).

Self time is a call's duration minus the time of the wrapped calls made
inside it.  Inclusive time of a recursive function counts only the
outermost call.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

# evidence kinds of irred certificates; replay time is reported per kind
EVIDENCE_KINDS = (
    "screen", "lie_dimension", "trace_zero", "decomposition",
    "bracket_identity", "lincomb_identity", "operator_identity",
    "rational_system", "scalar_rational", "pole_shortcut",
    "degree_argument", "matrix", "operator", "note", "vector")

# (metric prefix, module, attribute, kind); FieldElem.__init__ reports
# under field.FieldElem.new_q or .new_mu by its parameter context
TRACED = (
    ("field.FieldElem.new", "irred.field", "FieldElem.__init__", "agg"),
    ("field.mp_gcd", "irred.field", "mp_gcd", "count"),
    ("field.mp_mul", "irred.field", "mp_mul", "count"),
    ("poly.Poly.gcd", "irred.poly", "Poly.gcd", "agg"),
    ("poly.Poly.divmod", "irred.poly", "Poly.divmod", "count"),
    ("poly.RatFun.new", "irred.poly", "RatFun.__init__", "agg"),
    ("linear.rref", "irred.linear", "rref", "agg"),
    ("linear.mat_mul", "irred.linear", "mat_mul", "agg"),
    ("linear.in_span", "irred.linear", "in_span", "count"),
    ("linear.mat_bracket", "irred.linear", "mat_bracket", "count"),
    ("grammar.parse_ratfun", "irred.grammar", "parse_ratfun", "span"),
    ("linops.parse_operator", "irred.linops", "parse_operator", "span"),
    ("jets.build_p3_chain", "irred.jets", "build_p3_chain", "span"),
    ("jets.prolong", "irred.jets", "prolong", "span"),
    ("jets.restrict_along_curve", "irred.jets", "restrict_along_curve",
     "span"),
    ("jets.normal_restrict", "irred.jets", "normal_restrict", "span"),
    ("jets.linearize", "irred.jets", "linearize", "span"),
    ("linops.sym_power_operator", "irred.linops", "sym_power_operator",
     "span"),
    ("linops.cyclic_vector_scalarize", "irred.linops",
     "cyclic_vector_scalarize", "span"),
    ("ratsolve.rational_solutions", "irred.ratsolve", "rational_solutions",
     "span"),
    ("ratsolve.system_rational_solutions", "irred.ratsolve",
     "system_rational_solutions", "span"),
    ("ratsolve.denominator_bound", "irred.ratsolve", "denominator_bound",
     "span"),
    ("ratsolve.degree_bound", "irred.ratsolve", "degree_bound", "span"),
    ("liealg.lie_closure", "irred.liealg", "lie_closure", "span"),
    ("liealg.adjoint_action_matrix", "irred.liealg",
     "adjoint_action_matrix", "span"),
    ("liealg.associated_lie_algebra", "irred.liealg",
     "associated_lie_algebra", "span"),
    ("screen.certify_sl2", "irred.screen", "certify_sl2", "span"),
    ("screen.exponential_solutions_restricted", "irred.screen",
     "exponential_solutions_restricted", "span"),
    ("verdict.reduced_form_obstruction", "irred.verdict",
     "reduced_form_obstruction", "span"),
    ("verdict.p3_psi_and_b", "irred.verdict", "p3_psi_and_b", "span"),
    ("verdict.Certificate.to_json", "irred.verdict", "Certificate.to_json",
     "span"),
)

_TIMED_NAMES = ["field.FieldElem.new_q", "field.FieldElem.new_mu"] + [
    name for name, _, _, kind in TRACED
    if kind != "count" and name != "field.FieldElem.new"]

_PARSERS = ("grammar.parse_ratfun", "linops.parse_operator")
_CLOSURE = "liealg.lie_closure"

# counters kept by the observers below, beside calls and times
_EXTRA = (
    ("linear.rref.cells", "count"), ("linear.rref.max_cols", "count"),
    ("grammar.parse.bytes", "B"), ("jets.linearize.max_dim", "count"),
    ("ratsolve.degree_bound.max", "count"),
    (_CLOSURE + ".brackets", "count"), (_CLOSURE + ".dimension", "count"),
)
_COUNTED = [name for name, _, _, kind in TRACED
            if kind == "count" and name != "linear.mat_bracket"]


def _metric_specs():
    specs = []
    for name in _TIMED_NAMES:
        specs += [(name + ".calls", "count"), (name + ".s", "s"),
                  (name + ".self_s", "s")]
    specs += [(name + ".calls", "count") for name in _COUNTED]
    specs += list(_EXTRA) + [(_CLOSURE + ".useful_ratio", "1")]
    specs += [("verdict.replay.%s.s" % k, "s") for k in EVIDENCE_KINDS]
    specs.append(("trace.overhead_ratio", "1"))
    return specs


# every per-layer metric, in report order: [(name, unit)]
METRICS = _metric_specs()


def irred_modules():
    """Every imported module of the irred package, the package included."""
    import irred
    mods = [irred]
    for info in pkgutil.iter_modules(irred.__path__, "irred."):
        if info.name in sys.modules:
            mods.append(sys.modules[info.name])
    return mods


def _resolve(module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.extra = defaultdict(int)
        self.spans = []
        self.input_id = None
        self._stack = []        # [child seconds, span id, parent, start]
        self._next_id = 0
        self._originals = []    # (namespace, attribute, original)

    # timing --------------------------------------------------------------
    def _enter(self, name, keep):
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        parent = self._parent_id() if keep else None
        frame = [0.0, span_id, parent, time.perf_counter()]
        self._stack.append(frame)
        self.depth[name] += 1
        return frame

    def _parent_id(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _exit(self, name, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[3]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[0]
        self.depth[name] -= 1
        if not self.depth[name]:
            self.incl[name] += dur
        if self._stack:
            self._stack[-1][0] += dur
        if frame[1] is not None:
            self.spans.append((frame[1], name, frame[3], end, frame[2],
                               self.input_id))

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a kept span called name."""
        frame = self._enter(name, True)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame)

    # wrappers ------------------------------------------------------------
    def _wrap(self, name, fn, kind):
        tracer = self
        if kind == "count":
            if name == "linear.mat_bracket":
                def wrapper(*args, **kwargs):
                    if tracer.depth[_CLOSURE]:
                        tracer.extra[_CLOSURE + ".brackets"] += 1
                    return fn(*args, **kwargs)
            else:
                def wrapper(*args, **kwargs):
                    tracer.calls[name] += 1
                    return fn(*args, **kwargs)
        elif name == "field.FieldElem.new":
            def wrapper(obj, params, *args, **kwargs):
                full = name + ("_mu" if params else "_q")
                frame = tracer._enter(full, False)
                try:
                    return fn(obj, params, *args, **kwargs)
                finally:
                    tracer._exit(full, frame)
        else:
            keep = kind == "span"
            observe = _OBSERVERS.get(name)

            def wrapper(*args, **kwargs):
                frame = tracer._enter(name, keep)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._exit(name, frame)
                if observe is not None:
                    observe(tracer, args, out)
                return out
        wrapper.__wrapped__ = fn
        wrapper.perfbench_traced = name
        return wrapper

    def install(self):
        """Replace every binding of every traced object in irred."""
        modules = irred_modules()
        for name, module, attr, kind in TRACED:
            owner, key = _resolve(module, attr)
            original = owner.__dict__[key]
            wrapper = self._wrap(name, original, kind)
            if isinstance(owner, type):
                self._patch(owner, key, wrapper)
                continue
            for mod in modules:
                for k, v in list(vars(mod).items()):
                    if v is original:
                        self._patch(mod, k, wrapper)

    def _patch(self, namespace, key, wrapper):
        self._originals.append((namespace, key,
                                vars(namespace)[key]))
        setattr(namespace, key, wrapper)

    def uninstall(self):
        for namespace, key, original in reversed(self._originals):
            setattr(namespace, key, original)
        self._originals = []

    # results -------------------------------------------------------------
    def metrics(self, overhead_ratio):
        values = {}
        for name in _TIMED_NAMES:
            values[name + ".calls"] = self.calls[name]
            values[name + ".s"] = self.incl[name]
            values[name + ".self_s"] = self.self_s[name]
        for name in _COUNTED:
            values[name + ".calls"] = self.calls[name]
        for key, _ in _EXTRA:
            values[key] = self.extra[key]
        brackets = self.extra[_CLOSURE + ".brackets"]
        values[_CLOSURE + ".useful_ratio"] = (
            self.extra[_CLOSURE + ".dimension_sum"] / brackets
            if brackets else 0.0)
        for kind in EVIDENCE_KINDS:
            values["verdict.replay.%s.s" % kind] = \
                self.incl["verdict.replay." + kind]
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": values[name], "unit": unit}
                for name, unit in METRICS}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, input_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "input": input_id}))
                fh.write("\n")


# extra counters read from a traced call's arguments and result ------------

def _obs_rref(tracer, args, out):
    m = args[0]
    rows, cols = len(m), len(m[0]) if m else 0
    tracer.extra["linear.rref.cells"] += rows * cols
    tracer.extra["linear.rref.max_cols"] = max(
        tracer.extra["linear.rref.max_cols"], cols)


def _obs_parse(tracer, args, out):
    if not any(tracer.depth[p] for p in _PARSERS):
        tracer.extra["grammar.parse.bytes"] += len(args[0].encode("utf-8"))


def _obs_linearize(tracer, args, out):
    tracer.extra["jets.linearize.max_dim"] = max(
        tracer.extra["jets.linearize.max_dim"], len(out.matrix))


def _obs_degree_bound(tracer, args, out):
    tracer.extra["ratsolve.degree_bound.max"] = max(
        tracer.extra["ratsolve.degree_bound.max"], out)


def _obs_closure(tracer, args, out):
    tracer.extra[_CLOSURE + ".dimension"] = max(
        tracer.extra[_CLOSURE + ".dimension"], out.dimension)
    tracer.extra[_CLOSURE + ".dimension_sum"] += out.dimension


_OBSERVERS = {
    "linear.rref": _obs_rref,
    "grammar.parse_ratfun": _obs_parse,
    "linops.parse_operator": _obs_parse,
    "jets.linearize": _obs_linearize,
    "ratsolve.degree_bound": _obs_degree_bound,
    _CLOSURE: _obs_closure,
}


def installed_wrappers():
    """[(module name, attribute, traced name)] of wrappers bound in irred."""
    found = []
    for mod in irred_modules():
        for k, v in vars(mod).items():
            if hasattr(v, "perfbench_traced"):
                found.append((mod.__name__, k, v.perfbench_traced))
            if isinstance(v, type) and v.__module__ == mod.__name__:
                for mk, mv in vars(v).items():
                    if hasattr(mv, "perfbench_traced"):
                        found.append((mod.__name__, "%s.%s" % (k, mk),
                                      mv.perfbench_traced))
    return found


def unwrapped_bindings():
    """[(module name, attribute)] still bound to an original traced object."""
    originals = {}
    for name, module, attr, _ in TRACED:
        owner, key = _resolve(module, attr)
        obj = owner.__dict__[key]
        orig = getattr(obj, "__wrapped__", None)
        if orig is None:
            return [("not installed", name)]
        originals[id(orig)] = name
    left = []
    for mod in irred_modules():
        for k, v in vars(mod).items():
            if id(v) in originals and not hasattr(v, "perfbench_traced"):
                left.append((mod.__name__, k))
    return left
