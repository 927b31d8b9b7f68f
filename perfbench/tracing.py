"""Outside-in layer tracing: spans around calls into katolab's public functions.

Nothing inside ``src/`` changes.  ``Tracer.install`` replaces each traced
function with a wrapper at every module that binds it by name (``fields``
and ``cli`` import the kernels and fuzzers with ``from .kato import ...``),
and on the class for methods.  Patching only the defining module would
silently miss those calls.  ``uninstall`` puts the originals back, so
untraced passes run the library exactly as shipped.

Each wrapped call records a span ``[layer, start, end, parent, attrs]``
in memory; ``attrs`` holds counts read from the call's arguments and
result.  Per-layer metrics are derived from the spans of one pass.
"""

import sys
import time

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _hodge_attrs(args, kwargs, out):
    n, k = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "k")
    return {"rows": int(_arg(args, kwargs, 3, "v").shape[0]), "pair": (n, k),
            "d_vanishing_rows": int(np.sum(out["d_vanishing"])),
            "dstar_vanishing_rows": int(np.sum(out["dstar_vanishing"]))}


def _operator_attrs(args, kwargs, out):
    return {"rows": int(_arg(args, kwargs, 1, "u").shape[0])}


def _lemma_attrs(args, kwargs, out):
    return {"rows": int(_arg(args, kwargs, 2, "samples"))}


def _evaluate_attrs(args, kwargs, out):
    return {"points": int(out.shape[0])}


def _scenario_attrs(args, kwargs, out):
    return {"points_sampled": int(len(_arg(args, kwargs, 1, "X"))),
            "points_skipped": int(out["skipped"])}


def _ellipticity_attrs(args, kwargs, out):
    return {"invariant": int(bool(out.invariant))}


# layer name -> (defining module, attribute path, attrs hook or None)
LAYERS = {
    "kato.batch_hodge_margins": ("katolab.kato", "batch_hodge_margins", _hodge_attrs),
    "kato.batch_operator_margins": ("katolab.kato", "batch_operator_margins", _operator_attrs),
    "kato.fuzz_hodge_inequality": ("katolab.kato", "fuzz_hodge_inequality", None),
    "kato.fuzz_operator_inequality": ("katolab.kato", "fuzz_operator_inequality", None),
    "kato.fuzz_key_lemma": ("katolab.kato", "fuzz_key_lemma", _lemma_attrs),
    "fields.TrigField.evaluate": ("katolab.fields", "TrigField.evaluate", _evaluate_attrs),
    "fields.run_scenario": ("katolab.fields", "run_scenario", None),
    "fields.make_scenario": ("katolab.fields", "make_scenario", None),
    "fields.evaluate_scenario": ("katolab.fields", "evaluate_scenario", _scenario_attrs),
    "fields.symbol_consistency_residual": ("katolab.fields", "symbol_consistency_residual", None),
    "fields.closedness_residual": ("katolab.fields", "closedness_residual", None),
    "fields.exterior_derivative": ("katolab.fields", "exterior_derivative", None),
    "fields.coderivative": ("katolab.fields", "coderivative", None),
    "projections.conformity_report": ("katolab.projections", "conformity_report", None),
    "symbols.catalog": ("katolab.symbols", "catalog", None),
    "symbols.ellipticity_constant": ("katolab.symbols", "ellipticity_constant", _ellipticity_attrs),
    "cli.main": ("katolab.cli", "main", None),
}

# the ten (n,k) pairs whose kernel throughput is reported separately
HODGE_PAIRS = tuple((n, k) for n in range(2, 6) for k in range(1, n))


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []      # spans of the current pass; parents index it
        self._stack = []
        self._patches = []   # (owner, attribute, original)
        self.bindings = {}   # layer -> binding sites patched

    def _wrap(self, layer, fn, hook):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            span = [layer, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patches:
            return
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "katolab" or name.startswith("katolab.")]
        for layer, (mod_name, path, hook) in LAYERS.items():
            owner = sys.modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, hook)
            sites = [owner] if outer else [m for m in modules
                                           if vars(m).get(attr) is original]
            for site in sites:
                setattr(site, attr, wrapper)
                self._patches.append((site, attr, original))
            self.bindings[layer] = sorted(getattr(s, "__name__", str(s)) for s in sites)

    def uninstall(self):
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches = []


def aggregate(spans):
    """Per-layer busy time, self time, call count and summed attrs."""
    agg = {layer: {"busy": 0.0, "child": 0.0, "calls": 0, "attrs": {}}
           for layer in LAYERS}
    pair_busy = {p: 0.0 for p in HODGE_PAIRS}
    pair_rows = {p: 0 for p in HODGE_PAIRS}
    for layer, t0, t1, parent, attrs in spans:
        a = agg[layer]
        a["busy"] += t1 - t0
        a["calls"] += 1
        if parent is not None:
            agg[spans[parent][0]]["child"] += t1 - t0
        for key, val in (attrs or {}).items():
            if key == "pair":
                if val in pair_busy:
                    pair_busy[val] += t1 - t0
                    pair_rows[val] += attrs["rows"]
            else:
                a["attrs"][key] = a["attrs"].get(key, 0) + val
    return agg, pair_busy, pair_rows


def self_check(spans):
    """Problems in the span tree: a child busier than its parent."""
    child = {}
    for layer, t0, t1, parent, _ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    problems = []
    for idx, covered in child.items():
        layer, t0, t1 = spans[idx][:3]
        if covered > (t1 - t0) + 1e-9:
            problems.append(f"children of {layer} busy {covered:.6f}s > "
                            f"parent {t1 - t0:.6f}s")
    return problems


def layer_metrics(spans, report_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, by BENCHMARK.json name."""
    agg, pair_busy, pair_rows = aggregate(spans)

    def busy(layer):
        return agg[layer]["busy"]

    def self_s(layer):
        return agg[layer]["busy"] - agg[layer]["child"]

    def attr(layer, key):
        return agg[layer]["attrs"].get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    hodge = "kato.batch_hodge_margins"
    out = {
        f"{hodge}.busy_s": busy(hodge),
        f"{hodge}.calls": agg[hodge]["calls"],
        f"{hodge}.rows": attr(hodge, "rows"),
        f"{hodge}.d_vanishing_rows": attr(hodge, "d_vanishing_rows"),
        f"{hodge}.dstar_vanishing_rows": attr(hodge, "dstar_vanishing_rows"),
    }
    for n, k in HODGE_PAIRS:
        out[f"{hodge}.rows_per_s.n{n}k{k}"] = ratio(pair_rows[(n, k)],
                                                    pair_busy[(n, k)])
    ev = "fields.TrigField.evaluate"
    ellip = "symbols.ellipticity_constant"
    out.update({
        "kato.fuzz_hodge_inequality.self_s": self_s("kato.fuzz_hodge_inequality"),
        "kato.fuzz_operator_inequality.self_s": self_s("kato.fuzz_operator_inequality"),
        "kato.batch_operator_margins.busy_s": busy("kato.batch_operator_margins"),
        "kato.batch_operator_margins.rows": attr("kato.batch_operator_margins", "rows"),
        "kato.fuzz_key_lemma.busy_s": busy("kato.fuzz_key_lemma"),
        "kato.fuzz_key_lemma.rows": attr("kato.fuzz_key_lemma", "rows"),
        f"{ev}.busy_s": busy(ev),
        f"{ev}.calls": agg[ev]["calls"],
        f"{ev}.points": attr(ev, "points"),
        "fields.evaluate_scenario.self_s": self_s("fields.evaluate_scenario"),
        "fields.symbol_consistency_residual.self_s":
            self_s("fields.symbol_consistency_residual"),
        "fields.closedness_residual.self_s": self_s("fields.closedness_residual"),
        "fields.make_scenario.busy_s": busy("fields.make_scenario"),
        "fields.exterior_derivative.busy_s": busy("fields.exterior_derivative"),
        "fields.coderivative.busy_s": busy("fields.coderivative"),
        "fields.skipped_points_frac": ratio(
            attr("fields.evaluate_scenario", "points_skipped"),
            attr("fields.evaluate_scenario", "points_sampled")),
        "projections.conformity_report.busy_s": busy("projections.conformity_report"),
        "projections.conformity_report.calls": agg["projections.conformity_report"]["calls"],
        "symbols.catalog.busy_s": busy("symbols.catalog"),
        f"{ellip}.busy_s": busy(ellip),
        f"{ellip}.invariant_frac": ratio(attr(ellip, "invariant"), agg[ellip]["calls"]),
        "cli.main.self_s": self_s("cli.main"),
        "cli.report_bytes": report_bytes,
        "trace.spans": len(spans),
    })
    return out


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly pass to pass and run to run."""
    return not (name.endswith("_s") or ".rows_per_s." in name
                or name.startswith("trace.overhead"))

