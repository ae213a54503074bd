"""Span tracer that times mcg's public functions from outside the package.

``Tracer.install`` replaces each timed function, in every ``mcg`` module
namespace that holds it, by a wrapper that records a span (name, start, end,
parent span, op id) and folds the function's return value into counters.
``Tracer.remove`` puts the originals back. Spans stay in memory until
``write_spans`` dumps them at the end of a run.

A call to a layer from inside the same layer (``eval_word`` recursing into
itself) is not a new span: a layer's calls count its outermost entries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

# Unknown reasons returned by rewrite.equivalent, by counter suffix.
UNKNOWN_REASONS = {
    "not reduced to the empty word": "not_reduced",
    "budget exhausted": "budget_exhausted",
    "symmetry parts differ as label automorphisms": "symmetry_mismatch",
    "word contains a symmetry without a label action": "symmetry_blocked",
}


def _on_equivalent(tracer: "Tracer", parent: str | None, args, kwargs, verdict) -> None:
    c = tracer.counts
    c["rewrite.budget_spent"] += getattr(verdict, "budget_used", 0)
    proved = verdict.kind == "ProvedEqual"
    if proved:
        c["rewrite.proved_equal"] += 1
    elif verdict.kind == "Unknown":
        c["rewrite.unknown." + UNKNOWN_REASONS.get(verdict.reason, "other")] += 1
    if parent == "replay.replay" and kwargs.get("oracles") is False:
        # replay's goal-set matching is the only oracle-free caller under replay
        c["replay.goal_attempts"] += 1
        c["replay.goal_hits"] += proved


def _on_homology(tracer: "Tracer", parent, args, kwargs, res) -> None:
    c = tracer.counts
    c["homology.columns_checked"] += res.checked_columns
    c["homology.columns_valid"] += res.valid_columns
    c["homology.refuted"] += res.status == "Refuted"


def _on_sweep(tracer: "Tracer", parent, args, kwargs, rep) -> None:
    tracer.counts["sweeps.checked"] += rep.checked


def _on_render(tracer: "Tracer", parent, args, kwargs, text) -> None:
    tracer.counts["report.bytes"] += len(text.encode("utf-8"))


# (module, attribute, layer name, return-value hook); "Class.method" patches
# the class attribute.
TARGETS = (
    ("mcg.modelfile", "load_model", "modelfile.load_model", None),
    ("mcg.script", "parse", "script.parse", None),
    ("mcg.script", "eval_word", "script.eval_word", None),
    ("mcg.replay", "replay", "replay.replay", None),
    ("mcg.rewrite", "equivalent", "rewrite.equivalent", _on_equivalent),
    ("mcg.rewrite", "canonical", "rewrite.canonical", None),
    ("mcg.rewrite", "reduce_word", "rewrite.reduce_word", None),
    ("mcg.rewrite", "check_involution", "rewrite.check_involution", None),
    ("mcg.homology", "verify_identity_homology", "homology.verify", _on_homology),
    ("mcg.permgroup", "project", "permgroup.project", None),
    ("mcg.permgroup", "group_order", "permgroup.bsgs", None),
    ("mcg.models", "SurfaceModel.validate", "models.validate", None),
    ("mcg.sweeps", "homology_property_sweep", "sweeps.homology_sweep", _on_sweep),
    ("mcg.sweeps", "pairing_preservation_sweep", "sweeps.pairing_sweep", _on_sweep),
    ("mcg.shiftmap", "check_shift_properties", "shiftmap.check", None),
    ("mcg.report", "render_json", "report.render_json", _on_render),
)

LAYERS = tuple(t[2] for t in TARGETS)
CALLS = ("script.eval_word", "rewrite.equivalent", "rewrite.canonical", "homology.verify", "permgroup.project")
COUNTS = (
    "replay.goal_attempts",
    "rewrite.budget_spent",
    "rewrite.proved_equal",
    *sorted("rewrite.unknown." + r for r in [*UNKNOWN_REASONS.values(), "other"]),
    "homology.columns_checked",
    "homology.columns_valid",
    "homology.refuted",
    "sweeps.checked",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.op = -1  # id of the op being run; spans carry it
        self._stack: list[tuple[int, str]] = []  # (span index, layer name)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else (-1, None)
            idx = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            stack.append((idx, layer))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, t0, t1, parent[0], tracer.op)
            if hook is not None:
                hook(tracer, parent[1], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded mcg namespace that binds it."""
        namespaces = [m for name, m in sys.modules.items() if name == "mcg" or name.startswith("mcg.")]
        for modname, attr, layer, hook in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(layer, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, hook)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, name, original, wrapper)

    def _patch(self, holder, name: str, original, wrapper) -> None:
        setattr(holder, name, wrapper)
        self._patched.append((holder, name, original))

    def remove(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, t0, t1, _parent, _op) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value per traced pass, unit)."""
        out = {name + ".s": (t / passes, "s") for name, t in self.self_times().items()}
        calls = Counter(s[0] for s in self.spans)
        out.update({name + ".calls": (calls[name] / passes, "count") for name in CALLS})
        c = self.counts
        out.update({name: (c[name] / passes, "count") for name in COUNTS})
        out["report.bytes"] = (c["report.bytes"] / passes, "bytes")
        attempts, checked = c["replay.goal_attempts"], c["homology.columns_checked"]
        out["replay.goal_hit_ratio"] = (c["replay.goal_hits"] / attempts if attempts else 0.0, "ratio")
        out["homology.valid_ratio"] = (c["homology.columns_valid"] / checked if checked else 0.0, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")
