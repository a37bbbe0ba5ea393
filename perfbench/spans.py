"""Spans around the public functions of each leavitt layer.

``Tracer.install(lv)`` replaces each function in ``TARGETS`` with a wrapper
that records a span (name, start, end, parent) and, for some functions, a
work counter taken from the arguments or the result.  Module-level
functions are rebound in every ``leavitt`` module that imported them by
name; methods are replaced on their class.  ``uninstall()`` puts every
original back.  Nothing under ``src/`` is edited.

Self time is computed as spans close: a span's duration minus the time its
child spans cover.  Spans are kept in memory (up to ``MAX_KEPT``; beyond
that only the totals grow) and written out by ``dump``.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from types import ModuleType

MAX_KEPT = 250_000


def _mul_counts(t, args, kwargs, result):
    a, b = args[0], args[1]
    t.counters["algebra.mul.pairs_tried"] += len(a.terms) * len(b.terms)
    t.counters["algebra.mul.terms_out"] += len(result.terms)


def _from_terms_counts(t, args, kwargs, result):
    t.counters["algebra.from_terms.raw_terms"] += len(args[2])
    t.counters["algebra.from_terms.terms_out"] += len(result.terms)


def _phi_counts(t, args, kwargs, result):
    t.counters["ideals.phi.terms_in"] += len(args[1].terms)
    t.counters["ideals.phi.terms_out"] += len(result.terms)


def _enumerate_counts(t, args, kwargs, result):
    t.counters["ideals.pairs_emitted"] += len(result)


def _hs_counts(t, args, kwargs, result):
    if t.active["ideals.enumerate_admissible"]:
        t.counters["ideals.enumerate.hs_checks"] += 1


def _words_counts(t, args, kwargs, result):
    t.counters["freeness.words_checked"] += result["word_count"]


def _certs_counts(t, args, kwargs, result):
    t.counters["freeness.certs_emitted"] += len(result)


# (span name, module, attribute, class or None, counter hook)
TARGETS = [
    ("scalars.ext_mul", "scalars", "__mul__", "ExtensionScalar", None),
    ("scalars.ext_mul", "scalars", "__rmul__", "ExtensionScalar", None),
    ("scalars.ext_add", "scalars", "__add__", "ExtensionScalar", None),
    ("scalars.ext_add", "scalars", "__radd__", "ExtensionScalar", None),
    ("scalars.ext_inverse", "scalars", "inverse", "ExtensionScalar", None),
    ("modules.mat_mul", "modules", "mat_mul", None, None),
    ("modules.matrix_of", "modules", "matrix_of", None, None),
    ("modules.act", "modules", "act", "_BaseModule", None),
    ("ideals.phi", "ideals", "phi", "AdmissiblePair", _phi_counts),
    ("ideals.enumerate_admissible", "ideals", "enumerate_admissible", None, _enumerate_counts),
    ("ideals.classify", "ideals", "classify", None, None),
    ("graph.is_hereditary_saturated", "graph", "is_hereditary_saturated", "Graph", _hs_counts),
    ("graph.breaking_vertices", "graph", "breaking_vertices", "Graph", None),
    ("graph.hereditary_saturated_closure", "graph", "hereditary_saturated_closure", "Graph", None),
    ("graph.reaching", "graph", "reaching", "Graph", None),
    ("graph.quotient_graph", "graph", "quotient_graph", None, None),
    ("graph.cycle_report", "graph", "cycle_report", "Graph", None),
    ("graph.with_minted", "graph", "with_minted", "Graph", None),
    ("algebra.mul", "algebra", "mul", "AlgebraElement", _mul_counts),
    ("algebra.from_terms", "algebra", "from_terms", "AlgebraElement", _from_terms_counts),
    ("algebra.add", "algebra", "__add__", "AlgebraElement", None),
    ("exprs.parse_expr", "exprs", "parse_expr", None, None),
    ("exprs.evaluate", "exprs", "evaluate", None, None),
    ("freeness.verify_free_words", "freeness", "verify_free_words", None, _words_counts),
    ("freeness.find_free_generators", "freeness", "find_free_generators", None, _certs_counts),
    ("freeness.is_commutative", "freeness", "is_commutative", None, None),
]

SPAN_NAMES = sorted({t[0] for t in TARGETS})


class Tracer:
    def __init__(self):
        self.names = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.kept_id = array("q")
        self.kept_name = array("H")
        self.kept_start = array("d")
        self.kept_end = array("d")
        self.kept_parent = array("q")
        self.dropped = 0
        self.spans = 0
        self.stack = []  # [span id, child time] of each open span
        self.active = Counter()
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self._undo = []

    def _wrap(self, name, fn, hook):
        code = self.names[name]
        stack, active = self.stack, self.active
        materialize = name == "algebra.from_terms"

        def traced(*args, **kwargs):
            if materialize and not isinstance(args[2], list):
                args = args[:2] + (list(args[2]),) + args[3:]
            sid = self.spans
            self.spans += 1
            stack.append([sid, 0.0])
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                _, child = stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - child
                self._keep(sid, code, start, end, stack[-1][0] if stack else -1)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _keep(self, sid, code, start, end, parent):
        if len(self.kept_name) >= MAX_KEPT:
            self.dropped += 1
            return
        self.kept_id.append(sid)
        self.kept_name.append(code)
        self.kept_start.append(start)
        self.kept_end.append(end)
        self.kept_parent.append(parent)

    def install(self, lv):
        """Wrap every target in the given import of leavitt."""
        modules = [lv] + [m for m in vars(lv).values()
                          if isinstance(m, ModuleType) and m.__name__.startswith(lv.__name__ + ".")]
        for name, mod_name, attr, cls_name, hook in TARGETS:
            mod = getattr(lv, mod_name)
            if cls_name is None:
                original = getattr(mod, attr)
                wrapped = self._wrap(name, original, hook)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapped)
                continue
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, hook))
            else:
                wrapped = self._wrap(name, original, hook)
            self._set(cls, attr, wrapped)

    def _set(self, owner, attr, value):
        previous = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, previous = self._undo.pop()
            setattr(owner, attr, previous)

    def layer_metrics(self) -> dict:
        """Per-layer calls, self time and the work counters and ratios."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counters
        out.update({k: c[k] for k in (
            "algebra.mul.pairs_tried", "algebra.mul.terms_out", "algebra.from_terms.raw_terms",
            "ideals.phi.terms_in", "ideals.phi.terms_out", "ideals.pairs_emitted",
            "ideals.enumerate.hs_checks", "freeness.words_checked", "freeness.certs_emitted",
        )})
        out["algebra.mul.yield_ratio"] = _ratio(c["algebra.mul.terms_out"], c["algebra.mul.pairs_tried"])
        out["algebra.from_terms.reduction_ratio"] = _ratio(
            c["algebra.from_terms.terms_out"], c["algebra.from_terms.raw_terms"])
        out["ideals.enumerate.hit_ratio"] = _ratio(
            c["ideals.pairs_emitted"], c["ideals.enumerate.hs_checks"])
        return out

    def dump(self, path, meta: dict):
        """Write the kept spans as JSON, each as [id, name, start, end, parent
        id], in the order they ended; the outermost spans have parent -1."""
        spans = [
            [i, SPAN_NAMES[n], s, e, p]
            for i, n, s, e, p in zip(self.kept_id, self.kept_name, self.kept_start,
                                     self.kept_end, self.kept_parent)
        ]
        data = dict(meta, span_count=self.spans, spans_dropped=self.dropped, spans=spans)
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0
