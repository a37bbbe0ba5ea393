"""The benchmark's traced mode wraps functions of ``leavitt`` by name, so a
rename in ``src/`` must not leave one of its targets dangling."""

import importlib.util
from pathlib import Path

import leavitt
from leavitt import examples
from leavitt.exprs import normalize

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(mod_name, attr, cls_name):
    mod = getattr(leavitt, mod_name)
    return getattr(mod, attr) if cls_name is None else getattr(mod, cls_name).__dict__[attr]


def test_every_tracer_target_resolves_and_is_restored():
    spans = _load_spans()
    targets = [(mod, attr, cls) for _, mod, attr, cls, _ in spans.TARGETS]
    originals = [_bound(*t) for t in targets]
    tracer = spans.Tracer()
    try:
        tracer.install(leavitt)
        for target, original in zip(targets, originals):
            assert _bound(*target) is not original, target
        leavitt.exprs.normalize(examples.toeplitz(), "(1 + 2*f) * (1 - 2*f)")
        assert tracer.calls["exprs.parse_expr"] == tracer.calls["exprs.evaluate"] == 1
        assert tracer.calls["algebra.mul"] >= 1
    finally:
        tracer.uninstall()
    assert [_bound(*t) for t in targets] == originals
    assert leavitt.exprs.normalize is normalize
