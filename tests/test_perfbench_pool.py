"""A benchmark run checks only the few normalize-pool variants its seed
draws; here every K' entry of the pool must give its recorded normal form."""

import importlib.util
import json
import sys
from pathlib import Path

import leavitt
import leavitt.examples  # the pool reads its graphs from leavitt.examples

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_extension_pool_entry_matches_its_digest():
    wl = _load_workloads()
    forms = json.loads((PERFBENCH / "expected.json").read_text())["normalize"]["forms"]
    field = wl.ext_field(leavitt)
    checked = 0
    for slot in range(wl.NORM_SLOT_COUNT):
        for variant in range(wl.VARIANTS):
            g, text, ext, kind = wl.normalize_pool_item(leavitt, slot, variant)
            if not ext:
                continue
            element = leavitt.exprs.normalize(g, text, field)
            check = wl._normalize_check(g, kind, forms[str(slot)][variant])
            assert check(element) is None, (slot, variant, text)
            checked += 1
    assert checked == 208
