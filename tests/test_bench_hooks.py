"""The benchmark's traced run replaces package attributes by name; every
attribute it hooks must exist, so a rename fails here and not only in a
benchmark self-check."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_hooked_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"dexretarget.{module}.{attr}" for module, attr, *_ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(f"dexretarget.{module}"),
                                       attr, None))]
    assert missing == []
