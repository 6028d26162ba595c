"""The benchmark's trace table must name only functions the program has.

``perfbench/tracing.py`` skips a traced name that no longer exists, so a
renamed or deleted function would silently drop its per-layer metrics from
every traced benchmark run.  This test reads the table without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _, _ in tracing.TABLE]
    missing = [f"{module}.{attr}" for module, attr in names
               if getattr(importlib.import_module(module), attr, None) is None]
    assert not missing, f"traced names missing from the program: {missing}"
    assert names
