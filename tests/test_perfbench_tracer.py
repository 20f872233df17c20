"""Every entry point ``perfbench`` traces still exists.

``perfbench/tracer.py`` wraps the simulator's layer entry points by name
(``vars(cls)[method]``) when ``perfbench/run.py --trace 1`` starts, so a
renamed or deleted method breaks the traced benchmark run and nothing
else.  This test loads the tracer from its path, without changing it,
and enters and exits its ``Instrumentation`` once: entering raises on a
missing entry point, and exiting must put every original method back.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrumentation_wraps_and_restores_every_entry_point():
    tracer = load_tracer()
    points = tracer._entry_points()
    originals = {(cls, method): vars(cls).get(method) for cls, method, _ in points}
    instrumentation = tracer.Instrumentation(tracer.Tracer())
    try:
        instrumentation.__enter__()
        wrapped = len(instrumentation._saved)
    finally:
        # Restores whatever was wrapped, also when entering failed part-way.
        instrumentation.__exit__(None, None, None)
    assert wrapped == len(points)
    assert {(cls, method): vars(cls).get(method) for cls, method, _ in points} == originals
