"""The benchmark's tracer installs over the package and comes off again.

perfbench/tracing.py wraps functions by name in the package's modules, and
raises KeyError when one of those names is missing. Installing it here,
without running anything, turns a dropped or renamed name into a failed
unit test rather than a failure found only by a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_named_function_and_restores_it():
    tracing = _tracing_module()
    tracer = tracing.Tracer({name: importlib.import_module(f"noisycir.{name}")
                             for name in tracing.LAYERS})
    targets = [(ns, attr) for ns, attr, _name, _hook in tracer._targets()]
    before = [ns.__dict__[attr] for ns, attr in targets]
    try:  # a KeyError in __enter__ must not leave earlier wrappers installed
        tracer.__enter__()
        during = [ns.__dict__[attr] for ns, attr in targets]
    finally:
        tracer.__exit__(None, None, None)
    after = [ns.__dict__[attr] for ns, attr in targets]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
    assert tracer.spans == [] and not tracer.calls
