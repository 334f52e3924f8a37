"""The benchmark's tracer must still find every function it wraps."""

import importlib.util
import os

from fednoisy import nn

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "fedbench",
                      "tracer.py")


def test_tracer_installs_and_uninstalls_cleanly():
    # a renamed or removed traced function makes install() raise here
    spec = importlib.util.spec_from_file_location("fedbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    forward = nn.forward
    t = tracer.install()
    try:
        assert nn.forward.__wrapped__ is forward
    finally:
        t.uninstall()
    assert nn.forward is forward
    assert t.leftovers() == []
