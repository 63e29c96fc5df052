"""The benchmark tracer must still find every function it swaps by name.

bench/tracing.py rebinds program functions, methods and writers by their
attribute names.  A rename or removal in the program would otherwise show
only in the slow benchmark tests, so this installs and removes the tracer.
"""

import importlib.util
import os

from pbpolicy import cli

_TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_cleanly():
    tracing = _load_tracing()
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, _ in tracing._REBIND + tracing._METHODS}
    originals.update({(cli, attr): cli.__dict__[attr]
                      for attr in tracing._WRITERS})
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in originals.items())
    finally:
        tracer.remove()
    assert all(owner.__dict__[attr] is fn
               for (owner, attr), fn in originals.items())
