"""The benchmark's tracer wraps critlab attributes by name; each must exist.

``critbench/tracing.py`` replaces the attributes its ``BOUNDARIES`` name with
timing wrappers.  A rename in critlab would make ``critbench/run.py --trace 1``
fail at install time, so this checks every ``(owner, attribute)`` here.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "critbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("critbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("owner, attr", [(b[0], b[1]) for b in _boundaries()],
                         ids=lambda x: x if isinstance(x, str) else getattr(x, "__name__", "?"))
def test_every_traced_attribute_exists(owner, attr):
    assert callable(getattr(owner, attr, None))
