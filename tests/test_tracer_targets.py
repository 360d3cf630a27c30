"""Every span target of the bench tracer names a live attribute.

bench/tracing.py wraps the functions and methods in its TARGETS table by
name; a renamed or deleted one would only show up when a traced bench
run fails.  The file is loaded by path, as it is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("mod_name, attr, cls_name, span", _targets())
def test_tracer_target_resolves(mod_name, attr, cls_name, span):
    module = importlib.import_module(f"weyldeform.{mod_name}")
    if cls_name is None:
        assert callable(getattr(module, attr))
    else:
        assert callable(getattr(module, cls_name).__dict__[attr])
