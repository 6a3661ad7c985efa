"""The benchmark tracer's fixed method routes exist in the package.

``perfbench/tracer.py`` wraps each method named in its ``METHODS`` table
by indexing its class's ``__dict__``, so a renamed or removed method would
make only the traced benchmark run fail.  This test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_method_is_defined_on_its_class():
    for module_name, (class_name, methods) in _tracer().METHODS.items():
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            assert method in cls.__dict__, f"{module_name}.{class_name}.{method}"
