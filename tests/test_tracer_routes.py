"""The benchmark tracer's fixed routes and labels exist in the package.

``perfbench/tracer.py`` wraps each method named in its ``METHODS`` table
by indexing its class's ``__dict__``, so a renamed or removed method would
make only the traced benchmark run fail.  It also sums its per-layer
figures over spans named by fixed labels such as ``families.FamilySpec.r``;
a renamed function would leave its label unmatched and silently zero the
figure.  These tests fail first.  They only read ``perfbench/``.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = {path.stem for path in (ROOT / "src" / "qcatalan").glob("*.py")} - {"__init__"}


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


def _labels():
    """Every string constant of the tracer shaped ``module.name[.name]`` for a
    package module, less the per-layer metric names of ``BENCHMARK.json``."""
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.split(".")[0] in MODULES
        and all(part.isidentifier() for part in node.value.split("."))
        and len(node.value.split(".")) in (2, 3)
        and node.value not in metrics
    }


def test_every_traced_label_names_a_function_of_the_package():
    labels = _labels()
    assert "families.FamilySpec.r" in labels
    for label in sorted(labels):
        module_name, *path = label.split(".")
        obj = importlib.import_module(f"qcatalan.{module_name}")
        for name in path:
            assert hasattr(obj, name), label
            obj = getattr(obj, name)
        assert inspect.isfunction(inspect.unwrap(obj)), label  # through @cache
        assert obj.__module__ == f"qcatalan.{module_name}", label
