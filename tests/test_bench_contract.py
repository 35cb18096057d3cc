"""The benchmark's per-layer metrics name flowlab functions by string.

perfbench/run.py lists the spans it reports and perfbench/tracing.py's
hooks look spans up by name; a span that no function produces reads 0
instead of failing. These tests read both files (without importing them)
and check that every such name is still a public function of its flowlab
module, which is what the tracer wraps. They also check that every
ExperimentConfig field and method perfbench/workloads.py uses still exists.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from flowlab.cli import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _assigned(tree, target):
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == target):
            return ast.literal_eval(node.value)
    raise LookupError(f"{target} not assigned")


FIELD_CLASSES = _assigned(_module_tree("tracing.py"), "FIELD_CLASSES")
CLASS_SPANS = {span for _, _, span in FIELD_CLASSES}


def reported_spans():
    tree = _module_tree("run.py")
    return {name for target in ("_CALLS_AND_SELF", "_CALLS_ONLY", "_SELF_ONLY")
            for name in _assigned(tree, target)}


def hooked_spans():
    """HOOKS keys and the span names hooks test with `"..." in names`."""
    names = set()
    for node in ast.walk(_module_tree("tracing.py")):
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "HOOKS"):
            names |= {key.value for key in node.value.keys}
        if (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In)
                and isinstance(node.left, ast.Constant)):
            names.add(node.left.value)
    return names


def test_trajectory_states_hook_is_read():
    # the adversarial teacher NFE counter keys on this span
    assert "adv.trajectory_states" in hooked_spans()


@pytest.mark.parametrize(
    "span", sorted((reported_spans() | hooked_spans()) - CLASS_SPANS))
def test_span_is_a_public_function(span):
    layer, attr = span.split(".")
    module = importlib.import_module(f"flowlab.{layer}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn), f"flowlab.{layer} has no function {attr}"
    assert fn.__module__ == module.__name__


@pytest.mark.parametrize("module_name, cls_name, span", FIELD_CLASSES)
def test_field_class_span_is_a_call(module_name, cls_name, span):
    cls = getattr(importlib.import_module(f"flowlab.{module_name}"), cls_name)
    assert "__call__" in cls.__dict__


def _callee(call):
    return getattr(call.func, "attr", None) or getattr(call.func, "id", None)


def workload_config_names():
    """What perfbench/workloads.py uses of ExperimentConfig: keywords of
    ExperimentConfig(...) and replace(config, ...) calls, attributes read off
    a variable named config, and attributes read off the class itself."""
    on_instance, on_class = set(), set()
    for node in ast.walk(_module_tree("workloads.py")):
        if isinstance(node, ast.Call) and _callee(node) in ("ExperimentConfig",
                                                             "replace"):
            on_instance |= {kw.arg for kw in node.keywords}
        elif isinstance(node, ast.Attribute):
            if getattr(node.value, "id", None) == "config":
                on_instance.add(node.attr)
            elif getattr(node.value, "attr", None) == "ExperimentConfig":
                on_class.add(node.attr)
    return on_instance, on_class


ON_INSTANCE, ON_CLASS = workload_config_names()


def test_workload_config_names_are_collected():
    assert {"method", "iterations", "seeds", "eval_samples", "output_dir",
            "batch", "lr", "teacher_field", "mixture", "grid"} <= ON_INSTANCE
    assert ON_CLASS == {"eval_samples"}


@pytest.mark.parametrize("name", sorted(ON_INSTANCE))
def test_workload_config_name_is_a_field_or_method(name):
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert name in fields or inspect.isfunction(getattr(ExperimentConfig, name, None))


@pytest.mark.parametrize("name", sorted(ON_CLASS))
def test_workload_class_default_exists(name):
    # a dataclass field with a default is also a class attribute
    assert name in {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert hasattr(ExperimentConfig, name)
