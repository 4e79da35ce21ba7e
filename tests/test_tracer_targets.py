"""The benchmark's tracer must still find every span point it patches.

``perfbench/spans.py`` wraps the functions and methods in its ``TARGETS``
by name. A rename or a method moved to a base class would make it record
nothing for that span, or fail only under ``--trace 1``; this test makes
such a refactor fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(target[0], target[1]) for target in module.TARGETS]


@pytest.mark.parametrize("module_name,attr", _targets(),
                         ids=lambda v: v.removeprefix("subanneal."))
def test_tracer_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer reads vars(cls)[meth]: an inherited method is not found
        assert meth in vars(getattr(module, cls_name)), attr
    else:
        assert callable(getattr(module, attr)), attr
